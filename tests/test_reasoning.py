"""Chain groups and the block self-attention update, against the dense oracle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pair_oracle
from docrel import autodiff as ad
from docrel.autodiff import Tape, Tensor, backward, check_gradients
from docrel.errors import ShapeError
from docrel.reasoning import (EntityRows, chain_attention, chain_candidates, reasoning_update,
                              row_products)


def pairs_over(n):
    """(n (n - 1), 2) array of the ordered (head, tail) pairs of n entities."""
    return np.array([(h, t) for h in range(n) for t in range(n) if h != t],
                    dtype=np.int64).reshape(-1, 2)


def groups_of(pairs):
    return chain_candidates(pairs[:, 0], pairs[:, 1])


def pools(groups):
    """Ascending rows of each pair's pool, itself included, read from its cells."""
    out = []
    for i in range(len(groups.group)):
        cells = groups.cells(i)
        out.append(np.sort(cells[cells >= 0]))
    return out


def per_pair_pools(pairs):
    """Pool of each pair by a comprehension over all pairs: itself, and the pairs
    sharing exactly one of its head and tail."""
    return [np.array([j for j, (qh, qt) in enumerate(pairs)
                      if j == i or (qh == h) != (qt == t)], dtype=np.int64)
            for i, (h, t) in enumerate(pairs)]


def random_subset(rng, n_entities):
    """A non-empty random subset of the pairs of n entities, in pair order."""
    pairs = pairs_over(n_entities)
    size = int(rng.integers(1, len(pairs) + 1))
    return pairs[np.sort(rng.permutation(len(pairs))[:size])]


def test_candidates_match_per_pair_oracle():
    rng = np.random.default_rng(4)
    for n in (1, 2, 3, 5, 8):
        pairs = pairs_over(n)
        subset = pairs[np.sort(rng.permutation(len(pairs))[:len(pairs) // 2])]
        for pool in (pairs, subset, pairs[::-1]):
            got, want = pools(groups_of(pool)), per_pair_pools(pool)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype
                np.testing.assert_array_equal(g, w)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.data())
def test_cells_equal_the_dense_oracle_pools(n_entities, data):
    pairs = pairs_over(n_entities)
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    order = data.draw(st.permutations(range(int(np.sum(keep)))))
    subset = pairs[np.asarray(keep, dtype=bool)][list(order)].reshape(-1, 2)
    groups = groups_of(subset)
    candidates = pair_oracle.chain_candidates(subset[:, 0], subset[:, 1])
    for i, pool in enumerate(pools(groups)):
        np.testing.assert_array_equal(pool, np.sort(np.append(candidates[i], i)))
    # layout: head groups first, ascending rows, padding at the end, slots consistent
    m = groups.members
    assert m.shape[1] == groups.width
    for g, row in enumerate(m):
        size = int((row >= 0).sum())
        assert size and (row[size:] == -1).all()
        assert (np.diff(row[:size]) > 0).all()
        key = subset[row[:size], 0 if g < groups.n_head else 1]
        assert (key == key[0]).all()
    for i in range(len(subset)):
        assert groups.group[i, 0] < groups.n_head <= groups.group[i, 1]
        assert (m[groups.group[i], groups.slot[i]] == i).all()


def test_three_entity_chain_example():
    pairs = pairs_over(3)
    index = {(h, t): i for i, (h, t) in enumerate(pairs.tolist())}
    target = index[(0, 2)]  # (A, C)
    got = {tuple(pairs[j].tolist()) for j in pools(groups_of(pairs))[target] if j != target}
    assert got == {(0, 1), (1, 2)}  # (A,B) and (B,C)


def test_two_entities_have_empty_candidates_and_identity_update():
    pairs = pairs_over(2)
    groups = groups_of(pairs)
    assert [p.tolist() for p in pools(groups)] == [[0], [1]]
    rng = np.random.default_rng(0)
    reps = rng.normal(size=(2, 6))
    updated, gamma = reasoning_update(Tensor(reps), groups, Tensor(rng.normal(size=(6, 6))))
    np.testing.assert_allclose(updated.data, reps, atol=0, rtol=0)
    np.testing.assert_allclose(np.diag(pair_oracle.dense_gamma(groups, gamma)), [1.0, 1.0])


def test_candidate_count_is_2n_minus_4():
    for n in (3, 4, 6):
        assert all(p.size - 1 == 2 * (n - 2) for p in pools(groups_of(pairs_over(n))))


def test_zero_weight_update_averages_pool():
    pairs = pairs_over(3)
    groups = groups_of(pairs)
    rng = np.random.default_rng(1)
    reps = rng.normal(size=(6, 6))
    updated, gamma = reasoning_update(Tensor(reps), groups, Tensor(np.zeros((6, 6))))
    dense = pair_oracle.dense_gamma(groups, gamma)
    for i, members in enumerate(pools(groups)):
        np.testing.assert_allclose(updated.data[i], reps[members].mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(dense[i, members], np.full(len(members), 1 / len(members)))


def test_update_matches_reference_attention_oracle():
    rng = np.random.default_rng(2)
    pairs = pairs_over(4)[[0, 2, 4, 5, 9, 11]]
    groups = groups_of(pairs)
    reps = rng.normal(size=(len(pairs), 6))
    w = rng.normal(size=(6, 6))
    updated, gamma = reasoning_update(Tensor(reps), groups, Tensor(w))
    dense = pair_oracle.dense_gamma(groups, gamma)
    for i, members in enumerate(per_pair_pools(pairs)):
        scores = np.array([(w @ reps[i]) @ reps[k] for k in members])
        e = np.exp(scores - scores.max())
        weights = e / e.sum()
        expected = sum(wk * reps[k] for wk, k in zip(weights, members))
        np.testing.assert_allclose(updated.data[i], expected, atol=1e-9)
        np.testing.assert_allclose(dense[i, members], weights, atol=1e-9)
        # pairs outside the pool carry exactly zero weight
        assert np.all(np.delete(dense[i], members) == 0.0)


def test_gamma_rows_sum_to_one_and_convex_hull():
    rng = np.random.default_rng(3)
    for _ in range(50):
        pairs = random_subset(rng, int(rng.integers(2, 6)))
        groups = groups_of(pairs)
        reps = rng.normal(size=(len(pairs), 4))
        updated, gamma = reasoning_update(Tensor(reps), groups, Tensor(rng.normal(size=(4, 4))))
        np.testing.assert_allclose(gamma.sum(axis=1), np.ones(len(pairs)), atol=1e-6)
        for i, members in enumerate(pools(groups)):
            lo = reps[members].min(axis=0) - 1e-9
            hi = reps[members].max(axis=0) + 1e-9
            assert np.all(updated.data[i] >= lo) and np.all(updated.data[i] <= hi)


def test_update_is_synchronous_under_pool_permutation():
    rng = np.random.default_rng(4)
    pairs = pairs_over(4)
    reps = rng.normal(size=(len(pairs), 6))
    w = rng.normal(size=(6, 6))
    updated, _ = reasoning_update(Tensor(reps), groups_of(pairs), Tensor(w))

    perm = rng.permutation(len(pairs))
    inv = np.argsort(perm)
    updated_p, _ = reasoning_update(Tensor(reps[perm]), groups_of(pairs[perm]), Tensor(w))
    np.testing.assert_allclose(updated_p.data[inv], updated.data, atol=1e-9)


def test_width_mismatch_rejected():
    groups = groups_of(pairs_over(2))
    with pytest.raises(ShapeError):
        reasoning_update(Tensor(np.zeros((2, 6))), groups, Tensor(np.zeros((4, 4))))
    with pytest.raises(ShapeError):
        chain_attention(Tensor(np.zeros((2, 6))), Tensor(np.zeros((2, 5))), groups)
    with pytest.raises(ShapeError):
        chain_attention(Tensor(np.zeros((3, 6))), Tensor(np.zeros((3, 6))), groups)


def gradients_of(fn, leaves):
    with Tape():
        loss = fn()
        backward(loss)
        grads = [t.grad.copy() for t in leaves]
    for t in leaves:
        t.zero_grad()
    return float(loss.data), grads


@pytest.mark.parametrize("layers", [1, 2])
def test_update_and_gradients_match_the_dense_oracle(layers):
    rng = np.random.default_rng(6)
    for _ in range(20):
        pairs = random_subset(rng, int(rng.integers(2, 7)))
        reps = Tensor(rng.normal(size=(len(pairs), 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(6, 6)) * 0.5, requires_grad=True)
        weights = ad.constant(rng.normal(size=(len(pairs), 6)))

        def run(update, pool):
            def stacked():
                out = gamma = reps
                for _ in range(layers):
                    out, gamma = update(out, pool, w)
                return out, gamma
            out, gamma = stacked()
            loss, grads = gradients_of(lambda: ad.tsum(ad.mul(stacked()[0], weights)), [reps, w])
            return out.data, gamma, loss, grads

        groups = groups_of(pairs)
        out, gamma, loss, grads = run(reasoning_update, groups)
        out_d, gamma_d, loss_d, grads_d = run(
            pair_oracle.reasoning_update, pair_oracle.chain_candidates(pairs[:, 0], pairs[:, 1]))
        np.testing.assert_allclose(out, out_d, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pair_oracle.dense_gamma(groups, gamma), gamma_d,
                                   rtol=0, atol=1e-12)
        assert loss == pytest.approx(loss_d, abs=1e-12)
        for a, b in zip(grads, grads_d):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def ragged_cases():
    """(name, pairs) with groups of unequal size, so padding is exercised."""
    return [
        # (0, 3) is alone in its head group; tail groups of 1, 2 and 3 rows
        ("alone_in_head_group", np.array([[0, 3], [1, 2], [1, 3], [1, 0], [2, 3], [2, 0]])),
        ("two_entities", pairs_over(2)),
        ("single_pair", np.array([[2, 1]])),
        ("full_four", pairs_over(4)),
    ]


@pytest.mark.parametrize("name,pairs", ragged_cases(), ids=[c[0] for c in ragged_cases()])
def test_chain_attention_finite_differences(name, pairs):
    rng = np.random.default_rng(11)
    groups = groups_of(pairs)
    if name == "alone_in_head_group":
        sizes = (groups.members >= 0).sum(axis=1)
        assert sizes[groups.group[0, 0]] == 1 and len(set(sizes.tolist())) > 1
    queries = Tensor(rng.normal(size=(len(pairs), 5)), requires_grad=True)
    reps = Tensor(rng.normal(size=(len(pairs), 5)), requires_grad=True)
    weights = ad.constant(rng.normal(size=(len(pairs), 5)))
    err, checked, skipped = check_gradients(
        lambda: ad.tsum(ad.mul(chain_attention(queries, reps, groups)[0], weights)),
        [queries, reps])
    assert checked == 2 * queries.size and skipped == 0
    assert err < 1e-6, err


def test_two_reasoning_layers_finite_differences():
    rng = np.random.default_rng(12)
    pairs = ragged_cases()[0][1]
    groups = groups_of(pairs)
    reps = Tensor(rng.normal(size=(len(pairs), 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 4)) * 0.5, requires_grad=True)
    weights = ad.constant(rng.normal(size=(len(pairs), 4)))

    def loss():
        out, _ = reasoning_update(reps, groups, w)
        out, _ = reasoning_update(out, groups, w)
        return ad.tsum(ad.mul(out, weights))

    err, checked, skipped = check_gradients(loss, [reps, w])
    assert checked == reps.size + w.size and skipped == 0
    assert err < 1e-6, err


def test_forward_and_backward_allocate_no_pair_by_pair_array():
    rng = np.random.default_rng(13)
    pairs = pairs_over(40)
    n = len(pairs)
    groups = groups_of(pairs)
    reps = Tensor(rng.normal(size=(n, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    tracemalloc.start()
    try:
        with Tape():
            out, _ = reasoning_update(reps, groups, w)
            backward(ad.tsum(out))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a (P, P) float array alone would take n * n * 8 bytes; the (P, 2L) cells take 1/20 of it
    assert peak < n * n * 8 / 2, (peak, n * n * 8)


class EntityPool:
    """A (P, 3d) pool whose rows at `inter` read [entities[h]; entities[t]; context]
    and whose other rows are free leaves."""

    def __init__(self, rng, pairs, d, share, with_context):
        n = len(pairs)
        self.inter = np.sort(rng.permutation(n)[:max(1, round(share * n))])
        self.rest = np.setdiff1d(np.arange(n), self.inter)
        self.heads, self.tails = pairs[self.inter, 0], pairs[self.inter, 1]
        self.entities = Tensor(rng.normal(size=(pairs.max() + 1, d)), requires_grad=True)
        self.free = Tensor(rng.normal(size=(len(self.rest), 3 * d)), requires_grad=True)
        self.context = (Tensor(rng.normal(size=(len(self.inter), d)), requires_grad=True)
                        if with_context else None)
        self.leaves = [self.entities] + [t for t in (self.free, self.context)
                                         if t is not None and t.size]

    def reps(self) -> Tensor:
        third = self.context
        if third is None:
            third = ad.constant(np.zeros((len(self.inter), self.entities.shape[1])))
        rows = ad.concat([ad.take_rows(self.entities, self.heads),
                          ad.take_rows(self.entities, self.tails), third], axis=-1)
        if not self.rest.size:
            return rows
        return ad.place_rows([rows, self.free], [self.inter, self.rest])

    def entity_rows(self) -> EntityRows:
        return EntityRows(self.inter, self.entities, self.heads, self.tails, self.context)


@pytest.mark.parametrize("share", [0.4, 1.0])
@pytest.mark.parametrize("with_context", [True, False], ids=["context", "no_context"])
def test_entity_row_queries_match_the_linear_queries(share, with_context):
    rng = np.random.default_rng(15)
    for _ in range(10):
        pairs = random_subset(rng, int(rng.integers(2, 7)))
        pool = EntityPool(rng, pairs, 3, share, with_context)
        w = Tensor(rng.normal(size=(9, 9)) * 0.5, requires_grad=True)
        weights = ad.constant(rng.normal(size=(len(pairs), 9)))
        groups = groups_of(pairs)

        def run(rows):
            out, gamma = reasoning_update(pool.reps(), groups, w, rows)
            _, grads = gradients_of(
                lambda: ad.tsum(ad.mul(reasoning_update(pool.reps(), groups, w, rows)[0],
                                       weights)), pool.leaves + [w])
            return out.data, gamma, grads

        out, gamma, grads = run(pool.entity_rows())
        out_d, gamma_d, grads_d = run(None)
        np.testing.assert_allclose(out, out_d, rtol=0, atol=1e-12)
        np.testing.assert_allclose(gamma, gamma_d, rtol=0, atol=1e-12)
        for a, b in zip(grads, grads_d):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def test_entity_row_queries_finite_differences():
    rng = np.random.default_rng(16)
    pairs = ragged_cases()[0][1]
    pool = EntityPool(rng, pairs, 2, 0.5, True)
    w = Tensor(rng.normal(size=(6, 6)) * 0.5, requires_grad=True)
    weights = ad.constant(rng.normal(size=(len(pairs), 6)))
    groups = groups_of(pairs)
    leaves = pool.leaves + [w]
    err, checked, skipped = check_gradients(
        lambda: ad.tsum(ad.mul(reasoning_update(pool.reps(), groups, w, pool.entity_rows())[0],
                               weights)), leaves)
    assert checked == sum(t.size for t in leaves) and skipped == 0
    assert err < 1e-6, err


def test_float32_chain_attention_stays_float32(monkeypatch):
    rng = np.random.default_rng(17)
    pairs = ragged_cases()[0][1]
    groups = groups_of(pairs)
    q, r, weights = (rng.normal(size=(len(pairs), 5)) for _ in range(3))

    def run():
        queries, reps = Tensor(q, requires_grad=True), Tensor(r, requires_grad=True)
        with Tape():
            out, gamma = chain_attention(queries, reps, groups)
            backward(ad.tsum(ad.mul(out, ad.constant(weights))))
        return out.data, gamma, queries.grad, reps.grad

    want = run()
    # every array an op hands to the tape, before Tensor casts it to the default dtype
    made = []
    result, accum, adopt = ad._result, ad._accum, ad._adopt
    monkeypatch.setattr(ad, "_result", lambda data, *rest: made.append(data.dtype) or
                        result(data, *rest))
    monkeypatch.setattr(ad, "_accum", lambda t, g: made.append(g.dtype) or accum(t, g))
    monkeypatch.setattr(ad, "_adopt", lambda t, g: made.append(g.dtype) or adopt(t, g))
    ad.set_default_dtype(np.float32)
    try:
        got = run()
    finally:
        ad.set_default_dtype(np.float64)
    assert set(made) == {np.dtype(np.float32)}
    for a, b in zip(got, want):
        assert a.dtype == np.float32
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-5)


@pytest.mark.parametrize("name,pairs", ragged_cases(), ids=[c[0] for c in ragged_cases()])
def test_chain_attention_with_values_finite_differences(name, pairs):
    rng = np.random.default_rng(18)
    groups = groups_of(pairs)
    queries = Tensor(rng.normal(size=(len(pairs), 5)), requires_grad=True)
    reps = Tensor(rng.normal(size=(len(pairs), 5)), requires_grad=True)
    values = Tensor(rng.normal(size=(len(pairs), 3)), requires_grad=True)
    weights = ad.constant(rng.normal(size=(len(pairs), 3)))
    leaves = [queries, reps, values]
    err, checked, skipped = check_gradients(
        lambda: ad.tsum(ad.mul(chain_attention(queries, reps, groups, values)[0], weights)),
        leaves)
    assert checked == sum(t.size for t in leaves) and skipped == 0
    assert err < 1e-6, err


def test_chain_attention_values_mix_with_the_reps_gamma():
    rng = np.random.default_rng(19)
    pairs = random_subset(rng, 6)
    groups = groups_of(pairs)
    q, r = (Tensor(rng.normal(size=(len(pairs), 4))) for _ in range(2))
    v = rng.normal(size=(len(pairs), 7))
    out, gamma = chain_attention(q, r, groups, Tensor(v))
    _, gamma_r = chain_attention(q, r, groups)
    np.testing.assert_array_equal(gamma, gamma_r)
    np.testing.assert_allclose(out.data, pair_oracle.dense_gamma(groups, gamma) @ v,
                               rtol=0, atol=1e-12)
    with pytest.raises(ShapeError):
        chain_attention(q, r, groups, Tensor(v[1:]))


class SentencePool(EntityPool):
    """An EntityPool whose inter rows' context is alpha @ sentences."""

    def __init__(self, rng, pairs, d, share, n_sentences=3):
        super().__init__(rng, pairs, d, share, with_context=False)
        weights = rng.random((len(self.inter), n_sentences))
        self.alpha = Tensor(weights / weights.sum(axis=1, keepdims=True), requires_grad=True)
        self.sentences = Tensor(rng.normal(size=(n_sentences, d)), requires_grad=True)
        self.leaves += [self.alpha, self.sentences]

    def reps(self) -> Tensor:
        self.context = ad.matmul(self.alpha, self.sentences)
        return super().reps()

    def entity_rows(self) -> EntityRows:
        return EntityRows(self.inter, self.entities, self.heads, self.tails,
                          (self.alpha, self.sentences))


def factored_last_layer(pool, groups, w, w2):
    """The model's last layer: queries and values formed per entity and per sentence,
    and the hidden-wide values mixed by the chain attention over the 3d-wide rows."""
    reps, rows = pool.reps(), pool.entity_rows()
    return reasoning_update(reps, groups, w, rows, row_products(reps, w2, rows))[0]


def dense_last_layer(pool, groups, w, w2):
    """The same as a dense update of the whole rows, then the classifier's product."""
    return ad.linear(reasoning_update(pool.reps(), groups, w)[0], w2)


@pytest.mark.parametrize("share", [0.4, 1.0])
def test_factored_values_match_the_dense_update(share):
    rng = np.random.default_rng(20)
    for _ in range(10):
        pairs = random_subset(rng, int(rng.integers(2, 7)))
        pool = SentencePool(rng, pairs, 3, share)
        w = Tensor(rng.normal(size=(9, 9)) * 0.5, requires_grad=True)
        w2 = Tensor(rng.normal(size=(4, 9)), requires_grad=True)
        weights = ad.constant(rng.normal(size=(len(pairs), 4)))
        groups = groups_of(pairs)
        leaves = pool.leaves + [w, w2]

        def run(layer):
            _, grads = gradients_of(
                lambda: ad.tsum(ad.mul(layer(pool, groups, w, w2), weights)), leaves)
            return layer(pool, groups, w, w2).data, grads

        out, grads = run(factored_last_layer)
        out_d, grads_d = run(dense_last_layer)
        np.testing.assert_allclose(out, out_d, rtol=0, atol=1e-12)
        for a, b in zip(grads, grads_d):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def test_factored_values_finite_differences():
    rng = np.random.default_rng(21)
    pairs = ragged_cases()[0][1]
    pool = SentencePool(rng, pairs, 2, 0.5)
    w = Tensor(rng.normal(size=(6, 6)) * 0.5, requires_grad=True)
    w2 = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
    weights = ad.constant(rng.normal(size=(len(pairs), 3)))
    groups = groups_of(pairs)
    leaves = pool.leaves + [w, w2]
    err, checked, skipped = check_gradients(
        lambda: ad.tsum(ad.mul(factored_last_layer(pool, groups, w, w2), weights)), leaves)
    assert checked == sum(t.size for t in leaves) and skipped == 0
    assert err < 1e-6, err
