"""Chain candidate sets and the synchronous self-attention update."""

import numpy as np
import pytest

from docrel.autodiff import Tensor
from docrel.corpus import EntityPair, PairKind
from docrel.errors import ConfigError, ShapeError
from docrel.reasoning import chain_candidates, reasoning_update


def pairs_over(n):
    out = []
    for h in range(n):
        for t in range(n):
            if h != t:
                out.append(EntityPair(h, t, PairKind.INTER, []))
    return out


def per_pair_candidates(pairs, mode):
    """Pool of each pair by a comprehension over all other pairs."""
    out = []
    for i, p in enumerate(pairs):
        if mode == "all":
            cand = [j for j in range(len(pairs)) if j != i]
        else:
            cand = [
                j for j, q in enumerate(pairs)
                if j != i and ((q.head == p.head and q.tail != p.tail)
                               or (q.tail == p.tail and q.head != p.head))
            ]
        out.append(np.asarray(cand, dtype=np.int64))
    return out


@pytest.mark.parametrize("mode", ["chains", "all"])
def test_candidates_match_per_pair_oracle(mode):
    rng = np.random.default_rng(4)
    for n in (1, 2, 3, 5, 8):
        pairs = pairs_over(n)
        subset = [pairs[i] for i in sorted(rng.permutation(len(pairs))[:len(pairs) // 2])]
        for pool in (pairs, subset, list(reversed(pairs))):
            got = chain_candidates(pool, mode)
            want = per_pair_candidates(pool, mode)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype
                np.testing.assert_array_equal(g, w)


def test_three_entity_chain_example():
    pairs = pairs_over(3)
    index = {(p.head, p.tail): i for i, p in enumerate(pairs)}
    cand = chain_candidates(pairs, "chains")
    target = index[(0, 2)]  # (A, C)
    got = {(pairs[j].head, pairs[j].tail) for j in cand[target]}
    assert got == {(0, 1), (1, 2)}  # (A,B) and (B,C)


def test_two_entities_have_empty_candidates_and_identity_update():
    pairs = pairs_over(2)
    cand = chain_candidates(pairs, "chains")
    assert all(c.size == 0 for c in cand)
    rng = np.random.default_rng(0)
    reps = rng.normal(size=(2, 6))
    updated, gamma = reasoning_update(Tensor(reps), cand, Tensor(rng.normal(size=(6, 6))))
    np.testing.assert_allclose(updated.data, reps, atol=0, rtol=0)
    np.testing.assert_allclose(np.diag(gamma), [1.0, 1.0])


def test_candidate_count_is_2n_minus_4():
    for n in (3, 4, 6):
        pairs = pairs_over(n)
        cand = chain_candidates(pairs, "chains")
        assert all(c.size == 2 * (n - 2) for c in cand)


def test_all_mode_includes_every_other_pair():
    pairs = pairs_over(3)
    cand = chain_candidates(pairs, "all")
    assert all(c.size == len(pairs) - 1 for c in cand)


def test_unknown_mode_rejected():
    with pytest.raises(ConfigError):
        chain_candidates(pairs_over(2), "some")


def test_zero_weight_update_averages_pool():
    pairs = pairs_over(3)
    cand = chain_candidates(pairs, "chains")
    rng = np.random.default_rng(1)
    reps = rng.normal(size=(6, 6))
    updated, gamma = reasoning_update(Tensor(reps), cand, Tensor(np.zeros((6, 6))))
    for i, c in enumerate(cand):
        members = sorted([i] + list(c))
        np.testing.assert_allclose(updated.data[i], reps[members].mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(gamma[i, members], np.full(len(members), 1 / len(members)))


def test_update_matches_reference_attention_oracle():
    rng = np.random.default_rng(2)
    reps = rng.normal(size=(3, 6))
    w = rng.normal(size=(6, 6))
    cand = [np.array([1, 2]), np.array([0]), np.array([0, 1])]
    updated, gamma = reasoning_update(Tensor(reps), cand, Tensor(w))
    for i in range(3):
        members = sorted([i] + list(cand[i]))
        scores = np.array([(w @ reps[i]) @ reps[k] for k in members])
        e = np.exp(scores - scores.max())
        weights = e / e.sum()
        expected = sum(wk * reps[k] for wk, k in zip(weights, members))
        np.testing.assert_allclose(updated.data[i], expected, atol=1e-9)
        np.testing.assert_allclose(gamma[i, members], weights, atol=1e-9)
        # excluded pairs carry exactly zero weight
        excluded = [k for k in range(3) if k not in members]
        assert np.all(gamma[i, excluded] == 0.0)


def test_gamma_rows_sum_to_one_and_convex_hull():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        pairs = pairs_over(max(2, int(np.ceil((1 + np.sqrt(1 + 4 * n)) / 2))))[:n]
        cand = chain_candidates(pairs, "all")
        reps = rng.normal(size=(n, 4))
        updated, gamma = reasoning_update(Tensor(reps), cand, Tensor(rng.normal(size=(4, 4))))
        np.testing.assert_allclose(gamma.sum(axis=1), np.ones(n), atol=1e-6)
        for i in range(n):
            members = sorted([i] + list(cand[i]))
            lo = reps[members].min(axis=0) - 1e-9
            hi = reps[members].max(axis=0) + 1e-9
            assert np.all(updated.data[i] >= lo) and np.all(updated.data[i] <= hi)


def test_update_is_synchronous_under_pool_permutation():
    rng = np.random.default_rng(4)
    pairs = pairs_over(4)
    reps = rng.normal(size=(len(pairs), 6))
    w = rng.normal(size=(6, 6))
    cand = chain_candidates(pairs, "chains")
    updated, _ = reasoning_update(Tensor(reps), cand, Tensor(w))

    perm = rng.permutation(len(pairs))
    inv = np.argsort(perm)
    pairs_p = [pairs[j] for j in perm]
    cand_p = chain_candidates(pairs_p, "chains")
    updated_p, _ = reasoning_update(Tensor(reps[perm]), cand_p, Tensor(w))
    np.testing.assert_allclose(updated_p.data[inv], updated.data, atol=1e-9)


def test_width_mismatch_rejected():
    pairs = pairs_over(2)
    cand = chain_candidates(pairs, "chains")
    with pytest.raises(ShapeError):
        reasoning_update(Tensor(np.zeros((2, 6))), cand, Tensor(np.zeros((4, 4))))
