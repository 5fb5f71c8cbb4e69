"""Chain candidate sets and the synchronous self-attention update."""

import numpy as np
import pytest

from docrel.autodiff import Tensor
from docrel.errors import ConfigError, ShapeError
from docrel.reasoning import chain_candidates, reasoning_update


def pairs_over(n):
    """(n (n - 1), 2) array of the ordered (head, tail) pairs of n entities."""
    return np.array([(h, t) for h in range(n) for t in range(n) if h != t],
                    dtype=np.int64).reshape(-1, 2)


def candidates(pairs, mode):
    return chain_candidates(pairs[:, 0], pairs[:, 1], mode)


def per_pair_candidates(pairs, mode):
    """Pool of each pair by a comprehension over all other pairs."""
    out = []
    for i, (h, t) in enumerate(pairs):
        if mode == "all":
            cand = [j for j in range(len(pairs)) if j != i]
        else:
            cand = [
                j for j, (qh, qt) in enumerate(pairs)
                if j != i and ((qh == h and qt != t) or (qt == t and qh != h))
            ]
        out.append(np.asarray(cand, dtype=np.int64))
    return out


@pytest.mark.parametrize("mode", ["chains", "all"])
def test_candidates_match_per_pair_oracle(mode):
    rng = np.random.default_rng(4)
    for n in (1, 2, 3, 5, 8):
        pairs = pairs_over(n)
        subset = pairs[np.sort(rng.permutation(len(pairs))[:len(pairs) // 2])]
        for pool in (pairs, subset, pairs[::-1]):
            got = candidates(pool, mode)
            want = per_pair_candidates(pool, mode)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype
                np.testing.assert_array_equal(g, w)


def test_three_entity_chain_example():
    pairs = pairs_over(3)
    index = {(h, t): i for i, (h, t) in enumerate(pairs.tolist())}
    cand = candidates(pairs, "chains")
    target = index[(0, 2)]  # (A, C)
    got = {tuple(pairs[j].tolist()) for j in cand[target]}
    assert got == {(0, 1), (1, 2)}  # (A,B) and (B,C)


def test_two_entities_have_empty_candidates_and_identity_update():
    pairs = pairs_over(2)
    cand = candidates(pairs, "chains")
    assert all(c.size == 0 for c in cand)
    rng = np.random.default_rng(0)
    reps = rng.normal(size=(2, 6))
    updated, gamma = reasoning_update(Tensor(reps), cand, Tensor(rng.normal(size=(6, 6))))
    np.testing.assert_allclose(updated.data, reps, atol=0, rtol=0)
    np.testing.assert_allclose(np.diag(gamma), [1.0, 1.0])


def test_candidate_count_is_2n_minus_4():
    for n in (3, 4, 6):
        pairs = pairs_over(n)
        cand = candidates(pairs, "chains")
        assert all(c.size == 2 * (n - 2) for c in cand)


def test_all_mode_includes_every_other_pair():
    pairs = pairs_over(3)
    cand = candidates(pairs, "all")
    assert all(c.size == len(pairs) - 1 for c in cand)


def test_unknown_mode_rejected():
    with pytest.raises(ConfigError):
        candidates(pairs_over(2), "some")


def test_zero_weight_update_averages_pool():
    pairs = pairs_over(3)
    cand = candidates(pairs, "chains")
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
        cand = candidates(pairs, "all")
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
    cand = candidates(pairs, "chains")
    updated, _ = reasoning_update(Tensor(reps), cand, Tensor(w))

    perm = rng.permutation(len(pairs))
    inv = np.argsort(perm)
    cand_p = candidates(pairs[perm], "chains")
    updated_p, _ = reasoning_update(Tensor(reps[perm]), cand_p, Tensor(w))
    np.testing.assert_allclose(updated_p.data[inv], updated.data, atol=1e-9)


def test_width_mismatch_rejected():
    pairs = pairs_over(2)
    cand = candidates(pairs, "chains")
    with pytest.raises(ShapeError):
        reasoning_update(Tensor(np.zeros((2, 6))), cand, Tensor(np.zeros((4, 4))))
