"""Logical reasoning over the pooled pair representations.

Each pair attends over chain-compatible pairs, i.e. pairs sharing its head or
its tail, and is replaced by the attention-weighted sum. One layer covers all
two-hop chains; stacking layers extends the horizon.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import EntityPair
from .errors import ConfigError, ShapeError

POOL_MODES = ("chains", "all")


def chain_candidates(pairs: list[EntityPair], mode: str = "chains") -> list[np.ndarray]:
    """Candidate pool indices per pair.

    `chains`: pairs of the form (h, k) or (k, t) with k outside {h, t}.
    `all`: every other pair. Input order must already be deterministic.
    """
    if mode not in POOL_MODES:
        raise ConfigError(f"reasoning pool mode must be one of {POOL_MODES}: {mode!r}")
    if mode == "all":
        mask = ~np.eye(len(pairs), dtype=bool)
    else:
        heads = np.array([p.head for p in pairs])
        tails = np.array([p.tail for p in pairs])
        mask = (heads[:, None] == heads) ^ (tails[:, None] == tails)
    return [row.nonzero()[0] for row in mask]


def reasoning_update(reps: Tensor, candidates: list[np.ndarray],
                     w_att: Tensor) -> tuple[Tensor, np.ndarray]:
    """One synchronous self-attention pass over the pair pool.

    gamma_i = softmax over candidates(i) + {i} of (W r_i) . r_k, and the new
    representation is the gamma-weighted sum of the old ones. Returns the new
    (P, 3d) matrix and the dense (P, P) gamma matrix (zeros outside the pool).
    """
    n, width = reps.shape
    if w_att.shape != (width, width):
        raise ShapeError(f"reasoning_update: weight {w_att.shape}, expected {(width, width)}")
    if len(candidates) != n:
        raise ShapeError(f"reasoning_update: {len(candidates)} candidate sets for {n} pairs")
    # one scatter opens each row's diagonal cell and its candidate cells
    sizes = np.fromiter(map(len, candidates), np.int64, n)
    rows = np.concatenate([np.arange(n), np.repeat(np.arange(n), sizes)])
    cols = np.concatenate([np.arange(n), *candidates])
    mask = np.full((n, n), -np.inf)
    mask[rows, cols] = 0.0
    queries = ad.linear(reps, w_att)
    scores = ad.matmul(queries, ad.transpose(reps)) + ad.constant(mask)
    gamma = ad.softmax(scores)
    updated = ad.matmul(gamma, reps)
    return updated, gamma.data.copy()
