"""Logical reasoning over the pooled pair representations.

Each pair attends over chain-compatible pairs, i.e. pairs sharing its head or
its tail, and is replaced by the attention-weighted sum. One layer covers all
two-hop chains; stacking layers extends the horizon.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError

POOL_MODES = ("chains", "all")


def chain_candidates(heads: np.ndarray, tails: np.ndarray,
                     mode: str = "chains") -> list[np.ndarray]:
    """Candidate pool indices per pair (heads[i], tails[i]).

    `chains`: pairs of the form (h, k) or (k, t) with k outside {h, t}.
    `all`: every other pair. Input order must already be deterministic.
    """
    if mode not in POOL_MODES:
        raise ConfigError(f"reasoning pool mode must be one of {POOL_MODES}: {mode!r}")
    heads, tails = np.asarray(heads), np.asarray(tails)
    n = len(heads)
    if mode == "all":
        mask = ~np.eye(n, dtype=bool)
    else:
        mask = (heads[:, None] == heads) ^ (tails[:, None] == tails)
    # flat ids run row by row, so row i's candidates are the ids in [i n, (i + 1) n)
    cells = np.flatnonzero(mask)
    return np.split(cells % max(n, 1), np.searchsorted(cells, np.arange(1, n + 1) * n))[:-1]


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
