"""Logical reasoning over the pooled pair representations.

Each pair (h, t) attends over the chains through a bridge entity k, i.e. the
pairs (h, k) and (k, t), plus itself, and is replaced by the attention-weighted
sum. One layer covers all two-hop chains; stacking layers extends the horizon.

Pairs are unique and have h != t, so that pool is exactly the pair's head group
{(h, .)} joined with its tail group {(., t)}, which share only the pair itself.
The update therefore runs as block attention within each group: every pair is
scored against its two groups, never against a dense (P, P) matrix.

The attention may mix other rows than the ones it scores (`values`). The
model's classifier starts with a linear layer W2, and W2 (gamma r) equals
gamma (W2 r), so the last layer mixes the hidden-wide products W2 r instead of
the 3d-wide rows. `row_products` forms such products, and the queries, per
entity and per sentence for the rows of inter pairs (`EntityRows`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError

BLOCK = 1 << 19
"""Elements per gathered (groups, L, width) block of `chain_attention`."""


@dataclass
class ChainGroups:
    """The head and tail groups of a pair subset, as padded arrays of rows."""

    members: np.ndarray  # (G, L) rows of each group, ascending, padded with -1; head groups first
    n_head: int          # members[:n_head] are head groups, the rest tail groups
    group: np.ndarray    # (P, 2) head group and tail group of each pair
    slot: np.ndarray     # (P, 2) slot of each pair in its head group and in its tail group

    @property
    def width(self) -> int:
        """L, the size of the largest group."""
        return self.members.shape[1]

    def cells(self, i: int) -> np.ndarray:
        """(2L,) rows behind pair i's attention cells: its head group, then its tail
        group with the pair's own slot set to -1 (it is already a head-group cell)."""
        out = self.members[self.group[i]].ravel()
        out[self.width + self.slot[i, 1]] = -1
        return out


def _group_by(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(sorting order, group of each sorted row, its slot, group sizes) of equal keys."""
    order = np.argsort(keys, kind="stable")
    sizes = np.bincount(keys)
    sizes = sizes[sizes > 0]
    start = np.cumsum(sizes) - sizes
    gid = np.repeat(np.arange(sizes.size), sizes)
    return order, gid, np.arange(keys.size) - start[gid], sizes


def chain_candidates(heads: np.ndarray, tails: np.ndarray) -> ChainGroups:
    """Head and tail groups of the pairs (heads[i], tails[i]); pairs must be unique, h != t."""
    heads, tails = np.asarray(heads, dtype=np.int64), np.asarray(tails, dtype=np.int64)
    h_order, h_gid, h_slot, h_sizes = _group_by(heads)
    t_order, t_gid, t_slot, t_sizes = _group_by(tails)
    width = int(max(h_sizes.max(initial=0), t_sizes.max(initial=0)))
    members = np.full((h_sizes.size + t_sizes.size, width), -1, dtype=np.int64)
    members[h_gid, h_slot] = h_order
    members[h_sizes.size + t_gid, t_slot] = t_order
    group = np.empty((heads.size, 2), dtype=np.int64)
    slot = np.empty((heads.size, 2), dtype=np.int64)
    group[h_order, 0], slot[h_order, 0] = h_gid, h_slot
    group[t_order, 1], slot[t_order, 1] = h_sizes.size + t_gid, t_slot
    return ChainGroups(members=members, n_head=int(h_sizes.size), group=group, slot=slot)


def _chunks(groups: ChainGroups, width: int) -> list[tuple]:
    """(cells, rows, valid, gather rows, run) per chunk of groups, head groups first.

    Head groups fill cells [0, L) of their members' rows, tail groups [L, 2L).
    A chunk spans at most BLOCK // (L width) groups, one at least. `rows` are
    its members at the valid slots in slot order; `valid` is None when no slot
    is padding. Padding gathers row 0 and is masked by the caller. `run` is the
    slice of the gathered rows when they are consecutive, else None.
    """
    members, L = groups.members, groups.width
    step = max(1, BLOCK // max(1, L * width))
    out = []
    for cells, lo, hi in ((slice(0, L), 0, groups.n_head),
                          (slice(L, 2 * L), groups.n_head, len(members))):
        for start in range(lo, hi, step):
            m = members[start:min(start + step, hi)]
            valid = m >= 0
            if valid.all():
                flat = m.ravel()
                consecutive = flat[-1] - flat[0] == flat.size - 1 and (np.diff(flat) == 1).all()
                out.append((cells, flat, None, m,
                            slice(flat[0], flat[-1] + 1) if consecutive else None))
            else:
                out.append((cells, m[valid], valid, np.where(valid, m, 0), None))
    return out


def _valid_rows(block: np.ndarray, valid: np.ndarray | None) -> np.ndarray:
    """The (chunk, L, ...) block's entries at valid slots, flattened; a view without padding."""
    flat = block.reshape(-1, *block.shape[2:])
    return flat if valid is None else flat[valid.ravel()]


class _Buffers:
    """Reused (chunk, L, width) scratch blocks, so a walk allocates each once."""

    def __init__(self, groups: ChainGroups, width: int, dtype):
        step = max(1, BLOCK // max(1, groups.width * width))
        self.shape = (min(step, len(groups.members)), groups.width)
        self.dtype = dtype
        self.blocks: dict[tuple[int, int], np.ndarray] = {}

    def _block(self, k: int, width: int) -> np.ndarray:
        block = self.blocks.get((k, width))
        if block is None:
            block = self.blocks[k, width] = np.empty(self.shape + (width,), self.dtype)
        return block

    def take(self, k: int, a: np.ndarray, idx: np.ndarray, run: slice | None) -> np.ndarray:
        """a[idx], read-only: a view when idx is the run of consecutive rows `run`."""
        if run is not None:
            return a[run].reshape(*idx.shape, *a.shape[1:])
        # every index is a valid row; numpy buffers `out` under the default mode="raise"
        return np.take(a, idx, axis=0, out=self._block(k, a.shape[1])[:len(idx)], mode="clip")

    def matmul(self, k: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.matmul(a, b, out=self._block(k, b.shape[-1])[:len(a)])


def _mix(gamma: np.ndarray, values: np.ndarray, chunks: list[tuple],
         buf: _Buffers) -> np.ndarray:
    n, width = values.shape
    out = np.empty((n, width), values.dtype)
    for cells, rows, valid, idx, run in chunks:
        part = _valid_rows(buf.matmul(0, gamma[idx, cells], buf.take(1, values, idx, run)), valid)
        if cells.start:
            out[rows] += part
        else:
            out[rows] = part
    return out


def chain_mix(gamma: np.ndarray, values: np.ndarray, groups: ChainGroups) -> np.ndarray:
    """(P, width) gamma-weighted sums of the rows of values behind each pair's cells.

    Every pair sits in exactly one head and one tail group, so head chunks
    write each row once and tail chunks add to it.
    """
    width = values.shape[1]
    return _mix(gamma, values, _chunks(groups, width), _Buffers(groups, width, values.dtype))


def chain_attention(queries: Tensor, reps: Tensor, groups: ChainGroups,
                    values: Tensor | None = None) -> tuple[Tensor, np.ndarray]:
    """Block attention of every pair over its head and tail groups, as one taped op.

    Pair i scores each row k of its two groups by queries[i] . reps[k]; padding
    and the pair's own cell in its tail group are masked, one softmax runs over
    the 2L logits, and the result is the weighted sum of the rows of `values`
    (of reps when None), which may have a width of their own. Returns that
    (P, width) tensor and the (P, 2L) cell weights gamma, laid out as in
    `ChainGroups.cells`. The backward is hand-written for dQ, dR and dV; the
    finite-difference suite certifies it.
    """
    q, r = queries.data, reps.data
    v = r if values is None else values.data
    n, width = r.shape
    if q.shape != r.shape:
        raise ShapeError(f"chain_attention: queries {q.shape} vs reps {r.shape}")
    if v.ndim != 2 or len(v) != n:
        raise ShapeError(f"chain_attention: values {v.shape} vs reps {r.shape}")
    if groups.group.shape != (n, 2):
        raise ShapeError(f"chain_attention: groups over {len(groups.group)} pairs, reps {n}")
    L = groups.width
    diag = np.arange(L)
    chunk_width = max(width, v.shape[1])  # one chunking serves every walk, forward and backward
    chunks = _chunks(groups, chunk_width)
    buf = _Buffers(groups, chunk_width, r.dtype)

    logits = np.empty((n, 2 * L), r.dtype)
    for cells, rows, valid, idx, run in chunks:
        s = buf.take(0, q, idx, run) @ buf.take(1, r, idx, run).transpose(0, 2, 1)
        if valid is not None:
            np.copyto(s, -np.inf, where=~valid[:, None, :])
        if cells.start:  # the pair itself is already a cell of its head group
            s[:, diag, diag] = -np.inf
        logits[rows, cells] = _valid_rows(s, valid)
    gamma = np.exp(logits - logits.max(axis=1, keepdims=True))
    gamma /= gamma.sum(axis=1, keepdims=True)
    out = _mix(gamma, v, chunks, buf)

    def bw(grad):
        buf = _Buffers(groups, chunk_width, r.dtype)
        # d_gamma[i, c] = grad[i] . v[cell c]; values also get gamma^T grad per group
        d_gamma = np.empty((n, 2 * L), r.dtype)
        d_r = np.zeros((n, width), r.dtype) if reps.requires_grad else None
        d_v = d_r if values is None else (
            np.zeros(v.shape, v.dtype) if values.requires_grad else None)
        for cells, rows, valid, idx, run in chunks:
            g_blk, v_blk = buf.take(0, grad, idx, run), buf.take(1, v, idx, run)
            d_gamma[rows, cells] = _valid_rows(g_blk @ v_blk.transpose(0, 2, 1), valid)
            if d_v is not None:
                w = gamma[idx, cells]
                if valid is not None:
                    w[~valid] = 0.0
                d_v[rows] += _valid_rows(buf.matmul(2, w.transpose(0, 2, 1), g_blk), valid)
        # softmax backward; masked cells carry zero weight, so they get zero
        d_s = gamma * (d_gamma - (d_gamma * gamma).sum(axis=1, keepdims=True))
        d_q = np.empty((n, width), r.dtype) if queries.requires_grad else None
        for cells, rows, valid, idx, run in chunks:
            s_blk = d_s[idx, cells]
            if valid is not None:
                s_blk[~valid] = 0.0
            if d_q is not None:
                part = _valid_rows(buf.matmul(2, s_blk, buf.take(1, r, idx, run)), valid)
                if cells.start:
                    d_q[rows] += part
                else:
                    d_q[rows] = part
            if d_r is not None:
                d_r[rows] += _valid_rows(
                    buf.matmul(2, s_blk.transpose(0, 2, 1), buf.take(0, q, idx, run)), valid)
        if d_q is not None:
            ad._adopt(queries, d_q)
        if d_r is not None:
            ad._adopt(reps, d_r)
        if values is not None and d_v is not None:
            ad._adopt(values, d_v)

    parents = (queries, reps) if values is None else (queries, reps, values)
    return ad._result(out, bw, *parents), gamma


class EntityRows(NamedTuple):
    """Rows of a pool that read [entities[heads]; entities[tails]; context]."""

    rows: np.ndarray        # (Q,) rows of the pool
    entities: Tensor        # (E, d)
    heads: np.ndarray       # (Q,) entity id of each row's head third
    tails: np.ndarray       # (Q,) entity id of each row's tail third
    # (Q, d) last third, or (alpha, sentences) standing for alpha @ sentences; None where zero
    context: Tensor | tuple[Tensor, Tensor] | None


def row_products(reps: Tensor, weight: Tensor,
                 entity_rows: EntityRows | None = None) -> Tensor:
    """reps W^T as one taped op: the `entity_rows` of reps are formed per entity
    and per sentence (`pair_linear`), the other rows (every row when
    entity_rows is None) densely."""
    if entity_rows is None:
        return ad.linear(reps, weight)
    f = entity_rows
    return ad.pair_linear(f.entities, f.heads, f.tails, f.context, weight, plain=reps, rows=f.rows)


def reasoning_update(reps: Tensor, groups: ChainGroups, w_att: Tensor,
                     entity_rows: EntityRows | None = None,
                     values: Tensor | None = None) -> tuple[Tensor, np.ndarray]:
    """One synchronous self-attention pass over the chain pools.

    gamma_i = softmax over the pool of pair i of (W r_i) . r_k, and the new
    representation is the gamma-weighted sum of the old ones, or of the rows of
    `values` when given. Returns that (P, width) matrix and the (P, 2L) gamma of
    `chain_attention`. The queries are `row_products(reps, w_att, entity_rows)`.
    """
    width = reps.shape[1]
    if w_att.shape != (width, width):
        raise ShapeError(f"reasoning_update: weight {w_att.shape}, expected {(width, width)}")
    return chain_attention(row_products(reps, w_att, entity_rows), reps, groups, values)
