"""Reverse-mode automatic differentiation over numpy arrays.

Primitives applied while a :class:`Tape` is active are recorded in execution
order (which is already topological); :func:`backward` walks the record in
reverse and accumulates gradients into every reachable leaf. Leaving the
tape's ``with`` block drops the record, so call :func:`backward` inside it.
With no tape active every operation is a plain numpy computation, which
keeps inference and finite-difference evaluation cheap.

64-bit floats are the default so finite-difference checks stay tight; call
:func:`set_default_dtype` for 32-bit runs.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, NotFoundError, ShapeError

_DTYPE = np.float64

# Per thread and per asyncio task, so a forward elsewhere never lands on this tape
_TAPE_STACK: ContextVar[tuple["Tape", ...]] = ContextVar("docrel_tape_stack", default=())

# When not None, relu sign patterns and top-k index choices are appended here
# so finite-difference harnesses can detect kink crossings.
_TRACE: ContextVar[list | None] = ContextVar("docrel_trace", default=None)


def set_default_dtype(dtype) -> None:
    global _DTYPE
    if dtype not in (np.float64, np.float32):
        raise ContractError(f"unsupported dtype {dtype!r}")
    _DTYPE = dtype


def default_dtype():
    return _DTYPE


class Tape:
    """Ordered record of grad-tracked tensors for one training step."""

    __slots__ = ("_records",)

    def __init__(self):
        self._records: list[Tensor] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.set(_TAPE_STACK.get() + (self,))
        return self

    def __exit__(self, exc_type, exc, tb):
        stack = _TAPE_STACK.get()
        if not stack or stack[-1] is not self:
            raise ContractError("tape stack corrupted")
        _TAPE_STACK.set(stack[:-1])
        # each recorded tensor points back at this tape; dropping the records
        # breaks that cycle, so the step's graph is freed without the cyclic GC
        self.clear()
        return False

    def __len__(self) -> int:
        return len(self._records)

    def clear(self) -> None:
        self._records.clear()


def _active_tape() -> "Tape | None":
    stack = _TAPE_STACK.get()
    return stack[-1] if stack else None


class Tensor:
    """An n-dimensional float value, optionally tracked for gradients."""

    __slots__ = ("data", "grad", "requires_grad", "tape", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=_DTYPE)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.tape: Tape | None = None
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar used throughout the model code
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x) -> Tensor:
    """Wrap an array-like as a non-differentiable tensor."""
    return Tensor(x, requires_grad=False)


def _result(data, backward_fn, *parents: Tensor) -> Tensor:
    tape = _active_tape()
    if tape is not None and any(p.requires_grad for p in parents):
        out = Tensor(data, requires_grad=True)
        out.tape = tape
        out._backward = backward_fn
        tape._records.append(out)
        return out
    return Tensor(data)


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add g into t.grad; the first contribution is stored as a copy in t's dtype and shape."""
    if t.requires_grad:
        if t.grad is None:
            t.grad = np.empty_like(t.data)
            t.grad[...] = g
        else:
            t.grad += g


def _adopt(t: Tensor, g: np.ndarray) -> None:
    """`_accum` for a freshly computed g that nothing else holds: a first
    contribution of t's dtype and shape becomes t.grad without a copy."""
    if t.requires_grad and t.grad is None and g.shape == t.data.shape and g.dtype == t.data.dtype:
        t.grad = g
    else:
        _accum(t, g)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError as e:
        raise ShapeError(f"add: {a.shape} vs {b.shape}") from e

    def bw(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _result(data, bw, a, b)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data - b.data
    except ValueError as e:
        raise ShapeError(f"sub: {a.shape} vs {b.shape}") from e

    def bw(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))

    return _result(data, bw, a, b)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError as e:
        raise ShapeError(f"mul: {a.shape} vs {b.shape}") from e

    def bw(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _result(data, bw, a, b)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data / b.data
    except ValueError as e:
        raise ShapeError(f"div: {a.shape} vs {b.shape}") from e

    def bw(g):
        _accum(a, _unbroadcast(g / b.data, a.data.shape))
        _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _result(data, bw, a, b)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data
    if ad.ndim == 0 or bd.ndim == 0 or ad.ndim > 2 or bd.ndim > 2:
        raise ShapeError(f"matmul: unsupported ranks {ad.shape} x {bd.shape}")
    inner_b = bd.shape[0] if bd.ndim >= 1 else None
    if ad.shape[-1] != inner_b:
        raise ShapeError(f"matmul: incompatible shapes {ad.shape} x {bd.shape}")
    data = ad @ bd

    def bw(g):
        if a.requires_grad:
            if ad.ndim == 2 and bd.ndim == 2:
                _adopt(a, g @ bd.T)
            elif ad.ndim == 2 and bd.ndim == 1:
                _adopt(a, np.outer(g, bd))
            elif ad.ndim == 1 and bd.ndim == 2:
                _adopt(a, bd @ g)
            else:
                _adopt(a, g * bd)
        if b.requires_grad:
            if ad.ndim == 2:
                _adopt(b, ad.T @ g)
            elif bd.ndim == 2:
                _adopt(b, np.outer(ad, g))
            else:
                _adopt(b, g * ad)

    return _result(data, bw, a, b)


def linear(x, weight, bias=None) -> Tensor:
    """weight @ x (+ bias) for 1-D x, or x @ weight.T (+ bias) row-wise for 2-D x."""
    x, weight = as_tensor(x), as_tensor(weight)
    xd, wd = x.data, weight.data
    if wd.ndim != 2 or xd.shape[-1] != wd.shape[1]:
        raise ShapeError(f"linear: x {xd.shape} vs weight {wd.shape}")
    data = xd @ wd.T
    if bias is not None:
        bias = as_tensor(bias)
        if bias.data.shape != (wd.shape[0],):
            raise ShapeError(f"linear: bias {bias.data.shape} vs weight {wd.shape}")
        data += bias.data

    def bw(g):
        if x.requires_grad:
            _adopt(x, g @ wd)
        if weight.requires_grad:
            _adopt(weight, np.outer(g, xd) if xd.ndim == 1 else g.T @ xd)
        if bias is not None and bias.requires_grad:
            if xd.ndim == 1:
                _accum(bias, g)
            else:
                _adopt(bias, g.sum(axis=0))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _result(data, bw, *parents)


def pair_linear(entities, heads, tails, context, weight, plain=None, rows=None) -> Tensor:
    """linear(concat([entities[heads], entities[tails], context]), weight) as one taped op.

    With W_a, W_b and W_c the column blocks of weight that meet the head, tail
    and context thirds, a row is (E W_a^T)[h] + (E W_b^T)[t] + c W_c^T, so the
    head and tail products are formed once per entity, not once per row. The
    context is one of:

    - a (Q, d_c) tensor of rows c;
    - a pair (alpha, sentences) of a (Q, S) and an (S, d_c) tensor, standing for
      the rows alpha @ sentences; its term is formed once per sentence, as
      alpha (sentences W_c^T);
    - None, which drops the term. Without `plain`, weight then needs only its
      first 2d columns, and any further columns get zero gradient.

    With `plain`, an (n, width) tensor, the result has n rows: the Q pair rows
    above at `rows`, and plain[k] W^T at every other row k (plain's rows at
    `rows` are not read). Both kinds write one weight gradient. The backward
    sums the output gradient per head entity, per tail entity and per sentence
    first; the finite-difference suite certifies it.
    """
    entities, weight = as_tensor(entities), as_tensor(weight)
    alpha = sentences = None
    if isinstance(context, tuple):
        alpha, sentences = (as_tensor(c) for c in context)
        context = None
    elif context is not None:
        context = as_tensor(context)
    plain = None if plain is None else as_tensor(plain)
    ed, wd = entities.data, weight.data
    heads, tails = np.asarray(heads, dtype=np.int64), np.asarray(tails, dtype=np.int64)
    if ed.ndim != 2 or wd.ndim != 2 or heads.ndim != 1 or tails.shape != heads.shape:
        raise ShapeError(f"pair_linear: entities {ed.shape}, weight {wd.shape}, "
                         f"heads {heads.shape}, tails {tails.shape}")
    n_ent, d = ed.shape
    n_pairs = heads.size
    if context is not None:
        fits = (context.ndim == 2 and context.shape[0] == n_pairs
                and wd.shape[1] == 2 * d + context.shape[1])
    elif alpha is not None:
        fits = (alpha.ndim == 2 and sentences.ndim == 2
                and alpha.shape == (n_pairs, sentences.shape[0])
                and wd.shape[1] == 2 * d + sentences.shape[1])
    else:
        fits = wd.shape[1] >= 2 * d
    if plain is not None:
        fits = fits and plain.ndim == 2 and plain.shape[1] == wd.shape[1]
    if not fits:
        shown = context.shape if context is not None else (
            None if alpha is None else (alpha.shape, sentences.shape))
        raise ShapeError(f"pair_linear: entities {ed.shape}, context {shown}, weight {wd.shape}"
                         f", plain {None if plain is None else plain.shape}")
    ids = np.concatenate([heads, tails])
    if ids.size and (ids.min() < 0 or ids.max() >= n_ent):
        raise NotFoundError(f"pair_linear: entity id outside [0, {n_ent})")
    if plain is None:
        n, rows, other = n_pairs, np.arange(n_pairs), None
    else:
        n, rows = plain.shape[0], np.asarray(rows, dtype=np.int64)
        try:
            taken = np.bincount(rows, minlength=n) if rows.shape == heads.shape else None
        except ValueError:  # a negative row
            taken = None
        if taken is None or taken.size != n or (n_pairs and taken.max() > 1):
            raise ContractError(f"pair_linear: rows must be {n_pairs} distinct rows "
                                f"inside [0, {n})")
        other = np.flatnonzero(taken == 0)
    w_a, w_b, w_c = wd[:, :d], wd[:, d:2 * d], wd[:, 2 * d:]
    # one selector row per output row picks its head and tail products and weights
    # its sentence products; one product with their stacked table forms the pair rows
    n_sent = 0 if alpha is None else alpha.shape[1]
    select = np.zeros((n, 2 * n_ent + n_sent), np.result_type(ed, wd))
    select[rows, heads] = 1.0
    select[rows, tails + n_ent] = 1.0
    # (2E, out): every entity times W_a^T, then times W_b^T, in one batched product
    table = np.matmul(ed, wd[:, :2 * d].reshape(-1, 2, d).transpose(1, 2, 0))
    table = table.reshape(2 * n_ent, wd.shape[0])
    if alpha is not None:
        select[rows, 2 * n_ent:] = alpha.data
        per_sentence = sentences.data @ w_c.T  # (S, out)
        table = np.concatenate([table, per_sentence])
    data = select @ table
    if context is not None:
        data[rows] += context.data @ w_c.T
    if other is not None:
        data[other] = plain.data[other] @ wd.T

    def bw(g):
        # the selector's transpose sums g's pair rows per head, per tail and per sentence
        sums = select.T @ g
        s_h, s_t, s_c = sums[:n_ent], sums[n_ent:2 * n_ent], sums[2 * n_ent:]
        if plain is None:
            g_plain, x_plain = g[:0], np.zeros((0, wd.shape[1]), wd.dtype)
        else:
            g_plain, x_plain = g[other], plain.data[other]
        g_pairs = None if context is None else (g if plain is None else g[rows])
        if entities.requires_grad:
            d_e = s_h @ w_a
            d_e += s_t @ w_b
            _adopt(entities, d_e)
        if weight.requires_grad:
            d_w = np.empty_like(wd)

            def block(cols, g_rows, x_rows):
                # pair sums and plain rows meet the same columns: one product per block
                if g_plain.size:
                    g_rows = np.concatenate([g_rows, g_plain])
                    x_rows = np.concatenate([x_rows, x_plain[:, cols]])
                np.matmul(g_rows.T, x_rows, out=d_w[:, cols])

            block(slice(0, d), s_h, ed)
            block(slice(d, 2 * d), s_t, ed)
            rest = slice(2 * d, None)
            if context is not None:
                block(rest, g_pairs, context.data)
            elif alpha is not None:
                block(rest, s_c, sentences.data)
            else:
                block(rest, g[:0], x_plain[:0, rest])
            _adopt(weight, d_w)
        if context is not None and context.requires_grad:
            _adopt(context, g_pairs @ w_c)
        if alpha is not None:
            if alpha.requires_grad:
                d_alpha = g @ per_sentence.T
                _adopt(alpha, d_alpha if plain is None else d_alpha[rows])
            if sentences.requires_grad:
                _adopt(sentences, s_c @ w_c)
        if plain is not None and plain.requires_grad and other.size:
            if plain.grad is None:
                plain.grad = np.zeros_like(plain.data)
            plain.grad[other] += g_plain @ wd

    parents = [entities, weight] + [t for t in (context, alpha, sentences, plain) if t is not None]
    return _result(data, bw, *parents)


def transpose(a) -> Tensor:
    a = as_tensor(a)
    if a.ndim != 2:
        raise ShapeError(f"transpose: expected 2-D, got {a.shape}")
    data = a.data.T

    def bw(g):
        _accum(a, g.T)

    return _result(data, bw, a)


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------

def concat(parts: Sequence, axis: int = -1) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat: empty input")
    try:
        data = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError as e:
        raise ShapeError(f"concat: {[p.shape for p in parts]}") from e

    def bw(g):
        splits = np.cumsum([p.data.shape[axis] for p in parts])[:-1]
        for p, piece in zip(parts, np.split(g, splits, axis=axis)):
            _accum(p, piece)

    return _result(data, bw, *parts)


def stack(parts: Sequence) -> Tensor:
    """Stack same-shape tensors along a new leading axis."""
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("stack: empty input")
    try:
        data = np.stack([p.data for p in parts])
    except ValueError as e:
        raise ShapeError(f"stack: {[p.shape for p in parts]}") from e

    def bw(g):
        for i, p in enumerate(parts):
            _accum(p, g[i])

    return _result(data, bw, *parts)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    try:
        data = a.data.reshape(shape)
    except ValueError as e:
        raise ShapeError(f"reshape: {a.shape} -> {shape}") from e

    def bw(g):
        _accum(a, g.reshape(a.data.shape))

    return _result(data, bw, a)


def narrow(a, start: int, stop: int) -> Tensor:
    """Contiguous slice [start, stop) along axis 0 (a read-only view)."""
    a = as_tensor(a)
    n = a.data.shape[0] if a.ndim else 0
    if not (0 <= start < stop <= n):
        raise ShapeError(f"narrow: [{start}, {stop}) out of range for axis of size {n}")
    data = a.data[start:stop]

    def bw(g):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad[start:stop] += g

    return _result(data, bw, a)


def take_rows(a, indices) -> Tensor:
    """Rows of a 2-D tensor selected by an integer array (embedding lookup); a
    scalar index gives its row as a 1-D tensor."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.int64)
    if a.ndim != 2:
        raise ShapeError(f"take_rows: expected 2-D table, got {a.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[0]):
        raise NotFoundError(
            f"take_rows: id out of range [0, {a.data.shape[0]}): {int(idx.min())}..{int(idx.max())}"
        )
    data = a.data[idx]

    def bw(g):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            np.add.at(a.grad, idx, g)

    return _result(data, bw, a)


def place_rows(parts: Sequence, rows: Sequence) -> Tensor:
    """The (n, ...) tensor whose rows rows[k] hold parts[k], the inverse of taking
    those rows; the rows must split [0, n). A single part already in order is
    returned as it is."""
    parts = [as_tensor(p) for p in parts]
    rows = [np.asarray(r, dtype=np.int64) for r in rows]
    n = sum(r.size for r in rows)
    if not parts or len(parts) != len(rows) or any(
            p.shape[:1] != r.shape for p, r in zip(parts, rows)):
        raise ShapeError(f"place_rows: parts {[p.shape for p in parts]}, "
                         f"rows {[r.shape for r in rows]}")
    covered = np.zeros(n, dtype=bool)
    for r in rows:
        covered[r] = True
    if not covered.all():  # n rows that cover [0, n) cover it once each
        raise ContractError(f"place_rows: rows do not split [0, {n})")
    if len(parts) == 1 and np.array_equal(rows[0], np.arange(n)):
        return parts[0]
    data = np.empty((n,) + parts[0].shape[1:], np.result_type(*(p.data for p in parts)))
    for p, r in zip(parts, rows):
        data[r] = p.data

    def bw(g):
        for p, r in zip(parts, rows):
            if p.requires_grad:
                _adopt(p, g[r])

    return _result(data, bw, *parts)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def mean(a, axis: int | None = None) -> Tensor:
    a = as_tensor(a)
    data = a.data.mean(axis=axis)

    def bw(g):
        if axis is None:
            _accum(a, np.full_like(a.data, 1.0 / a.data.size) * g)
        else:
            n = a.data.shape[axis]
            _accum(a, np.broadcast_to(np.expand_dims(g, axis), a.data.shape) / n)

    return _result(data, bw, a)


def tsum(a, axis: int | None = None) -> Tensor:
    a = as_tensor(a)
    data = a.data.sum(axis=axis)

    def bw(g):
        if axis is None:
            _accum(a, np.full_like(a.data, 1.0) * g)
        else:
            _accum(a, np.broadcast_to(np.expand_dims(g, axis), a.data.shape).copy())

    return _result(data, bw, a)


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

def relu(a) -> Tensor:
    a = as_tensor(a)
    pos = a.data > 0
    trace = _TRACE.get()
    if trace is not None:
        trace.append(("relu", pos.copy()))
    data = np.where(pos, a.data, 0.0)

    def bw(g):
        _accum(a, g * pos)

    return _result(data, bw, a)


def _sigmoid_values(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    data = _sigmoid_values(a.data)

    def bw(g):
        _accum(a, g * data * (1.0 - data))

    return _result(data, bw, a)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    data = np.tanh(a.data)

    def bw(g):
        _accum(a, g * (1.0 - data * data))

    return _result(data, bw, a)


def softmax(a) -> Tensor:
    """Softmax over the last axis; -inf entries get exactly zero weight."""
    a = as_tensor(a)
    x = a.data
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        dot = (g * data).sum(axis=-1, keepdims=True)
        _accum(a, data * (g - dot))

    return _result(data, bw, a)


def log(a) -> Tensor:
    a = as_tensor(a)
    data = np.log(a.data)

    def bw(g):
        _accum(a, g / a.data)

    return _result(data, bw, a)


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp values into [lo, hi]; gradient passes only through the interior."""
    a = as_tensor(a)
    data = np.clip(a.data, lo, hi)
    interior = (a.data > lo) & (a.data < hi)

    def bw(g):
        _accum(a, g * interior)

    return _result(data, bw, a)


# ---------------------------------------------------------------------------
# dropout and top-k selection
# ---------------------------------------------------------------------------

def dropout_mask(rng: np.random.Generator, shape, rate: float) -> np.ndarray:
    """Inverted-dropout mask: kept entries are prescaled by 1/(1-rate)."""
    if not (0.0 <= rate < 1.0):
        raise ContractError(f"dropout rate must be in [0, 1): {rate}")
    if rate == 0.0:
        return np.ones(shape, dtype=_DTYPE)
    keep = rng.random(shape) >= rate
    return keep.astype(_DTYPE) / (1.0 - rate)


def dropout(a, mask: np.ndarray) -> Tensor:
    """Apply a precomputed (frozen or freshly drawn) dropout mask."""
    return mul(a, constant(mask))


def topk_indices(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest values along the last axis, ties broken by
    lowest index, sorted ascending."""
    values = np.asarray(values)
    order = np.argsort(-values, axis=-1, kind="stable")
    idx = np.sort(order[..., :k], axis=-1)
    trace = _TRACE.get()
    if trace is not None:
        trace.append(("topk", idx.copy()))
    return idx


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def backward(loss: Tensor, leaves: "Iterable[Tensor] | None" = None) -> None:
    """Populate gradients of everything reachable from a scalar loss.

    When `leaves` is given, any of them left untouched by the sweep (not on
    the tape) get explicit zero gradients.
    """
    if loss.shape != ():
        raise ContractError(f"backward: loss must be scalar, got shape {loss.shape}")
    tape = loss.tape
    if tape is None:
        raise ContractError("backward: loss was not recorded on a tape")
    loss.grad = np.ones((), dtype=_DTYPE)
    for t in reversed(tape._records):
        if t._backward is not None and t.grad is not None:
            t._backward(t.grad)
    if leaves is not None:
        for t in leaves:
            if t.grad is None:
                t.grad = np.zeros_like(t.data)


# ---------------------------------------------------------------------------
# finite-difference checking
# ---------------------------------------------------------------------------

@contextmanager
def decision_trace():
    """Record relu sign patterns and top-k choices made during a forward pass."""
    token = _TRACE.set([])
    try:
        yield _TRACE.get()
    finally:
        _TRACE.reset(token)


def _traces_equal(t1: list, t2: list) -> bool:
    if len(t1) != len(t2):
        return False
    for (k1, v1), (k2, v2) in zip(t1, t2):
        if k1 != k2 or v1.shape != v2.shape or not np.array_equal(v1, v2):
            return False
    return True


def relative_error(g_ad: float, g_fd: float) -> float:
    return abs(g_ad - g_fd) / max(1e-8, abs(g_ad) + abs(g_fd))


def _eval_traced(f: Callable[[], Tensor]):
    with decision_trace() as tr:
        value = f()
    return float(value.data), tr


def check_gradients(loss_fn: Callable[[], Tensor], leaves: Iterable[Tensor], eps: float = 1e-5):
    """Compare reverse-mode gradients of `loss_fn` against central differences.

    `loss_fn` must be deterministic (freeze dropout masks first). Coordinates
    whose perturbed evaluations cross a relu or top-k decision boundary are
    skipped: the subgradient there is ambiguous, not wrong.

    Returns (max_rel_err, n_checked, n_skipped).
    """
    leaves = list(leaves)
    with Tape():
        loss = loss_fn()
        backward(loss)
        grads = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in leaves]
        for t in leaves:
            t.zero_grad()

    max_err = 0.0
    checked = 0
    skipped = 0
    for t, g_ad in zip(leaves, grads):
        flat = t.data.reshape(-1)
        g_flat = g_ad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp, trace_p = _eval_traced(loss_fn)
            flat[i] = orig - eps
            lm, trace_m = _eval_traced(loss_fn)
            flat[i] = orig
            if not _traces_equal(trace_p, trace_m):
                skipped += 1
                continue
            g_fd = (lp - lm) / (2.0 * eps)
            max_err = max(max_err, relative_error(float(g_flat[i]), g_fd))
            checked += 1
    return max_err, checked, skipped

