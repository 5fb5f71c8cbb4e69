"""Trainable parameters and the AdamW optimizer (decoupled weight decay)."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .autodiff import Tensor, default_dtype
from .errors import ConfigError

BLOCK = 1 << 14
"""Elements per block of the in-place AdamW update; two scratch blocks this size stay in L2."""


class Parameter:
    """Named leaf tensor; the optimizer keeps its own state."""

    __slots__ = ("name", "tensor")

    def __init__(self, name: str, values: np.ndarray):
        self.name = name
        # C order, so the optimizer's flat views write through to the stored weights
        self.tensor = Tensor(np.asarray(values, dtype=default_dtype(), order="C"),
                             requires_grad=True)

    @property
    def data(self) -> np.ndarray:
        return self.tensor.data

    @property
    def grad(self) -> np.ndarray | None:
        return self.tensor.grad

    def zero_grad(self) -> None:
        self.tensor.zero_grad()

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.tensor.shape})"


class AdamW:
    """AdamW with the decay term subtracted directly; owns moments ``m``, ``v`` and step ``t``."""

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 1e-4):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive: {lr}")
        if not (0.0 <= betas[0] < 1.0 and 0.0 <= betas[1] < 1.0):
            raise ConfigError(f"betas must lie in [0, 1): {betas}")
        if weight_decay < 0:
            raise ConfigError(f"weight decay must be non-negative: {weight_decay}")
        if eps <= 0:
            raise ConfigError(f"eps must be positive: {eps}")
        self.params = list(params)
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        # np.zeros leaves the pages untouched until the first step writes them
        self.m = [np.zeros(p.data.shape, p.data.dtype) for p in self.params]
        self.v = [np.zeros(p.data.shape, p.data.dtype) for p in self.params]
        self.t = 0

    def step(self) -> None:
        """Update ``m``, ``v`` and the weights in place, ``BLOCK`` elements at a time.

        Each block takes the same elementwise operations in the same order as
        ``w -= lr * (m_hat / (sqrt(v_hat) + eps) + wd * w)`` over whole arrays,
        so the weights are bit-identical to that formula's.
        """
        b1, b2 = self.betas
        lr, eps, wd = self.lr, self.eps, self.weight_decay
        self.t += 1
        c1, c2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        for p, p_m, p_v in zip(self.params, self.m, self.v):
            w, m, v = p.data.reshape(-1), p_m.reshape(-1), p_v.reshape(-1)
            # a missing gradient is read as zeros through a stride-0 view, not allocated
            g = (p.grad.reshape(-1) if p.grad is not None
                 else np.broadcast_to(w.dtype.type(0), w.shape))
            size = min(w.size, BLOCK)
            s1, s2 = np.empty(size, w.dtype), np.empty(size, w.dtype)
            for lo in range(0, w.size, BLOCK):
                hi = min(lo + BLOCK, w.size)
                gb, wb, mb, vb = g[lo:hi], w[lo:hi], m[lo:hi], v[lo:hi]
                t1, t2 = s1[:hi - lo], s2[:hi - lo]
                mb *= b1
                np.multiply(gb, 1.0 - b1, out=t1)
                mb += t1
                vb *= b2
                np.multiply(gb, gb, out=t1)
                t1 *= 1.0 - b2
                vb += t1
                np.divide(mb, c1, out=t1)
                np.divide(vb, c2, out=t2)
                np.sqrt(t2, out=t2)
                t2 += eps
                t1 /= t2
                if wd:
                    np.multiply(wb, wd, out=t2)
                    t1 += t2
                t1 *= lr
                wb -= t1
            p.zero_grad()

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def first_non_finite_grad(self) -> str | None:
        """Name of the first parameter whose gradient holds a NaN or an infinity."""
        for p in self.params:
            g = p.grad
            if g is not None and g.size and not (np.isfinite(g.max()) and np.isfinite(g.min())):
                return p.name
        return None

    def max_abs_grad(self) -> float:
        """Largest finite |gradient| entry over all parameters."""
        finite = [np.abs(p.grad[np.isfinite(p.grad)]) for p in self.params if p.grad is not None]
        return max((float(a.max()) for a in finite if a.size), default=0.0)
