"""Trainable parameters and the AdamW optimizer (decoupled weight decay)."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .autodiff import Tensor, default_dtype
from .errors import ConfigError


class Parameter:
    """Named leaf tensor with per-parameter optimizer state."""

    __slots__ = ("name", "tensor", "m", "v", "step")

    def __init__(self, name: str, values: np.ndarray):
        self.name = name
        self.tensor = Tensor(np.asarray(values, dtype=default_dtype()), requires_grad=True)
        self.m = np.zeros_like(self.tensor.data)
        self.v = np.zeros_like(self.tensor.data)
        self.step = 0

    @property
    def data(self) -> np.ndarray:
        return self.tensor.data

    @property
    def grad(self) -> np.ndarray | None:
        return self.tensor.grad

    def grad_or_zeros(self) -> np.ndarray:
        return self.tensor.grad if self.tensor.grad is not None else np.zeros_like(self.tensor.data)

    def zero_grad(self) -> None:
        self.tensor.zero_grad()

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.tensor.shape})"


class AdamW:
    """AdamW with the decay term subtracted directly, not folded into the gradient."""

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 1e-4):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive: {lr}")
        if not (0.0 <= betas[0] < 1.0 and 0.0 <= betas[1] < 1.0):
            raise ConfigError(f"betas must lie in [0, 1): {betas}")
        if weight_decay < 0:
            raise ConfigError(f"weight decay must be non-negative: {weight_decay}")
        self.params = list(params)
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay

    def step(self) -> None:
        b1, b2 = self.betas
        for p in self.params:
            g = p.grad_or_zeros()
            p.step += 1
            p.m = b1 * p.m + (1.0 - b1) * g
            p.v = b2 * p.v + (1.0 - b2) * (g * g)
            m_hat = p.m / (1.0 - b1 ** p.step)
            v_hat = p.v / (1.0 - b2 ** p.step)
            update = m_hat / (np.sqrt(v_hat) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.tensor.data -= self.lr * update
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
