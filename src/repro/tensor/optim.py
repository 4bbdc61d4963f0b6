"""Optimizers (SGD with momentum, Adam).

The parallel trainer updates replicated parameters with *identical* gradient
inputs on every simulated device, so a single optimizer instance over the
shared parameter objects is exactly equivalent to per-device optimizers in a
real DDP deployment.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from repro.tensor.tensor import Tensor


class Optimizer:
    """Base optimizer over a list of parameters."""

    def __init__(self, params: Iterable[Tensor], lr: float):
        self.params: List[Tensor] = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    # -- checkpoint/resume --------------------------------------------- #
    def state_dict(self) -> dict:
        """Hyperparameters + slot state; parameters themselves are the
        model's to checkpoint."""
        return {"lr": self.lr}

    def load_state_dict(self, state: dict) -> None:
        self.lr = float(state["lr"])


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(self, params, lr: float = 0.01, momentum: float = 0.0):
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            if self.momentum > 0.0:
                v *= self.momentum
                v += p.grad
                p.data -= self.lr * v
            else:
                p.data -= self.lr * p.grad

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["momentum"] = self.momentum
        state["velocity"] = [v.copy() for v in self._velocity]
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self.momentum = float(state["momentum"])
        velocity = state["velocity"]
        if len(velocity) != len(self._velocity):
            raise ValueError(
                f"state has {len(velocity)} velocity slots, optimizer has "
                f"{len(self._velocity)} parameters"
            )
        for mine, saved in zip(self._velocity, velocity):
            mine[...] = saved


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction.

    ``weight_decay`` applies decoupled decay (AdamW, Loshchilov & Hutter
    2019); the default 0.0 gives plain Adam.
    """

    def __init__(
        self,
        params,
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr)
        b1, b2 = betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        if weight_decay < 0.0:
            raise ValueError(f"weight_decay must be >= 0, got {weight_decay}")
        self.b1, self.b2 = float(b1), float(b2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bc1 = 1.0 - self.b1**self._t
        bc2 = 1.0 - self.b2**self._t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            if self.weight_decay > 0.0:
                p.data -= self.lr * self.weight_decay * p.data
            m *= self.b1
            m += (1.0 - self.b1) * p.grad
            v *= self.b2
            v += (1.0 - self.b2) * (p.grad**2)
            m_hat = m / bc1
            v_hat = v / bc2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self) -> dict:
        """Moments, step count, and hyperparameters — with the model's
        parameters this reproduces every future update bit-for-bit."""
        state = super().state_dict()
        state.update(
            betas=(self.b1, self.b2),
            eps=self.eps,
            weight_decay=self.weight_decay,
            t=self._t,
            m=[m.copy() for m in self._m],
            v=[v.copy() for v in self._v],
        )
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self.b1, self.b2 = (float(b) for b in state["betas"])
        self.eps = float(state["eps"])
        self.weight_decay = float(state["weight_decay"])
        if len(state["m"]) != len(self._m):
            raise ValueError(
                f"state has {len(state['m'])} moment slots, optimizer has "
                f"{len(self._m)} parameters"
            )
        self._t = int(state["t"])
        for mine, saved in zip(self._m, state["m"]):
            mine[...] = saved
        for mine, saved in zip(self._v, state["v"]):
            mine[...] = saved


def AdamW(params, lr: float = 1e-3, betas: tuple = (0.9, 0.999),
          eps: float = 1e-8, weight_decay: float = 1e-2) -> Adam:
    """AdamW convenience constructor (decoupled weight decay on)."""
    return Adam(params, lr=lr, betas=betas, eps=eps, weight_decay=weight_decay)


def clip_grad_norm(params, max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm (the PyTorch convention).
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    grads = [p.grad for p in params if p.grad is not None]
    if not grads:
        return 0.0
    total = float(np.sqrt(sum(float((g**2).sum()) for g in grads)))
    if total > max_norm:
        scale = max_norm / (total + 1e-12)
        for g in grads:
            g *= scale
    return total


class LRScheduler:
    """Base learning-rate scheduler over an :class:`Optimizer`."""

    def __init__(self, optimizer: Optimizer):
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.epoch = 0

    def step(self) -> None:
        self.epoch += 1
        self.optimizer.lr = self.lr_at(self.epoch)

    def lr_at(self, epoch: int) -> float:  # pragma: no cover - abstract
        raise NotImplementedError


class StepLR(LRScheduler):
    """Multiply the learning rate by ``gamma`` every ``step_size`` epochs."""

    def __init__(self, optimizer: Optimizer, step_size: int, gamma: float = 0.1):
        super().__init__(optimizer)
        if step_size <= 0:
            raise ValueError(f"step_size must be positive, got {step_size}")
        self.step_size = int(step_size)
        self.gamma = float(gamma)

    def lr_at(self, epoch: int) -> float:
        return self.base_lr * self.gamma ** (epoch // self.step_size)


class CosineAnnealingLR(LRScheduler):
    """Cosine decay from the base rate to ``eta_min`` over ``t_max`` epochs."""

    def __init__(self, optimizer: Optimizer, t_max: int, eta_min: float = 0.0):
        super().__init__(optimizer)
        if t_max <= 0:
            raise ValueError(f"t_max must be positive, got {t_max}")
        self.t_max = int(t_max)
        self.eta_min = float(eta_min)

    def lr_at(self, epoch: int) -> float:
        frac = min(epoch, self.t_max) / self.t_max
        return self.eta_min + 0.5 * (self.base_lr - self.eta_min) * (
            1.0 + np.cos(np.pi * frac)
        )
