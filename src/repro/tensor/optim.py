"""The Adam optimizer, the one the run path builds.

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


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(
        self,
        params,
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        super().__init__(params, lr)
        b1, b2 = betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.b1, self.b2 = float(b1), float(b2)
        self.eps = float(eps)
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
            t=self._t,
            m=[m.copy() for m in self._m],
            v=[v.copy() for v in self._v],
        )
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self.b1, self.b2 = (float(b) for b in state["betas"])
        self.eps = float(state["eps"])
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
