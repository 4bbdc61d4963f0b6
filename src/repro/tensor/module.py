"""``Module`` / ``Parameter`` containers (the ``torch.nn`` analogue).

Modules register parameters and child modules automatically via attribute
assignment, support named-parameter traversal (used by the DDP gradient
allreduce and by the NFP parameter-sharding logic), and expose
``state_dict`` round-tripping for the equivalence tests.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Tuple

import numpy as np

from repro.tensor import fused
from repro.tensor import init as tinit
from repro.tensor.tensor import Tensor


class Parameter(Tensor):
    """A trainable tensor (``requires_grad=True`` leaf)."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for neural-network modules."""

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # -- registration ---------------------------------------------------- #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_module(self, name: str, module: "Module") -> None:
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # -- traversal -------------------------------------------------------- #
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs in registration order."""
        for name, p in self._parameters.items():
            yield (f"{prefix}{name}", p)
        for mod_name, mod in self._modules.items():
            yield from mod.named_parameters(prefix=f"{prefix}{mod_name}.")

    def parameters(self) -> list:
        return [p for _, p in self.named_parameters()]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for mod in self._modules.values():
            mod.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # -- state ------------------------------------------------------------ #
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        return OrderedDict(
            (name, p.data.copy()) for name, p in self.named_parameters()
        )

    def load_state_dict(self, state: dict) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state_dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, arr in state.items():
            p = own[name]
            if p.data.shape != arr.shape:
                raise ValueError(
                    f"parameter {name!r}: shape {arr.shape} != {p.data.shape}"
                )
            p.data = np.array(arr, dtype=p.data.dtype, copy=True)

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


class ModuleList(Module):
    """An indexable container of child modules."""

    def __init__(self, modules=()):
        super().__init__()
        self._list: list = []
        for m in modules:
            self.append(m)

    def append(self, module: Module) -> None:
        idx = len(self._list)
        self._list.append(module)
        self.register_module(str(idx), module)

    def __getitem__(self, idx: int) -> Module:
        return self._list[idx]

    def __len__(self) -> int:
        return len(self._list)

    def __iter__(self):
        return iter(self._list)


class Linear(Module):
    """Affine map ``y = x @ W + b`` with Xavier-uniform initialization."""

    def __init__(self, in_dim: int, out_dim: int, bias: bool = True, *, rng=None):
        super().__init__()
        if rng is None:
            rng = np.random.default_rng(0)
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self.weight = Parameter(tinit.xavier_uniform((self.in_dim, self.out_dim), rng))
        self.bias = Parameter(np.zeros(self.out_dim)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return fused.linear(x, self.weight, self.bias)
