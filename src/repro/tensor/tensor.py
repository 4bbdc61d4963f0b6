"""Reverse-mode autograd ``Tensor`` over NumPy arrays.

Design
------
A :class:`Tensor` wraps a ``numpy.ndarray`` plus an optional autograd tape
entry: the parent tensors it was computed from and a closure that propagates
an output gradient to parent ``.grad`` buffers.  ``Tensor.backward()``
topologically sorts the tape and runs the closures in reverse order.

The engine is deliberately small but not toy: it supports broadcasting
(with correct gradient "unbroadcasting"), row gather/scatter (the core of
minibatch GNN feature indexing), and is the base for the sparse/segment
kernels in :mod:`repro.tensor.sparse`.

Following the HPC-Python guidance used for this repo, every op is a
vectorized NumPy expression — no per-element Python loops appear anywhere on
the training path.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Optional, Sequence, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, list, tuple]

# Global autograd switch (see :func:`no_grad`).
_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager disabling tape recording (like ``torch.no_grad``)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


# repro.tensor.sparse, bound on first use: importing it at module scope
# would be circular (sparse builds on Tensor), and ``index_rows`` is called
# too often to pay for an import statement per call.
_sparse = None


def _sparse_module():
    global _sparse
    if _sparse is None:
        from repro.tensor import sparse

        _sparse = sparse
    return _sparse


def _as_array(data: ArrayLike, dtype=np.float64) -> np.ndarray:
    if type(data) is np.ndarray and data.dtype == dtype:
        # Fast path: already a plain ndarray of the right dtype — wrapping
        # must not copy (ops call this for every operand).
        return data
    return np.asarray(data, dtype=dtype)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` so its shape matches ``shape`` (inverse broadcasting).

    NumPy broadcasting may have (a) prepended axes and (b) stretched axes of
    size 1.  The adjoint of broadcasting is summation over those axes.
    """
    if grad.shape == shape:
        return grad
    # Sum out prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were stretched from 1.
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy array with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``dtype`` (float64 by default).
    requires_grad:
        Whether gradients should be accumulated into ``self.grad`` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_op")
    # Make reflected NumPy ops defer to Tensor.
    __array_priority__ = 100.0

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        *,
        _parents: Sequence["Tensor"] = (),
        _backward_fn: Optional[Callable[[np.ndarray], None]] = None,
        _op: str = "leaf",
        dtype=np.float64,
    ):
        self.data = _as_array(data, dtype=dtype)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = tuple(_parents)
        self._backward_fn = _backward_fn
        self._op = _op

    # ------------------------------------------------------------------ #
    # basic introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Tensor(shape={self.shape}, op={self._op!r}, "
            f"requires_grad={self.requires_grad})"
        )

    # ------------------------------------------------------------------ #
    # tape machinery
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward_fn: Callable[[np.ndarray], None],
        op: str,
    ) -> "Tensor":
        """Create a non-leaf tensor, recording the tape entry if enabled."""
        req = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        if req:
            return Tensor(
                data,
                requires_grad=True,
                _parents=[p for p in parents if p.requires_grad],
                _backward_fn=backward_fn,
                _op=op,
            )
        return Tensor(data, requires_grad=False, _op=op)

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into this tensor's gradient buffer."""
        if self.grad is None:
            # Copy so later in-place accumulation never aliases op outputs
            # (``grad`` may be a view of another node's gradient buffer).
            self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
        else:
            self.grad += grad

    def _accumulate_owned(self, buf: np.ndarray) -> None:
        """Accumulate a freshly built buffer the caller owns outright.

        Unlike :meth:`_accumulate` the array is adopted without a defensive
        copy — callers guarantee ``buf`` aliases nothing else (scatter-add
        outputs, zero-filled scratch).
        """
        if self.grad is None:
            self.grad = buf
        else:
            self.grad += buf

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        ``grad`` defaults to 1 for scalar outputs (the common loss case).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor without grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient requires a "
                    f"scalar tensor; got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match tensor shape "
                f"{self.shape}"
            )

        # Iterative topological sort (recursion would overflow on deep tapes).
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))

        self._accumulate(grad)
        # Drop-after-last-use: in reverse-topological order, once a node's
        # closure has propagated its gradient to the parents, no later
        # closure can read it (all consumers already ran), so interior
        # gradients are freed immediately instead of living until the whole
        # tape is garbage collected.  Leaves (parameters, inputs) have no
        # closure and keep their gradients for the optimizer.
        for node in reversed(topo):
            fn = node._backward_fn
            if fn is not None and node.grad is not None:
                fn(node.grad)
                node.grad = None

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # arithmetic ops
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = _wrap(other)
        out_data = self.data + other.data

        def backward_fn(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.data.shape))

        return Tensor._make(out_data, (self, other), backward_fn, "add")

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward_fn(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-g)

        return Tensor._make(-self.data, (self,), backward_fn, "neg")

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-_wrap(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return _wrap(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = _wrap(other)
        out_data = self.data * other.data

        def backward_fn(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.data.shape))

        return Tensor._make(out_data, (self, other), backward_fn, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = _wrap(other)
        out_data = self.data / other.data

        def backward_fn(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(g / other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-g * self.data / (other.data**2), other.data.shape)
                )

        return Tensor._make(out_data, (self, other), backward_fn, "div")

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return _wrap(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward_fn(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward_fn, "pow")

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = _wrap(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ValueError(
                "matmul supports 2-D operands only; got "
                f"{self.data.ndim}-D @ {other.data.ndim}-D"
            )
        out_data = self.data @ other.data

        def backward_fn(g: np.ndarray) -> None:
            # The products are freshly allocated, so they are adopted as
            # gradient buffers outright (no defensive copy).
            if self.requires_grad:
                self._accumulate_owned(g @ other.data.T)
            if other.requires_grad:
                other._accumulate_owned(self.data.T @ g)

        return Tensor._make(out_data, (self, other), backward_fn, "matmul")

    # ------------------------------------------------------------------ #
    # shape / indexing ops
    # ------------------------------------------------------------------ #
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        in_shape = self.data.shape

        def backward_fn(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g.reshape(in_shape))

        return Tensor._make(out_data, (self,), backward_fn, "reshape")

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def transpose(self) -> "Tensor":
        out_data = self.data.T

        def backward_fn(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g.T)

        return Tensor._make(out_data, (self,), backward_fn, "transpose")

    def index_rows(self, idx) -> "Tensor":
        """Gather rows ``self[idx]`` (autograd scatter-add on backward).

        ``idx`` is a raw row-id array or a ``sparse.SegmentIndex`` over this
        tensor's rows; callers that gather through the same ids repeatedly
        pass the index so the adjoint's grouping structure is built once.
        """
        sparse = _sparse or _sparse_module()
        n_rows = self.data.shape[0]
        if isinstance(idx, sparse.SegmentIndex):
            if idx.num_segments != n_rows:
                raise ValueError(
                    f"row index covers {idx.num_segments} rows, tensor has {n_rows}"
                )
            index, idx = idx, idx.ids
        else:
            index, idx = None, np.asarray(idx, dtype=np.int64)
        out_data = self.data[idx]

        def backward_fn(g: np.ndarray) -> None:
            if self.requires_grad:
                # The adjoint of a row gather is a segment sum over the
                # same ids: bit-identical to n-D np.add.at (the reference
                # in tests/), much faster on 2-D/3-D gradients.  The output
                # is freshly built, so it can be adopted without a copy.
                rows = index if index is not None else sparse.SegmentIndex(idx, n_rows)
                self._accumulate_owned(sparse._segment_sum_array(g, rows))

        return Tensor._make(out_data, (self,), backward_fn, "index_rows")

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        in_shape = self.data.shape

        def backward_fn(g: np.ndarray) -> None:
            if not self.requires_grad:
                return
            if axis is None:
                self._accumulate(np.broadcast_to(g, in_shape).copy())
            else:
                gg = g if keepdims else np.expand_dims(g, axis)
                self._accumulate(np.broadcast_to(gg, in_shape).copy())

        return Tensor._make(out_data, (self,), backward_fn, "sum")

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            n = self.data.size
        else:
            n = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # ------------------------------------------------------------------ #
    # element-wise nonlinear ops
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward_fn(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * out_data)

        return Tensor._make(out_data, (self,), backward_fn, "exp")

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward_fn(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g / self.data)

        return Tensor._make(out_data, (self,), backward_fn, "log")

    def maximum_scalar(self, value: float) -> "Tensor":
        """Element-wise ``max(self, value)`` (building block of ReLU)."""
        out_data = np.maximum(self.data, value)
        mask = self.data > value

        def backward_fn(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * mask)

        return Tensor._make(out_data, (self,), backward_fn, "maximum_scalar")


def _wrap(x: ArrayLike) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------- #
# free functions
# ---------------------------------------------------------------------- #
def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Create a leaf tensor (convenience constructor)."""
    return Tensor(data, requires_grad=requires_grad)


def zeros(*shape: int, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with autograd support."""
    tensors = [_wrap(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward_fn(g: np.ndarray) -> None:
        for t, a, b in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(a, b)
                t._accumulate(g[tuple(sl)])

    return Tensor._make(out_data, tensors, backward_fn, "concat")


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with autograd support."""
    tensors = [_wrap(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward_fn(g: np.ndarray) -> None:
        parts = np.moveaxis(g, axis, 0)
        for t, piece in zip(tensors, parts):
            if t.requires_grad:
                t._accumulate(piece)

    return Tensor._make(out_data, tensors, backward_fn, "stack")


def add_n(tensors: Sequence[Tensor]) -> Tensor:
    """Sum an arbitrary list of same-shape tensors (used by allreduce)."""
    tensors = [_wrap(t) for t in tensors]
    if not tensors:
        raise ValueError("add_n requires at least one tensor")
    out_data = tensors[0].data.copy()
    for t in tensors[1:]:
        out_data += t.data

    def backward_fn(g: np.ndarray) -> None:
        for t in tensors:
            if t.requires_grad:
                t._accumulate(g)

    return Tensor._make(out_data, tensors, backward_fn, "add_n")
