"""Reverse-mode automatic differentiation on NumPy arrays.

This module provides the :class:`Tensor` class that underpins the whole
reproduction.  It implements the standard define-by-run tape: every operation
returns a new tensor carrying references to its parents and a closure that
propagates the output gradient to each parent.  :meth:`Tensor.backward`
topologically sorts the tape and runs the closures in reverse.

The tape owns every gradient it passes around.  ``_accumulate`` adopts a
first gradient that the op built fresh and copies only a borrowed one: the
incoming gradient handed on unchanged (``+`` hands it to both parents,
``concat`` hands out slices) or a view of it (``reshape``, ``transpose``,
``pad``), and a non-contiguous array, so every gradient is C-ordered.
Leaves (parameters and inputs) keep their ``.grad``; a non-leaf's ``.grad``
is taken from it as its closure runs, so after ``backward()`` it is
``None`` and the closure owns the array outright: ReLU masks it in place
and training batch norm builds its input gradient in it.  A closure never
writes to an array it captured in the forward, so ``backward()`` can run
twice on one graph and accumulates into the leaves each time.

Only the features needed by the paper's models are implemented, but those are
implemented fully: broadcasting-aware arithmetic, matmul, reductions, shape
ops, and indexing.  Convolution, pooling and normalisation live in
:mod:`repro.nn.functional`.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction within the block (inference mode)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd tape."""
    return _grad_enabled


def _sum_to_shape(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` (produced under broadcasting) back to ``shape``."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        raise TypeError("expected array-like, got Tensor; use .data")
    arr = np.asarray(value, dtype=dtype)
    if arr.dtype == np.float64 and dtype is None:
        arr = arr.astype(DEFAULT_DTYPE)
    return arr


class Tensor:
    """A NumPy array with an autograd tape.

    Parameters
    ----------
    data:
        Array-like payload.  Python floats/lists are converted to the library
        default dtype (float32); existing float64 arrays are preserved only
        when ``dtype`` is passed explicitly (gradient checks use float64).
    requires_grad:
        Whether gradients should be accumulated into ``self.grad``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data, requires_grad: bool = False, dtype=None, name: str | None = None):
        if isinstance(data, Tensor):
            data = data.data
        self.data = _as_array(data, dtype=dtype)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create an op output, wiring the tape only when grad is enabled."""
        requires = _grad_enabled and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires, dtype=data.dtype)
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray, borrowed: bool = False) -> None:
        """Add ``grad`` into this tensor's gradient buffer.

        A first gradient is adopted: the caller hands over an array that
        nothing else holds.  ``borrowed`` marks one that something else
        still holds (the incoming gradient handed on as is, or a view of
        it); it is copied, unless the dtype cast or the broadcast
        reduction has already made a fresh array.  A non-contiguous one
        (a cropped or transposed view) is copied too, so every gradient is
        C-ordered and a reduction over it sums in the same order whichever
        op built it.
        """
        if not self.requires_grad:
            return
        owned = _sum_to_shape(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is not None:
            self.grad += owned
        elif (borrowed and np.may_share_memory(owned, grad)) or not owned.flags.c_contiguous:
            self.grad = owned.copy()
        else:
            self.grad = owned

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
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

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a view of the data severed from the tape."""
        return Tensor(self.data, requires_grad=False, dtype=self.data.dtype)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad, dtype=self.data.dtype)

    def zero_grad(self) -> None:
        self.grad = None

    def astype(self, dtype) -> "Tensor":
        out = Tensor._make(
            self.data.astype(dtype),
            (self,),
            lambda g: self._accumulate(g.astype(self.data.dtype)),
        )
        return out

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, gradient: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded tape.

        ``gradient`` defaults to ones (for scalar losses it is simply 1.0).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if gradient is None:
            gradient = np.ones_like(self.data)
        else:
            gradient = np.array(gradient, dtype=self.data.dtype)  # the tape's own
            if gradient.shape != self.data.shape:
                raise ValueError(
                    f"gradient shape {gradient.shape} does not match tensor shape {self.data.shape}"
                )

        self._accumulate(gradient)
        for node in reversed(self._topological_order()):
            if node._backward is not None and node.grad is not None:
                # the closure takes the gradient over and may consume it
                grad, node.grad = node.grad, None
                node._backward(grad)

    def _topological_order(self) -> list["Tensor"]:
        """Every tensor this one was computed from, parents first."""
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        return order

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        other = Tensor._coerce(other)
        a, b = self, other

        def backward(g):
            a._accumulate(g)
            b._accumulate(g, borrowed=True)  # ``a`` may have adopted ``g``

        return Tensor._make(a.data + b.data, (a, b), backward)

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = Tensor._coerce(other)
        a, b = self, other

        def backward(g):
            a._accumulate(g)
            b._accumulate(-g)

        return Tensor._make(a.data - b.data, (a, b), backward)

    def __rsub__(self, other) -> "Tensor":
        return Tensor._coerce(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = Tensor._coerce(other)
        a, b = self, other

        def backward(g):
            a._accumulate(g * b.data)
            b._accumulate(g * a.data)

        return Tensor._make(a.data * b.data, (a, b), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = Tensor._coerce(other)
        a, b = self, other

        def backward(g):
            a._accumulate(g / b.data)
            b._accumulate(-g * a.data / (b.data * b.data))

        return Tensor._make(a.data / b.data, (a, b), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor._coerce(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        a = self
        return Tensor._make(-a.data, (a,), lambda g: a._accumulate(-g))

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        a = self

        def backward(g):
            a._accumulate(g * exponent * np.power(a.data, exponent - 1))

        return Tensor._make(np.power(a.data, exponent), (a,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = Tensor._coerce(other)
        a, b = self, other

        def backward(g):
            if b.data.ndim >= 2:
                a._accumulate(g @ np.swapaxes(b.data, -1, -2))
            else:  # vector on the right
                a._accumulate(np.outer(g, b.data) if a.data.ndim == 2 else g * b.data)
            if a.data.ndim >= 2:
                b._accumulate(np.swapaxes(a.data, -1, -2) @ g)
            else:
                b._accumulate(np.outer(a.data, g) if b.data.ndim == 2 else g * a.data)

        return Tensor._make(a.data @ b.data, (a, b), backward)

    # Comparisons produce plain boolean arrays (no gradient flows).
    def __gt__(self, other):
        return self.data > (other.data if isinstance(other, Tensor) else other)

    def __lt__(self, other):
        return self.data < (other.data if isinstance(other, Tensor) else other)

    def __ge__(self, other):
        return self.data >= (other.data if isinstance(other, Tensor) else other)

    def __le__(self, other):
        return self.data <= (other.data if isinstance(other, Tensor) else other)

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        a = self
        out_data = np.exp(a.data)
        return Tensor._make(out_data, (a,), lambda g: a._accumulate(g * out_data))

    def log(self) -> "Tensor":
        a = self
        return Tensor._make(np.log(a.data), (a,), lambda g: a._accumulate(g / a.data))

    def sqrt(self) -> "Tensor":
        a = self
        out_data = np.sqrt(a.data)
        return Tensor._make(out_data, (a,), lambda g: a._accumulate(g * 0.5 / out_data))

    def tanh(self) -> "Tensor":
        a = self
        out_data = np.tanh(a.data)
        return Tensor._make(out_data, (a,), lambda g: a._accumulate(g * (1.0 - out_data**2)))

    def sigmoid(self) -> "Tensor":
        a = self
        # Numerically stable: never exponentiate a positive argument.
        positive = a.data >= 0
        exp_neg = np.exp(np.where(positive, -a.data, a.data))
        out_data = np.where(positive, 1.0 / (1.0 + exp_neg), exp_neg / (1.0 + exp_neg))
        return Tensor._make(out_data, (a,), lambda g: a._accumulate(g * out_data * (1.0 - out_data)))

    def relu(self, inplace: bool = False) -> "Tensor":
        """``max(x, 0)``.  With ``inplace`` the result overwrites this
        tensor's buffer and the tensor itself is returned; that is refused
        when a backward would be wired, since the tape would read the
        overwritten input."""
        a = self
        if inplace:
            if _grad_enabled and a.requires_grad:
                raise RuntimeError("in-place relu on a tensor whose backward "
                                   "would be wired; use relu()")
            np.maximum(a.data, 0.0, out=a.data)
            return a

        def backward(g):
            # Mask computed lazily: inference never pays for it.  The tape
            # hands over ``g`` for good, so it is masked in place.
            a._accumulate(np.multiply(g, a.data > 0, out=g))

        return Tensor._make(np.maximum(a.data, 0.0), (a,), backward)

    def abs(self) -> "Tensor":
        a = self
        sign = np.sign(a.data)
        return Tensor._make(np.abs(a.data), (a,), lambda g: a._accumulate(g * sign))

    def clip(self, low: float, high: float) -> "Tensor":
        a = self
        mask = (a.data >= low) & (a.data <= high)

        def backward(g):
            a._accumulate(g * mask)

        return Tensor._make(np.clip(a.data, low, high), (a,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        out_data = a.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            grad = np.asarray(g)
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis=axis)
            a._accumulate(np.broadcast_to(grad, a.data.shape), borrowed=True)

        return Tensor._make(out_data, (a,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        out_data = a.data.mean(axis=axis, keepdims=keepdims)
        count = a.data.size / max(out_data.size, 1)

        def backward(g):
            grad = np.asarray(g) / count
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis=axis)
            a._accumulate(np.broadcast_to(grad, a.data.shape), borrowed=True)

        return Tensor._make(out_data, (a,), backward)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        centered = self - self.mean(axis=axis, keepdims=True)
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        out_data = a.data.max(axis=axis, keepdims=keepdims)

        def backward(g):
            grad = np.asarray(g)
            expanded = out_data
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis=axis)
                expanded = np.expand_dims(out_data, axis=axis)
            mask = a.data == expanded
            # Split gradient among ties, matching subgradient convention.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            a._accumulate(grad * mask / counts)

        return Tensor._make(out_data, (a,), backward)

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        old_shape = a.data.shape
        return Tensor._make(
            a.data.reshape(shape), (a,),
            lambda g: a._accumulate(g.reshape(old_shape), borrowed=True),
        )

    def flatten(self, start_dim: int = 1) -> "Tensor":
        lead = self.shape[:start_dim]
        return self.reshape(*lead, -1)

    def transpose(self, *axes) -> "Tensor":
        a = self
        if not axes:
            axes = tuple(reversed(range(a.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = np.argsort(axes)
        return Tensor._make(
            a.data.transpose(axes), (a,),
            lambda g: a._accumulate(g.transpose(inverse), borrowed=True),
        )

    def __getitem__(self, index) -> "Tensor":
        a = self

        def backward(g):
            grad = np.zeros_like(a.data)
            np.add.at(grad, index, g)
            a._accumulate(grad)

        return Tensor._make(a.data[index], (a,), backward)

    def pad(self, pad_width) -> "Tensor":
        """Zero-pad.  ``pad_width`` follows ``numpy.pad`` conventions."""
        a = self
        widths = tuple((int(lo), int(hi)) for lo, hi in pad_width)

        def backward(g):
            slices = tuple(slice(lo, g.shape[i] - hi) for i, (lo, hi) in enumerate(widths))
            a._accumulate(g[slices], borrowed=True)

        return Tensor._make(np.pad(a.data, widths), (a,), backward)


# ----------------------------------------------------------------------
# Multi-input constructors
# ----------------------------------------------------------------------
def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [Tensor._coerce(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for tensor, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * g.ndim
            index[axis] = slice(lo, hi)
            tensor._accumulate(g[tuple(index)], borrowed=True)

    return Tensor._make(data, tensors, backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis``."""
    tensors = [Tensor._coerce(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        for i, tensor in enumerate(tensors):
            tensor._accumulate(np.take(g, i, axis=axis))

    return Tensor._make(data, tensors, backward)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select; ``condition`` is a boolean array (no gradient)."""
    a = Tensor._coerce(a)
    b = Tensor._coerce(b)
    cond = np.asarray(condition, dtype=bool)

    def backward(g):
        a._accumulate(np.where(cond, g, 0.0))
        b._accumulate(np.where(cond, 0.0, g))

    return Tensor._make(np.where(cond, a.data, b.data), (a, b), backward)


# ----------------------------------------------------------------------
# Convenience constructors
# ----------------------------------------------------------------------
def zeros(*shape, requires_grad: bool = False, dtype=DEFAULT_DTYPE) -> Tensor:
    """All-zeros tensor of the given shape."""
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad, dtype=dtype)


def ones(*shape, requires_grad: bool = False, dtype=DEFAULT_DTYPE) -> Tensor:
    """All-ones tensor of the given shape."""
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad, dtype=dtype)


