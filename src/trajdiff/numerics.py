"""The tape and its array helpers: dense float tensors with reverse-mode
differentiation.

* values are immutable numpy arrays (float32 by default),
* a forward pass optionally records onto an explicit ``ComputationRecord``,
* ``backward`` replays that record once, in reverse, and returns a
  gradient array per named parameter.

A training pass records one operation (``training``) whose backward runs
the modules' backwards in reverse order; each module is a forward and a
backward on plain arrays and does not know the tape.  ``checked`` is the
one dtype and finiteness check: each array a pass or a chain step hands
on, and each recorded output, goes through it once and raises
``NumericsError``, so NaN/Inf and silent float64 promotion never
propagate.  ``conv1d_columns``, ``conv1d_weight_grad`` and ``tanh_grad``
are array helpers the backwards share.
"""

from __future__ import annotations

import contextlib

import numpy as np


class NumericsError(RuntimeError):
    """Raised for shape mismatches, non-finite values and misuse of records."""


# Default dtype is float32 (desk-scale models, fast tests).  The finite
# difference harness switches to float64, where the central-difference
# oracle is actually meaningful.
_DTYPE = np.float32


def default_dtype():
    return _DTYPE


@contextlib.contextmanager
def precision(dtype):
    """Temporarily change the dtype used for newly created tensors."""
    global _DTYPE
    prev = _DTYPE
    _DTYPE = np.dtype(dtype).type
    try:
        yield
    finally:
        _DTYPE = prev


class Tensor:
    """Immutable dense array plus a gradient-tracking flag.

    ``data`` is a C-contiguous (row-major) numpy array.  Recorded
    operations never mutate their inputs; each allocates its output.
    """

    __slots__ = ("data", "requires_grad", "_rec")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=_DTYPE)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        if not np.isfinite(arr).all():
            raise NumericsError("tensor created from non-finite data")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._rec = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise NumericsError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, requires_grad={self.requires_grad})"


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def init_params(layout: dict[str, tuple], rng: np.random.Generator) -> dict[str, Tensor]:
    """Parameters for ``layout`` (name -> (shape, fan_in)), drawn in layout
    order from N(0, 1/fan_in), or zeros where fan_in is None."""
    return {name: parameter(np.zeros(shape) if fan_in is None
                            else rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=shape))
            for name, (shape, fan_in) in layout.items()}


# ---------------------------------------------------------------------------
# Recording


class ComputationRecord:
    """Ordered log of the operations of one forward pass.

    Used as a context manager; operations whose inputs require gradients
    append themselves while the record is active.  A record supports exactly
    one ``backward`` call, which releases its entries (a recorded output
    refers to its record, so they would otherwise form a reference cycle).
    """

    def __init__(self):
        self.entries = []
        self.consumed = False
        self._outer = None

    def __enter__(self):
        global _ACTIVE
        self._outer = _ACTIVE
        _ACTIVE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE
        _ACTIVE = self._outer
        self._outer = None
        return False


_ACTIVE: ComputationRecord | None = None


class _Entry:
    __slots__ = ("out", "inputs", "grad_fn")

    def __init__(self, out, inputs, grad_fn):
        self.out = out
        self.inputs = inputs
        self.grad_fn = grad_fn


def checked(out: np.ndarray, what: str) -> np.ndarray:
    """``out``; ``NumericsError`` unless it is finite and of the active dtype."""
    if out.dtype != _DTYPE:
        raise NumericsError(f"{what} is {out.dtype}, not {np.dtype(_DTYPE)}")
    if not np.isfinite(out).all():
        raise NumericsError(f"non-finite {what}")
    return out


def _make(out_data: np.ndarray, inputs: tuple, grad_fn) -> Tensor:
    """Wrap an operation's result, ``checked``, recording it with
    ``grad_fn``, which maps the output's gradient to one gradient (or None)
    per input."""
    checked(out_data, "operation output")
    out = Tensor.__new__(Tensor)
    if not out_data.flags["C_CONTIGUOUS"]:
        out_data = np.ascontiguousarray(out_data)
    out.data = out_data
    out.requires_grad = any(t.requires_grad for t in inputs)
    out._rec = None
    if out.requires_grad and _ACTIVE is not None:
        _ACTIVE.entries.append(_Entry(out, inputs, grad_fn))
        out._rec = _ACTIVE
    return out


def backward(loss: Tensor, params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Single reverse sweep from a scalar loss.

    Returns one gradient array per entry of ``params``, in the default
    dtype and unchecked (``training.adam_update`` checks their norm);
    parameters the loss does not depend on map to zeros.  The record behind
    ``loss`` may be swept only once; afterwards it holds no entries, so the
    forward's intermediate values are freed as soon as the caller drops
    them.
    """
    if loss.size != 1:
        raise NumericsError(f"backward expects a scalar loss, got shape {loss.shape}")
    grads: dict[int, np.ndarray] = {}
    rec = loss._rec
    if rec is not None:
        if rec.consumed:
            raise NumericsError("backward called twice on the same record")
        rec.consumed = True
        grads[id(loss)] = np.ones_like(loss.data)
        try:
            for entry in reversed(rec.entries):
                g_out = grads.pop(id(entry.out), None)
                if g_out is None:
                    continue
                for t, g in zip(entry.inputs, entry.grad_fn(g_out)):
                    if g is None or not t.requires_grad:
                        continue
                    if id(t) in grads:
                        grads[id(t)] = grads[id(t)] + g
                    else:
                        grads[id(t)] = g
        finally:
            rec.entries.clear()
    return {name: np.zeros_like(p.data) if id(p) not in grads
            else np.asarray(grads[id(p)], dtype=_DTYPE) for name, p in params.items()}


# ---------------------------------------------------------------------------
# Array helpers of the hand-written backwards


def conv1d_columns(xd: np.ndarray, k: int) -> np.ndarray:
    """The im2col matrix [N * L, C_in * k] of ``xd`` [N, C_in, L], zero-padded
    to the input's length ((k - 1) // 2 columns on the left, the rest on the
    right), so a stride-1 convolution over the last axis is one matmul with
    the weight reshaped to [C_out, C_in * k]."""
    n, c_in, length = xd.shape
    pl = (k - 1) // 2
    # a zero-filled buffer: np.pad's per-call overhead dominated small inputs
    xp = np.zeros((n, c_in, length + k - 1), dtype=xd.dtype)
    xp[:, :, pl:pl + length] = xd
    cols = np.lib.stride_tricks.sliding_window_view(xp, k, axis=2)
    return np.ascontiguousarray(cols.transpose(0, 2, 1, 3)).reshape(n * length, c_in * k)


def conv1d_weight_grad(g_pos: np.ndarray, cols: np.ndarray, w_shape) -> np.ndarray:
    """A convolution's weight gradient from the output gradient by position,
    ``g_pos`` [L, N, C_out] (C-contiguous), and the input's
    ``conv1d_columns``: one contraction over the batch per output position,
    summed in position order.  Positions with zero gradient add exact
    zeros, so when one position carries all of it (the collapsed encoder's
    reference) the sums are that position's matmul."""
    length, n = g_pos.shape[:2]
    per_pos = g_pos.transpose(0, 2, 1) @ np.ascontiguousarray(
        cols.reshape(n, length, -1).transpose(1, 0, 2))
    return per_pos.sum(axis=0).reshape(w_shape)


def tanh_grad(out: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient through ``out = tanh(x)``: (1 - out^2) * g, in place
    on one new array."""
    d = out * out
    np.subtract(1.0, d, out=d)
    d *= g
    return d
