"""Dense float tensors with reverse-mode differentiation.

Everything downstream (encoders, the distribution converter, the denoiser,
the losses) is built from the operations in this module.  The design is
deliberately small:

* values are immutable numpy arrays (float32 by default),
* a forward pass optionally records onto an explicit ``ComputationRecord``,
* ``backward`` replays that record once, in reverse, and returns a
  gradient per named parameter,
* broadcasting is restricted to leading (batch) dimensions; any other
  shape alignment must be an explicit ``reshape``/``concat``/``transpose``.

Every recorded operation goes through ``_make``, which validates that its
output is finite and has the active dtype, and raises ``NumericsError``
otherwise, so NaN/Inf and silent float64 promotion never propagate.  The
primitives below are such operations.  So are the training pass's larger
pieces, each with its own backward computed on plain arrays, so each
output is checked once per call: the guidance encoders
(``guidance.encode_windows``), the converter with its losses
(``training.converter_losses``), the denoiser
(``diffusion.denoiser_apply``) and the loss sums in ``training``.
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

    ``data`` is a C-contiguous (row-major) numpy array.  Tensors are never
    mutated by primitives; each operation allocates its output.
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

    # Indexing routes through the ``slice_`` primitive, so recording and
    # validation stay in one place.
    def __getitem__(self, key):
        return slice_(self, key)


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


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=_DTYPE))


# ---------------------------------------------------------------------------
# Recording


class ComputationRecord:
    """Ordered log of primitive applications from one forward pass.

    Used as a context manager; primitives whose inputs require gradients
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


def _make(out_data: np.ndarray, inputs: tuple, grad_fn) -> Tensor:
    """Wrap a primitive result, validating dtype and finiteness and
    recording it."""
    if out_data.dtype != _DTYPE:
        raise NumericsError(f"primitive produced {out_data.dtype}, "
                            f"not {np.dtype(_DTYPE)}")
    if not np.isfinite(out_data).all():
        raise NumericsError("primitive produced a non-finite value")
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


def backward(loss: Tensor, params: dict[str, Tensor]) -> dict[str, Tensor]:
    """Single reverse sweep from a scalar loss.

    Returns one gradient tensor per entry of ``params``; parameters the loss
    does not depend on map to zeros.  The record backing ``loss`` may be
    swept only once; afterwards it holds no entries, so the forward's
    intermediate values are freed as soon as the caller drops them.
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
    out = {}
    for name, p in params.items():
        g = grads.get(id(p))
        out[name] = Tensor(np.zeros_like(p.data) if g is None else g)
    return out


# ---------------------------------------------------------------------------
# Broadcasting rules: equal shapes, or the smaller operand's shape must be
# a trailing suffix of the larger's (leading/batch broadcast only).


def _broadcast_shapes(sa, sb):
    if sa == sb:
        return sa
    if len(sb) < len(sa) and sa[len(sa) - len(sb):] == sb:
        return sa
    if len(sa) < len(sb) and sb[len(sb) - len(sa):] == sa:
        return sb
    raise NumericsError(f"shapes {sa} and {sb} do not batch-broadcast")


def _reduce_to(g: np.ndarray, shape) -> np.ndarray:
    if g.shape == shape:
        return g
    axes = tuple(range(g.ndim - len(shape)))
    return g.sum(axis=axes)


# ---------------------------------------------------------------------------
# Primitives


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _broadcast_shapes(a.shape, b.shape)

    def grad_fn(g):
        return _reduce_to(g, a.shape), _reduce_to(g, b.shape)

    return _make(a.data + b.data, (a, b), grad_fn)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _broadcast_shapes(a.shape, b.shape)
    ad, bd = a.data, b.data

    def grad_fn(g):
        return _reduce_to(g * bd, a.shape), _reduce_to(g * ad, b.shape)

    return _make(ad * bd, (a, b), grad_fn)


def matmul(a, b) -> Tensor:
    """``a @ b`` with ``b`` 2-D; ``a`` may carry one leading batch axis.
    The backward computes no gradient for an operand that needs none."""
    a, b = _as_tensor(a), _as_tensor(b)
    if b.ndim != 2 or a.ndim not in (2, 3) or a.shape[-1] != b.shape[0]:
        raise NumericsError(f"matmul shapes {a.shape} x {b.shape} unsupported")
    ad, bd = a.data, b.data

    def grad_fn(g):
        ga = g @ bd.T if a.requires_grad else None
        if not b.requires_grad:
            gb = None
        elif ad.ndim == 2:
            gb = ad.T @ g
        else:
            gb = np.tensordot(ad, g, axes=([0, 1], [0, 1]))
        return ga, gb

    return _make(ad @ bd, (a, b), grad_fn)


def conv1d_columns(xd: np.ndarray, k: int) -> np.ndarray:
    """The im2col matrix [N * L, C_in * k] of ``xd`` [N, C_in, L], zero-padded
    as ``conv1d`` pads it, so a convolution is one matmul with the weight
    reshaped to [C_out, C_in * k]."""
    n, c_in, length = xd.shape
    pl = (k - 1) // 2
    # a zero-filled buffer: np.pad's per-call overhead dominated small inputs
    xp = np.zeros((n, c_in, length + k - 1), dtype=xd.dtype)
    xp[:, :, pl:pl + length] = xd
    cols = np.lib.stride_tricks.sliding_window_view(xp, k, axis=2)
    return np.ascontiguousarray(cols.transpose(0, 2, 1, 3)).reshape(n * length, c_in * k)


def conv1d_weight_grad(g_pos: np.ndarray, cols: np.ndarray, w_shape) -> np.ndarray:
    """The ``conv1d`` weight gradient from the output gradient by position,
    ``g_pos`` [L, N, C_out] (C-contiguous), and the input's
    ``conv1d_columns``: one contraction over the batch per output position,
    summed in position order.  Positions with zero gradient add exact
    zeros, so when one position carries all of it (the collapsed encoder's
    reference) the sums are that position's matmul."""
    length, n = g_pos.shape[:2]
    per_pos = g_pos.transpose(0, 2, 1) @ np.ascontiguousarray(
        cols.reshape(n, length, -1).transpose(1, 0, 2))
    return per_pos.sum(axis=0).reshape(w_shape)


def conv1d(x, w) -> Tensor:
    """1-D convolution over the last axis, stride 1, zero-padded to the
    input's length ((k - 1) // 2 columns on the left, the rest on the right).

    ``x`` is [batch, in_channels, length], ``w`` is [out_channels,
    in_channels, kernel].  The backward computes no gradient for an
    operand that needs none.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    if x.ndim != 3 or w.ndim != 3 or x.shape[1] != w.shape[1]:
        raise NumericsError(f"conv1d shapes {x.shape} x {w.shape} unsupported")
    n, c_in, length = x.shape
    if length < 1:
        raise NumericsError("conv1d input is empty")
    c_out, k = w.shape[0], w.shape[2]
    pl = (k - 1) // 2
    cols = conv1d_columns(x.data, k)
    w2 = w.data.reshape(c_out, c_in * k)
    out = (cols @ w2.T).reshape(n, length, c_out).transpose(0, 2, 1)

    def grad_fn(g):
        gw = None
        if w.requires_grad:
            gw = conv1d_weight_grad(np.ascontiguousarray(g.transpose(2, 0, 1)), cols,
                                    w.shape)
        if not x.requires_grad:
            return None, gw
        gt = np.ascontiguousarray(g.transpose(0, 2, 1)).reshape(n * length, c_out)
        gcols = (gt @ w2).reshape(n, length, c_in, k)
        gxp = np.zeros((n, c_in, length + k - 1), dtype=x.data.dtype)
        for j in range(k):
            gxp[:, :, j:j + length] += gcols[:, :, :, j].transpose(0, 2, 1)
        return gxp[:, :, pl:pl + length], gw

    return _make(out, (x, w), grad_fn)


def transpose(x, axes) -> Tensor:
    x = _as_tensor(x)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def grad_fn(g):
        return (np.transpose(g, inv),)

    return _make(np.transpose(x.data, axes), (x,), grad_fn)


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    orig = x.shape

    def grad_fn(g):
        return (g.reshape(orig),)

    return _make(x.data.reshape(shape), (x,), grad_fn)


def concat(tensors, axis: int = 0) -> Tensor:
    ts = tuple(_as_tensor(t) for t in tensors)
    if not ts:
        raise NumericsError("concat of zero tensors")
    sizes = [t.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def grad_fn(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return _make(np.concatenate([t.data for t in ts], axis=axis), ts, grad_fn)


def slice_(x, key) -> Tensor:
    """Basic indexing (slices and integers); gradients scatter back."""
    x = _as_tensor(x)
    shape = x.shape

    def grad_fn(g):
        gx = np.zeros(shape, dtype=g.dtype)
        gx[key] = g
        return (gx,)

    return _make(np.ascontiguousarray(x.data[key]), (x,), grad_fn)


def _axis_count(shape, axis):
    if axis is None:
        return int(np.prod(shape)) if shape else 1
    if isinstance(axis, int):
        axis = (axis,)
    return int(np.prod([shape[a] for a in axis]))


def _unreduce(g, shape, axis, keepdims):
    if axis is None:
        return np.broadcast_to(g, shape)
    ax = (axis,) if isinstance(axis, int) else tuple(axis)
    if not keepdims:
        g = np.expand_dims(g, ax)
    return np.broadcast_to(g, shape)


def sum_(x, axis=None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    shape = x.shape

    def grad_fn(g):
        return (_unreduce(g, shape, axis, keepdims).copy(),)

    return _make(x.data.sum(axis=axis, keepdims=keepdims), (x,), grad_fn)


def mean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    shape = x.shape
    n = _axis_count(shape, axis)

    def grad_fn(g):
        return (_unreduce(g, shape, axis, keepdims) / n,)

    return _make(x.data.mean(axis=axis, keepdims=keepdims), (x,), grad_fn)


def exp(x) -> Tensor:
    x = _as_tensor(x)
    out_data = np.exp(x.data)

    def grad_fn(g):
        return (g * out_data,)

    return _make(out_data, (x,), grad_fn)


def log(x) -> Tensor:
    x = _as_tensor(x)
    xd = x.data
    with np.errstate(divide="ignore", invalid="ignore"):
        out_data = np.log(xd)

    def grad_fn(g):
        return (g / xd,)

    return _make(out_data, (x,), grad_fn)


def tanh(x) -> Tensor:
    x = _as_tensor(x)
    out_data = np.tanh(x.data)
    return _make(out_data, (x,), lambda g: (tanh_grad(out_data, g),))


def tanh_grad(out: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient through ``out = tanh(x)``: (1 - out^2) * g, in place
    on one new array."""
    d = out * out
    np.subtract(1.0, d, out=d)
    d *= g
    return d


def softplus(x) -> Tensor:
    x = _as_tensor(x)
    xd = x.data

    def grad_fn(g):
        # sigmoid(x), computed stably as exp(-softplus(-x))
        return (g * np.exp(-np.logaddexp(0.0, -xd)),)

    return _make(np.logaddexp(0.0, xd), (x,), grad_fn)


def scaled_dot_attention(q, k, v) -> Tensor:
    """Single-head attention: softmax(q.kT / sqrt(d)) v, batched over axis 0.

    Both passes are batched matmuls; the scale has the operands' dtype, so
    float32 inputs stay float32 throughout.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.ndim != 3 or k.ndim != 3 or v.ndim != 3:
        raise NumericsError("attention expects [batch, tokens, dim] operands")
    if q.shape[0] != k.shape[0] or k.shape[:2] != v.shape[:2] or q.shape[2] != k.shape[2]:
        raise NumericsError(f"attention shapes {q.shape}/{k.shape}/{v.shape} mismatch")
    qd, kd, vd = q.data, k.data, v.data
    scale = qd.dtype.type(1.0 / np.sqrt(q.shape[2]))
    scores = (qd @ kd.transpose(0, 2, 1)) * scale
    scores -= scores.max(axis=2, keepdims=True)
    e = np.exp(scores)
    w = e / e.sum(axis=2, keepdims=True)
    out = w @ vd

    def grad_fn(g):
        gw = g @ vd.transpose(0, 2, 1)
        gv = w.transpose(0, 2, 1) @ g
        gs = w * (gw - (gw * w).sum(axis=2, keepdims=True))
        gq = (gs @ kd) * scale
        gk = (gs.transpose(0, 2, 1) @ qd) * scale
        return gq, gk, gv

    return _make(out, (q, k, v), grad_fn)


def reciprocal_positive(x: Tensor) -> Tensor:
    """1/x for strictly positive x, composed as exp(-log(x))."""
    return exp(mul(log(x), -1.0))
