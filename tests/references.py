"""Reference implementations that only the tests use.

The tape: a ``Tensor`` is an immutable dense array with a gradient flag
(``parameter``, ``constant``; ``parameters`` wraps a model's arrays); a
``ComputationRecord`` logs the operations of one forward pass that
``_make`` records, and ``backward`` sweeps that log once, in reverse, to
one gradient array per named parameter.  ``recorded`` makes a pass's
(value, backward) pair one operation on the tape.  The primitives
(``add``, ``mul``, ``matmul``, ``conv1d``, ``transpose``, ``reshape``,
``concat``, ``slice_``, ``sum_``, ``mean``, ``exp``, ``log``, ``tanh``,
``softplus``, ``scaled_dot_attention`` and ``reciprocal_positive``) are
the generic operations, each recorded through ``_make`` with its own numpy
backward.  The tapes are the training pass written as chains of these
primitives, so ``backward`` differentiates them primitive by primitive;
the package's array forwards and hand-written backwards are held to them
byte for byte.
``denoiser_tape`` is the denoiser, ``encode_windows_tape`` the guidance
encoders (with ``aggregate_window_neighbors``, the per-window neighbor
mean), ``convert_tape`` the converter, ``constrain_tensors``,
``log_pdf_terms``, ``normalize_tensor``, ``loss_likelihood`` and
``loss_consistency`` the converter's losses and ``converter_losses_tape``
all of them in one vector; ``forward_marginal_tape`` and
``noise_matching_tape`` are the diffusion loss, ``loss_diffusion_tape``
the same as a boost pass's (value, backward) pair, and
``batch_losses_tape`` the joint pass.
``finite_difference_check`` is the central-difference gradient oracle and
``constant_velocity_baseline`` the classic extrapolation the acceptance
suite compares against.  ``candidates_per_draw`` is one window's candidate
set built one run and one candidate at a time (``select_per_run`` scores
the runs one by one), that the batched selection, draw and placement of
``inference._candidates`` are held to.  ``log_pdf`` and ``sample_location``
are the closed-form density and Cholesky draw of one bivariate Gaussian,
given as (mu1, mu2, sigma1, sigma2, rho), that the package's vectorized
density and sampler are held to; ``gaussian_at`` reads one location's
parameters from a field of raw statistics [N, T', 5] and ``stats_field``
builds such a field from them.
``reverse_chain_steps`` is the reverse chain written out as its parts, the
noise estimate, ``reconstruct_clean`` and ``posterior_step``, one block of
rows at a time, that the package's folded affine step is held to.
``synthesize_scenes_one_by_one`` steps each synthetic scene's walkers on
their own, the generator the grouped ``data.synthesize_scenes`` is held to
byte for byte, and ``write_benchmark_file_by_row`` formats each line with
its own f-string, as ``data.write_benchmark_file``'s one template must.
"""

import math

import numpy as np

from trajdiff import data, distribution, inference, training
from trajdiff import numerics as nm
from trajdiff.diffusion import _ChainTerms, denoiser_apply, step_embedding, transition
from trajdiff.distribution import (LOG_2PI, RHO_CAP, SIGMA_FLOOR, STAT_CHANNELS,
                                   _center_mask, constrain_array)


# ---------------------------------------------------------------------------
# The tape


class Tensor:
    """Immutable dense array plus a gradient-tracking flag.

    ``data`` is a C-contiguous (row-major) numpy array of ``dtype``, by
    default its data's own (float64 for Python floats).  Recorded
    operations never mutate their inputs; each allocates its output.
    """

    __slots__ = ("data", "requires_grad", "_rec")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        if not np.isfinite(arr).all():
            raise nm.NumericsError("tensor created from non-finite data")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._rec = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise nm.NumericsError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))


def parameter(data, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=True, dtype=dtype)


def constant(data, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=False, dtype=dtype)


def parameters(arrays: dict) -> dict[str, Tensor]:
    """A parameter Tensor per array, by name; each shares its (float,
    C-contiguous) array's memory."""
    return {k: parameter(a) for k, a in arrays.items()}


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


def _make(out_data: np.ndarray, inputs: tuple, grad_fn) -> Tensor:
    """Wrap an operation's result, ``nm.checked`` against the one dtype of
    its inputs, recording it with ``grad_fn``, which maps the output's
    gradient to one gradient (or None) per input."""
    dtypes = {t.dtype for t in inputs} or {out_data.dtype}
    if len(dtypes) > 1:
        names = " and ".join(sorted(map(str, dtypes)))
        raise nm.NumericsError(f"operation inputs mix {names}")
    nm.checked(out_data, dtypes.pop(), "operation output")
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

    Returns one gradient array per entry of ``params``, in its dtype;
    parameters the loss does not depend on map to zeros.  The record
    behind ``loss`` may be swept only once; afterwards it holds no
    entries, so the forward's intermediate values are freed as soon as the
    caller drops them.
    """
    if loss.size != 1:
        raise nm.NumericsError(f"backward expects a scalar loss, got shape {loss.shape}")
    grads: dict[int, np.ndarray] = {}
    rec = loss._rec
    if rec is not None:
        if rec.consumed:
            raise nm.NumericsError("backward called twice on the same record")
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
            else np.asarray(grads[id(p)], dtype=p.dtype)
            for name, p in params.items()}


def recorded(value, params: dict[str, Tensor], backward_fn) -> Tensor:
    """A (value, backward) pair as one recorded operation over ``params``;
    ``backward_fn`` maps the value's gradient to every parameter's by name."""
    return _make(value, tuple(params.values()),
                 lambda g: tuple(map(backward_fn(g).__getitem__, params)))


# ---------------------------------------------------------------------------
# Primitives: the generic operations, each a numpy forward and backward
# recorded through ``_make``.  Broadcasting is restricted to leading
# (batch) dimensions: equal shapes, or the smaller operand's shape must be a
# trailing suffix of the larger's; any other shape alignment is an explicit
# ``reshape``/``concat``/``transpose``.


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


def _operands(a, b) -> tuple[Tensor, Tensor]:
    """``a`` and ``b`` as Tensors; a Python scalar takes the other
    operand's dtype, as the package's scalars take their arrays'."""
    if isinstance(a, (int, float)):
        return constant(a, _as_tensor(b).dtype), _as_tensor(b)
    a = _as_tensor(a)
    return a, constant(b, a.dtype) if isinstance(b, (int, float)) else _as_tensor(b)


def _broadcast_shapes(sa, sb):
    if sa == sb:
        return sa
    if len(sb) < len(sa) and sa[len(sa) - len(sb):] == sb:
        return sa
    if len(sa) < len(sb) and sb[len(sb) - len(sa):] == sa:
        return sb
    raise nm.NumericsError(f"shapes {sa} and {sb} do not batch-broadcast")


def _reduce_to(g: np.ndarray, shape) -> np.ndarray:
    if g.shape == shape:
        return g
    axes = tuple(range(g.ndim - len(shape)))
    return g.sum(axis=axes)


def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    _broadcast_shapes(a.shape, b.shape)

    def grad_fn(g):
        return _reduce_to(g, a.shape), _reduce_to(g, b.shape)

    return _make(a.data + b.data, (a, b), grad_fn)


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
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
        raise nm.NumericsError(f"matmul shapes {a.shape} x {b.shape} unsupported")
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


def conv1d(x, w) -> Tensor:
    """1-D convolution over the last axis, stride 1, zero-padded to the
    input's length ((k - 1) // 2 columns on the left, the rest on the right).

    ``x`` is [batch, in_channels, length], ``w`` is [out_channels,
    in_channels, kernel].  The backward computes no gradient for an
    operand that needs none.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    if x.ndim != 3 or w.ndim != 3 or x.shape[1] != w.shape[1]:
        raise nm.NumericsError(f"conv1d shapes {x.shape} x {w.shape} unsupported")
    n, c_in, length = x.shape
    if length < 1:
        raise nm.NumericsError("conv1d input is empty")
    c_out, k = w.shape[0], w.shape[2]
    pl = (k - 1) // 2
    cols = nm.conv1d_columns(x.data, k)
    w2 = w.data.reshape(c_out, c_in * k)
    out = (cols @ w2.T).reshape(n, length, c_out).transpose(0, 2, 1)

    def grad_fn(g):
        gw = None
        if w.requires_grad:
            gw = nm.conv1d_weight_grad(np.ascontiguousarray(g.transpose(2, 0, 1)), cols,
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
        raise nm.NumericsError("concat of zero tensors")
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
    return _make(out_data, (x,), lambda g: (nm.tanh_grad(out_data, g),))



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
        raise nm.NumericsError("attention expects [batch, tokens, dim] operands")
    if q.shape[0] != k.shape[0] or k.shape[:2] != v.shape[:2] or q.shape[2] != k.shape[2]:
        raise nm.NumericsError(f"attention shapes {q.shape}/{k.shape}/{v.shape} mismatch")
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


# ---------------------------------------------------------------------------
# Tapes


def denoiser_tape(state, ks, guidance, params, cfg, schedule):
    """``diffusion.denoiser_apply`` as recorded Tensor primitives, in the
    parameters' dtype; call it under a ``ComputationRecord`` (shape checks
    are left to the package's version)."""
    dtype = params["den.in.w"].dtype
    x = state if isinstance(state, Tensor) else constant(state, dtype)
    g = guidance if isinstance(guidance, Tensor) else constant(guidance, dtype)
    n = x.shape[0]
    ks_arr = np.full(n, ks, dtype=np.int64) if np.isscalar(ks) else np.asarray(ks)
    emb = constant(step_embedding(ks_arr, cfg.step_dim), dtype)
    flat = reshape(x, (n, cfg.state_dim))
    x_in = concat([flat, emb, g], axis=1)
    h = tanh(add(matmul(x_in, params["den.in.w"]), params["den.in.b"]))
    for i in range(cfg.denoiser_blocks):
        r = tanh(add(matmul(h, params[f"den.blk{i}.w1"]), params[f"den.blk{i}.b1"]))
        r = add(matmul(r, params[f"den.blk{i}.w2"]), params[f"den.blk{i}.b2"])
        h = add(h, r)
    clean = add(add(matmul(h, params["den.out.w"]), matmul(x_in, params["den.skip.w"])),
                params["den.out.b"])
    a = schedule.alpha[ks_arr]
    gain = constant(np.broadcast_to(
        (1.0 / np.sqrt(1.0 - a))[:, None], (n, cfg.state_dim)).copy(), dtype)
    pull = constant(np.broadcast_to(
        (-np.sqrt(a) / np.sqrt(1.0 - a))[:, None], (n, cfg.state_dim)).copy(), dtype)
    eps_hat = add(mul(flat, gain), mul(clean, pull))
    return reshape(eps_hat, (n, cfg.t_future, STAT_CHANNELS))


def aggregate_window_neighbors(observed, neighbor_mask) -> np.ndarray:
    """One window's masked mean of neighbor displacements [N, T, 2]: the
    per-window reference for ``guidance.aggregate_neighbors``."""
    mask = np.asarray(neighbor_mask, dtype=np.float64)
    counts = mask.sum(axis=1, keepdims=True)             # [N, 1]
    summed = np.einsum("ij,jtc->itc", mask, np.asarray(observed, dtype=np.float64))
    return summed / np.maximum(counts[:, :, None], 1.0)


def encoder_tape(x, params, prefix, cfg):
    """One guidance encoder as recorded Tensor primitives, ``x`` [N, T, 2]:
    the T causal convolutions' last outputs as one matmul over the last k
    steps, then tanh, single-head attention and the projection."""
    n, t, c, kern = x.shape[0], cfg.t_obs, cfg.conv_channels, cfg.kernel
    taps = min(kern, t)
    last = slice_(x, (slice(None), slice(t - taps, None), slice(None)))
    last = reshape(transpose(last, (0, 2, 1)), (n, 2 * taps))  # as w: [2, taps]
    w = concat([params[f"{prefix}.conv{j}.w"] for j in range(t)], axis=0)
    if taps < kern:
        w = slice_(w, (slice(None), slice(None), slice(kern - taps, None)))
    w = transpose(reshape(w, (t * c, 2 * taps)), (1, 0))  # [2 taps, T*C]
    b = concat([params[f"{prefix}.conv{j}.b"] for j in range(t)], axis=0)
    seq = reshape(tanh(add(matmul(last, w), b)), (n, t, c))
    q = matmul(seq, params[f"{prefix}.attn.wq"])
    k = matmul(seq, params[f"{prefix}.attn.wk"])
    v = matmul(seq, params[f"{prefix}.attn.wv"])
    att = scaled_dot_attention(q, k, v)                  # [N, T, C]
    flat = reshape(att, (n, t * c))
    return add(matmul(flat, params[f"{prefix}.proj.w"]), params[f"{prefix}.proj.b"])


def encode_windows_tape(windows, params, cfg):
    """``guidance.encode_windows`` as recorded Tensor primitives, in the
    parameters' dtype."""
    dtype = params["hist.proj.w"].dtype
    obs = constant(np.concatenate([np.asarray(w.observed) for w in windows]), dtype)
    agg = np.concatenate([aggregate_window_neighbors(w.observed, w.neighbor_mask)
                          for w in windows])
    return concat([encoder_tape(obs, params, "hist", cfg),
                   encoder_tape(constant(agg, dtype), params, "nbr", cfg)], axis=1)


def convert_tape(future, params):
    """``distribution.convert_trajectory`` as recorded Tensor primitives, in
    the parameters' dtype."""
    dtype = params["conv.w1"].dtype
    x = future if isinstance(future, Tensor) else constant(future, dtype)
    k = params["conv.w1"].shape[2]
    w1 = mul(params["conv.w1"], constant(_center_mask(k), dtype))
    h = transpose(x, (0, 2, 1))                          # [N, 2, T']
    h = conv1d(h, w1)
    h = transpose(h, (0, 2, 1))                          # [N, T', C]
    h = tanh(add(h, params["conv.b1"]))
    h = transpose(h, (0, 2, 1))
    h = conv1d(h, params["conv.w2"])
    h = transpose(h, (0, 2, 1))                          # [N, T', 5]
    return add(h, params["conv.b2"])


def constrain_tensors(raw):
    """The constraint map on a raw-statistics tensor [..., 5]: (means,
    sigmas, rho)."""
    mu = slice_(raw, (Ellipsis, slice(0, 2)))
    sig = add(softplus(slice_(raw, (Ellipsis, slice(2, 4)))), SIGMA_FLOOR)
    rho = mul(tanh(slice_(raw, (Ellipsis, slice(4, 5)))), RHO_CAP)
    return mu, sig, rho


def log_pdf_terms(y, mu, sigma, rho):
    """Per-location log densities [..., 1] of ``y`` [..., 2] (constant)
    under ``mu`` [..., 2], ``sigma`` [..., 2] positive and ``rho`` [..., 1]
    with |rho| < 1."""
    y = y if isinstance(y, Tensor) else constant(y, mu.dtype)
    d = add(y, mul(mu, -1.0))
    u = mul(d, reciprocal_positive(sigma))               # standardized residuals
    u1 = slice_(u, (Ellipsis, slice(0, 1)))
    u2 = slice_(u, (Ellipsis, slice(1, 2)))
    omr2 = add(1.0, mul(mul(rho, rho), -1.0))            # 1 - rho^2 > 0 by cap
    quad = add(add(mul(u1, u1), mul(u2, u2)), mul(mul(mul(u1, u2), rho), -2.0))
    log_sig = sum_(log(sigma), axis=-1, keepdims=True)
    log_norm = add(add(log_sig, mul(log(omr2), 0.5)), LOG_2PI)
    penalty = mul(mul(quad, reciprocal_positive(omr2)), 0.5)
    return mul(add(log_norm, penalty), -1.0)


def normalize_tensor(raw, stats):
    return mul(add(raw, constant(-stats.mean, raw.dtype)),
               constant(1.0 / stats.scale, raw.dtype))


def loss_likelihood(future, raw, n_windows=1):
    mu, sig, rho = constrain_tensors(raw)
    return mul(sum_(log_pdf_terms(future, mu, sig, rho)), -1.0 / n_windows)


def loss_consistency(future, raw):
    fut = future if isinstance(future, Tensor) else constant(future, raw.dtype)
    d = add(slice_(fut, (slice(None), slice(0, 1), slice(None))),
            mul(slice_(raw, (slice(None), slice(0, 1), slice(0, 2))), -1.0))
    return mean(sum_(mul(d, d), axis=2))


def converter_losses_tape(future, params, norm, n_windows):
    """``training.converter_losses``' values as recorded Tensor primitives:
    the vector [likelihood, consistency, *normalized statistics]."""
    fut = constant(future, params["conv.w1"].dtype)
    raw = convert_tape(fut, params)
    return concat([reshape(loss_likelihood(fut, raw, n_windows), (1,)),
                   reshape(loss_consistency(fut, raw), (1,)),
                   reshape(normalize_tensor(raw, norm), (-1,))], axis=0)


def forward_marginal_tape(y0, ks, eps, schedule):
    """``diffusion.forward_marginal`` as recorded Tensor primitives, one
    step per row of ``y0``."""
    a = schedule.alpha[np.asarray(ks)].reshape(-1, *(1,) * (len(y0.shape) - 1))
    c0, c1 = (constant(np.broadcast_to(c, y0.shape), y0.dtype)
              for c in (np.sqrt(a), np.sqrt(1.0 - a)))
    return add(mul(y0, c0), mul(eps, c1))


def noise_matching_tape(y0_norm, guidance_emb, ks, eps, schedule, params, model_cfg):
    """``training.loss_diffusion``'s value as recorded Tensor primitives."""
    eps_t = constant(eps, y0_norm.dtype)
    noisy = forward_marginal_tape(y0_norm, ks, eps_t, schedule)
    pred = denoiser_tape(noisy, ks, guidance_emb, params, model_cfg, schedule)
    diff = add(pred, mul(eps_t, -1.0))
    return mean(mul(diff, diff))


def loss_diffusion_tape(y0_norm, guidance_emb, ks, eps, schedule, params, model_cfg):
    """``training.loss_diffusion`` of a boost pass, constant inputs, from
    ``noise_matching_tape`` over the arrays ``params``: (value, backward),
    with the backward a sweep of the tape's own record (so seeded with 1)
    that returns the ``den.*`` gradients and no input gradients."""
    params = parameters(params)
    with ComputationRecord():
        loss = noise_matching_tape(constant(y0_norm), constant(guidance_emb), ks, eps,
                                   schedule, params, model_cfg)

    def sweep(g, inputs=True):
        assert not inputs and g == 1
        return backward(loss, params), None, None

    return loss.data, sweep


def batch_losses_tape(batch, model, rng, weights=(1.0, 1.0, 1.0)):
    """``training.batch_losses`` as recorded Tensor primitives over the
    model's parameters; the pass's backward is a sweep of the tape's own
    record (so seeded with 1)."""
    params = parameters(model.params)
    with ComputationRecord():
        emb = encode_windows_tape(batch, params, model.config)
        fut = constant(np.concatenate([w.future for w in batch], axis=0), model.flat.dtype)
        raw = convert_tape(fut, params)
        l_llh = loss_likelihood(fut, raw, n_windows=len(batch))
        l_con = loss_consistency(fut, raw)
        y0n = normalize_tensor(raw, model.norm)
        ks, eps = training.draw_step_noise([w.n_peds for w in batch], model.schedule, rng,
                                           model.config.t_future)
        l_diff = noise_matching_tape(y0n, emb, ks, eps, model.schedule, params,
                                     model.config)
        w1, w2, w3 = weights
        total = add(add(mul(l_diff, w1), mul(l_llh, w2)), mul(l_con, w3))

    def sweep(g):
        assert g == 1
        return backward(total, params)

    parts = {"diffusion": l_diff.item(), "likelihood": l_llh.item(),
             "consistency": l_con.item()}
    cache = {"guidance": emb.data.copy(), "y0n": y0n.data.copy(),
             "sizes": [w.n_peds for w in batch]}
    return nm._make(total.data, sweep), parts, cache


def finite_difference_check(f, params, step: float = 1e-3,
                            tolerance: float = 1e-2, entries=None) -> dict:
    """Compare analytic gradients of ``f(params)`` against central differences.

    ``f`` returns a recorded scalar Tensor, or a pair (value, backward) of
    a scalar array and the function that maps its gradient to the
    parameters' gradients by name (zeros where a name is missing), such as
    a training pass.  ``params`` are Tensors or arrays; the check perturbs
    their values in place.  It
    must be deterministic (draw any randomness outside and close over it).
    ``entries``, when given, maps parameter names to the flat indices to
    check; by default every entry of every parameter is.  Relative errors
    use a denominator floored at 1e-6; the check passes iff the worst
    element stays within ``tolerance``.  Give it float64 parameters (and a
    float64 model) for trustworthy numerics.
    """

    def eval_scalar():
        out = f(params)
        value = out[0] if isinstance(out, tuple) else out.data
        if np.size(value) != 1:
            raise nm.NumericsError("finite_difference_check needs a scalar function")
        return float(np.reshape(value, ()))

    if eval_scalar() != eval_scalar():
        raise nm.NumericsError("f is not deterministic under a fixed seed")

    with ComputationRecord():
        out = f(params)
    if isinstance(out, tuple):
        grads = out[1](np.ones_like(out[0]))
    else:
        grads = backward(out, params)

    if entries is None:
        entries = {name: range(p.size) for name, p in params.items()}
    max_rel = 0.0
    worst = None
    for name, indices in entries.items():
        p = params[name]
        flat = (p.data if isinstance(p, Tensor) else p).reshape(-1)
        # a parameter the loss does not depend on has no gradient: zeros
        analytic = np.reshape(grads[name], -1) if name in grads else np.zeros_like(flat)
        for i in indices:
            orig = flat[i]
            flat[i] = orig + step
            fp = eval_scalar()
            flat[i] = orig - step
            fm = eval_scalar()
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * step)
            a = float(analytic[i])
            denom = max(abs(a), abs(numeric), 1e-6)
            rel = abs(a - numeric) / denom
            if rel > max_rel:
                max_rel = rel
                worst = (name, i)
    return {"max_relative_error": max_rel, "pass": max_rel <= tolerance, "worst": worst}


def constant_velocity_baseline(window) -> np.ndarray:
    """Repeat the last observed displacement: the classic extrapolation."""
    last = window.observed[:, -1, :]
    disp = np.repeat(last[:, None, :], window.future.shape[1], axis=1)
    return data.absolute_positions(disp, window.origin)


def select_per_run(runs, selection, gt_abs=None, origin=None) -> int:
    """``inference.select_best`` one run at a time: each run's [N, T', 5]
    statistics placed and scored on their own, then the first best index."""
    if selection == "gt-ade":
        return int(np.argmin([np.linalg.norm(data.absolute_positions(r[..., 0:2], origin)
                                             - gt_abs, axis=-1).mean() for r in runs]))
    return int(np.argmax([distribution.mean_log_score(r) for r in runs]))


def candidates_per_draw(runs, origin, strategy, rng, selection, gt_abs):
    """``inference._candidates`` one candidate at a time, on a window's
    runs [R, N, T', 5]: each candidate's displacements [N, T', 2] (a run's
    means, or one ``sample_field`` draw from one run's [N, T', 5]
    statistics without a count) placed by ``data.absolute_positions``,
    then stacked.  Returns (candidates [N, M, T', 2], provenance)."""
    if strategy.kind == "B":
        picks = [(distribution.sample_field(r, rng), (i, 0)) for i, r in enumerate(runs)]
    else:
        best, draws, picks = 0, strategy.r, []
        if strategy.kind == "A":
            best = select_per_run(runs, selection, gt_abs=gt_abs, origin=origin)
            draws = strategy.r2
            means = range(len(runs)) if strategy.pool_run_means else [best]
            picks = [(runs[i][..., 0:2], (i, "mean")) for i in means]
        picks += [(distribution.sample_field(runs[best], rng), (best, d))
                  for d in range(draws)]
    return (np.stack([data.absolute_positions(d, origin) for d, _ in picks], axis=1),
            [p for _, p in picks])


def gaussian_at(raw, n: int, t: int) -> tuple[float, float, float, float, float]:
    """(mu1, mu2, sigma1, sigma2, rho) of pedestrian ``n`` at timestep ``t``
    of the raw statistics ``raw`` [N, T', 5]."""
    (mu1, mu2), (s1, s2), (rho,) = (a[n, t] for a in constrain_array(raw))
    return float(mu1), float(mu2), float(s1), float(s2), float(rho)


def raw_stats(mu1, mu2, s1, s2, rho) -> np.ndarray:
    """The raw statistics [5] of these parameters, through the inverse of
    the constraint map (sigmas above ``SIGMA_FLOOR``)."""
    sig_raw = np.log(np.expm1(np.array([s1, s2]) - SIGMA_FLOOR))
    return np.array([mu1, mu2, *sig_raw, np.arctanh(rho / RHO_CAP)])


def stats_field(mu1, mu2, s1, s2, rho, n: int = 1, t: int = 1) -> np.ndarray:
    """Raw statistics [n, t, 5] whose every location has these parameters."""
    return np.broadcast_to(raw_stats(mu1, mu2, s1, s2, rho), (n, t, STAT_CHANNELS))


def log_pdf(y, mu1, mu2, s1, s2, rho) -> float:
    """Closed-form log density of the bivariate normal at location ``y``."""
    dx = (y[0] - mu1) / s1
    dy = (y[1] - mu2) / s2
    omr2 = 1.0 - rho * rho
    quad = dx * dx - 2.0 * rho * dx * dy + dy * dy
    return -(math.log(2.0 * math.pi) + math.log(s1) + math.log(s2)
             + 0.5 * math.log(omr2)) - quad / (2.0 * omr2)


def sample_location(mu1, mu2, s1, s2, rho, rng: np.random.Generator) -> tuple[float, float]:
    """Draw one location via the 2x2 Cholesky factor of the covariance."""
    u, v = rng.standard_normal(2)
    return mu1 + s1 * u, mu2 + s2 * (rho * u + math.sqrt(1.0 - rho ** 2) * v)


def reconstruct_clean(y_k, eps_hat, k: int, schedule) -> np.ndarray:
    """Invert the forward marginal given a noise estimate at step k."""
    a = float(schedule.alpha[k])
    return (np.asarray(y_k) - math.sqrt(1.0 - a) * np.asarray(eps_hat)) / math.sqrt(a)


def posterior_step(y_k, y0_hat, k_from: int, k_to: int, schedule,
                   rng: np.random.Generator | None = None) -> np.ndarray:
    """One reverse transition conditioned on the clean-state reconstruction:
    the mean c_y y_k + c_c y0_hat (``diffusion.transition``), plus, given
    ``rng``, standard normal noise scaled by the ddpm-matching gamma."""
    c_y, c_c, gamma = transition(schedule, k_from, k_to, stochastic=rng is not None)
    y_k = np.asarray(y_k, dtype=np.float64)
    y0_hat = np.asarray(y0_hat, dtype=np.float64)
    if y_k.shape != y0_hat.shape:
        raise nm.NumericsError("state and reconstruction shapes differ")
    out = c_y * y_k + c_c * y0_hat
    if gamma > 0.0:
        out = out + gamma * rng.standard_normal(out.shape)
    return out


def reverse_chain_steps(y_init, guidance_rows, schedule, params, cfg,
                        chain_rng: np.random.Generator | None = None) -> np.ndarray:
    """``diffusion.reverse_chain`` unfolded: per block of the chain's rows
    and per step the noise estimate, its clean-state reconstruction and
    the transition, stochastic exactly when given ``chain_rng``; block b
    draws its noise from child b of ``chain_rng.spawn``, in step order."""
    tau = schedule.tau.tolist()
    y = np.array(y_init, dtype=np.float64)
    blocks = _ChainTerms(guidance_rows, params, cfg, schedule).blocks
    rngs = [None] * len(blocks) if chain_rng is None else chain_rng.spawn(len(blocks))
    for (start, stop), rng in zip(blocks, rngs):
        rows, guidance = y[start:stop], guidance_rows[start:stop]
        for k_from, k_to in zip(tau[::-1], [*tau[:-1][::-1], 0]):
            eps_hat = denoiser_apply(rows, k_from, guidance, params, cfg, schedule)
            y0_hat = reconstruct_clean(rows, eps_hat, k_from, schedule)
            rows = posterior_step(rows, y0_hat, k_from, k_to, schedule, rng=rng)
        y[start:stop] = rows
    return y


def synthesize_scenes_one_by_one(config) -> list:
    """``data.synthesize_scenes`` with one scene's walkers stepped at a time."""
    tracks = []
    for s in range(config.n_scenes):
        rng = np.random.default_rng([config.seed, s])
        n = config.peds_per_scene
        pos = rng.uniform(0.0, config.box, size=(n, 2))
        heading = rng.uniform(-np.pi, np.pi, size=n)
        speed = config.speed_min + rng.uniform(0.0, 1.0, size=n) * (
            config.speed_max - config.speed_min)
        turns = rng.normal(0.0, 1.0, size=(config.frames - 1, n))
        history = np.empty((config.frames, n, 2))
        history[0] = pos
        for f in range(1, config.frames):
            heading = heading + config.turn_noise * turns[f - 1]
            step = speed[:, None] * np.stack([np.cos(heading), np.sin(heading)], axis=1)
            if config.repulsion_gain > 0:
                delta = pos[:, None, :] - pos[None, :, :]
                dist = np.linalg.norm(delta, axis=-1)
                np.fill_diagonal(dist, np.inf)
                close = dist < data.REPULSION_RADIUS
                if np.any(close):
                    push = np.where(close[:, :, None],
                                    delta / np.maximum(dist, data.REPULSION_FLOOR)[:, :, None] ** 2,
                                    0.0)
                    step = step + config.repulsion_gain * push.sum(axis=1)
            pos = pos + step
            # reflect off the box walls
            for axis in range(2):
                low = pos[:, axis] < 0
                pos[low, axis] = -pos[low, axis]
                high = pos[:, axis] > config.box
                pos[high, axis] = 2 * config.box - pos[high, axis]
            history[f] = pos
        scene_id = f"{data.SYNTH_SCENE_PREFIX}{s:02d}"
        frames = np.arange(config.frames, dtype=np.int64) * 10
        for p in range(n):
            tracks.append(data.RawTrack(scene_id, p, frames, history[:, p, :]))
    return tracks


def write_benchmark_file_by_row(path, tracks) -> None:
    """``data.write_benchmark_file`` with one f-string per line."""
    rows = []
    for tr in tracks:
        for f, (x, y) in zip(tr.frames, tr.points):
            rows.append((int(f), tr.ped_id, x, y))
    rows.sort()
    with open(path, "w", encoding="utf-8") as fh:
        for frame, ped, x, y in rows:
            fh.write(f"{frame} {ped} {x:.6f} {y:.6f}\n")
