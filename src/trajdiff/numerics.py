"""The one finiteness check, a training pass and the array helpers the
hand-written backwards share.

Every module is a forward and a backward on plain arrays; parameters are
plain arrays too, views into the model's one flat buffer, whose dtype
(``Model.initialize``'s ``dtype``) is the model's: each backbone computes
in its parameters' dtype and each parameter-free helper in its inputs'.
``checked`` is the one dtype and finiteness check: each array a pass or a
chain step hands on goes through it once against the dtype it should
have, and each pass's loss for finiteness; it raises ``NumericsError``, so
NaN/Inf and silent float64 promotion never propagate.  A training pass is its loss
with the backward that maps the loss's gradient to every parameter's by
name (``_make``), and ``backward`` runs that backward once.
``conv1d_columns``, ``conv1d_weight_grad`` and ``tanh_grad`` are array
helpers the backwards share.  ``setting`` declares a settings field with
its range, and ``check_settings`` is the one check of those ranges.
"""

from __future__ import annotations

from dataclasses import field, fields

import numpy as np


class NumericsError(RuntimeError):
    """Raised for shape mismatches, non-finite values and bad settings."""


# The largest value a count setting may take (scenes, pedestrians, frames,
# epochs, batches, denoiser boosts, layer sizes, K, S, runs, draws).  It is
# far above any desk-scale run; a mistyped huge count would run without end
# or ask for more memory than there is, so it is each count's default bound.
MAX_COUNT = 10 ** 6

# The largest value a float setting may take (the rate, the loss weights and
# the synthetic speeds, box, turn noise and repulsion): float32's largest
# finite value.  A setting scales float32 arrays, so a larger one is inf in
# the model's arithmetic.  ``SynthConfig`` bounds its walkers tighter, by
# ``data.MAX_COORDINATE``.
FLOAT32_MAX = float(np.finfo(np.float32).max)


def setting(default, low, high=MAX_COUNT, *, above=False):
    """A dataclass field of ``default`` whose value must lie in
    ``low``..``high``, and above ``low`` when ``above``."""
    return field(default=default, metadata={"range": (low, high, above)})


def check_settings(cfg, what: str) -> None:
    """Raise ValueError naming the first field of the dataclass ``cfg``
    outside its ``setting`` range, as ``<what> <field> must be in
    <low>..<high>, got <value>``.  NaN fails every range; None passes."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if "range" not in f.metadata or value is None:
            continue
        low, high, above = f.metadata["range"]
        if not ((low < value) if above else (low <= value)) or not value <= high:
            lo, hi = (f"{b:.6g}" if isinstance(b, float) else b for b in (low, high))
            raise ValueError(f"{what} {f.name} must be in {lo}..{hi}"
                             f"{f', above {lo}' if above else ''}, got {value}")


def init_params(layout: dict[str, tuple], rng: np.random.Generator,
                dtype) -> dict[str, np.ndarray]:
    """Parameter arrays of ``dtype`` for ``layout`` (name -> (shape,
    fan_in)), drawn in layout order from N(0, 1/fan_in), or zeros where
    fan_in is None."""
    return {name: np.asarray(np.zeros(shape) if fan_in is None
                             else rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=shape),
                             dtype=dtype)
            for name, (shape, fan_in) in layout.items()}


def checked(out: np.ndarray, dtype, what: str) -> np.ndarray:
    """``out``; ``NumericsError`` unless it is finite and of ``dtype``."""
    if out.dtype != dtype:
        raise NumericsError(f"{what} is {out.dtype}, not {np.dtype(dtype)}")
    if not np.isfinite(out).all():
        raise NumericsError(f"non-finite {what}")
    return out


def _make(loss, backward) -> tuple:
    """A training pass: its scalar ``loss``, ``checked`` for finiteness,
    and ``backward``, which maps the loss's gradient to gradient arrays by
    parameter name."""
    return checked(loss, loss.dtype, "loss"), backward


def backward(training_pass: tuple) -> dict[str, np.ndarray]:
    """Run a pass's backward once from the gradient 1 of its loss; returns
    its gradient arrays by name, in the loss's dtype and unchecked
    (``training.adam_update`` checks their norm)."""
    loss, grad_fn = training_pass
    return {name: np.asarray(g, dtype=loss.dtype)
            for name, g in grad_fn(np.ones_like(loss)).items()}


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
