"""The default dtype, the one finiteness check, a training pass and the
array helpers the hand-written backwards share.

Every module is a forward and a backward on plain arrays; parameters are
plain arrays too, views into the model's one flat buffer.  ``checked`` is
the one dtype and finiteness check: each array a pass or a chain step
hands on, and each pass's loss, goes through it once and raises
``NumericsError``, so NaN/Inf and silent float64 promotion never
propagate.  A training pass is its loss with the backward that maps the
loss's gradient to every parameter's by name (``_make``), and
``backward`` runs that backward once.  ``conv1d_columns``,
``conv1d_weight_grad`` and ``tanh_grad`` are array helpers the backwards
share.
"""

from __future__ import annotations

import contextlib

import numpy as np


class NumericsError(RuntimeError):
    """Raised for shape mismatches, non-finite values and bad settings."""


# The largest value a count setting may take (scenes, pedestrians, frames,
# epochs, denoiser boosts, layer sizes, K, runs, draws).  It is far above any
# desk-scale run; a mistyped huge count would run without end or ask for
# more memory than there is, so each config's check refuses it.
MAX_COUNT = 10 ** 6

# The largest value a float setting may take (the rate, the loss weights and
# the synthetic speeds, box, turn noise and repulsion): float32's largest
# finite value.  A setting scales float32 arrays, so a larger one is inf in
# the model's arithmetic.  ``SynthConfig`` bounds its walkers tighter, by
# ``data.MAX_COORDINATE``.
FLOAT32_MAX = float(np.finfo(np.float32).max)


# Default dtype is float32 (desk-scale models, fast tests).  The finite
# difference harness switches to float64, where the central-difference
# oracle is actually meaningful.
_DTYPE = np.float32


def default_dtype():
    return _DTYPE


@contextlib.contextmanager
def precision(dtype):
    """Temporarily change the dtype of new parameters and computations."""
    global _DTYPE
    prev = _DTYPE
    _DTYPE = np.dtype(dtype).type
    try:
        yield
    finally:
        _DTYPE = prev


def init_params(layout: dict[str, tuple], rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Parameter arrays of the default dtype for ``layout`` (name -> (shape,
    fan_in)), drawn in layout order from N(0, 1/fan_in), or zeros where
    fan_in is None."""
    return {name: np.asarray(np.zeros(shape) if fan_in is None
                             else rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=shape),
                             dtype=_DTYPE)
            for name, (shape, fan_in) in layout.items()}


def checked(out: np.ndarray, what: str) -> np.ndarray:
    """``out``; ``NumericsError`` unless it is finite and of the active dtype."""
    if out.dtype != _DTYPE:
        raise NumericsError(f"{what} is {out.dtype}, not {np.dtype(_DTYPE)}")
    if not np.isfinite(out).all():
        raise NumericsError(f"non-finite {what}")
    return out


def _make(loss, backward) -> tuple:
    """A training pass: its scalar ``loss``, ``checked``, and ``backward``,
    which maps the loss's gradient to gradient arrays by parameter name."""
    return checked(loss, "loss"), backward


def backward(training_pass: tuple) -> dict[str, np.ndarray]:
    """Run a pass's backward once from the gradient 1 of its loss; returns
    its gradient arrays by name, in the default dtype and unchecked
    (``training.adam_update`` checks their norm)."""
    loss, grad_fn = training_pass
    return {name: np.asarray(g, dtype=_DTYPE)
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
