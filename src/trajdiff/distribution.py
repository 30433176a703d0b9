"""Bivariate Gaussian machinery for per-timestep location distributions.

A convolutional converter maps future displacement trajectories
[N, T', 2] to unconstrained statistics [N, T', 5].  The constraint map
turns raw statistics into valid Gaussian parameters:

    mu1, mu2  identity
    sigma1,2  softplus(raw) + SIGMA_FLOOR
    rho       RHO_CAP * tanh(raw)

Diffusion always operates on the unconstrained raw values, and a field of
explicit Gaussians is a plain array of them; the constraint map
(``constrain_array``) is applied whenever one is read as a distribution.
The converter's sizes (conv_channels, kernel) are read from the model's
``ModelConfig``.

Every density and draw is vectorized over pedestrians and timesteps:
``log_pdf`` (the likelihood loss, with its gradient), ``mean_log_score``
(self-likelihood selection) and ``sample_field`` (Gaussian draws); the last
two also over leading run axes, so one call covers a window's runs.  The
tests hold them to scalar closed-form references.  The converter is a
forward and a backward on plain arrays (``convert_trajectory`` and
``converter_backward``), and so is the density (``log_pdf``); the training
losses join them (``training.converter_losses``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import numerics as nm

if TYPE_CHECKING:
    from .model import ModelConfig

SIGMA_FLOOR = 1e-4
RHO_CAP = 0.99
STAT_CHANNELS = 5
LOG_2PI = math.log(2.0 * math.pi)


def constrain_array(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw [..., 5] -> (means [..., 2], sigmas [..., 2], rho [..., 1])."""
    mu = raw[..., 0:2]
    sig = np.logaddexp(0.0, raw[..., 2:4]) + SIGMA_FLOOR
    rho = RHO_CAP * np.tanh(raw[..., 4:5])
    return mu, sig, rho


def _center_mask(kernel: int) -> np.ndarray:
    mask = np.ones(kernel)
    mask[kernel // 2] = 0.0
    return mask


def converter_layout(cfg: ModelConfig) -> dict[str, tuple]:
    """The converter's parameters for ``numerics.init_params``."""
    c, k = cfg.conv_channels, cfg.kernel
    return {
        "conv.w1": ((c, 2, k), 2 * k),
        "conv.b1": ((c,), None),
        "conv.w2": ((STAT_CHANNELS, c, 1), c),
        "conv.b2": ((STAT_CHANNELS,), None),
    }


def convert_trajectory(future, params: dict[str, np.ndarray], keep: dict | None = None
                       ) -> np.ndarray:
    """Map future displacements [N, T', 2] to raw statistics [N, T', 5],
    on plain arrays in the parameters' dtype.

    Deterministic given parameters.  The first convolution's center tap is
    masked out, so each timestep's statistics are predicted from its
    temporal neighborhood but never from the value itself; without the
    mask the layer can learn a pass-through and the likelihood term then
    collapses every sigma to the floor, which destroys the location
    distributions that the samplers rely on.  Only an odd kernel has a
    center tap (``ModelConfig`` refuses an even one).  The second
    layer is pointwise (2 -> C -> 5 channels overall).  The result gets
    ``numerics.checked``'s dtype and finiteness check.  ``keep``, when
    given, receives what ``converter_backward`` reads.
    """
    dtype = params["conv.w1"].dtype
    x = np.asarray(future, dtype=dtype)
    n, length = x.shape[0], x.shape[1]
    k = params["conv.w1"].shape[2]
    w1 = params["conv.w1"] * _center_mask(k).astype(dtype)
    cols = nm.conv1d_columns(x.transpose(0, 2, 1), k)          # [N*T', 2k]
    h = np.tanh(cols @ w1.reshape(len(w1), -1).T + params["conv.b1"])
    w2 = params["conv.w2"]
    raw = (h @ w2.reshape(len(w2), -1).T).reshape(n, length, STAT_CHANNELS)
    raw += params["conv.b2"]
    nm.checked(raw, dtype, "converter output")
    if keep is not None:
        keep.update(cols=cols, h=h, w1=w1)
    return raw


def converter_backward(g_raw: np.ndarray, params: dict[str, np.ndarray],
                       keep: dict) -> dict[str, np.ndarray]:
    """Gradients of the ``conv.*`` parameters given the raw statistics'
    gradient [N, T', 5].  Each value rounds as the primitive tape of
    ``convert_trajectory`` (kept in the tests as the reference), whose
    convolutions' weight gradients are ``numerics.conv1d_weight_grad``."""
    n, length, c = g_raw.shape[0], g_raw.shape[1], keep["h"].shape[1]
    w1, w2 = keep["w1"], params["conv.w2"]
    gw2 = nm.conv1d_weight_grad(np.ascontiguousarray(g_raw.transpose(1, 0, 2)),
                                keep["h"], w2.shape)
    d = nm.tanh_grad(keep["h"], g_raw.reshape(n * length, -1) @ w2.reshape(len(w2), -1))
    d = d.reshape(n, length, c)
    gw1 = nm.conv1d_weight_grad(np.ascontiguousarray(d.transpose(1, 0, 2)),
                                keep["cols"], w1.shape)
    return {"conv.w1": gw1 * _center_mask(w1.shape[2]).astype(w1.dtype),
            "conv.b1": d.sum(axis=(0, 1)), "conv.w2": gw2,
            "conv.b2": g_raw.sum(axis=(0, 1))}


# ---------------------------------------------------------------------------
# Density and sampling


def log_pdf(y: np.ndarray, raw: np.ndarray):
    """Log density [..., 1] of each location ``y`` [..., 2] under the
    Gaussian of the raw statistics ``raw`` [..., 5] at it, and its
    backward: the map from the densities' gradient to the gradients of
    raw's (means, sigmas, rho) channels, [..., 2], [..., 2] and [..., 1].

    The density is -(log sigma1 + log sigma2 + log(1 - rho^2) / 2 +
    log 2 pi + quad / (2 (1 - rho^2))), with the standardized residuals
    u = (y - mu) / sigma and quad = u1^2 + u2^2 - 2 u1 u2 rho; each
    reciprocal is exp(-log x).  Every value rounds as the primitive tape of
    the constraint map and this formula (kept in the tests as the
    reference): where the tape sums several gradients of one value, they
    are summed in its order.  It computes in ``raw``'s dtype.
    """
    f = raw.dtype.type
    mu, s_raw, r_raw = raw[..., 0:2], raw[..., 2:4], raw[..., 4:5]
    sig = np.logaddexp(0.0, s_raw) + f(SIGMA_FLOOR)
    th = np.tanh(r_raw)
    rho = th * f(RHO_CAP)
    d = y + mu * f(-1.0)
    r_sig = np.exp(np.log(sig) * f(-1.0))
    u = d * r_sig
    u1, u2 = u[..., 0:1], u[..., 1:2]
    omr2 = f(1.0) + rho * rho * f(-1.0)                  # 1 - rho^2 > 0 by cap
    p12 = u1 * u2
    quad = (u1 * u1 + u2 * u2) + p12 * rho * f(-2.0)
    log_norm = (np.log(sig).sum(axis=-1, keepdims=True) + np.log(omr2) * f(0.5)) \
        + f(LOG_2PI)
    r_omr2 = np.exp(np.log(omr2) * f(-1.0))
    terms = (log_norm + quad * r_omr2 * f(0.5)) * f(-1.0)

    def density_backward(g_terms):
        g = g_terms * f(-1.0)
        g_quad = g * f(0.5) * r_omr2
        g_omr2 = g * f(0.5) * quad * r_omr2 * f(-1.0) / omr2 + g * f(0.5) / omr2
        g_rho2 = g_quad * f(-2.0)
        g_p12 = g_rho2 * rho
        g_u1 = g_p12 * u2 + g_quad * u1 + g_quad * u1
        g_u2 = g_p12 * u1 + g_quad * u2 + g_quad * u2
        g_rr = g_omr2 * f(-1.0)
        g_rho = g_rho2 * p12 + g_rr * rho + g_rr * rho
        g_u = np.concatenate([g_u1, g_u2], axis=-1)
        g_sig = np.broadcast_to(g, sig.shape) / sig \
            + g_u * d * r_sig * f(-1.0) / sig
        return (g_u * r_sig * f(-1.0), g_sig * np.exp(-np.logaddexp(0.0, -s_raw)),
                nm.tanh_grad(th, g_rho * f(RHO_CAP)))

    return terms, density_backward


def sample_field(raw: np.ndarray, rng: np.random.Generator,
                 n: int | None = None) -> np.ndarray:
    """One displacement trajectory [..., N, T', 2] from each field of raw
    statistics ``raw`` [..., N, T', 5], or ``n`` of them [n, ..., N, T', 2],
    drawn independently per timestep through the 2x2 Cholesky factor of
    each covariance: x from ``u``, y from ``rho u + sqrt(1 - rho^2) v``, with
    ``u`` and ``v`` standard normal draws of shape [N, T'] taken in that
    order for each field in turn.  All of them come from one call on
    ``rng``: the values of one call per field, and per draw."""
    mu, sig, rho = constrain_array(raw)
    rho = rho[..., 0]
    lead = raw.shape[:-3] if n is None else (n, *raw.shape[:-3])
    z = rng.standard_normal((*lead, 2, *raw.shape[-3:-1]))
    u, v = z[..., 0, :, :], z[..., 1, :, :]
    out = np.empty(u.shape + (2,))
    out[..., 0] = mu[..., 0] + sig[..., 0] * u
    out[..., 1] = mu[..., 1] + sig[..., 1] * (rho * u + np.sqrt(1.0 - rho ** 2) * v)
    return out


def mean_log_score(raw: np.ndarray) -> np.ndarray:
    """Log density of each field's own means, a GT-free confidence score,
    from raw statistics [..., N, T', 5]: one score per field [...].

    The quadratic term vanishes at the mean, leaving the (negative) log
    normalization summed over pedestrians and timesteps.
    """
    _, sig, rho = constrain_array(raw)
    omr2 = 1.0 - rho[..., 0] ** 2
    return -(LOG_2PI + np.log(sig[..., 0]) + np.log(sig[..., 1])
             + 0.5 * np.log(omr2)).sum(axis=(-2, -1))


# ---------------------------------------------------------------------------
# Channel normalization (diffusion wants roughly unit-scale inputs)


@dataclass
class NormStats:
    mean: np.ndarray    # [5]
    scale: np.ndarray   # [5], strictly positive

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64).reshape(STAT_CHANNELS)
        self.scale = np.asarray(self.scale, dtype=np.float64).reshape(STAT_CHANNELS)
        if np.any(self.scale <= 0):
            raise ValueError("normalization scales must be strictly positive")

    @classmethod
    def identity(cls):
        return cls(np.zeros(STAT_CHANNELS), np.ones(STAT_CHANNELS))

    @classmethod
    def from_raw(cls, raw: np.ndarray):
        # the scale floor keeps near-constant channels from being amplified
        # into huge normalized values
        flat = np.asarray(raw, dtype=np.float64).reshape(-1, STAT_CHANNELS)
        std = flat.std(axis=0)
        return cls(flat.mean(axis=0), np.maximum(std, 1e-3))


def denormalize_stats(normed: np.ndarray, stats: NormStats) -> np.ndarray:
    """normed * scale + mean, in place in the float64 ``normed``; returns it."""
    normed *= stats.scale
    normed += stats.mean
    return normed


def normalize_stats(raw: np.ndarray, stats: NormStats) -> np.ndarray:
    """``denormalize_stats``' inverse in ``raw``'s dtype: (raw - mean) /
    scale, rounded as (raw + -mean) * (1 / scale)."""
    dtype = raw.dtype
    return (raw + (-stats.mean).astype(dtype)) * (1.0 / stats.scale).astype(dtype)
