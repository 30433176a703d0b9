"""Distributional diffusion: schedule, forward marginal, denoiser, reverse chain.

States are arrays [N, T', 5] of normalized raw statistics.  The forward
marginal perturbs clean statistics with Gaussian noise scaled by a strictly
decreasing cumulative-alpha schedule; generation runs the learned reverse
transitions down an execution sub-sequence ``tau`` of the K Markovian
steps.  A chain given a noise generator adds the ddpm-matching per-jump
noise ``gamma``, the stochastic Markovian sampler; without one, gamma is 0
and the chain is deterministic.  The schedule (K, alpha and tau) and the
denoiser's sizes are read from the model's ``ModelConfig``.  Everything
runs on plain arrays; the denoiser is a forward and a backward
(``denoiser_apply``, ``denoiser_backward``), joined in training's loss.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
import warnings
from concurrent import futures
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import numerics as nm
from .numerics import NumericsError
from .distribution import STAT_CHANNELS

if TYPE_CHECKING:
    from .model import ModelConfig

GAMMA_MODES = ("deterministic", "ddpm-matching")
CHAIN_BLOCK_ROWS = 512     # rows per block of a reverse-chain denoiser step
# blocks of a chain step of more than CHAIN_BLOCK_ROWS rows, at least: enough
# for two workers to even out when the host slows one of them
CHAIN_MIN_BLOCKS = 4


@dataclass
class Schedule:
    """Diffusion constants: ``alpha`` has length K+1 with alpha[0] = 1
    (cumulative product of the per-step survival rates), ``tau`` holds the
    S execution steps ending at K."""

    K: int
    alpha: np.ndarray
    tau: np.ndarray

    def with_steps(self, steps: int) -> Schedule:
        """This schedule with S = ``steps`` execution steps: only ``tau``
        is recomputed."""
        return Schedule(self.K, self.alpha, _even_tau(self.K, steps))


def _even_tau(k_total: int, s: int) -> np.ndarray:
    if not 1 <= s <= k_total:
        raise NumericsError(f"need 1 <= S <= K, got S={s}, K={k_total}")
    return np.array(sorted({round(j * k_total / s) for j in range(1, s + 1)}),
                    dtype=np.int64)


def build_schedule(k_total: int, beta_start: float = 1e-4, beta_end: float = 0.05,
                   steps: int | None = None) -> Schedule:
    """Linear-beta schedule with an evenly spaced execution sub-sequence."""
    if not (0.0 < beta_start < beta_end < 1.0):
        raise NumericsError("need 0 < beta_start < beta_end < 1")
    betas = np.linspace(beta_start, beta_end, k_total)
    alpha = np.concatenate([[1.0], np.cumprod(1.0 - betas)])
    if np.any(np.diff(alpha) >= 0) or np.any(alpha <= 0):
        raise NumericsError("alpha must be strictly decreasing within (0, 1]")
    tau = _even_tau(k_total, k_total if steps is None else steps)
    if alpha[k_total] >= 0.05:
        # short test chains legitimately end above the target; warn only
        warnings.warn(f"alpha[K] = {alpha[k_total]:.4f}; the final state "
                      "is far from standard noise", RuntimeWarning, stacklevel=2)
    return Schedule(k_total, alpha, tau)


def forward_marginal(y0, k, epsilon, schedule: Schedule,
                     keep: dict | None = None) -> np.ndarray:
    """Closed-form noisy state sqrt(a_k) y0 + sqrt(1 - a_k) eps at step k,
    one step or one per row of ``y0``, in the default dtype and
    ``numerics.checked``.  ``keep``, when given, receives ``c0``, the
    sqrt(a_k) by which the state's gradient scales the noisy state's.
    """
    ks = np.asarray(k, dtype=np.int64)
    if np.any(ks < 0) or np.any(ks > schedule.K):
        raise NumericsError(f"step {k} outside schedule 0..{schedule.K}")
    dtype = nm.default_dtype()
    y0, epsilon = np.asarray(y0, dtype), np.asarray(epsilon, dtype)
    if y0.shape != epsilon.shape:
        raise NumericsError(f"noise shape {epsilon.shape} != state shape {y0.shape}")
    a = schedule.alpha[ks].reshape(ks.shape + (1,) * (y0.ndim - ks.ndim))
    c0, c1 = np.sqrt(a).astype(dtype), np.sqrt(1.0 - a).astype(dtype)
    if keep is not None:
        keep["c0"] = c0
    return nm.checked(c0 * y0 + c1 * epsilon, "noisy state")


# ---------------------------------------------------------------------------
# Denoiser


def denoiser_layout(cfg: ModelConfig) -> dict[str, tuple]:
    """The denoiser's parameters for ``numerics.init_params``."""
    width, state = cfg.denoiser_width, cfg.state_dim
    in_dim = state + cfg.step_dim + cfg.d_phi + cfg.d_psi
    layout = {
        "den.in.w": ((in_dim, width), in_dim),
        "den.in.b": ((width,), None),
        "den.out.w": ((width, state), width),
        "den.out.b": ((state,), None),
        # linear shortcut input -> output: the noise estimate is dominated
        # by a linear function of the state at high noise levels, which the
        # bounded tanh stack is slow to express on its own
        "den.skip.w": ((in_dim, state), None),
    }
    for i in range(cfg.denoiser_blocks):
        layout[f"den.blk{i}.w1"] = ((width, width), width)
        layout[f"den.blk{i}.b1"] = ((width,), None)
        layout[f"den.blk{i}.w2"] = ((width, width), width)
        layout[f"den.blk{i}.b2"] = ((width,), None)
    return layout


def step_embedding(ks, dim: int) -> np.ndarray:
    """Sinusoidal embedding of diffusion step indices; [len(ks), dim]."""
    ks = np.atleast_1d(np.asarray(ks, dtype=np.float64))
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / half)
    args = ks[:, None] * freqs[None, :]
    return np.concatenate([np.sin(args), np.cos(args)], axis=1)


def denoiser_apply(state, ks, guidance, params: dict[str, np.ndarray],
                   cfg: ModelConfig, schedule: Schedule, *,
                   chain: _ChainTerms | None = None,
                   keep: dict | None = None) -> np.ndarray:
    """Predict the noise component of ``state`` conditioned on step and guidance.

    ``state`` is [N, T', 5], ``ks`` one step index or one per pedestrian
    row, ``guidance`` [N, d_phi + d_psi].  Rows are independent: per
    pedestrian the state is flattened, concatenated with its step embedding
    and guidance vector, and pushed through a residual stack with a linear
    input-to-output shortcut.

    Internally the network estimates the clean state; the noise estimate is
    then read off the forward-marginal relation,

        eps_hat = (y_k - sqrt(a_k) clean_hat) / sqrt(1 - a_k),

    which keeps the network's output at unit scale instead of asking it to
    reproduce the badly conditioned per-step gain itself.

    Both modes run one body, ``_trunk``, from the input layer's
    pre-activation to the noise estimate, and ``numerics.checked`` their
    result.  ``keep``, when given, receives what ``denoiser_backward`` reads.

    ``chain`` carries what the calls of one ``reverse_chain`` share
    (``_ChainTerms``, built from the same guidance rows); ``ks`` is then
    one of its steps and the result is the chain's buffer, overwritten by
    the next call.
    """
    n = state.shape[0]
    if guidance.shape[0] != n:
        raise NumericsError(f"guidance rows {guidance.shape[0]} != state rows {n}")
    if state.shape[1:] != (cfg.t_future, STAT_CHANNELS):
        raise NumericsError(f"state shape {state.shape} does not match config")
    if not np.isscalar(ks):
        ks = np.asarray(ks)
    if np.any(ks < 1) or np.any(ks > schedule.K):
        raise NumericsError("denoiser steps must lie in 1..K")
    if chain is not None:
        eps = nm.checked(chain.apply(state, ks, schedule), "denoiser output")
        return eps.reshape(state.shape)
    dtype, sd = nm.default_dtype(), cfg.state_dim
    flat = np.asarray(state, dtype).reshape(n, sd)
    # the step embedding is computed once per distinct step
    steps, rows = np.unique(np.broadcast_to(ks, (n,)), return_inverse=True)
    emb = step_embedding(steps, cfg.step_dim).astype(dtype)[rows]
    x_in = np.concatenate([flat, emb, np.asarray(guidance, dtype)], axis=1)
    acts = np.empty((2 * cfg.denoiser_blocks + 1, n, cfg.denoiser_width), dtype)
    hs, rs = list(acts[::2]), list(acts[1::2])
    np.matmul(x_in, params["den.in.w"], out=hs[0])
    hs[0] += params["den.in.b"]
    gain, pull = _read_off(schedule, ks, dtype)
    eps = _trunk(_trunk_weights(params, cfg), hs[0], x_in @ params["den.skip.w"],
                 flat, gain, pull, hs, rs, np.empty((n, sd), dtype), np.empty((n, sd), dtype))
    if keep is not None:
        keep.update(x_in=x_in, hs=hs, rs=rs, gain=gain, pull=pull)
    return nm.checked(eps.reshape(state.shape), "denoiser output")


def _read_off(schedule: Schedule, ks, dtype) -> tuple:
    """(gain, pull) of the noise read-off eps_hat = gain y_k + pull clean_hat
    at step ``ks``: scalars, or [N, 1] columns for one step per row."""
    a = schedule.alpha[ks]
    a = a[:, None] if np.ndim(a) else a
    return ((1.0 / np.sqrt(1.0 - a)).astype(dtype),
            (-np.sqrt(a) / np.sqrt(1.0 - a)).astype(dtype))


def _trunk_weights(params: dict[str, np.ndarray], cfg: ModelConfig) -> tuple:
    """What ``_trunk`` reads of ``den.*``: each residual block's
    (w1, b1, w2, b2), the output weight and the output bias."""
    blocks = [tuple(params[f"den.blk{i}.{name}"] for name in ("w1", "b1", "w2", "b2"))
              for i in range(cfg.denoiser_blocks)]
    return blocks, params["den.out.w"], params["den.out.b"]


def _trunk(weights, pre, skip, flat, gain, pull, hs, rs, clean, eps) -> np.ndarray:
    """The denoiser from the input layer's pre-activation ``pre`` to the
    noise estimate, written into the caller's arrays:

        hs[0] = tanh(pre),  rs[i] = tanh(hs[i] w1 + b1),
        hs[i+1] = (rs[i] w2 + b2) + hs[i],
        clean = hs[-1] out.w + skip + out.b,
        eps = gain flat + pull clean,

    with ``skip`` the linear shortcut of the input row.  ``pre`` may be
    ``hs[0]``; ``hs[i+1]`` must not be ``hs[i]``.  Returns ``eps``.
    """
    blocks, w_out, b_out = weights
    np.tanh(pre, out=hs[0])
    for (w1, b1, w2, b2), h, r, h_next in zip(blocks, hs, rs, hs[1:]):
        np.matmul(h, w1, out=r)
        r += b1
        np.tanh(r, out=r)
        np.matmul(r, w2, out=h_next)
        h_next += b2
        h_next += h
    np.matmul(hs[-1], w_out, out=clean)
    clean += skip
    clean += b_out
    clean *= pull
    np.multiply(flat, gain, out=eps)
    eps += clean
    return eps


def denoiser_backward(g_out: np.ndarray, params: dict[str, np.ndarray], cfg: ModelConfig,
                      keep: dict, inputs: bool = True) -> tuple:
    """(grads, g_state, g_guidance): the ``den.*`` parameters' gradients
    given the output's gradient ``g_out`` [N, T', 5] and, with ``inputs``,
    the state's and the guidance's (else None).  Each value rounds as the
    primitive tape of the same body (kept in the tests as the reference):
    a residual state sums its skip gradient, then its block's; the input
    row its shortcut gradient, then its input layer's.
    """
    def w(name):
        return params[f"den.{name}"]

    sd, x_in, hs, rs = cfg.state_dim, keep["x_in"], keep["hs"], keep["rs"]
    gy = g_out.reshape(-1, sd)
    g_clean = gy * keep["pull"]
    grads = {"out.b": g_clean.sum(axis=0), "skip.w": x_in.T @ g_clean,
             "out.w": hs[-1].T @ g_clean}
    g_in = g_clean @ w("skip.w").T if inputs else None
    gh = g_clean @ w("out.w").T
    for i in reversed(range(cfg.denoiser_blocks)):
        grads[f"blk{i}.b2"] = gh.sum(axis=0)
        grads[f"blk{i}.w2"] = rs[i].T @ gh
        d = nm.tanh_grad(rs[i], gh @ w(f"blk{i}.w2").T)
        grads[f"blk{i}.b1"] = d.sum(axis=0)
        grads[f"blk{i}.w1"] = hs[i].T @ d
        gh = gh + d @ w(f"blk{i}.w1").T
    d = nm.tanh_grad(hs[0], gh)
    grads["in.b"] = d.sum(axis=0)
    grads["in.w"] = x_in.T @ d
    grads = {f"den.{k}": g for k, g in grads.items()}
    if not inputs:
        return grads, None, None
    g_in = g_in + d @ w("in.w").T
    return (grads, (gy * keep["gain"] + g_in[:, :sd]).reshape(g_out.shape),
            np.ascontiguousarray(g_in[:, sd + cfg.step_dim:]))


@functools.cache
def _blas_threads() -> int | None:
    """numpy's bundled OpenBLAS thread count, read once; None if unreadable."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            return fn()
    return None


def _chain_workers(rows: int) -> int:
    """How many threads run a chain step's ``rows``: one per usable CPU, at
    most one per ``CHAIN_BLOCK_ROWS``, when BLAS runs one thread; else one,
    since threads on top of a threading BLAS slowed the chain."""
    if rows <= CHAIN_BLOCK_ROWS or _blas_threads() != 1:
        return 1
    return min(len(os.sched_getaffinity(0)), -(-rows // CHAIN_BLOCK_ROWS))


def _even_cuts(start: int, stop: int, n: int) -> list[tuple[int, int]]:
    """``start:stop`` as max(n, 1) contiguous ranges of near-equal size."""
    n = max(n, 1)
    cuts = [start + (stop - start) * i // n for i in range(n + 1)]
    return list(zip(cuts, cuts[1:]))


@functools.cache
def _pool() -> futures.ThreadPoolExecutor:
    return futures.ThreadPoolExecutor(len(os.sched_getaffinity(0)) - 1, "chain")


class _ChainTerms:
    """What every denoiser call of one reverse chain shares, made once.

    The input layer and the linear shortcut read the same input row
    [state | step embedding | guidance], so ``[den.in.w | den.skip.w]``,
    split by input columns, gives three terms: the guidance projection
    ``g`` of every row, a table ``e`` with one row per step of ``tau`` (the
    step embedding's projection plus ``in.b``) and the state weight
    ``w_x``.  A step then takes one K = T'*5 GEMM for both layers, adds
    its ``g`` rows and ``e`` row, and runs ``_trunk``.  Rows go through in
    near-equal contiguous blocks of at most ``CHAIN_BLOCK_ROWS``, at least
    ``CHAIN_MIN_BLOCKS`` of them when there are more rows than one block
    holds, so no block has one row unless the chain has: numpy multiplies
    a one-row block by gemv, which rounds otherwise.  The blocks depend on
    the row count alone, since OpenBLAS picks its kernel by the product's
    size and some of the small models' products round otherwise at
    another block size.  The ``_chain_workers`` threads (the calling one,
    the rest from ``_pool``) take a step's blocks in turn from one queue,
    each into its own buffers allocated here, so one that the host slows
    leaves its later blocks to the others instead of holding up the step,
    and one that has not started when the blocks run out does not run.
    The result equals the per-call denoiser's up to the rounding of the
    re-associated input-layer sum.
    """

    def __init__(self, guidance_rows: np.ndarray, params: dict[str, np.ndarray],
                 cfg: ModelConfig, schedule: Schedule):
        dtype = nm.default_dtype()
        sd, width, emb_end = cfg.state_dim, cfg.denoiser_width, cfg.state_dim + cfg.step_dim
        w = np.concatenate([params["den.in.w"], params["den.skip.w"]], axis=1)
        self.w_x = w[:sd]
        self.g = np.asarray(guidance_rows, dtype=dtype) @ w[emb_end:]
        e = step_embedding(schedule.tau, cfg.step_dim).astype(dtype) @ w[sd:emb_end]
        e[:, :width] += params["den.in.b"]
        self.e = dict(zip(schedule.tau.tolist(), e))
        self.weights, self.width = _trunk_weights(params, cfg), width
        self.eps = np.empty((len(self.g), sd), dtype)
        blocks = -(-len(self.g) // CHAIN_BLOCK_ROWS)
        self.blocks = _even_cuts(0, len(self.g),
                                 max(blocks, CHAIN_MIN_BLOCKS) if blocks > 1 else blocks)
        rows, self.lock, self.bufs = max(b - a for a, b in self.blocks), threading.Lock(), []
        for _ in range(_chain_workers(len(self.g))):
            # two residual states in turn and one inner activation
            acts = np.empty((3, rows, width), dtype)
            self.bufs.append((np.empty((rows, sd), dtype), np.empty((rows, width + sd), dtype),
                              [acts[i % 2] for i in range(cfg.denoiser_blocks + 1)],
                              [acts[2]] * cfg.denoiser_blocks, np.empty((rows, sd), dtype)))

    def apply(self, state: np.ndarray, k: int, schedule: Schedule) -> np.ndarray:
        """The noise estimate [M, T'*5] of every row of ``state`` at step ``k``."""
        gain, pull = _read_off(schedule, k, self.eps.dtype)
        args = (iter(self.blocks), state.reshape(len(self.eps), -1), self.e[k], gain, pull)
        rest = [_pool().submit(self._run, buf, *args) for buf in self.bufs[1:]]
        try:
            self._run(self.bufs[0], *args)
        finally:
            # a worker that has not started would find no block left (or apply
            # raises), so it need not run; one that has may still write eps
            rest = [f for f in rest if not f.cancel()]
            futures.wait(rest)
        for f in rest:
            f.result()
        return self.eps

    def _run(self, buf, todo, flat, e, gain, pull) -> None:
        """Run the blocks left in ``todo`` one by one in ``buf``."""
        x_buf, z_buf, hs, rs, clean = buf
        while True:
            with self.lock:
                block = next(todo, None)
            if block is None:
                return
            start, stop = block
            b = stop - start
            x, z = x_buf[:b], z_buf[:b]
            x[...] = flat[start:stop]
            np.matmul(x, self.w_x, out=z)
            z += self.g[start:stop]
            z += e
            # tanh moves the input layer's strided columns into a contiguous
            # h: in-place ufuncs on z[:, :width] run up to 4x slower
            _trunk(self.weights, z[:, :self.width], z[:, self.width:], x, gain, pull,
                   [h[:b] for h in hs], [r[:b] for r in rs], clean[:b], self.eps[start:stop])


# ---------------------------------------------------------------------------
# Reverse transitions


def posterior_coefficients(a_from: float, a_to: float,
                           gamma: float) -> tuple[float, float]:
    """(c_y, c_c) with which the mean of the reverse transition given a
    clean-state reconstruction, sqrt(a_to) y0_hat + sqrt(1 - a_to - gamma^2)
    (y_k - sqrt(a_from) y0_hat) / sqrt(1 - a_from), is c_y y_k + c_c y0_hat.
    Equal alphas with gamma 0 give exactly (1, 0), and a_to = 1 gives (0, 1).
    """
    if gamma * gamma > 1.0 - a_to + 1e-9:
        raise NumericsError(f"gamma^2 = {gamma * gamma:.5f} exceeds 1 - alpha[k_to]")
    c_y = math.sqrt(max(1.0 - a_to - gamma * gamma, 0.0)) / math.sqrt(1.0 - a_from)
    return c_y, math.sqrt(a_to) - c_y * math.sqrt(a_from)


def transition(schedule: Schedule, k_from: int, k_to: int,
               stochastic: bool = False) -> tuple[float, float, float]:
    """(c_y, c_c, gamma) of the k_from -> k_to reverse transition: its
    mean's ``posterior_coefficients`` and its noise scale, the
    ddpm-matching value in a stochastic chain (0 for the final jump to
    alpha = 1), else 0."""
    if not 0 <= k_to < k_from <= schedule.K:
        raise NumericsError(f"invalid transition {k_from} -> {k_to}")
    a_from, a_to = float(schedule.alpha[k_from]), float(schedule.alpha[k_to])
    gamma = 0.0
    if stochastic:
        gamma = math.sqrt((1.0 - a_to) / (1.0 - a_from) * (1.0 - a_from / a_to))
    return (*posterior_coefficients(a_from, a_to, gamma), gamma)


def reverse_chain(y_init: np.ndarray, guidance_rows, schedule: Schedule,
                  params: dict[str, np.ndarray], cfg: ModelConfig,
                  chain_rng: np.random.Generator | None = None) -> np.ndarray:
    """Run the reverse chain down ``tau`` from ``y_init`` [M, T', 5], in S
    denoiser calls over all M rows; guidance row i conditions state row i.
    Each k_from -> k_to step is one affine update of the float64 state,
    y <- A y + B eps_hat (+ gamma z): the ``transition`` mean c_y y + c_c y0
    with the clean-state reconstruction y0 = (y - sqrt(1 - a) eps_hat) /
    sqrt(a), a = alpha[k_from], folded in.  The denoiser terms that no step
    changes (``_ChainTerms``) are made once per call.  The chain is
    stochastic exactly when it is given ``chain_rng``: each step then draws
    its ddpm-matching noise z for all rows from it."""
    tau = schedule.tau.tolist()
    y = np.array(y_init, dtype=np.float64)
    terms = _ChainTerms(guidance_rows, params, cfg, schedule)
    step = np.empty_like(y)
    for k_from, k_to in zip(tau[::-1], [*tau[:-1][::-1], 0]):
        try:
            c_y, c_c, gamma = transition(schedule, k_from, k_to, chain_rng is not None)
            eps_hat = denoiser_apply(y, k_from, guidance_rows, params, cfg, schedule,
                                     chain=terms)
        except NumericsError as exc:
            raise NumericsError(f"reverse chain failed at step {k_from}: {exc}") from exc
        a = float(schedule.alpha[k_from])
        y *= c_y + c_c / math.sqrt(a)
        # a float64 scalar: a Python float times float32 eps_hat stays float32
        y += np.multiply(np.float64(-c_c * math.sqrt(1.0 - a) / math.sqrt(a)), eps_hat,
                         out=step)
        if gamma > 0.0:
            y += gamma * chain_rng.standard_normal(y.shape)
        if not np.all(np.isfinite(y)):
            raise NumericsError(f"non-finite state after step {k_from}")
    return y
