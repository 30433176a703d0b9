"""Distributional diffusion: schedule, forward marginal, denoiser, reverse chain.

States are arrays [N, T', 5] of normalized raw statistics.  The forward
marginal perturbs clean statistics with Gaussian noise scaled by a strictly
decreasing cumulative-alpha schedule; generation runs the learned reverse
transitions down an execution sub-sequence ``tau`` of the K Markovian
steps.  A chain given a noise generator adds the ddpm-matching per-jump
noise ``gamma``, the stochastic Markovian sampler, drawn by each block of
rows from its own child of that generator; without one, gamma is 0 and
the chain is deterministic.  The schedule (K, alpha and tau) and the
denoiser's sizes are read from the model's ``ModelConfig``.  Everything
runs on plain arrays; the denoiser is a forward and a backward
(``denoiser_apply``, ``denoiser_backward``), joined in training's loss.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
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
    from collections.abc import Callable

    from .model import ModelConfig

GAMMA_MODES = ("deterministic", "ddpm-matching")
CHAIN_BLOCK_ROWS = 512     # rows per block of a reverse-chain denoiser step
# blocks of a chain step of more than CHAIN_BLOCK_ROWS rows, at least: enough
# for two threads to even out when the host slows one of them
CHAIN_MIN_BLOCKS = 4
M_TOP_PAD, M_ARENA_MAX = -2, -8    # mallopt's parameters in glibc's <malloc.h>


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
    """Linear-beta schedule with an evenly spaced execution sub-sequence;
    ``NumericsError`` unless 0 < beta_start < beta_end < 1 and alpha falls
    strictly within (0, 1] (a beta that 1 - beta rounds away, or a product
    that underflows, does not)."""
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
    one step or one per row of ``y0``, in ``y0``'s dtype and
    ``numerics.checked``.  ``keep``, when given, receives ``c0``, the
    sqrt(a_k) by which the state's gradient scales the noisy state's.
    """
    ks = np.asarray(k, dtype=np.int64)
    if np.any(ks < 0) or np.any(ks > schedule.K):
        raise NumericsError(f"step {k} outside schedule 0..{schedule.K}")
    y0 = np.asarray(y0)
    dtype = y0.dtype
    epsilon = np.asarray(epsilon, dtype)
    if y0.shape != epsilon.shape:
        raise NumericsError(f"noise shape {epsilon.shape} != state shape {y0.shape}")
    a = schedule.alpha[ks].reshape(ks.shape + (1,) * (y0.ndim - ks.ndim))
    c0, c1 = np.sqrt(a).astype(dtype), np.sqrt(1.0 - a).astype(dtype)
    if keep is not None:
        keep["c0"] = c0
    return nm.checked(c0 * y0 + c1 * epsilon, dtype, "noisy state")


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
                   chain: Callable[[np.ndarray, int], np.ndarray] | None = None,
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
    pre-activation to the noise estimate, in the parameters' dtype, and
    ``numerics.checked`` their result.  ``keep``, when given, receives
    what ``denoiser_backward`` reads.

    ``chain``, given by ``reverse_chain``, computes the estimate of one
    block of the chain's rows from what all its calls share
    (``_ChainTerms``): ``state`` and ``guidance`` are then the block's
    rows, ``ks`` one of the chain's steps, and the result is the block's
    buffer, overwritten by its next call.
    """
    n = state.shape[0]
    if guidance.shape[0] != n:
        raise NumericsError(f"guidance rows {guidance.shape[0]} != state rows {n}")
    if state.shape[1:] != (cfg.t_future, STAT_CHANNELS):
        raise NumericsError(f"state shape {state.shape} does not match config")
    # a bool is no step, though it compares as 0 or 1; the range tests are
    # the array tests' negations, so NaN is refused by neither
    if np.isscalar(ks):
        bad = isinstance(ks, (bool, np.bool_)) or ks < 1 or ks > schedule.K
    else:
        ks = np.asarray(ks)
        bad = ks.dtype == bool or np.any(ks < 1) or np.any(ks > schedule.K)
    if bad:
        raise NumericsError("denoiser steps must lie in 1..K")
    dtype, sd = params["den.in.w"].dtype, cfg.state_dim
    if chain is not None:
        return nm.checked(chain(state, ks), dtype, "denoiser output").reshape(state.shape)
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
    return nm.checked(eps.reshape(state.shape), dtype, "denoiser output")


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


def _cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS
    keeps one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _even_cuts(start: int, stop: int, n: int) -> list[tuple[int, int]]:
    """``start:stop`` as max(n, 1) contiguous ranges of near-equal size."""
    n = max(n, 1)
    cuts = [start + (stop - start) * i // n for i in range(n + 1)]
    return list(zip(cuts, cuts[1:]))


def mallopt(param: int, value: int) -> bool:
    """glibc's ``mallopt(param, value)``; returns whether it took the
    setting.  On other C libraries it calls nothing and returns False."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return False
        fn = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError, ValueError):
        return False
    fn.argtypes, fn.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return fn(param, value) == 1


@functools.cache
def _pool() -> futures.ThreadPoolExecutor:
    """The chain's threads, one per usable CPU.  glibc is first held to one
    malloc arena, so the block buffers that pool threads free go back to
    the heap every thread shares (and ``training.HEAP_TOP_PAD`` keeps),
    not to an arena per thread that keeps them for that thread alone."""
    mallopt(M_ARENA_MAX, 1)
    return futures.ThreadPoolExecutor(_cpus(), "chain")


class _ChainTerms:
    """What every step of one reverse chain shares, made once, and the
    blocks of rows that carry the chain through its steps.

    The input layer and the linear shortcut read the same input row
    [state | step embedding | guidance], so ``[den.in.w | den.skip.w]``,
    split by input columns, gives three terms: the guidance projection
    ``g`` of every row, one row ``e`` per step of ``tau`` (the step
    embedding's projection plus ``in.b``) and the state weight ``w_x``.
    A denoiser call then takes one K = T'*5 GEMM for both layers, adds its
    ``g`` rows and ``e`` row, and runs ``_trunk``.  ``steps`` holds the
    chain's steps in order, each as (k_from, A, B, gamma) of its affine
    update.

    Rows go through in near-equal contiguous blocks of at most
    ``CHAIN_BLOCK_ROWS``, at least ``CHAIN_MIN_BLOCKS`` of them when there
    are more rows than one block holds, so no block has one row unless the
    chain has: numpy multiplies a one-row block by gemv, which rounds
    otherwise.  The blocks depend on the row count alone, since OpenBLAS
    picks its kernel by the product's size and some of the small models'
    products round otherwise at another block size.  ``run`` carries each
    block, in buffers of its own, through every step of the chain: per
    step one ``denoiser_apply`` call on the block's rows, the float64
    affine update (with, if gamma is not 0, noise from the block's own
    generator) and the state's finiteness check.  Each block is one
    ``_pool`` task, so no block waits for another between steps, and a
    thread that the host slows leaves the later blocks to the others.  The
    result equals the per-call denoiser's up to the rounding of the
    re-associated input-layer sum.
    """

    def __init__(self, guidance_rows: np.ndarray, params: dict[str, np.ndarray],
                 cfg: ModelConfig, schedule: Schedule, stochastic: bool = False):
        dtype = params["den.in.w"].dtype
        sd, width, emb_end = cfg.state_dim, cfg.denoiser_width, cfg.state_dim + cfg.step_dim
        self.guidance, self.params, self.cfg, self.schedule = (guidance_rows, params, cfg,
                                                               schedule)
        w = np.concatenate([params["den.in.w"], params["den.skip.w"]], axis=1)
        self.w_x = w[:sd]
        self.g = np.asarray(guidance_rows, dtype=dtype) @ w[emb_end:]
        e = step_embedding(schedule.tau, cfg.step_dim).astype(dtype) @ w[sd:emb_end]
        e[:, :width] += params["den.in.b"]
        tau = schedule.tau.tolist()
        self.read_off = {k: (row, *_read_off(schedule, k, dtype)) for k, row in zip(tau, e)}
        self.steps = []
        for k_from, k_to in zip(tau[::-1], [*tau[:-1][::-1], 0]):
            try:
                c_y, c_c, gamma = transition(schedule, k_from, k_to, stochastic)
            except NumericsError as exc:
                raise NumericsError(f"reverse chain failed at step {k_from}: {exc}") from exc
            a = float(schedule.alpha[k_from])
            # B is a float64 scalar: a Python float times float32 eps_hat stays float32
            self.steps.append((k_from, c_y + c_c / math.sqrt(a),
                               np.float64(-c_c * math.sqrt(1.0 - a) / math.sqrt(a)), gamma))
        blocks = -(-len(self.g) // CHAIN_BLOCK_ROWS)
        self.blocks = _even_cuts(0, len(self.g),
                                 max(blocks, CHAIN_MIN_BLOCKS) if blocks > 1 else blocks)
        self.width, self.weights = width, _trunk_weights(params, cfg)

    def run(self, y: np.ndarray, rngs: list[np.random.Generator] | None = None) -> None:
        """Carry every row of the float64 state ``y`` [M, T', 5] through
        every step of ``self.steps``, in place; ``rngs``, one generator
        per block of ``self.blocks``, draws the block's noise at each
        step whose gamma is not 0.  The blocks run in order on the calling
        thread when the chain has one, when BLAS threads or its thread
        count cannot be read (threads on top of a threading BLAS slowed
        the chain), or on one usable CPU; else each is one pool task.  Raises once every block has
        stopped; a ``NumericsError`` names the earliest failing step in
        chain order, and at one step a non-finite denoiser output before a
        non-finite state, as a step-by-step chain over all rows would."""
        todo = list(zip(self.blocks, rngs or [None] * len(self.blocks)))
        if len(todo) == 1 or _blas_threads() != 1 or _cpus() == 1:
            failures = [self._run(block, rng, y) for block, rng in todo]
        else:
            tasks = [_pool().submit(self._run, block, rng, y) for block, rng in todo]
            # no chain runs on a pool thread, so this wait cannot deadlock
            futures.wait(tasks)
            failures = [task.result() for task in tasks]
        failures = [failure for failure in failures if failure is not None]
        if failures:
            _, _, message, cause = min(failures, key=lambda f: f[:2])
            raise NumericsError(message) from cause

    def _run(self, block, rng, y) -> tuple | None:
        """Carry the rows ``block`` (start, stop) of ``y`` through every
        step, drawing their noise from ``rng``; returns what stopped them,
        (step index, 0 for the denoiser or 1 for the state, message,
        cause), or None."""
        start, stop = block
        rows, guidance = y[start:stop], self.guidance[start:stop]
        b, sd, dtype = stop - start, self.cfg.state_dim, self.w_x.dtype
        # two residual states in turn and one inner activation
        acts = np.empty((3, b, self.width), dtype)
        chain = functools.partial(
            self._denoise, start, np.empty((b, sd), dtype), np.empty((b, self.width + sd), dtype),
            [acts[i % 2] for i in range(self.cfg.denoiser_blocks + 1)],
            [acts[2]] * self.cfg.denoiser_blocks, np.empty((b, sd), dtype),
            np.empty((b, sd), dtype))
        step = np.empty(rows.shape)
        for j, (k, a_mul, b_mul, gamma) in enumerate(self.steps):
            try:
                eps_hat = denoiser_apply(rows, k, guidance, self.params, self.cfg,
                                         self.schedule, chain=chain)
            except NumericsError as exc:
                return j, 0, f"reverse chain failed at step {k}: {exc}", exc
            rows *= a_mul
            rows += np.multiply(b_mul, eps_hat, out=step)
            if gamma > 0.0:
                rows += np.multiply(gamma, rng.standard_normal(out=step), out=step)
            if not np.all(np.isfinite(rows)):
                return j, 1, f"non-finite state after step {k}", None
        return None

    def _denoise(self, start, x, z, hs, rs, clean, eps, state, k) -> np.ndarray:
        """The noise estimate [b, T'*5] of the block of rows from ``start``
        with state ``state`` at step ``k``, written into the block's
        buffers."""
        e, gain, pull = self.read_off[k]
        x[...] = state.reshape(len(x), -1)
        np.matmul(x, self.w_x, out=z)
        z += self.g[start:start + len(z)]
        z += e
        # tanh moves the input layer's strided columns into a contiguous
        # h: in-place ufuncs on z[:, :width] run up to 4x slower
        return _trunk(self.weights, z[:, :self.width], z[:, self.width:], x, gain, pull,
                      hs, rs, clean, eps)


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
    """Run the reverse chain down ``tau`` from ``y_init`` [M, T', 5];
    guidance row i conditions state row i.  Each k_from -> k_to step is
    one affine update of the float64 state, y <- A y + B eps_hat
    (+ gamma z): the ``transition`` mean c_y y + c_c y0 with the
    clean-state reconstruction y0 = (y - sqrt(1 - a) eps_hat) / sqrt(a),
    a = alpha[k_from], folded in.  What no step changes (``_ChainTerms``)
    is made once per call, and the rows go through in blocks, each block
    through every step with one denoiser call per step on its rows, in
    one ``_ChainTerms.run``; rows are independent, so neither the order
    nor the thread changes a value.  The chain is stochastic exactly when
    it is given ``chain_rng``: block b of ``_ChainTerms.blocks`` then draws
    its ddpm-matching noise z from child b of ``chain_rng.spawn``, so the
    noise depends on the row count, and not on the threads."""
    y = np.array(y_init, dtype=np.float64)
    terms = _ChainTerms(guidance_rows, params, cfg, schedule, chain_rng is not None)
    terms.run(y, None if chain_rng is None else chain_rng.spawn(len(terms.blocks)))
    return y
