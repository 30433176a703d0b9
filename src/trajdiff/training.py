"""Joint optimization of the encoders, converter and denoiser.

The objective is a weighted sum of three terms:

* noise-matching: squared error between the denoiser's prediction and the
  noise actually mixed into the normalized statistics (one uniformly drawn
  execution step per window),
* likelihood: negative log density of the ground-truth future
  displacements under the converter's per-timestep Gaussians,
* consistency: squared error between the first predicted mean and the
  first ground-truth future displacement.

Training is deterministic for a fixed seed: every stochastic choice is
drawn from a generator derived from (seed, purpose, step), so a run can be
resumed from a checkpoint bit-exactly.

A joint pass (``batch_losses``) runs the encoders, the converter with its
losses (``converter_losses``) and the diffusion loss (``loss_diffusion``)
on plain arrays, a boost pass the diffusion loss alone.  Each pass is its
loss with a backward that runs the modules' hand-written backwards in
reverse order, rounding as the primitive tapes of the same formulas (kept
in the tests as references); ``adam_update`` applies the gradients to the
model's flat parameter buffer in place.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import diffusion, distribution, guidance
from . import numerics as nm
from .checkpoint import ContainerError, check_layout
from .distribution import NormStats
from .model import Model, ModelConfig
from .numerics import NumericsError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
GRAD_CLIP = 5.0         # global gradient-norm cap of every update
NORM_CHUNK = 64         # windows per converter call in freeze_normalization
HEAP_TOP_PAD = 64 << 20  # freed heap that glibc's malloc keeps once fit has run


class ResumeError(ValueError):
    """A resume that cannot continue the run: its checkpoint's model settings
    differ from the run's, it is at or past the run's last step, it has no log
    rows, or its run record or the log's ``# run:`` one is missing or differs."""


@dataclass
class TrainConfig:
    lambda_diffusion: float = nm.setting(1.0, 0.0, nm.FLOAT32_MAX)
    lambda_likelihood: float = nm.setting(1.0, 0.0, nm.FLOAT32_MAX)
    lambda_consistency: float = nm.setting(1.0, 0.0, nm.FLOAT32_MAX)
    # from float32's smallest positive value: a smaller rate is 0 in the
    # optimizer's float32 arithmetic and would train nothing
    learning_rate: float = nm.setting(1e-3, float(np.finfo(np.float32).smallest_subnormal),
                                      nm.FLOAT32_MAX)
    batch_size: int = nm.setting(8, 1)
    epochs: int = nm.setting(10, 1)
    seed: int = nm.setting(0, 0, math.inf)
    checkpoint_every: int = nm.setting(500, 1)
    # Extra denoiser-only updates per joint step, reusing the joint pass's
    # guidance and statistics with fresh step/noise draws.  The denoiser is
    # by far the slowest learner of the four modules and these updates cost
    # a few matmuls each, no encoder work.
    denoiser_boost: int = nm.setting(3, 0)

    def __post_init__(self):
        nm.check_settings(self, "train")
        if not (self.lambda_diffusion or self.lambda_likelihood or self.lambda_consistency):
            raise ValueError("train loss weights must not all be zero")


# ---------------------------------------------------------------------------
# Loss components


def loss_diffusion(y0_norm: np.ndarray, guidance_emb: np.ndarray, ks: np.ndarray,
                   eps: np.ndarray, schedule, params, model_cfg: ModelConfig):
    """Per-element mean squared error between predicted and drawn noise:
    (value, backward), in the parameters' dtype.  ``y0_norm`` or
    ``guidance_emb`` in another dtype raises ``NumericsError``.

    ``ks`` holds one schedule step per pedestrian row (rows from the same
    window share their step); ``eps`` is the standard normal draw, mixed
    in by ``forward_marginal``.  The denoiser is looked up in ``diffusion``
    at call time, so a stand-in patched over ``diffusion.denoiser_apply``
    is the one called.  ``backward(g, inputs=True)`` maps the value's
    gradient to (``den.*`` gradients, y0_norm's, guidance_emb's), the last
    two None without ``inputs``.
    """
    dtype = params["den.in.w"].dtype
    if {y0_norm.dtype, guidance_emb.dtype} != {dtype}:
        raise NumericsError(f"diffusion loss inputs {y0_norm.dtype}/{guidance_emb.dtype}, "
                            f"parameters {dtype}")
    eps = np.asarray(eps, dtype=dtype)
    marginal, den = {}, {}
    noisy = diffusion.forward_marginal(y0_norm, ks, eps, schedule, marginal)
    pred = diffusion.denoiser_apply(noisy, ks, guidance_emb, params, model_cfg, schedule,
                                    keep=den)
    diff = pred + eps * eps.dtype.type(-1.0)
    sq = diff * diff

    def backward(g, inputs=True):
        # the mean's share of g, through the square: g/n diff + g/n diff
        part = np.broadcast_to(g, sq.shape) / sq.size * diff
        grads, g_noisy, g_guidance = diffusion.denoiser_backward(part + part, params,
                                                                 model_cfg, den, inputs)
        return grads, g_noisy if g_noisy is None else g_noisy * marginal["c0"], g_guidance

    return sq.mean(), backward


def loss_likelihood(y: np.ndarray, raw: np.ndarray, n_windows: int = 1):
    """Negative Gaussian log likelihood of the true future displacements
    ``y`` [N, T', 2] under the raw statistics ``raw`` [N, T', 5], summed
    over pedestrians and timesteps and averaged over ``n_windows`` batch
    windows: (value, backward), where backward maps the value's gradient
    to the gradients of raw's (means, sigmas, rho) channels."""
    terms, density_backward = distribution.log_pdf(y, raw)
    scale = raw.dtype.type(-1.0 / n_windows)

    def backward(g):
        return density_backward(np.broadcast_to(g * scale, terms.shape))

    return terms.sum() * scale, backward


def loss_consistency(y: np.ndarray, raw: np.ndarray):
    """Squared error between the first predicted mean and the first true
    displacement, averaged over pedestrians: (value, backward), where
    backward maps the value's gradient to the gradient of raw[:, :1, :2]."""
    minus = raw.dtype.type(-1.0)
    d = y[:, 0:1] + raw[:, 0:1, 0:2] * minus
    per_ped = (d * d).sum(axis=2)

    def backward(g):
        g_sq = np.broadcast_to((np.broadcast_to(g, per_ped.shape) / per_ped.size)[..., None],
                               d.shape)
        return (g_sq * d + g_sq * d) * minus

    return per_ped.mean(), backward


def converter_losses(future, params: dict[str, np.ndarray], norm: NormStats,
                     n_windows: int):
    """The converter, both losses it is trained by and the diffusion's
    input on the true futures [N, T', 2]: ((likelihood, consistency, y0n),
    backward), with y0n [N, T', 5] the raw statistics normalized by
    ``norm`` and ``numerics.checked``.

    Likelihood is the negative log density of each true displacement
    under the converter's Gaussian at its timestep, summed over pedestrians
    and timesteps and averaged over the ``n_windows`` batch windows;
    consistency is the squared error between the first predicted mean and
    the first true displacement, averaged over pedestrians.  The converter
    is looked up in ``distribution`` at call time.  ``backward(g_llh,
    g_con, g_y0n)`` sums raw's gradient from the normalization, consistency
    and likelihood in that order, then runs ``converter_backward``.
    """
    dtype = params["conv.w1"].dtype
    y = np.asarray(future, dtype=dtype)
    keep = {}
    raw = distribution.convert_trajectory(y, params, keep)
    llh, llh_backward = loss_likelihood(y, raw, n_windows)
    con, con_backward = loss_consistency(y, raw)
    y0n = nm.checked(distribution.normalize_stats(raw, norm), dtype, "normalized statistics")
    inv_scale = (1.0 / norm.scale).astype(dtype)

    def backward(g_llh, g_con, g_y0n):
        g_raw = g_y0n * inv_scale
        g_raw[:, 0:1, 0:2] += con_backward(g_con)
        for channels, part in zip((slice(0, 2), slice(2, 4), slice(4, 5)),
                                  llh_backward(g_llh)):
            g_raw[..., channels] += part
        return distribution.converter_backward(g_raw, params, keep)

    return (llh, con, y0n), backward


def draw_step_noise(window_sizes, schedule, rng, t_future: int, channels: int = 5):
    """One uniform tau step per window plus the matching noise tensor; one
    draw of every step gives the values and generator state of one per window."""
    picks = rng.integers(0, len(schedule.tau), size=len(window_sizes))
    ks = np.repeat(schedule.tau[picks], window_sizes)
    eps = rng.standard_normal((int(sum(window_sizes)), t_future, channels))
    return ks, eps


# ---------------------------------------------------------------------------
# Optimizer


class AdamState:
    """First-order adaptive-moment optimizer state, checkpointable.

    The step count ``t`` and the moments ``m`` and ``v``, flat buffers laid
    out as the model's parameter buffer (sorted name order), so an optimizer
    group whose names share a prefix (``den.`` for the denoiser refreshes) is
    one contiguous slice and an update is a few vector operations on it.  A
    checkpoint stores them whole (``arrays``), its ``param.*`` their layout.
    """

    def __init__(self, model: Model):
        self.m = np.zeros_like(model.flat)
        self.v = np.zeros_like(model.flat)
        # scratch for one update: the clipped gradient, and the squared
        # gradient in float64 for the norm, whose halves then hold the two
        # temporaries (``adam_update`` sums the norm before it writes them)
        self._g = np.empty_like(model.flat)
        self._sq = np.empty(model.flat.nbytes // 4, dtype=np.float64)
        self._a, self._b = self._sq.view(model.flat.dtype).reshape(2, -1)
        self.t = 0

    def arrays(self) -> dict[str, np.ndarray]:
        return {"adam.t": np.array([self.t], dtype=np.int64), "adam.m": self.m,
                "adam.v": self.v}

    @classmethod
    def from_arrays(cls, model: Model, arrays):
        state = cls(model)
        state.t = int(arrays["adam.t"][0])
        state.m[...], state.v[...] = arrays["adam.m"], arrays["adam.v"]
        return state


def adam_update(model: Model, grads: dict[str, np.ndarray], state: AdamState,
                lr: float) -> None:
    """One Adam step on the group of parameters that ``grads`` names, with
    their norm clipped to ``GRAD_CLIP``, written into ``model.flat`` in
    place.  A non-finite gradient norm raises before the state changes;
    the parameters and ``state.t`` change only once the new parameters
    are finite."""
    keys = sorted(grads)
    sl = slice(model.spans[keys[0]].start, model.spans[keys[-1]].stop)
    if sum(grads[k].size for k in keys) != sl.stop - sl.start:
        raise NumericsError("optimizer group is not one contiguous slice")
    g, a, b = state._g[sl], state._a[sl], state._b[sl]
    np.concatenate([grads[k].reshape(-1) for k in keys], out=g)
    sq = state._sq[sl]
    np.copyto(sq, g)
    sq *= sq                              # exact squares of float32 values
    gnorm = math.sqrt(float(sq.sum()))
    if not math.isfinite(gnorm):
        raise NumericsError("non-finite gradient")
    if gnorm > GRAD_CLIP:
        g *= GRAD_CLIP / gnorm
    t = state.t + 1
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    # step = lr * (m / bc1) / (sqrt(v / bc2) + eps), each operation rounded
    # as the expression would round it, without allocating
    m, v = state.m[sl], state.v[sl]
    m *= ADAM_BETA1
    m += np.multiply(g, 1.0 - ADAM_BETA1, out=a)
    v *= ADAM_BETA2
    np.multiply(g, g, out=a)
    a *= 1.0 - ADAM_BETA2
    v += a
    np.divide(m, bc1, out=a)
    a *= lr
    np.divide(v, bc2, out=b)
    np.sqrt(b, out=b)
    b += ADAM_EPS
    a /= b
    new = np.subtract(model.flat[sl], a, out=a)
    if not np.isfinite(new).all():
        raise NumericsError("optimizer step produced a non-finite parameter")
    model.flat[sl] = new
    state.t = t


# ---------------------------------------------------------------------------
# Steps and epochs


def batch_losses(batch, model: Model, rng: np.random.Generator,
                 weights=(1.0, 1.0, 1.0)):
    """Forward pass over a batch of windows; returns (pass, parts, cache).

    The encoders, the converter with its losses and the diffusion loss run
    on plain arrays.  The pass (``numerics._make``) is their weighted sum
    with a backward over every parameter, which runs the diffusion loss's,
    the converter's and the encoders' backwards in that order."""
    params, cfg, enc = model.params, model.config, {}
    emb = guidance.encode_windows(batch, params, cfg, enc)
    fut = np.concatenate([w.future for w in batch], axis=0)
    (l_llh, l_con, y0n), converter_backward = converter_losses(fut, params, model.norm,
                                                               len(batch))
    ks, eps = draw_step_noise([w.n_peds for w in batch], model.schedule, rng, cfg.t_future)
    l_diff, diffusion_backward = loss_diffusion(y0n, emb, ks, eps, model.schedule, params,
                                                cfg)
    lam = np.array(weights, dtype=model.flat.dtype)

    def backward(g):
        # it runs once, so each loss's backward, and the activations it
        # keeps, goes as soon as its gradients are taken
        nonlocal diffusion_backward, converter_backward
        grads, g_y0n, g_emb = diffusion_backward(g * lam[0])
        diffusion_backward = None
        grads.update(converter_backward(g * lam[1], g * lam[2], g_y0n))
        converter_backward = None
        return {**grads, **guidance.encoder_backward(g_emb, params, cfg, enc)}

    # (diffusion w1 + likelihood w2) + consistency w3
    total = nm._make((l_diff * lam[0] + l_llh * lam[1]) + l_con * lam[2], backward)
    parts = {"diffusion": float(l_diff), "likelihood": float(l_llh),
             "consistency": float(l_con)}
    cache = {"guidance": emb, "y0n": y0n, "sizes": [w.n_peds for w in batch]}
    return total, parts, cache


def _boost_denoiser(cache, model: Model, cfg: TrainConfig, opt: AdamState,
                    rng: np.random.Generator) -> None:
    """Denoiser-only refresh updates on the cached batch features.

    The denoiser has the weakest per-step learning signal of the four
    modules (the conditional part of the noise target is heavily
    down-weighted at noisy steps), so it gets extra draws on features the
    joint pass already computed.
    """
    den = {k: p for k, p in model.params.items() if k.startswith("den.")}
    for _ in range(cfg.denoiser_boost):
        ks, eps = draw_step_noise(cache["sizes"], model.schedule, rng, model.config.t_future)
        value, backward = loss_diffusion(cache["y0n"], cache["guidance"], ks, eps,
                                         model.schedule, den, model.config)
        loss = nm._make(value, lambda g: backward(g, inputs=False)[0])
        adam_update(model, nm.backward(loss), opt, cfg.learning_rate)


def train_step(batch, model: Model, cfg: TrainConfig, opt: AdamState,
               rng: np.random.Generator) -> dict:
    """One joint optimization step plus the denoiser refreshes; updates
    the model's parameters and the Adam state in place."""
    weights = (cfg.lambda_diffusion, cfg.lambda_likelihood, cfg.lambda_consistency)
    try:
        total, parts, cache = batch_losses(batch, model, rng, weights)
        adam_update(model, nm.backward(total), opt, cfg.learning_rate)
        if cfg.denoiser_boost > 0 and cfg.lambda_diffusion > 0:
            _boost_denoiser(cache, model, cfg, opt, rng)
    except NumericsError as exc:
        raise NumericsError(f"training aborted at optimizer step {opt.t + 1}: {exc}") from exc
    parts["total"] = float(total[0])
    return parts


def freeze_normalization(model: Model, windows) -> NormStats:
    """Channel statistics of the converter's raw output over the training
    set with the current parameters.  ``fit`` recomputes these every step
    while the converter is still moving, then keeps the last value."""
    raws = []
    for i in range(0, len(windows), NORM_CHUNK):
        fut = np.concatenate([w.future for w in windows[i:i + NORM_CHUNK]], axis=0)
        raws.append(distribution.convert_trajectory(fut, model.params))
    return NormStats.from_raw(np.concatenate(raws, axis=0))


LOG_COLUMNS = ("step", "total", "diffusion", "likelihood", "consistency", "wall_ms")
LOG_ROW = "{},{:.6f},{:.6f},{:.6f},{:.6f},"   # a row but its wall_ms
RUN_LINE = "# run:"


def _run_record(windows, cfg: TrainConfig, total_steps: int, freeze_at: int) -> dict:
    """What a run's log header and mid-run checkpoints record of it, and a
    resume must match: every training setting but ``checkpoint_every``, the
    step counts, and a SHA-256 of the training windows' arrays in order."""
    digest = hashlib.sha256()
    for w in windows:
        for a in (w.observed, w.future, w.origin, w.neighbor_mask):
            a = np.ascontiguousarray(a)
            digest.update(f"{a.dtype.str}{a.shape}".encode())
            digest.update(a.data)
    record = {f.name: getattr(cfg, f.name) for f in fields(TrainConfig)
              if f.name != "checkpoint_every"}
    return {**record, "total_steps": total_steps, "freeze_at": freeze_at,
            "data_sha256": digest.hexdigest()}


def _check_same(source, kind: str, found: dict, want: dict) -> None:
    """Raise ``ResumeError`` naming the first field of ``want`` that ``found`` differs in."""
    for name, value in want.items():
        if found.get(name) != value:
            raise ResumeError(f"{source} has {kind} {name} = {found.get(name)!r}, "
                              f"this run's is {value!r}")


def _logged_run(log_path) -> dict:
    """The run record on a log's first line; ``ResumeError`` if it has none."""
    try:
        with open(log_path, encoding="utf-8") as f:
            line = f.readline()
        logged = json.loads(line[len(RUN_LINE):]) if line.startswith(RUN_LINE) else None
    except ValueError:              # not UTF-8, or not JSON
        logged = None
    if not isinstance(logged, dict):
        raise ResumeError(f"{log_path} has no '{RUN_LINE}' line: it is no run's log")
    return logged


def _resume(path, record: dict, model_cfg: ModelConfig,
            log_path) -> tuple[Model, AdamState, list]:
    """The model, optimizer state and log rows (but ``wall_ms``) a
    checkpoint continues from.  A ``train_step`` that is not a step count,
    a ``log`` that is not the rows of steps 1 to it, or ``adam.*`` arrays
    but an int64 ``adam.t`` and float ``adam.m`` and ``adam.v`` of the flat
    parameter shape, raise ``ContainerError``; a config that differs from
    ``model_cfg``, a checkpoint at or past the run's
    ``total_steps``, no run record or log, or a record that differs from
    ``record``, on the checkpoint (a finished run's holds none) or on
    ``log_path``, raises ``ResumeError``."""
    mdl, meta, rest = Model.load(path)
    _check_same(path, "model", asdict(mdl.config), asdict(model_cfg))
    step = meta.get("train_step")
    if type(step) is not int or step < 0:
        raise ContainerError(f"{path}: train_step {step!r} is not a step count")
    if step >= record["total_steps"]:
        raise ResumeError(f"{path} is at step {step} and the run has "
                          f"{record['total_steps']} steps: nothing to resume")
    saved, rows = meta.get("run"), meta.get("log")
    if not isinstance(saved, dict) or rows is None:
        raise ResumeError(f"{path} carries no run record and log to resume against")
    _check_same(path, "run", saved, record)
    if not (isinstance(rows, list) and len(rows) == step
            and all(isinstance(r, list) and len(r) == 5 and type(r[0]) is int and r[0] == n
                    and {type(v) for v in r[1:]} <= {int, float}
                    for n, r in enumerate(rows, 1))):
        raise ContainerError(f"{path}: log is not the rows of steps 1 to {step}")
    flat = mdl.flat.shape
    check_layout(path, rest, "adam.", {"adam.t": (1,), "adam.m": flat, "adam.v": flat},
                 ints=("adam.t",))
    if os.path.exists(log_path):
        _check_same(log_path, "run", _logged_run(log_path), record)
    return mdl, AdamState.from_arrays(mdl, rest), rows


def _keep_freed_heap() -> bool:
    """Ask glibc's malloc to keep ``HEAP_TOP_PAD`` bytes of freed memory at
    the top of its heap (``mallopt(M_TOP_PAD)``) instead of returning it to
    the OS; returns whether it could (False on other C libraries).

    Every training pass frees megabytes of activations and gradients at
    once; by default malloc hands that memory back to the OS, and the next
    pass takes a page fault per 4 KB to get it again: about 1,900 faults
    per perfbench joint step, and about 2 ms of an 8.5 ms denoiser pass
    (1 BLAS thread).  The setting holds for the rest of the process and also
    stops glibc's dynamic adjustment of its mmap threshold.
    """
    return diffusion.mallopt(diffusion.M_TOP_PAD, HEAP_TOP_PAD)


def fit(windows, train_cfg: TrainConfig, model_cfg: ModelConfig,
        out_dir: str = "runs", resume_from=None):
    """Epoch loop with shuffled batches, periodic checkpoints and a CSV log
    (``training_log.csv`` in ``out_dir``) headed by the ``# run:`` line.

    Returns (final checkpoint path, log rows but ``wall_ms``).  Mid-run
    checkpoints (``ckpt_<step>.tjdf``) carry the Adam state, the run record
    and the log rows; the final ``model.tjdf`` carries only the model.
    ``resume_from`` restarts from a mid-training checkpoint, rewrites the
    log from it (with no ``wall_ms``) and matches the straight-through run
    exactly under the same seed policy; a checkpoint with no step left to
    run, model settings ``model_cfg`` that differ from its config, a run
    record that differs from this run's (training settings but
    ``checkpoint_every``, step counts, training data), or a log whose
    ``# run:`` line is missing or not this run's, raises ``ResumeError``
    before anything is written.  On glibc it first makes malloc keep freed
    memory for the process (``_keep_freed_heap``).
    """
    if not windows:
        raise ValueError("training dataset is empty")
    _keep_freed_heap()

    spe = max(1, math.ceil(len(windows) / train_cfg.batch_size))
    total_steps = spe * train_cfg.epochs
    # Step at which channel normalization freezes.  The converter's output
    # distribution drifts sharply while its regression converges; freezing
    # too early leaves the noise-matching loss on wildly mis-scaled inputs.
    # Until this step the statistics are recomputed over the training set
    # every step.
    freeze_at = min(500, max(1, total_steps // 4))
    record = _run_record(windows, train_cfg, total_steps, freeze_at)
    log_path = os.path.join(out_dir, "training_log.csv")
    if resume_from is not None:
        mdl, opt, rows = _resume(resume_from, record, model_cfg, log_path)
    else:
        mdl = Model.initialize(model_cfg, train_cfg.seed)
        opt, rows = AdamState(mdl), []
    order = None

    os.makedirs(out_dir, exist_ok=True)
    # the header and the checkpoint's rows replace the log whole, and reach
    # the disk before a checkpoint that a resume checks them against
    with open(f"{log_path}.tmp", "w", encoding="utf-8") as log:
        log.write(f"{RUN_LINE} {json.dumps(record, sort_keys=True)}\n"
                  f"# params: {mdl.n_parameters()}\n{','.join(LOG_COLUMNS)}\n")
        log.writelines(LOG_ROW.format(*row) + "\n" for row in rows)
        log.flush()
        os.fsync(log.fileno())
        os.replace(log.name, log_path)
        for step in range(len(rows), total_steps):
            epoch, pos = divmod(step, spe)
            if pos == 0 or order is None:
                order = np.random.default_rng([train_cfg.seed, 7, epoch]).permutation(
                    len(windows))
            idx = order[pos * train_cfg.batch_size:(pos + 1) * train_cfg.batch_size]
            batch = [windows[i] for i in idx]
            if step < freeze_at:
                mdl.norm = freeze_normalization(mdl, windows)
            rng = np.random.default_rng([train_cfg.seed, 11, step])
            t0 = time.perf_counter()
            parts = train_step(batch, mdl, train_cfg, opt, rng)
            ms = (time.perf_counter() - t0) * 1000.0
            rows.append([step + 1, parts["total"], parts["diffusion"],
                         parts["likelihood"], parts["consistency"]])
            log.write(LOG_ROW.format(*rows[-1]) + f"{ms:.3f}\n")
            done = step + 1
            if done % train_cfg.checkpoint_every == 0 and done < total_steps:
                mdl.save(os.path.join(out_dir, f"ckpt_{done:06d}.tjdf"),
                         extra_meta={"train_step": done, "run": record, "log": rows},
                         extra_arrays=opt.arrays())

    # the final model holds no optimizer state: a finished run is not resumed
    final_path = os.path.join(out_dir, "model.tjdf")
    mdl.save(final_path, extra_meta={"train_step": total_steps})
    return final_path, rows
