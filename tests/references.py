"""Reference implementations that only the tests use.

The tapes are the training pass written as chains of Tensor primitives,
so ``backward`` differentiates them primitive by primitive; the package's
recorded operations are held to them byte for byte.  ``denoiser_tape`` is
the denoiser, ``encode_windows_tape`` the guidance encoders (with
``aggregate_window_neighbors``, the per-window neighbor mean),
``convert_tape`` the converter, ``constrain_tensors``, ``log_pdf_terms``,
``normalize_tensor``, ``loss_likelihood`` and ``loss_consistency`` the
converter's losses and ``converter_losses_tape`` all of them in the
package's vector; ``loss_diffusion_tape`` and ``batch_losses_tape`` are
the diffusion loss and the joint forward pass.
``finite_difference_check`` is the central-difference gradient oracle and
``constant_velocity_baseline`` the classic extrapolation the acceptance
suite compares against.  ``log_pdf`` and ``sample_location`` are the
closed-form density and Cholesky draw of one bivariate Gaussian, given as
(mu1, mu2, sigma1, sigma2, rho), that the package's vectorized density and
sampler are held to; ``gaussian_at`` reads one location's parameters from a
``StatsField`` and ``stats_field`` builds a field from them.
``reverse_chain_steps`` is the reverse chain written out as its parts, the
noise estimate, ``reconstruct_clean`` and ``posterior_step``, that the
package's folded affine step is held to.
"""

import math

import numpy as np

from trajdiff import data, diffusion, training
from trajdiff import numerics as nm
from trajdiff.diffusion import denoiser_apply, step_embedding, transition
from trajdiff.distribution import (LOG_2PI, RHO_CAP, SIGMA_FLOOR, STAT_CHANNELS,
                                   StatsField, _center_mask)


def denoiser_tape(state, ks, guidance, params, cfg, schedule):
    """``diffusion.denoiser_apply`` as recorded Tensor primitives; call it
    under a ``nm.ComputationRecord`` (shape checks are left to the
    package's version)."""
    x = state if isinstance(state, nm.Tensor) else nm.constant(state)
    g = guidance if isinstance(guidance, nm.Tensor) else nm.constant(guidance)
    n = x.shape[0]
    ks_arr = np.full(n, ks, dtype=np.int64) if np.isscalar(ks) else np.asarray(ks)
    emb = nm.constant(step_embedding(ks_arr, cfg.step_dim))
    flat = nm.reshape(x, (n, cfg.state_dim))
    x_in = nm.concat([flat, emb, g], axis=1)
    h = nm.tanh(nm.add(nm.matmul(x_in, params["den.in.w"]), params["den.in.b"]))
    for i in range(cfg.denoiser_blocks):
        r = nm.tanh(nm.add(nm.matmul(h, params[f"den.blk{i}.w1"]),
                           params[f"den.blk{i}.b1"]))
        r = nm.add(nm.matmul(r, params[f"den.blk{i}.w2"]), params[f"den.blk{i}.b2"])
        h = nm.add(h, r)
    clean = nm.add(nm.add(nm.matmul(h, params["den.out.w"]),
                          nm.matmul(x_in, params["den.skip.w"])),
                   params["den.out.b"])
    a = schedule.alpha[ks_arr]
    gain = nm.constant(np.broadcast_to(
        (1.0 / np.sqrt(1.0 - a))[:, None], (n, cfg.state_dim)).copy())
    pull = nm.constant(np.broadcast_to(
        (-np.sqrt(a) / np.sqrt(1.0 - a))[:, None], (n, cfg.state_dim)).copy())
    eps_hat = nm.add(nm.mul(flat, gain), nm.mul(clean, pull))
    return nm.reshape(eps_hat, (n, cfg.t_future, STAT_CHANNELS))


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
    last = x[(slice(None), slice(t - taps, None), slice(None))]
    last = nm.reshape(nm.transpose(last, (0, 2, 1)), (n, 2 * taps))  # as w: [2, taps]
    w = nm.concat([params[f"{prefix}.conv{j}.w"] for j in range(t)], axis=0)
    if taps < kern:
        w = w[(slice(None), slice(None), slice(kern - taps, None))]
    w = nm.transpose(nm.reshape(w, (t * c, 2 * taps)), (1, 0))     # [2 taps, T*C]
    b = nm.concat([params[f"{prefix}.conv{j}.b"] for j in range(t)], axis=0)
    seq = nm.reshape(nm.tanh(nm.add(nm.matmul(last, w), b)), (n, t, c))
    q = nm.matmul(seq, params[f"{prefix}.attn.wq"])
    k = nm.matmul(seq, params[f"{prefix}.attn.wk"])
    v = nm.matmul(seq, params[f"{prefix}.attn.wv"])
    att = nm.scaled_dot_attention(q, k, v)               # [N, T, C]
    flat = nm.reshape(att, (n, t * c))
    return nm.add(nm.matmul(flat, params[f"{prefix}.proj.w"]),
                  params[f"{prefix}.proj.b"])


def encode_windows_tape(windows, params, cfg):
    """``guidance.encode_windows`` as recorded Tensor primitives."""
    obs = nm.constant(np.concatenate([np.asarray(w.observed) for w in windows]))
    agg = np.concatenate([aggregate_window_neighbors(w.observed, w.neighbor_mask)
                          for w in windows])
    return nm.concat([encoder_tape(obs, params, "hist", cfg),
                      encoder_tape(nm.constant(agg), params, "nbr", cfg)], axis=1)


def convert_tape(future, params):
    """``distribution.convert_trajectory`` as recorded Tensor primitives."""
    x = future if isinstance(future, nm.Tensor) else nm.constant(future)
    k = params["conv.w1"].shape[2]
    w1 = nm.mul(params["conv.w1"], nm.constant(_center_mask(k)))
    h = nm.transpose(x, (0, 2, 1))                       # [N, 2, T']
    h = nm.conv1d(h, w1)
    h = nm.transpose(h, (0, 2, 1))                       # [N, T', C]
    h = nm.tanh(nm.add(h, params["conv.b1"]))
    h = nm.transpose(h, (0, 2, 1))
    h = nm.conv1d(h, params["conv.w2"])
    h = nm.transpose(h, (0, 2, 1))                       # [N, T', 5]
    return nm.add(h, params["conv.b2"])


def constrain_tensors(raw):
    """The constraint map on a raw-statistics tensor [..., 5]: (means,
    sigmas, rho)."""
    mu = raw[(Ellipsis, slice(0, 2))]
    sig = nm.add(nm.softplus(raw[(Ellipsis, slice(2, 4))]), SIGMA_FLOOR)
    rho = nm.mul(nm.tanh(raw[(Ellipsis, slice(4, 5))]), RHO_CAP)
    return mu, sig, rho


def log_pdf_terms(y, mu, sigma, rho):
    """Per-location log densities [..., 1] of ``y`` [..., 2] (constant)
    under ``mu`` [..., 2], ``sigma`` [..., 2] positive and ``rho`` [..., 1]
    with |rho| < 1."""
    y = y if isinstance(y, nm.Tensor) else nm.constant(y)
    d = nm.add(y, nm.mul(mu, -1.0))
    u = nm.mul(d, nm.reciprocal_positive(sigma))         # standardized residuals
    u1 = u[(Ellipsis, slice(0, 1))]
    u2 = u[(Ellipsis, slice(1, 2))]
    omr2 = nm.add(1.0, nm.mul(nm.mul(rho, rho), -1.0))   # 1 - rho^2 > 0 by cap
    quad = nm.add(nm.add(nm.mul(u1, u1), nm.mul(u2, u2)),
                  nm.mul(nm.mul(nm.mul(u1, u2), rho), -2.0))
    log_sig = nm.sum_(nm.log(sigma), axis=-1, keepdims=True)
    log_norm = nm.add(nm.add(log_sig, nm.mul(nm.log(omr2), 0.5)), LOG_2PI)
    penalty = nm.mul(nm.mul(quad, nm.reciprocal_positive(omr2)), 0.5)
    return nm.mul(nm.add(log_norm, penalty), -1.0)


def normalize_tensor(raw, stats):
    return nm.mul(nm.add(raw, nm.constant(-stats.mean)), nm.constant(1.0 / stats.scale))


def loss_likelihood(future, raw, n_windows=1):
    mu, sig, rho = constrain_tensors(raw)
    return nm.mul(nm.sum_(log_pdf_terms(future, mu, sig, rho)), -1.0 / n_windows)


def loss_consistency(future, raw):
    fut = future if isinstance(future, nm.Tensor) else nm.constant(future)
    d = nm.add(fut[(slice(None), slice(0, 1), slice(None))],
               nm.mul(raw[(slice(None), slice(0, 1), slice(0, 2))], -1.0))
    return nm.mean(nm.sum_(nm.mul(d, d), axis=2))


def converter_losses_tape(future, params, norm, n_windows):
    """``training.converter_losses`` as recorded Tensor primitives: the
    vector [likelihood, consistency, *normalized statistics]."""
    fut = nm.constant(future)
    raw = convert_tape(fut, params)
    return nm.concat([nm.reshape(loss_likelihood(fut, raw, n_windows), (1,)),
                      nm.reshape(loss_consistency(fut, raw), (1,)),
                      nm.reshape(normalize_tensor(raw, norm), (-1,))], axis=0)


def loss_diffusion_tape(y0_norm, guidance_emb, ks, eps, schedule, params, model_cfg):
    """``training.loss_diffusion`` with its squared error and mean as
    recorded primitives."""
    eps_t = nm.constant(eps)
    noisy = diffusion.forward_marginal(y0_norm, ks, eps_t, schedule)
    pred = diffusion.denoiser_apply(noisy, ks, guidance_emb, params, model_cfg, schedule)
    diff = nm.add(pred, nm.mul(eps_t, -1.0))
    return nm.mean(nm.mul(diff, diff))


def batch_losses_tape(batch, model, rng, weights=(1.0, 1.0, 1.0)):
    """``training.batch_losses`` with the encoders, the converter and its
    losses and the weighted sum as recorded primitives."""
    emb = encode_windows_tape(batch, model.params, model.config)
    fut = nm.constant(np.concatenate([w.future for w in batch], axis=0))
    raw = convert_tape(fut, model.params)
    l_llh = loss_likelihood(fut, raw, n_windows=len(batch))
    l_con = loss_consistency(fut, raw)
    y0n = normalize_tensor(raw, model.norm)
    ks, eps = training.draw_step_noise([w.n_peds for w in batch], model.schedule, rng,
                                       model.config.t_future)
    l_diff = loss_diffusion_tape(y0n, emb, ks, eps, model.schedule, model.params,
                                 model.config)
    w1, w2, w3 = weights
    total = nm.add(nm.add(nm.mul(l_diff, w1), nm.mul(l_llh, w2)), nm.mul(l_con, w3))
    parts = {"diffusion": l_diff.item(), "likelihood": l_llh.item(),
             "consistency": l_con.item()}
    cache = {"guidance": emb.data.copy(), "y0n": y0n.data.copy(),
             "sizes": [w.n_peds for w in batch]}
    return total, parts, cache


def finite_difference_check(f, params, step: float = 1e-3,
                            tolerance: float = 1e-2) -> dict:
    """Compare analytic gradients of ``f(params)`` against central differences.

    ``f`` must be deterministic (draw any randomness outside and close over
    it).  Relative errors use a denominator floored at 1e-6; the check
    passes iff the worst element stays within ``tolerance``.  Run under
    ``nm.precision(np.float64)`` for trustworthy numerics.
    """

    def eval_scalar():
        out = f(params)
        if out.size != 1:
            raise nm.NumericsError("finite_difference_check needs a scalar function")
        return float(out.data.reshape(()))

    if eval_scalar() != eval_scalar():
        raise nm.NumericsError("f is not deterministic under a fixed seed")

    with nm.ComputationRecord():
        loss = f(params)
    grads = nm.backward(loss, params)

    max_rel = 0.0
    worst = None
    for name, p in params.items():
        analytic = grads[name].data
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            fp = eval_scalar()
            flat[i] = orig - step
            fm = eval_scalar()
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * step)
            a = float(analytic.reshape(-1)[i])
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


def gaussian_at(field, n: int, t: int) -> tuple[float, float, float, float, float]:
    """(mu1, mu2, sigma1, sigma2, rho) of pedestrian ``n`` at timestep ``t``."""
    (mu1, mu2), (s1, s2) = field.means[n, t], field.sigmas[n, t]
    return float(mu1), float(mu2), float(s1), float(s2), float(field.rhos[n, t])


def raw_stats(mu1, mu2, s1, s2, rho) -> np.ndarray:
    """The raw statistics [5] of these parameters, through the inverse of
    the constraint map (sigmas above ``SIGMA_FLOOR``)."""
    sig_raw = np.log(np.expm1(np.array([s1, s2]) - SIGMA_FLOOR))
    return np.array([mu1, mu2, *sig_raw, np.arctanh(rho / RHO_CAP)])


def stats_field(mu1, mu2, s1, s2, rho, n: int = 1, t: int = 1) -> StatsField:
    """A field [n, t] whose every location has these parameters."""
    return StatsField(np.broadcast_to(raw_stats(mu1, mu2, s1, s2, rho),
                                      (n, t, STAT_CHANNELS)))


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
    """``diffusion.reverse_chain`` unfolded: per step the noise estimate,
    its clean-state reconstruction and the transition, stochastic exactly
    when given ``chain_rng``, from which it draws the same noise in the
    same order."""
    tau = schedule.tau.tolist()
    y = np.asarray(y_init, dtype=np.float64)
    for k_from, k_to in zip(tau[::-1], [*tau[:-1][::-1], 0]):
        eps_hat = denoiser_apply(y, k_from, guidance_rows, params, cfg, schedule).data
        y0_hat = reconstruct_clean(y, eps_hat, k_from, schedule)
        y = posterior_step(y, y0_hat, k_from, k_to, schedule, rng=chain_rng)
    return y
