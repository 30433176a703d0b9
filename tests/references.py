"""Reference implementations that only the tests use.

``denoiser_tape`` is the denoiser written as a chain of Tensor primitives,
so ``backward`` differentiates it primitive by primitive; the package's
one recorded denoiser operation is held to it byte for byte.
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

from trajdiff import data
from trajdiff import numerics as nm
from trajdiff.diffusion import denoiser_apply, step_embedding, transition
from trajdiff.distribution import RHO_CAP, SIGMA_FLOOR, STAT_CHANNELS, StatsField


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


def stats_field(mu1, mu2, s1, s2, rho, n: int = 1, t: int = 1) -> StatsField:
    """A field [n, t] whose every location has these parameters, through
    the inverse of the constraint map (sigmas above ``SIGMA_FLOOR``)."""
    sig_raw = np.log(np.expm1(np.array([s1, s2]) - SIGMA_FLOOR))
    raw = np.array([mu1, mu2, *sig_raw, np.arctanh(rho / RHO_CAP)])
    return StatsField(np.broadcast_to(raw, (n, t, STAT_CHANNELS)))


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
