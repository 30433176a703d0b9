"""Gaussian head: density values, sampling moments, constraints, normalization."""

import math

import numpy as np
import pytest

from references import (ComputationRecord, Tensor, _make, backward, constant,
                        constrain_tensors, finite_difference_check, gaussian_at, log_pdf,
                        log_pdf_terms, mul, parameter, raw_stats, sample_location,
                        stats_field, sum_)
from trajdiff import distribution as dist
from trajdiff import numerics as nm
from trajdiff.model import ModelConfig


def _log_density(y, mu1, mu2, s1, s2, rho) -> float:
    """``distribution.log_pdf`` at one location, in float64."""
    terms, _ = dist.log_pdf(np.array([y], dtype=np.float64),
                            raw_stats(mu1, mu2, s1, s2, rho)[None])
    return float(terms[0, 0])


def test_log_pdf_standard_at_mode():
    assert math.isclose(_log_density((0.0, 0.0), 0.0, 0.0, 1.0, 1.0, 0.0),
                        -math.log(2 * math.pi), abs_tol=1e-9)


def test_log_pdf_correlated_at_mode():
    # -log(2 pi sqrt(1 - 0.25)) evaluated by hand
    assert math.isclose(_log_density((0.0, 0.0), 0.0, 0.0, 1.0, 1.0, 0.5), -1.6940362,
                        abs_tol=1e-6)


def test_log_pdf_matches_direct_quadratic_form():
    # the scalar reference and the package's density, against the matrix form
    rng = np.random.default_rng(0)
    for _ in range(50):
        g = (rng.normal(), rng.normal(), 0.2 + rng.random(), 0.2 + rng.random(),
             rng.uniform(-0.9, 0.9))
        mu1, mu2, s1, s2, rho = g
        y = rng.normal(size=2)
        cov = np.array([[s1 ** 2, rho * s1 * s2], [rho * s1 * s2, s2 ** 2]])
        diff = y - np.array([mu1, mu2])
        expected = (-math.log(2 * math.pi) - 0.5 * math.log(np.linalg.det(cov))
                    - 0.5 * diff @ np.linalg.solve(cov, diff))
        assert math.isclose(log_pdf(y, *g), expected, rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(_log_density(y, *g), expected, rel_tol=1e-9, abs_tol=1e-9)


def test_density_integrates_to_one():
    mu1, mu2, s1, s2, rho = g = (0.3, -0.2, 1.4, 0.7, 0.6)
    n = 400
    xs = np.linspace(mu1 - 8 * s1, mu1 + 8 * s1, n)
    ys = np.linspace(mu2 - 8 * s2, mu2 + 8 * s2, n)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    dx = xs[1] - xs[0]
    dy = ys[1] - ys[0]
    z1 = (gx - mu1) / s1
    z2 = (gy - mu2) / s2
    omr2 = 1 - rho ** 2
    quad = z1 ** 2 - 2 * rho * z1 * z2 + z2 ** 2
    pdf = np.exp(-quad / (2 * omr2)) / (2 * np.pi * s1 * s2 * np.sqrt(omr2))
    assert abs(pdf.sum() * dx * dy - 1.0) < 1e-3
    # spot check against the package's density on grid points
    i, j = 17, 301
    assert math.isclose(math.log(pdf[i, j]), _log_density((xs[i], ys[j]), *g),
                        rel_tol=1e-9)


def test_covariance_determinant_positive():
    rng = np.random.default_rng(1)
    raw = rng.normal(scale=3.0, size=(4, 6, 5))
    _, sig, rho = dist.constrain_array(raw)
    det = (sig[..., 0] * sig[..., 1]) ** 2 * (1 - rho[..., 0] ** 2)
    assert det.shape == (4, 6) and (det > 0).all()


class _Pair:
    """A generator stand-in that hands ``sample_location`` the (u, v) pair
    ``sample_field`` drew for one location."""

    def __init__(self, u, v):
        self.uv = np.array([u, v])

    def standard_normal(self, size):
        assert size == 2
        return self.uv


class TestSampling:
    def test_floor_sigma_sticks_to_mean(self):
        raw = np.tile([1.0, -2.0, -40.0, -40.0, np.arctanh(0.7 / dist.RHO_CAP)],
                      (100, 1, 1))
        np.testing.assert_allclose(dist.constrain_array(raw)[1], dist.SIGMA_FLOOR,
                                   rtol=1e-12)
        draws = dist.sample_field(raw, np.random.default_rng(0))
        assert (np.abs(draws[..., 0] - 1.0) < 1e-3).all()
        assert (np.abs(draws[..., 1] + 2.0) < 1e-3).all()

    def test_empirical_covariance(self):
        field = stats_field(0.0, 0.0, 2.0, 1.0, 0.5, n=100_000)
        draws = dist.sample_field(field, np.random.default_rng(7))[:, 0]
        cov = np.cov(draws.T)
        expected = np.array([[4.0, 1.0], [1.0, 1.0]])
        np.testing.assert_allclose(cov, expected, rtol=0.05)

    def test_empirical_mean_within_clt_band(self):
        field = stats_field(0.7, -0.3, 2.0, 1.0, 0.5, n=100_000)
        draws = dist.sample_field(field, np.random.default_rng(3))[:, 0]
        # 3 sigma / sqrt(n) band per coordinate
        for dim, (mu, sig) in enumerate([(0.7, 2.0), (-0.3, 1.0)]):
            assert abs(draws[:, dim].mean() - mu) < 3 * sig / math.sqrt(len(draws))

    def test_fixed_seed_reproducible(self):
        field = stats_field(0.0, 0.0, 1.0, 1.0, 0.2, n=3, t=4)
        a = dist.sample_field(field, np.random.default_rng(5))
        b = dist.sample_field(field, np.random.default_rng(5))
        assert a.tobytes() == b.tobytes()

    def test_sample_field_matches_scalar_construction(self):
        raw = np.random.default_rng(2).normal(size=(3, 4, 5))
        a = dist.sample_field(raw, np.random.default_rng(11))
        assert a.shape == (3, 4, 2)
        # the same draws through the same arithmetic give the same bytes
        rng = np.random.default_rng(11)
        u, v = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        for n in range(3):
            for t in range(4):
                want = sample_location(*gaussian_at(raw, n, t), _Pair(u[n, t], v[n, t]))
                np.testing.assert_array_equal(a[n, t], want)

    @pytest.mark.parametrize("peds", [1, 2, 7, 16])
    def test_counted_draws_equal_single_draws(self, peds):
        """``sample_field`` with a count ``n`` gives the bytes of ``n``
        calls without one and leaves the generator in the same state, with
        sigmas at ``SIGMA_FLOOR`` and |rho| at ``RHO_CAP`` among the
        (float64) statistics."""
        raw = np.random.default_rng(peds).normal(size=(peds, 12, 5))
        raw[0, :3, 2:4] = -800.0        # softplus 0: sigma is the floor itself
        raw[-1, 3:6, 4] = 40.0          # tanh 1: rho is the cap itself
        raw[-1, 6:9, 4] = -40.0
        _, sig, rho = dist.constrain_array(raw)
        assert (sig[0, :3] == dist.SIGMA_FLOOR).all()
        assert (rho[-1, 3:6] == dist.RHO_CAP).all()
        assert (rho[-1, 6:9] == -dist.RHO_CAP).all()
        for n in (0, 1, 5, 20):
            rng, ref = np.random.default_rng(9), np.random.default_rng(9)
            got = dist.sample_field(raw, rng, n)
            want = np.stack([dist.sample_field(raw, ref) for _ in range(n)]) if n \
                else np.empty((0, peds, 12, 2))
            assert got.shape == (n, peds, 12, 2) and got.dtype == np.float64
            assert got.tobytes() == want.tobytes()
            assert rng.bit_generator.state == ref.bit_generator.state


    @pytest.mark.parametrize("lead", [(1,), (4,), (2, 3)])
    def test_one_call_per_field_set_equals_per_field_calls(self, lead):
        """Fields with leading run axes [..., N, T', 5] and no count: one
        draw per field from one generator call, the bytes of one call per
        field in order, and the same generator state after (strategy B)."""
        raw = np.random.default_rng(len(lead)).normal(size=(*lead, 3, 12, 5))
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        got = dist.sample_field(raw, rng)
        want = np.stack([dist.sample_field(f, ref) for f in raw.reshape(-1, 3, 12, 5)])
        assert got.shape == (*lead, 3, 12, 2)
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


class TestConverter:
    def _params(self, seed=0):
        cfg = ModelConfig(conv_channels=8, kernel=5)
        return cfg, nm.init_params(dist.converter_layout(cfg), np.random.default_rng(seed),
                                   np.float32)

    def test_output_shape(self):
        cfg, params = self._params()
        fut = np.random.default_rng(1).normal(size=(3, 12, 2))
        raw = dist.convert_trajectory(fut, params)
        assert raw.shape == (3, 12, 5)
        assert raw.dtype == np.float32

    def test_deterministic(self):
        cfg, params = self._params()
        fut = np.random.default_rng(1).normal(size=(2, 12, 2))
        a = dist.convert_trajectory(fut, params)
        b = dist.convert_trajectory(fut, params)
        np.testing.assert_array_equal(a, b)

    def test_constrained_view_always_valid(self):
        for seed in range(3):
            cfg, params = self._params(seed)
            fut = np.random.default_rng(seed).normal(scale=2.0, size=(4, 12, 2))
            _, sig, rho = dist.constrain_array(dist.convert_trajectory(fut, params))
            assert (sig > 0).all()
            assert (np.abs(rho) <= dist.RHO_CAP).all()

    def test_center_tap_never_leaks(self):
        # statistics at timestep t must not depend on the displacement at t
        cfg, params = self._params()
        fut = np.random.default_rng(4).normal(size=(1, 12, 2))
        base = dist.convert_trajectory(fut, params)
        fut2 = fut.copy()
        fut2[0, 6, :] += 100.0
        out = dist.convert_trajectory(fut2, params)
        np.testing.assert_allclose(out[0, 6], base[0, 6], rtol=1e-5)
        assert np.abs(out[0, 5] - base[0, 5]).max() > 1e-3

    def test_even_kernel_rejected(self):
        # an even kernel has no center tap: the masked tap k // 2 is not the
        # one that reads timestep t, so t's statistics see its own value
        for kernel in (3, 5):
            ModelConfig(kernel=kernel)
        for kernel in (2, 4):
            with pytest.raises(ValueError, match="kernel"):
                ModelConfig(kernel=kernel)
        cfg = ModelConfig(conv_channels=8)
        cfg.kernel = 4          # past the construction check
        params = nm.init_params(dist.converter_layout(cfg), np.random.default_rng(0),
                                np.float32)
        fut = np.random.default_rng(4).normal(size=(1, 12, 2))
        fut2 = fut.copy()
        fut2[0, 6, :] += 100.0
        base = dist.convert_trajectory(fut, params)
        out = dist.convert_trajectory(fut2, params)
        assert np.abs(out[0, 6] - base[0, 6]).max() > 1e-3


def test_array_log_pdf_matches_scalar_reference():
    rng = np.random.default_rng(9)
    raw = rng.normal(size=(3, 4, 5))
    y = rng.normal(size=(3, 4, 2))
    terms = dist.log_pdf(y, raw)[0][..., 0]
    for n in range(3):
        for t in range(4):
            expected = log_pdf(y[n, t], *gaussian_at(raw, n, t))
            assert math.isclose(terms[n, t], expected, rel_tol=1e-8, abs_tol=1e-8)


def _density_op(y, raw: Tensor) -> Tensor:
    """The summed log densities as one recorded operation whose backward
    is ``log_pdf``'s."""
    terms, density_backward = dist.log_pdf(y, raw.data)
    return _make(terms.sum(), (raw,), lambda g: (np.concatenate(
        density_backward(np.broadcast_to(g, terms.shape)), axis=-1),))


def test_log_pdf_gradients():
    # d log N / d(raw means, sigmas, rho) against central differences
    params = {"raw": parameter([[0.4, -0.2, 0.3, -0.1, 0.25]], np.float64)}
    y = np.array([[0.9, 0.1]])
    report = finite_difference_check(lambda p: _density_op(y, p["raw"]), params,
                                     step=1e-4, tolerance=1e-2)
    assert report["pass"], report


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_log_pdf_matches_tape(dtype):
    # values and raw gradients against the primitive tape of the constraint
    # map and density, byte for byte
    rng = np.random.default_rng(10)
    y = rng.normal(size=(6, 12, 2))
    raw_np = rng.normal(size=(6, 12, 5))
    proj = rng.normal(size=(6, 12, 1))

    def run(density):
        raw = parameter(raw_np, dtype)
        with ComputationRecord():
            loss = sum_(mul(density(raw), constant(proj, dtype)))
        return loss.data, backward(loss, {"raw": raw})["raw"]

    def tape(raw):
        return log_pdf_terms(constant(y, dtype), *constrain_tensors(raw))

    def op(raw):
        terms, density_backward = dist.log_pdf(constant(y, dtype).data, raw.data)
        return _make(terms, (raw,), lambda g: (np.concatenate(density_backward(g), axis=-1),))

    (a, ga), (b, gb) = run(op), run(tape)
    assert a.tobytes() == b.tobytes()
    assert ga.dtype == gb.dtype == dtype
    assert ga.tobytes() == gb.tobytes()


def test_mean_log_score_matches_sum_of_mode_densities():
    raw = np.random.default_rng(12).normal(size=(2, 3, 5))
    expected = sum(log_pdf(raw[n, t, :2], *gaussian_at(raw, n, t))
                   for n in range(2) for t in range(3))
    assert math.isclose(dist.mean_log_score(raw), expected, rel_tol=1e-9)


def test_mean_log_score_of_runs_equals_per_run_scores():
    """Raw statistics with a leading run axis score each run as that run's
    statistics alone, bit for bit."""
    runs = np.random.default_rng(13).normal(size=(6, 5, 12, 5))
    scores = dist.mean_log_score(runs)
    assert scores.shape == (6,)
    assert scores.tobytes() == np.array([dist.mean_log_score(r) for r in runs]).tobytes()


class TestNormalization:
    @staticmethod
    def _normalize(raw, stats):
        return dist.normalize_stats(np.asarray(raw, np.float64), stats)

    def test_identity_stats_unchanged(self):
        raw = np.random.default_rng(0).normal(size=(2, 3, 5))
        out = self._normalize(raw, dist.NormStats.identity())
        np.testing.assert_array_equal(out, raw)

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        raw = rng.normal(size=(4, 12, 5)) * 3 + 1
        stats = dist.NormStats(rng.normal(size=5), 0.5 + rng.random(5))
        back = dist.denormalize_stats(self._normalize(raw, stats), stats)
        assert np.abs(back - raw).max() < 1e-5

    def test_fitted_stats_standardize(self):
        rng = np.random.default_rng(2)
        raw = rng.normal(size=(500, 12, 5)) * np.array([1, 2, 3, 4, 5]) + 7
        stats = dist.NormStats.from_raw(raw)
        normed = self._normalize(raw, stats).reshape(-1, 5)
        assert np.abs(normed.mean(axis=0)).max() < 0.05
        assert np.abs(normed.std(axis=0) - 1).max() < 0.05

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            dist.NormStats(np.zeros(5), np.zeros(5))

    def test_default_dtype_normalization_matches_float64_formula(self):
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(2, 12, 5))
        stats = dist.NormStats(rng.normal(size=5), 0.5 + rng.random(5))
        out = dist.normalize_stats(raw.astype(np.float32), stats)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, (raw - stats.mean) / stats.scale,
                                   rtol=1e-5, atol=1e-6)
