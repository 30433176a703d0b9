"""Schedule construction, forward/reverse transitions, the denoiser and the
full reverse chain."""

import functools
import subprocess
import sys
import threading
import types
import warnings
from concurrent import futures
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from conftest import far_from_noise
from references import (ComputationRecord, add, backward, constant, denoiser_tape, mean, mul,
                        parameter, parameters, posterior_step, recorded,
                        reverse_chain_steps)
from trajdiff import data
from trajdiff import diffusion as dff
from trajdiff import numerics as nm
from trajdiff.distribution import NormStats, constrain_array
from trajdiff.model import Model, ModelConfig


class TestSchedule:
    @far_from_noise("0.0782")
    def test_default_linear_schedule(self):
        s = dff.build_schedule(100)
        assert s.alpha[0] == 1.0
        assert np.all(np.diff(s.alpha) < 0)
        assert s.alpha[100] < 0.1

    def test_full_tau_when_not_accelerated(self):
        s = dff.build_schedule(20, beta_end=0.3)
        np.testing.assert_array_equal(s.tau, np.arange(1, 21))

    def test_single_step_chain(self):
        # K = 1 with a constant beta of 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            s = dff.build_schedule(1, beta_start=0.5, beta_end=0.6)
        np.testing.assert_allclose(s.alpha, [1.0, 0.5])

    def test_far_from_noise_warns(self):
        with pytest.warns(RuntimeWarning, match="far from standard noise"):
            dff.build_schedule(10, beta_start=1e-4, beta_end=1e-3)

    def test_even_tau_ends_at_k(self):
        s = dff.build_schedule(200, steps=100)
        assert len(s.tau) == 100
        assert s.tau[-1] == 200
        assert np.all(np.diff(s.tau) > 0)

    def test_restriding(self):
        cfg = ModelConfig(k_total=200, steps=100)
        s, s10 = cfg.schedule(), cfg.schedule(10)
        assert len(s10.tau) == 10 and s10.tau[-1] == 200
        np.testing.assert_array_equal(s10.alpha, s.alpha)

    def test_invalid_subsequence_length(self):
        with pytest.raises(nm.NumericsError):
            dff.build_schedule(10, beta_end=0.3, steps=11)

    def test_invalid_beta_range(self):
        with pytest.raises(nm.NumericsError):
            dff.build_schedule(10, beta_start=0.3, beta_end=0.2)

    @pytest.mark.parametrize("settings, message", [
        ({"beta_start": 0.3, "beta_end": 0.2}, "need 0 < beta_start < beta_end < 1"),
        ({"k_total": 100_000}, "alpha must be strictly decreasing")],
        ids=["beta-range", "alpha-underflow"])
    def test_a_config_refuses_a_bad_schedule(self, settings, message):
        with pytest.raises(ValueError, match=f"^model schedule: {message}"):
            ModelConfig(**settings)

    def test_a_loaded_model_builds_its_schedule_once(self, tmp_path, monkeypatch):
        cfg = ModelConfig(conv_channels=4, d_phi=2, d_psi=2, denoiser_width=8,
                          denoiser_blocks=1, step_dim=8, k_total=40, steps=10, beta_end=0.25)
        Model.initialize(cfg, seed=0).save(tmp_path / "m.tjdf")
        built, build = [], dff.build_schedule

        def counting(*args):
            built.append(args)
            return build(*args)
        monkeypatch.setattr(dff, "build_schedule", counting)
        mdl = Model.load(tmp_path / "m.tjdf")[0]
        assert built == [(40, 1e-4, 0.25, 10)]
        assert mdl.schedule is mdl.config.schedule()
        np.testing.assert_array_equal(mdl.config.schedule(5).tau, [8, 16, 24, 32, 40])
        assert mdl.config.schedule(5).alpha is mdl.schedule.alpha and len(built) == 1
        with pytest.raises(FrozenInstanceError):    # which would leave it stale
            mdl.config.k_total = 10

    def test_ddpm_matching_jump_gamma_satisfies_bound(self):
        # every jump the chain makes, down tau and then to 0
        for steps in (200, 100, 10):
            s = dff.build_schedule(200, steps=steps)
            jumps = list(zip(s.tau[::-1], np.concatenate([s.tau[:-1][::-1], [0]])))
            gammas = np.array([dff.transition(s, k_from, k_to, stochastic=True)[2]
                               for k_from, k_to in jumps])
            bounds = np.array([1.0 - s.alpha[k_to] for _, k_to in jumps])
            assert len(jumps) == steps
            assert np.all(gammas[:-1] > 0) and gammas[-1] == 0.0
            assert np.all(gammas ** 2 <= bounds)

    def test_alpha_underflow_rejected(self):
        # the cumulative product reaches 0.0 long before K = 100,000
        with pytest.raises(nm.NumericsError, match="strictly decreasing"):
            dff.build_schedule(100_000, beta_end=0.05)


def _marginal(y0, k, eps, s) -> np.ndarray:
    """``forward_marginal`` on arrays, in float64."""
    return dff.forward_marginal(np.asarray(y0, np.float64), k, eps, s)


class TestForwardMarginal:
    @far_from_noise("0.1845")
    def test_identity_at_step_zero(self):
        s = dff.build_schedule(10, beta_end=0.3)
        y0 = np.random.default_rng(0).normal(size=(2, 3, 5))
        out = _marginal(y0, 0, np.zeros_like(y0), s)
        np.testing.assert_allclose(out, y0)

    def test_hand_computed_value(self):
        # alpha = 0.25: sqrt(0.25) * y0 + sqrt(0.75) * eps
        s = dff.Schedule(1, np.array([1.0, 0.25]), np.array([1]))
        out = _marginal(np.array([1.0, 2.0]), 1, np.array([1.0, -1.0]), s)
        np.testing.assert_allclose(out, [1.3660, 0.1340], atol=5e-5)

    def test_noise_endpoint(self):
        s = dff.Schedule(1, np.array([1.0, 1e-10]), np.array([1]))
        y0 = np.full((4,), 1e3)
        eps = np.random.default_rng(1).normal(size=4)
        out = _marginal(y0, 1, eps, s)
        np.testing.assert_allclose(out, eps, atol=2e-2)

    @far_from_noise("0.1845")
    def test_shape_mismatch(self):
        s = dff.build_schedule(10, beta_end=0.3)
        with pytest.raises(nm.NumericsError, match="shape"):
            _marginal(np.zeros(3), 1, np.zeros(4), s)

    @far_from_noise("0.1845")
    def test_tensor_path_matches_array_path(self):
        # float32 against float64
        s = dff.build_schedule(10, beta_end=0.3)
        y0 = np.random.default_rng(2).normal(size=(2, 5))
        eps = np.random.default_rng(3).normal(size=(2, 5))
        out = dff.forward_marginal(y0.astype(np.float32), 4, eps, s)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, _marginal(y0, 4, eps, s), rtol=1e-6)

    @far_from_noise("0.1845")
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_per_row_steps_equal_scalar_calls(self, dtype):
        s = dff.build_schedule(10, beta_end=0.3)
        y0 = np.random.default_rng(4).normal(size=(4, 3, 5)).astype(dtype)
        eps = np.random.default_rng(5).normal(size=(4, 3, 5))
        ks = np.array([0, 3, 3, 10])
        rows_t = dff.forward_marginal(y0, ks, eps, s)
        for i, k in enumerate(ks):
            one = dff.forward_marginal(y0[i:i + 1], k, eps[i:i + 1], s)
            np.testing.assert_array_equal(rows_t[i], one[0])
        assert rows_t.dtype == dtype

    @far_from_noise("0.1845")
    def test_step_outside_schedule(self):
        s = dff.build_schedule(10, beta_end=0.3)
        with pytest.raises(nm.NumericsError, match="outside"):
            _marginal(np.zeros((2, 3)), np.array([1, 11]), np.zeros((2, 3)), s)


@pytest.fixture
def den_setup():
    cfg = ModelConfig(t_future=12, d_phi=4, d_psi=4, denoiser_width=16,
                      denoiser_blocks=2, step_dim=8)
    params = nm.init_params(dff.denoiser_layout(cfg), np.random.default_rng(0), np.float32)
    sched = dff.build_schedule(50, beta_end=0.2, steps=25)
    return cfg, params, sched


class TestDenoiser:
    def test_output_shape(self, den_setup):
        cfg, params, sched = den_setup
        state = np.random.default_rng(1).normal(size=(3, 12, 5))
        g = np.random.default_rng(2).normal(size=(3, 8))
        out = dff.denoiser_apply(state, 10, g, params, cfg, sched)
        assert out.shape == (3, 12, 5)

    def test_identical_rows_identical_outputs(self, den_setup):
        cfg, params, sched = den_setup
        state = np.random.default_rng(1).normal(size=(2, 12, 5))
        state[1] = state[0]
        g = np.tile(np.random.default_rng(2).normal(size=(1, 8)), (2, 1))
        out = dff.denoiser_apply(state, 7, g, params, cfg, sched)
        np.testing.assert_array_equal(out[0], out[1])

    def test_step_index_changes_output(self, den_setup):
        cfg, params, sched = den_setup
        state = np.random.default_rng(1).normal(size=(1, 12, 5))
        g = np.random.default_rng(2).normal(size=(1, 8))
        a = dff.denoiser_apply(state, 5, g, params, cfg, sched)
        b = dff.denoiser_apply(state, 40, g, params, cfg, sched)
        assert np.abs(a - b).max() > 1e-6

    def test_per_row_steps(self, den_setup):
        cfg, params, sched = den_setup
        state = np.random.default_rng(1).normal(size=(2, 12, 5))
        state[1] = state[0]
        g = np.zeros((2, 8))
        both = dff.denoiser_apply(state, np.array([5, 40]), g, params, cfg, sched)
        solo5 = dff.denoiser_apply(state[:1], 5, g[:1], params, cfg, sched)
        np.testing.assert_allclose(both[0], solo5[0], atol=1e-5)

    @pytest.mark.parametrize("step, ok", [
        (5, True), (np.int64(5), True), (0, False), ("K+1", False),
        (np.array([1, 5]), True), (np.array([1, 0]), False),
        # a bool compares as 0 or 1 but is no step: alpha[True] is a mask
        (True, False), (np.bool_(True), False), (np.array([True, True]), False)],
        ids=["int", "int64", "0", "K+1", "rows", "rows-with-0", "True", "np-True",
             "rows-of-True"])
    def test_steps_outside_1_to_k_are_refused(self, den_setup, step, ok):
        cfg, params, sched = den_setup
        step = sched.K + 1 if isinstance(step, str) else step
        args = (np.zeros((2, 12, 5)), step, np.zeros((2, 8)), params, cfg, sched)
        if ok:
            assert dff.denoiser_apply(*args).shape == (2, 12, 5)
        else:
            with pytest.raises(nm.NumericsError, match=r"^denoiser steps must lie in 1\.\.K$"):
                dff.denoiser_apply(*args)

    def test_guidance_row_mismatch(self, den_setup):
        cfg, params, sched = den_setup
        with pytest.raises(nm.NumericsError, match="rows"):
            dff.denoiser_apply(np.zeros((2, 12, 5)), 5, np.zeros((3, 8)),
                               params, cfg, sched)

    def test_step_embedding_distinct_over_range(self):
        emb = dff.step_embedding(np.arange(1, 301), 32)
        assert len(np.unique(emb.round(6), axis=0)) == 300


def _dense_denoiser(dtype, blocks: int = ModelConfig.denoiser_blocks):
    """Default-size denoiser (``blocks`` residual blocks) with every
    parameter non-zero, so that each bias add and the skip path move the
    output."""
    cfg = ModelConfig(denoiser_blocks=blocks)
    rng = np.random.default_rng(5)
    params = nm.init_params(dff.denoiser_layout(cfg), rng, dtype)
    for p in params.values():
        p += rng.normal(0.0, 0.1, p.shape).astype(p.dtype)
    return cfg, params


class TestGradientFreePath:
    """``denoiser_apply`` on plain arrays against the Tensor-primitive body,
    its reference."""

    SCHED = dff.build_schedule(100, beta_end=0.1)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["float32", "float64"])
    @pytest.mark.parametrize("rows", [1, 7, 160, 1360])
    def test_bitwise_equal_to_recorded_path(self, rows, dtype):
        cfg, params = _dense_denoiser(dtype)
        sched = self.SCHED
        rng = np.random.default_rng(rows)
        state = rng.normal(size=(rows, cfg.t_future, 5))
        g = rng.normal(size=(rows, cfg.d_phi + cfg.d_psi))
        steps = (1, sched.K // 2, sched.K, rng.integers(1, sched.K + 1, rows))
        for ks in steps:
            fast = dff.denoiser_apply(state, ks, g, params, cfg, sched)
            with ComputationRecord():
                ref = denoiser_tape(state, ks, g, params, cfg, sched)
            assert fast.dtype == ref.data.dtype == dtype
            assert fast.tobytes() == ref.data.tobytes()

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("where", ["state", "guidance", "output"])
    def test_non_finite_values_raise_outside_record(self, where):
        cfg, params = _dense_denoiser(np.float32)
        state = np.zeros((3, cfg.t_future, 5))
        g = np.zeros((3, cfg.d_phi + cfg.d_psi))
        if where == "state":
            state[1, 4, 2] = np.nan
        elif where == "guidance":
            g[2, 7] = np.nan
        else:
            # finite in float32, but scaled past its range by the step-1 pull
            params = {**params, "den.out.b": np.full(cfg.state_dim, 3e38, np.float32)}
        with pytest.raises(nm.NumericsError, match="non-finite"):
            dff.denoiser_apply(state, 1, g, params, cfg, self.SCHED)


def _denoiser_op(state, ks, guidance, params, cfg, schedule):
    """``denoiser_apply`` and ``denoiser_backward`` as one recorded
    operation over the ``den.*`` parameters, the state and the guidance,
    with input gradients when the state or the guidance requires one."""
    keep, arrays = {}, {k: p.data for k, p in params.items()}
    out = dff.denoiser_apply(state.data, ks, guidance.data, arrays, cfg, schedule, keep=keep)

    def denoiser_backward(g):
        grads, g_state, g_guidance = dff.denoiser_backward(
            g, arrays, cfg, keep, state.requires_grad or guidance.requires_grad)
        return {**grads, "state": g_state, "guidance": g_guidance}

    return recorded(out, {**params, "state": state, "guidance": guidance},
                    denoiser_backward)


class TestFusedDenoiser:
    """``denoiser_backward`` gives the same bytes as the primitive tape of
    ``references.denoiser_tape``: output, every parameter gradient, and the
    state and guidance gradients when those require one."""

    SCHED = dff.build_schedule(200, beta_end=0.05, steps=100)

    @staticmethod
    def _bytes(apply, rows, blocks, dtype, per_row, inputs):
        cfg, params = _dense_denoiser(dtype, blocks)
        rng = np.random.default_rng(rows)
        sched = TestFusedDenoiser.SCHED
        params = parameters(params)
        wrap = {False: constant, True: parameter}
        state = wrap[inputs in ("state", "both")](
            rng.normal(size=(rows, cfg.t_future, 5)), dtype)
        guid = wrap[inputs in ("guidance", "both")](
            rng.normal(size=(rows, cfg.d_phi + cfg.d_psi)), dtype)
        # 8 pedestrians per window share a step, as in training
        ks = (np.repeat(rng.choice(sched.tau, -(-rows // 8)), 8)[:rows]
              if per_row else 37)
        target = constant(rng.normal(size=(rows, cfg.t_future, 5)), dtype)
        with ComputationRecord() as rec:
            out = apply(state, ks, guid, params, cfg, sched)
            d = add(out, mul(target, -1.0))
            loss = mean(mul(d, d))
            entries = len(rec.entries)
        grads = backward(loss, {**params, "state": state, "guidance": guid})
        return out.data.tobytes(), {k: g.tobytes() for k, g in grads.items()}, entries

    @pytest.mark.parametrize("inputs", ["constant", "state", "guidance", "both"])
    @pytest.mark.parametrize("per_row", [False, True], ids=["scalar-step", "per-row-steps"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["float32", "float64"])
    # an empty trunk: the input layer feeds the output layer directly
    @pytest.mark.parametrize("rows, blocks", [(8, 3), (384, 3), (1360, 3), (384, 0)],
                             ids=["8", "384", "1360", "384-no-blocks"])
    def test_bitwise_equal_to_tape(self, rows, blocks, dtype, per_row, inputs):
        args = (rows, blocks, dtype, per_row, inputs)
        out, grads, entries = self._bytes(_denoiser_op, *args)
        ref_out, ref_grads, ref_entries = self._bytes(denoiser_tape, *args)
        assert out == ref_out
        assert grads.keys() == ref_grads.keys()
        for name in grads:
            assert grads[name] == ref_grads[name], name
        # the denoiser is one entry; the loss adds three more
        assert entries == 4 and ref_entries > 4


class TestPosterior:
    def test_equal_alpha_is_identity(self):
        assert dff.posterior_coefficients(a_from=0.37, a_to=0.37, gamma=0.0) == (1.0, 0.0)

    def test_final_step_recovers_clean_estimate(self):
        sched = dff.build_schedule(50, beta_end=0.2)
        rng = np.random.default_rng(1)
        y_k = rng.normal(size=(2, 3, 5))
        y0h = rng.normal(size=(2, 3, 5))
        assert dff.transition(sched, 7, 0)[:2] == (0.0, 1.0)
        out = posterior_step(y_k, y0h, k_from=7, k_to=0, schedule=sched)
        np.testing.assert_allclose(out, y0h, rtol=1e-9)

    def test_transition_order_enforced(self):
        sched = dff.build_schedule(50, beta_end=0.2)
        with pytest.raises(nm.NumericsError, match="transition"):
            dff.transition(sched, 5, 9)

    def test_gamma_bound_enforced(self):
        sched = dff.build_schedule(50, beta_end=0.2)
        with pytest.raises(nm.NumericsError, match="gamma"):
            dff.posterior_coefficients(float(sched.alpha[10]), float(sched.alpha[5]),
                                       gamma=1.5)

    def test_transition_is_stochastic_only_when_asked(self):
        sched = dff.build_schedule(50, beta_end=0.2)
        a_from, a_to = float(sched.alpha[10]), float(sched.alpha[5])
        assert dff.transition(sched, 10, 5) == (
            *dff.posterior_coefficients(a_from, a_to, 0.0), 0.0)
        c_y, c_c, gamma = dff.transition(sched, 10, 5, stochastic=True)
        assert gamma > 0.0
        assert (c_y, c_c) == dff.posterior_coefficients(a_from, a_to, gamma)

    def test_maximal_gamma_reproduces_forward_marginal(self):
        # with gamma = sqrt(1 - alpha[k_to]) the transition distribution is
        # exactly the forward marginal of the clean estimate
        sched = dff.build_schedule(50, beta_end=0.2)
        k_from, k_to = 40, 15
        y0h = np.array([0.7])
        y_k = np.array([1.3])
        gamma = float(np.sqrt(1.0 - sched.alpha[k_to]))
        c_y, c_c = dff.posterior_coefficients(float(sched.alpha[k_from]),
                                              float(sched.alpha[k_to]), gamma)
        mean = c_y * y_k + c_c * y0h
        draws = mean[0] + gamma * np.random.default_rng(5).standard_normal(10_000)
        want_mean = np.sqrt(sched.alpha[k_to]) * y0h[0]
        want_var = 1.0 - sched.alpha[k_to]
        assert abs(draws.mean() - want_mean) < 0.03 * max(1.0, abs(want_mean))
        assert abs(draws.var() - want_var) < 0.03 * want_var

    def test_marginal_consistency_of_matching_chain(self):
        # forward to step j then ddpm-matching posterior to i reproduces the
        # forward marginal at i (moment check over 10k draws)
        sched = dff.build_schedule(60, beta_end=0.15)
        j, i = 50, 20
        y0 = np.array([0.9])
        rng = np.random.default_rng(8)
        n = 10_000
        eps = rng.standard_normal((n, 1))
        y_j = _marginal(np.tile(y0, (n, 1)), j, eps, sched)
        y_i = posterior_step(y_j, np.tile(y0, (n, 1)), j, i, sched, rng=rng)
        want_mean = np.sqrt(sched.alpha[i]) * y0[0]
        want_var = 1.0 - sched.alpha[i]
        assert abs(y_i.mean() - want_mean) < 0.03 * max(1.0, abs(want_mean))
        assert abs(y_i.var() - want_var) < 0.03 * want_var


def _chain_rng(gamma_mode):
    """The in-chain noise generator of a chain in ``gamma_mode``, pinned."""
    return np.random.default_rng(1) if gamma_mode == "ddpm-matching" else None


class TestReverseGenerate:
    """``reverse_chain`` and ``Model.generate`` on an untrained model."""

    def _setup(self, k_total=40, steps=10, beta_end=0.25):
        cfg = ModelConfig(conv_channels=4, d_phi=2, d_psi=2, denoiser_width=16,
                          denoiser_blocks=1, step_dim=8, k_total=k_total, steps=steps,
                          beta_end=beta_end)
        synth = data.SynthConfig(n_scenes=1, peds_per_scene=3, frames=20, seed=1)
        (window,) = data.window_scenes(data.synthesize_scenes(synth), stride=1)
        return Model.initialize(cfg, seed=0), [window]

    def test_deterministic_given_seed(self):
        mdl, w = self._setup()
        (a,) = mdl.generate(w, [np.random.default_rng(42)], n_runs=2)
        (b,) = mdl.generate(w, [np.random.default_rng(42)], n_runs=2)
        assert a.shape == (2, 3, mdl.config.t_future, 5) and a.dtype == np.float64
        np.testing.assert_array_equal(a, b)
        assert np.abs(a[0] - a[1]).max() > 1e-6  # runs differ

    def test_runs_equal_sequential_single_runs(self):
        # the runs share one batched chain; each equals a single-run call
        # that draws next from the same generator
        mdl, w = self._setup()
        mdl.norm = NormStats(np.linspace(-0.5, 0.5, 5), np.linspace(0.5, 2.0, 5))
        (batched,) = mdl.generate(w, [np.random.default_rng(42)], n_runs=3)
        rng = np.random.default_rng(42)
        for run in batched:
            ((single,),) = mdl.generate(w, [rng])
            assert run.tobytes() == single.tobytes()

    def test_untrained_model_still_yields_valid_fields(self):
        mdl, w = self._setup()
        ((raw,),) = mdl.generate(w, [np.random.default_rng(0)])
        _, sig, rho = constrain_array(raw)
        assert np.isfinite(raw).all()
        assert (sig > 0).all()
        assert (np.abs(rho) <= 0.99).all()

    def test_stochastic_chain_differs_across_calls(self):
        # the in-chain noise comes from the generator given, and from it alone
        mdl, w = self._setup()
        (((a,),), ((b,),), ((c,),)) = (
            mdl.generate(w, [np.random.default_rng(42)], chain_rng=np.random.default_rng(s))
            for s in (1, 2, 1))
        assert np.abs(a - b).max() > 1e-8
        assert a.tobytes() == c.tobytes()

    def test_stochastic_chain_reproducible_with_pinned_chain_rng(self):
        mdl, w = self._setup()
        y_init = np.random.default_rng(42).standard_normal((3, 12, 5))
        guidance = mdl.encode(w)
        sched = mdl.config.schedule()
        a, b = (dff.reverse_chain(y_init, guidance, sched, mdl.params,
                                  mdl.config, np.random.default_rng(1)) for _ in range(2))
        np.testing.assert_array_equal(a, b)

    def test_chain_is_stochastic_exactly_when_given_a_generator(self):
        mdl, w = self._setup()
        args = (np.random.default_rng(42).standard_normal((3, 12, 5)), mdl.encode(w),
                mdl.config.schedule(), mdl.params, mdl.config)
        a, b = dff.reverse_chain(*args), dff.reverse_chain(*args)
        assert a.tobytes() == b.tobytes()
        assert np.abs(dff.reverse_chain(*args, np.random.default_rng(1)) - a).max() > 1e-6

    @pytest.mark.parametrize("gamma_mode", dff.GAMMA_MODES)
    @pytest.mark.parametrize("k_total,steps,beta_end", [(40, 10, 0.25), (200, 100, 0.05)])
    def test_folded_chain_matches_unfolded_steps(self, gamma_mode, k_total, steps,
                                                 beta_end):
        # one affine update per step against noise estimate -> clean-state
        # reconstruction -> transition, with the same pinned in-chain noise
        mdl, w = self._setup(k_total, steps, beta_end)
        y_init = np.random.default_rng(42).standard_normal((3, 12, 5))
        args = (y_init, mdl.encode(w), mdl.config.schedule(), mdl.params, mdl.config)
        folded = dff.reverse_chain(*args, _chain_rng(gamma_mode))
        unfolded = reverse_chain_steps(*args, _chain_rng(gamma_mode))
        np.testing.assert_allclose(folded, unfolded, rtol=0, atol=1e-5)
        assert np.abs(folded - y_init).max() > 0.1
        assert y_init.tobytes() == np.random.default_rng(42).standard_normal(
            (3, 12, 5)).tobytes()

    def test_oracle_denoiser_gives_zero_loss(self, monkeypatch):
        # theta == eps makes the noise-matching objective exactly zero
        from trajdiff.training import loss_diffusion
        sched = dff.build_schedule(40, beta_end=0.25, steps=10)
        cfg = ModelConfig(t_future=12, d_phi=2, d_psi=2, denoiser_width=16,
                          denoiser_blocks=1, step_dim=8)
        rng = np.random.default_rng(0)
        # float32 statistics, as a float32 model's converter hands on
        y0 = rng.normal(size=(3, 12, 5)).astype(np.float32)
        g = rng.normal(size=(3, 4)).astype(np.float32)
        ks = np.array([10, 20, 40])
        eps = rng.standard_normal((3, 12, 5))
        params = nm.init_params(dff.denoiser_layout(cfg), np.random.default_rng(1), np.float32)
        monkeypatch.setattr(dff, "denoiser_apply",
                            lambda noisy, k, guid, p, c, s, keep: eps.astype(np.float32))
        loss, _ = loss_diffusion(y0, g, ks, eps, sched, params, cfg)
        assert loss == 0.0


class TestChainTerms:
    """``reverse_chain`` at the default denoiser size (width 128, 3 blocks),
    where the input layer's chain-invariant terms are made once per chain
    and rows go through in blocks of ``CHAIN_BLOCK_ROWS``."""

    CFG = ModelConfig()

    def test_a_float64_scalar_widens_a_float32_product(self):
        # each step's B is a np.float64 scalar so that the chain's
        # np.multiply(B, eps_hat, out=step) is a float64 product: NEP 50
        # promotion, numpy's default from 2.0 (1.x's value-based casting
        # made it float32), which pyproject.toml's numpy floor requires
        eps_hat = np.full(3, 0.1, np.float32)
        assert (np.float64(-0.3) * eps_hat).dtype == np.float64
        assert np.multiply(np.float64(-0.3), eps_hat).dtype == np.float64
        assert (-0.3 * eps_hat).dtype == np.float32

    @staticmethod
    def _params(cfg=CFG):
        # every parameter non-zero, so each term of the split input layer
        # and each bias moves the output
        params = nm.init_params(dff.denoiser_layout(cfg), np.random.default_rng(5),
                                np.float32)
        rng = np.random.default_rng(6)
        for p in params.values():
            p += rng.normal(0.0, 0.01, p.shape).astype(p.dtype)
        return params

    @staticmethod
    def _counted_pool(monkeypatch, pool=None):
        """Send the chain's pool tasks to ``pool`` (the module's by default)
        and return the list each task's block is appended to."""
        pool, blocks = pool or dff._pool(), []

        class Counted:
            def submit(self, fn, block, *args):
                blocks.append(block)
                return pool.submit(fn, block, *args)

        monkeypatch.setattr(dff, "_pool", Counted)
        return blocks

    @staticmethod
    def _inputs(rows):
        rng = np.random.default_rng(rows)
        cfg = TestChainTerms.CFG
        return (rng.standard_normal((rows, cfg.t_future, 5)),
                rng.normal(size=(rows, cfg.d_phi + cfg.d_psi)).astype(np.float32))

    @pytest.mark.parametrize("gamma_mode", dff.GAMMA_MODES)
    # an empty trunk, over two blocks of rows
    @pytest.mark.parametrize("rows, blocks", [(1, 3), (511, 3), (512, 3), (513, 3),
                                              (1100, 3), (600, 0)],
                             ids=["1", "511", "512", "513", "1100", "600-no-blocks"])
    def test_equals_unfolded_steps(self, rows, blocks, gamma_mode):
        cfg = replace(self.CFG, denoiser_blocks=blocks)
        args = (*self._inputs(rows), cfg.schedule(), self._params(cfg), cfg)
        chain = dff.reverse_chain(*args, _chain_rng(gamma_mode))
        unfolded = reverse_chain_steps(*args, _chain_rng(gamma_mode))
        np.testing.assert_allclose(chain, unfolded, rtol=0, atol=1e-5)
        assert np.abs(chain - args[0]).max() > 1.0

    def test_rows_keep_their_bits_across_blocks(self):
        # 1,200 rows run in 4 blocks of 300, their first 600 alone in 4 of 150
        assert (dff.CHAIN_BLOCK_ROWS, dff.CHAIN_MIN_BLOCKS) == (512, 4)
        y_init, g = self._inputs(1200)
        sched, params = self.CFG.schedule(), self._params()
        whole = dff.reverse_chain(y_init, g, sched, params, self.CFG)
        half = dff.reverse_chain(y_init[:600], g[:600], sched, params, self.CFG)
        assert whole[:600].tobytes() == half.tobytes()
        # 513 rows in blocks of 512 and 1 would multiply the last by gemv
        tail = dff.reverse_chain(y_init[1:513], g[1:513], sched, params, self.CFG)
        odd = dff.reverse_chain(y_init[:513], g[:513], sched, params, self.CFG)
        assert odd[1:].tobytes() == tail.tobytes()

    @pytest.mark.parametrize("gamma_mode", dff.GAMMA_MODES)
    @pytest.mark.parametrize("rows, blocks", [(513, 3), (1100, 3), (1360, 3), (5440, 3),
                                              (1100, 0)],
                             ids=["513", "1100", "1360", "5440", "1100-no-blocks"])
    def test_two_workers_equal_one(self, chain_workers, monkeypatch, rows, blocks,
                                   gamma_mode):
        # two CPUs: one pool task per block; one: the blocks on the calling thread
        cfg = replace(self.CFG, denoiser_blocks=blocks)
        args = (*self._inputs(rows), cfg.schedule(), self._params(cfg), cfg)
        tasks = self._counted_pool(monkeypatch)
        chains, submitted = {}, {}
        for n in (2, 1):
            chain_workers(n)
            tasks.clear()
            chains[n] = dff.reverse_chain(*args, _chain_rng(gamma_mode))
            submitted[n] = tasks[:]
        blocks = dff._ChainTerms(args[1], args[3], cfg, args[2]).blocks
        assert submitted == {2: blocks, 1: []} and len(blocks) >= 4
        assert chains[2].tobytes() == chains[1].tobytes()

    @pytest.mark.parametrize("gamma_mode", dff.GAMMA_MODES)
    def test_more_workers_than_cores_equal_one_worker(self, chain_workers, monkeypatch,
                                                      gamma_mode):
        # eleven blocks on eight threads, switching often: each task writes
        # only its block, with its block's noise
        args = (*self._inputs(5440), self.CFG.schedule(), self._params(), self.CFG)
        chain_workers(1)
        one = dff.reverse_chain(*args, _chain_rng(gamma_mode))
        chain_workers(8)
        pool = futures.ThreadPoolExecutor(8)
        tasks = self._counted_pool(monkeypatch, pool)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            eight = dff.reverse_chain(*args, _chain_rng(gamma_mode))
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown()
        assert len(tasks) == 11
        assert eight.tobytes() == one.tobytes()

    @pytest.mark.parametrize("rows, blocks", [(5440, 11), (1360, 4), (513, 4), (512, 1),
                                              (0, 1)])
    def test_blocks_are_even_at_most_512_and_do_not_depend_on_workers(
            self, chain_workers, rows, blocks):
        made = {}
        for n in (2, 1):
            chain_workers(n)
            made[n] = dff._ChainTerms(self._inputs(rows)[1], self._params(), self.CFG,
                                      self.CFG.schedule())
        assert len(made[2].blocks) == blocks and made[2].blocks == made[1].blocks
        starts, stops = zip(*made[2].blocks)
        assert starts[0] == 0 and stops[-1] == rows and starts[1:] == stops[:-1]
        sizes = [b - a for a, b in made[2].blocks]
        assert max(sizes) <= dff.CHAIN_BLOCK_ROWS and max(sizes) - min(sizes) <= 1

    def _first_step(self, y_init, g, params, sched):
        """The state after the chain's first step, run by ``_ChainTerms.run``."""
        terms, y = dff._ChainTerms(g, params, self.CFG, sched), np.array(y_init)
        terms.steps = terms.steps[:1]
        terms.run(y)
        return y

    def test_a_slow_block_leaves_the_others_to_the_other_thread(self, chain_workers,
                                                                monkeypatch):
        y_init, g = self._inputs(1360)
        sched, params = self.CFG.schedule(), self._params()
        chain_workers(1)
        one = self._first_step(y_init, g, params, sched)
        chain_workers(2)
        pool = futures.ThreadPoolExecutor(2)
        monkeypatch.setattr(dff, "_pool", lambda: pool)
        threads, run = {}, dff._ChainTerms._run

        def slow(terms, block, *args):
            threads[block[0]] = threading.get_ident()
            if block[0] == 0:
                threading.Event().wait(0.2)
            return run(terms, block, *args)

        monkeypatch.setattr(dff._ChainTerms, "_run", slow)
        try:
            two = self._first_step(y_init, g, params, sched)
        finally:
            pool.shutdown()
        assert sorted(threads) == [0, 340, 680, 1020]
        assert threads[340] == threads[680] == threads[1020] != threads[0]
        assert two.tobytes() == one.tobytes()

    def test_a_one_thread_pool_runs_the_blocks_in_order(self, chain_workers, monkeypatch):
        y_init, g = self._inputs(1360)
        sched, params = self.CFG.schedule(), self._params()
        chain_workers(1)
        one = self._first_step(y_init, g, params, sched)
        chain_workers(2)
        pool = futures.ThreadPoolExecutor(1)
        tasks = self._counted_pool(monkeypatch, pool)
        ran, run = [], dff._ChainTerms._run

        def logged(terms, block, *args):
            ran.append(block)
            return run(terms, block, *args)

        monkeypatch.setattr(dff._ChainTerms, "_run", logged)
        try:
            two = self._first_step(y_init, g, params, sched)
        finally:
            pool.shutdown()
        assert ran == tasks == [(0, 340), (340, 680), (680, 1020), (1020, 1360)]
        assert two.tobytes() == one.tobytes()

    @pytest.mark.parametrize("blas_threads, cpus", [(2, 8), (4, 8), (None, 8), (1, 1)],
                             ids=["2", "4", "unreadable", "one-cpu"])
    def test_free_or_unknown_blas_keeps_one_worker(self, monkeypatch, blas_threads, cpus):
        # with BLAS free to thread, unreadable or one usable CPU, the blocks
        # run on the calling thread; else each block is one pool task
        y_init, g = self._inputs(1360)
        sched, params, pool = self.CFG.schedule(), self._params(), dff._pool()
        monkeypatch.setattr(dff, "_blas_threads", lambda: blas_threads)
        monkeypatch.setattr(dff.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(dff, "_pool", lambda: pytest.fail("a chain used the pool"))
        inline = self._first_step(y_init, g, params, sched)
        monkeypatch.setattr(dff, "_blas_threads", lambda: 1)
        monkeypatch.setattr(dff.os, "sched_getaffinity", lambda pid: set(range(8)))
        tasks = self._counted_pool(monkeypatch, pool)
        assert self._first_step(y_init, g, params, sched).tobytes() == inline.tobytes()
        assert len(tasks) == 4

    def test_without_an_affinity_set_every_cpu_is_usable(self, monkeypatch):
        # os.sched_getaffinity exists only on some Unix systems; without it
        # the CPU count is os.cpu_count(), for the pool and the choice alike
        y_init, g = self._inputs(1360)
        sched, params = self.CFG.schedule(), self._params()
        monkeypatch.setattr(dff, "_blas_threads", lambda: 2)
        inline = dff.reverse_chain(y_init, g, sched, params, self.CFG)
        monkeypatch.setattr(dff, "_blas_threads", lambda: 1)
        monkeypatch.delattr(dff.os, "sched_getaffinity")
        monkeypatch.setattr(dff.os, "cpu_count", lambda: 3)
        fresh = functools.cache(dff._pool.__wrapped__)
        tasks = self._counted_pool(monkeypatch, fresh())
        try:
            chain = dff.reverse_chain(y_init, g, sched, params, self.CFG)
        finally:
            fresh().shutdown()
        assert dff._cpus() == 3 and fresh()._max_workers == 3 and len(tasks) == 4
        assert chain.tobytes() == inline.tobytes()

    @pytest.mark.parametrize("libc,calls", [
        ("glibc 2.36", [(-8, 1)]), ("uClibc 1.0.45", []), (None, [])],
        ids=["glibc", "other", "unnamed"])
    def test_fresh_pool_holds_glibc_to_one_malloc_arena(self, monkeypatch, libc, calls):
        # the pool threads' block buffers go back to the one shared heap
        # (-8 is M_ARENA_MAX in glibc's <malloc.h>); another C library's
        # malloc is left alone
        made = []

        def mallopt(param, value):
            made.append((param, value))
            return 1

        def confstr(name):
            if libc is None:
                raise ValueError("unrecognized configuration name")
            return libc

        monkeypatch.setattr(dff.os, "confstr", confstr)
        monkeypatch.setattr(dff.ctypes, "CDLL", lambda name: types.SimpleNamespace(
            mallopt=mallopt))
        pool = dff._pool.__wrapped__()
        pool.shutdown()
        assert made == calls

    def test_small_chain_starts_no_thread(self, chain_workers, monkeypatch):
        chain_workers(2)
        monkeypatch.setattr(dff, "_pool", lambda: pytest.fail("a 512-row chain used the pool"))
        threads = threading.active_count()
        dff.reverse_chain(*self._inputs(512), self.CFG.schedule(), self._params(), self.CFG)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_blas_thread_count_is_read_from_openblas(self, threads):
        # the reader runs in a fresh process, where the environment sets it
        code = "from trajdiff import diffusion; print(diffusion._blas_threads())"
        env = {"OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": ":".join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60).stdout.strip()
        assert out in (threads, "None")

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("where", ["y_init", "guidance", "output"])
    def test_non_finite_values_raise_naming_the_step(self, where):
        y_init, g = self._inputs(600)
        params = self._params()
        if where == "y_init":
            y_init[3, 4, 2] = np.nan
        elif where == "guidance":
            g[550, 7] = np.nan      # in the second block
        else:
            params["den.out.w"] = np.full(params["den.out.w"].shape, 3e38, np.float32)
        sched = self.CFG.schedule()
        with pytest.raises(nm.NumericsError, match=f"reverse chain failed at step "
                           f"{sched.K}: non-finite denoiser output"):
            dff.reverse_chain(y_init, g, sched, params, self.CFG)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_guidance_in_the_last_block_raises_naming_the_step(self,
                                                                         chain_workers):
        chain_workers(2)
        y_init, g = self._inputs(1100)
        g[1000, 7] = np.nan
        sched = self.CFG.schedule()
        with pytest.raises(nm.NumericsError, match=f"reverse chain failed at step "
                           f"{sched.K}: non-finite denoiser output"):
            dff.reverse_chain(y_init, g, sched, self._params(), self.CFG)

    @pytest.mark.parametrize("gamma_mode", dff.GAMMA_MODES)
    def test_a_chain_submits_one_pool_task_per_block(self, chain_workers, monkeypatch,
                                                     gamma_mode):
        # 1,360 rows, 100 steps on 2 CPUs: either chain is one round; a
        # stochastic one spawns one generator per block, and each block
        # draws its own noise at every step
        sched, params = self.CFG.schedule(), self._params()
        steps = len(sched.tau)
        assert steps == 100
        chain_workers(2)
        submitted = self._counted_pool(monkeypatch)

        class Drawn:
            """A generator that records every call made of it; its children
            record theirs too."""
            def __init__(self, rng):
                self.rng, self.calls, self.children = rng, [], []

            def spawn(self, n):
                self.calls.append("spawn")
                self.children = [Drawn(child) for child in self.rng.spawn(n)]
                return self.children

            def standard_normal(self, *, out):
                self.calls.append(out.shape)
                return self.rng.standard_normal(out=out)

        for rows, tasks, blocks in ((1360, 4, 4), (512, 0, 1)):   # 512 rows: the calling thread
            submitted.clear()
            rng = Drawn(np.random.default_rng(1)) if gamma_mode == "ddpm-matching" else None
            dff.reverse_chain(*self._inputs(rows), sched, params, self.CFG, rng)
            assert len(submitted) == tasks
            if rng is not None:
                assert rng.calls == ["spawn"] and len(rng.children) == blocks
                # the jump to alpha = 1 draws none
                assert [child.calls for child in rng.children] == [
                    [(rows // blocks, 12, 5)] * (steps - 1)] * blocks

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("faults, message", [
        # (block start, step index, what fails): the earliest step wins
        ([(1020, 2, "denoiser"), (0, 5, "denoiser")], "reverse chain failed at step {2}: "
         "non-finite denoiser output"),
        ([(0, 6, "denoiser"), (680, 3, "state")], "non-finite state after step {3}"),
        # at one step, the denoiser before the state, as over all rows at once
        ([(340, 4, "state"), (1020, 4, "denoiser")], "reverse chain failed at step {4}: "
         "non-finite denoiser output"),
        ([(0, 4, "state"), (1020, 7, "denoiser")], "non-finite state after step {4}"),
    ], ids=["denoiser-denoiser", "denoiser-state", "same-step", "state-denoiser"])
    def test_blocks_failing_at_different_steps_raise_the_earliest(
            self, chain_workers, monkeypatch, workers, faults, message):
        # a deterministic chain: one round, so every block runs every step
        y_init, g = self._inputs(1360)
        sched = self.CFG.schedule().with_steps(10)
        terms = dff._ChainTerms(g, self._params(), self.CFG, sched)
        assert [a for a, _ in terms.blocks] == [0, 340, 680, 1020]
        ks = [k for k, *_ in terms.steps]
        denoise = dff._ChainTerms._denoise

        def failing(terms, start, *args):
            eps = denoise(terms, start, *args)
            state, k = args[-2:]
            if (start, ks.index(k), "denoiser") in faults:
                eps[0, 0] = np.nan
            if (start, ks.index(k), "state") in faults:
                state[1, 0, 0] = np.inf      # the step's update keeps it
            return eps

        monkeypatch.setattr(dff._ChainTerms, "_denoise", failing)
        chain_workers(workers)
        with pytest.raises(nm.NumericsError) as err:
            dff.reverse_chain(y_init, g, sched, self._params(), self.CFG)
        assert str(err.value) == message.format(*ks)

    @pytest.mark.parametrize("failing", [0, 1], ids=["first-block", "second-block"])
    def test_run_waits_for_every_block_before_raising(self, chain_workers, monkeypatch,
                                                      failing):
        chain_workers(2)
        pool = futures.ThreadPoolExecutor(2)    # two blocks run at once
        monkeypatch.setattr(dff, "_pool", lambda: pool)
        started, finished, run = threading.Event(), [], dff._ChainTerms._run

        def task(terms, block, *args):
            index = terms.blocks.index(block)
            if index == 0:
                assert started.wait(10)     # the second block is running
            elif index == 1:
                started.set()
            if index == failing:
                raise MemoryError("block failed")
            threading.Event().wait(0.2)
            failure = run(terms, block, *args)
            finished.append(block)
            return failure

        monkeypatch.setattr(dff._ChainTerms, "_run", task)
        try:
            with pytest.raises(MemoryError, match="block failed"):
                dff.reverse_chain(*self._inputs(1100), self.CFG.schedule(), self._params(),
                                  self.CFG)
        finally:
            pool.shutdown()
        assert len(finished) == 3
