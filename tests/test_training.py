"""Loss components, optimizer behavior, the fit loop and resumption."""

import gc
import json
import math
import os
import resource
import signal
import subprocess
import sys
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from conftest import far_from_noise
from references import (ComputationRecord, backward, batch_losses_tape, constant,
                        convert_tape, converter_losses_tape, denoiser_tape, encoder_tape,
                        finite_difference_check, gaussian_at, log_pdf, loss_diffusion_tape,
                        mean, mul, parameter, parameters, sum_)
import references
import trajdiff
from trajdiff import checkpoint, data, diffusion, distribution, guidance, training
from trajdiff import numerics as nm
from trajdiff.distribution import SIGMA_FLOOR
from trajdiff.model import Model, ModelConfig

MICRO = ModelConfig(conv_channels=4, d_phi=4, d_psi=4, denoiser_width=8,
                    denoiser_blocks=1, step_dim=4, k_total=20, steps=10,
                    beta_end=0.4)


def _windows(n_scenes=2, peds=3, frames=25, seed=1, **kw):
    cfg = data.SynthConfig(n_scenes=n_scenes, peds_per_scene=peds,
                           frames=frames, seed=seed, **kw)
    return data.window_scenes(data.synthesize_scenes(cfg), stride=5)


def _sigma_one_raw(future):
    # raw statistics whose constrained view is N(future, I, rho=0)
    n, t, _ = future.shape
    raw = np.zeros((n, t, 5))
    raw[..., :2] = future
    raw[..., 2:4] = np.log(np.expm1(1.0 - SIGMA_FLOOR))
    return raw


class TestLossDiffusion:
    def _inputs(self, rows=6):
        rng = np.random.default_rng(0)
        sched = diffusion.build_schedule(20, beta_end=0.4, steps=10)
        cfg = ModelConfig(t_future=12, d_phi=2, d_psi=2, denoiser_width=8,
                          denoiser_blocks=1, step_dim=4)
        params = nm.init_params(diffusion.denoiser_layout(cfg), rng, np.float32)
        # float32 statistics, as a float32 model's converter hands on
        y0 = rng.normal(size=(rows, 12, 5)).astype(np.float32)
        g = rng.normal(size=(rows, 4)).astype(np.float32)
        ks = sched.tau[rng.integers(0, 10, size=rows)]
        eps = rng.standard_normal((rows, 12, 5))
        return y0, g, ks, eps, sched, params, cfg

    def test_oracle_denoiser_zero(self, monkeypatch):
        y0, g, ks, eps, sched, params, cfg = self._inputs()
        monkeypatch.setattr(diffusion, "denoiser_apply",
                            lambda noisy, k, guid, p, c, s, keep: eps.astype(np.float32))
        loss, _ = training.loss_diffusion(y0, g, ks, eps, sched, params, cfg)
        assert loss == 0.0

    def test_zero_denoiser_near_one(self, monkeypatch):
        rows = 16
        y0, g, ks, eps, sched, params, cfg = self._inputs(rows)
        monkeypatch.setattr(diffusion, "denoiser_apply", lambda noisy, k, guid, p, c, s, keep:
                            np.zeros((rows, 12, 5), np.float32))
        loss, _ = training.loss_diffusion(y0, g, ks, eps, sched, params, cfg)
        # mean of eps^2 over rows*60 elements: 3 sigma band of chi2 mean
        dim = rows * 60
        assert abs(loss - 1.0) < 3 * math.sqrt(2.0 / dim)

    def test_batch_order_permutation_invariant(self):
        y0, g, ks, eps, sched, params, cfg = self._inputs()
        loss, _ = training.loss_diffusion(y0, g, ks, eps, sched, params, cfg)
        perm = np.random.default_rng(5).permutation(6)
        loss_p, _ = training.loss_diffusion(y0[perm], g[perm], ks[perm], eps[perm], sched,
                                            params, cfg)
        assert math.isclose(loss, loss_p, rel_tol=1e-5)

    @pytest.mark.parametrize("which", ["y0", "guidance"])
    def test_float64_inputs_into_float32_parameters_raise(self, which):
        # a float64 input would run a mixed pass: float64 loss, gradients of
        # both dtypes
        y0, g, ks, eps, sched, params, cfg = self._inputs()
        if which == "y0":
            y0 = y0.astype(np.float64)
        else:
            g = g.astype(np.float64)
        with pytest.raises(nm.NumericsError, match="float64"):
            training.loss_diffusion(y0, g, ks, eps, sched, params, cfg)



def _draw_step_noise_per_window(window_sizes, schedule, rng, t_future, channels=5):
    """The reference for ``draw_step_noise``: one scalar draw per window."""
    ks = []
    for n in window_sizes:
        k = int(schedule.tau[rng.integers(0, len(schedule.tau))])
        ks.extend([k] * n)
    eps = rng.standard_normal((int(sum(window_sizes)), t_future, channels))
    return np.asarray(ks, dtype=np.int64), eps


@pytest.mark.parametrize("k_total,steps", [
    pytest.param(20, 10, marks=far_from_noise("0.6006")),
    pytest.param(100, 100, marks=far_from_noise("0.0782")),
    pytest.param(100, 7, marks=far_from_noise("0.0782")), (1000, 50)])
def test_draw_step_noise_equals_per_window_draws(k_total, steps):
    schedule = diffusion.build_schedule(k_total, steps=steps)
    for seed in range(20):
        sizes = np.random.default_rng(seed).integers(1, 9, size=seed % 7).tolist()
        fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            ks, eps = training.draw_step_noise(sizes, schedule, fast, 12)
            ks_ref, eps_ref = _draw_step_noise_per_window(sizes, schedule, ref, 12)
            assert ks.dtype == ks_ref.dtype and ks.tobytes() == ks_ref.tobytes()
            assert eps.tobytes() == eps_ref.tobytes()
            assert fast.bit_generator.state == ref.bit_generator.state

class TestLossLikelihood:
    def test_unit_sigma_at_means(self):
        rng = np.random.default_rng(0)
        future = rng.normal(size=(3, 12, 2))
        raw = _sigma_one_raw(future)
        loss, _ = training.loss_likelihood(future, raw)
        expected = 3 * 12 * math.log(2 * math.pi)
        assert math.isclose(loss, expected, rel_tol=1e-4)

    def test_shrinking_sigma_decreases_loss_at_mode(self):
        rng = np.random.default_rng(1)
        future = rng.normal(size=(2, 12, 2))
        raw = _sigma_one_raw(future)
        base, _ = training.loss_likelihood(future, raw)
        raw2 = raw.copy()
        raw2[..., 2:4] -= 2.0
        smaller, _ = training.loss_likelihood(future, raw2)
        assert smaller < base

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(2)
        future = rng.normal(size=(3, 12, 2))
        raw = rng.normal(size=(3, 12, 5))
        loss, _ = training.loss_likelihood(future, raw, n_windows=1)
        naive = 0.0
        for n in range(3):
            for t in range(12):
                naive -= log_pdf(future[n, t], *gaussian_at(raw, n, t))
        assert abs(loss - naive) < 1e-5


class TestLossConsistency:
    def test_exact_match_is_zero(self):
        future = np.random.default_rng(0).normal(size=(3, 12, 2))
        raw = _sigma_one_raw(future)
        loss, _ = training.loss_consistency(future, raw)
        assert abs(loss) < 1e-10

    def test_three_four_five_offset(self):
        future = np.random.default_rng(1).normal(size=(4, 12, 2))
        raw = _sigma_one_raw(future)
        raw[:, 0, 0] += 3.0
        raw[:, 0, 1] += 4.0
        loss, _ = training.loss_consistency(future, raw)
        assert math.isclose(loss, 25.0, rel_tol=1e-5)

    def test_only_first_future_step_matters(self):
        future = np.random.default_rng(2).normal(size=(2, 12, 2))
        raw = _sigma_one_raw(future)
        base, _ = training.loss_consistency(future, raw)
        raw[:, 1:, :2] += 99.0
        after, _ = training.loss_consistency(future, raw)
        assert math.isclose(base, after, abs_tol=1e-9)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_converter_losses_match_tape(dtype):
    # the values [likelihood, consistency, *y0n] and every conv.* gradient
    # of their dot product with ``proj`` against the primitive tape of the
    # converter, constraint map, density, losses and normalization
    windows = _windows(n_scenes=2, peds=4, frames=40)
    future = np.concatenate([w.future for w in windows])
    proj = np.random.default_rng(3).normal(size=2 + future.size // 2 * 5)

    def model():
        mdl = Model.initialize(ModelConfig(), 4, dtype)
        mdl.norm = training.freeze_normalization(mdl, windows)
        return mdl

    mdl, g = model(), proj.astype(dtype)
    (llh, con, y0n), losses_backward = training.converter_losses(
        future, mdl.params, mdl.norm, len(windows))
    grads = losses_backward(g[0], g[1], g[2:].reshape(y0n.shape))
    got = [np.concatenate([np.array([llh, con], dtype), y0n.reshape(-1)])]
    got += [grads[k] for k in sorted(grads)]
    mdl = model()
    params = parameters(mdl.params)
    with ComputationRecord():
        out = converter_losses_tape(future, params, mdl.norm, len(windows))
        loss = sum_(mul(out, constant(proj, dtype)))
    ref = backward(loss, params)
    want = [out.data] + [ref[k] for k in sorted(ref) if k.startswith("conv.")]
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype == dtype
        assert a.tobytes() == b.tobytes()


class TestTrainStep:
    def test_converter_grads_flow_only_through_diffusion_when_weighted_out(self):
        windows = _windows()
        mdl = Model.initialize(MICRO, 0)
        mdl.norm = training.freeze_normalization(mdl, windows)
        rng = np.random.default_rng(0)
        total, _, _ = training.batch_losses(windows[:2], mdl, rng, (1.0, 0.0, 0.0))
        grads = nm.backward(total)
        rng2 = np.random.default_rng(0)
        emb = mdl.encode(windows[:2])
        fut = np.concatenate([w.future for w in windows[:2]])
        (_, _, y0n), converter_backward = training.converter_losses(fut, mdl.params,
                                                                    mdl.norm, 2)
        ks, eps = training.draw_step_noise([w.n_peds for w in windows[:2]],
                                           mdl.schedule, rng2, 12)
        _, diffusion_backward = training.loss_diffusion(y0n, emb, ks, eps, mdl.schedule,
                                                        mdl.params, mdl.config)
        _, g_y0n, _ = diffusion_backward(np.float32(1.0))
        zero = np.float32(0.0)
        grads2 = converter_backward(zero, zero, g_y0n)
        for name in mdl.params:
            if name.startswith("conv."):
                np.testing.assert_allclose(grads[name], grads2[name], atol=1e-7)

    def test_step_is_deterministic(self):
        windows = _windows()

        def one_run():
            mdl = Model.initialize(MICRO, 3)
            mdl.norm = training.freeze_normalization(mdl, windows)
            opt = training.AdamState(mdl)
            cfg = training.TrainConfig(seed=3)
            training.train_step(windows[:2], mdl, cfg, opt,
                                np.random.default_rng(9))
            return {k: p.copy() for k, p in mdl.params.items()}

        a, b = one_run(), one_run()
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])

    def test_loss_decreases_on_small_synthetic_set(self, tmp_path):
        # 50-window set, 200 steps at package defaults
        windows = _windows(n_scenes=5, peds=4, frames=65, seed=7)[:50]
        assert len(windows) == 50
        cfg = training.TrainConfig(batch_size=8, epochs=29, seed=0,
                                   checkpoint_every=10 ** 6)
        _, rows = training.fit(windows, cfg, MICRO, out_dir=str(tmp_path))
        assert len(rows) >= 200
        first = np.mean([r[1] for r in rows[:10]])
        at200 = np.mean([r[1] for r in rows[190:200]])
        assert at200 < 0.7 * first

    def test_lambda_scaling_scales_loss_and_keeps_gradient_direction(self):
        windows = _windows()
        mdl = Model.initialize(MICRO, 1)
        mdl.norm = training.freeze_normalization(mdl, windows)

        def loss_and_grads(scale):
            rng = np.random.default_rng(4)
            total, _, _ = training.batch_losses(windows[:2], mdl, rng, (scale, scale, scale))
            grads = nm.backward(total)
            vec = np.concatenate([g.ravel().astype(np.float64)
                                  for _, g in sorted(grads.items())])
            return float(total[0]), vec

        l1, g1 = loss_and_grads(1.0)
        l3, g3 = loss_and_grads(3.0)
        assert math.isclose(l3, 3.0 * l1, rel_tol=1e-4)
        cos = g1 @ g3 / (np.linalg.norm(g1) * np.linalg.norm(g3))
        assert cos > 1.0 - 1e-6
        assert math.isclose(np.linalg.norm(g3), 3 * np.linalg.norm(g1),
                            rel_tol=1e-4)

    def test_spent_activations_are_freed_before_the_encoder_backward(self, monkeypatch):
        # the joint backward runs once: what the denoiser and the converter
        # kept is gone, by reference counting alone, when the encoders' starts
        windows = _windows()
        mdl = Model.initialize(MICRO, 0)
        mdl.norm = training.freeze_normalization(mdl, windows)
        kept, dead = [], []
        denoiser_apply, convert = diffusion.denoiser_apply, distribution.convert_trajectory
        encoder_backward = guidance.encoder_backward

        def keeping_denoiser(*args, keep=None, **kw):
            out = denoiser_apply(*args, keep=keep, **kw)
            kept.append(weakref.ref(keep["x_in"]))
            return out

        def keeping_converter(y, params, keep=None):
            out = convert(y, params, keep)
            kept.append(weakref.ref(keep["h"]))
            return out

        def spy(*args):
            dead.append([ref() is None for ref in kept])
            return encoder_backward(*args)

        monkeypatch.setattr(diffusion, "denoiser_apply", keeping_denoiser)
        monkeypatch.setattr(distribution, "convert_trajectory", keeping_converter)
        monkeypatch.setattr(guidance, "encoder_backward", spy)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            total, _, _ = training.batch_losses(windows[:3], mdl, np.random.default_rng(0))
            assert [ref() is None for ref in kept] == [False, False]
            nm.backward(total)
        finally:
            if was_enabled:
                gc.enable()
        assert dead == [[True, True]]

    @pytest.mark.filterwarnings("ignore:overflow encountered in multiply$:RuntimeWarning")
    def test_non_finite_loss_aborts_with_diagnostics(self):
        windows = _windows()
        mdl = Model.initialize(MICRO, 0)
        mdl.norm = training.freeze_normalization(mdl, windows)
        opt = training.AdamState(mdl)
        mdl.params["den.out.b"][...] = 1e30
        with pytest.raises(nm.NumericsError, match="optimizer step"):
            training.train_step(windows[:1], mdl, training.TrainConfig(), opt,
                                np.random.default_rng(0))


class TestRecordedDenoiser:
    def test_train_steps_match_tape_reference(self, monkeypatch):
        # two joint steps with denoiser refreshes, the recorded operations
        # (encoders, converter with its losses, denoiser, squared error and
        # weighted sum) against the primitive tape of the same passes
        windows = _windows(n_scenes=2, peds=4, frames=40)
        assert len(windows) >= 8

        def two_steps():
            mdl = Model.initialize(ModelConfig(), 5)
            mdl.norm = training.freeze_normalization(mdl, windows)
            opt = training.AdamState(mdl)
            cfg = training.TrainConfig(seed=5, denoiser_boost=2)
            for step in range(2):
                training.train_step(windows[4 * step:4 * step + 4], mdl, cfg, opt,
                                    np.random.default_rng([5, 11, step]))
            return ({k: p.tobytes() for k, p in mdl.params.items()},
                    {k: a.tobytes() for k, a in opt.arrays().items()})

        params, moments = two_steps()
        monkeypatch.setattr(diffusion, "denoiser_apply", denoiser_tape)
        monkeypatch.setattr(training, "batch_losses", batch_losses_tape)
        monkeypatch.setattr(training, "loss_diffusion", loss_diffusion_tape)
        ref_params, ref_moments = two_steps()
        assert params == ref_params
        assert moments == ref_moments

    def test_one_denoiser_backward_and_update_per_pass(self, monkeypatch):
        # the calls the benchmark's per-layer tracing counts: one encoder
        # and one converter call per joint step, one denoiser call over the
        # batch's rows, one backward and one Adam update for the joint pass
        # and for each of the 5 refreshes
        windows = _windows()
        mdl = Model.initialize(MICRO, 0)
        mdl.norm = training.freeze_normalization(mdl, windows)
        opt = training.AdamState(mdl)
        rows = []
        counts = dict.fromkeys(["backward", "adam_update", "encode_windows",
                                "convert_trajectory"], 0)
        apply = diffusion.denoiser_apply

        def counting_apply(state, *args, **kwargs):
            rows.append(state.shape[0])
            return apply(state, *args, **kwargs)

        def count(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        monkeypatch.setattr(diffusion, "denoiser_apply", counting_apply)
        for module, name in ((nm, "backward"), (training, "adam_update"),
                             (guidance, "encode_windows"),
                             (distribution, "convert_trajectory")):
            count(module, name)
        batch = windows[:3]
        training.train_step(batch, mdl, training.TrainConfig(denoiser_boost=5), opt,
                            np.random.default_rng(0))
        assert rows == [sum(w.n_peds for w in batch)] * 6
        assert counts == {"backward": 6, "adam_update": 6, "encode_windows": 1,
                          "convert_trajectory": 1}

    def test_each_pass_records_one_entry(self, monkeypatch):
        # the joint pass over every parameter, then each of the 5 refreshes
        # over the den.* parameters: one pass (``_make``) and one backward each
        windows = _windows()
        mdl = Model.initialize(MICRO, 0)
        mdl.norm = training.freeze_normalization(mdl, windows)
        opt = training.AdamState(mdl)
        passes, made = [], []
        make, sweep = nm._make, nm.backward

        def recording_make(loss, grad_fn):
            made.append(loss)
            return make(loss, grad_fn)

        def recording_backward(training_pass):
            grads = sweep(training_pass)
            passes.append((len(made), sorted(grads)))
            made.clear()
            return grads

        monkeypatch.setattr(nm, "_make", recording_make)
        monkeypatch.setattr(nm, "backward", recording_backward)
        training.train_step(windows[:3], mdl, training.TrainConfig(denoiser_boost=5), opt,
                            np.random.default_rng(0))
        den = sorted(k for k in mdl.params if k.startswith("den."))
        assert passes == [(1, sorted(mdl.params))] + [(1, den)] * 5


class TestSkippedInputGradients:
    """The diffusion loss's backward without input gradients, and ``matmul``
    and ``conv1d`` for a constant input, compute none; the parameter
    gradients are the same bits as when they are computed."""

    @staticmethod
    def _grads(loss_fn, params, inputs, as_params):
        wrap = parameter if as_params else constant
        ids = {id(p) for p in params.values()}
        dtype = next(iter(params.values())).dtype
        with ComputationRecord() as rec:
            loss = loss_fn(*(wrap(x, dtype) for x in inputs))
            readers = sum(any(id(t) in ids for t in e.inputs) for e in rec.entries)
            skipped = [e for e in rec.entries
                       if any(not t.requires_grad for t in e.inputs)]
            outs = [e.grad_fn(np.ones_like(e.out.data)) for e in skipped]
        grads = backward(loss, params)
        nones = sum(g is None for out in outs for g in out)
        return {k: g.tobytes() for k, g in grads.items()}, nones, readers

    def test_boost_pass(self):
        mdl = Model.initialize(MICRO, 2)
        den = {k: p for k, p in mdl.params.items() if k.startswith("den.")}
        rng = np.random.default_rng(3)
        # float32 statistics, as a float32 model's converter hands on
        y0n = rng.normal(size=(9, 12, 5)).astype(np.float32)
        guid = rng.normal(size=(9, MICRO.d_phi + MICRO.d_psi)).astype(np.float32)
        ks, eps = training.draw_step_noise([4, 5], mdl.schedule, rng, 12)
        _, backward = training.loss_diffusion(y0n, guid, ks, eps, mdl.schedule, den, MICRO)
        fast, *skipped = backward(np.float32(1.0), inputs=False)
        full, g_y0n, g_guid = backward(np.float32(1.0))
        assert skipped == [None, None]
        assert (g_y0n.shape, g_guid.shape) == (y0n.shape, guid.shape)
        assert sorted(fast) == sorted(full) == sorted(den)
        assert all(fast[k].tobytes() == full[k].tobytes() for k in den)

    def test_converter(self):
        # the converter's primitive tape, whose conv1d reads the constant future
        mdl = Model.initialize(MICRO, 4)
        conv = parameters({k: p for k, p in mdl.params.items() if k.startswith("conv.")})
        future = np.random.default_rng(5).normal(scale=0.3, size=(7, 12, 2))

        def loss_fn(fut):
            return references.loss_likelihood(fut, convert_tape(fut, conv), n_windows=2)

        fast, nones, _ = self._grads(loss_fn, conv, (future,), as_params=False)
        full, _, _ = self._grads(loss_fn, conv, (future,), as_params=True)
        assert nones >= 1
        assert fast == full

    def test_encoder(self):
        # the history encoder's primitive tape
        mdl = Model.initialize(MICRO, 8)
        hist = parameters({k: p for k, p in mdl.params.items() if k.startswith("hist.")})
        observed = np.random.default_rng(9).normal(scale=0.3, size=(6, MICRO.t_obs, 2))

        def loss_fn(obs):
            ctx = encoder_tape(obs, hist, "hist", MICRO)
            return mean(mul(ctx, ctx))

        fast, nones, _ = self._grads(loss_fn, hist, (observed,), as_params=False)
        full, _, _ = self._grads(loss_fn, hist, (observed,), as_params=True)
        # the conv taps' matmul reads the constant observations: no gradient
        assert nones == 1
        assert fast == full


def test_freed_heap_is_kept_between_passes():
    # a pass frees megabytes at once; by default glibc's malloc returns them
    # to the OS and the next pass faults them in again, 4 KB at a time
    # (about 14,000 faults for the five passes below in a fresh process)
    if not training._keep_freed_heap():
        pytest.skip("needs glibc's mallopt")

    def one_pass():
        arrays = [np.ones(50_000, dtype=np.float32) for _ in range(60)]   # 12 MB
        del arrays

    one_pass()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        one_pass()
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


def _reference_adam(params, grads, m, v, t, lr, clip):
    """The per-key Adam loop that ``adam_update`` replaces; mutates m, v."""
    gnorm = math.sqrt(sum(float((g.astype(np.float64) ** 2).sum())
                          for g in grads.values()))
    scale = 1.0 if gnorm <= clip or gnorm == 0.0 else clip / gnorm
    bc1 = 1.0 - training.ADAM_BETA1 ** t
    bc2 = 1.0 - training.ADAM_BETA2 ** t
    out = {}
    for k, p in params.items():
        g = grads[k] * scale
        m[k] = training.ADAM_BETA1 * m[k] + (1.0 - training.ADAM_BETA1) * g
        v[k] = training.ADAM_BETA2 * v[k] + (1.0 - training.ADAM_BETA2) * (g * g)
        step = lr * (m[k] / bc1) / (np.sqrt(v[k] / bc2) + training.ADAM_EPS)
        out[k] = p - step
    return out


class TestFlatAdam:
    @pytest.mark.parametrize("clip", [1e9, 0.5], ids=["unclipped", "clipped"])
    def test_matches_per_key_loop(self, clip, monkeypatch):
        # joint updates of every parameter interleaved with denoiser-group
        # updates, as in a training step with boost passes
        monkeypatch.setattr(training, "GRAD_CLIP", clip)
        mdl = Model.initialize(MICRO, 6)
        ref = {k: p.copy() for k, p in mdl.params.items()}
        m = {k: np.zeros_like(p) for k, p in ref.items()}
        v = {k: np.zeros_like(p) for k, p in ref.items()}
        opt = training.AdamState(mdl)
        rng = np.random.default_rng(7)
        for step in range(1, 9):
            keys = list(ref) if step % 3 == 1 else [k for k in ref if k.startswith("den.")]
            grads = {k: rng.normal(size=ref[k].shape).astype(np.float32) for k in keys}
            training.adam_update(mdl, grads, opt, 1e-2)
            ref.update(_reference_adam({k: ref[k] for k in keys}, grads, m, v,
                                       step, 1e-2, clip))
            assert opt.t == step
        for k in ref:
            assert mdl.params[k].tobytes() == ref[k].tobytes()
            assert opt.m[mdl.spans[k]].tobytes() == m[k].tobytes()
            assert opt.v[mdl.spans[k]].tobytes() == v[k].tobytes()

    def test_arrays_round_trip(self):
        mdl = Model.initialize(MICRO, 6)
        opt = training.AdamState(mdl)
        grads = {k: np.full(p.shape, 0.5, np.float32) for k, p in mdl.params.items()}
        training.adam_update(mdl, grads, opt, 1e-3)
        arrays = opt.arrays()
        assert set(arrays) == {"adam.t", "adam.m", "adam.v"}
        back = training.AdamState.from_arrays(mdl, arrays)
        assert back.t == 1
        for name, arr in back.arrays().items():
            assert arr.shape == arrays[name].shape
            assert arr.tobytes() == arrays[name].tobytes()

    def test_arrays_are_the_state_buffers(self):
        # exactly three arrays, the moments the state's own flat buffers on
        # the parameter layout, so a checkpoint save copies nothing first
        mdl = Model.initialize(MICRO, 6)
        opt = training.AdamState(mdl)
        arrays = opt.arrays()
        assert list(arrays) == ["adam.t", "adam.m", "adam.v"]
        assert np.shares_memory(arrays["adam.m"], opt.m)
        assert np.shares_memory(arrays["adam.v"], opt.v)
        assert opt.m.shape == opt.v.shape == mdl.flat.shape
        assert opt.m.dtype == opt.v.dtype == mdl.flat.dtype
        assert arrays["adam.t"].dtype == np.int64 and arrays["adam.t"].tolist() == [0]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_temporaries_are_the_halves_of_the_norm_buffer(self, dtype):
        # one float64 scratch buffer: the update's two temporaries are its
        # halves, written only after the norm is summed from it
        mdl = Model.initialize(MICRO, 6, dtype=dtype)
        opt = training.AdamState(mdl)
        assert opt._sq.dtype == np.float64 and opt._sq.size >= mdl.flat.size
        for half in (opt._a, opt._b):
            assert half.shape == mdl.flat.shape and half.dtype == mdl.flat.dtype
            assert np.shares_memory(half, opt._sq)
        assert not np.shares_memory(opt._a, opt._b)
        assert opt._sq.nbytes == opt._a.nbytes + opt._b.nbytes

    def test_float64_model_matches_per_key_loop(self, monkeypatch):
        # a float64 model's temporaries fill the norm buffer whole
        monkeypatch.setattr(training, "GRAD_CLIP", 1e9)
        mdl = Model.initialize(MICRO, 6, dtype=np.float64)
        ref = {k: p.copy() for k, p in mdl.params.items()}
        m = {k: np.zeros_like(p) for k, p in ref.items()}
        v = {k: np.zeros_like(p) for k, p in ref.items()}
        opt, rng = training.AdamState(mdl), np.random.default_rng(7)
        for step in range(1, 5):
            keys = list(ref) if step % 2 else [k for k in ref if k.startswith("den.")]
            grads = {k: rng.normal(size=ref[k].shape) for k in keys}
            training.adam_update(mdl, grads, opt, 1e-2)
            ref.update(_reference_adam({k: ref[k] for k in keys}, grads, m, v,
                                       step, 1e-2, 1e9))
        for k in ref:
            assert mdl.params[k].tobytes() == ref[k].tobytes()

    def test_non_contiguous_group_rejected(self):
        mdl = Model.initialize(MICRO, 6)
        opt = training.AdamState(mdl)
        grads = {k: np.zeros(mdl.params[k].shape, np.float32) for k in ("conv.b1", "den.in.b")}
        with pytest.raises(nm.NumericsError, match="contiguous"):
            training.adam_update(mdl, grads, opt, 1e-3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_gradient_raises_before_the_state_changes(self, bad):
        mdl = Model.initialize(MICRO, 6)
        opt = training.AdamState(mdl)
        rng = np.random.default_rng(8)

        def grads():
            return {k: rng.normal(size=p.shape).astype(np.float32)
                    for k, p in mdl.params.items()}

        training.adam_update(mdl, grads(), opt, 1e-3)      # non-zero moments
        before = {k: a.tobytes() for k, a in opt.arrays().items()}
        params = mdl.flat.tobytes()
        bad_grads = grads()
        bad_grads["den.in.w"][2, 3] = bad
        with pytest.raises(nm.NumericsError, match="non-finite gradient"):
            training.adam_update(mdl, bad_grads, opt, 1e-3)
        assert {k: a.tobytes() for k, a in opt.arrays().items()} == before
        assert mdl.flat.tobytes() == params
        assert opt.t == 1


class TestParameterBuffer:
    """Every parameter is a view into the model's one flat buffer, from
    each way a model is made and after each way it is trained."""

    @staticmethod
    def _assert_views(mdl):
        assert mdl.flat.size == mdl.n_parameters() == sum(p.size for p in mdl.params.values())
        for k, p in mdl.params.items():
            assert np.shares_memory(p, mdl.flat), k
            assert p.dtype == mdl.flat.dtype

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_initialize_and_load(self, tmp_path, dtype):
        # a model saves and loads in its own dtype, with the same bytes
        mdl = Model.initialize(MICRO, 0, dtype)
        self._assert_views(mdl)
        assert mdl.flat.dtype == dtype
        assert list(mdl.params) == list(MICRO.param_layout())
        mdl.save(tmp_path / "m.tjdf")
        loaded = Model.load(tmp_path / "m.tjdf")[0]
        self._assert_views(loaded)
        assert loaded.flat.dtype == dtype
        assert loaded.flat.tobytes() == mdl.flat.tobytes()

    def test_train_step_with_boosts_updates_in_place(self):
        windows = _windows()
        mdl = Model.initialize(MICRO, 0)
        mdl.norm = training.freeze_normalization(mdl, windows)
        opt = training.AdamState(mdl)
        flat, views, before = mdl.flat, dict(mdl.params), mdl.flat.copy()
        training.train_step(windows[:3], mdl, training.TrainConfig(denoiser_boost=2), opt,
                            np.random.default_rng(0))
        assert mdl.flat is flat
        assert all(mdl.params[k] is views[k] for k in views)
        self._assert_views(mdl)
        assert all(np.any(mdl.params[k] != before[mdl.spans[k]].reshape(views[k].shape))
                   for k in ("conv.w2", "hist.proj.w", "den.out.w"))

    def test_resume(self, tmp_path):
        cfg = training.TrainConfig(batch_size=4, epochs=3, seed=0, checkpoint_every=2)
        training.fit(_windows(), cfg, MICRO, out_dir=str(tmp_path))
        record = training._run_record(_windows(), cfg, total_steps=3, freeze_at=1)
        path = tmp_path / "ckpt_000002.tjdf"
        mdl, opt, rows = training._resume(str(path), record, MICRO,
                                          str(tmp_path / "training_log.csv"))
        assert [row[0] for row in rows] == [1, 2]
        self._assert_views(mdl)
        # each parameter's moments are its span of the state's flat buffers,
        # with the bytes the checkpoint stored
        _, saved, _ = checkpoint.load_container(path)
        assert opt.m.shape == opt.v.shape == mdl.flat.shape
        for k in mdl.params:
            for mv in ("m", "v"):
                span = getattr(opt, mv)[mdl.spans[k]]
                assert np.shares_memory(span, opt.arrays()[f"adam.{mv}"])
                assert span.tobytes() == saved[f"adam.{mv}"][mdl.spans[k]].tobytes()


class TestObjectiveGradients:
    def test_full_objective_passes_finite_differences(self):
        # micro model: widths <= 8, N = 2, T' = 3
        micro = ModelConfig(t_future=3, conv_channels=3, d_phi=3, d_psi=3,
                            denoiser_width=8, denoiser_blocks=1, step_dim=4,
                            k_total=10, steps=5, beta_end=0.5)
        cfg = data.SynthConfig(n_scenes=1, peds_per_scene=2, frames=11, seed=2)
        windows = data.window_scenes(data.synthesize_scenes(cfg), t_fut=3,
                                     stride=11)
        assert windows and windows[0].n_peds == 2
        mdl = Model.initialize(micro, 0, np.float64)
        mdl.norm = training.freeze_normalization(mdl, windows)

        def f(params):
            # the same step and noise draws on every call; ``params``
            # are the model's own views
            return training.batch_losses(windows, mdl, np.random.default_rng(5))[0]

        report = finite_difference_check(f, mdl.params, step=1e-3,
                                         tolerance=1e-2)
        assert report["pass"], report

    def test_float64_check_beside_float32_training(self):
        # one process holds a float32 model and a float64 one: a float64
        # gradient check between two float32 training steps leaves the
        # float32 model's bytes as the two steps alone write them
        windows = _windows()
        cfg = training.TrainConfig(denoiser_boost=1)

        def two_steps(between):
            mdl = Model.initialize(MICRO, 0)
            mdl.norm = training.freeze_normalization(mdl, windows)
            opt = training.AdamState(mdl)
            training.train_step(windows[:2], mdl, cfg, opt, np.random.default_rng(0))
            between()
            training.train_step(windows[2:], mdl, cfg, opt, np.random.default_rng(1))
            assert mdl.flat.dtype == np.float32
            return mdl.flat.tobytes()

        def float64_check():
            wide = Model.initialize(MICRO, 1, np.float64)
            wide.norm = training.freeze_normalization(wide, windows)
            report = finite_difference_check(
                lambda params: training.batch_losses(windows[:2], wide,
                                                     np.random.default_rng(5))[0],
                wide.params, step=1e-3, tolerance=1e-2,
                entries={k: range(min(p.size, 3)) for k, p in wide.params.items()})
            assert wide.flat.dtype == np.float64
            assert report["pass"], report

        assert two_steps(float64_check) == two_steps(lambda: None)


@pytest.mark.parametrize("model", ["MICRO", "ModelConfig()"], ids=["micro", "default"])
def test_checkpoint_bytes_do_not_depend_on_blas_threads(tmp_path, model):
    # OpenBLAS picks its sgemm path, and with 2 threads its split of the
    # work, from the matrix sizes; every sum must still come out in the
    # same order.  The default model's batches of 64 rows (16 windows of 4
    # pedestrians) put its denoiser GEMMs, 64 x 128 x 128 and up, above
    # OpenBLAS's threading threshold of M N K = 4 x 65,536.
    child = f"""
import sys
from test_training import MICRO, _windows
from trajdiff import training
from trajdiff.model import ModelConfig
training.fit(_windows(n_scenes=4, peds=4, frames=40), training.TrainConfig(
    batch_size=16, epochs=2, seed=3, checkpoint_every=10 ** 6), {model}, out_dir=sys.argv[1])
"""
    src = os.path.dirname(os.path.dirname(trajdiff.__file__))
    checkpoints = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.path.dirname(__file__)])}
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run([sys.executable, "-c", child, str(out)], env=env,
                              capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr.decode()
        checkpoints.append((out / "model.tjdf").read_bytes())
    assert checkpoints[0] == checkpoints[1]


class TestFit:
    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            training.fit([], training.TrainConfig(), MICRO)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError, match="not all be zero"):
            training.TrainConfig(lambda_diffusion=0, lambda_likelihood=0,
                                 lambda_consistency=0)
        with pytest.raises(ValueError, match="train batch_size must be in 1.."):
            training.TrainConfig(batch_size=0)

    @pytest.mark.parametrize("change", [{"t_future": 0}, {"step_dim": 5}, {"kernel": 4},
                                        {"kernel": 1}],
                             ids=["t-future-0", "odd-step-dim", "even-kernel", "kernel-1"])
    def test_unusable_model_settings_rejected_before_training(self, tmp_path, change):
        # without the check a t_future = 0 model fails at optimizer step 1
        # with a shape error
        out = tmp_path / "run"
        with pytest.raises(ValueError, match=next(iter(change))):
            training.fit(_windows(), training.TrainConfig(batch_size=4, epochs=1),
                         replace(MICRO, **change), out_dir=str(out))
        assert not out.exists()

    def test_log_has_one_row_per_step_with_components(self, tmp_path):
        windows = _windows()
        cfg = training.TrainConfig(batch_size=4, epochs=2, seed=0,
                                   checkpoint_every=10 ** 6)
        _, rows = training.fit(windows, cfg, MICRO, out_dir=str(tmp_path))
        spe = math.ceil(len(windows) / 4)
        assert len(rows) == 2 * spe
        log = (tmp_path / "training_log.csv").read_text().splitlines()
        record = training._run_record(windows, cfg, len(rows), 1)
        assert log[:2] == [f"# run: {json.dumps(record, sort_keys=True)}",
                           f"# params: {Model.initialize(MICRO, 0).n_parameters()}"]
        assert log[2] == ",".join(training.LOG_COLUMNS)
        assert len(log) == 3 + len(rows)
        for row in rows:
            assert all(math.isfinite(v) for v in row[1:5])

    def test_normalization_refreshes_on_the_first_freeze_at_steps(self, tmp_path,
                                                                   monkeypatch):
        # 4 windows at batch 4: 12 steps, so the statistics are recomputed
        # before each of steps 0, 1 and 2 and then kept
        windows = _windows()
        cfg = training.TrainConfig(batch_size=4, epochs=12, seed=0, checkpoint_every=1)
        freeze_at = 3
        calls = []
        reference = training.freeze_normalization

        def counting(model, ws):
            calls.append(len(ws))
            return reference(model, ws)

        monkeypatch.setattr(training, "freeze_normalization", counting)
        fresh = tmp_path / "fresh"
        final, _ = training.fit(windows, cfg, MICRO, out_dir=str(fresh))
        assert calls == [len(windows)] * freeze_at
        # a resume below freeze_at refreshes on the steps it still has
        # before it, one above it on none; both end on the same bytes
        for start, refreshes in ((2, 1), (5, 0)):
            calls.clear()
            resumed, _ = training.fit(windows, cfg, MICRO,
                                      out_dir=str(tmp_path / f"from{start}"),
                                      resume_from=str(fresh / f"ckpt_{start:06d}.tjdf"))
            assert len(calls) == refreshes
            assert Path(resumed).read_bytes() == Path(final).read_bytes()

    def test_resume_matches_straight_through(self, tmp_path):
        windows = _windows()
        cfg = training.TrainConfig(batch_size=4, epochs=10, seed=5,
                                   checkpoint_every=6)
        straight_dir = tmp_path / "straight"
        resumed_dir = tmp_path / "resumed"
        final_a, _ = training.fit(windows, cfg, MICRO, out_dir=str(straight_dir))
        # rerun only up to the mid checkpoint, then resume from it
        training.fit(windows, cfg, MICRO, out_dir=str(resumed_dir))
        mid = resumed_dir / "ckpt_000006.tjdf"
        assert mid.exists()
        final_b, _ = training.fit(windows, cfg, MICRO, out_dir=str(resumed_dir),
                                  resume_from=str(mid))
        a, meta, _ = Model.load(final_a)
        b, _, _ = Model.load(final_b)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])
        # the resumed log holds each step once, with the straight-through losses
        def log_rows(run_dir):
            lines = (run_dir / "training_log.csv").read_text().splitlines()
            return [line.split(",") for line in lines[3:]]
        straight, resumed = log_rows(straight_dir), log_rows(resumed_dir)
        steps = [str(s) for s in range(1, int(meta["train_step"]) + 1)]
        assert [row[0] for row in resumed] == steps
        assert [row[:5] for row in resumed] == [row[:5] for row in straight]

    @pytest.mark.parametrize("damage", ["deleted", "cut-back", "torn", "long"])
    def test_log_is_restored_from_its_checkpoint(self, tmp_path, damage):
        # a 10-step run with a checkpoint every 3 steps, resumed from each
        # checkpoint k with its log deleted, cut back to rows 1..k-2, torn
        # in row k or left with all 10 rows: the resume rewrites the log
        # from the checkpoint, rows 1..k without their wall_ms
        cfg = training.TrainConfig(batch_size=4, epochs=10, seed=5, checkpoint_every=3)
        straight = tmp_path / "straight"
        training.fit(_windows(), cfg, MICRO, out_dir=str(straight))
        log = (straight / "training_log.csv").read_text().splitlines(keepends=True)
        for k in (3, 6, 9):
            run = tmp_path / f"from{k}"
            run.mkdir()
            ckpt = run / f"ckpt_{k:06d}.tjdf"
            ckpt.write_bytes((straight / ckpt.name).read_bytes())
            damaged = {"deleted": None, "cut-back": log[:1 + k], "long": log,
                       "torn": log[:2 + k] + [log[2 + k][:5]]}[damage]
            if damaged is not None:
                (run / "training_log.csv").write_text("".join(damaged))
            training.fit(_windows(), cfg, MICRO, out_dir=str(run), resume_from=str(ckpt))
            assert (run / "model.tjdf").read_bytes() == (straight / "model.tjdf").read_bytes()
            assert _log_without_wall_ms(run) == _log_without_wall_ms(straight)
            rows = (run / "training_log.csv").read_text().splitlines()[3:]
            assert [row.endswith(",") for row in rows] == [True] * k + [False] * (10 - k)

    @pytest.mark.parametrize("text", [b"", b"# seed: 5\n# config: batch=4\nstep,total\n",
                                      b'# run: {"seed": 5\n', b"\xff\n"],
                             ids=["empty", "older-format", "torn-run-line", "not-utf8"])
    def test_log_without_run_line_is_refused(self, tmp_path, text):
        # a log without a valid "# run:" line is of no run this resume could
        # continue: an older format, or another program's file
        cfg = training.TrainConfig(batch_size=4, epochs=10, seed=5, checkpoint_every=3)
        training.fit(_windows(), cfg, MICRO, out_dir=str(tmp_path))
        for name in ("model.tjdf", "ckpt_000009.tjdf"):
            os.remove(tmp_path / name)
        (tmp_path / "training_log.csv").write_bytes(text)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(training.ResumeError, match="has no '# run:' line"):
            training.fit(_windows(), cfg, MICRO, out_dir=str(tmp_path),
                         resume_from=str(tmp_path / "ckpt_000006.tjdf"))
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("change, field", [
        ({"learning_rate": 2e-3}, "learning_rate"), ({"seed": 6}, "seed"),
        ({"denoiser_boost": 2}, "denoiser_boost"), ({"epochs": 12}, "epochs"),
        ({"windows": 3}, "data_sha256"),
    ], ids=["lr", "seed", "boost", "epochs", "data"])
    def test_log_of_another_run_is_refused(self, tmp_path, change, field):
        # the log's "# run:" line names the run it belongs to; resuming a
        # run into the directory of a run with other settings or data would
        # mix the two runs' rows and overwrite its checkpoints.  A window
        # fewer still makes 1 batch a step, so only the data differ.
        cfg = training.TrainConfig(batch_size=4, epochs=10, seed=5, checkpoint_every=3)
        other, own = tmp_path / "other", tmp_path / "own"
        change = dict(change)
        windows = _windows()[:change.pop("windows", None)]
        training.fit(windows, replace(cfg, **change), MICRO, out_dir=str(other))
        training.fit(_windows(), cfg, MICRO, out_dir=str(own))
        before = {p.name: p.read_bytes() for p in other.iterdir()}
        with pytest.raises(training.ResumeError,
                           match=f"training_log.csv has run {field} = "):
            training.fit(_windows(), cfg, MICRO, out_dir=str(other),
                         resume_from=str(own / "ckpt_000006.tjdf"))
        assert {p.name: p.read_bytes() for p in other.iterdir()} == before

    @pytest.mark.parametrize("change", [{"denoiser_width": 16}, {"kernel": 5},
                                        {"beta_end": 0.3}],
                             ids=["width", "kernel", "beta-end"])
    def test_other_model_settings_are_refused(self, tmp_path, change):
        # a resume continues the checkpoint's model; settings that differ
        # would be silently ignored, and the log's parameter count be wrong
        cfg = training.TrainConfig(batch_size=4, epochs=10, seed=5, checkpoint_every=3)
        training.fit(_windows(), cfg, MICRO, out_dir=str(tmp_path))
        for name in ("model.tjdf", "ckpt_000009.tjdf"):
            os.remove(tmp_path / name)
        field, value = next(iter(change.items()))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(training.ResumeError, match=f"has model {field} = "
                           f"{getattr(MICRO, field)!r}, this run's is {value!r}"):
            training.fit(_windows(), cfg, replace(MICRO, **change), out_dir=str(tmp_path),
                         resume_from=str(tmp_path / "ckpt_000006.tjdf"))
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_killed_saves_leftovers_are_replaced(self, tmp_path):
        # a save killed before its rename leaves "<path>.tmp"; the next save
        # of the same path writes through it
        for name in ("ckpt_000006.tjdf.tmp", "model.tjdf.tmp"):
            (tmp_path / name).write_bytes(b"torn")
        cfg = training.TrainConfig(batch_size=4, epochs=10, seed=5, checkpoint_every=3)
        training.fit(_windows(), cfg, MICRO, out_dir=str(tmp_path))
        assert sorted(os.listdir(tmp_path)) == [
            "ckpt_000003.tjdf", "ckpt_000006.tjdf", "ckpt_000009.tjdf", "model.tjdf",
            "training_log.csv"]
        for name in ("ckpt_000006.tjdf", "model.tjdf"):
            Model.load(tmp_path / name)

    def test_killed_run_resumes_to_straight_through_bytes(self, tmp_path):
        cfg = training.TrainConfig(batch_size=4, epochs=10, seed=5, checkpoint_every=3)
        killed = tmp_path / "killed"
        # the child kills itself (SIGKILL) right after its second checkpoint
        child = f"""
import os, signal
from test_training import MICRO, _windows
from trajdiff import training
from trajdiff.model import Model
save, saves = Model.save, []
def save_then_die(self, path, **kw):
    save(self, path, **kw)
    saves.append(path)
    if len(saves) == 2:
        os.kill(os.getpid(), signal.SIGKILL)
Model.save = save_then_die
training.fit(_windows(), training.{cfg!r}, MICRO, out_dir={str(killed)!r})
"""
        src = os.path.dirname(os.path.dirname(trajdiff.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.path.dirname(__file__)])}
        proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                              timeout=120)
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
        assert sorted(os.listdir(killed)) == ["ckpt_000003.tjdf", "ckpt_000006.tjdf",
                                              "training_log.csv"]
        training.fit(_windows(), cfg, MICRO, out_dir=str(killed),
                     resume_from=str(killed / "ckpt_000006.tjdf"))
        straight = tmp_path / "straight"
        training.fit(_windows(), cfg, MICRO, out_dir=str(straight))
        assert (killed / "model.tjdf").read_bytes() == (straight / "model.tjdf").read_bytes()

        def log_without_wall_ms(run_dir):
            return [line.rsplit(",", 1)[0] if line[0].isdigit() else line
                    for line in (run_dir / "training_log.csv").read_text().splitlines()]
        assert log_without_wall_ms(killed) == log_without_wall_ms(straight)


def _log_without_wall_ms(run_dir):
    return [line.rsplit(",", 1)[0] if line[0].isdigit() else line
            for line in (run_dir / "training_log.csv").read_text().splitlines()]


class TestRunRecord:
    """Mid-run checkpoints record the run they belong to, and a resume that
    would continue another run is refused before anything is written."""

    CFG = training.TrainConfig(batch_size=4, epochs=10, seed=5, checkpoint_every=3)
    FIELDS = [f.name for f in fields(training.TrainConfig) if f.name != "checkpoint_every"]

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("record")
        training.fit(_windows(), self.CFG, MICRO, out_dir=str(out))
        return out

    def test_record_is_in_mid_run_checkpoints_only(self, run):
        meta = checkpoint.load_container(run / "ckpt_000006.tjdf")[0]
        assert meta["run"] == training._run_record(_windows(), self.CFG, 10, 2)
        assert sorted(meta["run"]) == sorted(self.FIELDS + ["total_steps", "freeze_at",
                                                            "data_sha256"])
        assert "run" not in checkpoint.load_container(run / "model.tjdf")[0]

    @pytest.mark.parametrize("field", FIELDS + ["total_steps", "freeze_at", "data_sha256"])
    def test_each_field_is_compared(self, run, tmp_path, field):
        meta, arrays, _ = checkpoint.load_container(run / "ckpt_000006.tjdf")
        value = meta["run"][field]
        meta["run"][field] = "0" * 64 if field == "data_sha256" else value * 2 + 1
        checkpoint.save_container(tmp_path / "other.tjdf", meta, arrays)
        out = tmp_path / "out"
        with pytest.raises(training.ResumeError, match=f"has run {field} = "
                           f"{meta['run'][field]!r}, this run's is {value!r}"):
            training.fit(_windows(), self.CFG, MICRO, out_dir=str(out),
                         resume_from=str(tmp_path / "other.tjdf"))
        assert not out.exists()

    def test_checkpoint_without_record_is_refused(self, run, tmp_path):
        meta, arrays, _ = checkpoint.load_container(run / "ckpt_000006.tjdf")
        del meta["run"]
        checkpoint.save_container(tmp_path / "bare.tjdf", meta, arrays)
        with pytest.raises(training.ResumeError, match="carries no run record"):
            training.fit(_windows(), self.CFG, MICRO, out_dir=str(tmp_path / "out"),
                         resume_from=str(tmp_path / "bare.tjdf"))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("change, field", [
        ({"epochs": 5}, "epochs"), ({"learning_rate": 1e-2}, "learning_rate"),
        ({"windows": 3, "seed": 9}, "seed"), ({"windows": 3}, "data_sha256"),
    ], ids=["epochs", "lr", "seed-and-data", "data"])
    def test_other_run_is_refused(self, run, tmp_path, change, field):
        # a window fewer still makes 1 batch a step, so only the data differ
        change = dict(change)
        windows = _windows()[:change.pop("windows", None)]
        with pytest.raises(training.ResumeError, match=f"has run {field} = "):
            training.fit(windows, replace(self.CFG, **change), MICRO,
                         out_dir=str(tmp_path / "out"),
                         resume_from=str(run / "ckpt_000003.tjdf"))
        assert not (tmp_path / "out").exists()

    def test_other_checkpoint_interval_resumes(self, run, tmp_path):
        final, _ = training.fit(_windows(), replace(self.CFG, checkpoint_every=4), MICRO,
                                out_dir=str(tmp_path),
                                resume_from=str(run / "ckpt_000003.tjdf"))
        assert Path(final).read_bytes() == (run / "model.tjdf").read_bytes()


def test_resume_matrix_ends_at_straight_through_bytes(tmp_path):
    """A run killed right after any of its checkpoints, before, at and after
    ``freeze_at`` and on and off epoch boundaries, resumes to the
    straight-through run: the same checkpoint and model bytes, and the
    same log but for its ``wall_ms`` column."""
    windows = _windows(n_scenes=3)          # 6 windows: 2 batches of 4 a step
    cfg = training.TrainConfig(batch_size=4, epochs=6, seed=2, checkpoint_every=1)
    straight = tmp_path / "straight"
    training.fit(windows, cfg, MICRO, out_dir=str(straight))
    # checkpoints 1-2 fall before freeze_at, 3 at it, 4-11 after it, and
    # the even ones on epoch boundaries
    record = checkpoint.load_container(straight / "ckpt_000001.tjdf")[0]["run"]
    assert (record["total_steps"], record["freeze_at"]) == (12, 3)
    log = (straight / "training_log.csv").read_text().splitlines(keepends=True)
    names = sorted(p.name for p in straight.iterdir())
    for step in range(1, 12):
        killed = tmp_path / f"killed{step}"
        killed.mkdir()
        for k in range(1, step + 1):
            name = f"ckpt_{k:06d}.tjdf"
            (killed / name).write_bytes((straight / name).read_bytes())
        # the rows up to the checkpoint reached the disk, and maybe the
        # start of the next one
        torn = log[3 + step][:3] if step % 2 else ""
        (killed / "training_log.csv").write_text("".join(log[:3 + step]) + torn)
        training.fit(windows, cfg, MICRO, out_dir=str(killed),
                     resume_from=str(killed / f"ckpt_{step:06d}.tjdf"))
        assert sorted(p.name for p in killed.iterdir()) == names
        for name in names[:-1]:
            assert (killed / name).read_bytes() == (straight / name).read_bytes(), \
                (step, name)
        assert _log_without_wall_ms(killed) == _log_without_wall_ms(straight)
