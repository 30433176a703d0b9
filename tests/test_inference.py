"""Metrics, candidate selection, hybrid sampling and Best-of-N evaluation."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import one_candidate_errors
from references import candidates_per_draw, constant_velocity_baseline, select_per_run
from trajdiff import data, diffusion, distribution, inference, training
from trajdiff.inference import EvalProtocol, PredictionSet, SamplingStrategy
from trajdiff.model import Model, ModelConfig

MICRO = ModelConfig(conv_channels=4, d_phi=4, d_psi=4, denoiser_width=8,
                    denoiser_blocks=1, step_dim=4, k_total=20, steps=10,
                    beta_end=0.4)


@pytest.fixture(scope="module")
def tiny_model_and_windows(tmp_path_factory):
    cfg = data.SynthConfig(n_scenes=2, peds_per_scene=3, frames=30, seed=6)
    windows = data.window_scenes(data.synthesize_scenes(cfg), stride=5)
    tcfg = training.TrainConfig(batch_size=4, epochs=3, seed=0,
                                checkpoint_every=10 ** 6)
    path, _ = training.fit(windows, tcfg, MICRO,
                           out_dir=str(tmp_path_factory.mktemp("inference")))
    mdl, _, _ = Model.load(path)
    return mdl, windows


class TestMetrics:
    """``best_of_n`` on one pedestrian with one candidate is the plain
    ADE/FDE of that trajectory."""

    def test_identical_trajectories(self):
        t = np.random.default_rng(0).normal(size=(12, 2))
        assert one_candidate_errors(t, t) == (0.0, 0.0)

    def test_constant_offset_three_four_five(self):
        gt = np.zeros((12, 2))
        a, f = one_candidate_errors(gt + [3.0, 4.0], gt)
        assert math.isclose(a, 5.0, rel_tol=1e-9)
        assert math.isclose(f, 5.0, rel_tol=1e-9)

    def test_fde_only_sees_last_point(self):
        gt = np.zeros((12, 2))
        pred = gt.copy()
        pred[-1] = [0.0, 2.0]
        a, f = one_candidate_errors(pred, gt)
        assert math.isclose(f, 2.0, rel_tol=1e-9)
        assert math.isclose(a, 2.0 / 12, rel_tol=1e-9)

    def test_single_step_ade_equals_fde(self):
        rng = np.random.default_rng(1)
        pred, gt = rng.normal(size=(1, 2)), rng.normal(size=(1, 2))
        a, f = one_candidate_errors(pred, gt)
        assert math.isclose(a, f)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            pred = rng.normal(size=(12, 2))
            gt = rng.normal(size=(12, 2))
            acc = 0.0
            for t in range(12):
                acc += math.sqrt((pred[t, 0] - gt[t, 0]) ** 2
                                 + (pred[t, 1] - gt[t, 1]) ** 2)
            a, f = one_candidate_errors(pred, gt)
            assert math.isclose(a, acc / 12, abs_tol=1e-6)
            last = math.sqrt((pred[-1, 0] - gt[-1, 0]) ** 2
                             + (pred[-1, 1] - gt[-1, 1]) ** 2)
            assert math.isclose(f, last, abs_tol=1e-6)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            one_candidate_errors(np.zeros((12, 2)), np.zeros((11, 2)))
        with pytest.raises(ValueError):
            one_candidate_errors(np.zeros((11, 2)), np.zeros((12, 2)))


def _field_with_means(means):
    raw = np.zeros(means.shape[:2] + (5,))
    raw[..., :2] = means
    return raw


class TestSelectBest:
    def test_singleton(self):
        f = _field_with_means(np.zeros((2, 3, 2)))
        assert inference.select_best(f[None], "self-likelihood") == 0

    def test_exact_means_win_under_gt_ade(self):
        rng = np.random.default_rng(0)
        gt_disp = rng.normal(size=(2, 3, 2))
        origin = rng.normal(size=(2, 2))
        gt_abs = origin[:, None, :] + np.cumsum(gt_disp, axis=1)
        fields = np.stack([_field_with_means(gt_disp + 0.5),
                           _field_with_means(gt_disp),
                           _field_with_means(gt_disp - 0.3)])
        assert inference.select_best(fields, "gt-ade", gt_abs, origin) == 1

    def test_tie_break_lowest_index(self):
        f = _field_with_means(np.ones((1, 3, 2)))
        g = _field_with_means(np.ones((1, 3, 2)))
        gt_abs = np.zeros((1, 3, 2))
        origin = np.zeros((1, 2))
        assert inference.select_best(np.stack([f, g]), "gt-ade", gt_abs, origin) == 0

    def test_gt_required_for_gt_ade(self):
        with pytest.raises(ValueError, match="ground truth"):
            inference.select_best(_field_with_means(np.zeros((1, 3, 2)))[None],
                                  "gt-ade")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            inference.select_best(np.zeros((0, 1, 3, 5)), "self-likelihood")

    @pytest.mark.parametrize("criterion", inference.SELECTIONS)
    def test_ties_go_to_lowest_index_as_per_run_loop(self, criterion):
        """Runs that tie on window ADE or on self-likelihood, exactly (a
        repeated run) or by the same values in another order (a run with
        its pedestrians reversed, against a ground truth symmetric in
        them), pick the index of the per-run loop: the lowest of the runs
        whose scores round alike."""
        rng = np.random.default_rng(5)
        origin = np.zeros((4, 2))
        for _ in range(50):
            base = rng.normal(size=(3, 4, 12, 5))
            base[[0, 2], ..., :4] += 4.0        # worse means and wider sigmas
            runs = np.stack([base[0], base[1], base[1], base[1][::-1], base[2], base[1]])
            gt_abs = rng.normal(size=(4, 12, 2))
            gt_abs = gt_abs + gt_abs[::-1]
            got = inference.select_best(runs, criterion, gt_abs, origin)
            assert got == select_per_run(runs, criterion, gt_abs, origin)
            assert got in (1, 3)
        tied = np.stack([base[1]] * 3)
        assert inference.select_best(tied, criterion, gt_abs, origin) == 0

    @pytest.mark.parametrize("criterion", inference.SELECTIONS)
    def test_random_runs_pick_the_per_run_index(self, criterion):
        """Over random windows of up to 32 pedestrians and 12 timesteps,
        scoring every run at once picks the per-run loop's index."""
        rng = np.random.default_rng(11)
        for _ in range(300):
            r, n, t = rng.integers(1, 12), rng.integers(1, 33), rng.integers(1, 13)
            runs = rng.normal(scale=rng.choice([0.01, 1.0, 3.0]), size=(r, n, t, 5))
            origin, gt_abs = rng.normal(size=(n, 2)), rng.normal(size=(n, t, 2))
            assert (inference.select_best(runs, criterion, gt_abs, origin)
                    == select_per_run(runs, criterion, gt_abs, origin))

    def test_self_likelihood_prefers_tight_sigmas(self):
        tight = np.zeros((1, 3, 5))
        tight[..., 2:4] = -3.0
        wide = np.zeros((1, 3, 5))
        wide[..., 2:4] = 3.0
        assert inference.select_best(np.stack([wide, tight]), "self-likelihood") == 1


def _sample(mdl, window, strategy, selection="gt-ade", seed=0):
    """One window's candidates through the shared sampling path."""
    gt = window.absolute_future() if selection == "gt-ade" else None
    protocol = EvalProtocol(strategy=strategy, selection=selection, seed=seed)
    (pset,) = inference.sample_windows(mdl, [window], protocol, [gt])
    return pset


class TestHybridSample:
    def test_strategy_a_candidate_count(self, tiny_model_and_windows):
        mdl, windows = tiny_model_and_windows
        pset = _sample(mdl, windows[0], SamplingStrategy(kind="A", r1=4, r2=6))
        assert pset.n_candidates == 7       # selected mean + 6 draws
        assert pset.provenance[0][1] == "mean"

    def test_strategy_a_pooled_count(self, tiny_model_and_windows):
        mdl, windows = tiny_model_and_windows
        pset = _sample(mdl, windows[0],
                       SamplingStrategy(kind="A", r1=4, r2=6, pool_run_means=True))
        assert pset.n_candidates == 10      # 4 run means + 6 draws
        assert [p for p in pset.provenance[:4]] == [(i, "mean") for i in range(4)]

    def test_strategy_a_r2_zero_is_single_mean(self, tiny_model_and_windows):
        mdl, windows = tiny_model_and_windows
        pset = _sample(mdl, windows[0], SamplingStrategy(kind="A", r1=3, r2=0))
        assert pset.n_candidates == 1
        assert pset.provenance[0][1] == "mean"

    def test_strategy_b_deterministic_given_seed(self, tiny_model_and_windows):
        mdl, windows = tiny_model_and_windows
        strat = SamplingStrategy(kind="B", r=2)
        a = _sample(mdl, windows[0], strat, "self-likelihood", seed=3)
        b = _sample(mdl, windows[0], strat, "self-likelihood", seed=3)
        np.testing.assert_array_equal(a.candidates, b.candidates)

    def test_strategy_c_floor_sigma_sticks_to_mean(self):
        # all sigmas at the floor: every draw stays within 1e-3 of the mean
        # trajectory at each timestep
        raw = _field_with_means(np.random.default_rng(0).normal(size=(2, 12, 2)))
        raw[..., 2:4] = -12.0      # softplus -> ~0, sigma ~ floor
        rng = np.random.default_rng(1)
        for _ in range(20):
            draw = distribution.sample_field(raw, rng)
            assert np.abs(draw - raw[..., :2]).max() < 1e-3

    def test_strategy_c_single_draw(self, tiny_model_and_windows):
        mdl, windows = tiny_model_and_windows
        pset = _sample(mdl, windows[0], SamplingStrategy(kind="C", r=1),
                       "self-likelihood")
        assert pset.n_candidates == 1
        assert pset.provenance == [(0, 0)]

    def test_gt_ade_needs_gt(self, tiny_model_and_windows):
        mdl, windows = tiny_model_and_windows
        with pytest.raises(ValueError, match="ground truth"):
            inference.sample_windows(mdl, windows[:1],
                                     EvalProtocol(strategy=SamplingStrategy(kind="C")),
                                     [None])

    def test_candidates_anchor_at_origin(self, tiny_model_and_windows):
        mdl, windows = tiny_model_and_windows
        w = windows[0]
        pset = _sample(mdl, w, SamplingStrategy(kind="C", r=3), "self-likelihood")
        # one cumulative step from origin: candidate[t=0] - origin is the
        # first displacement, which must be finite and modest
        step0 = pset.candidates[:, :, 0, :] - w.origin[:, None, :]
        assert np.abs(step0).max() < 10.0


class TestBestOfN:
    def test_oracle_candidate_gives_zero(self):
        rng = np.random.default_rng(0)
        gt = rng.normal(size=(3, 12, 2))
        cands = np.stack([gt + 1.0, gt, gt - 2.0], axis=1)
        pset = PredictionSet(cands, [(0, "mean"), (1, 0), (2, 1)])
        a, f = inference.best_of_n(pset, gt)
        np.testing.assert_allclose(a, 0.0, atol=1e-12)
        np.testing.assert_allclose(f, 0.0, atol=1e-12)

    def test_fde_comes_from_ade_argmin_candidate(self):
        gt = np.zeros((1, 2, 2))
        good_ade = np.zeros((2, 2))
        good_ade[-1] = [0.0, 1.0]            # ade 0.5, fde 1.0
        good_fde = np.full((2, 2), 0.45)     # ade ~0.64, fde ~0.64
        pset = PredictionSet(np.stack([good_ade, good_fde])[None], [(0, 0), (1, 0)])
        a, f = inference.best_of_n(pset, gt)
        assert math.isclose(a[0], 0.5, rel_tol=1e-6)
        assert math.isclose(f[0], 1.0, rel_tol=1e-6)   # not the lower fde

    def test_monotone_in_candidate_count(self):
        rng = np.random.default_rng(4)
        gt = rng.normal(size=(2, 12, 2))
        cands = rng.normal(size=(2, 10, 12, 2))
        prev = np.inf
        for m in range(1, 11):
            pset = PredictionSet(cands[:, :m], [(i, 0) for i in range(m)])
            a, _ = inference.best_of_n(pset, gt)
            assert a.mean() <= prev + 1e-12
            prev = a.mean()


class TestEvaluate:
    @pytest.mark.parametrize("name, choices", [("selection", inference.SELECTIONS),
                                               ("gamma_mode", diffusion.GAMMA_MODES)])
    def test_protocol_refuses_an_unknown_choice_at_construction(self, name, choices):
        # before any chain runs, as ValueError naming the field
        for value in choices:
            assert getattr(EvalProtocol(**{name: value}), name) == value
        for value in ("bogus", choices[0].upper(), None):
            with pytest.raises(ValueError, match=f"protocol {name} must be one of "
                               f"{', '.join(choices)}, got {value!r}"):
                EvalProtocol(**{name: value})

    def test_empty_set_rejected(self, tiny_model_and_windows):
        mdl, _ = tiny_model_and_windows
        with pytest.raises(ValueError, match="empty"):
            inference.evaluate_windows(mdl, [], EvalProtocol())

    def test_oracle_injection_gives_zero(self, tiny_model_and_windows, monkeypatch):
        mdl, windows = tiny_model_and_windows
        reference_best_of_n = inference.best_of_n

        def with_oracle(pset, gt_abs):
            cands = np.concatenate([pset.candidates, gt_abs[:, None]], axis=1)
            return reference_best_of_n(
                PredictionSet(cands, pset.provenance + [(-1, "oracle")]), gt_abs)

        monkeypatch.setattr(inference, "best_of_n", with_oracle)
        protocol = EvalProtocol(strategy=SamplingStrategy(kind="C", r=2),
                                selection="self-likelihood", seed=1)
        rep = inference.evaluate_windows(mdl, windows[:2], protocol)
        assert rep["ade"] == 0.0 and rep["fde"] == 0.0

    def test_report_shape(self, tiny_model_and_windows):
        mdl, windows = tiny_model_and_windows
        protocol = EvalProtocol(strategy=SamplingStrategy(kind="B", r=3), seed=2)
        rep = inference.evaluate_windows(mdl, windows[:3], protocol)
        assert rep["windows"] == 3
        assert rep["pedestrians"] == sum(w.n_peds for w in windows[:3])
        assert rep["ade"] >= 0 and rep["fde"] >= 0

    def test_scene_report_has_unweighted_average(self, tiny_model_and_windows):
        mdl, windows = tiny_model_and_windows
        protocol = EvalProtocol(strategy=SamplingStrategy(kind="C", r=2),
                                selection="self-likelihood", seed=0)
        # the report groups a flat window list by scene, in sorted scene order
        windows = windows[::-1]
        rep = inference.evaluate_scenes(mdl, windows, protocol)
        scenes = sorted({w.scene_id for w in windows})
        assert list(rep["scenes"]) == scenes and len(scenes) > 1
        for name in scenes:
            assert rep["scenes"][name] == inference.evaluate_windows(
                mdl, [w for w in windows if w.scene_id == name], protocol)
        expected = np.mean([s["ade"] for s in rep["scenes"].values()])
        assert math.isclose(rep["avg"]["ade"], expected, rel_tol=1e-9)

    def test_evaluation_deterministic(self, tiny_model_and_windows):
        mdl, windows = tiny_model_and_windows
        protocol = EvalProtocol(strategy=SamplingStrategy(kind="A", r1=2, r2=2),
                                seed=5)
        a = inference.evaluate_windows(mdl, windows[:2], protocol)
        b = inference.evaluate_windows(mdl, windows[:2], protocol)
        assert a == b


@pytest.fixture(scope="module")
def mixed_windows(tiny_model_and_windows):
    """Windows with 3 and 2 pedestrians, so per-window row blocks differ."""
    _, windows = tiny_model_and_windows
    cfg = data.SynthConfig(n_scenes=1, peds_per_scene=2, frames=25, seed=8)
    return windows[:3] + data.window_scenes(data.synthesize_scenes(cfg), stride=5)


def _per_window_reference(mdl, window, strategy, rng, gt_abs, steps):
    """One window sampled on its own: encode it, tile its rows once per run,
    draw the runs' initial noise in run order, run the chain, denormalize,
    split into runs and pick the candidates."""
    cfg = mdl.config
    runs = strategy.runs
    y_init = np.concatenate([rng.standard_normal((window.n_peds, cfg.t_future,
                                                  distribution.STAT_CHANNELS))
                             for _ in range(runs)])
    y = diffusion.reverse_chain(y_init, np.tile(mdl.encode([window]), (runs, 1)),
                                cfg.schedule(steps), mdl.params, cfg)
    fields = distribution.denormalize_stats(y, mdl.norm).reshape(runs, window.n_peds,
                                                                   *y.shape[1:])
    return inference._candidates(fields, window.origin, strategy, rng, "gt-ade", gt_abs)


class TestCandidatePlacement:
    """``_candidates`` draws a window's Gaussian candidates with one
    ``sample_field`` call and places all its candidates with one cumsum;
    through ``sample_windows`` that must give the candidates and provenance
    of the per-candidate reference."""

    @pytest.mark.parametrize("strategy", [
        SamplingStrategy(kind="A", r1=3, r2=4, pool_run_means=True),
        SamplingStrategy(kind="A", r1=3, r2=4),
        SamplingStrategy(kind="A", r1=3, r2=0),
        SamplingStrategy(kind="B", r=3),
        SamplingStrategy(kind="C", r=4),
    ], ids=["A-pooled", "A", "A-r2-0", "B", "C"])
    def test_equals_per_candidate_reference(self, tiny_model_and_windows, mixed_windows,
                                            strategy):
        mdl, _ = tiny_model_and_windows
        gts = [w.absolute_future() for w in mixed_windows]
        psets = inference.sample_windows(
            mdl, mixed_windows, EvalProtocol(strategy=strategy, steps=4, seed=5), gts)
        rngs = [np.random.default_rng([5, 23, i]) for i in range(len(mixed_windows))]
        per_window = mdl.generate(mixed_windows, rngs, strategy.runs, steps=4)
        for pset, w, rng, fields, gt in zip(psets, mixed_windows, rngs, per_window, gts,
                                            strict=True):
            cands, provenance = candidates_per_draw(fields, w.origin, strategy, rng,
                                                    "gt-ade", gt)
            assert pset.candidates.shape == cands.shape
            assert pset.candidates.tobytes() == cands.tobytes()
            assert pset.provenance == provenance


class TestBatchedEvaluation:
    """``evaluate_windows`` runs one reverse chain over all windows; its
    candidates must equal the per-window reference."""

    @pytest.mark.parametrize("strategy", [
        SamplingStrategy(kind="A", r1=3, r2=2, pool_run_means=True),
        SamplingStrategy(kind="A", r1=3, r2=2),
        SamplingStrategy(kind="B", r=3),
        SamplingStrategy(kind="C", r=3),
    ], ids=["A-pooled", "A", "B", "C"])
    def test_equals_per_window_loop(self, tiny_model_and_windows, mixed_windows,
                                    monkeypatch, strategy):
        mdl, _ = tiny_model_and_windows
        protocol = EvalProtocol(strategy=strategy, steps=4, seed=3)
        batched = []
        reference_best_of_n = inference.best_of_n

        def spy(pset, gt_abs):
            batched.append(pset)
            return reference_best_of_n(pset, gt_abs)

        monkeypatch.setattr(inference, "best_of_n", spy)
        rep = inference.evaluate_windows(mdl, mixed_windows, protocol)
        monkeypatch.undo()
        assert len(batched) == len(mixed_windows)
        ades, fdes = [], []
        for i, w in enumerate(mixed_windows):
            gt_abs = w.absolute_future()
            pset = _per_window_reference(mdl, w, strategy,
                                         np.random.default_rng([3, 23, i]), gt_abs, 4)
            assert batched[i].candidates.tobytes() == pset.candidates.tobytes()
            assert batched[i].provenance == pset.provenance
            a, f = inference.best_of_n(pset, gt_abs)
            ades.extend(a.tolist())
            fdes.extend(f.tolist())
        assert rep["ade"] == float(np.mean(ades))
        assert rep["fde"] == float(np.mean(fdes))

    @pytest.mark.parametrize("selection", ["gt-ade", "self-likelihood"])
    def test_shared_chain_equals_one_call_per_strategy(self, tiny_model_and_windows,
                                                       mixed_windows, monkeypatch,
                                                       selection):
        # the largest run count is not first, and two strategies have it
        mdl, _ = tiny_model_and_windows
        strategies = [SamplingStrategy(kind="A", r1=2, r2=3, pool_run_means=True),
                      SamplingStrategy(kind="B", r=4),
                      SamplingStrategy(kind="C", r=3),
                      SamplingStrategy(kind="A", r1=4, r2=2)]
        protocol = EvalProtocol(selection=selection, steps=4, seed=3)
        gts = [w.absolute_future() for w in mixed_windows]
        rows = []
        reference_apply = diffusion.denoiser_apply

        def counting(state, *args, **kwargs):
            rows.append(state.shape[0])
            return reference_apply(state, *args, **kwargs)

        # the initial noise is drawn once, for the largest run count; the
        # other strategies' generators are advanced one run at a time
        draws, initial_noise = [], type(mdl).initial_noise

        def drawing(model, windows, rngs, n_runs):
            draws.append(n_runs)
            return initial_noise(model, windows, rngs, n_runs)

        monkeypatch.setattr(diffusion, "denoiser_apply", counting)
        monkeypatch.setattr(type(mdl), "initial_noise", drawing)
        shared = inference.sample_windows(mdl, mixed_windows, protocol, gts, strategies)
        assert rows == [4 * sum(w.n_peds for w in mixed_windows)] * 4
        assert draws == [4]
        monkeypatch.undo()
        reports = inference.evaluate_windows(mdl, mixed_windows, protocol, strategies)
        assert len(shared) == len(reports) == len(strategies)
        for strategy, psets, report in zip(strategies, shared, reports):
            alone = replace(protocol, strategy=strategy)
            want = inference.sample_windows(mdl, mixed_windows, alone, gts)
            assert [p.candidates.tobytes() for p in psets] == [
                p.candidates.tobytes() for p in want]
            assert [p.provenance for p in psets] == [p.provenance for p in want]
            assert report == inference.evaluate_windows(mdl, mixed_windows, alone)

    def test_one_denoiser_call_per_step(self, tiny_model_and_windows, mixed_windows,
                                        monkeypatch):
        mdl, _ = tiny_model_and_windows
        rows = []
        reference_apply = diffusion.denoiser_apply

        def counting(state, *args, **kwargs):
            rows.append(state.shape[0])
            return reference_apply(state, *args, **kwargs)

        monkeypatch.setattr(diffusion, "denoiser_apply", counting)
        protocol = EvalProtocol(strategy=SamplingStrategy(kind="A", r1=3, r2=2),
                                steps=6)
        inference.evaluate_windows(mdl, mixed_windows, protocol)
        assert rows == [3 * sum(w.n_peds for w in mixed_windows)] * 6

    @pytest.mark.parametrize("n_runs", [1, 3])
    def test_initial_noise_is_the_per_run_draws(self, tiny_model_and_windows,
                                                mixed_windows, n_runs):
        # one draw per window gives the bytes, and leaves the generator state,
        # of one draw of [n_peds, T', 5] per run
        mdl, _ = tiny_model_and_windows
        rngs = [np.random.default_rng([8, 23, i]) for i in range(len(mixed_windows))]
        refs = [np.random.default_rng([8, 23, i]) for i in range(len(mixed_windows))]
        noise = mdl.initial_noise(mixed_windows, rngs, n_runs)
        per_run = np.concatenate([rng.standard_normal((w.n_peds, MICRO.t_future, 5))
                                  for w, rng in zip(mixed_windows, refs)
                                  for _ in range(n_runs)])
        assert noise.tobytes() == per_run.tobytes()
        assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in refs]
        # so does a run at a time into one window-size buffer, as
        # sample_windows advances a listed strategy's generators
        spent = np.empty((max(w.n_peds for w in mixed_windows), MICRO.t_future, 5))
        advanced = [np.random.default_rng([8, 23, i]) for i in range(len(mixed_windows))]
        for w, rng in zip(mixed_windows, advanced):
            for _ in range(n_runs):
                rng.standard_normal(out=spent[:w.n_peds])
        assert [r.bit_generator.state for r in advanced] == [r.bit_generator.state
                                                             for r in refs]


def test_constant_velocity_baseline_extends_last_step():
    cfg = data.SynthConfig(n_scenes=1, peds_per_scene=2, frames=20,
                           turn_noise=0.0, repulsion_gain=0.0, seed=3,
                           speed_min=0.05, speed_max=0.1)
    (w,) = data.window_scenes(data.synthesize_scenes(cfg), stride=1)
    cv = constant_velocity_baseline(w)
    # straight-line walkers: the extrapolation is exact
    np.testing.assert_allclose(cv, w.absolute_future(), atol=1e-9)


def test_prediction_set_validation():
    with pytest.raises(ValueError):
        PredictionSet(np.zeros((2, 12, 2)), [])
    with pytest.raises(ValueError):
        PredictionSet(np.full((1, 1, 2, 2), np.nan), [(0, 0)])
