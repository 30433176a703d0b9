"""Property tests for the invariants that hold for arbitrary inputs."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import one_candidate_errors
from references import (batch_losses_tape, concat, constant, denoiser_tape,
                        finite_difference_check, slice_)
from trajdiff import checkpoint, data, diffusion, distribution, training
from trajdiff import numerics as nm
from trajdiff.model import Model, ModelConfig

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False,
                   width=32)


@st.composite
def positions(draw, max_peds=5, frames=20):
    n = draw(st.integers(min_value=1, max_value=max_peds))
    vals = draw(st.lists(finite, min_size=n * frames * 2,
                         max_size=n * frames * 2))
    return np.array(vals, dtype=np.float64).reshape(n, frames, 2)


@given(positions())
@settings(max_examples=25, deadline=None)
def test_window_round_trip_and_neighbor_symmetry(pos):
    n, frames, _ = pos.shape
    tracks = [data.RawTrack("s", i, np.arange(frames) * 10, pos[i])
              for i in range(n)]
    for w in data.window_scenes(tracks, stride=4):
        recon_obs = w.absolute_observed()
        recon_fut = w.absolute_future()
        start = w.start_frame // 10
        np.testing.assert_allclose(recon_obs, pos[:, start:start + 8], atol=1e-6)
        np.testing.assert_allclose(recon_fut, pos[:, start + 8:start + 20],
                                   atol=1e-6)
        np.testing.assert_array_equal(w.neighbor_mask, w.neighbor_mask.T)
        assert not np.diag(w.neighbor_mask).any()


@given(st.lists(finite, min_size=10, max_size=10),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=50, deadline=None)
def test_concat_slice_inverse(values, split_seed):
    arr = np.array(values, dtype=np.float32).reshape(2, 5)
    cut = 1 + split_seed % 4
    left = constant(arr[:, :cut])
    right = constant(arr[:, cut:])
    joined = concat([left, right], axis=1)
    np.testing.assert_array_equal(joined.data, arr)
    np.testing.assert_array_equal(
        slice_(joined, (slice(None), slice(0, cut))).data, left.data)
    np.testing.assert_array_equal(
        slice_(joined, (slice(None), slice(cut, 5))).data, right.data)


@given(st.lists(finite, min_size=15, max_size=15),
       st.lists(st.floats(min_value=0.125, max_value=10.0, width=32),
                min_size=5, max_size=5))
@settings(max_examples=50, deadline=None)
def test_normalization_round_trip(raw_values, scales):
    raw = np.array(raw_values, dtype=np.float64).reshape(1, 3, 5)
    stats = distribution.NormStats(np.zeros(5), np.array(scales, dtype=np.float64))
    back = distribution.denormalize_stats((raw - stats.mean) / stats.scale, stats)
    np.testing.assert_allclose(back, raw, atol=1e-9)


@given(st.lists(finite, min_size=30, max_size=30))
@settings(max_examples=50, deadline=None)
def test_constrained_stats_always_valid(raw_values):
    raw = np.array(raw_values, dtype=np.float64).reshape(2, 3, 5)
    _, sig, rho = distribution.constrain_array(raw)
    assert (sig > 0).all()
    assert (np.abs(rho) <= distribution.RHO_CAP).all()
    det = (sig[..., 0] * sig[..., 1]) ** 2 * (1 - rho[..., 0] ** 2)
    assert (det > 0).all()


@given(st.lists(finite, min_size=24, max_size=24),
       st.lists(finite, min_size=24, max_size=24))
@settings(max_examples=50, deadline=None)
def test_metrics_nonnegative_and_bounded(pred_vals, gt_vals):
    pred = np.array(pred_vals, dtype=np.float64).reshape(12, 2)
    gt = np.array(gt_vals, dtype=np.float64).reshape(12, 2)
    a, f = one_candidate_errors(pred, gt)
    assert a >= 0 and f >= 0
    per_step = np.linalg.norm(pred - gt, axis=-1)
    assert a <= per_step.max() + 1e-9
    assert abs(f - per_step[-1]) < 1e-9


line_chars = st.characters(exclude_categories=("Cs",), exclude_characters="\r\n")
# fields that look like numbers, so that lines reach the id and position checks
number_text = (st.floats().map(repr) | st.integers().map(str)
               | st.sampled_from(["inf", "-inf", "nan", "1e400", "1.5", "1.0", "-0.0"]))
text_lines = st.text(line_chars) | st.lists(
    number_text | st.text(line_chars, max_size=4), max_size=5).map(" ".join)


@given(text_lines)
@settings(max_examples=300, deadline=None)
def test_any_text_line_parses_or_is_data_error_naming_it(line):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scene.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(line + "\n")
        try:
            data.ingest_benchmark_file(path, "scene")
        except data.DataError as exc:
            assert "line 1:" in str(exc)


@given(st.integers(0, 4), st.floats(data.MAX_COORDINATE, exclude_min=True,
                                    allow_infinity=False),
       st.booleans(), st.booleans())
@example(2, 1.3e37, False, False)       # a scene's coordinates scaled by 1e36
@settings(max_examples=100, deadline=None)
def test_huge_coordinate_is_data_error_naming_its_line(at, size, negative, in_y):
    lines = [f"{10 * f} 1 0.5 {f}.25" for f in range(5)]
    value = -size if negative else size
    x, y = (0.5, value) if in_y else (value, 0.5)
    lines.insert(at, f"0 2 {x!r} {y!r}")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scene.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(data.DataError, match=f"scene.txt: line {at + 1}: position"):
            data.ingest_benchmark_file(path, "scene")


# ---------------------------------------------------------------------------
# Checkpoint container: every dtype tag, 0-d and zero-size shapes, any JSON

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8)
container_arrays = st.dictionaries(
    st.text(max_size=8),
    hnp.arrays(st.sampled_from(["<f4", "<f8", "<i8", "|u1"]),
               hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)),
    max_size=4)


@given(st.dictionaries(st.text(max_size=8), json_values, max_size=4), container_arrays)
@settings(max_examples=60, deadline=None)
def test_container_round_trips_bit_exact(metadata, arrays):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.tjdf")
        checkpoint.save_container(path, metadata, arrays)
        meta2, arrays2, _ = checkpoint.load_container(path)
    assert meta2 == metadata
    assert set(arrays2) == set(arrays)
    for name, arr in arrays.items():
        got = arrays2[name]
        assert (got.dtype, got.shape) == (arr.dtype, arr.shape)
        assert got.tobytes() == arr.tobytes()     # bit-exact, NaN payloads too
        assert got.flags.writeable


@given(st.dictionaries(st.text(max_size=4), json_values, max_size=2), container_arrays)
@settings(max_examples=20, deadline=None)
def test_container_truncated_anywhere_is_container_error(metadata, arrays):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.tjdf")
        checkpoint.save_container(path, metadata, arrays)
        with open(path, "rb") as fh:
            blob = fh.read()
        for cut in range(len(blob)):
            with open(path, "wb") as fh:
                fh.write(blob[:cut])
            with pytest.raises(checkpoint.ContainerError):
                checkpoint.load_container(path)


# ---------------------------------------------------------------------------
# The joint pass's recorded operations against the primitive tape


@st.composite
def joint_passes(draw):
    """A small model (odd kernels from 3 to 7, so also above t_obs, and down
    to an empty denoiser trunk) and 1 to 3 windows of 1 to 6 pedestrians,
    whose neighbor masks may be empty."""
    cfg = ModelConfig(t_obs=draw(st.integers(1, 9)), t_future=draw(st.integers(1, 12)),
                      kernel=draw(st.sampled_from([3, 5, 7])),
                      denoiser_blocks=draw(st.integers(0, 3)), conv_channels=3,
                      d_phi=3, d_psi=2, denoiser_width=8, step_dim=4, k_total=10,
                      steps=5, beta_end=0.5)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    windows = []
    for n in draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)):
        mask = np.triu(rng.random((n, n)) < draw(st.sampled_from([0.0, 0.5, 1.0])), 1)
        windows.append(data.SceneWindow(
            "s", list(range(n)), rng.normal(scale=0.3, size=(n, cfg.t_obs, 2)),
            rng.normal(scale=0.3, size=(n, cfg.t_future, 2)), np.zeros((n, 2)),
            mask | mask.T))
    return cfg, windows


def _sampled_entries(params, rng, per_module: int = 2) -> dict[str, list[int]]:
    """``per_module`` flat indices into randomly chosen parameters of each
    module: the two encoders, the converter and the denoiser."""
    entries: dict[str, list[int]] = {}
    for prefix in ("hist.", "nbr.", "conv.", "den."):
        names = [k for k in params if k.startswith(prefix)]
        for name in rng.choice(names, per_module):
            entries.setdefault(str(name), []).append(int(rng.integers(params[name].size)))
    return entries


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@given(joint_passes(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_joint_pass_matches_primitive_tape(dtype, drawn, seed):
    # the explicit pass against the primitive tape, byte for byte, and in
    # float64 a few of its gradient entries per module against central
    # differences
    cfg, windows = drawn

    def model():
        mdl = Model.initialize(cfg, 1)
        mdl.norm = training.freeze_normalization(mdl, windows)
        return mdl

    def run(batch_losses):
        with nm.precision(dtype):
            mdl = model()
            total, parts, cache = batch_losses(windows, mdl, np.random.default_rng(2),
                                               (1.0, 0.5, 2.0))
            grads = nm.backward(total)
        assert total[0].dtype == dtype
        return (total[0].tobytes(), parts, cache["guidance"].tobytes(),
                cache["y0n"].tobytes(), {k: g.tobytes() for k, g in grads.items()})

    got = run(training.batch_losses)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diffusion, "denoiser_apply", denoiser_tape)
        want = run(batch_losses_tape)
    assert got == want
    if dtype != np.float64:
        return
    with nm.precision(dtype):
        mdl = model()

        def total(params):
            # ``params`` are the model's own views, perturbed in place
            return training.batch_losses(windows, mdl, np.random.default_rng(2),
                                         (1.0, 0.5, 2.0))[0]

        # a step of 1e-5 keeps the truncation error of the central
        # difference well inside the tolerance
        report = finite_difference_check(
            total, mdl.params, step=1e-5, tolerance=1e-2,
            entries=_sampled_entries(mdl.params, np.random.default_rng(seed)))
    assert report["pass"], report
