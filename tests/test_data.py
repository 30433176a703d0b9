"""Ingestion, windowing, neighbor rules and synthetic scenes."""

from dataclasses import replace

import numpy as np
import pytest

from references import synthesize_scenes_one_by_one, write_benchmark_file_by_row
from trajdiff import data


def _write(tmp_path, text, name="scene.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestIngest:
    def test_two_line_track(self, tmp_path):
        path = _write(tmp_path, "0 1 0.0 0.0\n10 1 0.4 0.0\n")
        tracks = data.ingest_benchmark_file(path, "s")
        assert len(tracks) == 1
        assert tracks[0].ped_id == 1
        assert list(tracks[0].frames) == [0, 10]
        np.testing.assert_allclose(tracks[0].points, [[0.0, 0.0], [0.4, 0.0]])

    def test_empty_file(self, tmp_path):
        assert data.ingest_benchmark_file(_write(tmp_path, ""), "s") == []

    def test_comments_and_blank_lines(self, tmp_path):
        path = _write(tmp_path, "# header\n\n0 1 1.0 2.0  # trailing\n")
        tracks = data.ingest_benchmark_file(path, "s")
        assert len(tracks) == 1

    def test_non_numeric_field_names_line(self, tmp_path):
        path = _write(tmp_path, "0 1 abc 0.0\n")
        with pytest.raises(data.DataError, match="line 1"):
            data.ingest_benchmark_file(path, "s")

    def test_duplicate_frame_ped(self, tmp_path):
        path = _write(tmp_path, "0 1 0.0 0.0\n0 1 1.0 1.0\n")
        with pytest.raises(data.DataError, match="duplicate"):
            data.ingest_benchmark_file(path, "s")

    def test_missing_file(self, tmp_path):
        with pytest.raises(data.DataError, match="cannot read"):
            data.ingest_benchmark_file(tmp_path / "nope.txt", "s")

    @pytest.mark.parametrize("line", [
        "inf 1 1.0 2.0", "nan 1 1.0 2.0", "1e400 1 1.0 2.0", "1e300 1 1.0 2.0",
        "9007199254740993 1 1.0 2.0", "0 1.5 1.0 2.0", "0 -inf 1.0 2.0",
        "0.5 1 1.0 2.0",
    ])
    def test_bad_id_names_line(self, tmp_path, line):
        # non-finite, overflowing, beyond 2**53 (where floats skip integers)
        # and non-integral ids: a 1.5 truncated to 1 would merge two pedestrians
        path = _write(tmp_path, f"0 7 0.0 0.0\n{line}\n")
        frame, ped = line.split()[:2]
        with pytest.raises(data.DataError, match=f"line 2: frame and ped ids .* got "
                                                 f"'{frame}' and '{ped}'"):
            data.ingest_benchmark_file(path, "s")

    def test_scene_beyond_float32_scale_is_refused_at_its_line(self, tmp_path):
        # a valid synthetic scene with its coordinates scaled by 1e36 ingested,
        # then failed training at its first step
        tracks = data.synthesize_scenes(data.SynthConfig(n_scenes=1, peds_per_scene=3,
                                                         frames=25, seed=2))
        data.write_benchmark_file(tmp_path / "big.txt", [
            data.RawTrack(t.scene_id, t.ped_id, t.frames, t.points * 1e36) for t in tracks])
        with pytest.raises(data.DataError, match="big.txt: line 1: position .* beyond"):
            data.ingest_benchmark_file(tmp_path / "big.txt", "s")

    def test_coordinates_at_the_bound_ingest(self, tmp_path):
        path = _write(tmp_path, f"0 1 {data.MAX_COORDINATE!r} {-data.MAX_COORDINATE!r}\n")
        (track,) = data.ingest_benchmark_file(path, "s")
        assert track.points.tolist() == [[data.MAX_COORDINATE, -data.MAX_COORDINATE]]

    def test_float_written_ids_accepted(self, tmp_path):
        path = _write(tmp_path, "0.0 1.0 0.0 0.0\n10 1 0.4 0.0\n1e1 -2.0 1 1\n")
        tracks = data.ingest_benchmark_file(path, "s")
        assert [t.ped_id for t in tracks] == [-2, 1]
        assert list(tracks[1].frames) == [0, 10]

    def test_undecodable_file_is_data_error(self, tmp_path):
        path = tmp_path / "scene.txt"
        path.write_bytes(b"0 1 0.0 0.0\n\xff\xfe 1 0.0 0.0\n")
        with pytest.raises(data.DataError, match="cannot read"):
            data.ingest_benchmark_file(path, "s")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        text = "0 1 0.0 0.0\n10 1 0.4 0.0\n0 2 1.5 -2.0\n"
        marked = tmp_path / "marked.txt"
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        tracks = [[(t.ped_id, t.frames.tolist(), t.points.tolist())
                   for t in data.ingest_benchmark_file(path, "s")]
                  for path in (_write(tmp_path, text), marked)]
        assert tracks[0] == tracks[1] and len(tracks[0]) == 2

    def test_sorted_by_ped_then_frame(self, tmp_path):
        path = _write(tmp_path, "10 2 0 0\n0 2 1 1\n0 1 2 2\n")
        tracks = data.ingest_benchmark_file(path, "s")
        assert [t.ped_id for t in tracks] == [1, 2]
        assert list(tracks[1].frames) == [0, 10]


def _straight_track(scene="s", ped=1, n=25, step=(0.1, 0.0), start=(0.0, 0.0)):
    frames = np.arange(n) * 10
    pts = np.array(start) + np.arange(n)[:, None] * np.array(step)
    return data.RawTrack(scene, ped, frames, pts)


class TestWindowing:
    def test_window_count_formula(self):
        # 25 frames, span 20, stride 1 -> 25 - 20 + 1 = 6 windows
        windows = data.window_scenes([_straight_track(n=25)], stride=1)
        assert len(windows) == 6

    def test_short_track_contributes_nothing(self):
        assert data.window_scenes([_straight_track(n=19)], stride=1) == []

    def test_constant_velocity_displacements(self):
        (w,) = data.window_scenes([_straight_track(n=20)], stride=1)
        np.testing.assert_allclose(w.observed[0, 0], [0.0, 0.0])
        np.testing.assert_allclose(w.observed[0, 1:],
                                   np.tile([0.1, 0.0], (7, 1)), atol=1e-12)
        np.testing.assert_allclose(w.future[0], np.tile([0.1, 0.0], (12, 1)),
                                   atol=1e-12)

    def test_origin_is_last_observed_position(self):
        (w,) = data.window_scenes([_straight_track(n=20)], stride=1)
        np.testing.assert_allclose(w.origin[0], [0.7, 0.0], atol=1e-12)

    def test_absolute_round_trip(self):
        rng = np.random.default_rng(0)
        frames = np.arange(26) * 10
        pts = rng.normal(size=(26, 2)).cumsum(axis=0)
        track = data.RawTrack("s", 1, frames, pts)
        for w in data.window_scenes([track], stride=3):
            i = (w.start_frame // 10)
            np.testing.assert_allclose(w.absolute_observed()[0], pts[i:i + 8],
                                       atol=1e-9)
            np.testing.assert_allclose(w.absolute_future()[0], pts[i + 8:i + 20],
                                       atol=1e-9)

    def test_partially_present_ped_dropped(self):
        full = _straight_track(ped=1, n=20)
        partial = data.RawTrack("s", 2, np.arange(5) * 10,
                                np.zeros((5, 2)))
        (w,) = data.window_scenes([full, partial], stride=1)
        assert w.ped_ids == [1]

    def test_non_uniform_grid_rejected(self):
        bad = data.RawTrack("s", 1, np.array([0, 10, 30, 40]), np.zeros((4, 2)))
        with pytest.raises(data.DataError, match="uniform"):
            data.window_scenes([bad], t_obs=2, t_fut=2)

    def test_first_window_equals_window_scenes(self, tmp_path):
        cfg = data.SynthConfig(n_scenes=1, peds_per_scene=5, frames=20, seed=6)
        path = tmp_path / "scene.txt"
        data.write_benchmark_file(path, data.synthesize_scenes(cfg))
        tracks = data.ingest_benchmark_file(path, "scene")
        window, with_gt, skipped = data.first_window(tracks)
        want = data.window_scenes(tracks, stride=1)[0]
        assert with_gt and skipped == []
        assert (window.scene_id, window.ped_ids, window.start_frame) == (
            want.scene_id, want.ped_ids, want.start_frame)
        for name in ("observed", "future", "origin", "neighbor_mask"):
            got, ref = getattr(window, name), getattr(want, name)
            assert got.dtype == ref.dtype
            np.testing.assert_array_equal(got, ref)

    def test_first_window_without_future(self):
        full = _straight_track(ped=1, n=12)
        late = data.RawTrack("s", 2, np.arange(2, 12) * 10, np.zeros((10, 2)))
        window, with_gt, skipped = data.first_window([full, late])
        assert not with_gt and skipped == [2]
        assert window.ped_ids == [1]
        np.testing.assert_array_equal(window.future, np.zeros((1, 12, 2)))
        np.testing.assert_allclose(window.origin[0], [0.7, 0.0], atol=1e-12)

    def test_ped_cap_prefers_long_tracks(self):
        tracks = [_straight_track(ped=i, n=20 if i else 25) for i in range(4)]
        (w, *_) = data.window_scenes(tracks, stride=1, max_peds=2)
        assert w.ped_ids[0] == 0   # the 25-frame track survives the cap
        assert w.n_peds == 2


class TestNeighbors:
    def test_close_pair_mutual(self):
        a = _straight_track(ped=1, n=20, start=(0.0, 0.0))
        b = _straight_track(ped=2, n=20, start=(0.0, 0.5))
        (w,) = data.window_scenes([a, b], stride=1, neighbor_radius=5.0)
        assert w.neighbor_mask[0, 1] and w.neighbor_mask[1, 0]

    def test_far_pair_disconnected(self):
        a = _straight_track(ped=1, n=20, start=(0.0, 0.0))
        b = _straight_track(ped=2, n=20, start=(100.0, 100.0))
        (w,) = data.window_scenes([a, b], stride=1, neighbor_radius=5.0)
        assert not w.neighbor_mask.any()

    def test_mask_symmetric_and_hollow(self):
        cfg = data.SynthConfig(n_scenes=1, peds_per_scene=6, frames=20, seed=4)
        windows = data.window_scenes(data.synthesize_scenes(cfg), stride=1)
        for w in windows:
            np.testing.assert_array_equal(w.neighbor_mask, w.neighbor_mask.T)
            assert not np.diag(w.neighbor_mask).any()

    def test_radius_must_be_positive(self):
        (w,) = data.window_scenes([_straight_track(n=20)], stride=1)
        with pytest.raises(data.DataError):
            data.neighbor_sets(w, 0.0)

    @pytest.mark.parametrize("radius", [np.nan, np.inf, 0.0, -1.0])
    def test_radius_must_be_finite_and_positive_at_both_entry_points(self, radius):
        # nan would pass a ``<= 0`` check and leave every pedestrian alone
        tracks = [_straight_track(ped=i, n=20, start=(0.0, 0.5 * i)) for i in range(4)]
        with pytest.raises(data.DataError, match="neighbor radius"):
            data.window_scenes(tracks, stride=1, neighbor_radius=radius)
        with pytest.raises(data.DataError, match="neighbor radius"):
            data.first_window(tracks, neighbor_radius=radius)


class TestSynthetic:
    def test_seed_determinism(self):
        cfg = data.SynthConfig(n_scenes=2, peds_per_scene=3, frames=15, seed=9)
        a = data.synthesize_scenes(cfg)
        b = data.synthesize_scenes(cfg)
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(ta.points, tb.points)

    def test_degenerate_dynamics_are_straight(self):
        cfg = data.SynthConfig(n_scenes=1, peds_per_scene=3, frames=12,
                               turn_noise=0.0, repulsion_gain=0.0, seed=2,
                               speed_min=0.01, speed_max=0.02)
        for track in data.synthesize_scenes(cfg):
            steps = np.diff(track.points, axis=0)
            np.testing.assert_allclose(
                steps, np.broadcast_to(steps[0], steps.shape), atol=1e-9)

    def test_repulsion_increases_minimum_distance(self):
        # seed 0 puts two walkers on a near-collision course (verified by
        # the repulsion-off rollout dipping under the 1 m trigger radius)
        base = dict(n_scenes=1, peds_per_scene=2, frames=30, seed=0,
                    box=4.0, turn_noise=0.0, speed_min=0.2, speed_max=0.3)

        def min_dist(gain):
            tracks = data.synthesize_scenes(
                data.SynthConfig(repulsion_gain=gain, **base))
            d = np.linalg.norm(tracks[0].points - tracks[1].points, axis=1)
            return d.min()

        off, on = min_dist(0.0), min_dist(0.5)
        assert off < 1.0
        assert on > off

    def test_scale_covariance(self):
        # doubling the speed range doubles every displacement while no wall
        # or repulsion event fires
        base = dict(n_scenes=1, peds_per_scene=3, frames=10, seed=6,
                    turn_noise=0.2, repulsion_gain=0.0)
        slow = data.synthesize_scenes(data.SynthConfig(
            speed_min=0.001, speed_max=0.002, **base))
        fast = data.synthesize_scenes(data.SynthConfig(
            speed_min=0.002, speed_max=0.004, **base))
        for ts, tf in zip(slow, fast):
            np.testing.assert_allclose(np.diff(tf.points, axis=0),
                                       2.0 * np.diff(ts.points, axis=0),
                                       rtol=1e-9, atol=1e-12)

    def test_positions_stay_in_box(self):
        cfg = data.SynthConfig(n_scenes=1, peds_per_scene=4, frames=200, seed=1,
                               speed_min=0.3, speed_max=0.6)
        for track in data.synthesize_scenes(cfg):
            assert track.points.min() >= 0.0
            assert track.points.max() <= cfg.box

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError, match="synth n_scenes must be in 1.."):
            data.SynthConfig(n_scenes=0)
        with pytest.raises(ValueError, match="synth turn_noise must be in 0\\.\\.3.40282e"):
            data.SynthConfig(turn_noise=-1.0)
        for field in ("speed_max", "box", "turn_noise", "repulsion_gain"):
            with pytest.raises(ValueError, match=f"{field} must be in .*3.40282e"):
                data.SynthConfig(**{field: 1e39})

    @pytest.mark.parametrize("settings", [{"speed_max": 1e17, "frames": 20},
                                          {"box": 2e18}, {"repulsion_gain": 1e15}])
    def test_walkers_that_could_leave_ingests_range_rejected(self, settings):
        with pytest.raises(ValueError, match="could reach .* beyond MAX_COORDINATE"):
            data.SynthConfig(**settings)


# perfbench's workload scenes (its ``SYNTH``): 20 scenes of 8 walkers in a 6 m box
PERFBENCH_SYNTH = data.SynthConfig(n_scenes=20, peds_per_scene=8, frames=100, seed=11,
                                   box=6.0, turn_noise=0.04, repulsion_gain=0.4,
                                   speed_min=0.2, speed_max=0.4)
SYNTH_MATRIX = {
    "default": data.SynthConfig(),
    "perfbench": PERFBENCH_SYNTH,
    "one-walker": data.SynthConfig(n_scenes=1, peds_per_scene=1),
    "one-frame": data.SynthConfig(frames=1),
    "two-frames": data.SynthConfig(frames=2),
    "no-repulsion": data.SynthConfig(repulsion_gain=0.0),
    # many close pairs and wall hits every frame
    "dense": data.SynthConfig(n_scenes=3, peds_per_scene=30, frames=60, box=3.0,
                              repulsion_gain=0.3, seed=4),
    # perfbench's predict requests: one scene, 20 frames
    **{f"predict-{n}": data.SynthConfig(n_scenes=1, peds_per_scene=n, frames=20, seed=40 + n,
                                        box=6.0, turn_noise=0.04, repulsion_gain=0.4,
                                        speed_min=0.2, speed_max=0.4)
       for n in range(1, 17)},
}


def _track_bytes(tracks):
    return [(t.scene_id, t.ped_id, t.frames.tobytes(), t.points.tobytes()) for t in tracks]


class TestGroupedSynthesis:
    """The scenes stepped together give each scene's one-by-one bytes."""

    @pytest.mark.parametrize("name", sorted(SYNTH_MATRIX))
    def test_bytes_equal_the_one_by_one_reference(self, name):
        cfg = SYNTH_MATRIX[name]
        got = data.synthesize_scenes(cfg)
        want = synthesize_scenes_one_by_one(cfg)
        assert len(got) == cfg.n_scenes * cfg.peds_per_scene
        assert _track_bytes(got) == _track_bytes(want)
        assert all(t.points.dtype == np.float64 and t.frames.dtype == np.int64 for t in got)

    def test_a_scene_does_not_depend_on_the_scenes_after_it(self):
        full = data.synthesize_scenes(PERFBENCH_SYNTH)
        n = PERFBENCH_SYNTH.peds_per_scene
        for s in (0, 7, 19):
            fewer = data.synthesize_scenes(replace(PERFBENCH_SYNTH, n_scenes=s + 1))
            assert _track_bytes(fewer[s * n:]) == _track_bytes(full[s * n:(s + 1) * n])

    @pytest.mark.parametrize("name", ["perfbench", "dense", "default"])
    def test_one_scene_per_group_gives_the_same_bytes(self, monkeypatch, name):
        cfg = SYNTH_MATRIX[name]
        grouped = data.synthesize_scenes(cfg)
        monkeypatch.setattr(data, "SYNTH_GROUP_PAIRS", 1)
        assert _track_bytes(data.synthesize_scenes(cfg)) == _track_bytes(grouped)

    def test_groups_hold_at_most_the_pair_budget(self, monkeypatch):
        walks = []
        walk = data._walk
        monkeypatch.setattr(data, "_walk",
                            lambda cfg, rngs: walks.append(len(rngs)) or walk(cfg, rngs))
        data.synthesize_scenes(PERFBENCH_SYNTH)
        assert walks == [20]                        # 20 x 64 pairs fit in one group
        walks.clear()
        data.synthesize_scenes(data.SynthConfig(n_scenes=3, peds_per_scene=257, frames=2))
        assert walks == [1, 1, 1]                   # above 256 walkers, a group each
        walks.clear()
        data.synthesize_scenes(data.SynthConfig(n_scenes=5, peds_per_scene=128, frames=2))
        assert walks == [4, 1]


class TestBenchmarkFileWriter:
    def _tracks(self):
        # given unsorted, ids of several widths, negative coordinates
        return [
            data.RawTrack("s", 1234, np.array([20, 30]), [[-1.25, 3.0000004], [2.5, -0.0]]),
            data.RawTrack("s", -7, np.array([0, 10, 20]),
                          [[1e6 / 3, -2.0 / 3], [-123.4567894, 0.1], [9.9999995, -9.9999995]]),
            data.RawTrack("s", 5, np.array([10, 20, 40]),
                          [[0.0, 0.0], [-5e-7, 5e-7], [17.0, -17.0]]),
            data.RawTrack("s", np.int64(42), np.array([0]), [[3.14159265, -2.71828183]]),
        ]

    def test_bytes_equal_the_per_row_reference(self, tmp_path):
        tracks = self._tracks()
        data.write_benchmark_file(tmp_path / "a.txt", tracks)
        write_benchmark_file_by_row(tmp_path / "b.txt", tracks)
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
        for cfg in (PERFBENCH_SYNTH, SYNTH_MATRIX["dense"]):
            tracks = data.synthesize_scenes(replace(cfg, n_scenes=1))[::-1]
            data.write_benchmark_file(tmp_path / "a.txt", tracks)
            write_benchmark_file_by_row(tmp_path / "b.txt", tracks)
            assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_no_tracks_write_an_empty_file(self, tmp_path):
        data.write_benchmark_file(tmp_path / "a.txt", [])
        assert (tmp_path / "a.txt").read_bytes() == b""

    def test_round_trip_rounds_each_point_to_six_decimals(self, tmp_path):
        tracks = self._tracks()
        data.write_benchmark_file(tmp_path / "a.txt", tracks)
        loaded = data.ingest_benchmark_file(tmp_path / "a.txt", "s")
        by_ped = {int(t.ped_id): t for t in tracks}
        assert [t.ped_id for t in loaded] == sorted(by_ped)
        for t in loaded:
            want = by_ped[t.ped_id]
            assert t.frames.tolist() == want.frames.tolist()
            assert t.points.tolist() == [[float(f"{v:.6f}") for v in row]
                                         for row in want.points.tolist()]


def test_benchmark_file_round_trip(tmp_path):
    cfg = data.SynthConfig(n_scenes=1, peds_per_scene=3, frames=10, seed=5)
    tracks = data.synthesize_scenes(cfg)
    path = tmp_path / "scene.txt"
    data.write_benchmark_file(path, tracks)
    loaded = data.ingest_benchmark_file(path, tracks[0].scene_id)
    assert len(loaded) == 3
    for a, b in zip(tracks, loaded):
        np.testing.assert_allclose(a.points, b.points, atol=1e-6)
