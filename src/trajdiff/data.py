"""Trajectory ingestion, windowing and synthetic scene generation.

Benchmark files are plain text, one observation per line::

    frame_id ped_id x y

with 0.4 seconds between consecutive frame steps, positions in meters and
world coordinates.  Windowing slices every scene into fixed-horizon samples
(8 observed frames, 12 future frames by default), converts positions to
per-frame displacements and anchors each pedestrian at the absolute
position of the last observed frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import FLOAT32_MAX, check_settings, setting

T_OBSERVED = 8
T_FUTURE = 12
MAX_PEDS_PER_WINDOW = 32
NEIGHBOR_RADIUS = 5.0
# The largest coordinate magnitude a file may hold, in meters.  The model
# holds a window's displacements in float32 and squares them in its losses;
# a displacement between two coordinates within this bound is at most 2e18
# m, whose square (4e36) float32 can hold (its largest value is 3.4e38).
MAX_COORDINATE = 1e18


class DataError(RuntimeError):
    pass


@dataclass
class RawTrack:
    """One pedestrian's positions on the scene's frame grid."""

    scene_id: str
    ped_id: int
    frames: np.ndarray      # strictly increasing frame ids
    points: np.ndarray      # [len(frames), 2] meters

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.int64)
        self.points = np.asarray(self.points, dtype=np.float64)
        if np.any(np.diff(self.frames) <= 0):
            raise DataError(f"track {self.ped_id} frames not strictly increasing")
        if self.points.shape != (len(self.frames), 2):
            raise DataError("track points/frames length mismatch")


@dataclass
class SceneWindow:
    """One fixed-horizon sample of N co-present pedestrians.

    ``observed``/``future`` hold per-frame displacements (meters per frame);
    the first observed displacement is zero by convention.  ``origin`` is
    the absolute position at the last observed frame, so absolute futures
    are ``origin + cumsum(future)``.
    """

    scene_id: str
    ped_ids: list[int]
    observed: np.ndarray       # [N, T, 2]
    future: np.ndarray         # [N, T', 2]
    origin: np.ndarray         # [N, 2]
    neighbor_mask: np.ndarray  # [N, N] bool, False diagonal
    start_frame: int = 0

    @property
    def n_peds(self) -> int:
        return self.observed.shape[0]

    def absolute_observed(self) -> np.ndarray:
        """Reconstruct absolute observed positions from origin + displacements."""
        n, t, _ = self.observed.shape
        out = np.empty((n, t, 2))
        out[:, -1] = self.origin
        for i in range(t - 2, -1, -1):
            out[:, i] = out[:, i + 1] - self.observed[:, i + 1]
        return out

    def absolute_future(self) -> np.ndarray:
        return absolute_positions(self.future, self.origin)


def absolute_positions(displacements: np.ndarray, origin: np.ndarray) -> np.ndarray:
    """Absolute positions from per-frame displacements [N, ..., T', 2] and
    the origins [N, 2] they start from: ``origin + cumsum`` over frames."""
    lead = (1,) * (displacements.ndim - 2)
    return origin.reshape(len(origin), *lead, 2) + np.cumsum(displacements, axis=-2)


def ingest_benchmark_file(path, scene_id: str) -> list[RawTrack]:
    """Parse a benchmark text file into per-pedestrian tracks.

    Lines are whitespace separated ``frame_id ped_id x y``; blank lines and
    ``#`` comments are ignored.  Ids may be written as floats (``1.0``) but
    must be integers of magnitude below 2**53, where floats are exact, so
    no two ids merge.  Malformed lines, ids that are not such integers and
    duplicate (frame, ped) pairs raise ``DataError`` naming the offending
    line, and so do positions beyond ``MAX_COORDINATE``.  The file is
    UTF-8, with or without a byte-order mark.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc

    rows = {}
    seen = set()
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 4:
            raise DataError(f"{path}: line {lineno}: expected 4 fields, got {len(parts)}")
        try:
            frame, ped = float(parts[0]), float(parts[1])
            x, y = float(parts[2]), float(parts[3])
        except ValueError:
            raise DataError(f"{path}: line {lineno}: non-numeric field") from None
        if not (frame.is_integer() and ped.is_integer()
                and abs(frame) < 2 ** 53 and abs(ped) < 2 ** 53):
            raise DataError(f"{path}: line {lineno}: frame and ped ids must be integers "
                            f"of magnitude below 2**53, got {parts[0]!r} and {parts[1]!r}")
        frame, ped = int(frame), int(ped)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise DataError(f"{path}: line {lineno}: non-finite position")
        if max(abs(x), abs(y)) > MAX_COORDINATE:
            raise DataError(f"{path}: line {lineno}: position ({parts[2]}, {parts[3]}) "
                            f"beyond the {MAX_COORDINATE:.0e} m the model can hold")
        if (frame, ped) in seen:
            raise DataError(f"{path}: line {lineno}: duplicate frame/ped pair ({frame}, {ped})")
        seen.add((frame, ped))
        rows.setdefault(ped, []).append((frame, x, y))

    tracks = []
    for ped in sorted(rows):
        obs = sorted(rows[ped])
        frames = np.array([o[0] for o in obs], dtype=np.int64)
        points = np.array([[o[1], o[2]] for o in obs])
        tracks.append(RawTrack(scene_id, ped, frames, points))
    return tracks


def _scene_grid(tracks: list[RawTrack]) -> np.ndarray:
    frames = np.unique(np.concatenate([t.frames for t in tracks]))
    if len(frames) > 1:
        steps = np.diff(frames)
        if np.any(steps != steps[0]):
            raise DataError(f"scene {tracks[0].scene_id}: frame grid is not uniform")
    return frames


def window_scenes(tracks: list[RawTrack], t_obs: int = T_OBSERVED,
                  t_fut: int = T_FUTURE, stride: int = 1,
                  neighbor_radius: float = NEIGHBOR_RADIUS,
                  max_peds: int = MAX_PEDS_PER_WINDOW) -> list[SceneWindow]:
    """Slide a (t_obs + t_fut)-frame window over every scene.

    A pedestrian joins a window only when present at all of its frames.
    Windows without any qualifying pedestrian are dropped.  When more than
    ``max_peds`` qualify, the pedestrians with the longest tracks win.
    """
    if stride < 1:
        raise DataError("stride must be >= 1")
    span = t_obs + t_fut
    by_scene: dict[str, list[RawTrack]] = {}
    for t in tracks:
        by_scene.setdefault(t.scene_id, []).append(t)

    windows = []
    for scene_id in sorted(by_scene):
        scene_tracks = by_scene[scene_id]
        grid = _scene_grid(scene_tracks)
        if len(grid) < span:
            continue
        placed = _on_grid(scene_tracks, grid)
        present = ~np.isnan(placed).any(axis=2)             # [tracks, frames]
        for start in range(0, len(grid) - span + 1, stride):
            chosen = np.flatnonzero(present[:, start:start + span].all(axis=1)).tolist()
            if not chosen:
                continue
            if len(chosen) > max_peds:
                chosen.sort(key=lambda j: (-len(scene_tracks[j].frames),
                                           scene_tracks[j].ped_id))
                chosen = sorted(chosen[:max_peds], key=lambda j: scene_tracks[j].ped_id)
            windows.append(_build_window(
                scene_id, [scene_tracks[j].ped_id for j in chosen],
                placed[chosen, start:start + span], t_obs, t_fut,
                int(grid[start]), neighbor_radius))
    return windows


def first_window(tracks: list[RawTrack], t_obs: int = T_OBSERVED,
                 t_fut: int = T_FUTURE, neighbor_radius: float = NEIGHBOR_RADIUS
                 ) -> tuple[SceneWindow, bool, list[int]]:
    """The window at the start of one scene's frame grid, for prediction.

    Pedestrians missing any of the first t_obs frames are left out; their
    ids are returned.  The future is attached (``with_gt``) when every kept
    pedestrian also has the following t_fut frames, else it is zeros.
    Returns (window, with_gt, skipped ped ids).
    """
    grid = _scene_grid(tracks)
    if len(grid) < t_obs:
        raise DataError(f"need at least {t_obs} frames, file has {len(grid)}")
    placed = _on_grid(tracks, grid)[:, :t_obs + t_fut]
    present = ~np.isnan(placed).any(axis=2)               # [tracks, frames]
    kept = present[:, :t_obs].all(axis=1)
    if not kept.any():
        raise DataError("no pedestrian has a full observation history")
    with_gt = len(grid) >= t_obs + t_fut and bool(present[kept].all())
    window = _build_window(
        tracks[0].scene_id, [t.ped_id for t, k in zip(tracks, kept) if k],
        placed[kept] if with_gt else placed[kept, :t_obs], t_obs, t_fut,
        int(grid[0]), neighbor_radius)
    return window, with_gt, [t.ped_id for t, k in zip(tracks, kept) if not k]


def _on_grid(tracks: list[RawTrack], grid: np.ndarray) -> np.ndarray:
    """Each track's positions on the scene grid, [tracks, len(grid), 2];
    NaN where the pedestrian is absent."""
    placed = np.full((len(tracks), len(grid), 2), np.nan)
    for j, tr in enumerate(tracks):
        placed[j, np.searchsorted(grid, tr.frames)] = tr.points
    return placed


def _build_window(scene_id: str, ped_ids: list[int], positions: np.ndarray,
                  t_obs: int, t_fut: int, start_frame: int,
                  neighbor_radius: float) -> SceneWindow:
    """Window from absolute positions [N, t_obs or t_obs + t_fut, 2]; the
    future is zeros when only the observed frames are given."""
    disp = np.zeros_like(positions)
    disp[:, 1:] = positions[:, 1:] - positions[:, :-1]
    n = len(ped_ids)
    window = SceneWindow(
        scene_id=scene_id,
        ped_ids=ped_ids,
        observed=disp[:, :t_obs].copy(),
        future=(disp[:, t_obs:].copy() if positions.shape[1] > t_obs
                else np.zeros((n, t_fut, 2))),
        origin=positions[:, t_obs - 1].copy(),
        neighbor_mask=np.zeros((n, n), dtype=bool),
        start_frame=start_frame,
    )
    window.neighbor_mask = neighbor_sets(window, neighbor_radius)
    return window


def neighbor_sets(window: SceneWindow, radius: float) -> np.ndarray:
    """j neighbors i iff their minimum distance over observed frames <= radius."""
    if not 0 < radius < math.inf:
        raise DataError(f"neighbor radius must be finite and > 0, got {radius}")
    pos = window.absolute_observed()                     # [N, T, 2]
    diff = pos[:, None, :, :] - pos[None, :, :, :]       # [N, N, T, 2]
    dist = np.linalg.norm(diff, axis=-1).min(axis=-1)    # [N, N]
    mask = dist <= radius
    np.fill_diagonal(mask, False)
    return mask


SYNTH_SCENE_PREFIX = "synth"    # scene ids are synth00, synth01, ...
REPULSION_RADIUS = 1.0          # meters; closer pairs push each other apart
REPULSION_FLOOR = 0.05          # meters; a closer pair pushes as if this far apart
SYNTH_GROUP_PAIRS = 2 ** 16     # pedestrian pairs of the scenes stepped together


@dataclass
class SynthConfig:
    """Noisy constant-velocity walkers with pairwise repulsion in a ``box`` m square."""

    n_scenes: int = setting(4, 1)
    peds_per_scene: int = setting(6, 1)
    frames: int = setting(40, 1)
    speed_min: float = setting(0.2, 0.0, FLOAT32_MAX, above=True)   # meters per frame
    speed_max: float = setting(0.5, 0.0, FLOAT32_MAX, above=True)
    turn_noise: float = setting(0.1, 0.0, FLOAT32_MAX)              # radians per frame
    repulsion_gain: float = setting(0.05, 0.0, FLOAT32_MAX)
    seed: int = setting(0, 0, math.inf)
    box: float = setting(20.0, 0.0, FLOAT32_MAX, above=True)

    def __post_init__(self):
        check_settings(self, "synth")
        if self.speed_min > self.speed_max:
            raise ValueError(f"synth speed_min {self.speed_min} exceeds "
                             f"speed_max {self.speed_max}")
        # a walker moves at most speed_max plus a push of at most
        # 1 / REPULSION_FLOOR per neighbour a frame; its scene must ingest
        reach = self.box + (self.frames - 1) * (
            self.speed_max + self.repulsion_gain * (self.peds_per_scene - 1) / REPULSION_FLOOR)
        if reach > MAX_COORDINATE:
            raise ValueError(f"synth walkers could reach {reach:.3g} m, beyond "
                             f"MAX_COORDINATE {MAX_COORDINATE:.0e} m")


def synthesize_scenes(config: SynthConfig) -> list[RawTrack]:
    """Deterministic synthetic tracks in benchmark form (frame step 10).

    Scene ``s`` draws its walkers from its own ``default_rng([seed, s])``.
    Scenes are stepped together frame by frame, in groups of at most
    ``SYNTH_GROUP_PAIRS`` pedestrian pairs (one scene at the least), by one
    scene's per-element operations: its bytes do not depend on the others."""
    n = config.peds_per_scene
    group = max(1, SYNTH_GROUP_PAIRS // (n * n))
    tracks = []
    for first in range(0, config.n_scenes, group):
        scenes = range(first, min(first + group, config.n_scenes))
        history = _walk(config, [np.random.default_rng([config.seed, s]) for s in scenes])
        for g, s in enumerate(scenes):
            frames = np.arange(config.frames, dtype=np.int64) * 10
            tracks += [RawTrack(f"{SYNTH_SCENE_PREFIX}{s:02d}", p, frames, history[:, g, p])
                       for p in range(n)]
    return tracks


def _walk(config: SynthConfig, rngs: list[np.random.Generator]) -> np.ndarray:
    """Positions [frames, scenes, peds, 2] of one scene per generator."""
    n = config.peds_per_scene
    draws = [(rng.uniform(0.0, config.box, size=(n, 2)), rng.uniform(-np.pi, np.pi, size=n),
              rng.uniform(0.0, 1.0, size=n), rng.normal(0.0, 1.0, size=(config.frames - 1, n)))
             for rng in rngs]
    pos, heading, unit, turns = (np.stack(d) for d in zip(*draws))
    speed = config.speed_min + unit * (config.speed_max - config.speed_min)
    history = np.empty((config.frames, *pos.shape))
    history[0] = pos
    for f in range(1, config.frames):
        heading = heading + config.turn_noise * turns[:, f - 1]
        step = speed[..., None] * np.stack([np.cos(heading), np.sin(heading)], axis=-1)
        if config.repulsion_gain > 0:
            delta = pos[:, :, None, :] - pos[:, None, :, :]        # [scenes, n, n, 2]
            dist = np.linalg.norm(delta, axis=-1)
            dist[:, np.arange(n), np.arange(n)] = np.inf
            close = dist < REPULSION_RADIUS
            if np.any(close):           # a scene without a close pair keeps its step
                push = np.where(close[..., None],
                                delta / np.maximum(dist, REPULSION_FLOOR)[..., None] ** 2, 0.0)
                step = np.where(close.any(axis=(1, 2))[:, None, None],
                                step + config.repulsion_gain * push.sum(axis=2), step)
        pos = pos + step
        # reflect off the low walls, then off the high ones
        pos = np.where(pos < 0, -pos, pos)
        pos = np.where(pos > config.box, 2 * config.box - pos, pos)
        history[f] = pos
    return history


def write_benchmark_file(path, tracks: list[RawTrack]) -> None:
    """One ``frame ped x y`` line per point, sorted by frame, then ped."""
    rows = sorted((f, tr.ped_id, x, y) for tr in tracks
                  for f, (x, y) in zip(tr.frames.tolist(), tr.points.tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%d %s %.6f %.6f\n" * len(rows) % tuple(v for row in rows for v in row))
