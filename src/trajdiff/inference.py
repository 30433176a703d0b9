"""Hybrid sampling strategies and Best-of-N displacement-error evaluation.

Candidate futures come from two noise sources: the initial draw of each
reverse-diffusion run, and the explicit per-timestep Gaussians that a run
generates.  A window's runs are one array of raw statistics
[runs, N, T', 5] (``Model.generate``).  Three strategies cover the
combinations:

    A   r1 reverse runs, pick the best run, then r2 Gaussian draws
        plus that run's mean trajectory
    B   r independent reverse runs, one Gaussian draw from each
    C   one reverse run, r Gaussian draws

Selection for A is either ``gt-ade`` (argmin mean-trajectory ADE against
the ground truth, standard Best-of-N practice) or ``self-likelihood``
(argmax of the run's own mean log score, usable without ground truth);
``select_best`` scores every run of a window at once, and each strategy
takes its draws from one ``sample_field`` call per window.

``sample_windows`` is the one sampling path; evaluation and prediction
both call it.  ``best_of_n`` is the one displacement metric: per
pedestrian, the ADE (mean Euclidean error over timesteps, meters) of the
best candidate and the FDE (final-timestep error) of that same candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import data, distribution
from . import numerics as nm
from .diffusion import GAMMA_MODES
from .model import Model

SELECTIONS = ("gt-ade", "self-likelihood")


@dataclass
class SamplingStrategy:
    kind: str = "A"                       # A, B or C
    # every count, not only the kind's: ``ablate --axis sampling`` runs all
    # three kinds with these counts
    r1: int = nm.setting(10, 1)           # reverse runs (A)
    r2: int = nm.setting(10, 0)           # Gaussian draws from the selected field (A)
    r: int = nm.setting(20, 1)            # runs (B) or draws (C)
    pool_run_means: bool = False          # A only: also keep every run's mean trajectory

    def __post_init__(self):
        if self.kind not in ("A", "B", "C"):
            raise ValueError(f"unknown strategy {self.kind!r}")
        nm.check_settings(self, "protocol")

    @property
    def runs(self) -> int:
        """Reverse-diffusion runs per window."""
        return {"A": self.r1, "B": self.r, "C": 1}[self.kind]


@dataclass
class PredictionSet:
    """Candidate absolute trajectories [N, M, T', 2] plus their provenance:
    one (diffusion_run_index, gaussian_draw_index or 'mean') pair per
    candidate."""

    candidates: np.ndarray
    provenance: list[tuple[int, object]] = field(default_factory=list)

    def __post_init__(self):
        if self.candidates.ndim != 4 or self.candidates.shape[1] < 1:
            raise ValueError(f"candidates must be [N, M>=1, T', 2], got {self.candidates.shape}")
        if not np.all(np.isfinite(self.candidates)):
            raise ValueError("non-finite candidate trajectory")

    @property
    def n_candidates(self) -> int:
        return self.candidates.shape[1]


def select_best(runs: np.ndarray, criterion: str,
                gt_abs: np.ndarray | None = None,
                origin: np.ndarray | None = None) -> int:
    """Index of the preferred run of one window's raw statistics
    ``runs`` [R, N, T', 5], every run scored at once; ties go to the lowest
    index.  Each score reduces a run's contiguous [N, T'] block, so it
    rounds as that run's score alone."""
    if len(runs) == 0:
        raise ValueError("select_best needs at least one run")
    if criterion == "gt-ade":
        if gt_abs is None or origin is None:
            raise ValueError("gt-ade selection needs ground truth and origins")
        placed = origin[:, None] + np.cumsum(runs[..., 0:2], axis=-2)
        return int(np.argmin(np.linalg.norm(placed - gt_abs, axis=-1).mean(axis=(-2, -1))))
    if criterion == "self-likelihood":
        return int(np.argmax(distribution.mean_log_score(runs)))
    raise ValueError(f"unknown selection criterion {criterion!r}")


def _candidates(runs: np.ndarray, origin: np.ndarray, strategy: SamplingStrategy,
                rng: np.random.Generator, selection: str,
                gt_abs: np.ndarray | None) -> PredictionSet:
    """The post-chain half of a strategy on one window's runs [R, N, T', 5]:
    select a run, draw Gaussians and place the candidates, all at once: the
    displacements of every candidate [N, M, T', 2], then one
    ``origin + cumsum`` over them."""
    if strategy.kind == "B":
        parts = [distribution.sample_field(runs, rng)]
        provenance = [(i, 0) for i in range(len(runs))]
    else:
        best, draws, kept = 0, strategy.r, []
        if strategy.kind == "A":
            best = select_best(runs, selection, gt_abs=gt_abs, origin=origin)
            draws = strategy.r2
            kept = list(range(len(runs))) if strategy.pool_run_means else [best]
        parts = [runs[kept, ..., 0:2], distribution.sample_field(runs[best], rng, draws)]
        provenance = [(i, "mean") for i in kept] + [(best, d) for d in range(draws)]
    disp = np.concatenate([p.transpose(1, 0, 2, 3) for p in parts], axis=1)
    return PredictionSet(data.absolute_positions(disp, origin), provenance)


def best_of_n(pset: PredictionSet, gt_abs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-pedestrian minimum ADE and the FDE of the same argmin candidate."""
    dists = np.linalg.norm(pset.candidates - gt_abs[:, None, :, :], axis=-1)
    ades = dists.mean(axis=-1)             # [N, M]
    pick = ades.argmin(axis=1)             # [N]
    rows = np.arange(len(pick))
    return ades[rows, pick], dists[rows, pick, -1]


@dataclass
class EvalProtocol:
    strategy: SamplingStrategy = field(default_factory=SamplingStrategy)
    selection: str = "gt-ade"
    steps: int | None = nm.setting(None, 1)
    seed: int = nm.setting(0, 0, math.inf)
    gamma_mode: str = "deterministic"   # the reverse chain's per-step noise

    def __post_init__(self):
        for name, choices in (("selection", SELECTIONS), ("gamma_mode", GAMMA_MODES)):
            if getattr(self, name) not in choices:
                raise ValueError(f"protocol {name} must be one of {', '.join(choices)}, "
                                 f"got {getattr(self, name)!r}")
        nm.check_settings(self, "protocol")


def sample_windows(model: Model, windows, protocol: EvalProtocol,
                   gts: list[np.ndarray | None],
                   strategies: list[SamplingStrategy] | None = None):
    """Candidate futures for each window under ``protocol``.

    All windows share one reverse chain.  Window i draws from its own
    ``[seed, 23, i]`` generator: first the initial noise of its reverse
    runs, then its Gaussian draws; a ``ddpm-matching`` chain's row blocks
    draw noise from children of one ``[seed, 29]`` generator.  ``gts[i]``
    is window i's absolute future, or None if unknown (``gt-ade`` needs it).

    Given a list of ``strategies`` sharing ``protocol``'s other settings,
    returns one such list per strategy from one chain of the largest run
    count: each strategy takes each window's first runs and draws its
    Gaussians from a generator advanced past only those runs' noise, so
    its candidates are those of a call with it alone.
    """
    listed = strategies is not None
    strategies = strategies if listed else [protocol.strategy]
    if protocol.selection == "gt-ade" and any(gt is None for gt in gts):
        raise ValueError("gt-ade selection requires ground truth")
    n_runs = max(s.runs for s in strategies)
    rngs = [np.random.default_rng([protocol.seed, 23, i]) for i in range(len(windows))]
    chain_rng = (np.random.default_rng([protocol.seed, 29])
                 if protocol.gamma_mode == "ddpm-matching" else None)
    per_window = model.generate(windows, rngs, n_runs, protocol.steps, chain_rng)
    out = []
    for j, strategy in enumerate(strategies):
        if j or strategy.runs < n_runs:   # ``generate`` drew n_runs blocks from rngs
            rngs = [np.random.default_rng([protocol.seed, 23, i])
                    for i in range(len(windows))]
            model.initial_noise(windows, rngs, strategy.runs)
        out.append([_candidates(runs[:strategy.runs], w.origin, strategy, rng,
                                protocol.selection, gt)
                    for w, rng, runs, gt in zip(windows, rngs, per_window, gts,
                                                strict=True)])
    return out if listed else out[0]


def evaluate_windows(model: Model, windows, protocol: EvalProtocol,
                     strategies: list[SamplingStrategy] | None = None):
    """Best-of-N ADE/FDE over a window set, averaged over pedestrians; one
    report per strategy, from one chain, given a list of ``strategies``
    (``sample_windows``)."""
    if not windows:
        raise ValueError("empty evaluation set")
    listed = strategies is not None
    gts = [w.absolute_future() for w in windows]
    reports = []
    for psets in sample_windows(model, windows, protocol, gts,
                                strategies if listed else [protocol.strategy]):
        ade, fde = (np.concatenate(e) for e in zip(*map(best_of_n, psets, gts)))
        reports.append({"ade": float(ade.mean()), "fde": float(fde.mean()),
                        "windows": len(windows), "pedestrians": len(ade)})
    return reports if listed else reports[0]


def evaluate_scenes(model: Model, windows, protocol: EvalProtocol) -> dict:
    """Per-scene report, in sorted scene order, plus the unweighted AVG row."""
    scenes = {name: evaluate_windows(model, [w for w in windows if w.scene_id == name],
                                     protocol)
              for name in sorted({w.scene_id for w in windows})}
    report = {"scenes": scenes}
    if scenes:
        report["avg"] = {
            "ade": float(np.mean([s["ade"] for s in scenes.values()])),
            "fde": float(np.mean([s["fde"] for s in scenes.values()])),
        }
    return report
