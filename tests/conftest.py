"""Shared test plumbing: the acceptance suite reports one line per criterion
through the terminal summary so the lines survive output capture,
``file_hash`` is the reference for the CLI's ``# checkpoint:`` headers,
``one_candidate_errors`` scores one trajectory with the package's metric,
``chain_workers`` sets whether a reverse chain's blocks run as pool tasks and
``far_from_noise`` lets a test build a short schedule.  Any other warning
fails the suite (``filterwarnings`` in pyproject.toml)."""

import hashlib
import re

import numpy as np
import pytest

from trajdiff import diffusion, inference

ACCEPTANCE_LINES = []


def file_hash(path) -> str:
    """Short SHA-256 content hash of a file, read independently of
    ``checkpoint.load_container``."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:12]


def one_candidate_errors(pred, gt) -> tuple[float, float]:
    """ADE and FDE of one trajectory [T', 2] against ``gt``: ``best_of_n``
    on one pedestrian with one candidate."""
    pset = inference.PredictionSet(np.asarray(pred, dtype=np.float64)[None, None])
    ade, fde = inference.best_of_n(pset, np.asarray(gt, dtype=np.float64)[None])
    return float(ade[0]), float(fde[0])


def far_from_noise(alpha_k: str) -> pytest.MarkDecorator:
    """Ignore the exact warning of a schedule whose alpha[K] prints as
    ``alpha_k``, as a short test schedule's does."""
    return pytest.mark.filterwarnings(
        f"ignore:alpha\\[K\\] = {re.escape(alpha_k)}; the final state is far from "
        "standard noise$:RuntimeWarning")


@pytest.fixture
def chain_workers(monkeypatch):
    """``chain_workers(n)`` shows reverse chains ``n`` usable CPUs and one
    BLAS thread, so each block of a chain of more than one is a pool task,
    or two BLAS threads for ``n = 1``, so the blocks run on the calling
    thread, whatever this host's are."""
    def force(n: int) -> None:
        monkeypatch.setattr(diffusion, "_blas_threads", lambda: 1 if n > 1 else 2)
        monkeypatch.setattr(diffusion.os, "sched_getaffinity", lambda pid: set(range(n)))
    return force


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
