"""The benchmark harness's calls into the package.

``perfbench/`` drives the package through its public names and does not
change with it, so a renamed or removed name there would only show up as
failed benchmark operations.  These tests import the harness's workloads
and tracer as written and make the calls they make.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from trajdiff import checkpoint, data, diffusion, distribution, inference, training
from trajdiff import numerics as nm
from trajdiff.model import Model, ModelConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def test_train_config(workloads):
    cfg = workloads.train_config()
    assert cfg.denoiser_boost == workloads.JOINT_PASSES - 1
    assert cfg.checkpoint_every == workloads.CHECKPOINT_EVERY


def test_split_windows(workloads):
    train, held_out = workloads.split_windows(data.synthesize_scenes(workloads.SYNTH))
    assert (len(train), len(held_out)) == (272, workloads.HELD_OUT_WINDOWS) == (272, 68)
    assert sum(w.n_peds for w in held_out) == workloads.HELD_OUT_PEDS


def _protocol(workloads):
    """The protocol of ``Train.result``'s held-out evaluation."""
    return inference.EvalProtocol(
        strategy=inference.SamplingStrategy("A", r1=workloads.R1, r2=workloads.R2,
                                            pool_run_means=True),
        steps=workloads.PREDICT_STEPS, seed=0)


def test_eval_protocol(workloads):
    protocol = _protocol(workloads)
    assert protocol.strategy.runs == workloads.R1
    assert protocol.selection in inference.SELECTIONS


def test_train_post_fit_calls(workloads, tmp_path):
    """A fit as ``Train.op`` runs it (here one step), then ``Train.check``'s
    load and ``Train.result``'s evaluation (here of 2 held-out windows)."""
    train, held_out = workloads.split_windows(data.synthesize_scenes(workloads.SYNTH))
    path, rows = training.fit(train[:48], workloads.train_config(epochs=1),
                              ModelConfig(), out_dir=str(tmp_path / "fit"))
    assert len(rows) == 1
    model = Model.load(path)[0]
    report = inference.evaluate_windows(model, held_out[:2], _protocol(workloads))
    assert math.isfinite(report["ade"]) and math.isfinite(report["fde"])


def test_predict_requests_on_model_only_checkpoint(workloads, tmp_path, monkeypatch):
    """``Predict``'s own set-up, ``op`` and ``check`` on 2 request files,
    with the checkpoint of a 1-epoch fit of the train settings: a final
    model without optimizer state.  A checkpoint change that breaks the
    predict workload fails here."""
    train_config = workloads.train_config
    monkeypatch.setattr(workloads, "train_config", lambda epochs=1: train_config(epochs))
    bench = workloads.Predict(seed=3, work_dir=str(tmp_path))
    bench.setup()
    _, arrays, _ = checkpoint.load_container(bench.ckpt)
    assert arrays and all(k.startswith("param.") for k in arrays)
    for i in range(2):
        bench.check(i, bench.op(i))
    assert (bench.attempted, bench.failed, bench.problems) == (2, 0, [])
    assert len(bench.ades) == sum(len(bench.files[i][1]) for i in range(2))


def test_traced_run_names_exist_and_are_patched():
    """The names a traced train run counts on: ``numerics.backward.calls``
    is checked per step, ``_make`` counts the finiteness checks, and the
    denoiser and Adam are layers; the traced eval and predict runs time
    the Gaussian draws, the run selection and the Best-of-N metric.  Each
    must exist and be patched."""
    tracing = _load("tracing")
    needed = ((nm, "_make"), (nm, "backward"), (diffusion, "denoiser_apply"),
              (training, "adam_update"), (distribution, "sample_field"),
              (inference, "select_best"), (inference, "best_of_n"))
    patched = {(module, attr) for module, attr, _orig, _wrapper in tracing.Tracer()._patches}
    for module, name in needed:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
        assert (module, name) in patched, f"{module.__name__}.{name} is not traced"


def test_traced_train_step_counts_one_pass_each():
    """Why ``numerics._make`` and ``numerics.backward`` still exist: the
    traced train run checks ``numerics.backward.calls`` against its passes
    per step and counts ``_make`` calls as finiteness checks.  A joint step
    with 2 denoiser refreshes is 3 passes: ``_make``, ``backward`` and
    ``adam_update`` are each called 3 times."""
    tracing = _load("tracing")
    cfg = ModelConfig(conv_channels=4, d_phi=4, d_psi=4, denoiser_width=8,
                      denoiser_blocks=1, step_dim=4, k_total=20, steps=10, beta_end=0.4)
    windows = data.window_scenes(data.synthesize_scenes(
        data.SynthConfig(n_scenes=2, peds_per_scene=3, frames=25, seed=1)), stride=5)
    mdl = Model.initialize(cfg, 0)
    mdl.norm = training.freeze_normalization(mdl, windows)
    opt = training.AdamState(mdl)
    tracer = tracing.Tracer()
    with tracer.op(0):
        training.train_step(windows[:3], mdl, training.TrainConfig(denoiser_boost=2), opt,
                            np.random.default_rng(0))
    assert tracer.finite_checks == 3
    assert tracer.total("numerics.backward.calls") == 3
    assert tracer.total("training.adam_update.calls") == 3


def _traced_evaluation(workloads, n_windows):
    """Denoiser calls and rows counted by ``Tracer.op`` over a traced
    ``evaluate_windows`` of the first held-out windows, and the rows of
    one chain step (pedestrians x runs)."""
    tracing = _load("tracing")
    cfg = ModelConfig(conv_channels=4, d_phi=2, d_psi=2, denoiser_width=8,
                      denoiser_blocks=1, step_dim=4, k_total=20, steps=10, beta_end=0.4)
    _, held_out = workloads.split_windows(data.synthesize_scenes(workloads.SYNTH))
    windows = held_out[:n_windows]
    tracer = tracing.Tracer()
    with tracer.op(0):
        report = inference.evaluate_windows(Model.initialize(cfg, 0), windows,
                                            _protocol(workloads))
    assert math.isfinite(report["ade"])
    return (tracer.total("diffusion.denoiser_apply.calls"),
            tracer.total("diffusion.denoiser_apply.rows"),
            sum(w.n_peds for w in windows) * workloads.R1)


def test_traced_evaluation_counts_denoiser_rows(workloads):
    """``Tracer.op`` counts ``diffusion.denoiser_apply`` calls and rows, and
    the traced eval and predict runs fail unless the rows equal
    pedestrians x runs x steps: the chain must call the denoiser once per
    step with every row."""
    calls, rows, step_rows = _traced_evaluation(workloads, 2)
    steps = _protocol(workloads).steps
    assert (calls, rows) == (steps, step_rows * steps)


def test_traced_evaluation_above_block_size_counts_denoiser_rows(workloads, chain_workers):
    """As above with 7 windows, 560 rows: the chain's CHAIN_MIN_BLOCKS row
    blocks each go to the denoiser once per step, and the rows still add
    up to every row at every step.  On the calling thread: the tracer adds
    to its counts without a lock, so pool threads could lose a count."""
    chain_workers(1)
    calls, rows, step_rows = _traced_evaluation(workloads, 7)
    steps = _protocol(workloads).steps
    assert diffusion.CHAIN_BLOCK_ROWS < step_rows <= 2 * diffusion.CHAIN_BLOCK_ROWS
    assert (calls, rows) == (steps * diffusion.CHAIN_MIN_BLOCKS, step_rows * steps)
