"""Command line surface: artifacts, determinism, exit codes."""

import argparse
import contextlib
import io
import json
import math
import os
import tempfile
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import file_hash, one_candidate_errors
from trajdiff import checkpoint, cli, data, diffusion, inference, training
from trajdiff.model import Model, ModelConfig

TRAIN_ARGS = ["--channels", "4", "--d-phi", "4", "--d-psi", "4",
              "--width", "8", "--blocks", "1",
              "--k", "20", "--steps", "10", "--beta-end", "0.4",
              "--scenes", "2", "--peds", "3", "--frames", "30",
              "--epochs", "2", "--batch", "4"]


def _train(tmp_path, out="run", seed="7", extra=()):
    rc = cli.main(["train", "--data", "synthetic", "--seed", seed,
                   "--out", str(tmp_path / out), *TRAIN_ARGS, *extra])
    assert rc == 0
    return tmp_path / out / "model.tjdf"


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli")
    return _train(tmp_path), tmp_path


def _strip_wall_ms(log_text):
    rows = []
    for line in log_text.splitlines():
        if line.startswith("#") or line.startswith("step"):
            rows.append(line)
        else:
            rows.append(line.rsplit(",", 1)[0])
    return "\n".join(rows)


class TestTrain:
    def test_produces_checkpoint_and_log(self, trained):
        ckpt, tmp_path = trained
        assert ckpt.exists()
        assert (ckpt.parent / "training_log.csv").exists()

    def test_repeat_runs_identical_up_to_timing(self, tmp_path):
        a = _train(tmp_path, out="a")
        b = _train(tmp_path, out="b")
        la = (a.parent / "training_log.csv").read_text()
        lb = (b.parent / "training_log.csv").read_text()
        assert _strip_wall_ms(la) == _strip_wall_ms(lb)
        assert a.read_bytes() == b.read_bytes()

    def test_parameter_count_is_the_layouts_and_no_checkpoint_is_read(
            self, tmp_path, capsys, monkeypatch):
        load, loads = checkpoint.load_container, []
        monkeypatch.setattr(checkpoint, "load_container",
                            lambda *args, **kw: loads.append(args) or load(*args, **kw))
        ckpt = _train(tmp_path)
        printed = capsys.readouterr().out
        assert loads == []
        mdl = Model.load(ckpt)[0]
        count = sum(math.prod(shape) for shape, _ in mdl.config.param_layout().values())
        assert count == mdl.n_parameters()
        assert f"({count} parameters)" in printed

    def test_unknown_flag_is_usage_error(self):
        assert cli.main(["train", "--data", "synthetic", "--frobnicate"]) == 1

    def test_unknown_config_key_named(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[train]\nnonsense = 4\n")
        rc = cli.main(["train", "--data", "synthetic", "--config", str(cfg)])
        assert rc == 1
        assert "train.nonsense" in capsys.readouterr().err

    def test_gamma_mode_is_not_a_training_setting(self, tmp_path, capsys):
        # the chain's gamma is chosen at sampling time: eval, ablate, predict
        out = tmp_path / "run"
        assert cli.main(["train", "--data", "synthetic", *TRAIN_ARGS, "--out", str(out),
                         "--gamma-mode", "ddpm-matching"]) == 1
        assert "--gamma-mode" in capsys.readouterr().err
        cfg = tmp_path / "old.ini"
        cfg.write_text("[model]\ngamma_mode = ddpm-matching\n")
        assert cli.main(["train", "--data", "synthetic", *TRAIN_ARGS, "--out", str(out),
                         "--config", str(cfg)]) == 1
        assert "unknown config key 'model.gamma_mode'" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "ok.ini"
        cfg.write_text("[synth]\nscenes = 2\npeds = 3\nframes = 30\n"
                       "[train]\nepochs = 1\nbatch = 4\n"
                       "[model]\nchannels = 4\nd_phi = 4\nd_psi = 4\n"
                       "width = 8\nblocks = 1\nk = 20\nsteps = 10\n"
                       "beta_end = 0.4\n")
        rc = cli.main(["train", "--data", "synthetic", "--config", str(cfg),
                       "--seed", "3", "--out", str(tmp_path / "cfg_run")])
        assert rc == 0
        assert (tmp_path / "cfg_run" / "model.tjdf").exists()

    @pytest.mark.parametrize("value", ["runs/d%x", "runs/%(x)s", "runs/100%"])
    def test_config_values_are_read_as_flags_read_them(self, tmp_path, value):
        cfg = tmp_path / "pct.ini"
        cfg.write_text(f"[data]\ndir = {value}\n")
        from_file = cli.parse_args(["train", "--config", str(cfg)])
        assert from_file.data == cli.parse_args(["train", "--data", value]).data == value

    @pytest.mark.parametrize("text, key", [
        ("[DEFAULT]\nbogus = 1\n", "DEFAULT.bogus"),
        ("[DEFAULT]\nepochs = 3\n", "DEFAULT.epochs"),
        ("[DEFAULT]\nepochs = 3\n[train]\nbatch = 4\n", "DEFAULT.epochs"),
    ], ids=["unknown", "alone", "beside-a-section"])
    def test_default_section_keys_are_usage_errors(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "default.ini"
        cfg.write_text(text)
        out = tmp_path / "run"
        assert cli.main(["train", "--data", "synthetic", *TRAIN_ARGS, "--out", str(out),
                         "--config", str(cfg)]) == 1
        assert f"unknown config key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_data_dir_is_data_error(self, tmp_path):
        rc = cli.main(["train", "--data", str(tmp_path / "nope"), *TRAIN_ARGS])
        assert rc == 2

    @pytest.mark.filterwarnings("ignore:overflow encountered in multiply$:RuntimeWarning")
    def test_numeric_failure_exit_code(self, tmp_path):
        rc = cli.main(["train", "--data", "synthetic", "--seed", "7",
                       "--out", str(tmp_path / "blow"), *TRAIN_ARGS,
                       "--lr", "1e18"])
        assert rc == 3

    @pytest.mark.filterwarnings("ignore:overflow encountered in multiply$:RuntimeWarning")
    def test_abort_names_the_failed_optimizer_step(self, tmp_path, capsys):
        # a rate near float32's largest overflows the first update: no step
        # completed before it
        rc = cli.main(["train", "--data", "synthetic", "--seed", "7",
                       "--out", str(tmp_path / "blow"), *TRAIN_ARGS, "--lr", "3e38"])
        assert rc == 3
        assert "training aborted at optimizer step 1:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--lr", "--lambda1", "--lambda2", "--lambda3"])
    def test_settings_beyond_float32_are_usage_errors(self, tmp_path, capsys, flag):
        rc = cli.main(["train", "--data", "synthetic", "--out", str(tmp_path / "out"),
                       *TRAIN_ARGS, flag, "1e39"])
        assert rc == 1
        assert "3.40282e+38" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_env_var_supplies_data_dir(self, tmp_path, monkeypatch):
        scenes = tmp_path / "envscenes"
        assert cli.main(["synth", "--out", str(scenes), "--scenes", "2",
                         "--peds", "2", "--frames", "25", "--seed", "2"]) == 0
        monkeypatch.setenv(cli.ENV_DATA_DIR, str(scenes))
        rc = cli.main(["train", "--seed", "1", "--out", str(tmp_path / "envrun"),
                       *TRAIN_ARGS])
        assert rc == 0


def _with_schedule_arrays(src, dst):
    """``src`` rewritten in the older checkpoint format, which also stored
    the chain's ``gamma_mode`` in the config and the schedule as
    ``schedule.alpha``, ``schedule.gamma`` (zeros in the deterministic
    mode) and ``schedule.tau``."""
    meta, arrays, _ = checkpoint.load_container(src)
    sched = ModelConfig(**meta["config"]).schedule()
    meta["config"]["gamma_mode"] = "deterministic"
    arrays.update({"schedule.alpha": sched.alpha, "schedule.gamma": np.zeros(sched.K),
                   "schedule.tau": sched.tau})
    checkpoint.save_container(dst, meta, arrays)
    return dst


RESUME_ARGS = [*TRAIN_ARGS, "--data", "synthetic", "--seed", "7", "--epochs", "4",
               "--checkpoint-every", "2"]


@pytest.fixture(scope="module")
def mid_run(tmp_path_factory):
    """A 4-step run with a checkpoint after step 2."""
    out = tmp_path_factory.mktemp("resume") / "run"
    assert cli.main(["train", *RESUME_ARGS, "--out", str(out)]) == 0
    assert (out / "ckpt_000002.tjdf").exists()
    return out


class TestResume:
    def test_mid_run_checkpoint_resumes_to_same_bytes(self, mid_run, tmp_path):
        out = tmp_path / "resumed"
        rc = cli.main(["train", *RESUME_ARGS, "--out", str(out),
                       "--resume", str(mid_run / "ckpt_000002.tjdf")])
        assert rc == 0
        assert (out / "model.tjdf").read_bytes() == (mid_run / "model.tjdf").read_bytes()

    def test_older_format_checkpoint_resumes_to_same_bytes(self, mid_run, tmp_path):
        old = _with_schedule_arrays(mid_run / "ckpt_000002.tjdf", tmp_path / "old.tjdf")
        out = tmp_path / "resumed"
        rc = cli.main(["train", *RESUME_ARGS, "--out", str(out), "--resume", str(old)])
        assert rc == 0
        assert (out / "model.tjdf").read_bytes() == (mid_run / "model.tjdf").read_bytes()

    @pytest.mark.parametrize("case", ["no-adam", "no-train-step", "adam-shape",
                                      "adam-m-int", "adam-v-byte", "adam-t-float", "no-log",
                                      "log-rows", "log-steps", "log-cell"])
    def test_unusable_checkpoint_exit_2(self, mid_run, tmp_path, capsys, case):
        # a checkpoint without a log is refused like one without a run
        # record, a usage error (exit 1); the rest are data errors
        meta, arrays, _ = checkpoint.load_container(mid_run / "ckpt_000002.tjdf")
        if case == "no-log":
            del meta["log"]
        elif case == "log-rows":
            meta["log"] = meta["log"][:1]
        elif case == "log-steps":
            meta["log"][1][0] = 3
        elif case == "log-cell":
            meta["log"][1][2] = "0.5"
        elif case == "no-adam":
            arrays = {k: a for k, a in arrays.items() if not k.startswith("adam.")}
        elif case == "no-train-step":
            del meta["train_step"]
        elif case == "adam-shape":
            arrays["adam.m"] = arrays["adam.m"][:-3]
        elif case == "adam-m-int":
            arrays["adam.m"] = arrays["adam.m"].astype(np.int64)
        elif case == "adam-v-byte":
            arrays["adam.v"] = arrays["adam.v"].astype(np.uint8)
        else:
            arrays["adam.t"] = arrays["adam.t"].astype(np.float64)
        bad = tmp_path / "bad.tjdf"
        checkpoint.save_container(bad, meta, arrays)
        out = tmp_path / "resumed"
        rc = cli.main(["train", *RESUME_ARGS, "--out", str(out), "--resume", str(bad)])
        err = capsys.readouterr().err
        if case == "no-log":
            assert rc == 1 and "usage error" in err and "carries no run record and log" in err
        else:
            assert rc == 2 and "data error" in err
            assert ("train_step" if case == "no-train-step"
                    else "log is not" if case.startswith("log") else "adam.") in err
        assert not out.exists()

    def test_log_without_run_line_is_usage_error(self, mid_run, tmp_path, capsys):
        out = tmp_path / "empty"
        out.mkdir()
        (out / "training_log.csv").write_bytes(b"")
        rc = cli.main(["train", *RESUME_ARGS, "--out", str(out),
                       "--resume", str(mid_run / "ckpt_000002.tjdf")])
        assert rc == 1
        assert "has no '# run:' line" in capsys.readouterr().err
        assert os.listdir(out) == ["training_log.csv"]
        assert (out / "training_log.csv").read_bytes() == b""

    def test_log_of_another_run_is_usage_error(self, mid_run, tmp_path, capsys):
        # a straight-through run to step 2 with --lr 0.002, then a resume of
        # the --lr 0.001 run into its directory
        out = tmp_path / "other"
        assert cli.main(["train", *RESUME_ARGS, "--epochs", "2", "--lr", "0.002",
                         "--out", str(out)]) == 0
        os.remove(out / "model.tjdf")
        log = (out / "training_log.csv").read_bytes()
        rc = cli.main(["train", *RESUME_ARGS, "--out", str(out),
                       "--resume", str(mid_run / "ckpt_000002.tjdf")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "usage error" in err
        assert "training_log.csv has run learning_rate = 0.002, this run's is 0.001" in err
        assert os.listdir(out) == ["training_log.csv"]
        assert (out / "training_log.csv").read_bytes() == log

    def test_other_model_flags_are_usage_error(self, mid_run, tmp_path, capsys):
        # --width 16 on a width-8 checkpoint: the run would train the
        # checkpoint's model and report the flags' parameter count
        out = tmp_path / "wider"
        out.mkdir()
        log = (mid_run / "training_log.csv").read_bytes()
        (out / "training_log.csv").write_bytes(log)
        rc = cli.main(["train", *RESUME_ARGS, "--width", "16", "--out", str(out),
                       "--resume", str(mid_run / "ckpt_000002.tjdf")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "model denoiser_width = 8, this run's is 16" in err
        assert os.listdir(out) == ["training_log.csv"]
        assert (out / "training_log.csv").read_bytes() == log

    @pytest.mark.parametrize("flags, field", [
        (["--epochs", "3"], "epochs"),
        (["--seed", "9", "--frames", "25"], "seed"),
        (["--lr", "1e-2"], "learning_rate"),
    ], ids=["epochs-same-dir", "seed-fewer-windows", "lr"])
    def test_other_run_is_usage_error(self, mid_run, tmp_path, capsys, flags, field):
        # the first case resumes in a copy of the run's own directory, the
        # others into a fresh one
        out = tmp_path / "run"
        if field == "epochs":
            out.mkdir()
            for p in mid_run.iterdir():
                (out / p.name).write_bytes(p.read_bytes())
        before = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else None
        rc = cli.main(["train", *RESUME_ARGS, *flags, "--out", str(out),
                       "--resume", str(mid_run / "ckpt_000002.tjdf")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "usage error" in err and f"has run {field} = " in err
        after = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else None
        assert after == before

    def test_only_mid_run_checkpoints_carry_adam_state(self, tmp_path):
        # a checkpoint after every step: ckpt_000001 to ckpt_000003
        out = tmp_path / "every"
        assert cli.main(["train", *RESUME_ARGS, "--checkpoint-every", "1",
                         "--out", str(out)]) == 0
        _, arrays, _ = checkpoint.load_container(out / "model.tjdf")
        assert arrays and all(k.startswith("param.") for k in arrays)
        params = set(arrays)
        flat = Model.load(out / "model.tjdf")[0].flat.shape
        shapes = {"adam.t": (1,), "adam.m": flat, "adam.v": flat}
        ckpts = sorted(out.glob("ckpt_*.tjdf"))
        assert [p.name for p in ckpts] == [f"ckpt_00000{i}.tjdf" for i in (1, 2, 3)]
        for path in ckpts:
            _, arrays, _ = checkpoint.load_container(path)
            checkpoint.check_layout(path, arrays, "adam.", shapes, ints=("adam.t",))
            assert set(arrays) == params | set(shapes)

    def test_per_name_moments_are_refused_with_nothing_written(self, mid_run, tmp_path,
                                                               capsys):
        # a mid-run checkpoint of the per-name layout, adam.m.<name> and
        # adam.v.<name>, resumed into a copy of its run's directory
        meta, arrays, _ = checkpoint.load_container(mid_run / "ckpt_000002.tjdf")
        mdl = Model.from_container(meta, arrays, "ckpt")[0]
        opt = training.AdamState.from_arrays(mdl, arrays)
        old = tmp_path / "per_name.tjdf"
        checkpoint.save_container(old, meta, {
            **{k: a for k, a in arrays.items() if not k.startswith("adam.")},
            **_per_name_adam_arrays(mdl, opt)})
        out = tmp_path / "run"
        out.mkdir()
        for p in mid_run.iterdir():
            (out / p.name).write_bytes(p.read_bytes())
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        rc = cli.main(["train", *RESUME_ARGS, "--out", str(out), "--resume", str(old)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "data error" in err and "adam.m has shape None" in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_finished_run_is_usage_error(self, mid_run, tmp_path, capsys):
        out = tmp_path / "again"
        rc = cli.main(["train", *RESUME_ARGS, "--out", str(out),
                       "--resume", str(mid_run / "model.tjdf")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "at step 4" in err and "has 4 steps" in err
        assert not (out / "model.tjdf").exists()


class TestSynth:
    def test_writes_scene_files(self, tmp_path):
        rc = cli.main(["synth", "--out", str(tmp_path / "scenes"),
                       "--scenes", "3", "--peds", "2", "--frames", "25",
                       "--seed", "1"])
        assert rc == 0
        files = sorted(os.listdir(tmp_path / "scenes"))
        assert files == ["synth00.txt", "synth01.txt", "synth02.txt"]
        tracks = data.ingest_benchmark_file(tmp_path / "scenes" / files[0],
                                            "synth00")
        assert len(tracks) == 2

    def test_out_is_made_before_the_scenes_are_synthesized(self, tmp_path, monkeypatch):
        out, synthesize = tmp_path / "scenes", data.synthesize_scenes

        def checked(cfg):
            assert out.is_dir()
            return synthesize(cfg)

        monkeypatch.setattr(data, "synthesize_scenes", checked)
        assert cli.main(["synth", "--out", str(out), "--scenes", "2", "--frames", "3"]) == 0
        assert sorted(os.listdir(out)) == ["synth00.txt", "synth01.txt"]

    def test_unusable_out_is_refused_before_synthesis(self, tmp_path, capsys, monkeypatch):
        def unused(cfg):
            raise AssertionError("scenes were synthesized")

        monkeypatch.setattr(data, "synthesize_scenes", unused)
        (tmp_path / "a_file").write_text("")
        assert cli.main(["synth", "--out", str(tmp_path / "a_file" / "scenes")]) == 2
        assert "data error" in capsys.readouterr().err
        assert _files_under(tmp_path) == ["a_file"]

    @pytest.mark.parametrize("command", ["train", "eval", "ablate"])
    def test_command_seed_does_not_seed_the_scenes(self, command):
        # --seed seeds training or sampling; ``synth --seed N`` makes other worlds
        def observed(seed):
            args = cli.parse_args([command, "--data", "synthetic", "--scenes", "2",
                                   "--peds", "3", "--frames", "30", "--seed", seed,
                                   *([] if command == "train" else ["--checkpoint", "c"]),
                                   *(["--axis", "steps"] if command == "ablate" else [])])
            windows = cli._scene_windows(args, [], ModelConfig(), command != "train")
            return [w.absolute_observed().tolist() for w in windows]

        assert observed("7") == observed("9")
        default = data.synthesize_scenes(data.SynthConfig(n_scenes=2, peds_per_scene=3,
                                                          frames=30))
        assert observed("7") == [w.absolute_observed().tolist() for w in data.window_scenes(
            default, stride=ModelConfig().t_future)]

    @pytest.mark.parametrize("argv", [
        ["synth", "--scenes", "0"],
        ["synth", "--peds", "0"],
        ["train", "--data", "synthetic", *TRAIN_ARGS, "--scenes", "0"],
        ["synth", "--speed-max", "1e300"],
        ["synth", "--speed-max", "1e30"],
        ["train", "--data", "synthetic", *TRAIN_ARGS, "--box", "1e37"],
    ], ids=["synth-scenes-zero", "synth-peds-zero", "train-scenes-zero",
            "synth-speed-beyond-float32", "synth-reach-beyond-ingest", "train-box-beyond-ingest"])
    def test_bad_synth_config_is_usage_error(self, tmp_path, capsys, argv):
        rc = cli.main([*argv, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestEval:
    def test_eval_writes_csv_and_is_bit_identical(self, trained):
        ckpt, tmp_path = trained
        args = ["eval", "--checkpoint", str(ckpt), "--data", "synthetic",
                "--seed", "7", "--strategy", "A", "--r1", "2", "--r2", "2",
                "--scenes", "2", "--peds", "3", "--frames", "30"]
        out_a, out_b = tmp_path / "ev_a.csv", tmp_path / "ev_b.csv"
        assert cli.main(args + ["--out", str(out_a)]) == 0
        assert cli.main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        header = out_a.read_text().splitlines()
        assert header[0] == f"# checkpoint: {file_hash(ckpt)}"
        assert "scene,n_protocol,ade,fde,windows,pedestrians" in header

    @pytest.mark.parametrize("gamma_mode", diffusion.GAMMA_MODES)
    def test_pool_threads_write_the_same_bytes(self, trained, chain_workers,
                                               monkeypatch, gamma_mode):
        # a chain per scene of 3 windows of 4 pedestrians by 50 runs: 600 rows,
        # in four blocks, each one pool task, or all on the calling thread
        ckpt, tmp_path = trained
        args = ["eval", "--checkpoint", str(ckpt), "--data", "synthetic", "--seed", "7",
                "--strategy", "A", "--r1", "50", "--r2", "2", "--stride", "4",
                "--scenes", "2", "--peds", "4", "--frames", "30", "--gamma-mode", gamma_mode]
        pool, tasks = diffusion._pool(), []

        class Counted:
            def submit(self, *task):
                tasks.append(task)
                return pool.submit(*task)

        monkeypatch.setattr(diffusion, "_pool", Counted)
        outputs, submitted = {}, {}
        for n in (2, 1):
            chain_workers(n)
            tasks.clear()
            out = tmp_path / f"workers{n}.csv"
            assert cli.main(args + ["--out", str(out)]) == 0
            outputs[n] = out.read_bytes(), out.with_suffix(".json").read_bytes()
            submitted[n] = len(tasks)
        assert submitted == {2: 8, 1: 0}
        assert outputs[2] == outputs[1]

    def test_older_format_checkpoint_evaluates_the_same(self, trained):
        ckpt, tmp_path = trained
        old = _with_schedule_arrays(ckpt, tmp_path / "old.tjdf")
        args = ["eval", "--data", "synthetic", "--seed", "7", "--strategy", "A",
                "--r1", "2", "--r2", "2", "--scenes", "2", "--peds", "3", "--frames", "30"]
        bodies = []
        for path, out in ((ckpt, tmp_path / "ev_new.csv"), (old, tmp_path / "ev_old.csv")):
            assert cli.main(args + ["--checkpoint", str(path), "--out", str(out)]) == 0
            lines = out.read_text().splitlines()
            assert lines[0] == f"# checkpoint: {file_hash(path)}"
            bodies.append(lines[1:])
        assert bodies[0] == bodies[1]

    def test_stored_gamma_mode_is_ignored(self, trained):
        # an older checkpoint trained with ddpm-matching stored that mode;
        # it now samples with the protocol's, deterministic by default
        ckpt, tmp_path = trained
        meta, arrays, _ = checkpoint.load_container(ckpt)
        meta["config"]["gamma_mode"] = "ddpm-matching"
        old = tmp_path / "old_ddpm.tjdf"
        checkpoint.save_container(old, meta, arrays)
        args = ["eval", "--data", "synthetic", "--seed", "7", "--strategy", "C",
                "--r", "2", "--selection", "self-likelihood",
                "--scenes", "2", "--peds", "3", "--frames", "30"]
        bodies = []
        for path, out in ((ckpt, tmp_path / "gm_new.csv"), (old, tmp_path / "gm_old.csv"),
                          (old, tmp_path / "gm_old2.csv")):
            assert cli.main(args + ["--checkpoint", str(path), "--out", str(out)]) == 0
            bodies.append(out.read_text().splitlines()[1:])
        assert bodies[0] == bodies[1] == bodies[2]
        assert bodies[0][1].endswith("gamma=deterministic")

    def test_stochastic_chain_is_reproducible_given_the_seed(self, trained):
        # the chain's noise comes from the seed: equal seeds write equal
        # bytes, another seed other rows, and gamma still moves the rows
        ckpt, tmp_path = trained
        args = ["eval", "--checkpoint", str(ckpt), "--data", "synthetic",
                "--strategy", "C", "--r", "2", "--selection", "self-likelihood",
                "--scenes", "2", "--peds", "3", "--frames", "30"]
        runs = [("7", "ddpm-matching"), ("7", "ddpm-matching"), ("8", "ddpm-matching"),
                ("7", "deterministic")]
        outs = [tmp_path / f"sto_{i}.csv" for i in range(len(runs))]
        for out, (seed, mode) in zip(outs, runs):
            assert cli.main(args + ["--seed", seed, "--gamma-mode", mode,
                                    "--out", str(out)]) == 0
        a, b, other, det = (out.read_text().splitlines() for out in outs)
        assert a == b
        assert other[4:] != a[4:] and det[4:] != a[4:]

    def test_steps_must_fit_checkpoint(self, trained):
        ckpt, _ = trained
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--data", "synthetic",
                       "--steps", "21",
                       "--scenes", "2", "--peds", "3", "--frames", "30"])
        assert rc == 1

    @pytest.mark.parametrize("flags", [["--r1", "0"], ["--strategy", "B", "--r", "0"]],
                             ids=["r1-zero", "B-r-zero"])
    def test_invalid_strategy_is_usage_error(self, trained, capsys, flags):
        ckpt, _ = trained
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--data", "synthetic",
                       *flags, "--scenes", "2", "--peds", "3", "--frames", "30"])
        assert rc == 1
        assert "usage error" in capsys.readouterr().err

    def test_counts_of_other_kinds_are_checked(self, trained, tmp_path, capsys):
        # ablate --axis sampling runs A, B and C with the same counts, so a
        # strategy-A run's --r 0 is a usage error, not a failure after the chain
        ckpt, _ = trained
        out = tmp_path / "ablate.csv"
        rc = cli.main(["ablate", "--checkpoint", str(ckpt), "--data", "synthetic",
                       "--axis", "sampling", "--r", "0", "--out", str(out),
                       "--scenes", "2", "--peds", "3", "--frames", "30"])
        assert rc == 1
        assert "protocol r must be in 1.." in capsys.readouterr().err
        assert not out.exists()

    def test_low_and_high_step_counts_both_run(self, trained):
        ckpt, tmp_path = trained
        for steps in ("2", "10"):
            rc = cli.main(["eval", "--checkpoint", str(ckpt), "--data",
                           "synthetic", "--steps", steps, "--strategy", "C",
                           "--r", "2", "--selection", "self-likelihood",
                           "--scenes", "2", "--peds", "3", "--frames", "30"])
            assert rc == 0

    def test_oracle_injection_row(self, trained, capsys, monkeypatch):
        ckpt, _ = trained
        reference_best_of_n = inference.best_of_n

        def with_oracle(pset, gt_abs):
            cands = np.concatenate([pset.candidates, gt_abs[:, None]], axis=1)
            return reference_best_of_n(
                inference.PredictionSet(cands, pset.provenance + [(-1, "oracle")]),
                gt_abs)

        monkeypatch.setattr(inference, "best_of_n", with_oracle)
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--data", "synthetic",
                       "--strategy", "C", "--r", "2",
                       "--selection", "self-likelihood",
                       "--scenes", "2", "--peds", "3", "--frames", "30"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0.000/0.000" in out

    def test_inject_oracle_flag_is_usage_error(self, trained, capsys):
        ckpt, _ = trained
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--data", "synthetic",
                       "--inject-oracle",
                       "--scenes", "2", "--peds", "3", "--frames", "30"])
        assert rc == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_scene_is_data_error(self, trained):
        ckpt, _ = trained
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--data", "synthetic",
                       "--test-scene", "nope",
                       "--scenes", "2", "--peds", "3", "--frames", "30"])
        assert rc == 2


@pytest.mark.parametrize("command,extra,code", [
    ("train", ["--stride", "0"], 1),
    ("eval", ["--stride", "0"], 1),
    ("ablate", ["--stride", "0"], 1),
    ("train", ["--frames", "10"], 2),
    ("eval", ["--frames", "10"], 2),
    ("ablate", ["--frames", "10"], 2),
], ids=["train-stride-zero", "eval-stride-zero", "ablate-stride-zero",
        "train-no-windows", "eval-no-windows", "ablate-no-windows"])
def test_data_exit_codes(trained, tmp_path, capsys, command, extra, code):
    ckpt, _ = trained
    if command == "train":
        argv = ["train", *TRAIN_ARGS, "--out", str(tmp_path / "run")]
    else:
        argv = [command, "--checkpoint", str(ckpt), "--strategy", "C", "--r", "2",
                "--selection", "self-likelihood", "--out", str(tmp_path / "out.csv")]
        if command == "ablate":
            argv += ["--axis", "sampling"]
    rc = cli.main([*argv, "--data", "synthetic", "--scenes", "2", "--peds", "3",
                   "--frames", "30", *extra])
    assert rc == code
    assert ("usage error" if code == 1 else "data error") in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def _unread(*args, **kw):
    raise AssertionError("the checkpoint was read")


def _files_under(root):
    return sorted(os.path.relpath(os.path.join(d, n), root)
                  for d, _dirs, names in os.walk(root) for n in names)


@pytest.mark.parametrize("command,outputs,code", [
    ("eval", ["--out", "missing/x.csv"], 2),
    ("eval", ["--out", "a_file/x.csv"], 2),
    ("eval", ["--out", "m.json"], 1),
    ("ablate", ["--out", "missing/x.csv"], 2),
    ("predict", ["--out", "missing/x.csv"], 2),
    ("predict", ["--out", "ok.csv", "--plot", "missing/x.svg"], 2),
    ("predict", ["--out", "ok.csv", "--plot", "a_file/x.svg"], 2),
    ("eval", ["--out", "a_dir"], 2),
    ("eval", ["--out", "a_dir/"], 2),
    ("eval", ["--out", "summary.csv"], 2),
    ("ablate", ["--out", "a_dir"], 2),
    ("predict", ["--out", "a_dir"], 2),
    ("predict", ["--out", "ok.csv", "--plot", "a_dir"], 2),
    ("eval", ["--out", ""], 2),
    ("predict", ["--out", ""], 2),
    ("predict", ["--out", "ok.csv", "--plot", ""], 2),
    ("predict", ["--out", "model.tjdf"], 1),
    ("predict", ["--out", "input.txt"], 1),
    ("predict", ["--out", "ok.csv", "--plot", "./input.txt"], 1),
    ("predict", ["--out", "p.csv", "--plot", "p.csv"], 1),
    ("predict", ["--out", "p.csv", "--plot", "a_dir/../p.csv"], 1),
    ("predict", ["--out", "ok.csv", "--plot", "link.svg"], 1),
    ("predict", ["--config", "c.ini", "--out", "c.ini"], 1),
    ("eval", ["--out", "model.tjdf"], 1),
    ("eval", ["--out", "model.csv", "--checkpoint", "model.json"], 1),
    ("eval", ["--out", "scenes/s1.txt", "--data", "scenes"], 1),
    ("eval", ["--out", "scenes/s2.csv", "--data", "scenes"], 1),
    ("ablate", ["--out", "scenes/s1.txt", "--data", "scenes", "--test-scene", "s1"], 1),
    ("ablate", ["--out", "model.tjdf"], 1),
], ids=["eval-missing-dir", "eval-dir-is-a-file", "eval-out-is-its-summary",
        "ablate-missing-dir", "predict-missing-dir", "predict-plot-missing-dir",
        "predict-plot-dir-is-a-file", "eval-out-is-a-dir", "eval-out-is-a-dir-slash",
        "eval-summary-is-a-dir", "ablate-out-is-a-dir", "predict-out-is-a-dir",
        "predict-plot-is-a-dir", "eval-out-empty", "predict-out-empty",
        "predict-plot-empty", "predict-out-is-the-checkpoint", "predict-out-is-the-input",
        "predict-plot-is-the-input", "predict-plot-is-the-out",
        "predict-plot-is-the-out-by-another-path", "predict-plot-links-to-the-input",
        "predict-out-is-the-config", "eval-out-is-the-checkpoint",
        "eval-summary-is-the-checkpoint", "eval-out-is-a-data-file",
        "eval-summary-links-to-a-data-file", "ablate-out-is-the-test-scene-file",
        "ablate-out-is-the-checkpoint"])
def test_bad_destination_is_refused_before_the_checkpoint_is_read(
        tmp_path, capsys, monkeypatch, command, outputs, code):
    monkeypatch.setattr(checkpoint, "load_container", _unread)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a_file").write_text("")
    (tmp_path / "a_dir").mkdir()
    (tmp_path / "summary.json").mkdir()
    (tmp_path / "input.txt").write_text("0 1 0.0 0.0\n")
    (tmp_path / "model.tjdf").write_bytes(b"TJDF checkpoint bytes")
    (tmp_path / "model.json").write_bytes(b"TJDF checkpoint bytes")
    (tmp_path / "c.ini").write_text("[protocol]\nseed = 3\n")
    (tmp_path / "scenes").mkdir()
    for scene in ("s1", "s2"):
        (tmp_path / "scenes" / f"{scene}.txt").write_text(f"0 1 0.0 0.0 {scene}\n")
    (tmp_path / "link.svg").symlink_to(tmp_path / "input.txt")
    (tmp_path / "scenes" / "s2.json").symlink_to(tmp_path / "scenes" / "s2.txt")
    argv = [command, *outputs]
    if "--checkpoint" not in argv:
        argv += ["--checkpoint", "model.tjdf"]
    argv += {"eval": [] if "--data" in argv else ["--data", "synthetic"],
             "ablate": ["--axis", "steps"] + ([] if "--data" in argv
                                               else ["--data", "synthetic"]),
             "predict": ["--input", "input.txt"]}[command]
    before = {p: (tmp_path / p).read_bytes() for p in _files_under(tmp_path)}
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    if code == 2:
        assert "data error: cannot write" in err
    else:
        assert "usage error: output" in err and "which the command also reads or writes" in err
    assert {p: (tmp_path / p).read_bytes() for p in _files_under(tmp_path)} == before


@pytest.mark.parametrize("name", ["nosuch.txt", "a_dir"], ids=["missing", "directory"])
def test_predict_input_that_is_not_a_file_is_refused_before_the_checkpoint_is_read(
        tmp_path, capsys, monkeypatch, name):
    reads = []
    monkeypatch.setattr(checkpoint, "load_container", lambda *a: reads.append(a))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a_dir").mkdir()
    (tmp_path / "model.tjdf").write_bytes(b"TJDF checkpoint bytes")
    assert cli.main(["predict", "--checkpoint", "model.tjdf", "--input", name,
                     "--out", "ok.csv"]) == 2
    assert f"data error: cannot read {name}" in capsys.readouterr().err
    assert reads == []
    assert _files_under(tmp_path) == ["model.tjdf"]


@pytest.mark.parametrize("command", ["eval", "ablate"])
def test_test_scene_reads_only_its_file(trained, tmp_path, capsys, monkeypatch, command):
    ckpt, _ = trained
    scenes = tmp_path / "scenes"
    assert cli.main(["synth", "--out", str(scenes), "--scenes", "2", "--peds", "3",
                     "--frames", "30", "--seed", "7"]) == 0
    (scenes / "broken.txt").write_text("not a benchmark line\n")
    argv = [command, "--checkpoint", str(ckpt), "--data", str(scenes), "--strategy", "C",
            "--r", "2", "--selection", "self-likelihood",
            *(["--axis", "gamma"] if command == "ablate" else [])]
    assert cli.main([*argv, "--test-scene", "synth00"]) == 0
    capsys.readouterr()

    # a named scene without a file is refused before the checkpoint is read
    monkeypatch.setattr(checkpoint, "load_container", _unread)
    assert cli.main([*argv, "--test-scene", "nope"]) == 2
    assert f"test scene 'nope' has no file {scenes / 'nope.txt'}" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [
    ["--steps", "30", "--k", "20"], ["--k", "0"], ["--beta-start", "0.5"],
    ["--width", "0"], ["--channels", "0"], ["--checkpoint-every", "0"],
    ["--seed", "-1"],
], ids=["steps-above-k", "k-zero", "beta-end-below-start", "width-zero",
        "channels-zero", "checkpoint-every-zero", "seed-negative"])
def test_invalid_setting_is_usage_error(tmp_path, capsys, extra):
    rc = cli.main(["train", "--data", "synthetic", *TRAIN_ARGS, *extra,
                   "--out", str(tmp_path / "run")])
    assert rc == 1
    assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


# ---------------------------------------------------------------------------
# Config files: key ``section.name`` is the flag ``--name``


def _flag(key):
    name = key.split(".")[1]
    return "--data" if key == "data.dir" else "--" + name.replace("_", "-")


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command,section,settings", [
    ("train", "train", {"lr": "nan"}),
    ("train", "train", {"lr": "-1"}),
    ("train", "train", {"lambda1": "nan"}),
    ("train", "train", {"denoiser_boost": "-3"}),
    ("synth", "synth", {"speed_min": "5", "speed_max": "1"}),
    ("train", "train", {"denoiser_boost": "1000000000000"}),
    ("synth", "synth", {"scenes": "1000000000000"}),
], ids=["lr-nan", "lr-negative", "lambda1-nan", "denoiser-boost-negative",
        "speed-min-above-max", "denoiser-boost-huge", "scenes-huge"])
def test_bad_numeric_setting_is_usage_error(tmp_path, capsys, command, section, settings,
                                            source):
    # without the checks these fail at optimizer step 1 (exit 3), train
    # uphill or with a negative boost, or synthesize with speeds out of order
    if source == "flag":
        given = [f"{_flag(f'{section}.{key}')}={value}" for key, value in settings.items()]
    else:
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[{section}]\n" + "".join(f"{key} = {value}\n"
                                                  for key, value in settings.items()))
        given = ["--config", str(cfg)]
    argv = ["train", "--data", "synthetic", *TRAIN_ARGS] if command == "train" else ["synth"]
    out = tmp_path / "out"
    assert cli.main([*argv, *given, "--out", str(out)]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


# Every command's numeric settings, drawn as flags and as config keys: the
# values a bad setting takes (0, negatives, nan, inf, huge, and ranges given
# in the wrong order) on MICRO data.  Each run must exit with a documented
# code without raising; a value outside its field's declared range, one its
# flag's type refuses, and a range in the wrong order are usage errors
# (exit 1), and a usage error must leave --out unwritten.
INT_VALUES = ["0", "-1", "-1000000000000", "1000000000000", "100000000000000000000",
              "nan", "inf"]
FLOAT_VALUES = ["0", "-1", "-1e300", "1e300", "nan", "inf", "-inf"]
SWAPPED = {"synth.speed_min": ("2.0", "synth.speed_max", "1.0"),
           "model.beta_start": ("0.3", "model.beta_end", "0.1"),
           "model.steps": ("30", "model.k", "20")}
MICRO_DATA = {"data.dir": "synthetic", "synth.scenes": "1", "synth.peds": "3",
              "synth.frames": "25"}
MICRO_PROTOCOL = {"protocol.r1": "2", "protocol.r2": "2", "protocol.r": "2",
                  "protocol.steps": "2"}


# The dataclasses whose fields each section's settings flags store into; the
# [data] flags are command line plumbing.
SECTION_CLASSES = {
    "synth": (data.SynthConfig,),
    "model": (ModelConfig,),
    "train": (training.TrainConfig,),
    "protocol": (inference.SamplingStrategy, inference.EvalProtocol),
}


def _setting_field(key, action):
    """The dataclass field that the settings flag ``action`` of config key
    ``key`` stores into, or None for a [data] flag."""
    return next((f for cls in SECTION_CLASSES.get(key.split(".")[0], ())
                 for f in fields(cls) if f.name == action.dest), None)


def _refused(action, key, value: str) -> bool:
    """Whether the settings flag ``action`` (config key ``key``) refuses
    ``value``: its type does not parse it, or it lies outside the range its
    field declares."""
    try:
        value = action.type(value)
    except (ValueError, argparse.ArgumentTypeError):
        return True
    f = _setting_field(key, action)
    if f is None:
        return False
    low, high, above = f.metadata["range"]
    return not ((low < value) if above else (low <= value)) or not value <= high


def _numeric_keys(command) -> dict[str, list[str]]:
    """The bad values of each numeric settings flag of ``command``, by
    config key: every flag whose type is int or float."""
    actions = cli._config_keys(cli.build_parser())[command]
    return {key: FLOAT_VALUES if a.type is float else INT_VALUES
            for key, a in actions.items() if a.type is float or a.type is int
            or getattr(a.type, "__name__", None) == "int"}


@st.composite
def _bad_settings(draw):
    """A command, its MICRO settings with one or two numeric ones (and
    maybe a swapped range) replaced by bad values, and each setting's
    source."""
    command = draw(st.sampled_from(["synth", "train", "eval", "ablate", "predict"]))
    bad_values = _numeric_keys(command)
    keys = draw(st.lists(st.sampled_from(sorted(bad_values)), min_size=1, max_size=2,
                         unique=True))
    bad = {k: draw(st.sampled_from(bad_values[k])) for k in keys}
    swaps = [k for k in SWAPPED if k in bad_values]
    if swaps and draw(st.booleans()):
        low_key = draw(st.sampled_from(swaps))
        low, high_key, high = SWAPPED[low_key]
        bad.update({low_key: low, high_key: high})
    sources = {k: draw(st.sampled_from(["flag", "config"])) for k in bad}
    return command, bad, sources


def _micro_settings(command, ckpt, scene) -> tuple[list[str], dict[str, str]]:
    """Positional arguments and valid MICRO settings by config key."""
    keys = {a.option_strings[0]: key
            for key, a in cli._config_keys(cli.build_parser())["train"].items()}
    train = {keys[flag]: value for flag, value in zip(TRAIN_ARGS[::2], TRAIN_ARGS[1::2])}
    train["train.epochs"] = "1"
    return {
        "synth": (["synth"], {"synth.scenes": "1", "synth.peds": "2", "synth.frames": "25"}),
        "train": (["train"], {**MICRO_DATA, **train}),
        "eval": (["eval", "--checkpoint", str(ckpt)], {**MICRO_DATA, **MICRO_PROTOCOL}),
        "ablate": (["ablate", "--checkpoint", str(ckpt), "--axis", "sampling"],
                   {**MICRO_DATA, **MICRO_PROTOCOL}),
        "predict": (["predict", "--checkpoint", str(ckpt), "--input", str(scene)],
                    MICRO_PROTOCOL),
    }[command]


@pytest.fixture(scope="module")
def micro_scene(tmp_path_factory):
    out = tmp_path_factory.mktemp("scene")
    assert cli.main(["synth", "--out", str(out), "--scenes", "1", "--peds", "3",
                     "--frames", "25"]) == 0
    return out / "synth00.txt"


@example(("train", {"train.denoiser_boost": "1000000000000"}, {"train.denoiser_boost": "flag"}))
@example(("train", {"train.lr": "1e39"}, {"train.lr": "flag"}))
@example(("train", {"train.lambda2": "1e39"}, {"train.lambda2": "config"}))
@example(("synth", {"synth.speed_max": "1e300"}, {"synth.speed_max": "flag"}))
@example(("synth", {"synth.scenes": "1000000000000"}, {"synth.scenes": "config"}))
@example(("synth", {"synth.peds": "1000000000000"}, {"synth.peds": "flag"}))
@example(("train", {"model.blocks": "1000000000000"}, {"model.blocks": "flag"}))
@example(("train", {"model.k": "1000000000000"}, {"model.k": "config"}))
@example(("eval", {"protocol.r2": "1000000000000"}, {"protocol.r2": "flag"}))
@example(("train", {"train.lr": "1e-50"}, {"train.lr": "flag"}))
@given(case=_bad_settings())
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_bad_settings_exit_with_documented_code(trained, micro_scene, case):
    command, bad, sources = case
    positional, given = _micro_settings(command, trained[0], micro_scene)
    given = {**given, **bad}
    actions = cli._config_keys(cli.build_parser())[command]
    assert set(given) <= set(actions)
    with tempfile.TemporaryDirectory() as tmp:
        flags, sections = [], {}
        for key, value in given.items():
            if sources.get(key) == "config":
                section, name = key.split(".")
                sections.setdefault(section, []).append(f"{name} = {value}\n")
            else:
                flags.append(f"{actions[key].option_strings[0]}={value}")
        if sections:
            with open(os.path.join(tmp, "bad.ini"), "w", encoding="utf-8") as fh:
                fh.writelines(f"[{name}]\n" + "".join(lines) for name, lines in sections.items())
            flags += ["--config", os.path.join(tmp, "bad.ini")]
        out = os.path.join(tmp, "out")
        with warnings.catch_warnings(), contextlib.redirect_stderr(io.StringIO()) as err:
            warnings.simplefilter("ignore")
            rc = cli.main([*positional, *flags, "--out", out])
        assert rc in (0, 1, 2, 3)
        swapped = any(bad.get(k) == low and bad.get(high_key) == high
                      for k, (low, high_key, high) in SWAPPED.items())
        if swapped or any(_refused(actions[k], k, v) for k, v in bad.items()):
            assert rc == 1, (command, bad)
            assert "usage error" in err.getvalue()
        if rc == 1:
            assert not os.path.exists(out)


def test_every_numeric_flag_declares_its_range():
    # the property above reads each flag's range from its field; only the
    # [data] plumbing's --stride is checked by its flag's type instead
    for command in cli.build_parser().commands:
        actions = cli._config_keys(cli.build_parser())[command]
        for key in _numeric_keys(command):
            f = _setting_field(key, actions[key])
            assert key == "data.stride" or (f is not None and "range" in f.metadata), \
                (command, key)


@pytest.mark.parametrize("command,setting,flags", [
    ("eval", "[protocol]\nselection = bogus", ["--strategy", "B"]),
    ("eval", "[protocol]\npool_means = maybe", []),
    ("eval", "[protocol]\ngamma_mode = bogus", []),
    ("eval", "[protocol]\nstrategy = Q", []),
    ("eval", "[data]\nstride = x", []),
], ids=["selection-bogus", "pool-means-maybe", "gamma-mode-bogus", "strategy-Q",
        "stride-x"])
def test_config_value_checked_like_flag(trained, tmp_path, capsys, command, setting,
                                        flags):
    ckpt, _ = trained
    cfg = tmp_path / "bad.ini"
    cfg.write_text(setting + "\n")
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out"), *flags]
    argv += TRAIN_ARGS if command == "train" else ["--checkpoint", str(ckpt)]
    rc = cli.main([*argv, "--data", "synthetic", "--scenes", "2", "--peds", "3",
                   "--frames", "30"])
    assert rc == 1
    err = capsys.readouterr().err
    section, rest = setting.split("\n")
    key = section.strip("[]") + "." + rest.split(" =")[0]
    assert "usage error" in err
    assert key.split(".")[1] in err or _flag(key) in err
    assert list(tmp_path.iterdir()) == [cfg]


# a command that reads each section, and the flags it requires
_READER = {"data": ["train"], "synth": ["synth", "--out", "o"], "model": ["train"],
           "train": ["train"], "protocol": ["eval", "--checkpoint", "c"]}
_VALUES = {"data.dir": "scenes", "data.test_scene": "s1",
           "protocol.gamma_mode": "ddpm-matching", "protocol.strategy": "B",
           "protocol.selection": "self-likelihood"}

# Every command's config keys, a literal reference for the keys that the
# settings flags record.
CONFIG_KEYS = {
    "data.dir", "data.test_scene", "data.stride",
    "synth.scenes", "synth.peds", "synth.frames", "synth.speed_min",
    "synth.speed_max", "synth.turn_noise", "synth.repulsion", "synth.seed",
    "synth.box",
    "model.channels", "model.d_phi", "model.d_psi", "model.width",
    "model.blocks", "model.k", "model.steps", "model.beta_start",
    "model.beta_end",
    "train.lambda1", "train.lambda2", "train.lambda3", "train.lr",
    "train.batch", "train.epochs", "train.seed", "train.checkpoint_every",
    "train.denoiser_boost",
    "protocol.strategy", "protocol.r1", "protocol.r2", "protocol.r",
    "protocol.pool_means", "protocol.selection", "protocol.steps",
    "protocol.seed", "protocol.gamma_mode",
}
SECTION_FIELDS = {section: {f.name for cls in classes for f in fields(cls)}
                  for section, classes in SECTION_CLASSES.items()}


def _derived_keys():
    return set().union(*cli._config_keys(cli.build_parser()).values())


def test_config_schema_comes_from_the_flags():
    assert len(CONFIG_KEYS) == 39
    assert _derived_keys() == CONFIG_KEYS
    for command, keys in cli._config_keys(cli.build_parser()).items():
        for key, action in keys.items():
            section = key.split(".")[0]
            if section != "data":
                assert action.dest in SECTION_FIELDS[section], (command, key)


@pytest.mark.parametrize("key", sorted(_derived_keys()))
def test_config_key_equals_flag(tmp_path, key):
    section, name = key.split(".")
    cfg = tmp_path / "one.ini"
    if key == "protocol.pool_means":
        cfg.write_text(f"[{section}]\n{name} = true\n")
        flag = [_flag(key)]
    else:
        value = _VALUES.get(key, "3")
        cfg.write_text(f"[{section}]\n{name} = {value}\n")
        flag = [_flag(key), value]

    def parsed(*extra):
        ns = vars(cli.parse_args([*_READER[section], *extra]))
        del ns["config"]
        return ns

    assert parsed("--config", str(cfg)) == parsed(*flag) != parsed()


def test_config_seed_from_own_section_and_flags_override(tmp_path):
    cfg = tmp_path / "seeds.ini"
    cfg.write_text("[synth]\nseed = 1\n[train]\nseed = 2\nepochs = 5\n"
                   "[protocol]\nseed = 3\n")
    for argv, seed in [(["synth", "--out", "o"], 1), (["train"], 2),
                       (["eval", "--checkpoint", "c"], 3),
                       (["predict", "--checkpoint", "c", "--input", "i", "--out", "o"], 3)]:
        assert cli.parse_args([*argv, "--config", str(cfg)]).seed == seed
    for argv in (["train", "--epochs", "7", "--config", str(cfg)],
                 ["train", "--config", str(cfg), "--epochs", "7"]):
        assert cli.parse_args(argv).epochs == 7


@pytest.mark.parametrize("argv", [
    ["synth"], ["predict", "--checkpoint", "c", "--input", "i"],
], ids=["synth", "predict"])
def test_unused_data_flag_is_usage_error(tmp_path, capsys, argv):
    # neither command reads data: --data is not one of their flags
    rc = cli.main([*argv, "--out", str(tmp_path / "o"),
                   "--data", str(tmp_path / "nonexistent")])
    assert rc == 1
    assert "usage error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cached_parser_matches_fresh_parser(tmp_path, monkeypatch):
    cfg = tmp_path / "p.ini"
    cfg.write_text("[protocol]\nstrategy = B\nr = 6\nseed = 3\npool_means = true\n")
    predict = ["predict", "--checkpoint", "c", "--input", "i", "--out", "o"]
    argvs = [[*predict, "--pool-means", "--r1", "4", "--seed", "9"],
             [*predict, "--strategy", "C"],
             [*predict, "--config", str(cfg), "--r", "2"],
             ["eval", "--checkpoint", "c", "--config", str(cfg), "--stride", "3"],
             [*predict]]
    argvs += argvs[::-1]            # each again, after every other one
    cached = [cli.parse_args(argv) for argv in argvs]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [cli.parse_args(argv) for argv in argvs]
    assert [vars(ns) for ns in cached] == [vars(ns) for ns in fresh]
    assert cached[1].pool_run_means is None and cached[2].pool_run_means is True
    assert len({id(ns) for ns in cached}) == len(cached)


class TestAblate:
    def test_sampling_axis_emits_three_rows(self, trained, tmp_path):
        ckpt, _ = trained
        out = tmp_path / "ab.csv"
        rc = cli.main(["ablate", "--checkpoint", str(ckpt), "--data", "synthetic",
                       "--axis", "sampling", "--r1", "2", "--r2", "2", "--r", "2",
                       "--out", str(out),
                       "--scenes", "2", "--peds", "3", "--frames", "30"])
        assert rc == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#") and not l.startswith("axis")]
        assert len(rows) == 3
        assert [r.split(",")[1] for r in rows] == ["A", "B", "C"]

    def test_sampling_axis_equals_one_evaluation_per_strategy(self, trained, tmp_path,
                                                              monkeypatch):
        # the three strategies share one chain; the CSV keeps the bytes of
        # one evaluation per strategy
        ckpt, _ = trained
        args = ["ablate", "--checkpoint", str(ckpt), "--data", "synthetic",
                "--axis", "sampling", "--r1", "2", "--r2", "3", "--r", "4",
                "--pool-means", "--seed", "3", "--scenes", "2", "--peds", "3",
                "--frames", "30"]
        shared, separate = tmp_path / "shared.csv", tmp_path / "separate.csv"
        assert cli.main([*args, "--out", str(shared)]) == 0
        evaluate = inference.evaluate_windows

        def one_per_strategy(mdl, windows, protocol, strategies):
            return [evaluate(mdl, windows, replace(protocol, strategy=s))
                    for s in strategies]
        monkeypatch.setattr(inference, "evaluate_windows", one_per_strategy)
        assert cli.main([*args, "--out", str(separate)]) == 0
        assert shared.read_bytes() == separate.read_bytes()

    def test_steps_axis_shares_checkpoint_hash(self, trained, tmp_path):
        ckpt, _ = trained
        out_a = tmp_path / "st_a.csv"
        out_b = tmp_path / "st_b.csv"
        args = ["ablate", "--checkpoint", str(ckpt), "--data", "synthetic",
                "--axis", "steps", "--strategy", "C", "--r", "2",
                "--selection", "self-likelihood",
                "--scenes", "2", "--peds", "3", "--frames", "30"]
        assert cli.main(args + ["--out", str(out_a)]) == 0
        assert cli.main(args + ["--out", str(out_b)]) == 0
        hash_a = out_a.read_text().splitlines()[0]
        hash_b = out_b.read_text().splitlines()[0]
        assert hash_a == hash_b and hash_a.startswith("# checkpoint:")

    def test_gamma_axis_rows(self, trained, tmp_path):
        ckpt, _ = trained
        out = tmp_path / "ga.csv"
        rc = cli.main(["ablate", "--checkpoint", str(ckpt), "--data", "synthetic",
                       "--axis", "gamma", "--strategy", "C", "--r", "2",
                       "--selection", "self-likelihood", "--out", str(out),
                       "--scenes", "2", "--peds", "3", "--frames", "30"])
        assert rc == 0
        lines = out.read_text().splitlines()
        rows = [l for l in lines
                if l and not l.startswith("#") and not l.startswith("axis")]
        assert [r.split(",")[1] for r in rows] == ["deterministic", "ddpm-matching"]
        # the header names the protocol's chain mode, not the sweep's last
        assert lines[2].startswith("# protocol:")
        assert lines[2].endswith("gamma=deterministic")

    def test_gamma_axis_is_reproducible(self, trained, tmp_path):
        ckpt, _ = trained
        outs = [tmp_path / "ga_a.csv", tmp_path / "ga_b.csv"]
        for out in outs:
            assert cli.main(["ablate", "--checkpoint", str(ckpt), "--data", "synthetic",
                             "--axis", "gamma", "--seed", "5", "--out", str(out),
                             "--scenes", "2", "--peds", "3", "--frames", "30"]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_steps_axis_below_every_swept_step_is_usage_error(self, trained, tmp_path,
                                                              capsys, monkeypatch):
        # a K = 8 checkpoint has no S of 10, 25, 50 or 100 to sweep: refused
        # once it is read, before any data is read or anything written
        ckpt, _ = trained
        meta, arrays, _ = checkpoint.load_container(ckpt)
        meta["config"].update(k_total=8, steps=8, beta_end=0.6)
        short = tmp_path / "k8.tjdf"
        checkpoint.save_container(short, meta, arrays)

        def unread(*args, **kw):
            raise AssertionError("data was read")
        monkeypatch.setattr(data, "synthesize_scenes", unread)
        monkeypatch.setattr(data, "ingest_benchmark_file", unread)
        out = tmp_path / "st.csv"
        rc = cli.main(["ablate", "--checkpoint", str(short), "--data", "synthetic",
                       "--axis", "steps", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "K=8" in err
        assert sorted(os.listdir(tmp_path)) == ["k8.tjdf"]

    def test_unknown_axis_is_usage_error(self, trained):
        ckpt, _ = trained
        assert cli.main(["ablate", "--checkpoint", str(ckpt),
                         "--axis", "bogus"]) == 1


class TestPredict:
    def _scene_file(self, tmp_path, frames=20, peds=1):
        cfg = data.SynthConfig(n_scenes=1, peds_per_scene=peds, frames=frames,
                               seed=3)
        tracks = data.synthesize_scenes(cfg)
        path = tmp_path / "input.txt"
        data.write_benchmark_file(path, tracks)
        return path

    def test_candidate_polylines_and_svg(self, trained, tmp_path):
        ckpt, _ = trained
        inp = self._scene_file(tmp_path, frames=8)
        out = tmp_path / "pred.csv"
        svg = tmp_path / "pred.svg"
        rc = cli.main(["predict", "--checkpoint", str(ckpt), "--input", str(inp),
                       "--out", str(out), "--plot", str(svg),
                       "--strategy", "C", "--r", "5", "--seed", "1"])
        assert rc == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#") and not l.startswith("scene")]
        assert len(rows) == 5 * 12              # 5 candidates x 12 steps
        doc = svg.read_text()
        assert doc.startswith("<svg") and doc.count("<polyline") >= 6

    def test_no_plot_flag_no_svg(self, trained, tmp_path):
        ckpt, _ = trained
        inp = self._scene_file(tmp_path, frames=8)
        out = tmp_path / "pred2.csv"
        rc = cli.main(["predict", "--checkpoint", str(ckpt), "--input", str(inp),
                       "--out", str(out), "--strategy", "C", "--r", "2",
                       "--seed", "1"])
        assert rc == 0
        assert not list(tmp_path.glob("*.svg"))

    def test_gamma_mode_is_a_predict_setting(self, trained, tmp_path):
        ckpt, _ = trained
        inp = self._scene_file(tmp_path, frames=20, peds=2)
        runs = [("1", "ddpm-matching"), ("1", "ddpm-matching"), ("2", "ddpm-matching"),
                ("1", "deterministic")]
        outs = [tmp_path / f"g{i}.csv" for i in range(len(runs))]
        for out, (seed, mode) in zip(outs, runs):
            assert cli.main(["predict", "--checkpoint", str(ckpt), "--input", str(inp),
                             "--out", str(out), "--strategy", "C", "--r", "2",
                             "--seed", seed, "--gamma-mode", mode]) == 0
        a, b, other, det = (out.read_text().splitlines() for out in outs)
        assert a[2].endswith("gamma=ddpm-matching") and det[2].endswith("gamma=deterministic")
        assert a == b
        assert other[4:] != a[4:] and det[4:] != a[4:]

    def test_short_history_is_data_error(self, trained, tmp_path):
        ckpt, _ = trained
        inp = self._scene_file(tmp_path, frames=5)
        rc = cli.main(["predict", "--checkpoint", str(ckpt), "--input", str(inp),
                       "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    @pytest.mark.parametrize("line", ["inf 1 1.0 2.0", "0 7.5 1.0 2.0"],
                             ids=["infinite-frame", "fractional-ped"])
    def test_bad_id_is_data_error(self, trained, tmp_path, capsys, line):
        ckpt, _ = trained
        inp = self._scene_file(tmp_path, frames=8)
        inp.write_text(inp.read_text() + line + "\n")
        out = tmp_path / "bad.csv"
        rc = cli.main(["predict", "--checkpoint", str(ckpt), "--input", str(inp),
                       "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "data error" in err and "ids must be integers" in err
        assert not out.exists()

    @pytest.mark.parametrize("case", ["missing-param", "reshaped-param", "non-finite-param"])
    def test_mismatched_parameters_exit_2(self, trained, tmp_path, capsys, case):
        ckpt, _ = trained
        meta, arrays, _ = checkpoint.load_container(ckpt)
        if case == "missing-param":
            del arrays["param.den.out.b"]
        elif case == "reshaped-param":
            arrays["param.den.blk0.w1"] = arrays["param.den.blk0.w1"][:, :-1].copy()
        else:
            arrays["param.den.out.b"][5] = np.nan
        bad = tmp_path / "bad.tjdf"
        checkpoint.save_container(bad, meta, arrays)
        inp = self._scene_file(tmp_path, frames=8)
        out = tmp_path / "bad.csv"
        rc = cli.main(["predict", "--checkpoint", str(bad), "--input", str(inp),
                       "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "data error" in err and "den." in err
        if case == "non-finite-param":
            assert f"{bad}: param.den.out.b is not finite" in err
        assert not out.exists()

    def test_non_uniform_grid_is_data_error(self, trained, tmp_path, capsys):
        ckpt, _ = trained
        cfg = data.SynthConfig(n_scenes=1, peds_per_scene=2, frames=21, seed=3)
        tracks = data.synthesize_scenes(cfg)
        for t in tracks:            # drop frame 100: steps of 10, then one of 20
            keep = t.frames != 100
            t.frames, t.points = t.frames[keep], t.points[keep]
        path = tmp_path / "gap.txt"
        data.write_benchmark_file(path, tracks)
        rc = cli.main(["predict", "--checkpoint", str(ckpt), "--input", str(path),
                       "--out", str(tmp_path / "g.csv")])
        assert rc == 2
        assert "not uniform" in capsys.readouterr().err
        assert not (tmp_path / "g.csv").exists()

    def test_history_only_falls_back_to_self_likelihood(self, trained, tmp_path):
        # strategy A with the default gt-ade selection, but the file has no
        # future: selection falls back to self-likelihood on window 0's
        # [seed, 23, 0] generator
        ckpt, _ = trained
        mdl, _, _ = Model.load(ckpt)
        inp = self._scene_file(tmp_path, frames=8, peds=2)
        outs = [tmp_path / "h_a.csv", tmp_path / "h_b.csv"]
        for out in outs:
            rc = cli.main(["predict", "--checkpoint", str(ckpt), "--input", str(inp),
                           "--out", str(out), "--r1", "3", "--r2", "2",
                           "--seed", "4"])
            assert rc == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        header = [l for l in outs[0].read_text().splitlines() if l.startswith("#")]
        assert header[0] == f"# checkpoint: {file_hash(ckpt)}"
        (protocol,) = [l for l in header if l.startswith("# protocol:")]
        assert "selection=self-likelihood" in protocol
        assert "gt-ade" not in protocol

        tracks = data.ingest_benchmark_file(inp, "input")
        window, with_gt, _ = data.first_window(tracks, mdl.config.t_obs,
                                               mdl.config.t_future,
                                               mdl.config.neighbor_radius)
        assert not with_gt
        strategy = inference.SamplingStrategy(kind="A", r1=3, r2=2)
        rng = np.random.default_rng([4, 23, 0])
        (runs,) = mdl.generate([window], [rng], n_runs=3)
        pset = inference._candidates(runs, window.origin, strategy, rng,
                                     "self-likelihood", None)
        want = [f"input,{ped},{m},{t + 1},{x:.6f},{y:.6f}"
                for p, ped in enumerate(window.ped_ids)
                for m in range(pset.n_candidates)
                for t, (x, y) in enumerate(pset.candidates[p, m])]
        got = [l for l in outs[0].read_text().splitlines()
               if not l.startswith("#") and not l.startswith("scene")]
        assert got == want

    def test_mixed_presence_skips_short_peds(self, trained, tmp_path, capsys):
        ckpt, _ = trained
        cfg = data.SynthConfig(n_scenes=1, peds_per_scene=2, frames=8, seed=3)
        tracks = data.synthesize_scenes(cfg)
        short = data.RawTrack(tracks[0].scene_id, 99, tracks[0].frames[:3],
                              tracks[0].points[:3])
        path = tmp_path / "mixed.txt"
        data.write_benchmark_file(path, tracks + [short])
        rc = cli.main(["predict", "--checkpoint", str(ckpt), "--input", str(path),
                       "--out", str(tmp_path / "m.csv"), "--strategy", "C",
                       "--r", "2", "--seed", "1"])
        assert rc == 0
        assert "skipping ped 99" in capsys.readouterr().err

    def test_round_trip_matches_eval_metrics(self, trained, tmp_path):
        # predictions re-scored one candidate at a time reproduce the eval
        # numbers for the same window, protocol and seed
        ckpt, _ = trained
        mdl, _, _ = Model.load(ckpt)
        inp = self._scene_file(tmp_path, frames=20, peds=2)
        out = tmp_path / "rt.csv"
        rc = cli.main(["predict", "--checkpoint", str(ckpt), "--input", str(inp),
                       "--out", str(out), "--strategy", "C", "--r", "4",
                       "--seed", "11"])
        assert rc == 0

        tracks = data.ingest_benchmark_file(inp, "input")
        (window,) = data.window_scenes(tracks, stride=1,
                                       neighbor_radius=mdl.config.neighbor_radius)
        gt = window.absolute_future()
        cands = {}
        for line in out.read_text().splitlines():
            if line.startswith("#") or line.startswith("scene"):
                continue
            _, ped, m, t, x, y = line.split(",")
            cands.setdefault((int(ped), int(m)), []).append((float(x), float(y)))
        best = {}
        for (ped, m), pts in cands.items():
            idx = window.ped_ids.index(ped)
            a, f = one_candidate_errors(pts, gt[idx])
            cur = best.get(idx)
            if cur is None or a < cur[0]:
                best[idx] = (a, f)
        got_ade = np.mean([v[0] for v in best.values()])
        got_fde = np.mean([v[1] for v in best.values()])

        protocol = inference.EvalProtocol(
            strategy=inference.SamplingStrategy(kind="C", r=4),
            selection="self-likelihood", seed=11)
        rep = inference.evaluate_windows(mdl, [window], protocol)
        assert abs(got_ade - rep["ade"]) < 1e-4
        assert abs(got_fde - rep["fde"]) < 1e-4

    def test_model_only_checkpoint_reads_as_with_adam_state(self, trained, tmp_path):
        # the same model saved with adam.* arrays: eval and predict write
        # the same bodies, and only the checkpoint hash differs
        ckpt, _ = trained
        _, arrays, _ = checkpoint.load_container(ckpt)
        assert not [k for k in arrays if k.startswith("adam.")]
        old = _with_adam_arrays(ckpt, tmp_path / "with_adam.tjdf")
        inp = self._scene_file(tmp_path, frames=20, peds=3)
        outputs = []
        for path in (ckpt, old):
            ev, pred = tmp_path / f"ev_{path.stem}.csv", tmp_path / f"pr_{path.stem}.csv"
            assert cli.main(["eval", "--checkpoint", str(path), "--data", "synthetic",
                             "--scenes", "2", "--peds", "3", "--frames", "30",
                             "--r1", "3", "--r2", "2", "--seed", "4", "--out", str(ev)]) == 0
            assert cli.main(["predict", "--checkpoint", str(path), "--input", str(inp),
                             "--r1", "3", "--r2", "2", "--pool-means", "--seed", "4",
                             "--out", str(pred)]) == 0
            summary = json.loads(ev.with_suffix(".json").read_text())
            assert summary.pop("checkpoint") == file_hash(path)
            texts = [ev.read_text().splitlines(), pred.read_text().splitlines()]
            assert [t[0] for t in texts] == [f"# checkpoint: {file_hash(path)}"] * 2
            outputs.append(([t[1:] for t in texts], summary))
        assert outputs[0] == outputs[1]

    def test_one_schedule_per_request(self, trained, tmp_path, monkeypatch):
        # the loaded model builds its schedule once, and a sampling --steps
        # recomputes only tau: one alpha[K] warning per request, not three
        ckpt, _ = trained
        meta, arrays, _ = checkpoint.load_container(ckpt)
        meta["config"]["beta_end"] = 0.05       # alpha[K] about 0.6 at K = 20
        warm = tmp_path / "warm.tjdf"
        checkpoint.save_container(warm, meta, arrays)
        built = []
        build_schedule = diffusion.build_schedule

        def counting(*args, **kwargs):
            built.append(args)
            return build_schedule(*args, **kwargs)
        monkeypatch.setattr(diffusion, "build_schedule", counting)
        inp = self._scene_file(tmp_path, frames=20, peds=2)
        for steps in ([], ["--steps", "5"]):
            built.clear()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert cli.main(["predict", "--checkpoint", str(warm), "--input", str(inp),
                                 "--out", str(tmp_path / "p.csv"), "--strategy", "C",
                                 "--r", "2", *steps]) == 0
            assert len(built) == 1
            assert sum("alpha[K]" in str(w.message) for w in caught) == 1

    @pytest.mark.parametrize("flags", [
        ["--strategy", "A", "--r1", "3", "--r2", "2", "--pool-means"],
        ["--strategy", "B", "--r", "4"],
        ["--strategy", "C", "--r", "5", "--selection", "self-likelihood"],
    ], ids=["A-pooled", "B", "C"])
    def test_csv_matches_row_by_row_writer(self, trained, tmp_path, monkeypatch, flags):
        ckpt, _ = trained
        inp = self._scene_file(tmp_path, frames=20, peds=10)
        inp = inp.rename(tmp_path / "scene%d 10.txt")   # a '%' in the scene name
        drawn = []
        sample_windows = inference.sample_windows

        def sample(mdl, windows, protocol, gts):
            (pset,) = sample_windows(mdl, windows, protocol, gts)
            drawn.append((windows[0], protocol, pset))
            return [pset]
        monkeypatch.setattr(inference, "sample_windows", sample)
        out = tmp_path / "pred.csv"
        rc = cli.main(["predict", "--checkpoint", str(ckpt), "--input", str(inp),
                       "--out", str(out), "--seed", "5", *flags])
        assert rc == 0
        ((window, protocol, pset),) = drawn
        assert window.n_peds == 10
        ref = tmp_path / "ref.csv"
        _row_by_row_predict_csv(ref, file_hash(ckpt),
                                cli._protocol_desc(protocol), protocol,
                                "scene%d 10", window.ped_ids, pset.candidates)
        assert out.read_bytes() == ref.read_bytes()


def _per_name_adam_arrays(mdl, opt):
    """``opt`` in the older per-name layout: ``adam.t`` and each parameter's
    span of the moment buffers as ``adam.m.<name>`` and ``adam.v.<name>``."""
    return {"adam.t": np.array([opt.t], dtype=np.int64),
            **{f"adam.{mv}.{k}": getattr(opt, mv)[mdl.spans[k]].reshape(p.shape)
               for mv in ("m", "v") for k, p in mdl.params.items()}}


def _with_adam_arrays(src, dst):
    """``src`` rewritten as a final model of the older format, which also
    carried the Adam state, per name."""
    meta, arrays, _ = checkpoint.load_container(src)
    mdl = Model.from_container(meta, arrays, src)[0]
    opt = training.AdamState(mdl)
    opt.t = meta["train_step"]
    opt.m[...], opt.v[...] = 0.25, 0.5
    checkpoint.save_container(dst, meta, {**arrays, **_per_name_adam_arrays(mdl, opt)})
    return dst


def _row_by_row_predict_csv(path, ckpt_hash, desc, protocol, scene, ped_ids, candidates):
    """The reference for ``cmd_predict``'s one-template CSV: one f-string
    and one write per row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# checkpoint: {ckpt_hash}\n# seed: {protocol.seed}\n"
                 f"# protocol: {desc}\nscene,ped,candidate,t,x,y\n")
        for p, ped in enumerate(ped_ids):
            for m in range(candidates.shape[1]):
                for t, (x, y) in enumerate(candidates[p, m].tolist(), start=1):
                    fh.write(f"{scene},{ped},{m},{t},{x:.6f},{y:.6f}\n")


# The dataclasses each command builds from its settings (``cli._config``),
# and the fewest flags each command parses with.
BUILT_FROM_FLAGS = {
    data.SynthConfig: ("synth", "train", "eval", "ablate"),
    training.TrainConfig: ("train",),
    inference.SamplingStrategy: ("eval", "ablate", "predict"),
}
REQUIRED_FLAGS = {
    "synth": ["--out", "x"],
    "train": [],
    "eval": ["--checkpoint", "x"],
    "ablate": ["--checkpoint", "x", "--axis", "steps"],
    "predict": ["--checkpoint", "x", "--input", "x", "--out", "x"],
}


@pytest.mark.parametrize("cls", list(BUILT_FROM_FLAGS), ids=lambda cls: cls.__name__)
def test_every_setting_has_a_flag(cls):
    # a field that no flag stores into can only ever hold its default: it
    # is a constant, and belongs in the code as one
    for command in BUILT_FROM_FLAGS[cls]:
        dests = vars(cli.parse_args([command, *REQUIRED_FLAGS[command]]))
        missing = [f.name for f in fields(cls) if f.name not in dests]
        assert not missing, f"{command} has no flag for {cls.__name__} {missing}"
