"""Binary container round-trips and error handling."""

import os
import stat
import struct
from dataclasses import replace

import numpy as np
import pytest

from conftest import file_hash
from trajdiff import checkpoint, cli, data
from trajdiff.model import Model, ModelConfig


def _arrays():
    rng = np.random.default_rng(3)
    return {
        "weights.a": rng.normal(size=(3, 4)).astype(np.float32),
        "weights.b": rng.normal(size=(7,)).astype(np.float64),
        "counts": np.arange(5, dtype=np.int64),
        "mask": np.array([0, 1, 1, 0], dtype=np.uint8),
        "scalarish": np.array([3.5], dtype=np.float32),
    }


def test_round_trip_bit_exact(tmp_path):
    path = tmp_path / "state.tjdf"
    meta = {"version": 1, "hyper": {"width": 128}, "norm": [0.0, 1.0]}
    arrays = _arrays()
    checkpoint.save_container(path, meta, arrays)
    meta2, arrays2, digest = checkpoint.load_container(path)
    assert meta2 == meta
    assert digest == file_hash(path)
    assert set(arrays2) == set(arrays)
    for name in arrays:
        assert arrays2[name].dtype == arrays[name].dtype
        assert arrays2[name].shape == arrays[name].shape
        assert arrays2[name].tobytes() == arrays[name].tobytes()


def test_same_state_same_bytes(tmp_path):
    a, b = tmp_path / "a.tjdf", tmp_path / "b.tjdf"
    arrays = _arrays()
    # insertion order must not matter
    reordered = dict(reversed(list(arrays.items())))
    checkpoint.save_container(a, {"x": 1}, arrays)
    checkpoint.save_container(b, {"x": 1}, reordered)
    assert a.read_bytes() == b.read_bytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "junk.tjdf"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(checkpoint.ContainerError, match="magic"):
        checkpoint.load_container(path)


def test_truncated_file(tmp_path):
    path = tmp_path / "state.tjdf"
    checkpoint.save_container(path, {}, _arrays())
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) - 7])
    with pytest.raises(checkpoint.ContainerError, match="truncated"):
        checkpoint.load_container(path)


def test_unsupported_dtype(tmp_path):
    with pytest.raises(checkpoint.ContainerError, match="dtype"):
        checkpoint.save_container(tmp_path / "x.tjdf", {},
                                  {"c": np.array([1 + 2j])})


def test_file_hash_stable(tmp_path):
    path = tmp_path / "state.tjdf"
    checkpoint.save_container(path, {"k": 2}, _arrays())
    digest = checkpoint.load_container(path)[2]
    assert digest == checkpoint.load_container(path)[2] == file_hash(path)
    assert len(digest) == 12


def test_failed_write_keeps_previous_file(tmp_path):
    path = tmp_path / "state.tjdf"
    checkpoint.save_container(path, {"step": 1}, _arrays())
    before = path.read_bytes()
    arrays = _arrays()
    arrays["zz.bad"] = np.arange(3, dtype=np.int16)   # written last, after the others
    with pytest.raises(checkpoint.ContainerError, match="unsupported dtype"):
        checkpoint.save_container(path, {"step": 2}, arrays)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state.tjdf"]


def test_rename_is_flushed_with_its_directory(tmp_path, monkeypatch):
    # a power loss cannot be provoked here; the order of the calls can be seen
    calls, fsync, replace_ = [], os.fsync, os.replace

    def record_fsync(fd):
        calls.append("fsync dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync file")
        fsync(fd)

    def record_replace(src, dst):
        calls.append("replace")
        replace_(src, dst)

    monkeypatch.setattr(checkpoint.os, "fsync", record_fsync)
    monkeypatch.setattr(checkpoint.os, "replace", record_replace)
    checkpoint.save_container(tmp_path / "state.tjdf", {"step": 1}, _arrays())
    assert calls == ["fsync file", "replace", "fsync dir"]


def _one_array_container(meta=b"{}", name=b"w", dims=(2,), payload=b"\x00" * 8):
    """Container bytes built field by field: one float32 array."""
    return (checkpoint.MAGIC + struct.pack("<IQ", checkpoint.VERSION, len(meta)) + meta
            + struct.pack("<IH", 1, len(name)) + name
            + struct.pack(f"<BB{len(dims)}Q", 0, len(dims), *dims) + payload)


# one corrupt field each
CORRUPT = {
    # 2**62 * 4 elements wrap to 0 in int64 arithmetic
    "dims-overflow-int64": _one_array_container(dims=(2 ** 62, 4), payload=b""),
    "dims-beyond-intp": _one_array_container(dims=(2 ** 64 - 1, 0), payload=b""),
    "metadata-not-utf8": _one_array_container(meta=b"{\"k\": \"\xff\"}"),
    "metadata-not-json": _one_array_container(meta=b"{not json"),
    "name-not-utf8": _one_array_container(name=b"w\xff"),
}


def test_field_built_container_reads(tmp_path):
    path = tmp_path / "ok.tjdf"
    path.write_bytes(_one_array_container(meta=b'{"k": 1}', dims=(1, 2)))
    meta, arrays, _ = checkpoint.load_container(path)
    assert meta == {"k": 1}
    assert arrays["w"].shape == (1, 2) and arrays["w"].dtype == np.float32


@pytest.mark.parametrize("case", sorted(CORRUPT))
def test_corrupt_container_is_container_error(tmp_path, case):
    path = tmp_path / "bad.tjdf"
    path.write_bytes(CORRUPT[case])
    with pytest.raises(checkpoint.ContainerError):
        checkpoint.load_container(path)


@pytest.mark.parametrize("case", sorted(CORRUPT))
def test_predict_on_corrupt_checkpoint_exits_2(tmp_path, capsys, case):
    path = tmp_path / "bad.tjdf"
    path.write_bytes(CORRUPT[case])
    out = tmp_path / "pred.csv"
    rc = cli.main(["predict", "--checkpoint", str(path), "--input", str(tmp_path / "in.txt"),
                   "--out", str(out)])
    assert rc == 2
    assert "data error" in capsys.readouterr().err
    assert not out.exists()


def _bad_model_meta(meta, arrays, case):
    """Valid container, metadata or arrays that do not describe a model."""
    if case == "meta-is-list":
        return [], arrays
    if case == "kind-only":
        return {"kind": "model"}, arrays
    if case == "unknown-config-key":
        return {**meta, "config": {**meta["config"], "frobnicate": 1}}, arrays
    if case == "int-param":
        return meta, {**arrays, "param.den.out.b": arrays["param.den.out.b"].astype(np.int64)}
    if case == "byte-param":
        return meta, {**arrays, "param.den.in.w": arrays["param.den.in.w"].astype(np.uint8)}
    if case == "nan-param":
        bias = arrays["param.den.out.b"].copy()
        bias[3] = np.nan
        return meta, {**arrays, "param.den.out.b": bias}
    assert case in ("even-kernel", "kernel-1")
    return {**meta, "config": {**meta["config"], "kernel": 4 if case == "even-kernel" else 1}}, \
        arrays


TINY = ModelConfig(conv_channels=2, d_phi=2, d_psi=2, denoiser_width=4,
                   denoiser_blocks=1, step_dim=4, k_total=20, steps=10, beta_end=0.4)


@pytest.mark.parametrize("case", ["meta-is-list", "kind-only", "unknown-config-key",
                                  "even-kernel", "kernel-1", "int-param", "byte-param",
                                  "nan-param"])
def test_predict_on_bad_model_metadata_exits_2(tmp_path, capsys, case):
    path = tmp_path / "model.tjdf"
    Model.initialize(TINY, 0).save(path)
    meta, arrays, _ = checkpoint.load_container(path)
    meta, arrays = _bad_model_meta(meta, arrays, case)
    checkpoint.save_container(path, meta, arrays)
    with pytest.raises(checkpoint.ContainerError):
        Model.from_container(meta, arrays, path)
    out = tmp_path / "pred.csv"
    rc = cli.main(["predict", "--checkpoint", str(path), "--input", str(tmp_path / "in.txt"),
                   "--out", str(out)])
    assert rc == 2
    assert "data error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("change", [{"step_dim": 5}, {"step_dim": 1}, {"t_future": 0},
                                    {"t_obs": 0}, {"neighbor_radius": float("nan")},
                                    {"neighbor_radius": float("inf")},
                                    {"neighbor_radius": 0.0}],
                         ids=["odd-step-dim", "step-dim-1", "t-future-0", "t-obs-0",
                              "radius-nan", "radius-inf", "radius-0"])
def test_predict_on_unusable_model_settings_exits_2(tmp_path, capsys, change):
    """A model initialized from settings that ``validate`` rejects (the
    step embedding has an even width; a model predicts at least one step;
    a nan radius would neighbor no one) saves, but does not load:
    predicting from it is a data error."""
    cfg = replace(TINY, **change)
    with pytest.raises(ValueError, match=next(iter(change))):
        cfg.validate()
    path = tmp_path / "model.tjdf"
    with np.errstate(divide="ignore"):     # t_obs = 0: encoder weights of fan-in 0
        Model.initialize(cfg, 0).save(path)
    inp = tmp_path / "in.txt"
    data.write_benchmark_file(inp, data.synthesize_scenes(
        data.SynthConfig(n_scenes=1, peds_per_scene=2, frames=20, seed=3)))
    out = tmp_path / "pred.csv"
    rc = cli.main(["predict", "--checkpoint", str(path), "--input", str(inp),
                   "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "data error" in err and "bad model metadata" in err
    assert not out.exists()


MICRO = ModelConfig(conv_channels=4, d_phi=4, d_psi=4, denoiser_width=8,
                    denoiser_blocks=1, step_dim=4, k_total=20, steps=10, beta_end=0.4)


@pytest.mark.parametrize("cfg", [ModelConfig(), MICRO], ids=["default", "micro"])
def test_param_layout_matches_initialized_model(cfg):
    layout = {name: shape for name, (shape, _) in cfg.param_layout().items()}
    params = Model.initialize(cfg, 0).params
    assert layout == {name: p.shape for name, p in params.items()}
    assert list(layout) == list(params)
