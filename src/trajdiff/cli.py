"""Command line surface: dataset prep, training, evaluation, ablations,
prediction export and plots.

Commands: ``synth``, ``train``, ``eval``, ``ablate``, ``predict``.
Settings may also come from a config file (``--config``, INI-style
``key = value`` sections): key ``section.name`` is the flag ``--name``
(``data.dir`` is ``--data``), checked like the flag, and command line flags
override it.  Each settings flag records its key as it is added, and a
command reads exactly the keys of its own settings flags: another command's
key is skipped (``seed`` is read only from the command's own section,
``synth``, ``train`` or ``protocol``), and a key that no command has is a
usage error.  Each config dataclass takes only its own section's settings, so
the synthetic scenes of ``train``, ``eval`` and ``ablate`` keep seed 0.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure
(including an array too large for memory).
"""

from __future__ import annotations

import argparse
import configparser
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import fields, replace

from . import checkpoint, data, inference, svg, training
from .checkpoint import ContainerError
from .diffusion import GAMMA_MODES
from .model import Model, ModelConfig
from .numerics import NumericsError

ENV_DATA_DIR = "TRAJDIFF_DATA_DIR"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_at_least(low: int):
    """An argparse ``type``: an int that is at least ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"          # argparse names the type in its messages
    return parse


# Each setting's flag stores under its dataclass field name, with no argparse
# default: the dataclass supplies every default (see ``_config``).  A config
# file holds the setting as key ``section.name``, recorded on the flag.


def _settings(p, section: str):
    """``p.add_argument`` for settings flags, each also config key ``section.name``:
    ``key``, or else the flag's name with underscores for dashes."""
    def add(flag, key=None, **kw):
        action = p.add_argument(flag, **kw)
        action.config_key = f"{section}.{key or flag[2:].replace('-', '_')}"
    return add


def _add_common(p, section: str):
    p.add_argument("--config", help="INI config file; flags override its values")
    _settings(p, section)("--seed", type=int)


def _add_synth(p):
    add = _settings(p.add_argument_group("synthetic data (with --data synthetic)"), "synth")
    add("--scenes", dest="n_scenes", type=int)
    add("--peds", dest="peds_per_scene", type=int)
    add("--frames", type=int)
    add("--speed-min", type=float)
    add("--speed-max", type=float)
    add("--turn-noise", type=float)
    add("--repulsion", dest="repulsion_gain", type=float)
    add("--box", type=float, help="scene box size, meters")


def _add_data(p, test_scene_help):
    add = _settings(p, "data")
    add("--data", key="dir",
        help=f"benchmark data directory or 'synthetic' (default ${ENV_DATA_DIR})")
    add("--test-scene", help=test_scene_help)
    add("--stride", type=_int_at_least(1))


def _add_protocol(p):
    add = _settings(p, "protocol")
    add("--strategy", dest="kind", choices=("A", "B", "C"))
    add("--r1", type=int, help="reverse runs (strategy A)")
    add("--r2", type=int, help="Gaussian draws (strategy A)")
    add("--r", type=int, help="runs/draws (strategies B, C)")
    add("--pool-means", dest="pool_run_means", action="store_true", default=None,
        help="strategy A: keep every run's mean trajectory as a candidate")
    add("--selection", choices=inference.SELECTIONS)
    add("--steps", type=int, help="execution steps S (must not exceed the checkpoint's K)")
    add("--gamma-mode", choices=GAMMA_MODES,
        help="the reverse chain's per-step noise (default deterministic)")


@functools.cache
def build_parser() -> _Parser:
    """Built once per process: parsing leaves the parser as it was.  Its
    ``commands`` map each command to its subparser."""
    parser = _Parser(prog="trajdiff", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p = sub.add_parser("synth", help="emit synthetic benchmark-format scene files")
    _add_common(p, "synth")
    _add_synth(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train a model and write checkpoint + log")
    _add_common(p, "train")
    _add_synth(p)
    _add_data(p, "scene held out from training")
    p.add_argument("--out", default="runs")
    train, model = _settings(p, "train"), _settings(p, "model")
    train("--epochs", type=int)
    train("--batch", dest="batch_size", type=int)
    train("--lr", dest="learning_rate", type=float)
    train("--lambda1", dest="lambda_diffusion", type=float, help="diffusion loss weight")
    train("--lambda2", dest="lambda_likelihood", type=float,
          help="likelihood loss weight")
    train("--lambda3", dest="lambda_consistency", type=float,
          help="consistency loss weight")
    model("--k", dest="k_total", type=int, help="total Markovian steps K")
    model("--steps", type=int, help="execution steps S")
    model("--beta-start", type=float)
    model("--beta-end", type=float)
    model("--channels", dest="conv_channels", type=int)
    model("--width", dest="denoiser_width", type=int)
    model("--blocks", dest="denoiser_blocks", type=int)
    model("--d-phi", type=int)
    model("--d-psi", type=int)
    train("--checkpoint-every", type=int)
    train("--denoiser-boost", type=int, help="extra denoiser-only updates per joint step")
    p.add_argument("--resume", help="checkpoint to resume from")

    p = sub.add_parser("eval", help="Best-of-N ADE/FDE on a held-out scene")
    _add_common(p, "protocol")
    _add_synth(p)
    _add_protocol(p)
    _add_data(p, "evaluate this scene only")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", help="metrics CSV path")

    p = sub.add_parser("ablate", help="sweep steps, sampling strategies or gamma")
    _add_common(p, "protocol")
    _add_synth(p)
    _add_protocol(p)
    _add_data(p, "evaluate this scene only")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--axis", required=True, choices=("steps", "sampling", "gamma"))
    p.add_argument("--out")

    p = sub.add_parser("predict", help="export candidate trajectories for one file")
    _add_common(p, "protocol")
    _add_protocol(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="benchmark-format text file")
    p.add_argument("--out", required=True, help="candidate CSV path")
    p.add_argument("--plot", help="also write an SVG overlay here")
    return parser


# ---------------------------------------------------------------------------
# Config file handling


def _config_keys(parser) -> dict[str, dict[str, argparse.Action]]:
    """Each command's settings flags by config key."""
    return {command: {a.config_key: a for a in p._actions if hasattr(a, "config_key")}
            for command, p in parser.commands.items()}


def _config_flags(path, command: str) -> list[str]:
    """The settings ``command`` reads from the INI file ``path``, as flags:
    the keys of its own settings flags, with values taken as written.
    Other commands' keys are skipped, and a key that no command has, a
    ``[DEFAULT]`` key among them, is a usage error."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        if not cp.read(path):
            raise UsageError(f"config file {path} not found")
        # the [DEFAULT] keys come first, so one is refused before a section inherits it
        items = [(cp.default_section, k, v) for k, v in cp.defaults().items()]
        items += [(s, k, v) for s in cp.sections() for k, v in cp.items(s)]
    except configparser.Error as exc:
        raise UsageError(f"cannot parse config file {path}: {exc}") from None
    keys = _config_keys(build_parser())
    flags = []
    for section, key, value in items:
        name = f"{section}.{key}"
        if not any(name in own for own in keys.values()):
            raise UsageError(f"unknown config key {name!r} in {path}")
        action = keys[command].get(name)
        if action is None:
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:           # a switch: true gives the flag
            try:
                flags += [flag] if cp.getboolean(section, key) else []
            except ValueError as exc:
                raise UsageError(f"config key {name} in {path}: {exc}") from None
        else:
            flags.append(f"{flag}={value}")
    return flags


def parse_args(argv=None) -> argparse.Namespace:
    """Parse ``argv``.  With ``--config``, parse again with the file's
    settings as flags ahead of ``argv``'s: flags override the file, and file
    values pass the same type and choice checks as flags."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    at = argv.index(args.command) + 1
    flags = _config_flags(args.config, args.command)
    try:
        return parser.parse_args([*argv[:at], *flags, *argv[at:]])
    except UsageError as exc:
        raise UsageError(f"{exc} (config file {args.config})") from None


# ---------------------------------------------------------------------------
# Shared data plumbing


def _config(args, cls, section: str):
    """A ``cls`` from the settings of config section ``section`` given as
    flags or in the config file; the dataclass supplies every other field.
    A setting the dataclass refuses at construction is a usage error."""
    names = {f.name for f in fields(cls)}
    given = {a.dest: getattr(args, a.dest)
             for key, a in _config_keys(build_parser())[args.command].items()
             if key.startswith(f"{section}.") and a.dest in names
             and getattr(args, a.dest) is not None}
    try:
        return cls(**given)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _data_files(args, scene: str | None = None) -> list[str]:
    """The benchmark files the data source names, none for ``synthetic``;
    from a directory, only ``scene``'s file when one is named."""
    source = args.data if args.data is not None else os.environ.get(ENV_DATA_DIR)
    if source is None:
        raise UsageError("no data source: pass --data, set it in the config, "
                         f"or export {ENV_DATA_DIR}")
    if source == "synthetic":
        return []
    if not os.path.isdir(source):
        raise data.DataError(f"data directory {source} does not exist")
    if scene is not None:
        if not os.path.isfile(path := os.path.join(source, f"{scene}.txt")):
            raise data.DataError(f"test scene {scene!r} has no file {path}")
        return [path]
    names = sorted(n for n in os.listdir(source) if n.endswith(".txt"))
    if not names:
        raise data.DataError(f"no .txt benchmark files under {source}")
    return [os.path.join(source, name) for name in names]


def _scene_windows(args, files: list[str], model_cfg: ModelConfig, test_side: bool) -> list:
    """The windows of the tracks in ``files``, or of the synthetic scenes if
    none, in scene order.  With a test scene named, ``test_side`` keeps only
    its windows (eval, ablate), otherwise every other scene's (train).  A
    missing test scene or no window left is a data error."""
    test_scene = args.test_scene
    stride = model_cfg.t_future if args.stride is None else args.stride
    tracks = ([t for path in files for t in data.ingest_benchmark_file(
                  path, os.path.splitext(os.path.basename(path))[0])]
              if files else data.synthesize_scenes(_config(args, data.SynthConfig, "synth")))
    windows = data.window_scenes(tracks, model_cfg.t_obs, model_cfg.t_future,
                                 stride=stride, neighbor_radius=model_cfg.neighbor_radius)
    if test_scene is not None:
        if all(w.scene_id != test_scene for w in windows):
            raise data.DataError(f"test scene {test_scene!r} not found in data")
        windows = [w for w in windows if (w.scene_id == test_scene) == test_side]
    if not windows:
        raise data.DataError("no training windows after holding out the test scene"
                             if test_scene else "no complete windows in the data")
    return windows


def _write_csv(path, ckpt_hash: str, protocol: inference.EvalProtocol, header: str,
               body: str) -> None:
    """``body`` is the rows, each ending in a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# checkpoint: {ckpt_hash}\n# seed: {protocol.seed}\n"
                 f"# protocol: {_protocol_desc(protocol)}\n{header}\n{body}")


def _protocol_desc(protocol: inference.EvalProtocol) -> str:
    s = protocol.strategy
    counts = f"r1={s.r1} r2={s.r2}" if s.kind == "A" else f"r={s.r}"
    return (f"strategy={s.kind} {counts} pool_means={s.pool_run_means} "
            f"selection={protocol.selection} steps={protocol.steps} "
            f"gamma={protocol.gamma_mode}")


# ---------------------------------------------------------------------------
# Commands


def cmd_synth(args) -> int:
    cfg = _config(args, data.SynthConfig, "synth")
    os.makedirs(args.out, exist_ok=True)
    # the tracks come scene by scene
    for scene, tracks in itertools.groupby(data.synthesize_scenes(cfg),
                                           key=lambda t: t.scene_id):
        data.write_benchmark_file(os.path.join(args.out, f"{scene}.txt"), list(tracks))
    print(f"wrote {cfg.n_scenes} scenes ({cfg.peds_per_scene} peds x "
          f"{cfg.frames} frames) to {args.out}")
    return 0


def cmd_train(args) -> int:
    model_cfg = _config(args, ModelConfig, "model")
    train_cfg = _config(args, training.TrainConfig, "train")
    windows = _scene_windows(args, _data_files(args), model_cfg, False)
    path, rows = training.fit(windows, train_cfg, model_cfg, out_dir=args.out,
                              resume_from=args.resume)
    last = rows[-1]
    n_params = sum(math.prod(shape) for shape, _ in model_cfg.param_layout().values())
    print(f"trained {len(rows)} steps on {len(windows)} windows ({n_params} parameters)")
    print(f"final losses: total={last[1]:.4f} diffusion={last[2]:.4f} "
          f"likelihood={last[3]:.4f} consistency={last[4]:.4f}")
    print(f"checkpoint: {path}")
    return 0


def _open_checkpoint(args, outputs, inputs=()) -> tuple[Model, str, inference.EvalProtocol]:
    """The checkpoint's model, the hash of its bytes and the protocol.  The
    checkpoint is read only once each of ``inputs`` is a file and each
    output given is a file path in a directory, and none of the checkpoint,
    ``--config``, ``inputs`` or the other outputs; an invalid protocol
    setting is then a usage error."""
    for path in inputs:
        if not os.path.isfile(path):
            raise data.DataError(f"cannot read {path}: not a file")
    used = {os.path.realpath(p): p for p in (args.checkpoint, args.config, *inputs) if p}
    for path in (p for p in outputs if p is not None):
        parent = os.path.dirname(path) or "."
        if not path or os.path.isdir(path):
            raise data.DataError(f"cannot write {path!r}: not a file path")
        if not os.path.isdir(parent):
            raise data.DataError(f"cannot write {path}: {parent} is not a directory")
        if (real := os.path.realpath(path)) in used:
            raise UsageError(f"output {path} is {used[real]}, "
                             "which the command also reads or writes")
        used[real] = path
    meta, arrays, ckpt_hash = checkpoint.load_container(args.checkpoint)
    mdl, _meta, _rest = Model.from_container(meta, arrays, args.checkpoint)
    strategy = _config(args, inference.SamplingStrategy, "protocol")
    protocol = _config(args, inference.EvalProtocol, "protocol")
    if protocol.steps is not None and protocol.steps > mdl.schedule.K:
        raise UsageError(f"--steps {protocol.steps} outside 1..K={mdl.schedule.K}")
    return mdl, ckpt_hash, replace(protocol, strategy=strategy)


def cmd_eval(args) -> int:
    json_path = os.path.splitext(args.out or "")[0] + ".json"
    files = _data_files(args, args.test_scene)
    mdl, ckpt_hash, protocol = _open_checkpoint(args, (args.out, args.out and json_path), files)
    report = inference.evaluate_scenes(mdl, _scene_windows(args, files, mdl.config, True),
                                       protocol)

    print(f"{'scene':<12} {'ADE/FDE':>14} {'windows':>8} {'peds':>6}")
    rows = []
    for scene, r in report["scenes"].items():
        print(f"{scene:<12} {r['ade']:>7.3f}/{r['fde']:<6.3f} {r['windows']:>8} "
              f"{r['pedestrians']:>6}")
        rows.append(f"{scene},{protocol.strategy.kind},{r['ade']:.6f},{r['fde']:.6f},"
                    f"{r['windows']},{r['pedestrians']}\n")
    if "avg" in report:
        print(f"{'AVG':<12} {report['avg']['ade']:>7.3f}/{report['avg']['fde']:<6.3f}")
        rows.append(f"AVG,{protocol.strategy.kind},{report['avg']['ade']:.6f},"
                    f"{report['avg']['fde']:.6f},,\n")
    if args.out:
        _write_csv(args.out, ckpt_hash, protocol,
                   "scene,n_protocol,ade,fde,windows,pedestrians", "".join(rows))
        summary = {"checkpoint": ckpt_hash, "seed": protocol.seed,
                   "protocol": _protocol_desc(protocol), "report": report}
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
        print(f"metrics written to {args.out} (summary: {json_path})")
    return 0


def cmd_ablate(args) -> int:
    files = _data_files(args, args.test_scene)
    mdl, ckpt_hash, protocol = _open_checkpoint(args, (args.out,), files)
    # the steps and gamma axes: one evaluation per changed protocol setting
    sweep = ({f"S={s}": {"steps": s} for s in (10, 25, 50, 100) if s <= mdl.schedule.K}
             if args.axis == "steps" else {m: {"gamma_mode": m} for m in GAMMA_MODES})
    if not sweep:
        raise UsageError(f"--axis steps sweeps S of 10 to 100, all above K={mdl.schedule.K}")
    windows = _scene_windows(args, files, mdl.config, True)
    if args.axis == "sampling":
        kinds = ("A", "B", "C")
        reports = inference.evaluate_windows(
            mdl, windows, protocol, [replace(protocol.strategy, kind=k) for k in kinds])
        rows = [("sampling", kind, r) for kind, r in zip(kinds, reports)]
    else:
        rows = [(args.axis, setting,
                 inference.evaluate_windows(mdl, windows, replace(protocol, **change)))
                for setting, change in sweep.items()]

    print(f"{'axis':<10} {'setting':<16} {'ADE/FDE':>14}")
    csv_rows = []
    for axis, setting, r in rows:
        print(f"{axis:<10} {setting:<16} {r['ade']:>7.3f}/{r['fde']:<6.3f}")
        csv_rows.append(f"{axis},{setting},{r['ade']:.6f},{r['fde']:.6f},"
                        f"{r['windows']},{r['pedestrians']}\n")
    if args.out:
        _write_csv(args.out, ckpt_hash, protocol, "axis,setting,ade,fde,windows,pedestrians",
                   "".join(csv_rows))
        print(f"ablation written to {args.out}")
    return 0


def cmd_predict(args) -> int:
    mdl, ckpt_hash, protocol = _open_checkpoint(args, (args.out, args.plot), (args.input,))
    scene = os.path.splitext(os.path.basename(args.input))[0]
    tracks = data.ingest_benchmark_file(args.input, scene)
    if not tracks:
        raise data.DataError(f"{args.input} contains no tracks")
    window, with_gt, skipped = data.first_window(tracks, mdl.config.t_obs,
                                                 mdl.config.t_future,
                                                 mdl.config.neighbor_radius)
    for ped in skipped:
        print(f"skipping ped {ped}: history shorter than {mdl.config.t_obs} frames",
              file=sys.stderr)
    gt_abs = window.absolute_future() if with_gt else None
    sampling = protocol
    if gt_abs is None and protocol.selection == "gt-ade":
        sampling = replace(protocol, selection="self-likelihood")
    (pset,) = inference.sample_windows(mdl, [window], sampling, [gt_abs])

    # One %-template for every row, filled in one call from one flat list of
    # Python floats: ``%.6f`` writes the same bytes as ``{:.6f}``.  Each
    # (pedestrian, candidate) block of T' rows is one join of the row tails
    # on its "scene,ped,candidate," head, which the leading "" puts first.
    tails = ["", *(f"{t},%.6f,%.6f\n" for t in range(1, mdl.config.t_future + 1))]
    prefix = scene.replace("%", "%%")
    template = "".join(f"{prefix},{ped},{m},".join(tails) for ped in window.ped_ids
                       for m in range(pset.n_candidates))
    _write_csv(args.out, ckpt_hash, sampling, "scene,ped,candidate,t,x,y",
               template % tuple(pset.candidates.ravel().tolist()))
    print(f"{pset.n_candidates} candidates x {window.n_peds} pedestrians "
          f"written to {args.out}")
    if args.plot:
        doc = svg.render_window(window.absolute_observed(), pset.candidates, gt_abs)
        with open(args.plot, "w", encoding="utf-8") as fh:
            fh.write(doc)
        print(f"plot written to {args.plot}")
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "predict": cmd_predict,
}


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        return _COMMANDS[args.command](args)
    except (UsageError, training.ResumeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (data.DataError, ContainerError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, ValueError, ArithmeticError, MemoryError) as exc:
        # settings within their checks can still ask for arrays larger than
        # memory or than numpy can index
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
