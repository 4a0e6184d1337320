"""Command-line entry point.

Subcommands: train, experiment, pairs, gradcheck, contours,
convert-check. Configuration is a flat key=value text file with ``#``
comments; command-line flags override file values, which override
documented defaults. Every run writes its resolved configuration as a
manifest next to its CSV artifacts, and the manifest replays the run via
``reconv <command> --config manifest.txt``.

Exit codes: 0 success, 2 usage, 3 config, 4 data-format, 5 numeric.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

from . import __version__
from .counting import contours_csv, emit_contours, match_pairs, pairs_csv
from .data import Dataset, load_cifar10, load_raw, make_synthetic
from .errors import ConfigError, FormatError, NumericError, ShapeError
from .experiments import ExperimentSpec, results_csv, run_experiment
from .gradcheck import check_model_grads
from .model import ArchConfig
from .table import csv_text
from .train import TrainConfig, metrics_csv, train

EXIT_USAGE, EXIT_CONFIG, EXIT_DATA_FORMAT, EXIT_NUMERIC = 2, 3, 4, 5
_NEGATIVE_NUMBER = re.compile(r"-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?|-(inf|infinity|nan)", re.I)

_COMMON = {"out": "out", "timing": "none"}
_ARCH = {"m": "16", "l": "2", "tied": "false", "sigma_v": "0.1",
         "input_size": "32", "classes": "10"}
_DATA = {
    "dataset": "synthetic", "data_dir": "",
    "train_files": "", "test_files": "",
    "train_images": "", "train_labels": "", "n_train": "0",
    "test_images": "", "test_labels": "", "n_test": "0",
    "synth_train": "512", "synth_test": "256", "synth_noise": "0.25",
    "synth_train_seed": "0", "synth_test_seed": "1",
}
_TRAIN_OPT = {"epochs": "2", "batch_size": "128", "lr": "0.001",
              "momentum": "0.9", "shuffle_seed": "0", "eval_every": "1"}

# Every key is also a flag: key m_list is --m-list, and key tied is the
# pair --tied/--untied.
DEFAULTS: dict[str, dict[str, str]] = {
    "train": {**_COMMON, **_ARCH, **_DATA, **_TRAIN_OPT, "seed": "0"},
    "experiment": {**_COMMON, **_DATA, **_TRAIN_OPT,
                   "kind": "layers-tied", "m_list": "8,16,32",
                   "l_list": "1,2,4", "tol": "0.01", "seeds": "0",
                   "max_pairs": "0"},
    "pairs": {**_COMMON, "layers": "3", "m_min": "16", "m_max": "256",
              "tol": "0.01"},
    "gradcheck": {**_COMMON, **_ARCH, "m": "4", "l": "3", "input_size": "8",
                  "seed": "0", "tol": "0.0001", "eps": "1e-05"},
    "contours": {**_COMMON, "kind": "untied", "m_list": "8,16,32,64,128",
                 "l_list": "1,2,4,8"},
    "convert-check": {**_COMMON, "format": "raw", "images": "", "labels": "",
                      "n": "0", "classes": "10", "files": "", "data_dir": ""},
}

ARTIFACTS = {"train": "metrics.csv", "experiment": "results.csv",
             "pairs": "pairs.csv", "gradcheck": "gradcheck.csv",
             "contours": "contours.csv", "convert-check": "convert_check.csv"}


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Read a flat key=value file; lines starting with '#' and blank
    lines are ignored."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        values[key.strip()] = value.strip()
    return values


def resolve_config(command: str, file_values: dict[str, str],
                   overrides: dict[str, str]) -> dict[str, str]:
    """defaults <- config file <- flags, with unknown-key rejection."""
    defaults = DEFAULTS[command]
    valid = set(defaults) | {"command"}
    stated = file_values.get("command")
    if stated is not None and stated != command:
        raise ConfigError(
            f"config file was written for subcommand {stated!r}, not {command!r}")
    for key in file_values:
        if key not in valid:
            raise ConfigError(
                f"unknown config key {key!r} for {command}; valid keys: "
                + ", ".join(sorted(valid)))
    resolved = dict(defaults)
    resolved.update({k: v for k, v in file_values.items() if k != "command"})
    resolved.update(overrides)
    resolved["command"] = command
    if resolved.get("timing", "none") not in ("none", "wall"):
        raise ConfigError(f"timing must be 'none' or 'wall', got {resolved['timing']!r}")
    return resolved


def _to_int(cfg: dict[str, str], key: str) -> int:
    try:
        return int(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"key {key}: expected integer, got {cfg[key]!r}") from exc


def _to_float(cfg: dict[str, str], key: str) -> float:
    try:
        return float(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"key {key}: expected number, got {cfg[key]!r}") from exc


def _to_nonnegative(cfg: dict[str, str], key: str) -> int:
    value = _to_int(cfg, key)
    if value < 0:
        raise ConfigError(f"key {key}: must be >= 0, got {value}")
    return value


def _to_bool(cfg: dict[str, str], key: str) -> bool:
    value = cfg[key].lower()
    if value in ("true", "1", "yes"):
        return True
    if value in ("false", "0", "no"):
        return False
    raise ConfigError(f"key {key}: expected true/false, got {cfg[key]!r}")


def _to_int_list(cfg: dict[str, str], key: str) -> list[int]:
    try:
        return [int(part) for part in cfg[key].split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ConfigError(
            f"key {key}: expected comma-separated integers, got {cfg[key]!r}") from exc


def _resolve_data_path(path: str, data_dir: str) -> Path:
    root = Path(data_dir) if data_dir else Path(os.environ.get("RECONV_DATA_DIR", "."))
    resolved = Path(path) if Path(path).is_absolute() else root / path
    if not resolved.exists():
        raise FormatError(f"dataset file not found: {resolved}")
    return resolved


def _files(cfg: dict[str, str], source: str, *keys: str) -> list[Path]:
    """The data files that ``keys`` name, each of which ``source`` requires."""
    for key in keys:
        if not cfg[key]:
            raise ConfigError(f"{source} requires {key}")
    return [_resolve_data_path(cfg[key], cfg["data_dir"]) for key in keys]


def _listed(cfg: dict[str, str], source: str, key: str) -> list[str]:
    """The comma-separated files of ``cfg[key]``, which ``source`` requires."""
    paths = [p for p in cfg[key].split(",") if p.strip()]
    if not paths:
        raise ConfigError(f"{source} requires {key}")
    return paths


def _load_datasets(cfg: dict[str, str], size: int,
                   classes: int) -> tuple[Dataset, Dataset]:
    """The train and test sets, checked to hold at least one example each,
    of ``size`` x ``size`` images with labels below ``classes``: synthetic
    data is drawn that way, and files, whose images are 32x32, must fit."""
    source = cfg["dataset"]
    if source == "synthetic":
        keys = ("synth_train", "synth_test")
        noise = _to_float(cfg, "synth_noise")
        counts = [_to_nonnegative(cfg, key) for key in keys]
        sets = tuple(make_synthetic(count, _to_nonnegative(cfg, key + "_seed"),
                                    num_classes=classes, noise=noise, size=size)
                     for key, count in zip(keys, counts))
    elif source not in ("cifar10", "raw"):
        raise ConfigError(f"dataset must be synthetic, cifar10 or raw, got {source!r}")
    elif size != 32:
        raise ConfigError(f"key input_size: dataset={source} images are 32x32, got {size}")
    elif source == "cifar10":
        keys = ("train_files", "test_files")
        sets = tuple(load_cifar10([_resolve_data_path(p, cfg["data_dir"])
                                   for p in _listed(cfg, "dataset=cifar10", key)])
                     for key in keys)
    else:
        keys = ("n_train", "n_test")
        files = _files(cfg, "dataset=raw", "train_images", "train_labels",
                       "test_images", "test_labels")
        # every label byte loads; the check below holds the labels to classes
        sets = (load_raw(*files[:2], _to_nonnegative(cfg, "n_train"), 256),
                load_raw(*files[2:], _to_nonnegative(cfg, "n_test"), 256))
    for key, data in zip(keys, sets):
        if len(data) == 0:
            raise ConfigError(f"key {key}: dataset={source} holds no examples")
        top = data.labels.max()
        if top >= classes:
            raise ConfigError(f"dataset={source} holds label {top}, "
                              f"but the model's classes is {classes}")
    return sets


def _arch_from(cfg: dict[str, str]) -> ArchConfig:
    size = _to_int(cfg, "input_size")
    return ArchConfig(
        feature_maps=_to_int(cfg, "m"), layers=_to_int(cfg, "l"),
        tied=_to_bool(cfg, "tied"), input_h=size, input_w=size,
        classes=_to_int(cfg, "classes"), sigma_v=_to_float(cfg, "sigma_v"))


def _train_cfg_from(cfg: dict[str, str]) -> TrainConfig:
    return TrainConfig(
        epochs=_to_int(cfg, "epochs"), batch_size=_to_int(cfg, "batch_size"),
        learning_rate=_to_float(cfg, "lr"), momentum=_to_float(cfg, "momentum"),
        shuffle_seed=_to_int(cfg, "shuffle_seed"),
        eval_every=_to_int(cfg, "eval_every"))


def _prepare_out(cfg: dict[str, str]) -> Path:
    """Create the output directory, write the run's manifest there and
    return the path of the command's artifact."""
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    artifact = out_dir / ARTIFACTS[cfg["command"]]
    lines = [
        f"# reconv {__version__} run manifest",
        f"# replay: reconv {cfg['command']} --config {out_dir / 'manifest.txt'}",
        f"# artifacts: {artifact}",
        f"command={cfg['command']}",
    ]
    lines += [f"{key}={cfg[key]}" for key in sorted(cfg) if key != "command"]
    (out_dir / "manifest.txt").write_text("\n".join(lines) + "\n")
    return artifact


def cmd_train(cfg: dict[str, str]) -> int:
    arch = _arch_from(cfg)
    train_cfg = _train_cfg_from(cfg)
    seed = _to_nonnegative(cfg, "seed")
    train_data, test_data = _load_datasets(cfg, arch.input_h, arch.classes)
    path = _prepare_out(cfg)
    result = train(arch, train_data, test_data, train_cfg, seed)
    path.write_text(metrics_csv(result, wall_time=cfg["timing"] == "wall"))
    if result.records:
        last = result.records[-1]
        print(f"trained {train_cfg.epochs} epochs: train_error={last.train_error:.4f} "
              f"test_error={last.test_error:.4f}")
    print(f"wrote {path}")
    return 0


def cmd_experiment(cfg: dict[str, str]) -> int:
    spec = ExperimentSpec(
        kind=cfg["kind"], m_list=_to_int_list(cfg, "m_list"),
        l_list=_to_int_list(cfg, "l_list"), train=_train_cfg_from(cfg),
        tolerance=_to_float(cfg, "tol"),
        seeds=tuple(_to_int_list(cfg, "seeds")),
        max_pairs=_to_int(cfg, "max_pairs"))
    # every cell is an ArchConfig of default input size and classes
    train_data, test_data = _load_datasets(cfg, ArchConfig.input_h, ArchConfig.classes)
    path = _prepare_out(cfg)
    result = run_experiment(spec, train_data, test_data)
    path.write_text(results_csv(result, wall_time=cfg["timing"] == "wall"))
    failed = sum(1 for c in result.cells if c.error)
    print(f"ran {len(result.cells)} cells ({failed} failed); wrote {path}")
    return 0


def cmd_pairs(cfg: dict[str, str]) -> int:
    pairs = match_pairs(_to_int(cfg, "layers"),
                        (_to_int(cfg, "m_min"), _to_int(cfg, "m_max")),
                        _to_float(cfg, "tol"))
    path = _prepare_out(cfg)
    path.write_text(pairs_csv(pairs))
    print(f"found {len(pairs)} matched pairs; wrote {path}")
    return 0


def cmd_gradcheck(cfg: dict[str, str]) -> int:
    report = check_model_grads(_arch_from(cfg), _to_nonnegative(cfg, "seed"),
                               tol=_to_float(cfg, "tol"), eps=_to_float(cfg, "eps"))
    path = _prepare_out(cfg)
    path.write_text(report.to_csv())
    print(report)
    print(f"wrote {path}")
    if not report.passed:
        raise NumericError("gradient check failed; see report above")
    return 0


def cmd_contours(cfg: dict[str, str]) -> int:
    rows = emit_contours(_to_int_list(cfg, "m_list"), _to_int_list(cfg, "l_list"),
                         cfg["kind"])
    path = _prepare_out(cfg)
    path.write_text(contours_csv(rows))
    print(f"wrote {path}")
    return 0


def cmd_convert_check(cfg: dict[str, str]) -> int:
    checked: list[tuple[str, int, int]] = []  # (path, records, classes)
    if cfg["format"] == "raw":
        data = load_raw(*_files(cfg, "format=raw", "images", "labels"),
                        _to_int(cfg, "n"), _to_int(cfg, "classes"))
        checked = [(cfg["images"], len(data), data.num_classes),
                   (cfg["labels"], len(data), data.num_classes)]
    elif cfg["format"] == "cifar10":
        for p in _listed(cfg, "format=cifar10", "files"):
            data = load_cifar10([_resolve_data_path(p, cfg["data_dir"])])
            checked.append((p, len(data), data.num_classes))
    else:
        raise ConfigError(f"format must be raw or cifar10, got {cfg['format']!r}")
    path = _prepare_out(cfg)
    path.write_text(csv_text(["path", "records", "classes", "status"],
                             ([p, n, k, "ok"] for p, n, k in checked)))
    total = sum(n for _, n, _ in checked) if cfg["format"] == "cifar10" else checked[0][1]
    print(f"checked {total} records; wrote {path}")
    return 0


_HANDLERS = {"train": cmd_train, "experiment": cmd_experiment,
             "pairs": cmd_pairs, "gradcheck": cmd_gradcheck,
             "contours": cmd_contours, "convert-check": cmd_convert_check}

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reconv", allow_abbrev=False,
        description="Recursive (weight-tied) convolutional network toolkit")
    parser.add_argument("--version", action="version", version=f"reconv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, defaults in DEFAULTS.items():
        p = sub.add_parser(command, allow_abbrev=False)
        p.add_argument("--config", default=None, help="key=value config file")
        for key in defaults:
            dest = f"key_{key}"
            if key == "tied":
                p.add_argument("--tied", dest=dest, action="store_const", const="true")
                p.add_argument("--untied", dest=dest, action="store_const", const="false")
            else:
                p.add_argument("--" + key.replace("_", "-"), dest=dest)
    return parser


def _overrides_from(args: argparse.Namespace) -> dict[str, str]:
    return {name[len("key_"):]: value for name, value in vars(args).items()
            if name.startswith("key_") and value is not None}


def _attach_negative_values(argv: list[str]) -> list[str]:
    """``--flag -1e-5`` as ``--flag=-1e-5``: argparse reads a separate
    value that starts with '-' as an option unless it looks like ``-1`` or
    ``-0.5``, so ``-1e-5`` or ``-inf`` would never reach the config checks."""
    args: list[str] = []
    for token in argv:
        if (_NEGATIVE_NUMBER.fullmatch(token) and args and args[-1].startswith("--")
                and "=" not in args[-1]):
            args[-1] += "=" + token
        else:
            args.append(token)
    return args


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(
            _attach_negative_values(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        # argparse already printed a usage message
        return int(exc.code or 0)
    try:
        file_values = parse_config_file(args.config) if args.config else {}
        cfg = resolve_config(args.command, file_values, _overrides_from(args))
        return _HANDLERS[args.command](cfg)
    except (FormatError, ShapeError) as exc:
        print(f"error (data-format): {exc}", file=sys.stderr)
        return EXIT_DATA_FORMAT
    except NumericError as exc:
        print(f"error (numeric): {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error (config): {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
