"""Batch command line: synth, stats, train, forecast, detect, evaluate,
ablate, report.

One option table per subcommand (`COMMANDS`) names each flag, its help and
its target, whose annotation is the flag's type. A target is a field of
RadNetConfig, TrainConfig, PotConfig or IncidentSpec (`--seed` on `train`
sets both seeds, `--events` IncidentSpec.count, and `--static` sets
`dynamic` to false), a `synth_traffic` parameter (`--nodes` is `n_nodes`),
or a plain option with its default (`--out`, `--test-fraction`, `--seeds`).

A JSON config file passed with --config may hold any subcommand's option
(dashes or underscores), so one file can serve both `train` and `detect`,
plus `train` and `pot` blocks keyed by TrainConfig and PotConfig field
names. A field takes the first value found: the subcommand's flag, the
file's `train` / `pot` block, the file's top level, the dataclass default
(the only place its default is written). Other options take the flag, the
file's top level, then the table's default. A file value must have its
option's or field's type (`static` a bool). A key no subcommand reads from
a file is an error: an unknown name, `help`, `config`, and the required
paths `data`, `checkpoint` and `detect`. So is an unknown key in a block.
RADNET_LOG sets the log level.
"""

from __future__ import annotations

import argparse
import inspect
import logging
import os
import sys
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import data as data_io
from . import files, pipeline
from .data import IncidentSpec, load_dataset, save_dataset, stats, stats_text, synth_traffic
from .errors import FormatError
from .evaluation import evaluate
from .incidents import IncidentLabels
from .model import VARIANTS, RadNet, RadNetConfig
from .pipeline import (
    TEST_FRACTION,
    PotConfig,
    run_detection,
    split_train_test,
    write_report_csv,
)
from .training import Normalizer, TrainConfig, train, write_loss_csv

log = logging.getLogger("radnet.cli")


def _field(key: str) -> str:
    """A config-file key as an option dest or field name: dashes become underscores."""
    return key.replace("-", "_")


def _checked(kind, key: str, value, path: str):
    """A config-file value for `key`, whose type `kind` is an annotation, a parse function
    (`--seeds`) or, for a `train` / `pot` block, the block's dataclass. A value of another
    JSON type is an error naming the key and the file."""
    name = _field(key)
    if is_dataclass(kind):
        if not isinstance(value, dict):
            raise ValueError(f"config file {path}: {name} must be an object, got {value!r}")
        params = inspect.signature(kind).parameters
        # an unknown key passes, to fail in kind(...) naming itself
        return {_field(k): _checked(params[_field(k)].annotation, k, v, path)
                if _field(k) in params else v for k, v in value.items()}
    if callable(kind):
        try:
            return kind(value)
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"config file {path}: {name}: {exc}") from None
    # a tuple is a JSON array of its first item type, and a JSON true is no number
    item = kind.removeprefix("tuple[").split(",")[0].strip(" ]")
    items = value if isinstance(value, list) else [value]
    json_type = {"int": int, "float": (int, float), "bool": bool, "str": str}[item]
    if isinstance(value, list) == (item != kind) and all(
            isinstance(v, json_type) and isinstance(v, bool) == (item == "bool") for v in items):
        return value
    raise ValueError(f"config file {path}: {name} must be {kind}, got {value!r}")


def _read_config(path: str) -> dict:
    """Config file `path` keyed by option dest, each value checked by `_checked`. A key no
    subcommand reads from a file is an error; a top-level null is no value."""
    raw = files.read_json(path, "config file")
    unknown = sorted(key for key in raw if _field(key) not in _FILE_KINDS)
    if unknown:
        raise ValueError(f"config file {path}: keys no subcommand reads from a file: {unknown}")
    return {_field(key): _checked(_FILE_KINDS[_field(key)], key, value, path)
            for key, value in raw.items()
            if value is not None or is_dataclass(_FILE_KINDS[_field(key)])}


def _values(args: argparse.Namespace, file_cfg: dict, owner=None, block: str | None = None):
    """What the options of `args`' subcommand give the fields of dataclass `owner` (None: the
    values the command reads itself), by name. Each takes the first value found: the flag,
    the config file's `block`, its top level, the option's default. A name that none of them
    sets is absent, so a dataclass or `synth_traffic` default applies."""
    layers = {}, {}, {}
    for option in args.options:
        names = [name for target, name in option.targets if target is owner]
        given = option.default, file_cfg.get(option.dest), getattr(args, option.dest)
        for layer, value in zip(layers, given):
            if value is not None and value is not False:  # False: a switch left off
                layer.update(dict.fromkeys(names, value if option.switch is None else option.switch))
    default, top, flags = layers
    return {**default, **top, **file_cfg.get(block, {}), **flags}


def _resolve(cls, args: argparse.Namespace, file_cfg: dict, block: str | None = None, **fixed):
    """Build dataclass `cls` from `_values`. `fixed` values (sizes read from the data) bypass
    resolution. An unknown key in the block reaches `cls(...)` and fails there, naming it."""
    return cls(**{**_values(args, file_cfg, cls, block), **fixed})


def _seed_list(value) -> list[int]:
    """--seeds: a comma-separated string, an integer or a list of integers."""
    if isinstance(value, str):
        value = [s for s in value.split(",") if s.strip()]
    seeds = []
    for item in value if isinstance(value, list) else [value]:
        try:
            if type(item) not in (int, str):  # neither a bool nor a float is a seed
                raise ValueError
            seeds.append(int(item))
        except ValueError:
            raise argparse.ArgumentTypeError(f"seed {item!r} is not an integer") from None
    return seeds


def _checkpoint_stem(path: str | Path) -> Path:
    stem = Path(path)
    if stem.suffix in (".json", ".bin"):
        stem = stem.with_suffix("")
    if stem.is_dir():
        stem = stem / "checkpoint"
    return stem


def _load_trained(checkpoint: str | Path) -> tuple[RadNet, Normalizer, dict]:
    stem = _checkpoint_stem(checkpoint)
    model, manifest = RadNet.load(stem)
    hyper = manifest["hyperparameters"]
    where = f"checkpoint manifest {stem.with_suffix('.json')}"
    if "normalizer" not in hyper:
        raise FormatError(f"{where} has no hyperparameters.normalizer; `radnet train` writes one")
    raw, width = hyper["normalizer"], model.config.n_features
    for field in ("mean", "std"):
        value = raw.get(field) if isinstance(raw, dict) else None
        if not (isinstance(value, list) and len(value) == width and all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)):
            raise FormatError(f"{where}: hyperparameters.normalizer.{field} must be a list of "
                              f"{width} numbers, got {value!r}")
    return model, Normalizer.from_dict(raw), hyper


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args, file_cfg) -> int:
    given = _values(args, file_cfg)  # --out and the synth_traffic parameters set
    out = Path(given.pop("out"))
    series, graph, mask = synth_traffic(incidents=_resolve(IncidentSpec, args, file_cfg), **given)
    save_dataset(out, series, graph)
    files.write_csv(out / "incidents.csv", ["timestep", "link_id"], np.argwhere(mask))
    print(f"wrote {series.n_steps} steps x {series.n_nodes} nodes to {out}")
    return 0


def cmd_stats(args, file_cfg) -> int:
    series, graph, _ = load_dataset(args.data)
    summary = stats(series, graph)
    print(stats_text(summary))
    out = _values(args, file_cfg).get("out")
    if out:
        files.write_json(out, summary)
    return 0


def cmd_train(args, file_cfg) -> int:
    given = _values(args, file_cfg)
    series, graph, _ = load_dataset(args.data)
    out, test_fraction = Path(given["out"]), given["test_fraction"]
    model = RadNet(_resolve(RadNetConfig, args, file_cfg,
                            n_nodes=series.n_nodes, n_features=series.n_features))
    tc = _resolve(TrainConfig, args, file_cfg, "train")
    train_ts, _ = split_train_test(series.n_steps, test_fraction)
    result = train(model, series, graph, tc, timesteps=train_ts)
    write_loss_csv(out / "loss_curves.csv", result.history)
    model.save(
        out / "checkpoint",
        extra_hyperparameters={
            "normalizer": result.normalizer.to_dict(),
            "train": asdict(tc),
            "test_fraction": test_fraction,
            "best_epoch": result.best_epoch,
            "best_val_loss": result.best_val_loss,
            "best_val_mse": result.best_val_mse,
        },
    )
    files.write_json(out / "config.json", {"model": asdict(model.config), "train": asdict(tc),
                                           "test_fraction": test_fraction})
    print(
        f"trained {model.config.variant} to epoch {result.stopped_epoch} "
        f"(best {result.best_epoch}, val loss {result.best_val_loss:.5f}, "
        f"stopped by {result.stopped_by}); "
        f"checkpoint at {out / 'checkpoint'}"
    )
    return 0


def _trained_split(args, file_cfg):
    """Dataset, trained model and normalizer, and the checkpoint's train/test split."""
    series, graph, _ = load_dataset(args.data)
    model, normalizer, hyper = _load_trained(args.checkpoint)
    test_fraction = _values(args, file_cfg).get("test_fraction",
                                                hyper.get("test_fraction", TEST_FRACTION))
    train_ts, test_ts = split_train_test(series.n_steps, test_fraction)
    return series, graph, model, normalizer, train_ts, test_ts


def _detection_run(args, file_cfg):
    """A detection run, and the series, graph, model and normalizer it came from."""
    series, graph, model, normalizer, train_ts, test_ts = _trained_split(args, file_cfg)
    pot = _resolve(PotConfig, args, file_cfg, "pot")
    run = run_detection(model, series, graph, normalizer, pot, train_ts, test_ts)
    return run, (series, graph, model, normalizer)


def cmd_forecast(args, file_cfg) -> int:
    series, graph, model, normalizer, _, test_ts = _trained_split(args, file_cfg)
    target_ts = test_ts[test_ts >= model.config.horizon]
    predictions = pipeline.forecast_series(model, series, graph, normalizer, target_ts)
    out = Path(_values(args, file_cfg)["out"])
    forecast_series_obj = data_io.FeatureSeries(
        data=predictions,
        start_epoch=series.epoch(int(target_ts[0])),
        delta_seconds=series.delta_seconds,
        feature_names=series.feature_names,
        name=f"{series.name}-forecast-h{model.config.horizon}",
    )
    save_dataset(out, forecast_series_obj, graph)
    files.write_json(out / "targets.json", {"target_timesteps": [int(t) for t in target_ts]},
                     indent=None)
    print(f"wrote {len(target_ts)} forecasts to {out}")
    return 0


def cmd_detect(args, file_cfg) -> int:
    run, _ = _detection_run(args, file_cfg)
    out = Path(_values(args, file_cfg)["out"])
    run.predicted.to_csv(out / "labels_pred.csv")
    run.truth.to_csv(out / "labels_truth.csv")
    print(
        f"labeled {len(run.truth.timesteps)} steps: "
        f"{int(run.predicted.network_labels.sum())} predicted / "
        f"{int(run.truth.network_labels.sum())} true incidents -> {out}; "
        f"{run.baseline.fallback_count} baseline fallbacks"
    )
    return 0


def cmd_evaluate(args, file_cfg) -> int:
    given, detect_dir = _values(args, file_cfg), Path(args.detect)
    predicted = IncidentLabels.from_csv(detect_dir / "labels_pred.csv", given["horizon"])
    truth = IncidentLabels.from_csv(detect_dir / "labels_truth.csv", given["horizon"])
    report = evaluate(predicted, truth)
    out = Path(given.get("out", detect_dir))
    report.to_json(out / "report.json")
    table = report.to_table("radnet")
    files.write_text(out / "report.txt", table + "\n")
    print(table)
    return 0


def cmd_ablate(args, file_cfg) -> int:
    given = _values(args, file_cfg)
    series, graph, _ = load_dataset(args.data)
    rows = pipeline.ablate(
        series, graph,
        _resolve(RadNetConfig, args, file_cfg, n_nodes=series.n_nodes, n_features=series.n_features),
        _resolve(TrainConfig, args, file_cfg, "train"),
        _resolve(PotConfig, args, file_cfg, "pot"),
        given["seeds"],
        given["test_fraction"],
    )
    out = Path(given["out"])
    metrics = ["val_mse", "f1", "hitrate_100"]
    files.write_csv(out / "ablation.csv", ["variant", "seed", *metrics],
                    ([row["variant"], row["seed"], *(f"{row[m]:.10g}" for m in metrics)]
                     for row in rows))
    lines = [f"{'variant':10s} {'val_mse':>10s} {'f1':>7s} {'h@100':>7s}"]
    for variant in VARIANTS:
        sub = [r for r in rows if r["variant"] == variant]
        lines.append(
            f"{variant:10s} {np.mean([r['val_mse'] for r in sub]):10.5f} "
            f"{np.mean([r['f1'] for r in sub]):7.3f} "
            f"{np.mean([r['hitrate_100'] for r in sub]):7.3f}"
        )
    table = "\n".join(lines)
    files.write_text(out / "ablation.txt", table + "\n")
    print(table)
    return 0


def cmd_report(args, file_cfg) -> int:
    run, (series, graph, model, normalizer) = _detection_run(args, file_cfg)
    # a run keeps no forecasts, so forecast its targets again
    predictions = pipeline.forecast_series(model, series, graph, normalizer, run.truth.timesteps)
    out = Path(_values(args, file_cfg)["out"])
    write_report_csv(out / "series_report.csv", run, series, predictions)
    print(f"wrote per-link series report to {out / 'series_report.csv'}")
    return 0


# ---------------------------------------------------------------------------
# option tables


class Option(NamedTuple):
    """A flag and its targets, (owner, name) pairs: the owner is a config dataclass whose
    field `name` the flag sets, or None for a value the command reads itself. `kind` is the
    type: "int", "float", "str", "bool" or a parse function. A `switch` takes no argument
    and sets its targets to that value. A required flag is always given, so no file holds it."""

    flag: str
    kind: object
    targets: tuple
    default: object = None
    help: str | None = None
    choices: tuple | None = None
    switch: object = None
    required: bool = False

    @property
    def dest(self) -> str:
        return _field(self.flag[2:])


def _sets(flag: str, *targets, **kw) -> Option:
    """An option setting dataclass fields or `synth_traffic` parameters (which the command
    passes on itself), typed by the first target's annotation."""
    kind = inspect.signature(targets[0][0]).parameters[targets[0][1]].annotation
    return Option(flag, kind, tuple((o if is_dataclass(o) else None, n) for o, n in targets), **kw)


def _plain(flag: str, kind="str", default=None, **kw) -> Option:
    """An option the command reads itself, under its dest."""
    return Option(flag, kind, ((None, _field(flag[2:])),), default, **kw)


def _out(default: str | None) -> Option:
    return _plain("--out", default=default, help="output directory")


_DATA = _plain("--data", required=True)
# --test-fraction defaults to the trained checkpoint's
_TRAINED = (_DATA, _plain("--checkpoint", required=True), _plain("--test-fraction", "float"))
_TRAIN = (
    _sets("--window", (RadNetConfig, "window")),
    _sets("--horizon", (RadNetConfig, "horizon")),
    _sets("--variant", (RadNetConfig, "variant"), choices=VARIANTS),
    _sets("--lr", (TrainConfig, "lr")),
    _sets("--weight-decay", (TrainConfig, "weight_decay")),
    _sets("--max-epochs", (TrainConfig, "max_epochs")),
    _sets("--patience", (TrainConfig, "patience")),
    _sets("--folds", (TrainConfig, "folds")),
    _sets("--batch", (TrainConfig, "batch")),
    _plain("--test-fraction", "float", TEST_FRACTION),
)
_POT = (
    _sets("--percentile", (PotConfig, "percentile")),
    _sets("--risk-q", (PotConfig, "risk_q")),
    _sets("--delta-per-horizon", (PotConfig, "delta_per_horizon")),
    _sets("--horizon-index", (PotConfig, "horizon_index")),
    _sets("--refit-every", (PotConfig, "refit_every")),
    _sets("--static", (PotConfig, "dynamic"), switch=False, help="hold thresholds fixed"),
)
# subcommand: (help, options in --help order)
COMMANDS = {
    "synth": ("generate a synthetic dataset", (
        _out("synth-data"),
        _sets("--seed", (synth_traffic, "seed")),
        _sets("--nodes", (synth_traffic, "n_nodes")),
        _sets("--days", (synth_traffic, "days")),
        _sets("--delta", (synth_traffic, "delta_seconds")),
        _sets("--features", (synth_traffic, "n_features")),
        _sets("--events", (IncidentSpec, "count")),
        _sets("--depth", (IncidentSpec, "depth")),
        _sets("--duration", (IncidentSpec, "duration")),
        _sets("--min-start", (IncidentSpec, "min_start")),
        _sets("--noise", (synth_traffic, "noise")),
        _sets("--weekend-factor", (synth_traffic, "weekend_factor")),
    )),
    "stats": ("dataset summary", (_out(None), _DATA)),
    "train": ("fit a forecaster", (
        _out("train-out"), _sets("--seed", (RadNetConfig, "seed"), (TrainConfig, "seed")),
        _DATA, *_TRAIN,
    )),
    "forecast": ("emit forecasts for the test range", (_out("forecast-out"), *_TRAINED)),
    "detect": ("label incidents over the test range", (_out("detect-out"), *_TRAINED, *_POT)),
    "evaluate": ("score predicted labels against truth", (
        _out(None),  # default: the --detect directory
        _plain("--detect", required=True, help="directory from the detect step"),
        _plain("--horizon", "int", RadNetConfig.horizon),
    )),
    "ablate": ("train and score every model variant", (
        _out("ablate-out"), _DATA,
        _plain("--seeds", _seed_list, (0, 1, 2), help="comma-separated seed list"),
        *_TRAIN, *_POT,
    )),
    "report": ("per-link plot-ready time series", (_out("report-out"), *_TRAINED, *_POT)),
}
# what a config file's top level may hold
_FILE_KINDS = {option.dest: option.kind for _, options in COMMANDS.values()
               for option in options if not option.required} | {"train": TrainConfig, "pot": PotConfig}
_ARG_TYPES = {"int": int, "float": float, "str": None}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radnet",
        description="Spatio-temporal traffic forecasting and incident prediction",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options) in COMMANDS.items():
        # no abbreviations on ablate, so that --seed is refused rather than read as --seeds
        p = sub.add_parser(name, help=help_text, allow_abbrev=name != "ablate")
        p.add_argument("--config", help="JSON config file; flags override it")
        for option in options:
            if option.switch is None:
                p.add_argument(option.flag, type=_ARG_TYPES.get(option.kind, option.kind),
                               choices=option.choices, required=option.required, help=option.help)
            else:
                p.add_argument(option.flag, action="store_true", help=option.help)
        # looked up per call, so that a rebound cmd_* (a test's patch, perfbench's tracing
        # wrapper) is the one run
        p.set_defaults(func=globals()[f"cmd_{name}"], options=options)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("RADNET_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, _read_config(args.config) if args.config else {})
    except Exception as exc:  # noqa: BLE001 - single CLI failure boundary
        print(f"error: {exc}", file=sys.stderr)
        log.debug("traceback", exc_info=True)
        return 1


if __name__ == "__main__":
    sys.exit(main())
