"""Batch command line: synth, stats, train, forecast, detect, evaluate,
ablate, report.

A JSON config file passed with --config may hold any long-option name of
any subcommand (dashes or underscores), so one file can serve both `train`
and `detect`, plus nested `train` and `pot` blocks, whose keys are
TrainConfig and PotConfig field names. Each field of
RadNetConfig, TrainConfig, PotConfig and IncidentSpec takes the first value
found in this order:

1. the subcommand's flag (--static sets `dynamic` to false);
2. the `train` / `pot` block of the config file;
3. the config file's top level, for names that are long options of the
   subcommand;
4. the dataclass default, which is the only place defaults are written.

Other options resolve as flag > config file top level > default. A top-level
key that no subcommand takes, or an unknown key in a `train` / `pot` block,
is an error. RADNET_LOG sets the log level.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

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


def _pick(args: argparse.Namespace, file_cfg: dict, key: str, default):
    """flag > config file > default. A file value must have the type its option
    declares (`--seeds`: what `_seed_list` takes), or the error names key and file."""
    flag, value = (_options(source, args).get(key) for source in (vars(args), file_cfg))
    if flag is not None or value is None:
        return default if flag is None else flag
    kind = args.kinds[key]
    if kind in (int, float, str):
        if _fits(kind.__name__, value):
            return value
        raise ValueError(f"config file {args.config}: {key} must be {kind.__name__}, got {value!r}")
    try:
        return kind(value)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"config file {args.config}: {key}: {exc}") from None


def _field(key: str) -> str:
    """A config-file key as an option dest or field name: dashes become underscores."""
    return key.replace("-", "_")


def _options(raw: dict, args: argparse.Namespace) -> dict:
    """Values in `raw` of long options of `args`' subcommand, as field names."""
    values = {
        _field(key): value
        for key, value in raw.items()
        if _field(key) in vars(args) and value is not None
    }
    if values.pop("static", False):
        values["dynamic"] = False
    return values


def _fits(kind: str, value) -> bool:
    """Whether a JSON value has the type of a config field annotated `kind`."""
    if kind.endswith(" | None"):
        return value is None or _fits(kind.removesuffix(" | None"), value)
    if kind.startswith("tuple["):  # a JSON array of the first item type
        item = kind.removeprefix("tuple[").split(",")[0].strip(" ]")
        return isinstance(value, list) and all(_fits(item, v) for v in value)
    if isinstance(value, bool):  # a JSON true is no number
        return kind == "bool"
    return isinstance(value, {"int": int, "float": (int, float), "bool": bool, "str": str}[kind])


def _resolve(cls, args: argparse.Namespace, file_cfg: dict, block: str | None = None, **fixed):
    """Build dataclass `cls`: flag > file block > file top level > field default.

    `fixed` values bypass resolution: sizes read from the data, or options
    stored under another name (--events is IncidentSpec.count). A block that
    is no JSON object, or a file value of the wrong JSON type, is an error
    naming the key and the file. Unknown keys in the block reach `cls(...)`
    and fail there, naming the key.
    """
    kinds = {f.name: f.type for f in fields(cls)}
    values = {k: v for k, v in _options(file_cfg, args).items() if k in kinds}
    if block:
        given = file_cfg.get(block, {})
        if not isinstance(given, dict):
            raise ValueError(f"config file {args.config}: {block} must be an object, got {given!r}")
        values.update({_field(k): v for k, v in given.items()})
    for key, value in values.items():
        if key in kinds and not _fits(kinds[key], value):
            raise ValueError(
                f"config file {args.config}: {key} must be {kinds[key]}, got {value!r}"
            )
    values.update({k: v for k, v in _options(vars(args), args).items() if k in kinds})
    return cls(**{**values, **fixed})


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
    out = Path(_pick(args, file_cfg, "out", "synth-data"))
    events = _pick(args, file_cfg, "events", IncidentSpec.count)
    spec = _resolve(IncidentSpec, args, file_cfg, count=events) if events > 0 else None
    # Options left unset keep synth_traffic's own defaults.
    given = {param: value for param, key in (("n_nodes", "nodes"), ("days", "days"),
                                             ("delta_seconds", "delta"), ("n_features", "features"),
                                             ("seed", "seed"), ("noise", "noise"),
                                             ("weekend_factor", "weekend_factor"))
             if (value := _pick(args, file_cfg, key, None)) is not None}
    series, graph, mask = synth_traffic(incidents=spec, **given)
    save_dataset(out, series, graph)
    files.write_csv(out / "incidents.csv", ["timestep", "link_id"], np.argwhere(mask))
    print(f"wrote {series.n_steps} steps x {series.n_nodes} nodes to {out}")
    return 0


def cmd_stats(args, file_cfg) -> int:
    series, graph, _ = load_dataset(_pick(args, file_cfg, "data", None))
    summary = stats(series, graph)
    print(stats_text(summary))
    out = _pick(args, file_cfg, "out", None)
    if out:
        files.write_json(out, summary)
    return 0


def cmd_train(args, file_cfg) -> int:
    series, graph, _ = load_dataset(_pick(args, file_cfg, "data", None))
    out = Path(_pick(args, file_cfg, "out", "train-out"))
    test_fraction = _pick(args, file_cfg, "test_fraction", TEST_FRACTION)
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
    series, graph, _ = load_dataset(_pick(args, file_cfg, "data", None))
    model, normalizer, hyper = _load_trained(_pick(args, file_cfg, "checkpoint", None))
    test_fraction = _pick(args, file_cfg, "test_fraction",
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
    out = Path(_pick(args, file_cfg, "out", "forecast-out"))
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
    out = Path(_pick(args, file_cfg, "out", "detect-out"))
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
    detect_dir = Path(_pick(args, file_cfg, "detect", None))
    horizon = _pick(args, file_cfg, "horizon", RadNetConfig.horizon)
    predicted = IncidentLabels.from_csv(detect_dir / "labels_pred.csv", horizon)
    truth = IncidentLabels.from_csv(detect_dir / "labels_truth.csv", horizon)
    report = evaluate(predicted, truth)
    out = Path(_pick(args, file_cfg, "out", detect_dir))
    report.to_json(out / "report.json")
    table = report.to_table("radnet")
    files.write_text(out / "report.txt", table + "\n")
    print(table)
    return 0


def cmd_ablate(args, file_cfg) -> int:
    series, graph, _ = load_dataset(_pick(args, file_cfg, "data", None))
    rows = pipeline.ablate(
        series, graph,
        _resolve(RadNetConfig, args, file_cfg, n_nodes=series.n_nodes, n_features=series.n_features),
        _resolve(TrainConfig, args, file_cfg, "train"),
        _resolve(PotConfig, args, file_cfg, "pot"),
        _pick(args, file_cfg, "seeds", [0, 1, 2]),
        _pick(args, file_cfg, "test_fraction", TEST_FRACTION),
    )
    out = Path(_pick(args, file_cfg, "out", "ablate-out"))
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
    out = Path(_pick(args, file_cfg, "out", "report-out"))
    write_report_csv(out / "series_report.csv", run, series, predictions)
    print(f"wrote per-link series report to {out / 'series_report.csv'}")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--out", help="output directory")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--window", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--lr", type=float)
    p.add_argument("--weight-decay", dest="weight_decay", type=float)
    p.add_argument("--max-epochs", dest="max_epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--folds", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--test-fraction", dest="test_fraction", type=float)


def _add_pot_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--percentile", type=float)
    p.add_argument("--risk-q", dest="risk_q", type=float)
    p.add_argument("--delta-per-horizon", dest="delta_per_horizon", type=float)
    p.add_argument("--horizon-index", dest="horizon_index", type=int)
    p.add_argument("--refit-every", dest="refit_every", type=int)
    p.add_argument("--static", action="store_true", help="hold thresholds fixed")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser keeping each argument's type by dest (str if none, bool for a switch)."""

    def __init__(self, *args, **kwargs):
        self.kinds: dict = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.kinds[action.dest] = action.type or (bool if action.nargs == 0 else str)
        return action


def build_parser() -> _Parser:
    parser = _Parser(
        prog="radnet",
        description="Spatio-temporal traffic forecasting and incident prediction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    _add_common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--nodes", type=int)
    p.add_argument("--days", type=int)
    p.add_argument("--delta", type=int)
    p.add_argument("--features", type=int)
    p.add_argument("--events", type=int)
    p.add_argument("--depth", type=float)
    p.add_argument("--duration", type=int)
    p.add_argument("--min-start", dest="min_start", type=int)
    p.add_argument("--noise", type=float)
    p.add_argument("--weekend-factor", dest="weekend_factor", type=float)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("stats", help="dataset summary")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train", help="fit a forecaster")
    _add_common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--data", required=True)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("forecast", help="emit forecasts for the test range")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test-fraction", dest="test_fraction", type=float)
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("detect", help="label incidents over the test range")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test-fraction", dest="test_fraction", type=float)
    _add_pot_flags(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("evaluate", help="score predicted labels against truth")
    _add_common(p)
    p.add_argument("--detect", required=True, help="directory from the detect step")
    p.add_argument("--horizon", type=int)
    p.set_defaults(func=cmd_evaluate)

    # no abbreviations, so that --seed is refused rather than read as --seeds
    p = sub.add_parser("ablate", help="train and score every model variant", allow_abbrev=False)
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--seeds", type=_seed_list, help="comma-separated seed list")
    _add_train_flags(p)
    _add_pot_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("report", help="per-link plot-ready time series")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test-fraction", dest="test_fraction", type=float)
    _add_pot_flags(p)
    p.set_defaults(func=cmd_report)

    for p in sub.choices.values():
        p.set_defaults(kinds=p.kinds)
    # a config file's top level may hold any subcommand's option and the two blocks
    parser.config_keys = {"train", "pot"}.union(*(p.kinds for p in sub.choices.values()))
    return parser


def main(argv=None) -> int:
    level = os.environ.get("RADNET_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        file_cfg = files.read_json(args.config, "config file") if args.config else {}
        unknown = sorted(k for k in file_cfg if _field(k) not in parser.config_keys)
        if unknown:
            raise ValueError(f"config file {args.config} has keys no subcommand takes: {unknown}")
        return args.func(args, file_cfg)
    except Exception as exc:  # noqa: BLE001 - single CLI failure boundary
        print(f"error: {exc}", file=sys.stderr)
        log.debug("traceback", exc_info=True)
        return 1


if __name__ == "__main__":
    sys.exit(main())
