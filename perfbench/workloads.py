"""The benchmark's three workloads, driven through radnet's public API.

Every call into radnet goes through a module attribute looked up at call
time (`training.train`, not a name imported once), so the wrappers that
`tracer.instrument` installs see it. A workload has a set-up (repeated by the
runner to time it), one closed-loop operation, and checks on its outputs
that run after the timed and traced part.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from radnet import cli, data, evaluation, incidents, pipeline, training
from radnet import model as radnet_model
from radnet.model import RadNet, RadNetConfig
from radnet.tensor import no_grad
from tracer import Clock

# Bindings every workload fires: its set-up synthesizes data, and every
# workload trains the dual-path forecaster.
MODEL_BINDINGS = frozenset({
    "radnet.data.synth_traffic",
    "radnet.training.split_folds",
    "radnet.training.build_window",
    "radnet.model.RadNet.forward_batch",
    "radnet.graph.GatLayer.__call__",
    "radnet.temporal.TransformerBlock.__call__",
    "radnet.temporal.MultiHeadAttention.__call__",
    "radnet.nn.Linear.__call__",
    "radnet.nn.LayerNorm.__call__",
    "radnet.nn.FeedForward.__call__",
    "radnet.tensor.DiffArray.backward",
    "radnet.optim.AdamW.step",
})

DETECTION_BINDINGS = frozenset({
    "radnet.pipeline.build_baseline",
    "radnet.pipeline.residual_scores",
    "radnet.pipeline.pot_fit",
    "radnet.pipeline.label",
    "radnet.pipeline.build_window",
    "radnet.pipeline.forecast_series",
    "radnet.pipeline.fit_threshold_states",
    "radnet.pipeline.generate_ground_truth",
    "radnet.pipeline.label_predictions",
    "radnet.incidents.gpd_fit",
    "radnet.incidents.BaselineTable.lookup",
})


def digest(*arrays) -> str:
    """Short content hash of arrays, shapes and dtypes included."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.shape}{a.dtype}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def labels_digest(bundle: incidents.IncidentLabels) -> str:
    return digest(bundle.timesteps, bundle.network_labels, bundle.link_labels)


def steps_per_epoch(n_steps: int, model_cfg: RadNetConfig, train_cfg: training.TrainConfig,
                    fold_index: int) -> int:
    """Optimizer steps `train` takes per epoch on an `n_steps` training range."""
    folds = training.split_folds(n_steps, train_cfg.folds, model_cfg.window, model_cfg.horizon)
    return math.ceil(len(folds[fold_index].train_samples) / train_cfg.batch)


def validation_mse(model: RadNet, series, graph, train_ts, train_cfg, result) -> float:
    """Mean squared error of `model` on the validation fold `train` used."""
    cfg = model.config
    local = result.normalizer.transform(series.data[train_ts])
    folds = training.split_folds(len(train_ts), train_cfg.folds, cfg.window, cfg.horizon)
    samples = folds[result.fold_index].val_samples
    windows = np.stack([radnet_model.build_window(local, int(t), cfg.window) for t in samples])
    with no_grad():
        preds, _ = model.forward_batch(windows, graph)
    diff = preds.values - local[samples + cfg.horizon]
    return float((diff * diff).mean())


@dataclass
class Op:
    """What one closed-loop operation returns."""

    seconds: float  # the operation's CPU time: op_s
    wall: float  # the operation's wall time
    outputs: dict[str, Any]  # compared bit for bit between traced and untraced runs
    stable: dict[str, Any]  # must repeat in every operation and every run of a seed
    detail: Any = None  # kept for the figures and checks


class Workload:
    name = ""
    setup_repeats = 1
    bindings: frozenset[str] = frozenset()

    def setup(self, seed: int) -> dict:
        raise NotImplementedError

    def op(self, ctx: dict, workdir: Path) -> Op:
        raise NotImplementedError

    def checks(self, ctx: dict, ops: list[Op]) -> list[tuple[str, bool]]:
        raise NotImplementedError

    # Figures call radnet for bookkeeping, so they are computed untraced.
    # `scale` turns CPU seconds into seconds at the reference host speed.
    def figures(self, ctx: dict, op: Op, scale: float) -> dict[str, tuple[float, str]]:
        raise NotImplementedError

    def setup_figures(self, ctx: dict, scale: float) -> dict[str, tuple[float, str]]:
        return {}


class TrainRadset(Workload):
    name = "train-radset"
    setup_repeats = 25
    bindings = MODEL_BINDINGS | {"radnet.training.train"}
    nodes, features, days, epochs = 16, 7, 8, 1

    def setup(self, seed):
        series, graph, _ = data.synth_traffic(self.nodes, self.days, n_features=self.features,
                                              seed=seed)
        config = RadNetConfig(n_nodes=self.nodes, n_features=self.features, seed=seed)
        train_ts, _ = pipeline.split_train_test(series.n_steps)
        return {"series": series, "graph": graph, "config": config, "train_ts": train_ts,
                "untrained": RadNet(config),
                "train_cfg": training.TrainConfig(max_epochs=self.epochs,
                                                  patience=self.epochs, seed=seed)}

    def op(self, ctx, workdir):
        model = RadNet(ctx["config"])
        with Clock() as clock:
            result = training.train(model, ctx["series"], ctx["graph"], ctx["train_cfg"],
                                    timesteps=ctx["train_ts"])
        losses = np.array([h[1:] for h in result.history])
        return Op(
            seconds=clock.cpu,
            wall=clock.wall,
            outputs={"val_mse": result.best_val_mse, "losses": digest(losses)},
            stable={"epochs": len(result.history)},
            detail=result,
        )

    def figures(self, ctx, op, scale):
        steps = op.stable["epochs"] * steps_per_epoch(
            len(ctx["train_ts"]), ctx["config"], ctx["train_cfg"], op.detail.fold_index)
        return {"train_steps_per_s": (steps / (op.seconds * scale), "1/s"),
                "val_mse": (op.detail.best_val_mse, "1")}

    def checks(self, ctx, ops):
        untrained = validation_mse(ctx["untrained"], ctx["series"], ctx["graph"],
                                   ctx["train_ts"], ctx["train_cfg"], ops[0].detail)
        return [
            ("losses_finite", all(np.isfinite(np.array(op.detail.history)).all() for op in ops)),
            ("fixed_epochs", all(op.stable["epochs"] == self.epochs for op in ops)),
            ("val_mse_below_untrained", all(op.detail.best_val_mse < untrained for op in ops)),
        ]


class Detect64(Workload):
    name = "detect-64"
    setup_repeats = 2
    bindings = MODEL_BINDINGS | DETECTION_BINDINGS | {"radnet.training.train",
                                                      "radnet.evaluation.evaluate"}
    nodes, days, incidents_per_link, train_days = 64, 28, 3, 7
    pot = pipeline.PotConfig(percentile=98.0, risk_q=1e-2)

    def setup(self, seed):
        series, graph, _ = data.synth_traffic(
            self.nodes, self.days,
            incidents=data.IncidentSpec(count=self.incidents_per_link * self.nodes), seed=seed)
        train_ts, test_ts = pipeline.split_train_test(series.n_steps)
        model = RadNet(RadNetConfig(n_nodes=self.nodes, n_features=1, seed=seed))
        # One epoch over the last week of the training split: at seed 0 the
        # whole split gives the same F1 (0.787) at three times the set-up time.
        steps_per_day = data.SECONDS_PER_DAY // series.delta_seconds
        fit_ts = train_ts[-self.train_days * steps_per_day:]
        train_cfg = training.TrainConfig(max_epochs=1, patience=1, lr=2e-3, seed=seed)
        with Clock() as clock:
            result = training.train(model, series, graph, train_cfg, timesteps=fit_ts)
        return {"series": series, "graph": graph, "model": model, "result": result,
                "train_ts": train_ts, "test_ts": test_ts, "fit_ts": fit_ts,
                "train_cfg": train_cfg, "train_s": clock.cpu}

    def setup_figures(self, ctx, scale):
        steps = len(ctx["result"].history) * steps_per_epoch(
            len(ctx["fit_ts"]), ctx["model"].config, ctx["train_cfg"], ctx["result"].fold_index)
        return {"train_steps_per_s": (steps / (ctx["train_s"] * scale), "1/s"),
                "val_mse": (ctx["result"].best_val_mse, "1")}

    def op(self, ctx, workdir):
        with Clock() as total:
            with Clock() as detect:
                run = pipeline.run_detection(ctx["model"], ctx["series"], ctx["graph"],
                                             ctx["result"].normalizer, self.pot,
                                             ctx["train_ts"], ctx["test_ts"])
            report = evaluation.evaluate(run.predicted, run.truth)
        truth, predicted = labels_digest(run.truth), labels_digest(run.predicted)
        return Op(
            seconds=total.cpu,
            wall=total.wall,
            outputs={"val_mse": ctx["result"].best_val_mse, "f1": report.f1,
                     "hitrate_100": report.hitrate[100], "truth": truth,
                     "predicted": predicted},
            stable={"truth": truth},
            detail=(run, detect),
        )

    def figures(self, ctx, op, scale):
        _, detect = op.detail
        return {"detect_s": (detect.cpu * scale, "s"), "detect_wall_s": (detect.wall, "s"),
                "f1": (op.outputs["f1"], "1"), "hitrate_100": (op.outputs["hitrate_100"], "1")}

    def checks(self, ctx, ops):
        series = ctx["series"]
        calib = ctx["train_ts"]
        out = []
        for op in ops:
            run, _ = op.detail
            scores = incidents.residual_scores(run.baseline.for_series(series, calib),
                                               series.data[calib])
            pct = self.pot.effective_percentile
            u_net = np.percentile(scores.network, pct)
            u_link = np.percentile(scores.per_link, pct, axis=0)
            labels_ok = thresholds_ok = True
            for bundle in (run.truth, run.predicted):
                labels_ok &= bool(
                    (bundle.network_labels == (bundle.network_scores >= bundle.network_thresholds)).all()
                    and (bundle.link_labels == (bundle.link_scores >= bundle.link_thresholds)).all())
                thresholds_ok &= bool(
                    np.isfinite(bundle.network_thresholds).all()
                    and np.isfinite(bundle.link_thresholds).all()
                    and (bundle.network_thresholds >= u_net).all()
                    and (bundle.link_thresholds >= u_link[None, :]).all())
            out += [("labels_match_thresholds", labels_ok),
                    ("thresholds_finite_and_above_u", thresholds_ok)]
        return out


class PipelineC07(Workload):
    name = "pipeline-c07"
    setup_repeats = 25
    bindings = (MODEL_BINDINGS | DETECTION_BINDINGS | {
        "radnet.cli.synth_traffic", "radnet.cli.save_dataset", "radnet.cli.load_dataset",
        "radnet.cli.train", "radnet.cli.evaluate",
        "radnet.cli.cmd_synth", "radnet.cli.cmd_train", "radnet.cli.cmd_detect",
        "radnet.cli.cmd_evaluate",
        "radnet.model.save_checkpoint", "radnet.model.load_checkpoint",
        "radnet.incidents.IncidentLabels.to_csv", "radnet.incidents.IncidentLabels.from_csv",
    })
    # The acceptance criterion C07 fixes the data and training seed, and its
    # F1 / HitRate@100 floors are promised for that run only (other seeds of
    # this 4-node, 14-day set reach F1 0.49-0.91), so --seed does not change it.
    seed = 42
    synth = dict(nodes=4, days=14, delta=300, events=20, depth=0.5, duration=6,
                 min_start=300, noise=0.03)
    train_flags = ("--lr", "5e-4", "--max-epochs", "30", "--patience", "6")
    f1_floor, hitrate_floor = 0.7, 0.6

    def setup(self, seed):
        s = self.synth
        series, graph, _ = data.synth_traffic(
            s["nodes"], s["days"], delta_seconds=s["delta"],
            incidents=data.IncidentSpec(count=s["events"], depth=s["depth"],
                                        duration=s["duration"], min_start=s["min_start"]),
            seed=self.seed, noise=s["noise"])
        model = RadNet(RadNetConfig(n_nodes=series.n_nodes, n_features=series.n_features,
                                    seed=self.seed))
        return {"series": series, "graph": graph, "config": model.config}

    def commands(self, workdir: Path) -> list[tuple[str, list[str]]]:
        ds, run, det = str(workdir / "ds"), str(workdir / "run"), str(workdir / "det")
        synth = [f"--{k.replace('_', '-')}={v}" for k, v in self.synth.items()]
        return [
            ("synth", ["synth", "--out", ds, "--seed", str(self.seed), *synth]),
            ("train", ["train", "--data", ds, "--out", run, "--seed", str(self.seed),
                       *self.train_flags]),
            ("detect", ["detect", "--data", ds, "--checkpoint", f"{run}/checkpoint", "--out", det,
                        "--percentile", "98", "--risk-q", "1e-2"]),
            ("evaluate", ["evaluate", "--detect", det, "--out", det]),
        ]

    def op(self, ctx, workdir):
        clocks = {}
        with Clock() as total:
            for name, argv in self.commands(workdir):
                with Clock() as clocks[name], contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                if code != 0:
                    raise RuntimeError(f"radnet {name} exited with {code}")

        report = json.loads((workdir / "det" / "report.json").read_text())
        hyper = json.loads((workdir / "run" / "checkpoint.json").read_text())["hyperparameters"]
        with open(workdir / "run" / "loss_curves.csv", newline="") as fh:
            epochs = sum(1 for _ in csv.DictReader(fh))
        files = {name: hashlib.sha256((workdir / "det" / f"labels_{name}.csv").read_bytes())
                 .hexdigest()[:16] for name in ("truth", "pred")}
        return Op(
            seconds=total.cpu,
            wall=total.wall,
            outputs={"val_mse": hyper["best_val_mse"], "f1": report["f1"],
                     "hitrate_100": report["hitrate"]["100"], **files},
            stable={"epochs": epochs, **files},
            detail=(workdir, clocks, hyper),
        )

    def figures(self, ctx, op, scale):
        workdir, clocks, hyper = op.detail
        train_cfg = training.TrainConfig.from_dict(hyper["train"])
        train_ts, _ = pipeline.split_train_test(ctx["series"].n_steps, hyper["test_fraction"])
        steps = op.stable["epochs"] * steps_per_epoch(len(train_ts), ctx["config"], train_cfg,
                                                      train_cfg.folds - 1)
        return {"pipeline_s": (op.seconds * scale, "s"), "pipeline_wall_s": (op.wall, "s"),
                "detect_s": (clocks["detect"].cpu * scale, "s"),
                "train_steps_per_s": (steps / (clocks["train"].cpu * scale), "1/s"),
                "val_mse": (op.outputs["val_mse"], "1"), "f1": (op.outputs["f1"], "1"),
                "hitrate_100": (op.outputs["hitrate_100"], "1")}

    def checks(self, ctx, ops):
        out = []
        for op in ops:
            f1 = op.outputs["f1"]
            hitrate = op.outputs["hitrate_100"]
            written, _, _ = data.load_dataset(op.detail[0] / "ds")
            out += [("c07_f1_floor", f1 >= self.f1_floor),
                    ("c07_hitrate_floor", hitrate >= self.hitrate_floor),
                    ("dataset_round_trip", bool((written.data == ctx["series"].data).all()))]
        return out


WORKLOADS = {w.name: w for w in (TrainRadset(), Detect64(), PipelineC07())}
