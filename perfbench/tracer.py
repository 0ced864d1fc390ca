"""Spans around radnet's public call boundaries, recorded from outside radnet.

`instrument(tracer)` replaces every module binding and class attribute that
refers to a traced callable with a wrapper that records one span per call:
(name, start, end, parent span, run id). Module functions are often bound
again by `from .x import y`, so every binding found in any `radnet.*` module
is wrapped, each with its own binding name so coverage can be checked per
call site. Spans stay in memory until `write_spans`; self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import signal
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from functools import wraps
from pathlib import Path
from typing import Callable

import numpy as np


class Clock:
    """Process CPU time and wall time of a block.

    The benchmark is single-threaded, so CPU time is wall time minus the time
    the process waited, mostly time its CPU was lent to another guest.
    """

    def __enter__(self):
        self.cpu, self.wall = time.process_time(), time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.cpu = time.process_time() - self.cpu
        self.wall = time.perf_counter() - self.wall


# The probe's usual time on the reference host. Gated times are CPU times
# scaled by PROBE_REFERENCE_S / probe time, i.e. expressed at that host speed.
PROBE_REFERENCE_S = 2.0e-3
_PROBE_X = np.random.default_rng(0).normal(size=(32, 5, 8))
_PROBE_W = np.random.default_rng(1).normal(size=(8, 8)) * 0.3


def _probe() -> float:
    """Seconds for a fixed kernel like radnet's: small numpy ops driven from
    Python. It does not touch radnet, so only the host's speed moves it."""
    start = time.perf_counter()
    x = _PROBE_X
    for _ in range(50):
        z = np.tanh(x @ _PROBE_W) * 0.5 + x
        x = z / (1.0 + np.abs(z).sum(axis=-1, keepdims=True))
        {i: (i,) for i in range(20)}
    return time.perf_counter() - start


def probe_seconds(repeats: int = 40) -> float:
    """The probe's median time over `repeats` runs: the host's speed now."""
    return statistics.median(_probe() for _ in range(repeats))


class SpeedSampler:
    """Runs the probe every `period` seconds while the block runs (SIGALRM).

    A shared host changes speed by up to 40 % for seconds to minutes at a
    time, also within one operation. The samples follow those changes, so
    `scale` converts the block's CPU time to time at the reference speed.
    `probe_s` is the probe time spent inside the block, to subtract from its
    CPU time. A wall-clock timer, because an armed CPU-time timer coarsens
    the process CPU clock to scheduler ticks.
    """

    def __init__(self, period: float = 0.25):
        self.period = period
        self.samples: list[float] = []

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame):
        self.samples.append(_probe())

    @property
    def probe_s(self) -> float:
        return sum(self.samples)

    def scale(self, fallback: float) -> float:
        """Reference over the samples' mean, a tenth trimmed at each end."""
        if not self.samples:
            return PROBE_REFERENCE_S / fallback
        cut = len(self.samples) // 10
        kept = sorted(self.samples)[cut:len(self.samples) - cut]
        return PROBE_REFERENCE_S / statistics.mean(kept)


class Tracer:
    """In-memory span store plus the counters the per-layer metrics need."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self._stack: list[int] = []
        self.fired: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._steps_at_train = 0
        self.tape: list[tuple[int, int]] = []  # (nodes, bytes) per backward()
        self.param_tensors: list[int] = []
        self.train_steps: list[int] = []
        self.train_epochs: list[int] = []
        self.threshold_states: list = []
        self.degenerate_states = 0
        self.baselines: list = []
        self.label_scores = 0
        self.forecast_windows = 0
        self.diagnosis_timesteps = 0
        self.bytes_written = 0

    def call(self, name: str, fn, args, kwargs):
        self.counts[name] += 1
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent)

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def calls(self, name: str) -> int:
        return self.counts[name]

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": i, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")


# ---------------------------------------------------------------------------
# hooks: counters taken at the same boundaries as the spans


def _walk_tape(tracer: Tracer, bound) -> None:
    """Count recorded ops and the bytes they hold, from the loss back."""
    seen, stack, nodes, nbytes = set(), [bound["self"]], 0, 0
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if x.op_trace is not None:
            nodes += 1
            nbytes += x.values.nbytes
            stack.extend(x.op_trace.inputs)
    tracer.tape.append((nodes, nbytes))


def _train_before(tracer: Tracer, bound) -> None:
    tracer._steps_at_train = tracer.calls("optim.adamw")


def _train_after(tracer: Tracer, bound, result) -> None:
    tracer.train_steps.append(tracer.calls("optim.adamw") - tracer._steps_at_train)
    tracer.train_epochs.append(len(result.history))


def _pot_fit_after(tracer: Tracer, bound, state) -> None:
    tracer.threshold_states.append(state)
    tracer.degenerate_states += int(state.degenerate)


def _save_dataset_after(tracer: Tracer, bound, result) -> None:
    directory = Path(bound["directory"])
    tracer.bytes_written += sum(
        (directory / f).stat().st_size for f in ("meta.json", "features.bin", "edges.csv")
    )


def _add(field: str, value: Callable) -> Callable:
    def hook(tracer, bound, *result):
        setattr(tracer, field, getattr(tracer, field) + value(bound, *result))
    return hook


def _forward_name(bound) -> str:
    return "model.forward_train" if bound.get("training") else "model.forward_eval"


@dataclass(frozen=True)
class Target:
    """One traced public callable: `module` defines `qualname`."""

    span: str
    module: str
    qualname: str
    before: Callable | None = None
    after: Callable | None = None
    name_of: Callable | None = None  # span name from the call's arguments


TARGETS = (
    Target("tensor.backward", "radnet.tensor", "DiffArray.backward", before=_walk_tape),
    Target("graph.gat", "radnet.graph", "GatLayer.__call__"),
    Target("temporal.transformer", "radnet.temporal", "TransformerBlock.__call__"),
    Target("temporal.mha", "radnet.temporal", "MultiHeadAttention.__call__"),
    Target("nn.linear", "radnet.nn", "Linear.__call__"),
    Target("nn.layernorm", "radnet.nn", "LayerNorm.__call__"),
    Target("nn.feedforward", "radnet.nn", "FeedForward.__call__"),
    Target("nn.checkpoint_save", "radnet.nn", "save_checkpoint"),
    Target("nn.checkpoint_load", "radnet.nn", "load_checkpoint"),
    Target("optim.adamw", "radnet.optim", "AdamW.step",
           before=lambda t, b: t.param_tensors.append(len(b["self"].params))),
    Target("model.forward", "radnet.model", "RadNet.forward_batch", name_of=_forward_name),
    Target("model.build_window", "radnet.model", "build_window"),
    Target("training.train", "radnet.training", "train",
           before=_train_before, after=_train_after),
    Target("training.split_folds", "radnet.training", "split_folds"),
    Target("incidents.build_baseline", "radnet.incidents", "build_baseline",
           after=lambda t, b, table: t.baselines.append(table)),
    Target("incidents.baseline_lookup", "radnet.incidents", "BaselineTable.lookup"),
    Target("incidents.residual_scores", "radnet.incidents", "residual_scores"),
    Target("incidents.gpd_fit", "radnet.incidents", "gpd_fit"),
    Target("incidents.pot_fit", "radnet.incidents", "pot_fit", after=_pot_fit_after),
    Target("incidents.label", "radnet.incidents", "label",
           before=_add("label_scores", lambda b: len(b["scores"]))),
    Target("incidents.labels_csv_write", "radnet.incidents", "IncidentLabels.to_csv"),
    Target("incidents.labels_csv_read", "radnet.incidents", "IncidentLabels.from_csv"),
    Target("pipeline.forecast_series", "radnet.pipeline", "forecast_series",
           before=_add("forecast_windows", lambda b: len(b["target_ts"]))),
    Target("pipeline.fit_threshold_states", "radnet.pipeline", "fit_threshold_states"),
    Target("pipeline.generate_ground_truth", "radnet.pipeline", "generate_ground_truth"),
    Target("pipeline.label_predictions", "radnet.pipeline", "label_predictions"),
    Target("evaluation.evaluate", "radnet.evaluation", "evaluate",
           after=_add("diagnosis_timesteps", lambda b, r: r.meta["diagnosis_timesteps"])),
    Target("data.synth_traffic", "radnet.data", "synth_traffic"),
    Target("data.save_dataset", "radnet.data", "save_dataset", after=_save_dataset_after),
    Target("data.load_dataset", "radnet.data", "load_dataset"),
    Target("cli.synth", "radnet.cli", "cmd_synth"),
    Target("cli.train", "radnet.cli", "cmd_train"),
    Target("cli.detect", "radnet.cli", "cmd_detect"),
    Target("cli.evaluate", "radnet.cli", "cmd_evaluate"),
)

# Bindings no radnet code calls through: the package root re-exports names
# for callers outside the package, and these defining modules never call the
# function themselves. They are wrapped all the same, but no workload fires them.
IDLE_BINDINGS = frozenset({
    "radnet.build_baseline", "radnet.build_window", "radnet.evaluate",
    "radnet.gpd_fit", "radnet.label", "radnet.load_dataset", "radnet.pot_fit",
    "radnet.residual_scores", "radnet.save_dataset", "radnet.split_folds",
    "radnet.synth_traffic", "radnet.train",
    "radnet.model.build_window", "radnet.incidents.build_baseline",
    "radnet.incidents.residual_scores", "radnet.incidents.pot_fit",
    "radnet.incidents.label", "radnet.data.save_dataset", "radnet.data.load_dataset",
    "radnet.nn.save_checkpoint", "radnet.nn.load_checkpoint",
})


def _radnet_modules() -> list:
    importlib.import_module("radnet.cli")  # the package root does not import it
    return [m for name, m in sorted(sys.modules.items())
            if name == "radnet" or name.startswith("radnet.")]


def _bindings(target: Target, modules) -> list[tuple[object, str, str]]:
    """(owner, attribute, binding name) for every place `target` is bound."""
    home = sys.modules[target.module]
    if "." in target.qualname:
        cls_name, attr = target.qualname.split(".")
        return [(getattr(home, cls_name), attr, f"{target.module}.{target.qualname}")]
    original = getattr(home, target.qualname)
    return [(m, attr, f"{m.__name__}.{attr}")
            for m in modules for attr, value in vars(m).items() if value is original]


def discover_bindings() -> set[str]:
    modules = _radnet_modules()
    return {name for t in TARGETS for _, _, name in _bindings(t, modules)}


def _wrap(tracer: Tracer, target: Target, binding: str, fn):
    hooked = target.before or target.after or target.name_of
    signature = inspect.signature(fn) if hooked else None

    @wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.fired[binding] += 1
        if not hooked:
            return tracer.call(target.span, fn, args, kwargs)
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        arguments = bound.arguments
        if target.before:
            target.before(tracer, arguments)
        name = target.name_of(arguments) if target.name_of else target.span
        result = tracer.call(name, fn, args, kwargs)
        if target.after:
            target.after(tracer, arguments, result)
        return result

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every binding of every target for the duration of the block."""
    modules = _radnet_modules()
    patched = []
    try:
        for target in TARGETS:
            for owner, attr, binding in _bindings(target, modules):
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(_wrap(tracer, target, binding, raw.__func__))
                else:
                    new = _wrap(tracer, target, binding, raw)
                patched.append((owner, attr, raw))
                setattr(owner, attr, new)
        yield tracer
    finally:
        for owner, attr, raw in reversed(patched):
            setattr(owner, attr, raw)


# ---------------------------------------------------------------------------
# per-layer metrics


def _median(values, default=0):
    return statistics.median_low(values) if values else default


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, by name, as (value, unit)."""
    own = tracer.self_times()
    s = lambda name: own.get(name, 0.0)
    n = tracer.calls
    gpd = tracer.durations("incidents.gpd_fit")
    label_ids = {i for i, span in enumerate(tracer.spans) if span[0] == "incidents.label"}
    forecast = sum(tracer.durations("pipeline.forecast_series"))
    cmds = {"cli.synth_s": "cli.synth", "cli.train_s": "cli.train",
            "cli.detect_s": "cli.detect", "cli.evaluate_s": "cli.evaluate"}
    out = {
        "tensor.backward_s": (s("tensor.backward"), "s"),
        "tensor.tape_nodes_per_step": (_median([t[0] for t in tracer.tape]), "count"),
        "tensor.tape_bytes_per_step": (_median([t[1] for t in tracer.tape]), "B"),
        "graph.gat_self_s": (s("graph.gat"), "s"),
        "graph.gat_calls": (n("graph.gat"), "count"),
        "temporal.transformer_self_s": (s("temporal.transformer"), "s"),
        "temporal.mha_self_s": (s("temporal.mha"), "s"),
        "temporal.mha_calls": (n("temporal.mha"), "count"),
        "nn.linear_calls": (n("nn.linear"), "count"),
        "nn.linear_self_s": (s("nn.linear"), "s"),
        "nn.layernorm_self_s": (s("nn.layernorm"), "s"),
        "nn.feedforward_self_s": (s("nn.feedforward"), "s"),
        "nn.checkpoint_save_s": (s("nn.checkpoint_save"), "s"),
        "nn.checkpoint_load_s": (s("nn.checkpoint_load"), "s"),
        "optim.adamw_s": (s("optim.adamw"), "s"),
        "optim.steps": (n("optim.adamw"), "count"),
        "optim.param_tensors": (_median(tracer.param_tensors), "count"),
        "model.forward_train_s": (s("model.forward_train"), "s"),
        "model.forward_eval_s": (s("model.forward_eval"), "s"),
        "model.build_window_calls": (n("model.build_window"), "count"),
        "training.train_s": (s("training.train"), "s"),
        "training.split_folds_s": (s("training.split_folds"), "s"),
        "training.steps": (_median(tracer.train_steps), "count"),
        "training.epochs": (_median(tracer.train_epochs), "count"),
        "incidents.gpd_fit_s": (s("incidents.gpd_fit"), "s"),
        "incidents.gpd_fit_calls": (len(gpd), "count"),
        "incidents.gpd_fit_ms_p50": (1e3 * _median(gpd, 0.0), "ms"),
        "incidents.pot_fit_s": (s("incidents.pot_fit"), "s"),
        "incidents.label_s": (s("incidents.label"), "s"),
        "incidents.label_scores": (tracer.label_scores, "count"),
        "incidents.refits": (sum(1 for name, _, _, parent in tracer.spans
                                 if name == "incidents.gpd_fit" and parent in label_ids),
                             "count"),
        "incidents.build_baseline_s": (s("incidents.build_baseline"), "s"),
        "incidents.baseline_lookups": (n("incidents.baseline_lookup"), "count"),
        "incidents.baseline_fallbacks": (sum(b.fallback_count for b in tracer.baselines),
                                         "count"),
        "incidents.residual_scores_s": (s("incidents.residual_scores"), "s"),
        "incidents.excess_buffer_max": (max((len(st.excesses) for st in tracer.threshold_states),
                                            default=0), "count"),
        "incidents.degenerate_states": (tracer.degenerate_states, "count"),
        "incidents.labels_csv_write_s": (s("incidents.labels_csv_write"), "s"),
        "incidents.labels_csv_read_s": (s("incidents.labels_csv_read"), "s"),
        "pipeline.forecast_series_s": (s("pipeline.forecast_series"), "s"),
        "pipeline.forecast_windows_per_s": (
            tracer.forecast_windows / forecast if forecast else 0.0, "1/s"),
        "pipeline.fit_threshold_states_s": (s("pipeline.fit_threshold_states"), "s"),
        "pipeline.generate_ground_truth_s": (s("pipeline.generate_ground_truth"), "s"),
        "pipeline.label_predictions_s": (s("pipeline.label_predictions"), "s"),
        "evaluation.evaluate_s": (s("evaluation.evaluate"), "s"),
        "evaluation.diagnosis_timesteps": (tracer.diagnosis_timesteps, "count"),
        "data.synth_traffic_s": (s("data.synth_traffic"), "s"),
        "data.save_dataset_s": (s("data.save_dataset"), "s"),
        "data.load_dataset_s": (s("data.load_dataset"), "s"),
        "data.bytes_written": (tracer.bytes_written, "B"),
    }
    out.update({metric: (s(span), "s") for metric, span in cmds.items()})
    return out
