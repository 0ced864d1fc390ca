"""On-disk dataset container, loaders, statistics, and a synthetic
periodic-traffic generator with injected incidents.

Container layout (one directory per dataset):
  meta.json     -- name, T, N, D, delta_seconds, start_epoch, feature_names,
                   sha256 (of features.bin)
  features.bin  -- little-endian float64, timestep-major then node then feature
  edges.csv     -- undirected edge list, header `src,dst`, 0-based ids

`save_dataset` writes features.bin, then edges.csv, then meta.json, each to
`<file>.tmp` renamed into place, so a torn write leaves no meta.json, a
length that does not match it, or a blob that fails its checksum.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError
from .graph import RoadGraph

SECONDS_PER_DAY = 86400
# Unix epoch day zero was a Thursday.
_EPOCH_WEEKDAY = 3


def _calendar(epoch):
    """(weekday, seconds since midnight) of Unix epoch seconds; 0 = Monday ... 6 = Sunday."""
    day, clock_s = divmod(epoch, SECONDS_PER_DAY)
    return (day + _EPOCH_WEEKDAY) % 7, clock_s


RADSET_FEATURES = ("del", "flow", "flow_raw", "cong", "cong_raw", "occ", "ql")
# +1: metric rises during an incident (delay, congestion, occupancy, queues);
# -1: metric falls (flows, speeds).
RADSET_POLARITY = {
    "del": 1.0,
    "flow": -1.0,
    "flow_raw": -1.0,
    "cong": 1.0,
    "cong_raw": 1.0,
    "occ": 1.0,
    "ql": 1.0,
}

META_FIELDS = {"name", "T", "N", "D", "delta_seconds", "start_epoch", "feature_names", "sha256"}


@dataclass
class FeatureSeries:
    """A timestamped trace of feature matrices, one (N, D) matrix per interval."""

    data: np.ndarray  # (T, N, D) float64
    start_epoch: int  # wall-clock seconds of timestep 0
    delta_seconds: int  # interval duration
    feature_names: list[str]
    name: str = "series"

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 3:
            raise FormatError(f"series data must be (T, N, D), got {self.data.shape}")
        if self.delta_seconds <= 0:
            raise FormatError("interval duration must be positive")
        if len(self.feature_names) != self.data.shape[2]:
            raise FormatError(
                f"{len(self.feature_names)} feature names for D={self.data.shape[2]}"
            )

    @property
    def n_steps(self) -> int:
        return self.data.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.data.shape[1]

    @property
    def n_features(self) -> int:
        return self.data.shape[2]

    # t may be an int or an integer array; the results take its shape.
    def epoch(self, t):
        return self.start_epoch + t * self.delta_seconds

    def weekday(self, t):
        """0 = Monday ... 6 = Sunday, from the wall-clock anchor."""
        return _calendar(self.epoch(t))[0]

    def clock_seconds(self, t):
        """Seconds since midnight at timestep t."""
        return _calendar(self.epoch(t))[1]


@dataclass
class DatasetMeta:
    name: str
    n_steps: int
    n_nodes: int
    n_edges: int
    n_features: int

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "timesteps": self.n_steps,
            "nodes": self.n_nodes,
            "edges": self.n_edges,
            "features": self.n_features,
        }


def save_dataset(directory: str | Path, series: FeatureSeries, graph: RoadGraph) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    blob = np.ascontiguousarray(series.data, dtype="<f8").tobytes()
    meta = {
        "name": series.name,
        "T": series.n_steps,
        "N": series.n_nodes,
        "D": series.n_features,
        "delta_seconds": series.delta_seconds,
        "start_epoch": series.start_epoch,
        "feature_names": series.feature_names,
        "sha256": hashlib.sha256(blob).hexdigest(),
    }
    text = json.dumps(meta, indent=2, sort_keys=True) + "\n"
    for name, write in (("features.bin", lambda path: path.write_bytes(blob)),
                        ("edges.csv", graph.to_edge_csv),
                        ("meta.json", lambda path: path.write_text(text, encoding="utf-8"))):
        tmp = directory / (name + ".tmp")
        write(tmp)
        os.replace(tmp, directory / name)


def load_dataset(directory: str | Path) -> tuple[FeatureSeries, RoadGraph, DatasetMeta]:
    directory = Path(directory)
    meta_path = directory / "meta.json"
    if not meta_path.exists():
        raise FormatError(f"no meta.json under {directory}")
    with open(meta_path, encoding="utf-8") as fh:
        meta = json.load(fh)
    unknown = set(meta) - META_FIELDS
    if unknown:
        warnings.warn(f"ignoring unknown meta.json fields: {sorted(unknown)}")
    missing = META_FIELDS - set(meta)
    if missing:
        raise FormatError(f"meta.json missing fields: {sorted(missing)}")
    t, n, d = int(meta["T"]), int(meta["N"]), int(meta["D"])
    blob = (directory / "features.bin").read_bytes()
    expected = t * n * d * 8
    if len(blob) != expected:
        raise FormatError(
            f"features.bin holds {len(blob)} bytes, meta.json declares {expected}"
        )
    if hashlib.sha256(blob).hexdigest() != meta["sha256"]:
        raise FormatError(f"{directory / 'features.bin'} fails its SHA-256 check")
    data = np.frombuffer(blob, dtype="<f8").astype(np.float64).reshape(t, n, d)
    bad = ~np.isfinite(data)
    if bad.any():
        first = tuple(int(i) for i in np.argwhere(bad)[0])
        raise FormatError(
            f"features.bin holds {int(bad.sum())} non-finite values; the first is "
            f"at (t, link, feature) = {first}"
        )
    series = FeatureSeries(
        data=data,
        start_epoch=int(meta["start_epoch"]),
        delta_seconds=int(meta["delta_seconds"]),
        feature_names=list(meta["feature_names"]),
        name=str(meta["name"]),
    )
    graph = RoadGraph.from_edge_csv(directory / "edges.csv", n)
    ds_meta = DatasetMeta(series.name, t, n, graph.n_edges, d)
    return series, graph, ds_meta


# ---------------------------------------------------------------------------
# synthetic traffic


@dataclass
class IncidentSpec:
    """Injected multiplicative disturbances at known (timestep, link) cells."""

    count: int = 20
    depth: float = 0.5  # fractional drop (or rise, per feature polarity)
    duration: int = 6  # intervals
    min_start: int = 0  # earliest allowed onset timestep


def _feature_polarity(names: list[str]) -> np.ndarray:
    return np.array([RADSET_POLARITY.get(n, -1.0) for n in names])


def synth_traffic(
    n_nodes: int = 4,
    days: int = 14,
    delta_seconds: int = 300,
    n_features: int = 1,
    incidents: IncidentSpec | None = None,
    seed: int = 0,
    noise: float = 0.03,
    weekend_factor: float = 1.0,
    start_epoch: int = 4 * SECONDS_PER_DAY,  # a Monday midnight
    graph: RoadGraph | None = None,
) -> tuple[FeatureSeries, RoadGraph, np.ndarray]:
    """Generate a periodic trace with optional injected incidents.

    Per link: a daytime sinusoidal hump plus an offset, optionally modulated
    on weekends, plus graph-smoothed Gaussian noise (one diffusion step over
    the neighborhoods). Incidents multiply the affected cells by
    (1 - depth) on falling features and (1 + depth) on rising ones.

    Returns (series, graph, truth_mask) where truth_mask is a (T, N) bool
    array marking exactly the injected cells.
    """
    if days < 2:
        raise ValueError("need at least 2 days so every clock slot repeats")
    if days < 8:
        warnings.warn(
            "fewer than 8 days: weekday-keyed baselines will see single samples"
        )
    if SECONDS_PER_DAY % delta_seconds != 0:
        raise ValueError("interval duration must divide a day evenly")
    rng = np.random.default_rng(seed)
    steps_per_day = SECONDS_PER_DAY // delta_seconds
    n_steps = days * steps_per_day
    if graph is None:
        graph = RoadGraph.ring(n_nodes)

    if n_features == 7:
        names = list(RADSET_FEATURES)
    elif n_features == 1:
        names = ["flow"]
    else:
        names = [f"f{i}" for i in range(n_features)]
    polarity = _feature_polarity(names)

    offsets = rng.uniform(0.8, 1.6, size=(n_nodes, n_features))
    amps = rng.uniform(0.5, 1.0, size=(n_nodes, n_features))
    phases = rng.uniform(-0.1, 0.1, size=n_nodes)

    epochs = start_epoch + np.arange(n_steps) * delta_seconds
    weekdays, clock_s = _calendar(epochs)
    clock = clock_s / SECONDS_PER_DAY  # [0, 1) day phase
    weekend = np.where(weekdays >= 5, weekend_factor, 1.0)

    # daytime hump peaking mid-day, zero overnight
    day_shape = np.maximum(0.0, np.sin(np.pi * (clock[:, None] - 0.25) * 2 - phases[None, :]))
    base = offsets[None, :, :] + (
        amps[None, :, :] * day_shape[:, :, None] * weekend[:, None, None]
    )

    if noise > 0:
        raw = rng.normal(0.0, noise, size=(n_steps, n_nodes, n_features))
        smoothed = np.empty_like(raw)
        for i, neigh in enumerate(graph.neighborhoods):
            smoothed[:, i] = raw[:, neigh].mean(axis=1)
        base = base + smoothed

    truth_mask = np.zeros((n_steps, n_nodes), dtype=bool)
    if incidents is not None and incidents.count > 0:
        factors = 1.0 + polarity * incidents.depth
        for _ in range(incidents.count):
            link = int(rng.integers(0, n_nodes))
            start = int(rng.integers(incidents.min_start, n_steps - 1))
            stop = start + incidents.duration
            if stop > n_steps:
                warnings.warn(f"incident at t={start} clipped at series end")
                stop = n_steps
            base[start:stop, link] *= factors
            truth_mask[start:stop, link] = True

    series = FeatureSeries(
        data=base,
        start_epoch=int(start_epoch),
        delta_seconds=int(delta_seconds),
        feature_names=names,
        name=f"synth-n{n_nodes}-d{days}-s{seed}",
    )
    return series, graph, truth_mask


def stats(series: FeatureSeries, graph: RoadGraph | None = None) -> dict:
    """Summary block: shape counts plus per-feature min/mean/max."""
    out = {
        "name": series.name,
        "timesteps": series.n_steps,
        "nodes": series.n_nodes,
        "edges": graph.n_edges if graph is not None else None,
        "features": series.n_features,
        "delta_seconds": series.delta_seconds,
        "per_feature": {
            name: {
                "min": float(series.data[:, :, i].min()),
                "mean": float(series.data[:, :, i].mean()),
                "max": float(series.data[:, :, i].max()),
            }
            for i, name in enumerate(series.feature_names)
        },
    }
    return out


def stats_text(summary: dict) -> str:
    lines = [
        f"dataset   {summary['name']}",
        f"timesteps {summary['timesteps']}",
        f"nodes     {summary['nodes']}",
        f"edges     {summary['edges'] if summary['edges'] is not None else '-'}",
        f"features  {summary['features']}",
        f"delta_s   {summary['delta_seconds']}",
    ]
    for name, row in summary["per_feature"].items():
        lines.append(
            f"  {name:10s} min {row['min']:10.4f}  mean {row['mean']:10.4f}  max {row['max']:10.4f}"
        )
    return "\n".join(lines)
