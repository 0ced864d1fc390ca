"""Trainable layers built on DiffArray, plus the parameter checkpoint format.

Checkpoints are a JSON manifest (parameter names, shapes, seed and free-form
hyperparameters) next to a flat binary blob of little-endian float64 values,
row-major, concatenated in manifest order.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import DimensionError, FormatError
from .tensor import DiffArray, leaky_relu, sqrt

DEFAULT_LEAKY_SLOPE = 0.01


def xavier_uniform(rng: np.random.Generator, n_in: int, n_out: int, shape=None) -> np.ndarray:
    limit = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-limit, limit, (n_in, n_out) if shape is None else shape)


class Linear:
    """Affine map on the last axis: x @ weight + bias."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        self.n_in = n_in
        self.n_out = n_out
        self.weight = DiffArray(xavier_uniform(rng, n_in, n_out), requires_grad=True)
        self.bias = DiffArray(np.zeros(n_out), requires_grad=True)

    def __call__(self, x: DiffArray) -> DiffArray:
        if x.shape[-1] != self.n_in:
            raise DimensionError(
                f"linear layer expects width {self.n_in}, got input {x.shape}"
            )
        return x @ self.weight + self.bias

    def named_parameters(self, prefix: str = "") -> dict[str, DiffArray]:
        return {f"{prefix}weight": self.weight, f"{prefix}bias": self.bias}


class FeedForward:
    """A chain of affine layers with an activation between them.

    `widths` lists every layer width including input and output, e.g.
    (8, 64, 64, 8). The activation (LeakyReLU) is applied after every layer
    except the last.
    """

    def __init__(self, widths, rng: np.random.Generator, slope: float = DEFAULT_LEAKY_SLOPE):
        if len(widths) < 2:
            raise ValueError("feed-forward needs at least input and output widths")
        self.widths = tuple(widths)
        self.slope = slope
        self.layers = [
            Linear(widths[i], widths[i + 1], rng) for i in range(len(widths) - 1)
        ]

    def __call__(self, x: DiffArray) -> DiffArray:
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i < last:
                x = leaky_relu(x, self.slope)
        return x

    def named_parameters(self, prefix: str = "") -> dict[str, DiffArray]:
        out: dict[str, DiffArray] = {}
        for i, layer in enumerate(self.layers):
            out.update(layer.named_parameters(f"{prefix}layer{i}."))
        return out


class LayerNorm:
    """Last-axis normalization to zero mean / unit variance, then learned affine."""

    def __init__(self, width: int, eps: float = 1e-6):
        if width < 2:
            raise DimensionError("layer norm needs a last-axis size of at least 2")
        self.width = width
        self.eps = eps
        self.gain = DiffArray(np.ones(width), requires_grad=True)
        self.shift = DiffArray(np.zeros(width), requires_grad=True)

    def normalize(self, x: DiffArray) -> DiffArray:
        """The pre-affine part: (x - mean) / sqrt(var + eps) over the last axis."""
        if x.shape[-1] != self.width:
            raise DimensionError(f"layer norm width {self.width}, got input {x.shape}")
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        return centered / sqrt(var + self.eps)

    def __call__(self, x: DiffArray) -> DiffArray:
        return self.normalize(x) * self.gain + self.shift

    def named_parameters(self, prefix: str = "") -> dict[str, DiffArray]:
        return {f"{prefix}gain": self.gain, f"{prefix}shift": self.shift}


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(
    stem: str | Path,
    params: dict[str, DiffArray],
    seed: int | None = None,
    hyperparameters: dict | None = None,
) -> None:
    """Write `<stem>.json` (manifest) and `<stem>.bin` (value blob)."""
    stem = Path(stem)
    names = list(params.keys())
    manifest = {
        "names": names,
        "shapes": {name: list(params[name].shape) for name in names},
        "seed": seed,
        "hyperparameters": hyperparameters or {},
    }
    stem.parent.mkdir(parents=True, exist_ok=True)
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(stem.with_suffix(".bin"), "wb") as fh:
        for name in names:
            fh.write(np.ascontiguousarray(params[name].values, dtype="<f8").tobytes())


def load_checkpoint(stem: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint; returns (name -> array, manifest)."""
    stem = Path(stem)
    try:
        with open(stem.with_suffix(".json"), "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except FileNotFoundError as exc:
        raise FormatError(f"missing checkpoint manifest: {stem.with_suffix('.json')}") from exc
    blob = stem.with_suffix(".bin").read_bytes()
    expected = sum(
        int(np.prod(manifest["shapes"][name])) for name in manifest["names"]
    )
    if len(blob) != expected * 8:
        raise FormatError(
            f"checkpoint blob holds {len(blob)} bytes, manifest declares {expected * 8}"
        )
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for name in manifest["names"]:
        shape = tuple(manifest["shapes"][name])
        count = int(np.prod(shape))
        arrays[name] = (
            np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
            .astype(np.float64)
            .reshape(shape)
        )
        offset += count * 8
    return arrays, manifest


def assign_parameters(params: dict[str, DiffArray], arrays: dict[str, np.ndarray]) -> None:
    """Load checkpoint arrays into an existing parameter dict, in place."""
    missing = set(params) ^ set(arrays)
    if missing:
        raise FormatError(f"parameter names disagree with checkpoint: {sorted(missing)}")
    for name, p in params.items():
        if p.shape != arrays[name].shape:
            raise FormatError(
                f"shape mismatch for {name}: model {p.shape}, checkpoint {arrays[name].shape}"
            )
        p.values[...] = arrays[name]
