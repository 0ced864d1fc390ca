"""Trainable layers built on DiffArray, the parameter store, and checkpoints.

`named_parameters` finds a module's parameters (its `requires_grad`
DiffArrays) by walking its attributes, so names are attribute paths such as
`decoder.layers.0.weight`. A `ParameterStore` holds them as views into one
float64 buffer, `flat`, which the optimizer, snapshots and checkpoints use.

A checkpoint is `flat` as a little-endian float64 blob (each parameter
row-major, in manifest order) next to a JSON manifest: format version, names,
shapes, the blob's SHA-256, seed and free-form hyperparameters. Each file is
written to a temporary name and renamed into place, the blob first.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from .errors import DimensionError, FormatError
from .tensor import DiffArray, layer_norm, leaky_relu

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


class LayerNorm:
    """Last-axis normalization to zero mean / unit variance, then learned affine."""

    def __init__(self, width: int, eps: float = 1e-6):
        if width < 2:
            raise DimensionError("layer norm needs a last-axis size of at least 2")
        self.width = width
        self.eps = eps
        self.gain = DiffArray(np.ones(width), requires_grad=True)
        self.shift = DiffArray(np.zeros(width), requires_grad=True)

    def __call__(self, x: DiffArray) -> DiffArray:
        if x.shape[-1] != self.width:
            raise DimensionError(f"layer norm width {self.width}, got input {x.shape}")
        return layer_norm(x, self.gain, self.shift, self.eps)


# ---------------------------------------------------------------------------
# parameters


def named_parameters(module, prefix: str = "") -> dict[str, DiffArray]:
    """Every `requires_grad` DiffArray reachable from `module`, by attribute path.

    Attributes are walked in assignment order: a list item by item under
    `attr.i.`, any other object with attributes under `attr.`; everything
    else (None included) is skipped.
    """
    out: dict[str, DiffArray] = {}
    _collect(module, prefix, out)
    return out


def _collect(module, prefix: str, out: dict[str, DiffArray]) -> None:
    items = enumerate(module) if isinstance(module, list) else vars(module).items()
    for key, value in items:
        if isinstance(value, DiffArray):
            if value.requires_grad:
                out[f"{prefix}{key}"] = value
        elif isinstance(value, list) or hasattr(value, "__dict__"):
            _collect(value, f"{prefix}{key}.", out)


class ParameterStore:
    """Named parameters whose values are views into one float64 buffer, `flat`.

    Building the store copies each parameter's values into its slice of
    `flat` (in dict order) and rebinds `values` to that slice, so an in-place
    update of `flat` updates every parameter and `flat.copy()` snapshots them.
    """

    def __init__(self, params: dict[str, DiffArray]):
        self.params = params
        self.flat = np.empty(sum(p.values.size for p in params.values()))
        offset = 0
        for p in params.values():
            end = offset + p.values.size
            self.flat[offset:end] = p.values.reshape(-1)
            p.values = self.flat[offset:end].reshape(p.values.shape)
            offset = end

    def name_at(self, index: int) -> str:
        """The parameter owning element `index` of `flat`."""
        for name, p in self.params.items():
            if index < p.size:
                return name
            index -= p.size
        raise IndexError(f"index outside the {self.flat.size} stored values")

    def flat_grad(self) -> np.ndarray:
        """Every parameter's gradient laid out like `flat`; each must have one."""
        grad = np.empty_like(self.flat)
        offset = 0
        for name, p in self.params.items():
            shape = None if p.grad is None else p.grad.shape
            if shape != p.shape:
                raise ValueError(f"parameter {name} needs a {p.shape} gradient, has {shape}")
            grad[offset : offset + p.size] = p.grad.reshape(-1)
            offset += p.size
        return grad


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_FORMAT = 2


def save_checkpoint(
    stem: str | Path,
    store: ParameterStore,
    seed: int | None = None,
    hyperparameters: dict | None = None,
) -> None:
    """Write `<stem>.bin` (the `flat` blob), then `<stem>.json` (manifest)."""
    stem = Path(stem)
    blob = store.flat.astype("<f8").tobytes()
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "names": list(store.params),
        "shapes": {name: list(p.shape) for name, p in store.params.items()},
        "sha256": hashlib.sha256(blob).hexdigest(),
        "seed": seed,
        "hyperparameters": hyperparameters or {},
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    stem.parent.mkdir(parents=True, exist_ok=True)
    for path, data in ((stem.with_suffix(".bin"), blob),
                       (stem.with_suffix(".json"), text.encode("utf-8"))):
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_bytes(data)
        os.replace(tmp, path)


def load_checkpoint(stem: str | Path) -> tuple[np.ndarray, dict]:
    """Read a checkpoint; returns (flat values in manifest order, manifest)."""
    stem = Path(stem)
    try:
        with open(stem.with_suffix(".json"), "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except FileNotFoundError as exc:
        raise FormatError(f"missing checkpoint manifest: {stem.with_suffix('.json')}") from exc
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise FormatError(
            f"checkpoint format {manifest.get('format')!r} is not supported "
            f"(expected {CHECKPOINT_FORMAT}); retrain to write a current checkpoint"
        )
    try:
        blob = stem.with_suffix(".bin").read_bytes()
    except FileNotFoundError as exc:
        raise FormatError(f"missing checkpoint blob: {stem.with_suffix('.bin')}") from exc
    expected = sum(
        int(np.prod(manifest["shapes"][name])) for name in manifest["names"]
    )
    if len(blob) != expected * 8:
        raise FormatError(
            f"checkpoint blob holds {len(blob)} bytes, manifest declares {expected * 8}"
        )
    if hashlib.sha256(blob).hexdigest() != manifest.get("sha256"):
        raise FormatError(f"checkpoint blob {stem.with_suffix('.bin')} fails its SHA-256 check")
    return np.frombuffer(blob, dtype="<f8").astype(np.float64), manifest
