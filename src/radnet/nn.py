"""Trainable layers built on DiffArray, the parameter store, and checkpoints.

`named_parameters` finds a module's parameters (its `requires_grad`
DiffArrays) by walking its attributes, so names are attribute paths such as
`decoder.layers.0.weight`. A `ParameterStore` holds them as views into one
float64 buffer, `flat`, which the optimizer, snapshots and checkpoints use,
and their gradients as views into `grad`, laid out like it.

A checkpoint is `flat` as a little-endian float64 blob (each parameter
row-major, in manifest order) next to a JSON manifest: format version, names,
shapes, the blob's SHA-256, seed and free-form hyperparameters. Both files
are written atomically through `files`, the blob first.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import files
from .errors import DimensionError, FormatError
from .tensor import DiffArray, feed_forward, layer_norm


def xavier_uniform(rng: np.random.Generator, n_in: int, n_out: int, shape=None) -> np.ndarray:
    limit = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-limit, limit, (n_in, n_out) if shape is None else shape)


class Linear:
    """Affine map on the last axis: x @ weight + bias, a one-layer feed-forward."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        self.n_in = n_in
        self.weight = DiffArray(xavier_uniform(rng, n_in, n_out), requires_grad=True)
        self.bias = DiffArray(np.zeros(n_out), requires_grad=True)

    def __call__(self, x: DiffArray) -> DiffArray:
        if x.shape[-1] != self.n_in:
            raise DimensionError(
                f"linear layer expects width {self.n_in}, got input {x.shape}"
            )
        return feed_forward(x, [self.weight], [self.bias])


class FeedForward:
    """A chain of affine layers with an activation between them.

    `widths` lists every layer width including input and output, e.g.
    (8, 64, 64, 8). The activation (LeakyReLU, slope `tensor.LEAKY_SLOPE`) is
    applied after every layer except the last.
    """

    def __init__(self, widths, rng: np.random.Generator):
        if len(widths) < 2:
            raise ValueError("feed-forward needs at least input and output widths")
        self.layers = [
            Linear(widths[i], widths[i + 1], rng) for i in range(len(widths) - 1)
        ]

    def __call__(self, x: DiffArray) -> DiffArray:
        return feed_forward(x, [l.weight for l in self.layers], [l.bias for l in self.layers])


class LayerNorm:
    """Last-axis normalization to zero mean / unit variance (eps 1e-6), then learned affine."""

    def __init__(self, width: int):
        if width < 2:
            raise DimensionError("layer norm needs a last-axis size of at least 2")
        self.width = width
        self.gain = DiffArray(np.ones(width), requires_grad=True)
        self.shift = DiffArray(np.zeros(width), requires_grad=True)

    def __call__(self, x: DiffArray) -> DiffArray:
        if x.shape[-1] != self.width:
            raise DimensionError(f"layer norm width {self.width}, got input {x.shape}")
        return layer_norm(x, self.gain, self.shift, 1e-6)


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


def stack_members(members: list, rank: int):
    """The first of `members`, modules of one layout, holding every member's parameters.

    Each parameter becomes the members' values stacked on a new leading
    member axis, shaped (S, 1, ..., 1) + its own shape with unit axes up to
    `rank` axes, so that it lines up with (S, ...) activations of that rank:
    member s reads slice s. The same DiffArray objects carry the stacks.
    """
    walked = [named_parameters(m) for m in members]
    for name, p in walked[0].items():
        stacked = np.stack([w[name].values for w in walked])
        p.values = stacked.reshape(stacked.shape[:1] + (1,) * (rank - 1 - p.ndim) + p.shape)
    return members[0]


class ParameterStore:
    """Named parameters whose values are views into one float64 buffer, `flat`.

    Building the store copies each parameter's values into its slice of
    `flat` (in dict order) and rebinds `values` to that slice, so an in-place
    update of `flat` updates every parameter and `flat.copy()` snapshots them.
    Each `grad` is bound likewise to a slice of the zeroed buffer `grad`.
    """

    def __init__(self, params: dict[str, DiffArray]):
        self.params = params
        self.flat = np.empty(sum(p.values.size for p in params.values()))
        self.grad = np.zeros_like(self.flat)
        offset = 0
        for p in params.values():
            end = offset + p.values.size
            self.flat[offset:end] = p.values.reshape(-1)
            p.values = self.flat[offset:end].reshape(p.values.shape)
            p.grad = self.grad[offset:end].reshape(p.values.shape)
            offset = end

    def name_at(self, index: int) -> str:
        """The parameter owning element `index` of `flat`."""
        for name, p in self.params.items():
            if index < p.size:
                return name
            index -= p.size
        raise IndexError(f"index outside the {self.flat.size} stored values")


# ---------------------------------------------------------------------------
# checkpoints

# 3: the two paths' transformer blocks are one block with a member axis
CHECKPOINT_FORMAT = 3


def save_checkpoint(
    stem: str | Path,
    store: ParameterStore,
    seed: int | None = None,
    hyperparameters: dict | None = None,
) -> None:
    """Write `<stem>.bin` (the `flat` blob), then `<stem>.json` (manifest)."""
    stem = Path(stem)
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "names": list(store.params),
        "shapes": {name: list(p.shape) for name, p in store.params.items()},
        "sha256": files.write_blob(stem.with_suffix(".bin"), store.flat),
        "seed": seed,
        "hyperparameters": hyperparameters or {},
    }
    files.write_json(stem.with_suffix(".json"), manifest)


def load_checkpoint(stem: str | Path) -> tuple[np.ndarray, dict]:
    """Read a checkpoint; returns (flat values in manifest order, manifest)."""
    path = Path(stem).with_suffix(".json")
    manifest = files.read_json(path, "checkpoint manifest")
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise FormatError(
            f"checkpoint manifest {path}: format {manifest.get('format')!r} is not supported "
            f"(expected {CHECKPOINT_FORMAT}); retrain to write a current checkpoint"
        )
    try:
        n_values = sum(int(np.prod(manifest["shapes"][name])) for name in manifest["names"])
    except KeyError as exc:
        raise FormatError(f"checkpoint manifest {path} has no {exc} entry") from exc
    flat = files.read_blob(path.with_suffix(".bin"), n_values, manifest.get("sha256"),
                           "checkpoint blob")
    return flat, manifest
