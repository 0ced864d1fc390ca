"""The dual-permutation forecaster.

Two inference paths encode each input window: graph attention over every
time slice followed by a transformer over time (spatio-temporal), and a
transformer over time followed by graph attention (temporo-spatial). A
learned softmax over a single affine map of the latest feature matrix mixes
the two path outputs with the raw input as a convex combination, and a
feed-forward decoder maps the fused matrix to the forecast. The two paths'
transformers have one shape, so they are the two members of one transformer
block (`temporal.TransformerBlock`): member 0 encodes the graph-attended
windows of the spatio-temporal path, member 1 the windows of the
temporo-spatial path, in one call.

Ablation variants: `no_skip` replaces the learned combination with a plain
sum, `no_st` drops the spatio-temporal path, `no_ts` drops the
temporo-spatial path (the remaining path is mixed with the input through a
2-way softmax); their block has one member.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import DimensionError, FormatError
from .graph import GatLayer, RoadGraph
from .nn import (
    FeedForward,
    Linear,
    ParameterStore,
    load_checkpoint,
    named_parameters,
    save_checkpoint,
)
from .temporal import TransformerBlock, transformer_forward
from .tensor import DiffArray, _wrap, frobenius_loss, fuse, reshape, shift_window, stack

VARIANTS = ("full", "no_skip", "no_st", "no_ts")


@dataclass
class RadNetConfig:
    n_nodes: int
    n_features: int
    window: int = 5
    horizon: int = 1
    variant: str = "full"
    gat_heads: int = 1
    transformer_heads: int | None = None  # defaults to n_features
    encoder_hidden: int = 16
    decoder_widths: tuple[int, ...] = (64, 64)
    dropout: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.window < 1 or self.horizon < 1:
            raise ValueError("window and horizon must be at least 1")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; pick one of {VARIANTS}")
        if self.transformer_heads is None:
            self.transformer_heads = self.n_features
        self.decoder_widths = tuple(self.decoder_widths)
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")
        sizes = {"gat_heads": self.gat_heads, "transformer_heads": self.transformer_heads,
                 "encoder_hidden": self.encoder_hidden}
        sizes.update((f"decoder_widths[{i}]", w) for i, w in enumerate(self.decoder_widths))
        for name, size in sizes.items():
            if size < 1:
                raise ValueError(f"{name} must be at least 1, got {size}")

    @property
    def temporal_mode(self) -> str:
        """per_node when D >= 2, else flattened: width-1 layer norm would zero every slice."""
        return "per_node" if self.n_features > 1 else "flattened"


def build_window(data: np.ndarray, t, window: int) -> np.ndarray:
    """The `window` slices ending at timestep t, replicating slice 0 backwards.

    A scalar t gives one (K, N, D) window; an array of end timesteps gives
    (B, K, N, D).
    """
    t = np.asarray(t)
    n_steps = data.shape[0]
    bad = (t < 0) | (t >= n_steps)
    if bad.any():
        raise IndexError(f"timestep {t[bad].flat[0]} outside series of length {n_steps}")
    return data[np.maximum(t[..., None] + np.arange(1 - window, 1), 0)]


class RadNet:
    def __init__(self, config: RadNetConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        d = config.n_features
        d_model = config.n_nodes * d if config.temporal_mode == "flattened" else d

        gat = lambda: GatLayer(d, d, rng, config.gat_heads)
        # drawn in path order: gat_st, the ST block, the TS block, gat_ts
        self.gat_st = gat() if config.variant != "no_st" else None
        self.transformer = TransformerBlock(
            d_model, config.transformer_heads, rng, config.encoder_hidden, config.dropout,
            members=1 if config.variant in ("no_st", "no_ts") else 2,
        )
        self.gat_ts = gat() if config.variant != "no_ts" else None

        self.fusion = None
        if config.variant != "no_skip":
            n_mix = 3 if config.variant == "full" else 2
            self.fusion = Linear(config.n_nodes * d, n_mix, rng)

        self.decoder = FeedForward((d, *config.decoder_widths, d), rng)
        self.store = ParameterStore(named_parameters(self))

    # -- plumbing --------------------------------------------------------
    def count_parameters(self) -> int:
        return self.store.flat.size

    def parameter_ledger(self) -> list[tuple[str, tuple[int, ...], int]]:
        """Per-parameter (name, shape, size) rows; sizes sum to count_parameters()."""
        return [(n, p.shape, p.size) for n, p in self.store.params.items()]

    def save(self, stem: str | Path, extra_hyperparameters: dict | None = None) -> None:
        hyper = {"config": asdict(self.config), **(extra_hyperparameters or {})}
        save_checkpoint(stem, self.store, self.config.seed, hyper)

    @classmethod
    def load(cls, stem: str | Path) -> tuple["RadNet", dict]:
        flat, manifest = load_checkpoint(stem)
        hyper = manifest.get("hyperparameters")
        config = hyper.get("config") if isinstance(hyper, dict) else None
        if not isinstance(config, dict):
            raise FormatError(f"checkpoint manifest {Path(stem).with_suffix('.json')} "
                              f"has no hyperparameters.config object")
        unknown = sorted(set(config) - {f.name for f in fields(RadNetConfig)})
        if unknown:
            raise FormatError(f"checkpoint config has fields RadNetConfig lacks: {unknown}")
        model = cls(RadNetConfig(**config))
        layout = [(n, p.shape) for n, p in model.store.params.items()]
        saved = [(n, tuple(manifest["shapes"][n])) for n in manifest["names"]]
        if saved != layout:
            differ = sorted(set(saved) ^ set(layout)) or "their order"
            raise FormatError(f"checkpoint parameters disagree with the model: {differ}")
        model.store.flat[...] = flat
        return model, manifest

    # -- inference ---------------------------------------------------------
    def _check_graph(self, graph: RoadGraph) -> None:
        if graph.n_nodes != self.config.n_nodes:
            raise DimensionError(
                f"graph has {graph.n_nodes} nodes, model expects {self.config.n_nodes}"
            )

    def forward_batch(
        self,
        windows,
        graph: RoadGraph,
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> tuple[DiffArray, DiffArray | None]:
        """Run (B, K, N, D) windows; returns ((B, N, D) predictions, (B, k) weights)."""
        windows = _wrap(windows)
        cfg = self.config
        self._check_graph(graph)
        if windows.ndim != 4 or windows.shape[1:] != (
            cfg.window,
            cfg.n_nodes,
            cfg.n_features,
        ):
            raise DimensionError(
                f"expected (B, {cfg.window}, {cfg.n_nodes}, {cfg.n_features}) "
                f"windows, got {windows.shape}"
            )
        latest = windows[:, -1]  # (B, N, D)

        # the block's members: the graph-attended windows of the spatio-temporal
        # path, then the windows of the temporo-spatial path
        members = [] if self.gat_st is None else [self.gat_st(windows, graph)]
        if self.gat_ts is not None:
            members.append(windows)
        temporal = transformer_forward(self.transformer, stack(members),  # (S, B, K, N, D)
                                       training, rng)
        paths = [temporal[s] for s in range(len(members))]
        if self.gat_ts is not None:
            paths[-1] = self.gat_ts(paths[-1], graph)

        # the paths, then the latest slice, weighted by the (B, k) softmax of
        # the fusion logits; no_skip sums them unweighted
        logits = None
        if self.fusion is not None:
            logits = self.fusion(reshape(latest, (latest.shape[0], -1)))
        fused, weights = fuse(paths + [latest], logits)
        return self.decoder(fused), weights


def batch_loss(predictions: DiffArray, truths) -> DiffArray:
    """Mean per-sample Frobenius loss over a (B, N, D) batch."""
    truths = _wrap(truths)
    if predictions.shape != truths.shape:
        raise DimensionError(f"shape mismatch: {predictions.shape} vs {truths.shape}")
    return frobenius_loss(predictions, truths)


def rollout_autoregressive(
    model: RadNet,
    windows,
    horizon: int,
    graph: RoadGraph,
    truth: np.ndarray | None = None,
    teacher_force_p: float = 0.0,
    rng: np.random.Generator | None = None,
    training: bool = False,
) -> tuple[DiffArray, np.ndarray]:
    """Iterate a single-step model `horizon` steps ahead over (B, K, N, D) windows.

    Each step is one `forward_batch` call whose predictions are appended to
    the windows (dropping the oldest slice), one `shift_window` node. When
    `teacher_force_p` > 0, each intermediate step draws
    `rng.random(B) < teacher_force_p` and sample b's appended slice becomes
    the observation `truth[b, step]` where the draw is true; gradient flows
    only through the predictions kept. Returns the (B, N, D) predictions of
    the last step and the (B, horizon - 1) bool mask of forced slices.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    windows = _wrap(windows)
    batch = windows.shape[0]
    if truth is not None:
        truth = np.asarray(truth, dtype=np.float64)
        expected = (batch, horizon - 1, *windows.shape[2:])
        if truth.shape != expected:
            raise DimensionError(f"expected {expected} truth, got {truth.shape}")
    if teacher_force_p > 0.0 and (truth is None or rng is None):
        raise ValueError("teacher forcing needs ground-truth slices and an rng")
    forced = np.zeros((batch, horizon - 1), dtype=bool)
    for step in range(horizon - 1):
        preds, _ = model.forward_batch(windows, graph, training, rng)
        if teacher_force_p > 0.0:
            forced[:, step] = rng.random(batch) < teacher_force_p
            windows = shift_window(windows, preds, truth[:, step], forced[:, step])
        else:
            windows = shift_window(windows, preds)
    preds, _ = model.forward_batch(windows, graph, training, rng)
    return preds, forced
