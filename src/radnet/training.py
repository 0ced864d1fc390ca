"""Training loop: contiguous temporal folds, z-score normalization fitted on
the training split, AdamW over shuffled window batches, early stopping on
validation loss, best-validation checkpoint restore.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import files
from .data import FeatureSeries
from .errors import NumericError
from .graph import RoadGraph
from .model import RadNet, batch_loss, build_window, rollout_autoregressive
from .optim import AdamW
from .tensor import no_grad

log = logging.getLogger("radnet.training")


@dataclass
class TrainConfig:
    lr: float = 5e-4
    weight_decay: float = 1e-5
    max_epochs: int = 60
    patience: int = 10
    folds: int = 5
    batch: int = 32
    seed: int = 0
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    # > 0 trains a single-step model through an autoregressive rollout of
    # this many steps, with ground truth substituted per intermediate step
    # at `teacher_forcing_p`.
    autoregressive_horizon: int = 0
    teacher_forcing_p: float = 0.2

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")
        if self.folds < 2:
            raise ValueError("need at least 2 folds")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be at least 1, got {self.max_epochs}")
        if not 0.0 <= self.teacher_forcing_p <= 1.0:
            raise ValueError(f"teacher_forcing_p must lie in [0, 1], got {self.teacher_forcing_p}")
        if self.autoregressive_horizon < 0:
            raise ValueError(
                f"autoregressive_horizon must be >= 0, got {self.autoregressive_horizon}"
            )
        if self.batch < 1:
            raise ValueError(f"batch must be at least 1, got {self.batch}")
        self.betas = tuple(self.betas)
        if not all(0.0 <= beta < 1.0 for beta in self.betas):
            raise ValueError(f"betas must each lie in [0, 1), got {self.betas}")
        if not self.eps > 0.0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if not self.weight_decay >= 0.0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")

    @classmethod
    def from_dict(cls, raw: dict) -> "TrainConfig":
        return cls(**raw)


@dataclass
class Fold:
    """One cross-validation split: a contiguous validation block.

    A sample index t means "window ending at t, target at t + horizon".
    Samples whose window or target indices straddle the split boundary are
    assigned to neither side.
    """

    index: int
    val_range: range
    train_ranges: list[range]
    train_samples: np.ndarray
    val_samples: np.ndarray


def split_folds(n_steps: int, folds: int, window: int, horizon: int) -> list[Fold]:
    """Contiguous temporal folds; every timestep validates in exactly one."""
    if n_steps < folds * (window + horizon):
        raise ValueError(
            f"series of {n_steps} steps too short for {folds} folds of "
            f"window {window} + horizon {horizon}"
        )
    edges = np.linspace(0, n_steps, folds + 1).astype(int)
    # sample t reads the contiguous steps [lo, hi]
    t = np.arange(n_steps - horizon)
    lo, hi = np.maximum(t - window + 1, 0), t + horizon
    out = []
    for k in range(folds):
        a, b = edges[k], edges[k + 1]
        train = [r for r in (range(0, a), range(b, n_steps)) if len(r)]
        out.append(
            Fold(
                index=k,
                val_range=range(a, b),
                train_ranges=train,
                train_samples=t[(hi < a) | (lo >= b)],
                val_samples=t[(lo >= a) & (hi < b)],
            )
        )
    return out


class Normalizer:
    """Per-feature z-score fitted on the training split only."""

    def __init__(self, mean: np.ndarray, std: np.ndarray):
        self.mean = np.asarray(mean, dtype=np.float64)
        self.std = np.maximum(np.asarray(std, dtype=np.float64), 1e-8)

    @classmethod
    def fit(cls, data: np.ndarray, timesteps) -> "Normalizer":
        sub = data[np.asarray(timesteps, dtype=int)]
        return cls(sub.mean(axis=(0, 1)), sub.std(axis=(0, 1)))

    def transform(self, data: np.ndarray) -> np.ndarray:
        return (data - self.mean) / self.std

    def inverse(self, data: np.ndarray) -> np.ndarray:
        return data * self.std + self.mean

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, raw: dict) -> "Normalizer":
        return cls(np.array(raw["mean"]), np.array(raw["std"]))


@dataclass
class TrainResult:
    history: list[tuple[int, float, float]]  # (epoch, train_loss, val_loss)
    best_epoch: int
    best_val_loss: float
    best_val_mse: float
    stopped_epoch: int
    stopped_by: str  # "patience" or "max_epochs"
    normalizer: Normalizer
    fold_index: int


def _validation_losses(
    model: RadNet,
    data: np.ndarray,
    samples: np.ndarray,
    graph: RoadGraph,
    chunk: int = 128,
) -> tuple[float, float]:
    """(mean per-sample norm loss, mean squared error) over `samples`."""
    cfg = model.config
    total_norm = 0.0
    total_sq = 0.0
    n_cells = 0
    with no_grad():
        for lo in range(0, len(samples), chunk):
            ts = samples[lo : lo + chunk]
            windows = build_window(data, ts, cfg.window)
            targets = data[ts + cfg.horizon]
            preds, _ = model.forward_batch(windows, graph)
            diff = preds.values - targets
            total_norm += np.sqrt((diff * diff).sum(axis=(1, 2))).sum()
            total_sq += (diff * diff).sum()
            n_cells += diff.size
    return total_norm / len(samples), total_sq / n_cells


def train(
    model: RadNet,
    series: FeatureSeries,
    graph: RoadGraph,
    cfg: TrainConfig,
    timesteps: np.ndarray | None = None,
) -> TrainResult:
    """Fit `model` in place; returns curves plus the fitted normalizer.

    `timesteps` restricts training to a contiguous index range of the series
    (e.g. the pre-test split); folds are carved from whatever remains, and
    the last fold's block is the validation set.
    """
    mcfg = model.config
    if cfg.autoregressive_horizon and mcfg.horizon != 1:
        raise ValueError(
            f"autoregressive_horizon={cfg.autoregressive_horizon} rolls out a single-step "
            f"model, but the model's horizon is {mcfg.horizon}"
        )
    data_all = series.data
    if timesteps is None:
        timesteps = np.arange(series.n_steps)
    timesteps = np.asarray(timesteps, dtype=int)
    local = data_all[timesteps]
    n_local = len(timesteps)

    # a horizon-h model forecasts t + h in one step; autoregressive training
    # rolls a single-step model out to t + autoregressive_horizon instead
    rollout = cfg.autoregressive_horizon or 1
    target_offset = cfg.autoregressive_horizon or mcfg.horizon
    fold = split_folds(n_local, cfg.folds, mcfg.window, target_offset)[-1]
    normalizer = Normalizer.fit(local, [t for r in fold.train_ranges for t in r])
    data = normalizer.transform(local)

    rng = np.random.default_rng(cfg.seed)
    flat = model.store.flat
    opt = AdamW(model.store, lr=cfg.lr, betas=cfg.betas, eps=cfg.eps,
                weight_decay=cfg.weight_decay)

    best = flat.copy()
    best_loss, best_epoch, best_mse = np.inf, -1, np.inf
    history: list[tuple[int, float, float]] = []
    train_samples = fold.train_samples.copy()
    if len(train_samples) == 0 or len(fold.val_samples) == 0:
        raise ValueError("fold has no usable training or validation samples")

    stopped_by = "max_epochs"
    for epoch in range(cfg.max_epochs):
        rng.shuffle(train_samples)
        epoch_loss = 0.0
        for lo in range(0, len(train_samples), cfg.batch):
            ts = train_samples[lo : lo + cfg.batch]
            windows = build_window(data, ts, mcfg.window)
            truth = data[ts[:, None] + np.arange(1, rollout)]
            preds, _ = rollout_autoregressive(
                model, windows, rollout, graph, truth, cfg.teacher_forcing_p, rng,
                training=True,
            )
            value = batch_loss(preds, data[ts + target_offset])
            if np.isnan(value.values):
                raise NumericError(
                    f"NaN training loss (lr={cfg.lr}, epoch={epoch}, "
                    f"step={lo // cfg.batch}, first window index={ts[0]})"
                )
            model.store.grad.fill(0.0)
            value.backward()
            opt.step()
            epoch_loss += float(value.values) * len(ts)
        epoch_loss /= len(train_samples)

        val_loss, val_mse = _validation_losses(model, data, fold.val_samples, graph)
        history.append((epoch, epoch_loss, val_loss))
        log.debug("epoch %d train %.5f val %.5f", epoch, epoch_loss, val_loss)
        if val_loss < best_loss:
            best, best_loss, best_epoch, best_mse = flat.copy(), val_loss, epoch, val_mse
        # stop after `patience` epochs without improvement (a NaN loss never improves)
        if epoch - best_epoch >= cfg.patience:
            stopped_by = "patience"
            break

    if best_epoch < 0:
        raise NumericError(
            f"validation loss was not finite in any of the {len(history)} "
            f"epochs run (lr={cfg.lr})"
        )
    flat[...] = best
    return TrainResult(
        history=history,
        best_epoch=best_epoch,
        best_val_loss=best_loss,
        best_val_mse=best_mse,
        stopped_epoch=epoch,
        stopped_by=stopped_by,
        normalizer=normalizer,
        fold_index=fold.index,
    )


def write_loss_csv(path: str | Path, history: list[tuple[int, float, float]]) -> None:
    files.write_csv(path, ["epoch", "train_loss", "val_loss"],
                    ([epoch, f"{tr:.10g}", f"{va:.10g}"] for epoch, tr, va in history))
