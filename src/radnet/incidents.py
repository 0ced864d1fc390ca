"""Historical baselines, residual scores, and extreme-value thresholding.

The baseline for a timestep is the mean of every feature matrix in the fit
range sharing its weekday whose clock time differs by at most one interval.
The table of these means is built once; lookups take on-grid clocks only,
and a counter records those answered by a fallback slot.
Residual scores (Frobenius norm of baseline minus observed, network-wide;
row-wise Euclidean norm per link) are thresholded by a Generalized Pareto
tail model fitted over excesses above an initial empirical percentile, with
the final threshold at risk level q:

    phi = u + (sigma/gamma) * ((q*n/n_excess)^(-gamma) - 1)

degenerating to phi = u - sigma * ln(q*n/n_excess) as gamma -> 0. In dynamic
mode the counters update per score and the tail refits on a fixed cadence.

(gamma, sigma) is the maximum-likelihood fit to the n excesses y with gamma
boxed to [-0.5, 1]. With theta = gamma/sigma and gbar = mean(log1p(theta*y)),
the best gamma at fixed theta is clip(gbar, -0.5, 1), which profiles the
negative log-likelihood to one variable (Grimshaw 1993):

    P(theta) = n * (log(gamma/theta) + (1 + 1/gamma) * gbar),  theta > -1/max(y)

with the exponential limit P(0) = n * (log(mean(y)) + 1), and sigma = gamma/theta.

Baseline tables change only their fallback counter; each ThresholdState
belongs to a single stream and must not be shared across threads. Per-link
states are independent of each other.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import SECONDS_PER_DAY, FeatureSeries
from .errors import NumericError

MIN_EXCESSES = 50
GAMMA_MIN, GAMMA_MAX = -0.5, 1.0
GAMMA_ZERO_TOL = 1e-8
# Zoomed grid over x = log1p(theta * max y): each round keeps the two cells
# around the best point. x >= -30 holds every optimum for fewer than e^30
# excesses; x <= 60 allows gamma * max(y) / sigma up to e^60.
X_RANGE = (-30.0, 60.0)
X_GRID = 65
X_ROUNDS = 8


# ---------------------------------------------------------------------------
# historical baseline


class BaselineTable:
    """Pooled mean feature matrices on the grid of clocks `phase + k * delta_seconds`.

    `means[weekday, k]` is the pooled mean of `build_baseline`, or the
    nearest observed slot's mean where the pool is empty (`fallback`);
    `counts[weekday, k]` counts the fitted timesteps in slot k. The table is
    never changed after it is built: a lookup writes only to its fallback
    ledger, which marks each fallback cell looked up.
    """

    def __init__(self, delta_seconds: int, phase: int, counts: np.ndarray,
                 means: np.ndarray, fallback: np.ndarray):
        self.delta_seconds = delta_seconds
        self.phase = phase
        self.counts = counts  # (7, slots per day)
        self.means = means  # (7, slots per day, N, D)
        self.means.flags.writeable = False
        self.fallback = fallback  # (7, slots per day) cells with an empty pool
        self._looked_up = np.zeros_like(fallback)  # the fallback ledger

    @property
    def fallback_count(self) -> int:
        """Distinct fallback cells looked up so far."""
        return int(np.count_nonzero(self._looked_up))

    def keys(self) -> list[tuple[int, int]]:
        """Observed (weekday, clock-seconds) keys."""
        days, slots = np.nonzero(self.counts)
        return [(int(d), self.phase + int(k) * self.delta_seconds) for d, k in zip(days, slots)]

    def lookup(self, weekday, clock_s) -> np.ndarray:
        """Baseline for an on-grid (weekday, clock) pair, or for equal-shape arrays of them.

        Returns (..., N, D). A weekday outside 0-6, or a clock off the grid
        or outside the day, is a ValueError.
        """
        weekday, clock_s = np.asarray(weekday), np.asarray(clock_s)
        bad = (weekday < 0) | (weekday > 6)
        if bad.any():
            raise ValueError(f"weekday {weekday[bad].flat[0]} is outside 0-6 (Monday-Sunday)")
        offset = clock_s - self.phase
        bad = (offset % self.delta_seconds != 0) | (offset < 0) | (offset >= SECONDS_PER_DAY)
        if bad.any():
            raise ValueError(
                f"clock {clock_s[bad].flat[0]} s is off the table's {self.delta_seconds} s "
                f"grid (phase {self.phase} s) or outside the day"
            )
        slot = offset // self.delta_seconds
        fell_back = self.fallback[weekday, slot]
        self._looked_up[weekday[fell_back], slot[fell_back]] = True
        return self.means[weekday, slot]

    def for_series(self, series: FeatureSeries, timesteps) -> np.ndarray:
        """(len(timesteps), N, D) baselines aligned with the given timesteps."""
        timesteps = np.asarray(timesteps, dtype=int)
        return self.lookup(series.weekday(timesteps), series.clock_seconds(timesteps))


def build_baseline(series: FeatureSeries, fit_range) -> BaselineTable:
    """Pool the fit range's feature matrices by weekday and clock slot.

    Each cell's mean pools its weekday's slots k-1, k and k+1 (not wrapping
    midnight), summed as (s[k-1] + s[k]) + s[k+1]. Where that pool is empty
    the cell holds the mean of the nearest observed slot of its weekday, or
    of any weekday if its weekday was never seen; ties go to the lower
    weekday, then the earlier clock.
    """
    ts = np.asarray(fit_range, dtype=int)
    if ts.size == 0:
        raise ValueError("baseline fit range is empty")
    step = series.delta_seconds
    if SECONDS_PER_DAY % step != 0:
        raise ValueError(f"interval duration {step} s must divide a day evenly")
    cells = (series.weekday(ts), series.clock_seconds(ts) // step)
    sums = np.zeros((7, SECONDS_PER_DAY // step) + series.data.shape[1:])
    counts = np.zeros(sums.shape[:2], dtype=np.int64)
    np.add.at(sums, cells, series.data[ts])  # in fit-range order, like a running sum
    np.add.at(counts, cells, 1)

    def pool(a):
        out = a.copy()
        out[:, 1:] = a[:, :-1] + a[:, 1:]
        out[:, :-1] += a[:, 1:]
        return out

    pooled = pool(counts)
    fallback = pooled == 0
    means = pool(sums)
    np.divide(means, pooled[:, :, None, None], out=means, where=~fallback[:, :, None, None])
    if fallback.any():
        obs_days, obs_slots = np.nonzero(counts)
        want_days, want_slots = np.nonzero(fallback)
        dist = np.abs(want_slots[:, None] - obs_slots)
        # a weekday with any observed slot picks among its own slots only
        other_day = (obs_days != want_days[:, None]) & counts[want_days].any(axis=1)[:, None]
        near = np.where(other_day, dist.max() + 1, dist).argmin(axis=1)
        d, k = obs_days[near], obs_slots[near]
        means[want_days, want_slots] = sums[d, k] / counts[d, k][:, None, None]
    return BaselineTable(step, series.clock_seconds(0) % step, counts, means, fallback)


# ---------------------------------------------------------------------------
# residual scores


@dataclass
class ResidualScores:
    network: np.ndarray  # (M,) Frobenius norm per timestep
    per_link: np.ndarray  # (M, N) row-wise Euclidean norm


def residual_scores(baselines: np.ndarray, observed: np.ndarray) -> ResidualScores:
    baselines = np.asarray(baselines, dtype=np.float64)
    observed = np.asarray(observed, dtype=np.float64)
    if baselines.shape != observed.shape:
        raise ValueError(f"shape mismatch: {baselines.shape} vs {observed.shape}")
    sq = baselines - observed
    sq *= sq
    per_link = np.sqrt(sq.sum(axis=-1))
    network = np.sqrt(sq.sum(axis=(-2, -1)))
    return ResidualScores(network=network, per_link=per_link)


# ---------------------------------------------------------------------------
# Generalized Pareto fitting


def _profile(r: np.ndarray, x: np.ndarray):
    """Profile NLL / n at x = log1p(theta * max y), shifted by -log(max y).

    `r` is y / max(y). Returns (nll, theta * max y, clipped gamma, is-zero
    mask); where mean(log1p(theta * y)) is exactly zero the exponential
    limit stands in, so no 0/0 reaches the caller.
    """
    t = np.expm1(x)
    gbar = np.log1p(np.multiply.outer(t, r)).mean(axis=-1)
    gamma = np.clip(gbar, GAMMA_MIN, GAMMA_MAX)
    zero = gbar == 0.0
    g = np.where(zero, 1.0, gamma)
    nll = np.log(g / np.where(zero, 1.0, t)) + (1.0 + 1.0 / g) * gbar
    return np.where(zero, np.log(r.mean()) + 1.0, nll), t, gamma, zero


def gpd_fit(excesses: np.ndarray) -> tuple[float, float]:
    """Maximum-likelihood (gamma, sigma) with gamma boxed to [-0.5, 1].

    Minimizes the profile P(theta) of the module docstring on one zoomed grid
    over x = log1p(theta * max y), which maps theta > -1 / max y onto the
    real line.
    """
    y = np.asarray(excesses, dtype=np.float64)
    y = y[y > 0]
    if y.size == 0:
        raise ValueError("no positive excesses to fit")
    # Everything below sees y only through r = y / max y, so the fit is
    # scale-free: gpd_fit(s * y) = (gamma, s * sigma) for any positive s.
    m = y.max()
    r = y / m
    if y.size < 3 or y.min() == m:
        return 0.0, float(m * r.mean())
    lo, hi = X_RANGE
    for _ in range(X_ROUNDS):
        xs = np.linspace(lo, hi, X_GRID)
        nll, t, gamma, zero = _profile(r, xs)
        i = int(np.argmin(nll))
        lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, X_GRID - 1)]
    if zero[i]:
        return 0.0, float(m * r.mean())
    return float(gamma[i]), float(gamma[i] * m / t[i])


# ---------------------------------------------------------------------------
# threshold state


@dataclass
class PotConfig:
    percentile: float = 99.0
    risk_q: float = 1e-3
    delta_per_horizon: float = 0.5
    horizon_index: int = 0  # position on the horizon ladder (0 = shortest)
    dynamic: bool = True
    refit_every: int = 500

    @property
    def effective_percentile(self) -> float:
        return percentile_for_horizon(self.percentile, self.horizon_index, self.delta_per_horizon)


@dataclass
class ThresholdState:
    """Fitted tail model plus the dynamic threshold for one score stream."""

    u: float  # initial empirical threshold
    gamma: float
    sigma: float
    risk_q: float
    n: int  # scores observed
    n_excess: int
    threshold: float
    q0_percentile: float
    refit_every: int = PotConfig.refit_every
    degenerate: bool = False
    excesses: list = field(default_factory=list)
    _since_refit: int = 0

    def quantile(self) -> float:
        """Risk-level threshold from the current tail model and counters."""
        if self.n_excess == 0:
            return self.threshold
        r = self.risk_q * self.n / self.n_excess
        if abs(self.gamma) < GAMMA_ZERO_TOL:
            phi = self.u - self.sigma * np.log(r)
        else:
            phi = self.u + (self.sigma / self.gamma) * (r ** (-self.gamma) - 1.0)
        return float(max(phi, self.u))

    def observe(self, score: float) -> None:
        """Fold one new score into the counters; refit on cadence."""
        self.n += 1
        self._since_refit += 1
        if score > self.u:
            self.excesses.append(score - self.u)
            self.n_excess += 1
        if self._since_refit >= self.refit_every and self.n_excess > 0:
            self.gamma, self.sigma = gpd_fit(np.asarray(self.excesses))
            self._since_refit = 0
            self.degenerate = False
        if not self.degenerate:  # a pinned threshold waits for the first fit
            self.threshold = self.quantile()


def pot_fit(
    scores: np.ndarray,
    q0_percentile: float,
    risk_q: float = PotConfig.risk_q,
    refit_every: int = PotConfig.refit_every,
) -> ThresholdState:
    """Calibrate a ThresholdState on a batch of scores.

    The initial threshold u is the q0 empirical percentile; the Generalized
    Pareto tail is fitted to excesses above u. With no excesses the threshold
    is pinned just above the calibration maximum until the first refit.
    """
    if not 0.0 < risk_q < 1.0:
        raise ValueError(f"risk_q must lie in (0, 1), got {risk_q}")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("cannot calibrate on an empty score sequence")
    bad = int(np.count_nonzero(~np.isfinite(scores)))
    if bad:
        raise NumericError(f"{bad} of {scores.size} calibration scores are non-finite")
    u = float(np.percentile(scores, q0_percentile))
    excesses = scores[scores > u] - u
    state = ThresholdState(
        u=u,
        gamma=0.0,
        sigma=1.0,
        risk_q=risk_q,
        n=int(scores.size),
        n_excess=int(excesses.size),
        threshold=u,
        q0_percentile=q0_percentile,
        refit_every=refit_every,
    )
    if excesses.size == 0:
        warnings.warn("no excesses above the initial threshold; threshold "
                      "pinned just above the calibration maximum")
        state.degenerate = True
        state.threshold = float(scores.max() * (1.0 + 1e-6))
        return state
    if excesses.size < MIN_EXCESSES:
        warnings.warn(
            f"only {excesses.size} excesses (< {MIN_EXCESSES}); tail fit will be noisy"
        )
    state.excesses = list(excesses)
    state.gamma, state.sigma = gpd_fit(excesses)
    state.threshold = state.quantile()
    return state


def percentile_for_horizon(base_percentile: float, horizon_index: int, delta: float) -> float:
    """Initial percentile for the ladder of horizons: base - delta per step."""
    if horizon_index < 0:
        raise ValueError("horizon index must be non-negative")
    return base_percentile - delta * horizon_index


def label(
    scores: np.ndarray,
    state: ThresholdState,
    dynamic: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Indicator labels (score >= threshold) plus the thresholds applied.

    Dynamic mode streams each score into the state after labeling it, so
    the threshold adapts as the stream arrives. Static mode holds it fixed.
    Non-finite scores are refused before the state is touched.
    """
    scores = np.asarray(scores, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise NumericError(
            f"{bad.size} of {scores.size} scores are non-finite, first at index {bad[0]}"
        )
    labels = np.zeros(scores.shape, dtype=np.int8)
    thresholds = np.empty(scores.shape, dtype=np.float64)
    for i, s in enumerate(scores):
        thresholds[i] = state.threshold
        labels[i] = 1 if s >= state.threshold else 0
        if dynamic:
            state.observe(float(s))
    return labels, thresholds


def label_with_thresholds(scores: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Labels against an externally supplied threshold stream."""
    scores = np.asarray(scores, dtype=np.float64)
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if scores.shape != thresholds.shape:
        raise ValueError(f"shape mismatch: {scores.shape} vs {thresholds.shape}")
    return (scores >= thresholds).astype(np.int8)


# ---------------------------------------------------------------------------
# label bundles


@dataclass
class IncidentLabels:
    """Network-level and per-link labels over a span of target timesteps."""

    horizon: int
    timesteps: np.ndarray  # absolute target indices (t + horizon)
    network_scores: np.ndarray  # (M,)
    network_thresholds: np.ndarray
    network_labels: np.ndarray
    link_scores: np.ndarray  # (M, N)
    link_thresholds: np.ndarray
    link_labels: np.ndarray

    def to_csv(self, path: str | Path) -> None:
        """Rows `timestep,link_id,score,threshold,label`; link_id -1 is network level."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["timestep", "link_id", "score", "threshold", "label"])
            for i, t in enumerate(self.timesteps):
                writer.writerow(
                    [int(t), -1, f"{self.network_scores[i]:.10g}",
                     f"{self.network_thresholds[i]:.10g}", int(self.network_labels[i])]
                )
                for j in range(self.link_scores.shape[1]):
                    writer.writerow(
                        [int(t), j, f"{self.link_scores[i, j]:.10g}",
                         f"{self.link_thresholds[i, j]:.10g}", int(self.link_labels[i, j])]
                    )

    @classmethod
    def from_csv(cls, path: str | Path, horizon: int = 1) -> "IncidentLabels":
        rows = {}
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                t = int(row["timestep"])
                entry = rows.setdefault(t, {})
                entry[int(row["link_id"])] = (
                    float(row["score"]), float(row["threshold"]), int(row["label"])
                )
        ts = sorted(rows)
        n_links = max(max(k for k in rows[t] if k >= 0) for t in ts) + 1
        net = np.array([rows[t][-1] for t in ts])
        link = np.array([[rows[t][j] for j in range(n_links)] for t in ts])
        return cls(
            horizon=horizon,
            timesteps=np.array(ts, dtype=int),
            network_scores=net[:, 0],
            network_thresholds=net[:, 1],
            network_labels=net[:, 2].astype(np.int8),
            link_scores=link[:, :, 0],
            link_thresholds=link[:, :, 1],
            link_labels=link[:, :, 2].astype(np.int8),
        )
