"""Historical baselines, residual scores, and extreme-value thresholding.

The baseline for a timestep is the mean of every feature matrix in the fit
range sharing its weekday whose clock time differs by at most one interval.
Residual scores (Frobenius norm of baseline minus observed, network-wide;
row-wise Euclidean norm per link) are thresholded by a Generalized Pareto
tail model fitted over excesses above an initial empirical percentile, with
the final threshold at risk level q:

    phi = u + (sigma/gamma) * ((q*n/n_excess)^(-gamma) - 1)

degenerating to phi = u - sigma * ln(q*n/n_excess) as gamma -> 0. In dynamic
mode the counters update per score and the tail refits on a fixed cadence.

Baseline tables are immutable once built; each ThresholdState belongs to a
single stream and must not be shared across threads. Per-link states are
independent of each other.
"""

from __future__ import annotations

import csv
import logging
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import FeatureSeries
from .errors import NumericError

log = logging.getLogger("radnet.incidents")

MIN_EXCESSES = 50
GAMMA_GRID = np.linspace(-0.5, 1.0, 61)
GAMMA_ZERO_TOL = 1e-8


# ---------------------------------------------------------------------------
# historical baseline


class BaselineTable:
    """Mean feature matrix keyed by (weekday, clock-seconds)."""

    def __init__(self, delta_seconds: int):
        self.delta_seconds = delta_seconds
        self._sums: dict[tuple[int, int], np.ndarray] = {}
        self._counts: dict[tuple[int, int], int] = {}
        self._cache: dict[tuple[int, int], np.ndarray] = {}
        self.fallback_count = 0

    def add(self, weekday: int, clock_s: int, matrix: np.ndarray) -> None:
        key = (weekday, clock_s)
        if key in self._sums:
            self._sums[key] = self._sums[key] + matrix
            self._counts[key] += 1
        else:
            self._sums[key] = matrix.astype(np.float64).copy()
            self._counts[key] = 1
        self._cache.clear()

    def key_mean(self, weekday: int, clock_s: int) -> np.ndarray:
        return self._sums[(weekday, clock_s)] / self._counts[(weekday, clock_s)]

    def keys(self):
        return self._sums.keys()

    def count(self, weekday: int, clock_s: int) -> int:
        return self._counts.get((weekday, clock_s), 0)

    def lookup(self, weekday: int, clock_s: int) -> np.ndarray:
        """Pooled mean over same-weekday slots within one interval of clock_s.

        Unseen (weekday, slot) queries fall back to the nearest observed slot
        of that weekday (nearest slot of any weekday if the whole weekday is
        unseen), counting each fallback.
        """
        cache_key = (weekday, clock_s)
        hit = self._cache.get(cache_key)
        if hit is not None:
            return hit
        total = None
        count = 0
        for (d, c), s in self._sums.items():
            if d == weekday and abs(clock_s - c) <= self.delta_seconds:
                total = s if total is None else total + s
                count += self._counts[(d, c)]
        if count == 0:
            self.fallback_count += 1
            same_day = [(abs(clock_s - c), d, c) for (d, c) in self._sums if d == weekday]
            pool = same_day or [
                (abs(clock_s - c), d, c) for (d, c) in self._sums
            ]
            _, d, c = min(pool)
            out = self.key_mean(d, c)
        else:
            out = total / count
        self._cache[cache_key] = out
        return out

    def for_series(self, series: FeatureSeries, timesteps) -> np.ndarray:
        """(len(timesteps), N, D) baselines aligned with the given timesteps."""
        return np.stack(
            [self.lookup(series.weekday(int(t)), series.clock_seconds(int(t))) for t in timesteps]
        )


def build_baseline(series: FeatureSeries, fit_range) -> BaselineTable:
    """Accumulate the per-(weekday, clock-slot) means over `fit_range`."""
    fit_range = list(fit_range)
    if not fit_range:
        raise ValueError("baseline fit range is empty")
    table = BaselineTable(series.delta_seconds)
    for t in fit_range:
        t = int(t)
        table.add(series.weekday(t), series.clock_seconds(t), series.data[t])
    return table


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
    diff = baselines - observed
    per_link = np.sqrt((diff * diff).sum(axis=-1))
    network = np.sqrt((diff * diff).sum(axis=(-2, -1)))
    return ResidualScores(network=network, per_link=per_link)


# ---------------------------------------------------------------------------
# Generalized Pareto fitting


def _gpd_nll(y: np.ndarray, gamma: float, sigma: float) -> float:
    """Negative log-likelihood of excesses under GPD(gamma, sigma)."""
    n = y.size
    if sigma <= 0:
        return np.inf
    if abs(gamma) < 1e-12:
        return n * np.log(sigma) + y.sum() / sigma
    z = 1.0 + gamma * y / sigma
    if (z <= 0).any():
        return np.inf
    return n * np.log(sigma) + (1.0 + 1.0 / gamma) * np.log(z).sum()


def _golden_min(fn, lo: float, hi: float, iters: int = 60) -> float:
    """Golden-section minimum of a unimodal scalar function on [lo, hi]."""
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - ratio * (b - a)
    d = a + ratio * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = fn(d)
    return (a + b) / 2.0


def _moments_estimate(y: np.ndarray) -> tuple[float, float]:
    m = y.mean()
    v = y.var()
    if v <= 0:
        return 0.0, max(m, 1e-12)
    gamma = 0.5 * (1.0 - m * m / v)
    sigma = 0.5 * m * (m * m / v + 1.0)
    return float(gamma), float(max(sigma, 1e-12))


def _best_sigma(y: np.ndarray, gamma: float) -> float:
    """Sigma minimizing the NLL at fixed gamma (golden section in log space)."""
    m = max(y.mean(), 1e-12)
    lo = np.log(m) - 8.0
    if gamma < 0:
        # support requires sigma > -gamma * max(y)
        lo = max(lo, np.log(-gamma * y.max() * (1.0 + 1e-10)))
    hi = np.log(m) + 8.0
    if lo >= hi:
        return float(np.exp(hi))
    best = _golden_min(lambda ls: _gpd_nll(y, gamma, np.exp(ls)), lo, hi, iters=50)
    return float(np.exp(best))


def gpd_fit(excesses: np.ndarray) -> tuple[float, float]:
    """Maximum-likelihood (gamma, sigma) by a profile search over gamma.

    Grid over gamma in [-0.5, 1.0], the scale solved per grid point, then
    golden-section refinement of gamma around the best bracket. Falls back to
    the method-of-moments estimate if no finite likelihood is found.
    """
    y = np.asarray(excesses, dtype=np.float64)
    y = y[y > 0]
    if y.size == 0:
        raise ValueError("no positive excesses to fit")
    if y.size < 3 or y.var() == 0.0:
        return 0.0, float(max(y.mean(), 1e-12))

    def profile(gamma: float) -> tuple[float, float]:
        sigma = _best_sigma(y, gamma)
        return _gpd_nll(y, gamma, sigma), sigma

    best_gamma, best_sigma, best_nll = None, None, np.inf
    values = []
    for gamma in GAMMA_GRID:
        nll, sigma = profile(gamma)
        values.append(nll)
        if nll < best_nll:
            best_gamma, best_sigma, best_nll = gamma, sigma, nll
    if not np.isfinite(best_nll):
        log.warning("profile likelihood non-finite everywhere; using moments")
        return _moments_estimate(y)

    idx = int(np.argmin(values))
    lo = GAMMA_GRID[max(idx - 1, 0)]
    hi = GAMMA_GRID[min(idx + 1, len(GAMMA_GRID) - 1)]
    refined = _golden_min(lambda g: profile(g)[0], lo, hi, iters=40)
    nll, sigma = profile(refined)
    if nll <= best_nll:
        best_gamma, best_sigma = refined, sigma
    return float(best_gamma), float(best_sigma)


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
    falls back to just above the calibration maximum.
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
