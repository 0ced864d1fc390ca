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
mode n and n_excess count the stream too and the tail refits on a fixed
cadence; the stream is computed in closed form between refits.

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
import io
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import files
from .data import SECONDS_PER_DAY, FeatureSeries
from .errors import FormatError, NumericError

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

        Returns (..., N, D). A weekday or clock that is not an integer, a
        weekday outside 0-6, or a clock off the grid or outside the day, is a
        ValueError.
        """
        weekday, clock_s = np.asarray(weekday), np.asarray(clock_s)
        for name, value in (("weekday", weekday), ("clock", clock_s)):
            if value.dtype.kind not in "iu":
                raise ValueError(f"{name} must be an integer, got dtype {value.dtype}")
        bad = (weekday < 0) | (weekday > 6)
        if bad.any():
            raise ValueError(f"weekday {weekday[bad].flat[0]} is outside 0-6 (Monday-Sunday)")
        offset = clock_s.astype(np.int64) - self.phase  # no narrow-dtype overflow
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

    def __post_init__(self):
        for name, rule, ok in (
            ("percentile", "lie in (0, 100)", 0.0 < self.percentile < 100.0),
            ("risk_q", "lie in (0, 1)", 0.0 < self.risk_q < 1.0),
            ("refit_every", "be at least 1", self.refit_every >= 1),
            ("horizon_index", "be >= 0", self.horizon_index >= 0),
            ("delta_per_horizon", "be >= 0", self.delta_per_horizon >= 0.0),
            ("effective_percentile", "be positive", self.effective_percentile > 0.0),
        ):
            if not ok:
                raise ValueError(f"{name} must {rule}, got {getattr(self, name)}")

    @property
    def effective_percentile(self) -> float:
        """Initial percentile on the ladder of horizons: base - delta per step."""
        return self.percentile - self.delta_per_horizon * self.horizon_index


def quantile(u, gamma, sigma, risk_q, n, n_excess):
    """Threshold phi of the module docstring, floored at u; counts may be arrays."""
    r = risk_q * n / n_excess
    if abs(gamma) < GAMMA_ZERO_TOL:
        phi = u - sigma * np.log(r)
    else:
        # expm1 spares r**-gamma - 1 its cancellation at small gamma, so the
        # array and the scalar forms round alike
        phi = u + sigma * np.expm1(-gamma * np.log(r)) / gamma
    return np.maximum(phi, u)


@dataclass
class ThresholdState:
    """Fitted tail model plus the dynamic threshold for one score stream."""

    u: float  # initial empirical threshold
    gamma: float
    sigma: float
    risk_q: float
    n: int  # scores observed
    threshold: float
    n_at_fit: int  # n when the refit cadence last restarted: calibration or refit
    refit_every: int = PotConfig.refit_every
    degenerate: bool = False
    excesses: np.ndarray = field(default_factory=lambda: np.empty(0))  # one per excess, in order


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
    if refit_every < 1:
        raise ValueError(f"refit_every must be at least 1, got {refit_every}")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("cannot calibrate on an empty score sequence")
    bad = int(np.count_nonzero(~np.isfinite(scores)))
    if bad:
        raise NumericError(f"{bad} of {scores.size} calibration scores are non-finite")
    u = float(np.percentile(scores, q0_percentile))
    excesses = scores[scores > u] - u
    state = ThresholdState(
        u=u, gamma=0.0, sigma=1.0, risk_q=risk_q, n=scores.size, threshold=u,
        n_at_fit=scores.size, refit_every=refit_every, excesses=excesses,
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
    state.gamma, state.sigma = gpd_fit(excesses)
    state.threshold = float(quantile(u, state.gamma, state.sigma, risk_q, state.n, excesses.size))
    return state


def label(
    scores: np.ndarray,
    state: ThresholdState,
    dynamic: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Indicator labels (score >= threshold) plus the thresholds applied.

    Static mode holds the threshold fixed. Dynamic mode counts each score
    into the state after labeling it; between refits the threshold is the
    quantile at the cumulative (n, n_excess), which labels never change, so
    the stream is computed in closed form. Refits come `refit_every` scores
    after the last fit, deferred while n_excess is 0; a pinned (degenerate)
    threshold waits for the first. The state ends as a score-by-score pass
    leaves it. Non-finite scores are refused before the state is touched.
    """
    scores = np.asarray(scores, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise NumericError(
            f"{bad.size} of {scores.size} scores are non-finite, first at index {bad[0]}"
        )
    if not dynamic or scores.size == 0:
        thresholds = np.full(scores.shape, state.threshold)
        return (scores >= thresholds).astype(np.int8), thresholds
    m = scores.size
    above = scores > state.u
    new_excess = np.cumsum(above)
    n = state.n + np.arange(1, m + 1)  # counts once each score is in
    n_excess = len(state.excesses) + new_excess
    excesses = np.concatenate([state.excesses, scores[above] - state.u])
    due = state.refit_every - (state.n - state.n_at_fit) - 1
    first = max(due, int(np.argmax(n_excess > 0)), 0) if n_excess[-1] else m
    refits = np.arange(first, m, state.refit_every)  # indices of the scores that trigger a refit
    fits = [(state.gamma, state.sigma)]
    fits += [gpd_fit(excesses[: n_excess[i]]) for i in refits]
    # after[i] is the threshold once score i is in; a prefix holds the old one
    bounds = [0, *refits, m]
    held = bounds[1] if state.degenerate else int(np.count_nonzero(n_excess == 0))
    after = np.full(m, state.threshold)
    for (lo, hi), (gamma, sigma) in zip(zip(bounds, bounds[1:]), fits):
        lo = max(lo, held)
        if lo < hi:
            after[lo:hi] = quantile(state.u, gamma, sigma, state.risk_q, n[lo:hi], n_excess[lo:hi])
    thresholds = np.concatenate([[state.threshold], after[:-1]])
    state.n, state.excesses = int(n[-1]), excesses
    state.gamma, state.sigma = fits[-1]
    state.threshold = float(after[-1])
    if refits.size:
        state.n_at_fit = int(n[refits[-1]])
        state.degenerate = False
    return (scores >= thresholds).astype(np.int8), thresholds


def label_with_thresholds(scores: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Labels against an externally supplied threshold stream."""
    scores = np.asarray(scores, dtype=np.float64)
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if scores.shape != thresholds.shape:
        raise ValueError(f"shape mismatch: {scores.shape} vs {thresholds.shape}")
    return (scores >= thresholds).astype(np.int8)


# ---------------------------------------------------------------------------
# label bundles


LABEL_COLUMNS = ["timestep", "link_id", "score", "threshold", "label"]


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

        def rows():
            for i, t in enumerate(self.timesteps):
                yield [int(t), -1, f"{self.network_scores[i]:.10g}",
                       f"{self.network_thresholds[i]:.10g}", int(self.network_labels[i])]
                for j in range(self.link_scores.shape[1]):
                    yield [int(t), j, f"{self.link_scores[i, j]:.10g}",
                           f"{self.link_thresholds[i, j]:.10g}", int(self.link_labels[i, j])]

        files.write_csv(path, LABEL_COLUMNS, rows())

    @classmethod
    def from_csv(cls, path: str | Path, horizon: int = 1) -> "IncidentLabels":
        """Read what `to_csv` wrote. A missing file, a missing column, no rows, an
        unparsable or repeated row or a timestep without its network row or one
        of its links is a `FormatError` naming the file (and the line, for a row)."""
        text = files.read_bytes(path, "incident label file").decode("utf-8")
        reader = csv.DictReader(io.StringIO(text, newline=""))
        missing = [c for c in LABEL_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise FormatError(f"incident label file {path} has no {', '.join(missing)} column")
        rows = {}
        for row in reader:
            try:
                t, link = int(row["timestep"]), int(row["link_id"])
                if link < -1:
                    raise ValueError(f"link_id {link} is below -1")
                entry = (float(row["score"]), float(row["threshold"]), int(row["label"]))
                if link in rows.get(t, ()):
                    raise ValueError(f"a second row for timestep {t}, link_id {link}")
            except (TypeError, ValueError) as exc:  # a short row reads its missing cells as None
                raise FormatError(
                    f"incident label file {path} line {reader.line_num}: {exc}"
                ) from exc
            rows.setdefault(t, {})[link] = entry
        if not rows:
            raise FormatError(f"incident label file {path} holds no rows")
        ts = sorted(rows)
        n_links = max(1, 1 + max(k for t in ts for k in rows[t]))
        for t in ts:
            if len(rows[t]) < n_links + 1:
                j = min(set(range(-1, n_links)) - rows[t].keys())
                which = "network row (link_id -1)" if j < 0 else f"row for link_id {j}"
                raise FormatError(f"incident label file {path} has no {which} at timestep {t}")
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
