"""Baseline brute-force oracle, residual formulas, GPD recovery, labeling."""

import warnings

import numpy as np
import pytest

import radnet.incidents as incidents
from radnet.data import FeatureSeries, IncidentSpec, synth_traffic
from radnet.errors import NumericError
from radnet.incidents import (
    IncidentLabels,
    PotConfig,
    ThresholdState,
    build_baseline,
    gpd_fit,
    label,
    label_with_thresholds,
    percentile_for_horizon,
    pot_fit,
    residual_scores,
)
from radnet.pipeline import fit_threshold_states, generate_ground_truth, split_train_test


def gpd_draws(gamma, sigma, n, seed):
    u = np.random.default_rng(seed).random(n)
    if gamma == 0:
        return -sigma * np.log(1 - u)
    return sigma / gamma * ((1 - u) ** (-gamma) - 1)


def gpd_nll(y, gamma, sigma):
    """GPD negative log-likelihood; inf outside the support."""
    if sigma <= 0:
        return np.inf
    if abs(gamma) < 1e-12:
        return y.size * np.log(sigma) + y.sum() / sigma
    z = 1.0 + gamma * y / sigma
    if (z <= 0).any():
        return np.inf
    return y.size * np.log(sigma) + (1.0 + 1.0 / gamma) * np.log(z).sum()


def _golden_min(fn, lo, hi, iters):
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - ratio * (b - a), a + ratio * (b - a)
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


def nested_search_fit(excesses):
    """The nested profile search gpd_fit used before the theta profile.

    A 61-point gamma grid on [-0.5, 1] with a golden-section log-sigma search
    per point, bracketed to log(mean y) +- 8, then golden-section refinement
    of gamma around the best grid point. Kept as the equivalence reference.
    """
    y = np.asarray(excesses, dtype=np.float64)
    y = y[y > 0]
    grid = np.linspace(-0.5, 1.0, 61)

    def best_sigma(gamma):
        m = max(y.mean(), 1e-12)
        lo, hi = np.log(m) - 8.0, np.log(m) + 8.0
        if gamma < 0:
            lo = max(lo, np.log(-gamma * y.max() * (1.0 + 1e-10)))
        if lo >= hi:
            return float(np.exp(hi))
        return float(np.exp(_golden_min(lambda ls: gpd_nll(y, gamma, np.exp(ls)), lo, hi, 50)))

    def profile(gamma):
        sigma = best_sigma(gamma)
        return gpd_nll(y, gamma, sigma), sigma

    values = [profile(g) for g in grid]
    idx = int(np.argmin([v[0] for v in values]))
    best_gamma, (best_nll, best_sig) = grid[idx], values[idx]
    lo, hi = grid[max(idx - 1, 0)], grid[min(idx + 1, len(grid) - 1)]
    refined = _golden_min(lambda g: profile(g)[0], lo, hi, 40)
    nll, sigma = profile(refined)
    if nll <= best_nll:
        best_gamma, best_sig = refined, sigma
    return float(best_gamma), float(best_sig)


def box_grid_min_nll(y, n_gamma=301, n_sigma=601):
    """Minimum NLL over a dense (gamma, log sigma) grid on the gamma box."""
    log_sigma = np.linspace(np.log(y.min()) - 2.0, np.log(y.max()) + 2.0, n_sigma)
    sigma = np.exp(log_sigma)[:, None]
    best = np.inf
    for gamma in np.linspace(-0.5, 1.0, n_gamma):
        if abs(gamma) < 1e-12:
            nll = y.size * log_sigma + (y / sigma).sum(axis=1)
        else:
            z = 1.0 + gamma * y / sigma
            ok = (z > 0).all(axis=1)
            logs = np.log(np.where(z > 0, z, 1.0)).sum(axis=1)
            nll = np.where(ok, y.size * log_sigma + (1.0 + 1.0 / gamma) * logs, np.inf)
        best = min(best, float(nll.min()))
    return best


class DictBaseline:
    """The per-key dictionary baseline the dense table replaced, as reference."""

    def __init__(self, delta_seconds):
        self.delta_seconds = delta_seconds
        self.sums, self.counts, self.cache = {}, {}, {}
        self.fallback_count = 0

    def add(self, weekday, clock_s, matrix):
        key = (weekday, clock_s)
        if key in self.sums:
            self.sums[key] = self.sums[key] + matrix
            self.counts[key] += 1
        else:
            self.sums[key] = matrix.astype(np.float64).copy()
            self.counts[key] = 1
        self.cache.clear()

    def lookup(self, weekday, clock_s):
        key = (weekday, clock_s)
        if key in self.cache:
            return self.cache[key]
        total, count = None, 0
        for (d, c), s in self.sums.items():
            if d == weekday and abs(clock_s - c) <= self.delta_seconds:
                total = s if total is None else total + s
                count += self.counts[(d, c)]
        if count == 0:
            self.fallback_count += 1
            same_day = [(abs(clock_s - c), d, c) for (d, c) in self.sums if d == weekday]
            _, d, c = min(same_day or [(abs(clock_s - c), d, c) for (d, c) in self.sums])
            out = self.sums[(d, c)] / self.counts[(d, c)]
        else:
            out = total / count
        self.cache[key] = out
        return out


@pytest.mark.filterwarnings("ignore:fewer than 8 days")
class TestBaseline:
    def test_constant_series(self):
        series, _, _ = synth_traffic(3, 9, noise=0.0, seed=0)
        series.data[...] = 4.2
        table = build_baseline(series, range(series.n_steps))
        for t in (0, 100, 500):
            np.testing.assert_array_equal(
                table.lookup(series.weekday(t), series.clock_seconds(t)),
                np.full((3, 1), 4.2),
            )

    def test_single_observation_slot(self):
        series, _, _ = synth_traffic(2, 9, seed=1)
        table = build_baseline(series, [10])
        got = table.lookup(series.weekday(10), series.clock_seconds(10))
        np.testing.assert_array_equal(got, series.data[10])

    def test_matches_brute_force_enumeration(self):
        # Two weeks at 5-minute intervals, every key vs direct evaluation of
        # the matching condition (same weekday, clock within one interval).
        series, _, _ = synth_traffic(2, 14, delta_seconds=300, noise=0.05, seed=2)
        fit = range(series.n_steps)
        table = build_baseline(series, fit)
        delta = series.delta_seconds
        meta = [(series.weekday(u), series.clock_seconds(u)) for u in fit]
        rng = np.random.default_rng(3)
        for t in rng.choice(series.n_steps, size=40, replace=False):
            d_t, c_t = series.weekday(int(t)), series.clock_seconds(int(t))
            matches = [
                series.data[u]
                for u in fit
                if meta[u][0] == d_t and abs(c_t - meta[u][1]) <= delta
            ]
            brute = np.mean(matches, axis=0)
            got = table.lookup(d_t, c_t)
            np.testing.assert_allclose(got, brute, rtol=1e-12, atol=1e-12)

    def test_unseen_slot_falls_back_with_counter(self):
        series, _, _ = synth_traffic(2, 9, seed=4)
        table = build_baseline(series, range(0, 50))  # a few hours of Monday
        monday = series.weekday(0)
        assert table.fallback_count == 0
        table.lookup(monday, 79800)  # late-evening slot never observed
        assert table.fallback_count == 1
        # nearest observed Monday slot is the last fitted one, seen once
        np.testing.assert_array_equal(table.lookup(monday, 79800), series.data[49])
        assert table.fallback_count == 1

    @pytest.mark.parametrize(
        "days, start_epoch, fit",
        [(14, 4 * 86400, slice(None)),          # every key, fitted from Monday midnight
         (9, 4 * 86400 + 170, slice(150, 900)),  # off-midnight grid, fit from mid-day
         (9, 6 * 86400, slice(0, 40))],          # a few hours: fallbacks everywhere
        ids=["full", "phase-midday", "sparse"],
    )
    def test_matches_dict_reference(self, days, start_epoch, fit):
        series, _, _ = synth_traffic(3, days, n_features=2, seed=6, start_epoch=start_epoch)
        table, ref = build_baseline(series, range(series.n_steps)[fit]), DictBaseline(300)
        for t in range(series.n_steps)[fit]:
            ref.add(series.weekday(t), series.clock_seconds(t), series.data[t])
        assert sorted(table.keys()) == sorted(ref.sums)
        rng = np.random.default_rng(7)
        phase = start_epoch % 300
        queries = [(d, phase + k * 300) for d in range(7) for k in range(288)]
        queries += [(int(d), phase + int(k) * 300) for d, k in zip(rng.integers(0, 7, 200),
                                                                   rng.integers(0, 288, 200))]
        for d, c in queries + queries[::7]:  # repeats must not count twice
            np.testing.assert_array_equal(table.lookup(d, c), ref.lookup(d, c))
        assert table.fallback_count == ref.fallback_count
        assert (table.fallback_count > 0) == (fit != slice(None))

    def test_grid_is_enforced(self):
        series = FeatureSeries(np.zeros((4, 2, 1)), 0, 7 * 3600, ["flow"])
        with pytest.raises(ValueError, match="divide a day"):
            build_baseline(series, range(4))
        with pytest.raises(ValueError, match="empty"):
            build_baseline(synth_traffic(2, 2, seed=0)[0], [])

    def test_off_grid_or_outside_day_clock_raises(self):
        # phase 170 s: the grid is 170, 470, ..., 86270
        series = synth_traffic(2, 2, seed=0, start_epoch=4 * 86400 + 170)[0]
        table = build_baseline(series, range(series.n_steps))
        table.lookup(0, 86270)
        for clock in (0, 300, 171, -130, 86470, 86570):
            with pytest.raises(ValueError, match=f"clock {clock} s is off the table"):
                table.lookup(0, clock)
        with pytest.raises(ValueError, match="clock 471 s "):
            table.lookup(np.zeros(3, dtype=int), np.array([170, 471, 86400]))

    def test_weekday_outside_week_raises(self):
        series = synth_traffic(2, 9, seed=0)[0]
        table = build_baseline(series, range(series.n_steps))
        for day in (-1, 7):
            with pytest.raises(ValueError, match=f"weekday {day} is outside 0-6"):
                table.lookup(day, 0)
        with pytest.raises(ValueError, match="weekday 9 is outside"):
            table.lookup(np.array([0, 9, -2]), np.zeros(3, dtype=int))

    def test_array_lookup_equals_scalar_lookups(self):
        series, _, _ = synth_traffic(3, 9, n_features=2, seed=8)
        table = build_baseline(series, range(40, 700))  # fallbacks on most weekdays
        rng = np.random.default_rng(9)
        days = rng.integers(0, 7, size=(4, 50))
        clocks = rng.integers(0, 288, size=(4, 50)) * 300
        got = table.lookup(days, clocks)
        assert got.shape == (4, 50, 3, 2)
        counted = table.fallback_count
        assert counted > 0
        for idx in np.ndindex(days.shape):
            np.testing.assert_array_equal(got[idx], table.lookup(days[idx], clocks[idx]))
        assert table.fallback_count == counted

    def test_unseen_weekday_falls_back_globally(self):
        series, _, _ = synth_traffic(2, 9, seed=5)
        table = build_baseline(series, range(0, 50))
        out = table.lookup((series.weekday(0) + 3) % 7, 0)
        assert out.shape == (2, 1)
        assert table.fallback_count == 1


class TestResiduals:
    def test_zero_when_equal(self):
        x = np.random.default_rng(6).normal(size=(5, 3, 2))
        scores = residual_scores(x, x)
        np.testing.assert_array_equal(scores.network, np.zeros(5))
        np.testing.assert_array_equal(scores.per_link, np.zeros((5, 3)))

    def test_single_link_deviation(self):
        base = np.zeros((1, 4, 2))
        obs = base.copy()
        obs[0, 2, 1] = 3.0
        scores = residual_scores(base, obs)
        assert scores.network[0] == pytest.approx(3.0)
        np.testing.assert_allclose(scores.per_link[0], [0.0, 0.0, 3.0, 0.0])

    def test_matches_independent_norms(self):
        rng = np.random.default_rng(7)
        b, x = rng.normal(size=(6, 3, 2)), rng.normal(size=(6, 3, 2))
        scores = residual_scores(b, x)
        for i in range(6):
            assert scores.network[i] == pytest.approx(np.linalg.norm(b[i] - x[i]))
            for j in range(3):
                assert scores.per_link[i, j] == pytest.approx(
                    np.linalg.norm(b[i, j] - x[i, j])
                )


class TestGpdFit:
    def test_recovers_synthetic_parameters(self):
        y = gpd_draws(0.1, 2.0, 20000, seed=8)
        gamma, sigma = gpd_fit(y)
        assert 0.05 <= gamma <= 0.15
        assert 1.9 <= sigma <= 2.1

    def test_negative_shape(self):
        y = gpd_draws(-0.2, 1.0, 20000, seed=9)
        gamma, sigma = gpd_fit(y)
        assert -0.3 <= gamma <= -0.1
        assert 0.9 <= sigma <= 1.1

    def test_exponential_limit_quantile(self):
        sigma_true = 1.5
        rng = np.random.default_rng(10)
        scores = rng.exponential(sigma_true, size=20000)
        state = pot_fit(scores, q0_percentile=95.0, risk_q=1e-3)
        r = state.risk_q * state.n / state.n_excess
        closed_form = state.u - sigma_true * np.log(r)
        assert state.threshold == pytest.approx(closed_form, rel=0.02)

    def test_constant_excesses(self):
        gamma, sigma = gpd_fit(np.full(10, 2.0))
        assert gamma == 0.0
        assert sigma == pytest.approx(2.0)

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
    def test_fit_is_scale_equivariant(self, scale):
        y = gpd_draws(0.3, 1.0, 300, seed=5)
        gamma, sigma = gpd_fit(y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled_gamma, scaled_sigma = gpd_fit(scale * y)
        assert scaled_gamma == pytest.approx(gamma, rel=1e-9)
        assert scaled_sigma == pytest.approx(scale * sigma, rel=1e-9)

    @pytest.mark.parametrize("gamma_true", [-0.8, -0.2, 0.0, 0.3, 2.0])
    def test_beats_brute_force_box_grid(self, gamma_true):
        y = gpd_draws(gamma_true, 1.0, 200, seed=21)
        gamma, sigma = gpd_fit(y)
        assert -0.5 <= gamma <= 1.0
        grid_min = box_grid_min_nll(y)
        assert gpd_nll(y, gamma, sigma) <= grid_min + 1e-9 * abs(grid_min)

    @pytest.mark.parametrize(
        "gamma_true, n, seed",
        [(-0.45, 2000, 0), (-0.2, 200, 1), (0.0, 60, 2), (0.1, 2000, 3),
         (0.3, 200, 4), (0.9, 2000, 0)],
    )
    def test_matches_nested_search(self, gamma_true, n, seed):
        y = gpd_draws(gamma_true, 1.0, n, seed)
        ref_gamma, ref_sigma = nested_search_fit(y)
        # the reference's scale bracket, log(mean y) +- 8, does not bind here
        assert abs(np.log(ref_sigma / y.mean())) < 7.0
        gamma, sigma = gpd_fit(y)
        assert gamma == pytest.approx(ref_gamma, abs=1e-6)
        assert sigma == pytest.approx(ref_sigma, rel=1e-6)

    def test_heavy_tail_scale_not_bracketed(self):
        # True shape 2 clips to the box edge 1; the box MLE scale lies far
        # below the mean excess, outside the nested search's log-sigma
        # bracket of log(mean y) +- 8, which stopped at sigma 21.6.
        y = gpd_draws(2.0, 1.0, 200, seed=3)
        ref_gamma, ref_sigma = nested_search_fit(y)
        assert gpd_nll(y, ref_gamma, ref_sigma) == pytest.approx(763.39, abs=0.01)
        gamma, sigma = gpd_fit(y)
        assert gamma == 1.0
        assert sigma == pytest.approx(1.733, rel=1e-3)
        assert gpd_nll(y, gamma, sigma) == pytest.approx(587.98, abs=0.01)

    def test_profile_exponential_limit_is_finite(self):
        r = np.array([0.2, 0.5, 1.0])
        nll, _, gamma, zero = incidents._profile(r, np.array([-1e-3, 0.0, 1e-3]))
        assert np.isfinite(nll).all()
        assert zero.tolist() == [False, True, False]
        assert nll[1] == np.log(r.mean()) + 1.0
        np.testing.assert_allclose(nll[[0, 2]], nll[1], rtol=1e-3)


class TestGpdFitOnC07Stream:
    def test_labels_match_nested_search(self, monkeypatch):
        # The C07 truth stream (seed 42, percentile 98, risk_q 1e-2, dynamic
        # refits): the theta profile must reproduce the nested search.
        series, _, _ = synth_traffic(
            4, 14, delta_seconds=300, seed=42, noise=0.03,
            incidents=IncidentSpec(count=20, depth=0.5, duration=6, min_start=300),
        )
        train_ts, test_ts = split_train_test(series.n_steps)
        baseline = build_baseline(series, train_ts)
        pot = PotConfig(percentile=98.0, risk_q=1e-2)

        def truth():
            net, links = fit_threshold_states(series, baseline, train_ts, pot)
            return generate_ground_truth(series, baseline, net, links, test_ts, 1)

        got = truth()
        monkeypatch.setattr(incidents, "gpd_fit", nested_search_fit)
        ref = truth()
        np.testing.assert_array_equal(got.network_labels, ref.network_labels)
        np.testing.assert_array_equal(got.link_labels, ref.link_labels)
        np.testing.assert_allclose(got.network_thresholds, ref.network_thresholds, rtol=1e-6)
        np.testing.assert_allclose(got.link_thresholds, ref.link_thresholds, rtol=1e-6)


class TestPotFit:
    def test_threshold_at_least_initial(self):
        scores = np.random.default_rng(11).exponential(1.0, size=5000)
        state = pot_fit(scores, 90.0, risk_q=0.5)  # absurd risk would dip below u
        assert state.threshold >= state.u

    def test_monotone_in_risk(self):
        scores = np.random.default_rng(12).exponential(1.0, size=5000)
        thresholds = [
            pot_fit(scores, 95.0, risk_q=q).threshold for q in (1e-2, 1e-3, 1e-4)
        ]
        assert thresholds[0] < thresholds[1] < thresholds[2]

    def test_zero_excesses_pins_above_max(self):
        scores = np.ones(100)
        with pytest.warns(UserWarning, match="no excesses"):
            state = pot_fit(scores, 99.0)
        assert state.degenerate
        assert state.threshold > scores.max()

    def test_few_excesses_warns(self):
        scores = np.random.default_rng(13).exponential(1.0, size=200)
        with pytest.warns(UserWarning, match="excesses"):
            pot_fit(scores, 90.0)

    def test_non_finite_scores_rejected(self):
        scores = np.random.default_rng(14).exponential(1.0, size=1000)
        scores[[3, 10]] = np.nan
        scores[20] = np.inf
        with pytest.raises(NumericError, match="3 of 1000"):
            pot_fit(scores, 95.0)

    @pytest.mark.parametrize("risk_q", [0.0, -0.01, 1.0])
    def test_risk_q_outside_unit_interval_rejected(self, risk_q):
        scores = np.random.default_rng(17).exponential(1.0, size=2000)
        with pytest.raises(ValueError, match=f"got {risk_q}"):
            pot_fit(scores, 95.0, risk_q=risk_q)

    def test_percentile_ladder(self):
        assert percentile_for_horizon(99.0, 1, 0.5) == 98.5
        assert percentile_for_horizon(50.0, 1, 2.5) == 47.5
        assert percentile_for_horizon(45.0, 1, 2.5) == 42.5
        assert percentile_for_horizon(99.0, 0, 0.5) == 99.0
        assert percentile_for_horizon(99.0, 3, 0.5) == 97.5

    def test_scale_invariant_labels(self):
        # Rescaling scores and refitting at the same percentile/risk must
        # yield identical labels (thresholds scale along).
        rng = np.random.default_rng(14)
        calib = rng.exponential(1.0, size=4000)
        stream = rng.exponential(1.0, size=800) * rng.uniform(0.5, 3.0, size=800)
        for factor in (0.1, 3.7):
            base_state = pot_fit(calib, 95.0, risk_q=1e-2)
            base_labels, _ = label(stream, base_state)
            scaled_state = pot_fit(calib * factor, 95.0, risk_q=1e-2)
            scaled_labels, _ = label(stream * factor, scaled_state)
            np.testing.assert_array_equal(base_labels, scaled_labels)


class TestLabel:
    def _state(self, threshold):
        return ThresholdState(
            u=threshold, gamma=0.0, sigma=1.0, risk_q=1e-3,
            n=100, n_excess=0, threshold=threshold, q0_percentile=99.0,
        )

    def test_quiet_stream_all_zero(self):
        labels, _ = label(np.full(50, 0.1), self._state(1.0))
        assert labels.sum() == 0

    def test_boundary_score_labeled_one(self):
        labels, _ = label(np.array([1.0]), self._state(1.0))
        assert labels[0] == 1

    def test_injected_spike_flagged(self):
        rng = np.random.default_rng(15)
        calib = rng.exponential(1.0, size=3000)
        state = pot_fit(calib, 98.0, risk_q=1e-4)
        stream = rng.exponential(1.0, size=300)
        stream = np.minimum(stream, state.threshold * 0.9)
        stream[123] = calib.max() * 10
        labels, _ = label(stream, state)
        assert labels[123] == 1
        assert labels.sum() == 1

    def test_dynamic_updates_counters_and_refits(self):
        rng = np.random.default_rng(16)
        calib = rng.exponential(1.0, size=2000)
        state = pot_fit(calib, 95.0, risk_q=1e-3, refit_every=100)
        n0, e0 = state.n, state.n_excess
        stream = rng.exponential(1.0, size=500)
        _, thresholds = label(stream, state, dynamic=True)
        assert state.n == n0 + 500
        assert state.n_excess > e0
        assert (thresholds >= state.u).all()

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_degenerate_state_keeps_pinned_threshold_until_refit(self, scale):
        # No excesses at calibration: the tail scale is a placeholder, so
        # the threshold stays pinned (and labels unit-free) until a refit.
        with pytest.warns(UserWarning, match="no excesses"):
            state = pot_fit(scale * np.ones(100), 99.0)
        pinned = state.threshold
        labels, thresholds = label(
            scale * np.array([1.5, 1.0005, 1.2, 1.0005]), state, dynamic=True
        )
        assert labels.tolist() == [1, 1, 1, 1]
        assert (thresholds == pinned).all()
        assert state.threshold == pinned and state.degenerate

    def test_non_finite_score_rejected_before_state_changes(self):
        calib = np.random.default_rng(18).exponential(1.0, size=2000)
        state = pot_fit(calib, 95.0)
        n0, threshold0 = state.n, state.threshold
        with pytest.raises(NumericError, match="2 of 4 scores are non-finite, first at index 1"):
            label(np.array([0.5, np.nan, 1e9, -np.inf]), state, dynamic=True)
        assert state.n == n0
        assert state.threshold == threshold0

    def test_static_holds_threshold_fixed(self):
        state = self._state(2.0)
        _, thresholds = label(np.linspace(0, 5, 50), state, dynamic=False)
        assert (thresholds == 2.0).all()

    def test_external_threshold_stream(self):
        scores = np.array([1.0, 2.0, 3.0])
        thresholds = np.array([1.5, 1.5, 1.5])
        np.testing.assert_array_equal(
            label_with_thresholds(scores, thresholds), [0, 1, 1]
        )


class TestIncidentLabelsCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(17)
        bundle = IncidentLabels(
            horizon=3,
            timesteps=np.arange(10, 15),
            network_scores=rng.random(5),
            network_thresholds=np.full(5, 0.5),
            network_labels=(rng.random(5) > 0.5).astype(np.int8),
            link_scores=rng.random((5, 3)),
            link_thresholds=np.full((5, 3), 0.4),
            link_labels=(rng.random((5, 3)) > 0.5).astype(np.int8),
        )
        path = tmp_path / "labels.csv"
        bundle.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "timestep,link_id,score,threshold,label"
        back = IncidentLabels.from_csv(path, horizon=3)
        np.testing.assert_array_equal(back.timesteps, bundle.timesteps)
        np.testing.assert_array_equal(back.network_labels, bundle.network_labels)
        np.testing.assert_array_equal(back.link_labels, bundle.link_labels)
        np.testing.assert_allclose(back.link_scores, bundle.link_scores, rtol=1e-9)
