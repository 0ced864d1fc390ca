"""Baseline brute-force oracle, residual formulas, GPD recovery, labeling."""

import numpy as np
import pytest

from radnet.data import synth_traffic
from radnet.errors import NumericError
from radnet.incidents import (
    IncidentLabels,
    ThresholdState,
    build_baseline,
    gpd_fit,
    label,
    label_with_thresholds,
    percentile_for_horizon,
    pot_fit,
    residual_scores,
)


def gpd_draws(gamma, sigma, n, seed):
    u = np.random.default_rng(seed).random(n)
    if gamma == 0:
        return -sigma * np.log(1 - u)
    return sigma / gamma * ((1 - u) ** (-gamma) - 1)


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
        table.lookup(monday, 80000)  # late-evening slot never observed
        assert table.fallback_count == 1
        # nearest observed Monday slot is the last fitted one
        np.testing.assert_array_equal(
            table.lookup(monday, 80000),
            table.key_mean(monday, series.clock_seconds(49)),
        )

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

    def test_moments_fallback_formula(self):
        # var == mean^2 is the exponential signature: shape 0, scale = mean
        from radnet.incidents import _moments_estimate

        y = gpd_draws(0.0, 3.0, 50000, seed=18)
        gamma, sigma = _moments_estimate(y)
        assert abs(gamma) < 0.05
        assert sigma == pytest.approx(3.0, rel=0.05)


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
