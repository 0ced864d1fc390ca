"""Metric oracles: worked examples plus brute-force cross-checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radnet.evaluation import (
    EvalReport,
    diagnosis_metrics,
    evaluate,
    hitrate_at,
    ndcg_at,
    prf1,
    rank_links,
)
from radnet.incidents import IncidentLabels


def brute_prf1(pred, truth):
    tp = sum(1 for p, t in zip(pred, truth) if p == 1 and t == 1)
    fp = sum(1 for p, t in zip(pred, truth) if p == 1 and t == 0)
    fn = sum(1 for p, t in zip(pred, truth) if p == 0 and t == 1)
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def brute_hitrate(ranked, truth, pct):
    import math

    k = math.ceil(pct / 100 * len(truth))
    return sum(1 for link in ranked[:k] if link in truth) / len(truth)


def brute_ndcg(ranked, truth, pct):
    import math

    k = math.ceil(pct / 100 * len(truth))
    dcg = 0.0
    for rank, link in enumerate(ranked[:k], start=1):
        if link in truth:
            dcg += 1 / math.log2(rank + 1)
    ideal = sum(1 / math.log2(r + 1) for r in range(1, min(k, len(truth)) + 1))
    return dcg / ideal


class TestPrf1:
    def test_identity_is_perfect(self):
        labels = [0, 1, 1, 0, 1]
        assert prf1(labels, labels) == (1.0, 1.0, 1.0)

    def test_closed_form(self):
        # TP=3, FP=1, FN=2
        pred = [1, 1, 1, 1, 0, 0, 0]
        truth = [1, 1, 1, 0, 1, 1, 0]
        p, r, f = prf1(pred, truth)
        assert p == pytest.approx(0.75)
        assert r == pytest.approx(0.6)
        assert f == pytest.approx(2 / 3)

    def test_all_zero_degenerate(self):
        assert prf1([0, 0], [0, 0]) == (0.0, 0.0, 0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            prf1([0, 1], [0, 1, 0])


class TestRanking:
    def test_ties_break_by_ascending_id(self):
        assert rank_links([0.5, 0.9, 0.5, 0.1]) == [1, 0, 2, 3]

    def test_worked_hitrate_examples(self):
        ranked = ["a", "c", "b", "d"]
        truth = {"a", "b"}
        assert hitrate_at(ranked, truth, 100) == 0.5  # top-2 = {a, c}
        assert hitrate_at(ranked, truth, 150) == 1.0  # top-3 = {a, c, b}

    def test_perfect_ranking_hits_everything(self):
        assert hitrate_at([3, 1, 0, 2], {3, 1}, 100) == 1.0
        assert hitrate_at([3, 1, 0, 2], {3, 1}, 150) == 1.0

    def test_eight_truth_links_use_top_8_and_12(self):
        # With 8 incident links, P%=100 looks at the top 8 and P%=150 the top 12.
        truth = set(range(8))
        ranked = [10, 0, 11, 1, 12, 2, 13, 3, 4, 5, 6, 7, 14, 15]
        assert hitrate_at(ranked, truth, 100) == pytest.approx(4 / 8)
        assert hitrate_at(ranked, truth, 150) == pytest.approx(8 / 8)

    def test_worked_ndcg_example(self):
        ranked = ["a", "c", "b"]
        truth = {"a", "b"}
        expected = 1.5 / (1 / np.log2(2) + 1 / np.log2(3))
        assert ndcg_at(ranked, truth, 150) == pytest.approx(expected)

    def test_ndcg_bounds(self):
        assert ndcg_at([0, 1, 2], {0, 1}, 100) == 1.0
        assert ndcg_at([2, 3], {0, 1}, 100) == 0.0

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError):
            hitrate_at([1, 2], set(), 100)
        with pytest.raises(ValueError):
            ndcg_at([1, 2], set(), 100)

    def test_empty_ranking_rejected(self):
        with pytest.raises(ValueError):
            hitrate_at([], {1}, 100)

    def test_hitrate_monotone_in_pct(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = rng.integers(2, 10)
            scores = rng.random(n)
            truth = set(rng.choice(n, size=rng.integers(1, n), replace=False))
            ranked = rank_links(scores)
            assert hitrate_at(ranked, truth, 150) >= hitrate_at(ranked, truth, 100)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            scores = rng.random(8)
            truth = set(rng.choice(8, size=3, replace=False))
            ranked = rank_links(scores)
            warped = rank_links(np.exp(5 * scores))
            for pct in (100, 150):
                assert hitrate_at(ranked, truth, pct) == hitrate_at(warped, truth, pct)
                assert ndcg_at(ranked, truth, pct) == ndcg_at(warped, truth, pct)


class TestBruteForce:
    def test_thousand_randomized_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = int(rng.integers(2, 11))
            pred = rng.integers(0, 2, size=n)
            truth = rng.integers(0, 2, size=n)
            assert prf1(pred, truth) == brute_prf1(list(pred), list(truth))

            scores = rng.random(n)
            n_truth = int(rng.integers(1, min(n, 5) + 1))
            truth_set = set(int(x) for x in rng.choice(n, size=n_truth, replace=False))
            ranked = rank_links(scores)
            for pct in (100, 150):
                assert hitrate_at(ranked, truth_set, pct) == brute_hitrate(
                    ranked, truth_set, pct
                )
                assert ndcg_at(ranked, truth_set, pct) == pytest.approx(
                    brute_ndcg(ranked, truth_set, pct), rel=1e-12
                )


class TestPropertyOracles:
    """The same oracles over hypothesis-drawn instances, ties in the scores included."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=40))
    def test_prf1_matches_brute_force(self, pairs):
        pred, truth = (list(column) for column in zip(*pairs))
        assert prf1(np.array(pred), np.array(truth)) == brute_prf1(pred, truth)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_ranking_metrics_match_brute_force(self, data):
        n = data.draw(st.integers(1, 12), label="n_links")
        # few distinct values, so the ranking must break ties by link id
        scores = data.draw(st.lists(st.integers(0, 3).map(float), min_size=n, max_size=n))
        truth = data.draw(st.sets(st.integers(0, n - 1), min_size=1), label="truth")
        pct = data.draw(st.floats(1.0, 300.0), label="pct")
        ranked = rank_links(scores)
        assert ranked == sorted(range(n), key=lambda i: (-scores[i], i))
        assert hitrate_at(ranked, truth, pct) == brute_hitrate(ranked, truth, pct)
        assert ndcg_at(ranked, truth, pct) == pytest.approx(
            brute_ndcg(ranked, truth, pct), rel=1e-12
        )


def bundle_from(labels_net, link_scores, link_labels, horizon=1):
    m, n = link_scores.shape
    return IncidentLabels(
        horizon=horizon,
        timesteps=np.arange(m),
        network_scores=np.asarray(labels_net, dtype=float),
        network_thresholds=np.full(m, 0.5),
        network_labels=np.asarray(labels_net, dtype=np.int8),
        link_scores=np.asarray(link_scores, dtype=float),
        link_thresholds=np.full((m, n), 0.5),
        link_labels=np.asarray(link_labels, dtype=np.int8),
    )


class TestEvaluate:
    def test_identical_streams_score_one(self):
        rng = np.random.default_rng(3)
        net = rng.integers(0, 2, size=20)
        link_labels = rng.integers(0, 2, size=(20, 4))
        link_scores = link_labels + rng.random((20, 4)) * 0.1
        pred = bundle_from(net, link_scores, link_labels)
        truth = bundle_from(net, link_scores, link_labels)
        report = evaluate(pred, truth)
        assert report.f1 == 1.0
        assert report.hitrate[100] == 1.0
        assert report.ndcg[100] == 1.0

    def test_fields_match_direct_computation(self):
        rng = np.random.default_rng(4)
        pred_net = rng.integers(0, 2, size=30)
        true_net = rng.integers(0, 2, size=30)
        pred_scores = rng.random((30, 5))
        true_links = rng.integers(0, 2, size=(30, 5))
        pred = bundle_from(pred_net, pred_scores, (pred_scores > 0.5).astype(int))
        truth = bundle_from(true_net, rng.random((30, 5)), true_links)
        report = evaluate(pred, truth)
        p, r, f = brute_prf1(list(pred_net), list(true_net))
        assert (report.precision, report.recall, report.f1) == (p, r, f)
        hit_expected = []
        for i in range(30):
            ts = set(np.flatnonzero(true_links[i]))
            if ts:
                hit_expected.append(brute_hitrate(rank_links(pred_scores[i]), ts, 100))
        assert report.hitrate[100] == pytest.approx(np.mean(hit_expected))
        assert report.meta["diagnosis_timesteps"] == len(hit_expected)

    def test_misaligned_timesteps_rejected(self):
        a = bundle_from([0, 1], np.zeros((2, 2)), np.zeros((2, 2)))
        b = bundle_from([0, 1, 0], np.zeros((3, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            evaluate(a, b)

    def test_report_serialization(self, tmp_path):
        report = EvalReport(
            horizon=3, precision=0.5, recall=0.25, f1=1 / 3,
            hitrate={100: 0.4, 150: 0.6}, ndcg={100: 0.5, 150: 0.7},
            tp=1, fp=1, fn=3, degenerate=False,
        )
        report.to_json(tmp_path / "report.json")
        import json

        raw = json.loads((tmp_path / "report.json").read_text())
        assert raw["counts"] == {"tp": 1, "fp": 1, "fn": 3}
        assert raw["hitrate"]["100"] == 0.4
        table = report.to_table("radnet")
        assert "H@1.5" in table.splitlines()[0]
        assert "radnet" in table.splitlines()[1]

    def test_per_link_detection_in_meta(self):
        rng = np.random.default_rng(5)
        link_labels = rng.integers(0, 2, size=(15, 3))
        pred = bundle_from(np.zeros(15), rng.random((15, 3)), link_labels)
        truth = bundle_from(np.zeros(15), rng.random((15, 3)), link_labels)
        report = evaluate(pred, truth)
        assert report.meta["per_link"]["f1"] == 1.0

    def test_diagnosis_skips_empty_truth_rows(self):
        scores = np.array([[0.9, 0.1], [0.2, 0.8]])
        truth = np.array([[0, 0], [0, 1]])
        hitrate, ndcg, used = diagnosis_metrics(scores, truth)
        assert used == 1
        assert hitrate[100] == 1.0
