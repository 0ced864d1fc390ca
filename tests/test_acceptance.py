"""Release gate: every criterion below must pass at its stated tolerance.

Each test prints one PASS line (visible with `pytest -s` or on failure);
run the whole gate with `pytest tests/test_acceptance.py -v`.
"""

import json
import math
import time

import numpy as np
import pytest

from radnet import tensor as T
from radnet.cli import main
from radnet.data import IncidentSpec, synth_traffic
from radnet.evaluation import (
    REFERENCE_ANCHORS,
    hitrate_at,
    ndcg_at,
    prf1,
    rank_links,
)
from radnet.graph import GatLayer, RoadGraph
from radnet.incidents import build_baseline, gpd_fit, pot_fit
from radnet.model import VARIANTS, RadNet, RadNetConfig, batch_loss, rollout_autoregressive
from radnet.nn import named_parameters
from radnet.pipeline import PotConfig, ablate
from radnet.temporal import MultiHeadAttention, causal_mask
from radnet.tensor import no_grad
from radnet.training import TrainConfig

pytestmark = pytest.mark.acceptance


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def toy_model(seed=7, variant="full"):
    cfg = RadNetConfig(n_nodes=4, n_features=1, window=5, horizon=1, seed=seed, variant=variant)
    return RadNet(cfg), RoadGraph.ring(4)


BENCH = dict(
    nodes=4, days=14, delta=300, events=20, depth=0.5, duration=6,
    min_start=300, noise=0.03, seed=42,
)


def bench_series():
    return synth_traffic(
        BENCH["nodes"], BENCH["days"], delta_seconds=BENCH["delta"],
        incidents=IncidentSpec(
            count=BENCH["events"], depth=BENCH["depth"],
            duration=BENCH["duration"], min_start=BENCH["min_start"],
        ),
        seed=BENCH["seed"], noise=BENCH["noise"],
    )


class TestC01GradientFidelity:
    def test_full_model_finite_difference_check(self):
        # 4-node, single-feature, 5-step-window toy; every parameter
        # coordinate against central differences. The 1e-6 step keeps the
        # stencil off LeakyReLU kinks while staying far above the float64
        # rounding floor.
        model, graph = toy_model()
        rng = np.random.default_rng(0)
        window = rng.normal(size=(5, 4, 1))
        target = rng.normal(size=(4, 1))

        def objective():
            return batch_loss(model.forward_batch(window[None], graph)[0], target[None])

        start = time.time()
        err = T.grad_check(objective, named_parameters(model).values(), step=1e-6)
        elapsed = time.time() - start
        assert err < 1e-4, f"max relative error {err:.3e}"
        assert elapsed < 30.0, f"gradient check took {elapsed:.1f}s"
        report("C01", f"max rel err {err:.2e} over {model.count_parameters()} params in {elapsed:.1f}s")


class TestC02FusionConvexity:
    def test_thousand_random_inputs(self):
        model, graph = toy_model()
        rng = np.random.default_rng(1)
        worst = 0.0
        with no_grad():
            for _ in range(10):
                windows = rng.normal(size=(100, 5, 4, 1)) * rng.uniform(0.1, 10)
                _, weights = model.forward_batch(windows, graph)
                w = weights.values
                assert (w >= 0).all()
                worst = max(worst, float(np.abs(w.sum(axis=1) - 1.0).max()))
        assert worst <= 1e-9
        report("C02", f"1000 inputs, max |sum - 1| = {worst:.1e}")


class TestC03AttentionNormalization:
    def test_gat_rows(self):
        rng = np.random.default_rng(2)
        worst = 0.0
        for trial in range(20):
            n = int(rng.integers(2, 8))
            edges = {
                (int(a), int(b))
                for a, b in rng.integers(0, n, size=(n * 2, 2))
                if a != b
            }
            g = RoadGraph(n, edges)
            layer = GatLayer(3, 2, rng, n_heads=2)
            x = rng.normal(size=(n, 3)) * 3
            for head in range(2):
                alpha = layer.attention_coefficients(x, g, head).values
                assert (alpha >= 0).all()
                worst = max(worst, float(np.abs(alpha.sum(axis=-1) - 1).max()))
        assert worst <= 1e-9

    def test_mha_rows_and_causal_zeros(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(20):
            k = int(rng.integers(2, 9))
            mha = MultiHeadAttention(4, 2, rng)
            x = rng.normal(size=(k, 4)) * 2
            for head in range(2):
                w = mha.attention_weights(x, x, mask=causal_mask(k), head=head).values
                future = np.triu_indices(k, k=1)
                assert (w[future] == 0.0).all(), "masked weights must be exactly zero"
                worst = max(worst, float(np.abs(w.sum(axis=-1) - 1).max()))
        assert worst <= 1e-9
        report("C03", f"attention rows sum to 1 within {worst:.1e}; masked weights exactly 0")


class TestC04BaselineBruteForce:
    def test_every_key_matches_enumeration(self):
        series, _, _ = synth_traffic(2, 14, delta_seconds=300, noise=0.05, seed=4)
        fit = range(series.n_steps)
        table = build_baseline(series, fit)
        weekdays = np.array([series.weekday(t) for t in fit])
        clocks = np.array([series.clock_seconds(t) for t in fit])
        worst = 0.0
        for d, c in table.keys():
            match = (weekdays == d) & (np.abs(clocks - c) <= series.delta_seconds)
            brute = series.data[match].mean(axis=0)
            got = table.lookup(d, c)
            worst = max(worst, float(np.abs(got - brute).max()))
        assert worst <= 1e-12
        report("C04", f"{len(list(table.keys()))} keys, max deviation {worst:.1e}")


class TestC05GpdRecovery:
    def test_synthetic_parameter_recovery(self):
        rng = np.random.default_rng(5)
        u = rng.random(100_000)
        gamma_true, sigma_true = 0.1, 2.0
        draws = sigma_true / gamma_true * ((1 - u) ** (-gamma_true) - 1)
        gamma, sigma = gpd_fit(draws)
        assert 0.05 <= gamma <= 0.15, f"gamma {gamma:.4f}"
        assert 1.9 <= sigma <= 2.1, f"sigma {sigma:.4f}"
        report("C05", f"recovered gamma {gamma:.3f}, sigma {sigma:.3f} from 1e5 draws")

    def test_exponential_limit_quantile(self):
        rng = np.random.default_rng(6)
        sigma_true = 2.0
        scores = rng.exponential(sigma_true, size=100_000)
        state = pot_fit(scores, q0_percentile=98.0, risk_q=1e-3)
        r = state.risk_q * state.n / state.n_excess
        closed_form = state.u - sigma_true * np.log(r)
        rel = abs(state.threshold - closed_form) / closed_form
        assert rel < 0.02, f"quantile off closed form by {rel:.3%}"
        report("C05", f"exponential-limit threshold within {rel:.3%} of closed form")


class TestC06MetricOracles:
    def test_brute_force_equivalence(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(2, 11))
            pred = rng.integers(0, 2, size=n)
            truth = rng.integers(0, 2, size=n)
            tp = int(((pred == 1) & (truth == 1)).sum())
            fp = int(((pred == 1) & (truth == 0)).sum())
            fn = int(((pred == 0) & (truth == 1)).sum())
            bp = tp / (tp + fp) if tp + fp else 0.0
            br = tp / (tp + fn) if tp + fn else 0.0
            bf = 2 * bp * br / (bp + br) if bp + br else 0.0
            assert prf1(pred, truth) == (bp, br, bf)

            scores = rng.random(n)
            size = int(rng.integers(1, min(n, 5) + 1))
            truth_set = set(int(x) for x in rng.choice(n, size=size, replace=False))
            ranked = rank_links(scores)
            for pct in (100, 150):
                k = math.ceil(pct / 100 * len(truth_set))
                bh = len(set(ranked[:k]) & truth_set) / len(truth_set)
                assert hitrate_at(ranked, truth_set, pct) == bh
                bd = sum(
                    1 / math.log2(i + 2)
                    for i, link in enumerate(ranked[:k])
                    if link in truth_set
                )
                bi = sum(1 / math.log2(i + 2) for i in range(min(k, len(truth_set))))
                assert ndcg_at(ranked, truth_set, pct) == pytest.approx(bd / bi, rel=1e-12)
        report("C06", "1000 randomized instances match brute force exactly")

    def test_worked_example_eight_links(self):
        # 8 incident links: P%=100 inspects the top 8, P%=150 the top 12.
        truth = set(range(8))
        ranked = list(range(20))
        assert hitrate_at(ranked, truth, 100) == 1.0
        assert hitrate_at(ranked[::-1], truth, 100) == 0.0
        shuffled = [15, 0, 16, 1, 17, 2, 18, 3, 19, 4, 5, 6, 7, 8]
        assert hitrate_at(shuffled, truth, 100) == pytest.approx(4 / 8)
        assert hitrate_at(shuffled, truth, 150) == pytest.approx(7 / 8)
        report("C06", "worked top-8 / top-12 example reproduced")


@pytest.mark.slow
class TestC07EndToEndSynthetic:
    def test_cli_pipeline_meets_detection_floor(self, tmp_path):
        start = time.time()
        ds = tmp_path / "ds"
        run = tmp_path / "run"
        det = tmp_path / "det"
        b = BENCH
        assert main([
            "synth", "--out", str(ds), "--nodes", str(b["nodes"]), "--days",
            str(b["days"]), "--delta", str(b["delta"]), "--events", str(b["events"]),
            "--depth", str(b["depth"]), "--duration", str(b["duration"]),
            "--min-start", str(b["min_start"]), "--noise", str(b["noise"]),
            "--seed", str(b["seed"]),
        ]) == 0
        assert main([
            "train", "--data", str(ds), "--out", str(run), "--seed", str(b["seed"]),
            "--lr", "5e-4", "--max-epochs", "30", "--patience", "6",
        ]) == 0
        assert main([
            "detect", "--data", str(ds), "--checkpoint", str(run / "checkpoint"),
            "--out", str(det), "--percentile", "98", "--risk-q", "1e-2",
        ]) == 0
        assert main(["evaluate", "--detect", str(det), "--out", str(det)]) == 0
        results = json.loads((det / "report.json").read_text())
        elapsed = time.time() - start
        assert results["f1"] >= 0.7, f"F1 {results['f1']:.3f}"
        assert results["hitrate"]["100"] >= 0.6, f"HitRate@100 {results['hitrate']['100']:.3f}"
        assert elapsed < 600.0, f"pipeline took {elapsed:.0f}s"
        report(
            "C07",
            f"F1 {results['f1']:.3f}, HitRate@100 {results['hitrate']['100']:.3f} "
            f"in {elapsed:.0f}s",
        )


@pytest.mark.slow
class TestC08AblationOrdering:
    def test_full_variant_not_worse_within_noise(self):
        # Same benchmark and detection flags as C07; three seeds per variant.
        # "Within noise" is a two-sample slack of 2*sqrt(s_full^2 + s_ablated^2).
        series, graph, _ = bench_series()
        rows = ablate(
            series, graph,
            RadNetConfig(n_nodes=4, n_features=1, window=5, horizon=1),
            TrainConfig(lr=1e-3, max_epochs=30, patience=8, batch=32),
            PotConfig(percentile=98.0, risk_q=1e-2),
            seeds=(0, 1, 2),
        )
        mse = {v: [r["val_mse"] for r in rows if r["variant"] == v] for v in VARIANTS}
        f1 = {v: np.mean([r["f1"] for r in rows if r["variant"] == v]) for v in VARIANTS}
        assert all(len(values) == 3 for values in mse.values())
        full_mean = np.mean(mse["full"])
        full_std = np.std(mse["full"])
        lines = []
        for variant in ("no_skip", "no_st", "no_ts"):
            mean = np.mean(mse[variant])
            slack = 2.0 * np.sqrt(full_std**2 + np.std(mse[variant]) ** 2)
            assert full_mean <= mean + slack, (
                f"full {full_mean:.5f} vs {variant} {mean:.5f} + slack {slack:.5f}"
            )
            lines.append(f"{variant} {mean:.4f}")
        report("C08", f"full {full_mean:.4f} <= " + ", ".join(lines) + " (2-sigma slack); "
               + "mean F1 " + ", ".join(f"{v} {f1[v]:.3f}" for v in VARIANTS))


class TestC09RolloutConsistency:
    def test_single_step_rollout_bit_identical(self):
        model, graph = toy_model(seed=9)
        rng = np.random.default_rng(9)
        windows = rng.normal(size=(3, 5, 4, 1))
        direct = model.forward_batch(windows, graph)[0].values
        rolled = rollout_autoregressive(model, windows, 1, graph)[0].values
        assert (direct == rolled).all()
        report("C09", "single-step rollout bit-identical to forward_batch")

    @pytest.mark.slow
    def test_teacher_forcing_frequency(self):
        cfg = RadNetConfig(
            n_nodes=2, n_features=1, window=2, horizon=1, seed=0, decoder_widths=(4,)
        )
        model = RadNet(cfg)
        graph = RoadGraph.ring(2)
        rng = np.random.default_rng(10)
        window = rng.normal(size=(2, 2, 1))
        truth = rng.normal(size=(200, 2, 1))
        # 50 copies x 200 intermediate steps = 1e4 Bernoulli draws
        with no_grad():
            _, forced = rollout_autoregressive(
                model, np.repeat(window[None], 50, axis=0), 201, graph,
                truth=np.repeat(truth[None], 50, axis=0), teacher_force_p=0.2, rng=rng,
            )
        assert forced.size == 10_000
        freq = float(forced.mean())
        assert abs(freq - 0.20) <= 0.01, f"forced fraction {freq:.4f}"
        report("C09", f"teacher-forcing frequency {freq:.4f} over 1e4 draws")


class TestC10ParameterAccounting:
    def test_reference_anchors_recorded_not_asserted(self):
        # Full-scale published numbers are context only; nothing in the
        # suite compares desk-scale runs against them.
        assert REFERENCE_ANCHORS["radset_5min_f1"] == 0.930
        assert set(REFERENCE_ANCHORS["parameter_count_millions"]) == {
            "metr_la", "pems", "radset",
        }

    def test_toy_parameter_count_matches_analytic_ledger(self):
        model, _ = toy_model()
        n, d, heads, hidden = 4, 1, 1, 16
        dm = n * d  # single-feature data resolves to flattened attention
        gat = heads * (d * d + 2 * d + 1)
        mha = heads * 3 * dm * (dm // heads) + dm * dm
        ff = (dm * hidden + hidden) + (hidden * dm + dm)
        norm = 2 * dm
        transformer = (mha + ff + 2 * norm) + (mha + norm) + (mha + norm)
        fusion = n * d * 3 + 3
        decoder = (d * 64 + 64) + (64 * 64 + 64) + (64 * d + d)
        expected = 2 * gat + 2 * transformer + fusion + decoder
        ledger_total = sum(size for _, _, size in model.parameter_ledger())
        assert model.count_parameters() == expected == ledger_total
        report("C10", f"toy parameter count {expected} matches analytic ledger")
