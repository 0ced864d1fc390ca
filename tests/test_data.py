"""Dataset container round-trips and synthetic generator contracts."""

import numpy as np
import pytest

from radnet.data import (
    RADSET_FEATURES,
    FeatureSeries,
    IncidentSpec,
    load_dataset,
    save_dataset,
    stats,
    stats_text,
    synth_traffic,
)
from radnet.errors import FormatError, GraphError
from radnet.graph import RoadGraph


def small_series(t=10, n=3, d=2, seed=0):
    rng = np.random.default_rng(seed)
    return FeatureSeries(
        data=rng.normal(size=(t, n, d)),
        start_epoch=4 * 86400,
        delta_seconds=300,
        feature_names=[f"f{i}" for i in range(d)],
        name="unit",
    )


class TestFeatureSeries:
    def test_clock_functions(self):
        s = small_series()
        assert s.weekday(0) == 0  # anchored on a Monday
        assert s.clock_seconds(0) == 0
        assert s.clock_seconds(3) == 900
        steps_per_day = 86400 // 300
        assert s.weekday(0) != FeatureSeries(
            data=s.data, start_epoch=5 * 86400, delta_seconds=300,
            feature_names=s.feature_names,
        ).weekday(0)
        long = synth_traffic(2, 9, seed=1)[0]
        assert long.weekday(steps_per_day) == (long.weekday(0) + 1) % 7

    def test_shape_validation(self):
        with pytest.raises(FormatError):
            FeatureSeries(np.zeros((4, 3)), 0, 300, ["a"])
        with pytest.raises(FormatError):
            FeatureSeries(np.zeros((4, 3, 2)), 0, 300, ["a"])


class TestContainer:
    def test_round_trip_bit_identical(self, tmp_path):
        series = small_series()
        graph = RoadGraph(3, [(0, 1), (1, 2)])
        save_dataset(tmp_path / "ds", series, graph)
        loaded, g2, meta = load_dataset(tmp_path / "ds")
        np.testing.assert_array_equal(loaded.data, series.data)
        assert loaded.start_epoch == series.start_epoch
        assert loaded.delta_seconds == series.delta_seconds
        assert loaded.feature_names == series.feature_names
        assert g2.edges == graph.edges
        assert (meta.n_steps, meta.n_nodes, meta.n_edges, meta.n_features) == (10, 3, 2, 2)

    def test_truncated_blob_reports_byte_counts(self, tmp_path):
        series = small_series()
        save_dataset(tmp_path / "ds", series, RoadGraph(3, []))
        blob_path = tmp_path / "ds" / "features.bin"
        blob_path.write_bytes(blob_path.read_bytes()[:-16])
        with pytest.raises(FormatError, match=r"464 bytes.*480"):
            load_dataset(tmp_path / "ds")

    def test_flipped_byte_fails_checksum(self, tmp_path):
        save_dataset(tmp_path / "ds", small_series(), RoadGraph(3, []))
        blob_path = tmp_path / "ds" / "features.bin"
        blob = bytearray(blob_path.read_bytes())
        blob[100] ^= 0x01
        blob_path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="SHA-256"):
            load_dataset(tmp_path / "ds")

    def test_missing_checksum_is_refused(self, tmp_path):
        import json

        save_dataset(tmp_path / "ds", small_series(), RoadGraph(3, []))
        meta_path = tmp_path / "ds" / "meta.json"
        meta = json.loads(meta_path.read_text())
        del meta["sha256"]
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(FormatError, match="sha256"):
            load_dataset(tmp_path / "ds")

    def test_torn_write_is_detected(self, tmp_path, monkeypatch):
        # Overwrite a dataset with same-shaped data and crash after the new
        # features.bin is in place but before meta.json is: the old meta.json
        # must not vouch for the new blob.
        save_dataset(tmp_path / "ds", small_series(seed=0), RoadGraph(3, []))

        def crash(self, path):
            raise OSError("disk full")

        monkeypatch.setattr(RoadGraph, "to_edge_csv", crash)
        with pytest.raises(OSError):
            save_dataset(tmp_path / "ds", small_series(seed=1), RoadGraph(3, []))
        monkeypatch.undo()
        assert not (tmp_path / "ds" / "meta.json.tmp").exists()
        with pytest.raises(FormatError, match="SHA-256"):
            load_dataset(tmp_path / "ds")
        # a fresh directory torn the same way has no meta.json at all
        monkeypatch.setattr(RoadGraph, "to_edge_csv", crash)
        with pytest.raises(OSError):
            save_dataset(tmp_path / "fresh", small_series(), RoadGraph(3, []))
        monkeypatch.undo()
        with pytest.raises(FormatError, match="no meta.json"):
            load_dataset(tmp_path / "fresh")

    def test_non_finite_feature_reports_count_and_first_index(self, tmp_path):
        series = small_series()
        series.data[7, 2, 1] = np.inf
        series.data[4, 1, 0] = np.nan
        save_dataset(tmp_path / "ds", series, RoadGraph(3, []))
        with pytest.raises(FormatError, match=r"2 non-finite.*\(4, 1, 0\)"):
            load_dataset(tmp_path / "ds")

    def test_edge_id_out_of_bounds(self, tmp_path):
        series = small_series()
        save_dataset(tmp_path / "ds", series, RoadGraph(3, []))
        (tmp_path / "ds" / "edges.csv").write_text("src,dst\n0,5\n")
        with pytest.raises(GraphError, match="edges.csv:2"):
            load_dataset(tmp_path / "ds")

    def test_unknown_meta_field_warns(self, tmp_path):
        import json

        series = small_series()
        save_dataset(tmp_path / "ds", series, RoadGraph(3, []))
        meta_path = tmp_path / "ds" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["mystery"] = 1
        meta_path.write_text(json.dumps(meta))
        with pytest.warns(UserWarning, match="mystery"):
            load_dataset(tmp_path / "ds")

    @pytest.mark.parametrize("field, value", [
        ("T", "many"), ("T", 0), ("N", -1), ("D", 2.0), ("D", True), ("delta_seconds", 0),
        ("start_epoch", -300), ("start_epoch", None), ("feature_names", ["f0"]),
        ("feature_names", "f0f1"),
    ])
    def test_bad_meta_field_names_file_and_field(self, tmp_path, field, value):
        import json

        save_dataset(tmp_path / "ds", small_series(), RoadGraph(3, []))
        meta_path = tmp_path / "ds" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta[field] = value
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(FormatError, match=f"meta.json field {field} must"):
            load_dataset(tmp_path / "ds")

    def test_radset_schema_names_accepted(self, tmp_path):
        series, graph, _ = synth_traffic(4, 9, n_features=7, seed=2)
        assert series.feature_names == list(RADSET_FEATURES)
        save_dataset(tmp_path / "ds", series, graph)
        loaded, _, _ = load_dataset(tmp_path / "ds")
        assert loaded.feature_names == list(RADSET_FEATURES)


class TestSynthTraffic:
    def test_noise_free_series_is_daily_periodic(self):
        with pytest.warns(UserWarning, match="fewer than 8 days"):
            series, _, _ = synth_traffic(3, 4, noise=0.0, seed=3)
        per_day = 86400 // 300
        np.testing.assert_allclose(
            series.data[:per_day], series.data[per_day : 2 * per_day], atol=1e-12
        )

    def test_injected_cells_match_mask(self):
        spec = IncidentSpec(count=1, depth=0.5, duration=6, min_start=10)
        series, _, mask = synth_traffic(4, 9, incidents=spec, noise=0.0, seed=4)
        cells = np.argwhere(mask)
        assert len(cells) == 6
        ts, link = cells[:, 0], cells[0, 1]
        assert (cells[:, 1] == link).all()
        assert list(ts) == list(range(ts[0], ts[0] + 6))
        clean, _, _ = synth_traffic(4, 9, noise=0.0, seed=4)
        ratio = series.data[mask, 0] / clean.data[mask, 0]
        np.testing.assert_allclose(ratio, 0.5, atol=1e-12)
        untouched = ~mask
        np.testing.assert_array_equal(
            series.data[untouched], clean.data[untouched]
        )

    def test_multi_feature_polarity(self):
        spec = IncidentSpec(count=1, depth=0.4, duration=3, min_start=5)
        series, _, mask = synth_traffic(3, 9, n_features=7, incidents=spec, noise=0.0, seed=5)
        clean, _, _ = synth_traffic(3, 9, n_features=7, noise=0.0, seed=5)
        names = series.feature_names
        idx_flow = names.index("flow")
        idx_ql = names.index("ql")
        assert (series.data[mask, idx_flow] < clean.data[mask, idx_flow]).all()
        assert (series.data[mask, idx_ql] > clean.data[mask, idx_ql]).all()

    def test_same_seed_bit_identical(self):
        a, _, ma = synth_traffic(4, 9, incidents=IncidentSpec(count=3), seed=6)
        b, _, mb = synth_traffic(4, 9, incidents=IncidentSpec(count=3), seed=6)
        np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(ma, mb)

    def test_min_start_past_series_end_rejected(self):
        spec = IncidentSpec(count=1, min_start=9 * 288 - 1)
        with pytest.raises(ValueError, match=r"min_start 2591 .* step 2591 of the 2592-step"):
            synth_traffic(4, 9, incidents=spec)

    def test_too_few_days_rejected(self):
        with pytest.raises(ValueError):
            synth_traffic(3, 1)

    def test_short_fit_warns(self):
        with pytest.warns(UserWarning, match="8 days"):
            synth_traffic(3, 3)

    def test_weekend_factor_changes_weekends_only(self):
        flat, _, _ = synth_traffic(2, 9, noise=0.0, seed=7)
        mod, _, _ = synth_traffic(2, 9, noise=0.0, seed=7, weekend_factor=0.5)
        per_day = 86400 // 300
        weekdays = slice(0, 5 * per_day)  # starts on a Monday
        weekend = slice(5 * per_day, 7 * per_day)
        np.testing.assert_array_equal(flat.data[weekdays], mod.data[weekdays])
        assert (mod.data[weekend] <= flat.data[weekend]).all()
        assert (mod.data[weekend] < flat.data[weekend]).any()


class TestBaselineConsistency:
    def test_clean_periodic_series_has_negligible_residual(self):
        # After a full week of fit data, a noise-free periodic series scores
        # ~zero against its own baseline. Not exactly zero: the baseline's
        # +-one-interval clock pooling averages three adjacent phases, which
        # attenuates the sinusoid by (1 + 2cos(2*pi*delta/day))/3 (~2e-4)
        # and smears the onset/offset kinks of the daily hump (~1e-2 there).
        from radnet.incidents import build_baseline, residual_scores

        series, _, _ = synth_traffic(3, 9, noise=0.0, weekend_factor=0.8, seed=11)
        per_day = 86400 // 300
        table = build_baseline(series, range(7 * per_day))
        probe = np.arange(7 * per_day, 9 * per_day)
        base = table.for_series(series, probe)
        scores = residual_scores(base, series.data[probe])
        scale = np.sqrt((series.data[probe] ** 2).sum(axis=(1, 2))).max()
        assert scores.network.max() <= 1e-2 * scale
        assert np.median(scores.network) <= 1e-3 * scale


class TestStats:
    def test_radset_shaped_dataset_reports_table_dimensions(self, tmp_path):
        # A 24-node, 166-edge, 7-feature container reports those counts back.
        rng = np.random.default_rng(12)
        pairs = [(i, j) for i in range(24) for j in range(i + 1, 24)]
        chosen = [pairs[k] for k in rng.choice(len(pairs), size=166, replace=False)]
        graph = RoadGraph(24, chosen)
        series, _, _ = synth_traffic(24, 9, n_features=7, seed=12, graph=graph)
        save_dataset(tmp_path / "radset-like", series, graph)
        _, g2, meta = load_dataset(tmp_path / "radset-like")
        assert (meta.n_nodes, meta.n_edges, meta.n_features) == (24, 166, 7)
        summary = stats(series, g2)
        assert summary["nodes"] == 24 and summary["edges"] == 166

    def test_two_day_step_count(self):
        with pytest.warns(UserWarning, match="fewer than 8 days"):
            series, graph, _ = synth_traffic(4, 2, delta_seconds=300, seed=8)
        summary = stats(series, graph)
        assert summary["timesteps"] == 2 * 86400 // 300 == 576
        assert summary["nodes"] == 4

    def test_constant_series_min_equals_max(self):
        s = small_series()
        s.data[...] = 2.5
        summary = stats(s)
        row = summary["per_feature"]["f0"]
        assert row["min"] == row["mean"] == row["max"] == 2.5

    def test_text_rendering(self):
        with pytest.warns(UserWarning, match="fewer than 8 days"):
            series, graph, _ = synth_traffic(3, 2, seed=9)
        text = stats_text(stats(series, graph))
        assert "timesteps 576" in text
        assert "flow" in text
