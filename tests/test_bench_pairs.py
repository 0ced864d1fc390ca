"""tools/bench_pairs.py's comparison of the two sides' runs, on fixed runs."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "setup_s", "better": "lower", "bound": 0.25},
    {"name": "op_s", "better": "lower", "bound": 0.2},
    {"name": "train_steps_per_s", "better": "higher", "bound": 0.2},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
    {"name": "not_reported", "better": "lower", "bound": 0.1},
]


def runs(**figures):
    """Each side's runs from per-metric (parent, change) lists of figures."""
    return {side: [{name: pair[i][run] for name, pair in figures.items()}
                   for run in range(3)]
            for i, side in enumerate(("parent", "change"))}


def test_median_change_bound_and_pairs_won_per_metric():
    compared = bench_pairs.compare(runs(
        setup_s=([1.0, 1.0, 1.0], [1.25, 1.25, 1.25]),  # worse by exactly its bound
        op_s=([1.0, 1.2, 1.1], [0.9, 1.3, 1.0]),
        train_steps_per_s=([10.0, 10.0, 10.0], [9.0, 11.0, 12.0]),
        peak_rss_mb=([100.0, 100.0, 100.0], [111.0, 109.0, 112.0]),
    ), END_TO_END)
    assert compared == {
        "median_change_pct": {"setup_s": 25.0, "op_s": -9.09, "train_steps_per_s": 10.0,
                              "peak_rss_mb": 11.0},
        "within_bound": {"setup_s": True, "op_s": True, "train_steps_per_s": True,
                         "peak_rss_mb": False},
        "change_better_in_pairs": {"setup_s": 0, "op_s": 2, "train_steps_per_s": 2,
                                   "peak_rss_mb": 0},
    }


def test_a_higher_is_better_metric_past_its_bound():
    compared = bench_pairs.compare(
        runs(train_steps_per_s=([10.0, 10.0, 10.0], [7.0, 8.0, 9.0])), END_TO_END)
    assert compared["median_change_pct"] == {"train_steps_per_s": -20.0}
    assert compared["within_bound"] == {"train_steps_per_s": True}
    compared = bench_pairs.compare(
        runs(train_steps_per_s=([10.0, 10.0, 10.0], [7.0, 7.9, 9.0])), END_TO_END)
    assert compared["within_bound"] == {"train_steps_per_s": False}


def test_parent_without_end_to_end_metrics_exits_1_before_any_run(tmp_path, capsys):
    (tmp_path / "change").mkdir()
    assert bench_pairs.main([str(tmp_path), str(tmp_path / "change"), "--workload", "w",
                             "--pairs", "1", "--seed", "0"]) == 1
    (tmp_path / "BENCHMARK.json").write_text('{"workloads": []}')
    assert bench_pairs.main([str(tmp_path), str(tmp_path / "change"), "--workload", "w",
                             "--pairs", "1", "--seed", "0"]) == 1
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 2 and all("no end_to_end list" in line for line in errors)


@pytest.mark.parametrize("pairs", ["0", "-1"])
def test_fewer_than_one_pair_is_a_usage_error(tmp_path, pairs):
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main([str(tmp_path), str(tmp_path), "--workload", "w", "--pairs", pairs,
                          "--seed", "0"])
    assert exit_.value.code == 2
