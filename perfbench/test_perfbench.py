"""The benchmark's own tests: span arithmetic, wrapper coverage, traced runs.

    python3 -m pytest perfbench

The workloads run here at reduced sizes; the bindings each one fires do not
depend on size, so coverage and traced-versus-untraced identity carry over.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class SmallTrain(workloads.TrainRadset):
    nodes, features, days = 4, 7, 3


class SmallDetect(workloads.Detect64):
    nodes, days, train_days = 8, 8, 2


class SmallPipeline(workloads.PipelineC07):
    synth = dict(workloads.PipelineC07.synth, days=4, events=4, min_start=0)
    train_flags = ("--max-epochs", "1", "--patience", "1")


SMALL = {w.name: w for w in (SmallTrain(), SmallDetect(), SmallPipeline())}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_direct_children_only():
    t = tracer.Tracer("unit")
    t.spans = [("outer", 0.0, 10.0, -1), ("mid", 2.0, 6.0, 0), ("inner", 3.0, 4.0, 1),
               ("mid", 7.0, 8.0, 0)]
    assert t.self_times() == {"outer": 5.0, "mid": 4.0, "inner": 1.0}


def test_spans_nest_and_record_parents():
    t = tracer.Tracer("unit")
    t.call("outer", lambda: t.call("inner", lambda: 7, (), {}), (), {})
    (inner, *_, inner_parent), (outer, *_, outer_parent) = t.spans[1], t.spans[0]
    assert (outer, outer_parent, inner, inner_parent) == ("outer", -1, "inner", 0)


def test_every_binding_is_declared():
    """A new `from .x import y` of a traced callable must be added to a table."""
    declared = set(tracer.IDLE_BINDINGS).union(*(w.bindings for w in workloads.WORKLOADS.values()))
    assert tracer.discover_bindings() == declared


def test_instrument_restores_every_binding():
    from radnet import incidents, pipeline, tensor

    before = (pipeline.pot_fit, incidents.gpd_fit, tensor.DiffArray.backward,
              vars(incidents.IncidentLabels)["from_csv"])
    with tracer.instrument(tracer.Tracer("unit")):
        assert pipeline.pot_fit is not before[0]
    after = (pipeline.pot_fit, incidents.gpd_fit, tensor.DiffArray.backward,
             vars(incidents.IncidentLabels)["from_csv"])
    assert after == before


def test_spec_lists_every_per_layer_metric():
    produced = tracer.layer_metrics(tracer.Tracer("unit"))
    produced["trace.overhead_pct"] = (0.0, "%")
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (_, unit) in produced.items()}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(SMALL))
def test_traced_run_fires_every_binding_and_matches_untraced(name, tmp_path):
    runner = run.Runner(SMALL[name], seed=0, seconds=1, scratch=tmp_path / "tmp",
                        out_dir=tmp_path / "out")
    figures = runner.trace()
    checks = dict(runner.checks)
    assert checks["bindings_fired"], "see stderr for the bindings that did not fire"
    assert checks["traced_outputs_identical"]
    assert checks["stable_within_run"]
    assert {m["name"] for m in SPEC["per_layer"]} == set(figures)
    assert (tmp_path / "out" / f"spans-{name}-seed0.jsonl").is_file()


@pytest.mark.parametrize("name", list(SMALL))
def test_measured_run_reports_every_end_to_end_metric(name, tmp_path):
    runner = run.Runner(SMALL[name], seed=0, seconds=0.1, scratch=tmp_path / "tmp",
                        out_dir=tmp_path / "out")
    figures = runner.measure()
    for metric in SPEC["end_to_end"]:
        value, unit = figures[metric["name"]]
        assert unit == metric["unit"] and value > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "train-radset", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
