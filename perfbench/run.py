"""radnet's benchmark: one seeded, single-process, closed-loop workload per run.

    python3 perfbench/run.py --workload train-radset --seed 3 --seconds 25 --trace 0

Run from the root of a checkout. `--trace 0` repeats the set-up and then the
workload's operation until `--seconds` are spent, and reports the end-to-end
metrics as medians, with times scaled to a reference host speed. `--trace 1`
runs set-up plus one operation untraced, then again with spans around
radnet's public calls, checks that both produce the same outputs, and
reports the per-layer metrics. The last line of standard output is the
result as one JSON object; scratch files go under `.perfbench_tmp/` and
span and result records under `.perfbench_out/`.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

# One BLAS / OpenMP thread, fixed before numpy is first imported (by tracer).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

from tracer import (  # noqa: E402
    PROBE_REFERENCE_S, Clock, SpeedSampler, Tracer, instrument, layer_metrics, probe_seconds)

ROOT = Path(__file__).resolve().parent.parent


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def source_digest() -> str:
    """Hash of the benchmark's and radnet's sources: runs of one code version share it."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "radnet").glob("*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median_figures(rows: list[dict]) -> dict[str, tuple[float, str]]:
    names = {name: unit for row in rows for name, (_, unit) in row.items()}
    return {name: (statistics.median(row[name][0] for row in rows if name in row), unit)
            for name, unit in names.items()}


class Runner:
    def __init__(self, workload, seed: int, seconds: int, scratch: Path, out_dir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.scratch = scratch
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        self.checks: list[tuple[str, bool]] = []
        self.attempted = 0
        self.failed = 0

    def record(self, checks) -> None:
        for name, ok in checks:
            self.checks.append((name, bool(ok)))
            self.attempted += 1
            self.failed += 0 if ok else 1

    def op(self, ctx, label: str):
        """One operation; an exception counts as a failed operation."""
        self.attempted += 1
        try:
            return self.workload.op(ctx, self.scratch / label)
        except Exception:  # noqa: BLE001 - one failed operation, reported and counted
            traceback.print_exc()
            self.failed += 1
            return None

    def stable_checks(self, ops) -> list[tuple[str, bool]]:
        """Values that must repeat in every operation and in every run of this seed."""
        cache_path = self.out_dir / "stable.json"
        cache = json.loads(cache_path.read_text()) if cache_path.is_file() else {}
        key = f"{self.workload.name}/seed{self.seed}/{source_digest()}"
        first = ops[0].stable
        same = all(op.stable == first for op in ops)
        earlier = cache.setdefault(key, first)
        cache_path.write_text(json.dumps(cache, indent=1, sort_keys=True) + "\n")
        return [("stable_within_run", same), ("stable_across_runs", earlier == first)]

    def measure(self) -> dict:
        # Every set-up and operation is scaled by probes sampled while it runs
        # (see SpeedSampler); one shorter than the sampling period, by the
        # probe taken before the set-ups.
        before = probe_seconds()
        setup, setup_rows = [], []
        for _ in range(self.workload.setup_repeats):
            with SpeedSampler() as sampler, Clock() as clock:
                ctx = self.workload.setup(self.seed)
            scale = sampler.scale(fallback=before)
            setup.append(((clock.cpu - sampler.probe_s) * scale, clock.cpu, clock.wall))
            setup_rows.append(self.workload.setup_figures(ctx, scale))
        ops, scales, probes = [], [], []
        start = time.perf_counter()
        while True:
            with SpeedSampler() as sampler:
                op = self.op(ctx, f"op{len(ops)}")
            if op is None:
                break
            op.seconds -= sampler.probe_s
            ops.append(op)
            scales.append(sampler.scale(fallback=before))
            probes += sampler.samples
            spent = time.perf_counter() - start
            if spent + statistics.median(o.wall for o in ops) > self.seconds:
                break
        if not ops:
            return {}
        peak_rss = peak_rss_mb()  # before the checks, which allocate on their own
        self.record(self.workload.checks(ctx, ops))
        self.record(self.stable_checks(ops))
        figures = median_figures(setup_rows) | median_figures(
            [self.workload.figures(ctx, op, scale) for op, scale in zip(ops, scales)])
        figures |= {
            "setup_s": (statistics.median(s[0] for s in setup), "s"),
            "setup_cpu_s": (statistics.median(s[1] for s in setup), "s"),
            "setup_wall_s": (statistics.median(s[2] for s in setup), "s"),
            "op_s": (statistics.median(op.seconds * k for op, k in zip(ops, scales)), "s"),
            "op_cpu_s": (statistics.median(op.seconds for op in ops), "s"),
            "op_wall_s": (statistics.median(op.wall for op in ops), "s"),
            "probe_ms": (1e3 * statistics.median(probes or [before]), "ms"),
            "peak_rss_mb": (peak_rss, "MB"),
            "ops": (len(ops), "count"),
            "error_rate": (self.failed / self.attempted, "1"),
        }
        return figures

    def trace(self) -> dict:
        with Clock() as plain_clock:
            ctx = self.workload.setup(self.seed)
            plain = self.op(ctx, "untraced")

        tracer = Tracer(f"{self.workload.name}-seed{self.seed}")
        with instrument(tracer):
            with Clock() as traced_clock:
                traced_ctx = self.workload.setup(self.seed)
                traced = self.op(traced_ctx, "traced")
        if plain is None or traced is None:
            return {}
        tracer.write_spans(self.out_dir / f"spans-{self.workload.name}-seed{self.seed}.jsonl")

        self.record(self.workload.checks(ctx, [plain]))
        self.record(self.workload.checks(traced_ctx, [traced]))
        self.record(self.stable_checks([plain, traced]))
        fired = set(tracer.fired)
        missing = sorted(self.workload.bindings - fired)
        extra = sorted(fired - self.workload.bindings)
        for label, names in (("bindings not fired", missing), ("bindings not declared", extra)):
            if names:
                print(f"{label}: {', '.join(names)}", file=sys.stderr)
        self.record([("traced_outputs_identical", plain.outputs == traced.outputs),
                     ("bindings_fired", not missing and not extra)])
        figures = layer_metrics(tracer)
        figures["trace.overhead_pct"] = (
            100.0 * (traced_clock.cpu - plain_clock.cpu) / plain_clock.cpu, "%")
        return figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file() or not (ROOT / "src" / "radnet" / "__init__.py").is_file():
        print(f"error: {ROOT} is not a radnet checkout (needs BENCHMARK.json and "
              "src/radnet)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(workload.name, "")

    scratch_root = ROOT / ".perfbench_tmp"
    out_dir = ROOT / ".perfbench_out"
    scratch_root.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=scratch_root) as scratch:
            runner = Runner(workload, args.seed, args.seconds, Path(scratch), out_dir)
            figures = runner.trace() if args.trace else runner.measure()
    finally:
        shutil.rmtree(scratch_root, ignore_errors=True)
    if not figures:
        print("error: no operation completed", file=sys.stderr)
        return 1

    env = environment()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: {why}")
    for name, (value, unit) in figures.items():
        print(f"metric {name} {value:.6g} {unit}")
    for name, ok in runner.checks:
        print(f"check {name} {'ok' if ok else 'FAILED'}")
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env,
              "figures": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
              "checks": dict(runner.checks), "attempted": runner.attempted,
              "failed": runner.failed}
    (out_dir / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": figures[m["name"]][0], "unit": figures[m["name"]][1]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
