"""Run alternating benchmark runs of two checkouts and print every run's figures.

    python tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --seed S [--seconds T]

Each run is `python3 perfbench/run.py --workload W --seed S --seconds T`
(T is 25 by default) in a fresh process started in its checkout's root, so
each side runs its own `perfbench/` and `src/`. Pair i runs PARENT first
when i is even and CHANGE first when it is odd. A run's standard output goes
to a temporary file, whose last line is the run's result; `os.wait4` gives
the child's minor page faults and its user and system CPU seconds.

The script prints one JSON object: for each side, every run's end-to-end
metrics, `correct`, `attempted`, `failed`, `minor_faults`, `user_s` and
`system_s` in run order (`runs`), their medians and quartiles (`summary`),
and the number of pairs in which the change's `op_s` is the lower
(`change_lower_op_s_in_pairs`). It exits 1 when a run exits non-zero or
reports no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in `tree`: its result's figures and the child's rusage."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    with tempfile.TemporaryFile() as out:
        child = subprocess.Popen(argv, cwd=tree, stdout=out)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        lines = out.read().decode().splitlines()
    if child.returncode != 0 or not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{tree}: run exited {child.returncode} without a result")
    result = json.loads(lines[-1])
    figures = {name: metric["value"] for name, metric in result["metrics"].items()}
    figures.update({key: result[key] for key in ("correct", "attempted", "failed")})
    figures.update(minor_faults=usage.ru_minflt, user_s=usage.ru_utime, system_s=usage.ru_stime)
    return figures


def summary(runs: list[dict]) -> dict:
    """Median and quartiles of every numeric figure over `runs`."""
    out = {}
    for name, value in runs[0].items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            values = [run[name] for run in runs]
            q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                              else [values[0]] * 3)
            out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {"parent": [], "change": []}
    try:
        for pair in range(args.pairs):
            for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
                run = run_once(trees[side], args.workload, args.seed, args.seconds)
                runs[side].append(run)
                print(f"pair {pair} {side}: op_s {run.get('op_s')} "
                      f"minor_faults {run['minor_faults']}", file=sys.stderr)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    lower = sum(c["op_s"] < p["op_s"] for p, c in zip(runs["parent"], runs["change"]))
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "pairs": args.pairs, "order": "alternating, parent first in even-numbered pairs",
        "trees": {side: str(tree) for side, tree in trees.items()},
        "runs": runs, "summary": {side: summary(r) for side, r in runs.items()},
        "change_lower_op_s_in_pairs": lower,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
