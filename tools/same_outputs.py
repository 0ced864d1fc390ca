"""Check that two checkouts give the same benchmark outputs, bit for bit.

    python tools/same_outputs.py PARENT CHANGE --seeds 0 1

For each checkout, a fresh interpreter imports that checkout's
`perfbench/workloads.py` and `src/radnet`, and runs every workload's set-up,
one operation and its checks at each seed, untimed and untraced, with one
BLAS thread. The script prints each operation's `Op.outputs` from both
checkouts and exits 1 when any output differs, any check fails, or a
workload runs in one checkout only. A change
that should not alter results (a refactor, a speed-up that keeps the
arithmetic) is checked this way before its benchmark pairs are run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def run_tree(tree: Path, seeds: list[int]) -> dict[tuple[str, int], dict]:
    """{(workload, seed): record} from a fresh interpreter in `tree`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"), str(tree / "perfbench")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    argv = [sys.executable, __file__, "--worker", "--seeds", *map(str, seeds)]
    done = subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.PIPE, check=True, text=True)
    records = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    return {(record["workload"], record["seed"]): record for record in records}


def worker(seeds: list[int]) -> None:
    """Print one JSON record per workload and seed of the checkout on sys.path."""
    import warnings

    import workloads

    warnings.simplefilter("ignore", UserWarning)  # thin tails are the workloads' own business
    for name, workload in workloads.WORKLOADS.items():
        for seed in seeds:
            ctx = workload.setup(seed)
            with tempfile.TemporaryDirectory() as workdir:
                op = workload.op(ctx, Path(workdir))
                checks = workload.checks(ctx, [op])
            failed = [check for check, ok in checks if not ok]
            print(json.dumps({"workload": name, "seed": seed, "outputs": op.outputs,
                              "failed": failed}), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", type=Path, help="PARENT and CHANGE checkouts")
    parser.add_argument("--seeds", nargs="+", type=int, default=[0, 1])
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.seeds)
        return 0
    if len(args.trees) != 2:
        parser.error("give two checkouts: PARENT CHANGE")
    parent, change = (run_tree(tree.resolve(), args.seeds) for tree in args.trees)
    same = True
    for workload, seed in sorted(parent.keys() | change.keys()):
        print(f"{workload} seed {seed}")
        missing = {"outputs": {}, "failed": ["workload missing"]}
        old, new = parent.get((workload, seed), missing), change.get((workload, seed), missing)
        for key in sorted(old["outputs"].keys() | new["outputs"].keys()):
            a, b = old["outputs"].get(key), new["outputs"].get(key)
            print(f"  {key:12s} {a!r:24} {b!r:24} {'same' if a == b else 'DIFFERENT'}")
            same &= a == b
        for side, record in (("parent", old), ("change", new)):
            if record["failed"]:
                print(f"  {side} failed checks: {', '.join(record['failed'])}")
                same = False
    print("outputs identical" if same else "outputs differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
