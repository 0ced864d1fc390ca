"""Check that two checkouts give the same benchmark outputs, bit for bit or within rtol.

    python tools/same_outputs.py PARENT CHANGE --seeds 0 1 [--rtol R]

For each checkout, a fresh interpreter imports that checkout's
`perfbench/workloads.py` and `src/radnet`, and runs every workload's set-up,
one operation and its checks at each seed, untimed and untraced, with one
BLAS thread. The script prints each operation's `Op.outputs` from both
checkouts and exits 1 when any output differs, any check fails, or a
workload runs in one checkout only. A change
that should not alter results (a refactor, a speed-up that keeps the
arithmetic) is checked this way before its benchmark pairs are run.

Beside the workloads, each checkout trains every model variant for 2
epochs at N=4, D=1 (flattened) and at N=5, D=3 (per node) on two days of
the synthetic series of data seed 0, the model and its training seeded by
each of `--seeds`. At N=4, D=1 every variant also trains through a
teacher-forced rollout (`autoregressive_horizon=3`, `teacher_forcing_p=0.5`,
records `train-<variant>-n4d1-h3`). Each such record
(`train-<variant>-n<N>d<D>`) holds the digest (SHA-256) of the trained
`store.flat` and `best_val_mse`. They add about 1.4 s of CPU time per seed
and checkout, 0.7 s of it the rollouts (2 cores, Python 3.11, numpy 2.4).

A workload that fixes its own seed (a `seed` attribute of its class, as
pipeline-c07's acceptance run does) ignores the run's seed, so it runs once,
at the first of `--seeds`, in both checkouts, and the output says so.

The second checkout runs the workloads and seeds in the reverse order of
the first, so an output that depends on what ran before it in the same
interpreter (through a cache or a shared table) differs between the two:
`same_outputs.py . . --seeds 1` checks a checkout for exactly that.

With `--rtol R`, a change that sums in another order passes where its
outputs agree within R. A float output passes within R of the larger
magnitude. A digest passes where the arrays behind it (`workloads.digest`)
match: integer and boolean arrays exactly, float arrays (a trained
`store.flat` among them) within R of their largest magnitude. A file hash
passes where the CSV file behind it matches row by row: columns of
integers (timesteps, link ids, labels) exactly, other numeric columns
(scores, thresholds) within R of the column's largest magnitude. The
script prints the largest relative difference it accepted. Without
`--rtol` every output must be equal, bit for bit.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def run_tree(tree: Path, seeds: list[int], flags: list[str]) -> dict[tuple[str, int], dict]:
    """{(workload, seed): record} from a fresh interpreter in `tree`, whose
    worker takes the extra `flags`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"), str(tree / "perfbench")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    argv = [sys.executable, __file__, "--worker", *flags, "--seeds", *map(str, seeds)]
    done = subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.PIPE, check=True, text=True)
    records = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    return {(record["workload"], record["seed"]): record for record in records}


def run_workload(workload, seed: int, workdir: Path) -> tuple[dict, list[str]]:
    """(the outputs of one operation, the checks it failed)."""
    ctx = workload.setup(seed)
    op = workload.op(ctx, workdir)
    return op.outputs, [check for check, ok in workload.checks(ctx, [op]) if not ok]


def train_variant(variant: str, nodes: int, features: int, rollout: int, seed: int,
                  workdir: Path) -> tuple[dict, list[str]]:
    """(the digest of the trained `store.flat` and `best_val_mse`, no failed checks);
    `rollout` > 0 trains through a teacher-forced rollout of that horizon."""
    import workloads
    from radnet import data, training
    from radnet.model import RadNet, RadNetConfig

    series, graph, _ = data.synth_traffic(nodes, days=2, n_features=features, seed=0)
    model = RadNet(RadNetConfig(n_nodes=nodes, n_features=features, variant=variant, seed=seed))
    forcing = {"autoregressive_horizon": rollout, "teacher_forcing_p": 0.5} if rollout else {}
    result = training.train(model, series, graph,
                            training.TrainConfig(max_epochs=2, patience=2, seed=seed, **forcing))
    return {"flat": workloads.digest(model.store.flat),
            "best_val_mse": float(result.best_val_mse)}, []


def worker(seeds: list[int], reverse: bool, behind: bool) -> None:
    """Print one JSON record per workload or trained variant and seed of the
    checkout on sys.path, in the reverse order with `reverse`.

    With `behind`, a record also holds what stands behind each digest and
    file hash among the outputs: the digested arrays, or the hashed CSV
    file's rows.
    """
    import warnings

    import numpy as np
    import workloads
    from radnet.model import VARIANTS

    digested = {}
    if behind:
        plain_digest = workloads.digest

        def recording_digest(*arrays):
            key = plain_digest(*arrays)
            digested[key] = {"arrays": [{"kind": np.asarray(a).dtype.kind,
                                         "shape": list(np.shape(a)),
                                         "values": np.asarray(a).ravel().tolist()} for a in arrays]}
            return key

        workloads.digest = recording_digest
    warnings.simplefilter("ignore", UserWarning)  # thin tails are the workloads' own business
    jobs = {name: functools.partial(run_workload, workload)
            for name, workload in workloads.WORKLOADS.items()}
    fixed = {name: workload.seed for name, workload in workloads.WORKLOADS.items()
             if getattr(workload, "seed", None) is not None}
    for nodes, features, rollout in ((4, 1, 0), (5, 3, 0), (4, 1, 3)):
        for variant in VARIANTS:
            name = f"train-{variant}-n{nodes}d{features}" + (f"-h{rollout}" if rollout else "")
            jobs[name] = functools.partial(train_variant, variant, nodes, features, rollout)
    runs = [(name, seed) for name in jobs for seed in (seeds[:1] if name in fixed else seeds)]
    for name, seed in reversed(runs) if reverse else runs:
        digested.clear()
        with tempfile.TemporaryDirectory() as workdir:
            outputs, failed = jobs[name](seed, Path(workdir))
            record = {"workload": name, "seed": seed, "outputs": outputs,
                      "fixed_seed": fixed.get(name)}
            if behind:
                record["behind"] = {key: digested[key] for key in outputs.values()
                                    if key in digested}
                hashes = {value for value in outputs.values() if isinstance(value, str)}
                for path in sorted(Path(workdir).rglob("*.csv")):
                    key = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
                    if key in hashes:
                        with open(path, newline="", encoding="utf-8") as fh:
                            record["behind"][key] = {"rows": list(csv.reader(fh))}
        record["failed"] = failed
        print(json.dumps(record), flush=True)


def _relative(got: list[float], want: list[float]) -> float:
    """Largest |got - want| over the largest magnitude of either side."""
    scale = max(map(abs, got + want), default=0.0)
    worst = max((abs(a - b) for a, b in zip(got, want)), default=0.0)
    return 0.0 if worst == 0.0 else worst / scale if scale > 0 else math.inf


def _is_int(cell: str) -> bool:
    try:
        int(cell)
    except ValueError:
        return False
    return True


def _compare_rows(old: list[list[str]], new: list[list[str]]) -> float:
    """Largest relative difference of two CSV files' numeric columns that are
    not all integers; inf where their shapes, headers or other cells differ."""
    if len(old) != len(new) or not old or old[0] != new[0] or any(
            len(a) != len(b) for a, b in zip(old, new)):
        return math.inf
    worst = 0.0
    for column in range(len(old[0])):
        cells = [(a[column], b[column]) for a, b in zip(old[1:], new[1:])]
        if all(_is_int(a) and _is_int(b) for a, b in cells):
            if any(int(a) != int(b) for a, b in cells):
                return math.inf
            continue
        try:
            got, want = [float(b) for _, b in cells], [float(a) for a, _ in cells]
        except ValueError:
            if any(a != b for a, b in cells):
                return math.inf
            continue
        worst = max(worst, _relative(got, want))
    return worst


def _compare_arrays(old: list[dict], new: list[dict]) -> float:
    """Largest relative difference of two digests' float arrays; inf where
    their shapes, kinds or non-float values differ."""
    if len(old) != len(new):
        return math.inf
    worst = 0.0
    for a, b in zip(old, new):
        if (a["kind"], a["shape"]) != (b["kind"], b["shape"]):
            return math.inf
        if a["kind"] != "f":
            if a["values"] != b["values"]:
                return math.inf
            continue
        worst = max(worst, _relative(b["values"], a["values"]))
    return worst


def difference(a, b, old_behind: dict, new_behind: dict) -> float:
    """Relative difference of two outputs: 0 when equal, inf when they differ
    in anything but float values."""
    if a == b:
        return 0.0
    if all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b)):
        return _relative([float(b)], [float(a)])
    old, new = old_behind.get(a), new_behind.get(b)
    if old is None or new is None or old.keys() != new.keys():
        return math.inf
    if "rows" in old:
        return _compare_rows(old["rows"], new["rows"])
    return _compare_arrays(old["arrays"], new["arrays"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", type=Path, help="PARENT and CHANGE checkouts")
    parser.add_argument("--seeds", nargs="+", type=int, default=[0, 1])
    parser.add_argument("--rtol", type=float, default=None,
                        help="accept float outputs within this relative difference")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--reverse", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--behind", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.seeds, args.reverse, args.behind)
        return 0
    if len(args.trees) != 2:
        parser.error("give two checkouts: PARENT CHANGE")
    if args.rtol is not None and not args.rtol >= 0.0:
        parser.error("--rtol must be a number >= 0")
    flags = [] if args.rtol is None else ["--behind"]
    parent = run_tree(args.trees[0].resolve(), args.seeds, flags)
    change = run_tree(args.trees[1].resolve(), args.seeds, flags + ["--reverse"])
    same = True
    for workload, seed in sorted(parent.keys() | change.keys()):
        missing = {"outputs": {}, "behind": {}, "failed": ["workload missing"]}
        old, new = parent.get((workload, seed), missing), change.get((workload, seed), missing)
        fixed = old.get("fixed_seed", new.get("fixed_seed"))
        print(f"{workload} seed {seed}" if fixed is None else
              f"{workload} seed {seed}: ignores the seed (runs at its own seed {fixed}), run once")
        worst = 0.0
        for key in sorted(old["outputs"].keys() | new["outputs"].keys()):
            a, b = old["outputs"].get(key), new["outputs"].get(key)
            if a == b:
                verdict = "same"
            elif args.rtol is not None and key in old["outputs"] and key in new["outputs"]:
                rel = difference(a, b, old["behind"], new["behind"])
                ok = rel <= args.rtol
                verdict = f"{'within' if ok else 'BEYOND'} rtol ({rel:.3g})"
                same &= ok
                worst = max(worst, rel) if ok else worst
            else:
                verdict = "DIFFERENT"
                same = False
            print(f"  {key:12s} {a!r:24} {b!r:24} {verdict}")
        if args.rtol is not None:
            print(f"  largest relative difference accepted: {worst:.3g}")
        for side, record in (("parent", old), ("change", new)):
            if record["failed"]:
                print(f"  {side} failed checks: {', '.join(record['failed'])}")
                same = False
    if args.rtol is None:
        print("outputs identical" if same else "outputs differ")
    else:
        print(f"outputs agree within rtol {args.rtol:g}" if same else "outputs differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
