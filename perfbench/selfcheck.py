"""Self-check: exact counts repeat, so a later change may rest a claim on one.

    python3 perfbench/selfcheck.py [--workloads ...]

For each workload, the first INSTANCES instances of seed SEED are run
traced in three fresh processes: twice with PYTHONHASHSEED=0 and once with
PYTHONHASHSEED=1.  Every count the trace records (conflicts, learned
clauses, lemmas by kind, minimization trials, enumeration solves, span
calls, ...) and every core must be identical, instance by instance.  It
also checks that BENCHMARK.json names the metrics run.py reports.
Exits 0 when everything matches.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import Tracer, install  # noqa: E402

SEED = 1
INSTANCES = 12


def child(workload_name: str) -> None:
    workload = run.WORKLOADS[workload_name]
    sm, corpus, _ = run.set_up(workload, SEED, INSTANCES / workload.per_second,
                               run.Speed(), reps=1)
    tracer = Tracer()
    install(tracer, sm)
    rows = []
    for inst in corpus[:INSTANCES]:
        before = Counter(tracer.counts)
        calls_before = Counter(span[0] for span in tracer.spans)
        _formula, report, muses = run.run_one(sm, workload, inst)
        row = dict(tracer.counts - before)
        calls = Counter(span[0] for span in tracer.spans) - calls_before
        row.update({f"{name}.calls": n for name, n in calls.items()})
        row["core"] = list(report.core)
        if muses is not None:
            row["muses"] = sorted(sorted(m) for m in muses[1].muses)
        rows.append(row)
    print(json.dumps(rows, sort_keys=True))


def run_child(workload: str, hash_seed: str):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    cmd = [sys.executable, str(Path(__file__)), "--child", workload]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: child failed\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_benchmark_json() -> list[str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for key, want in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        have = {m["name"]: m["unit"] for m in bench[key]}
        if have != want:
            problems.append(f"BENCHMARK.json {key} differs from run.py")
    if [w["name"] for w in bench["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=list(run.WORKLOADS))
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        child(args.child)
        return 0
    problems = check_benchmark_json()
    for workload in args.workloads:
        a, b, c = (run_child(workload, h) for h in ("0", "0", "1"))
        for label, other in (("same hash seed", b), ("other hash seed", c)):
            for k, (x, y) in enumerate(zip(a, other)):
                diff = sorted(key for key in x.keys() | y.keys() if x.get(key) != y.get(key))
                if diff:
                    problems.append(f"{workload} instance {k}, {label}: {', '.join(diff)}")
        print(f"{workload}: {len(a)} instances, {len(a[0])} counts each compared")
    for problem in problems:
        print("MISMATCH", problem)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
