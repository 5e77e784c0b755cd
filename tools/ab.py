"""Paired in-process A/B of the benchmark's per-instance operation.

    python3 tools/ab.py --parent REV [--change REV] --workload lra-core [--seed 2025] [--rounds 4]

Run from the repository root.  The `src/` and `perfbench/` of the parent
commit are taken from the local git history with `git archive` into a
temporary directory, and so are those of the change commit when
`--change` names one; without it, the change is the working tree's.
Both packages are imported into this process side by side, under two
package names (the package imports itself only by relative imports).
Every instance of the seeded perfbench corpus then runs on both sides,
each through the `run_one` of its own `perfbench/run.py`, `--rounds`
times, with the side that runs first alternating by instance and round.
The corpus and `run.signature` are the working tree's.  Each run is timed
in process CPU time, and both sides must give equal signatures.

Printed: the ratio change/parent of the total CPU time of all runs, a
bootstrap 95 % interval of that ratio, and the median over instances of
the ratio of their total times.  The bootstrap draws the instances with
replacement and, for each, one round, whose two runs were made side by
side, so the interval holds the spread of one pass from run to run as
well as the spread between instances.  Identical code imported twice can
read a percent or two apart, as each copy lies elsewhere in memory.  A
ratio below 1 means the working tree is faster.
"""
from __future__ import annotations

import argparse
import gc
import importlib.util
import io
import json
import random
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
RESAMPLES = 2000


def perfbench_run():
    """`perfbench/run.py`, loaded as the module `perfbench_run`."""
    module = sys.modules.get("perfbench_run")
    if module is None:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = sys.modules["perfbench_run"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def archive_tree(rev: str, dest: Path) -> Path:
    """Extract `src/` and `perfbench/` of commit `rev` under `dest`;
    returns `dest`."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev, "src", "perfbench"], cwd=ROOT,
                         stdout=subprocess.PIPE, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest


def load_tree(src: Path, name: str):
    """Import the `smtcore` package under `src` as the package `name`."""
    package = Path(src) / "smtcore"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_run_one(path: Path, name: str):
    """The `run_one` of the `perfbench/run.py` at `path`, loaded as the
    module `name`.  That file imports `workloads`, `spans` and `speed` by
    name and so finds the working tree's, which `perfbench_run` loads
    first; the entry it puts on `sys.path` is taken off again."""
    perfbench_run()
    saved = list(sys.path)
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module.run_one


def compare(parent, change, workload, corpus, rounds: int) -> tuple[list, list]:
    """Per instance and round, the CPU seconds of each side's run, a side
    being a pair (package, its `run_one`); raises AssertionError when the
    two sides' outcomes have different signatures."""
    signature = perfbench_run().signature
    sides = {"parent": parent, "change": change}
    times = {side: [[] for _ in corpus] for side in sides}
    for r in range(rounds):
        gc.collect()
        for k, inst in enumerate(corpus):
            order = ("parent", "change") if (k + r) % 2 == 0 else ("change", "parent")
            signatures = {}
            for side in order:
                sm, run_one = sides[side]
                start = time.process_time()
                try:
                    outcome = run_one(sm, workload, inst)
                except Exception as exc:  # compared by signature, as run.py does
                    outcome = exc
                elapsed = time.process_time() - start
                signatures[side] = signature(outcome)
                outcome = None
                times[side][k].append(elapsed)
            if signatures["parent"] != signatures["change"]:
                raise AssertionError(f"{inst.name}: parent gives {signatures['parent']}, "
                                     f"change gives {signatures['change']}")
    return times["parent"], times["change"]


def summary(parent: list, change: list, resamples: int = RESAMPLES, seed: int = 0) -> dict:
    """The ratio change/parent of the total times, its bootstrap 95 %
    interval (see the module docstring) and the median per-instance ratio,
    from the per-instance, per-round times of `compare`."""
    n, rounds = len(parent), len(parent[0])
    rng = random.Random(seed)
    ratios = []
    for _ in range(resamples):
        picked = [(rng.randrange(n), rng.randrange(rounds)) for _ in range(n)]
        ratios.append(sum(change[k][r] for k, r in picked) / sum(parent[k][r] for k, r in picked))
    ratios.sort()
    p, c = [sum(t) for t in parent], [sum(t) for t in change]
    return {
        "instances": n,
        "parent_ms": sum(p) / n / rounds * 1e3,
        "change_ms": sum(c) / n / rounds * 1e3,
        "ratio": sum(c) / sum(p),
        "low": ratios[int(0.025 * resamples)],
        "high": ratios[int(0.975 * resamples) - 1],
        "median_ratio": median(ci / pi for ci, pi in zip(c, p)),
        "faster": sum(ci < pi for ci, pi in zip(c, p)),
    }


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="the commit to compare the change with")
    ap.add_argument("--change", help="the commit to compare with the parent (default: the working tree)")
    ap.add_argument("--workload", required=True, choices=sorted(perfbench_run().WORKLOADS))
    ap.add_argument("--seed", type=int, default=2025)
    ap.add_argument("--rounds", type=_positive, default=4,
                    help="runs of each instance on each tree; an even count lets each side run first equally often")
    return ap.parse_args(argv)


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive count")
    return value


def main(argv=None) -> int:
    args = parse_args(argv)
    run = perfbench_run()
    workload = run.WORKLOADS[args.workload]
    # the benchmark's own corpus, at its run length
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    corpus = run.build_corpus(workload, args.seed, seconds)
    with tempfile.TemporaryDirectory() as tmp:
        sides = {}
        for side, rev in (("parent", args.parent), ("change", args.change)):
            name = f"ab_{side}_smtcore"
            if rev is None:
                sides[side] = load_tree(ROOT / "src", name), run.run_one
                continue
            try:
                root = archive_tree(rev, Path(tmp) / side)
            except subprocess.CalledProcessError:
                print(f"cannot take src/ and perfbench/ of {rev!r} from git", file=sys.stderr)
                return 2
            sides[side] = (load_tree(root / "src", name),
                           load_run_one(root / "perfbench" / "run.py", f"ab_{side}_run"))
        times = compare(sides["parent"], sides["change"], workload, corpus, args.rounds)
    s = summary(*times)
    print(f"{args.workload} seed {args.seed}, {s['instances']} instances, "
          f"{args.rounds} rounds, parent {args.parent}, change {args.change or 'working tree'}, "
          f"signatures equal")
    print(f"parent {s['parent_ms']:.3f} ms, change {s['change_ms']:.3f} ms an instance")
    print(f"total-CPU ratio {s['ratio']:.3f}, 95 % interval "
          f"[{s['low']:.3f}, {s['high']:.3f}], median per-instance ratio "
          f"{s['median_ratio']:.3f}, change faster on {s['faster']} of {s['instances']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
