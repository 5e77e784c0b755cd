"""Seeded benchmark of the smtcore core-extraction pipeline.

    python3 perfbench/run.py --workload lra-core --seed 1 --seconds 20 --trace 0

Run from the repository root.  One client runs the instances of one
workload back to back (a closed loop).  Each instance is the in-process
equivalent of `smtcore core FILE --method lift-proof --verify`: parse, CNF
conversion, then `lemma_lift_core` with the internal proof-based
extractor; on mus-enum the lift also minimizes and is followed by
`all_minimal_cores`.

`--seconds` sets the corpus size (see workloads.py), not a deadline: the
amount of work is fixed by the arguments, whatever the speed of the code.
With `--trace 0` the corpus runs once, in a fresh child process, and the
end-to-end metrics are reported, with times at the nominal speed of
speed.py.  With `--trace 1` the corpus runs in this process once untraced
and once with every layer wrapped (see spans.py), and the per-layer
metrics of the traced pass are reported.  Each instance's output is
checked right after its first run, outside the timed region.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import importlib
import json
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import Tracer, install  # noqa: E402
from speed import NOMINAL_S, Speed, clock  # noqa: E402
from workloads import WORKLOADS, build_corpus  # noqa: E402

SRC = HERE.parent / "src"
SETUP_REPS = 11
CONFLICT_BUDGET = 100_000

END_TO_END = {
    "setup_s": "s",
    "instance_ms.p50": "ms",
    "instance_ms.p90": "ms",
    "instances_per_s": "1/s",
    "core_ratio.mean": "ratio",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

# span name -> metric prefix; each gets .self_ms, and .calls where useful
SPANS = {
    "bench.instance": "bench.instance",
    "parser.parse": "parser.parse",
    "cnf.convert": "cnf.convert",
    "smt.init": "smt.init",
    "smt.solve": "sat.search",
    "smt.hook_fixpoint": "smt.hook_fixpoint",
    "smt.hook_final": "smt.hook_final",
    "smt.hook_backjump": "smt.hook_backjump",
    **{f"{t}.{m}": f"{t}.{m}" for t in ("lra", "euf")
       for m in ("assert_literal", "check_full", "deductions", "backtrack")},
    "cores.lemma_lift_core": "cores.lemma_lift_core",
    "cores.boolean_core": "cores.boolean_core",
    "cores.extract_sat": "cores.extract_sat",
    "cores.check_core": "cores.check_core",
    "cores.minimize_core": "cores.minimize_core",
    "mus.enumerate_mcs": "mus.enumerate_mcs",
    "mus.minimal_hitting_sets": "mus.minimal_hitting_sets",
}
CALLS = {  # metric -> span name
    "smt.solve.calls": "smt.solve",
    "smt.init.calls": "smt.init",
    "smt.hook_fixpoint.calls": "smt.hook_fixpoint",
    "smt.hook_final.calls": "smt.hook_final",
    "smt.hook_backjump.calls": "smt.hook_backjump",
    **{f"{t}.{m}.calls": f"{t}.{m}" for t in ("lra", "euf")
       for m in ("assert_literal", "check_full", "deductions", "backtrack")},
    "cores.check_core.calls": "cores.check_core",
}
TOTALS = {  # phases whose whole span time matters: verification, minimization, enumeration
    "cores.check_core.total_ms": "cores.check_core",
    "cores.minimize_core.total_ms": "cores.minimize_core",
    "mus.enumerate_mcs.total_ms": "mus.enumerate_mcs",
}
COUNTS = [
    "parser.bytes", "cnf.clauses", "sat.conflicts", "sat.learned", "sat.proof_nodes",
    "smt.lemmas.conflict", "smt.lemmas.deduction", "lra.deductions.found",
    "euf.deductions.found", "cores.boolean_core.in_clauses",
    "cores.boolean_core.out_clauses", "cores.minimize_core.trials",
    "cores.minimize_core.removed", "mus.enumerate_mcs.solves", "mus.enumerate_mcs.mcs",
    "mus.minimal_hitting_sets.mus",
]
PER_LAYER = {
    **{f"{p}.self_ms": "ms" for p in SPANS.values()},
    **{m: "count" for m in CALLS},
    **{m: "ms" for m in TOTALS},
    **{m: "count" for m in COUNTS},
    "smt.deduction.useful_ratio": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.accounted_frac": "ratio",
}


class CheckFailed(Exception):
    pass


def import_smtcore():
    """Import smtcore from scratch from the checkout's `src`."""
    for name in [m for m in sys.modules if m == "smtcore" or m.startswith("smtcore.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    importlib.import_module("smtcore.bench")  # the package does not import it
    sm = sys.modules["smtcore"]
    if not Path(sm.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"smtcore was found at {sm.__file__}, outside {SRC}")
    return sm


def set_up(workload, seed, seconds, speed, reps=SETUP_REPS):
    """Import the package and build the corpus `reps` times; returns the
    last package, the corpus and the median set-up time in seconds at
    nominal speed."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    times = []
    for _ in range(reps):
        before = speed.probe()
        start = clock()
        sm = import_smtcore()
        corpus = build_corpus(workload, seed, seconds)
        elapsed = clock() - start
        times.append(speed.scale(elapsed, before, speed.probe()))
    return sm, corpus, float(sm.bench.quantile(times, Fraction(1, 2)))


def run_one(sm, workload, inst):
    """The measured per-instance operation."""
    formula = sm.cnf.cnf_convert(sm.parser.parse(inst.text))
    config = sm.cores.ExtractorConfig("internal-proof",
                                      minimize=workload.minimize_and_enumerate)
    report = sm.cores.lemma_lift_core(formula, config, verify=True,
                                      conflict_budget=CONFLICT_BUDGET)
    muses = sm.mus.all_minimal_cores(formula) if workload.minimize_and_enumerate else None
    return formula, report, muses


def signature(outcome) -> list:
    """What every run of an instance must repeat, in JSON form."""
    if isinstance(outcome, Exception):
        return ["error", type(outcome).__name__]
    _formula, report, muses = outcome
    mus_part = None if muses is None else sorted(sorted(m) for m in muses[1].muses)
    return [report.verdict, list(report.core), mus_part]


def run_pass(sm, workload, corpus, speed, check, tracer=None) -> dict:
    """Run every instance once, in corpus order.  Returns, per instance,
    its CPU time at nominal speed (see speed.py) and the signature of its
    outcome; with `check`, also the problem the output checks found (None
    when correct) and the core ratio of an unsat outcome.  Checks run right
    after an instance, outside the timed region, and the outcome is dropped
    before the next instance, so that it does not stay alive to burden the
    collector."""
    result = {"times": [], "signatures": [], "problems": [], "ratios": []}
    for k, inst in enumerate(corpus):
        before = speed.probe()
        if tracer is not None:
            tracer.instance = k
            idx = tracer.begin("bench.instance")
        t0 = clock()
        try:
            outcome = run_one(sm, workload, inst)
        except Exception as exc:  # a failing instance is counted, never fatal
            outcome = exc
        elapsed = clock() - t0
        if tracer is not None:
            tracer.end(idx)
        result["times"].append(speed.scale(elapsed, before, speed.probe()))
        result["signatures"].append(signature(outcome))
        problem = ratio = None
        if check:
            try:
                check_instance(sm, workload, inst, outcome)
            except CheckFailed as exc:
                problem = str(exc)
            if not isinstance(outcome, Exception) and outcome[1].verdict == "unsat":
                ratio = len(outcome[1].core) / len(outcome[0].clauses)
        result["problems"].append(problem)
        result["ratios"].append(ratio)
        outcome = None
    return result


def check_instance(sm, workload, inst, outcome):
    """Raise CheckFailed unless the outcome is correct.  Untimed."""
    if isinstance(outcome, Exception):
        raise CheckFailed(f"raised {type(outcome).__name__}: {outcome}")
    formula, report, muses = outcome
    verdict, store = sm.smt.smt_solve(formula)
    if verdict.status != report.verdict:
        raise CheckFailed(f"lift says {report.verdict}, fresh solve says {verdict.status}")
    if verdict.status == "sat":
        if workload.all_unsat:
            raise CheckFailed("sat on a workload that is unsat by construction")
        for i, clause in enumerate(formula.clauses):
            if not sm.smt.evaluate_clause(clause, formula.atoms, verdict):
                raise CheckFailed(f"model falsifies clause {i}")
        return
    problem = sm.cores.check_core(formula, report.core)
    if problem is not None:
        raise CheckFailed(f"core: {problem}")
    problems = sm.smt.lemma_store_violations(formula, store, unsat=True)
    if problems:
        raise CheckFailed(f"lemma store: {problems[0]}")
    if inst.planted and set(report.assertions) != inst.planted:
        raise CheckFailed("core differs from the planted pigeonhole clauses")
    if muses is not None:
        mcs, mus = muses
        if not (mcs.complete and mus.complete):
            raise CheckFailed("enumeration incomplete")
        if frozenset(report.core) not in mus.muses:
            raise CheckFailed("minimized core is not among the enumerated MUSes")
        for c in report.core:
            rest = [i for i in report.core if i != c]
            if sm.smt.smt_solve(formula.restrict(rest))[0].status != "sat":
                raise CheckFailed(f"core stays unsat without clause {c}")


def instance_problems(passes) -> list:
    """Per instance: what the checks of the first pass found, or a
    disagreement of a later pass with the first; None when correct."""
    first = passes[0]
    found = list(first["problems"])
    for later in passes[1:]:
        for k, sig in enumerate(later["signatures"]):
            if found[k] is None and sig != first["signatures"][k]:
                found[k] = "repeated runs disagree"
    return found


def count_failed(corpus, passes) -> int:
    """Every run of an instance that failed a check or whose repeats
    disagree counts as failed."""
    failed = 0
    for k, problem in enumerate(instance_problems(passes)):
        if problem is not None:
            print(f"FAILED {corpus[k].name}: {problem}", file=sys.stderr)
            failed += len(passes)
    return failed


def core_ratio(first_pass) -> float:
    ratios = [r for r in first_pass["ratios"] if r is not None]
    return sum(ratios) / len(ratios) if ratios else float("nan")


def child_pass(workload, seed, seconds) -> dict:
    """The timed pass of `measure`, in this process."""
    speed = Speed()
    sm, corpus, _ = set_up(workload, seed, seconds, speed, reps=1)
    result = run_pass(sm, workload, corpus, speed, check=True)
    result["peak_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["reference_s"] = speed.samples
    return result


def measure(sm, workload, corpus, seed, seconds, setup_s):
    """One pass over the corpus in a fresh child process, which imports
    smtcore once: its peak memory holds nothing of the set-up repetitions
    made here.  Every instance is timed once."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
           "--seed", str(seed), "--seconds", str(seconds), "--child"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    timed = json.loads(proc.stdout.strip().splitlines()[-1])
    failed = count_failed(corpus, [timed])
    times = timed["times"]
    q = sm.bench.quantile
    metrics = {
        "setup_s": setup_s,
        "instance_ms.p50": float(q(times, Fraction(1, 2))) * 1e3,
        "instance_ms.p90": float(q(times, Fraction(9, 10))) * 1e3,
        "instances_per_s": len(times) / sum(times),
        "core_ratio.mean": core_ratio(timed),
        "ok_frac": 1.0 - failed / len(corpus),
        "peak_rss_mb": timed["peak_kb"] / 1024.0,
    }
    return len(corpus), failed, metrics, END_TO_END, timed["reference_s"]


def measure_traced(sm, workload, corpus, out_path, speed):
    """One untraced pass (which also checks), then one pass with every
    layer wrapped, both in this process."""
    untraced = run_pass(sm, workload, corpus, speed, check=True)
    tracer = Tracer()
    install(tracer, sm)
    traced = run_pass(sm, workload, corpus, speed, check=False, tracer=tracer)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(out_path)
    failed = count_failed(corpus, [untraced, traced])

    self_s, total_s, calls = tracer.self_times()
    c = tracer.counts
    metrics = {f"{p}.self_ms": self_s[s] * 1e3 for s, p in SPANS.items()}
    metrics.update({m: calls[s] for m, s in CALLS.items()})
    metrics.update({m: total_s[s] * 1e3 for m, s in TOTALS.items()})
    metrics.update({m: c[m] for m in COUNTS})
    found = c["lra.deductions.found"] + c["euf.deductions.found"]
    metrics["smt.deduction.useful_ratio"] = c["smt.lemmas.deduction"] / found if found else 0.0
    metrics["trace.overhead_frac"] = sum(traced["times"]) / sum(untraced["times"]) - 1.0
    # what the layer spans cover of the instances' wall time; the rest is
    # bench.instance self time, spent outside every wrapped entry point
    layers = sum(t for name, t in self_s.items() if name != "bench.instance")
    metrics["trace.accounted_frac"] = layers / total_s["bench.instance"]
    return 2 * len(corpus), failed, metrics, PER_LAYER, speed.samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.child:
        print(json.dumps(child_pass(workload, args.seed, args.seconds)))
        return 0
    speed = Speed()
    try:
        sm, corpus, setup_s = set_up(workload, args.seed, args.seconds, speed)
    except ImportError as exc:
        print(f"cannot import smtcore from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        out = Path.cwd() / ".perfbench_out" / f"trace-{args.workload}-{args.seed}.tsv"
        attempted, failed, values, units, ref = measure_traced(sm, workload, corpus, out, speed)
    else:
        attempted, failed, values, units, ref = measure(sm, workload, corpus, args.seed,
                                                        args.seconds, setup_s)
    ref = sorted(ref)
    print(f"reference work: median {ref[len(ref) // 2] * 1e3:.3f} ms over {len(ref)} "
          f"probes, nominal {NOMINAL_S * 1e3:.3f} ms")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
