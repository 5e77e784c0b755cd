"""Seeded scale cases, each timed in a fresh child process.

    python3 tools/scale.py [--case NAME ...] [--src DIR] [--json PATH]

Run from the repository root.  Each case builds one seeded instance five
to ten times larger than the tier-1 tests, with the generators of
`tests/gen.py`, and times one library call on it, in a child process of
its own, so that no case inherits another's heap, caches or collector
state.  The child imports `smtcore` from `--src` (default: this
checkout's `src/`); to time another revision, extract its tree first, for
example `git archive REV src | tar -x -C DIR`, and pass `--src DIR/src`.

Every call is timed with `perfbench/speed.py`'s `clock`, the CPU time of
the process, and bracketed by two runs of its `Speed` probe, from which
the time at the probe's nominal speed is derived, as `perfbench/run.py`
reports its instances.  Building the instance and checking the call's
output are outside the timed region.  The checks are independent of the
answer's shape: a satisfiable answer's model satisfies every clause, a
core is refuted by a fresh engine (`check_core`), a minimized core loses
that when any one clause goes, each correction set leaves a satisfiable
formula, each hitting set hits every correction set and a logged proof
replays (`check_proof`).  A case whose check fails is reported, and the
script exits with status 1.

Printed: one line per case, with its CPU seconds, its seconds at nominal
speed and what the call returned.  `--json` also writes the rows to a
file.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent

# name -> (kind, arguments): a generator's sizes and seed, or a depth
CASES = {
    **{f"solve-40x200w3-s{s}": ("solve", (40, 200, 3, s)) for s in (0, 1)},
    **{f"extract-12x60w2-s{s}": ("extract", (12, 60, 2, s)) for s in (0, 3, 7)},
    **{f"minimize-12x60w2-s{s}": ("minimize", (12, 60, 2, s)) for s in (0, 3, 7)},
    **{f"mcs-uf8x40-s{s}": ("mcs", (8, 40, s)) for s in (0, 4)},
    **{f"mhs-uf8x40-s{s}": ("mhs", (8, 40, s)) for s in (0, 4)},
    "php8x7": ("php", (7, 20, 40, 1, False)),
    "php8x7-proof": ("php", (7, 20, 40, 1, True)),
    "ite-12": ("ite", (12,)),
}


class CheckFailed(Exception):
    pass


def ite_chain(depth: int) -> str:
    """SMT-LIB text asserting f_depth, where f_0 = p0 and
    f_k = (ite f_(k-1) p_k q_k)."""
    decls = ["(declare-fun p0 () Bool)"] + [f"(declare-fun p{k} () Bool) (declare-fun q{k} () Bool)"
                                            for k in range(1, depth + 1)]
    term = "p0"
    for k in range(1, depth + 1):
        term = f"(ite {term} p{k} q{k})"
    return "\n".join(decls + [f"(assert {term})"])


def prepare(kind: str, args: tuple):
    """The untimed input of a case, the timed call on it, and the check of
    the call's result, which returns a short description of it."""
    import gen
    from smtcore import cores, mus, sat, smt
    from smtcore.cnf import cnf_convert
    from smtcore.parser import parse

    def unsat_core(formula, report, minimal):
        if report.verdict != "unsat":
            raise CheckFailed(f"verdict {report.verdict}, not unsat")
        if problem := cores.check_core(formula, report.core):
            raise CheckFailed(problem)
        if minimal and any(smt.smt_solve(formula.restrict(set(report.core) - {i}))[0].status
                           != "sat" for i in report.core):
            raise CheckFailed("the minimized core is not one-deletion minimal")
        return f"core of {len(report.core)} of {len(formula.clauses)} clauses"

    def mcses_of(formula, found):
        if not found.complete:
            raise CheckFailed("the correction sets are incomplete")
        everything = set(range(len(formula.clauses)))
        for m in found.mcses:
            if smt.smt_solve(formula.restrict(everything - m))[0].status != "sat":
                raise CheckFailed(f"removing {sorted(m)} leaves an unsat formula")
        if any(a < b for a in found.mcses for b in found.mcses):
            raise CheckFailed("one correction set contains another")
        return f"{len(found.mcses)} MCSes"

    if kind == "solve":
        n, m, width, seed = args
        formula = gen.random_difference_formula(Random(seed), n, m, width)

        def check(result):
            verdict, store = result
            if verdict.status == "sat" and not all(
                    smt.evaluate_clause(c, formula.atoms, verdict) for c in formula.clauses):
                raise CheckFailed("the model falsifies a clause")
            if verdict.status == "unsat" and smt.lemma_store_violations(formula, store, True):
                raise CheckFailed("the lemma store violates its facts")
            return f"{verdict.status}, {len(store)} lemmas"
        return (lambda: smt.smt_solve(formula)), check
    if kind in ("extract", "minimize"):
        n, m, width, seed = args
        formula = gen.random_difference_formula(Random(seed), n, m, width)
        minimize = kind == "minimize"
        return (lambda: cores.extract_core(formula, "lift-proof", minimize=minimize, verify=True),
                lambda report: unsat_core(formula, report, minimize))
    if kind in ("mcs", "mhs"):
        n, m, seed = args
        formula = gen.random_uf_formula(Random(seed), n, m)
        if kind == "mcs":
            return (lambda: mus.enumerate_mcs(formula)), lambda found: mcses_of(formula, found)
        mcses = mus.enumerate_mcs(formula).mcses

        def check(found):
            if not all(not s.isdisjoint(m) for s in found.muses for m in mcses):
                raise CheckFailed("a set misses a correction set")
            return f"{len(found.muses)} MUSes{'' if found.complete else ' (capped)'}"
        return (lambda: mus.minimal_hitting_sets(mcses)), check
    if kind == "php":
        holes, noise_vars, noise_clauses, seed, log_proof = args
        clauses, _ = gen.pigeonhole_cnf(Random(seed), holes, noise_vars, noise_clauses)

        def check(verdict):
            if verdict.status != "unsat":
                raise CheckFailed(f"verdict {verdict.status}, not unsat")
            if log_proof and (problem := sat.check_proof(verdict.proof, clauses)):
                raise CheckFailed(problem)
            return "unsat" + (", proof checked" if log_proof else "")
        return (lambda: sat.sat_solve(clauses, log_proof=log_proof)), check
    if kind == "ite":
        text = ite_chain(*args)

        def check(formula):
            if sat.sat_solve(formula.clauses).status != "sat":
                raise CheckFailed("the chain's CNF is not satisfiable")
            return f"{len(formula.clauses)} clauses"
        return (lambda: cnf_convert(parse(text))), check
    raise ValueError(f"unknown case kind {kind!r}")


def child(kind: str, args: tuple) -> dict:
    """Run one case in this process: its row, or a CheckFailed."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from speed import Speed, clock

    call, check = prepare(kind, args)
    speed = Speed()
    before = speed.probe()
    start = clock()
    result = call()
    elapsed = clock() - start
    nominal = speed.scale(elapsed, before, speed.probe())
    return {"cpu_s": elapsed, "nominal_s": nominal, "result": check(result)}


def run_case(kind: str, args: tuple, src: Path) -> dict:
    """Run one case in a fresh child importing `smtcore` from `src`; its
    row, with `error` set when the child failed."""
    proc = subprocess.run([sys.executable, __file__, "--child", json.dumps([kind, list(args)]),
                           "--src", str(src)], capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        lines = (proc.stderr or proc.stdout).strip().splitlines()
        return {"error": lines[-1] if lines else f"exit status {proc.returncode}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--case", action="append", choices=list(CASES),
                    help="a case to run, repeatable (default: every case)")
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="the directory holding the smtcore package to time")
    ap.add_argument("--json", type=Path, help="also write the rows to this file")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (args.src / "smtcore" / "__init__.py").is_file():
        ap.error(f"no smtcore package under {args.src}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child is not None:
        sys.path[:0] = [str(args.src.resolve()), str(ROOT / "tests")]
        kind, case_args = json.loads(args.child)
        try:
            row = child(kind, tuple(case_args))
        except CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(row))
        return 0
    rows, failed = [], 0
    for name in args.case or CASES:
        row = {"case": name, **run_case(*CASES[name], args.src)}
        rows.append(row)
        if "error" in row:
            failed += 1
            print(f"{name:24s} FAILED: {row['error']}", flush=True)
        else:
            print(f"{name:24s} {row['cpu_s']:8.3f} s  {row['nominal_s']:8.3f} s nominal  "
                  f"{row['result']}", flush=True)
    if args.json is not None:
        args.json.write_text(json.dumps(rows, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
