"""Command-line surface: solve, core, allmus, verify, bench, boolean-core.

Exit codes follow the solving convention: 10 for sat, 20 for unsat, 1 for
errors (usage errors included), 2 for incomplete enumeration (capped, or
out of conflict budget).
`boolean-core` is the plug-in Boolean extractor surface (DIMACS in, core
out) and exits 0 on success so it can serve as an external extractor
command.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import bench as bench_mod
from . import dimacs
from .cnf import cnf_convert
from .cores import (METHODS, ExtractorConfig, ExtractionError, boolean_core,
                    check_core, extract_core)
from .mus import all_minimal_cores
from .parser import parse_file, render_instance
from .smt import SmtSolver

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_ERROR = 1
EXIT_INCOMPLETE = 2


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_ERROR: argparse's own 2 would read as a
    capped enumeration."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _at_least(minimum: int):
    """argparse type: an integer no smaller than `minimum`."""
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, not {value}")
        return value
    return integer


def _default_budget() -> int | None:
    raw = os.environ.get("SMTCORE_BUDGET")
    if not raw:
        return None
    try:
        return _at_least(0)(raw)
    except (ValueError, argparse.ArgumentTypeError):
        raise ValueError(f"SMTCORE_BUDGET must be a non-negative integer, "
                         f"not {raw!r}") from None


def _load(path: str):
    return cnf_convert(parse_file(path))


def cmd_solve(args) -> int:
    formula = _load(args.file)
    engine = SmtSolver(formula, conflict_budget=args.budget,
                       log_proof=bool(args.proof_out), seed=args.seed)
    verdict = engine.solve()
    if args.proof_out and verdict.status == "unsat":
        Path(args.proof_out).write_text(engine.sat.proof.to_trace(), encoding="utf-8")
    print(verdict.status if verdict.status in ("sat", "unsat") else "unknown")
    if verdict.status == "sat":
        return EXIT_SAT
    if verdict.status == "unsat":
        return EXIT_UNSAT
    return EXIT_ERROR


def cmd_core(args) -> int:
    formula = _load(args.file)
    report = extract_core(formula, args.method, minimize=args.minimize,
                          fixpoint=args.fixpoint, verify=args.verify, budget=args.budget,
                          extractor_cmd=args.extractor_cmd)
    if report.verdict == "sat":
        print("sat")
        return EXIT_SAT
    if args.out:  # first, so that a failed write prints no answer
        Path(args.out).write_text(render_instance(formula, report.core),
                                  encoding="utf-8")
    print("unsat")
    print("core-clauses:", " ".join(str(i + 1) for i in report.core))
    print("core-assertions:", " ".join(str(a + 1) for a in report.assertions))
    return EXIT_UNSAT


def cmd_allmus(args) -> int:
    formula = _load(args.file)
    mcs, mus = all_minimal_cores(formula, cap=args.cap, budget=args.budget)
    if mcs.satisfiable is None:
        print("unknown")
        return EXIT_INCOMPLETE
    if mcs.satisfiable:
        print("sat")
        return EXIT_SAT
    print("unsat")
    for m in sorted(mcs.mcses, key=sorted):
        print("MCS:", " ".join(str(i + 1) for i in sorted(m)))
    for m in sorted(mus.muses, key=sorted):
        print("MUS:", " ".join(str(i + 1) for i in sorted(m)))
    if not (mcs.complete and mus.complete):
        print("INCOMPLETE: enumeration cap or conflict budget reached; the listing is partial")
        return EXIT_INCOMPLETE
    return EXIT_UNSAT


def cmd_verify(args) -> int:
    formula = _load(args.file)
    text = Path(args.core).read_text(encoding="utf-8-sig")
    indices = set()
    for ln, idx in dimacs.index_lines(text):
        if not 1 <= idx <= len(formula.clauses):
            print(f"violation: line {ln}: index {idx} out of range")
            return EXIT_ERROR
        indices.add(idx - 1)
    problem = check_core(formula, indices)
    if problem is None:
        print("ok")
        return 0
    print(f"violation: {problem}")
    return EXIT_ERROR


def cmd_bench(args) -> int:
    directory = Path(args.dir)
    if not directory.is_dir():
        problem = "is not a directory" if directory.exists() else "does not exist"
        raise ValueError(f"{args.dir} {problem}")
    paths = sorted(directory.glob("*.smt2"))
    if not paths:
        raise ValueError(f"{args.dir} holds no *.smt2 file")
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}")
    if args.baseline not in methods:
        raise ValueError(f"baseline {args.baseline!r} is not among the methods")
    records = bench_mod.run_bench(paths, methods, budget=args.budget,
                                  extractor_cmd=args.extractor_cmd)
    csv_text = bench_mod.records_to_csv(records)
    if args.csv:
        Path(args.csv).write_text(csv_text, encoding="utf-8")
    else:
        print(csv_text, end="")
    stats = {m: bench_mod.stats_for_pair(records, m, args.baseline)
             for m in methods if m != args.baseline}
    print(bench_mod.format_table(stats, args.baseline))
    return 0


def cmd_boolean_core(args) -> int:
    doc = dimacs.parse_dimacs(Path(args.infile).read_text(encoding="utf-8-sig"))
    config = ExtractorConfig(f"internal-{args.method}", fixpoint=args.fixpoint)
    core = boolean_core(doc.clauses, config)
    if args.mode == "index-list":
        Path(args.out).write_text(dimacs.render_core_indices(core), encoding="utf-8")
    else:
        sub = dimacs.DimacsDocument(doc.nvars, [doc.clauses[i] for i in core])
        Path(args.out).write_text(dimacs.render(sub), encoding="utf-8")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = _ArgumentParser(prog="smtcore",
                        description="Small unsatisfiable cores for SMT")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="decide satisfiability")
    ps.add_argument("file")
    ps.add_argument("--budget", type=_at_least(0), default=None)
    ps.add_argument("--seed", type=int, default=None,
                    help="randomize branching tie-breaks, reproducibly")
    ps.add_argument("--proof-out", default=None,
                    help="write the Boolean refutation trace here on unsat")
    ps.set_defaults(fn=cmd_solve)

    pc = sub.add_parser("core", help="extract an unsatisfiable core")
    pc.add_argument("file")
    pc.add_argument("--method", choices=METHODS, default="lift-proof")
    pc.add_argument("--fixpoint", action="store_true")
    pc.add_argument("--minimize", action="store_true")
    pc.add_argument("--verify", action="store_true",
                    help="check a resolution refutation of the final core plus "
                         "theory-valid lemmas: the one its run logged, or one from the "
                         "lemmas of the engine that last refuted the core")
    pc.add_argument("--extractor-cmd", default=None,
                    help="external extractor template with {in} and {out}; it writes "
                         "1-based clause indices or a DIMACS subset")
    pc.add_argument("--out", default=None, help="write the core as a new input file")
    pc.add_argument("--budget", type=_at_least(0), default=None)
    pc.set_defaults(fn=cmd_core)

    pa = sub.add_parser("allmus", help="enumerate all MCSes and minimal cores")
    pa.add_argument("file")
    pa.add_argument("--cap", type=_at_least(1), default=10_000)
    pa.add_argument("--budget", type=_at_least(0), default=None,
                    help="conflicts each enumeration solve may take")
    pa.set_defaults(fn=cmd_allmus)

    pv = sub.add_parser("verify", help="check a 1-based core index file")
    pv.add_argument("file")
    pv.add_argument("--core", required=True)
    pv.set_defaults(fn=cmd_verify)

    pb = sub.add_parser("bench", help="run methods over a directory of instances")
    pb.add_argument("dir")
    pb.add_argument("--methods", default="lift-proof,lift-selectors,smt-proof,smt-selectors")
    pb.add_argument("--baseline", default="lift-proof")
    pb.add_argument("--budget", type=_at_least(0), default=None)
    pb.add_argument("--extractor-cmd", default=None,
                    help="external extractor template for lift-external")
    pb.add_argument("--csv", default=None)
    pb.set_defaults(fn=cmd_bench)

    pbc = sub.add_parser("boolean-core",
                         help="propositional core of a DIMACS file (extractor surface)")
    pbc.add_argument("infile")
    pbc.add_argument("out")
    pbc.add_argument("--method", choices=("proof", "selectors"), default="proof")
    pbc.add_argument("--fixpoint", action="store_true")
    pbc.add_argument("--mode", choices=("index-list", "dimacs-subset"),
                     default="index-list")
    pbc.set_defaults(fn=cmd_boolean_core)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "budget" in vars(args) and args.budget is None:
            args.budget = _default_budget()
        return args.fn(args)
    except (OSError, ValueError, ExtractionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
