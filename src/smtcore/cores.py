"""Every unsatisfiable-core extraction path.

The headline route feeds the Boolean abstraction of the input clauses plus
all stored theory lemmas to a propositional core extractor (internal
proof-based, internal selector-based, or an external command exchanging
DIMACS files), then discards lemma clauses from the returned core: what
survives is a theory-unsatisfiable subset of the inputs.  The two baseline
routes extract cores directly from the SMT run (proof leaves, or selector
variables).  `extract_core`, the one entry point, dispatches over all of
them through the one method table `METHODS`, and its conflict budget bounds
every solve of the route and of minimization (running out is an
`ExtractionError`).  Deletion-based minimization and two independent,
unbudgeted checks round things out.  The selector route and minimization
each run on one incremental `SelectorEngine`.  Both selector extractors,
that route and the internal selector-based one, guard their clauses with
the one `SatSolver.guard` and read a core with `sat.assumption_core`.
Every route hands on the lemmas its engine stored, and `extract_core`'s
minimization starts from them: they are theory-valid, so they shorten
the search of each trial without changing its verdict.

A formula with no theory atoms (`LOGIC_PROP`) can store no lemma, so
`lift-proof` and `lift-selectors` run no SMT search on it: the internal
extractor's own search over the input clauses decides it, under the
route's budget, and a satisfiable one is reported as "sat".
`lift-external` keeps its SMT run, because an external extractor cannot
answer "sat".

Every final core is verified by the trusted checker's
`check.check_refutation`, with a resolution refutation of the core's
clauses plus theory-valid lemmas.  A route that ends in a refutation
(`lift-proof`, with or without the fixpoint, and `smt-proof`) hands it on
with its core, and that refutation is checked whenever the final core is
the one it refutes: unminimized, or one that minimization kept whole.  For
any other core, `smt.lifted_refutation` builds one, by one proof-logging
SAT search over the core's clauses plus the lemmas of the last engine that
refuted it, the paper's lifting step once more: the minimization engine's
lemmas when minimization shrank the core, else the route's store.  A
selector engine's learned clauses keep the negated selectors of the
clauses outside the core, and the external bridge checked that a subset
of the core plus the lemmas is unsat, so these refute every sound core;
when they are satisfiable the core fails.  `check_refutation` reads the
definitions of engine variables that the lemmas record, and trusts no
part of the CDCL search that logged the proof (see `check`).
`check_core`, which re-solves the induced clause set with a fresh engine,
is the search's own check and the independent check of `smtcore verify`.
No engine here, the fresh one of `check_core` included, builds a theory
model: every caller reads a verdict's status, assumption conflict or
proof, never a model.
"""
from __future__ import annotations

import shlex
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from . import dimacs
from .check import _out_of_range, check_refutation, proof_leaves
from .sat import ProofLog, SatSolver, assumption_core, sat_solve
from .smt import SelectorEngine, SmtSolver, TLemma, lifted_clauses, lifted_refutation
from .terms import LOGIC_PROP, Formula


# Wall-clock seconds an external extractor may run before it is stopped.
BRIDGE_TIMEOUT_S = 60.0


class ExtractionError(RuntimeError):
    pass


class BridgeError(ExtractionError):
    """External-extractor failure; the message names the failing stage."""


class _Satisfiable(ExtractionError):
    """An internal Boolean extractor found its input satisfiable."""


@dataclass
class ExtractorConfig:
    kind: str = "internal-proof"  # internal-proof | internal-selectors | external
    command: Optional[str] = None
    fixpoint: bool = False
    minimize: bool = False

    def __post_init__(self):
        if self.kind not in ("internal-proof", "internal-selectors", "external"):
            raise ValueError(f"unknown extractor kind {self.kind!r}")
        if self.kind == "external":
            if not self.command:
                raise ValueError("external extractor needs a command template")
            if "{in}" not in self.command or "{out}" not in self.command:
                raise ValueError("command template must contain {in} and {out} placeholders")


@dataclass
class CoreReport:
    verdict: str                      # "sat" | "unsat"
    core: tuple[int, ...]             # 0-based clause indices, ascending
    assertions: tuple[int, ...]       # assertion-level view


# ---------------------------------------------------------------------------
# Boolean-level extraction
# ---------------------------------------------------------------------------

class BooleanCore(list):
    """Ascending clause indices of a Boolean core.  `proof` is a resolution
    refutation of those clauses when the extractor logged one (the
    internal proof extractor does), else None, and `leaves` its leaf nodes
    reachable from the final one (`check.proof_leaves`)."""
    proof: Optional[ProofLog] = None
    leaves: Optional[list[tuple]] = None


def _refuted(verdict) -> bool:
    if verdict.status == "unknown":
        raise ExtractionError("conflict budget exceeded before a verdict")
    return verdict.status != "sat"


def _extract_once(clauses: list[list[int]], config: ExtractorConfig, budget: Optional[int]
                  ) -> tuple[list[int], Optional[ProofLog], Optional[list[tuple]]]:
    """The core's indices, its refutation if one was logged, and that
    refutation's reachable leaves."""
    if config.kind == "internal-proof":
        verdict = sat_solve(clauses, log_proof=True, conflict_budget=budget)
        if not _refuted(verdict):
            raise _Satisfiable("input is satisfiable; there is no core to extract")
        leaves = proof_leaves(verdict.proof)
        ids = {leaf[1] for leaf in leaves}
        return sorted(_leaf_indices(clauses, ids)), verdict.proof, leaves
    if config.kind == "internal-selectors":
        solver = SatSolver(conflict_budget=budget)
        selectors = solver.guard(clauses)
        verdict = solver.solve(selectors)
        if not _refuted(verdict):
            raise _Satisfiable("input is satisfiable; there is no core to extract")
        return assumption_core(verdict, selectors), None, None
    return external_bridge(clauses, config.command), None, None


def _leaf_indices(clauses: list[list[int]], leaf_ids: set[int]) -> set[int]:
    # clause ids equal input positions, and every copy of a duplicated
    # input has its own, so a refutation may cite a later copy; map every
    # id onto the first position with the same content
    first = {}
    for i, cl in enumerate(clauses):
        first.setdefault(frozenset(cl), i)
    return {first[frozenset(clauses[i])] for i in leaf_ids}


def boolean_core(clauses: list[list[int]], config: ExtractorConfig,
                 budget: Optional[int] = None) -> BooleanCore:
    """Indices of an unsatisfiable subset.  With the fixpoint flag the
    extractor is re-run on its own output until the size stabilizes; the
    proof, if any, is the last run's.  `budget` bounds each search of an
    internal extractor; one that runs out is an ExtractionError."""
    current = list(range(len(clauses)))
    while True:
        rel, proof, leaves = _extract_once([clauses[i] for i in current], config, budget)
        new = BooleanCore(current[j] for j in rel)
        if not config.fixpoint or len(new) == len(current):
            new.proof, new.leaves = proof, leaves
            return new
        current = new


def external_bridge(clauses: list[list[int]], command_template: str) -> list[int]:
    """Run an external propositional core extractor over DIMACS files.

    The extractor writes its core as an index list or a DIMACS subset
    (`dimacs.read_core` tells which).  The returned set is validated: it
    must be a subset of the emitted clauses (by index or by multiset
    match) and unsatisfiable.  Temp files are kept on error for debugging
    and removed on success.  A run longer than BRIDGE_TIMEOUT_S seconds is
    stopped and reported as a failure.
    """
    doc = dimacs.document_for(clauses)
    workdir = Path(tempfile.mkdtemp(prefix="smtcore-bridge-"))
    in_path = workdir / "problem.cnf"
    out_path = workdir / "core.out"
    in_path.write_text(dimacs.render(doc), encoding="utf-8")
    argv = [tok.replace("{in}", str(in_path)).replace("{out}", str(out_path))
            for tok in shlex.split(command_template)]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=BRIDGE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BridgeError(f"extractor timed out after {BRIDGE_TIMEOUT_S}s "
                          f"(files kept in {workdir})")
    except OSError as exc:
        raise BridgeError(f"could not run extractor {argv[0]!r}: {exc} "
                          f"(files kept in {workdir})")
    if proc.returncode != 0:
        raise BridgeError(f"extractor exited with status {proc.returncode} "
                          f"(files kept in {workdir}): {proc.stderr.strip()[:500]}")
    if not out_path.exists():
        raise BridgeError(f"extractor produced no output file (files kept in {workdir})")
    try:
        indices = dimacs.read_core(out_path.read_text(encoding="utf-8-sig"), doc)
    except dimacs.DimacsError as exc:
        raise BridgeError(f"could not interpret extractor output "
                          f"(files kept in {workdir}): {exc}")
    core = sorted(indices)
    verdict = sat_solve([clauses[i] for i in core])
    if verdict.status != "unsat":
        raise BridgeError(f"extractor returned a satisfiable clause set "
                          f"(files kept in {workdir})")
    shutil.rmtree(workdir, ignore_errors=True)
    return core


def self_extractor_command(mode: str = "index-list") -> str:
    """Command template invoking this package's own proof-based Boolean
    extractor as a subprocess (the self-bridge), writing its core in
    `mode`."""
    return (f"{shlex.quote(sys.executable)} -m smtcore boolean-core {{in}} {{out}} "
            f"--method proof --mode {mode}")


# ---------------------------------------------------------------------------
# SMT-level extraction
# ---------------------------------------------------------------------------
#
# A route computes the raw core of one method: its clause indices, or None
# when the formula is satisfiable; the resolution refutation of the core's
# clauses plus theory-valid lemmas when the method logged one, else None,
# and the refutation's reachable leaves, which gave the core; and the lemma
# store of its engine.  `_run` then minimizes and verifies
# that core once, the same way for every method.

def _lift_route(formula: Formula, config: ExtractorConfig, budget: Optional[int]):
    if formula.logic == LOGIC_PROP and config.kind != "external":
        # no theory atoms: an SMT run could store no lemma, so it would only
        # repeat the extractor's search over the same clauses; the external
        # extractor keeps it because it cannot answer "sat"
        try:
            idxs = boolean_core(formula.clauses, config, budget)
        except _Satisfiable:
            return None, None, None, []
        store = []
    else:
        engine = SmtSolver(formula, conflict_budget=budget)
        if not _refuted(engine.solve()):
            return None, None, None, []
        idxs = boolean_core(lifted_clauses(formula, engine.store), config)
        store = engine.store
    surviving = [i for i in idxs if i < len(formula.clauses)]
    assert surviving, "a Boolean core cannot consist of theory-valid lemmas only"
    return surviving, idxs.proof, idxs.leaves, store


def _proof_route(formula: Formula, _config, budget: Optional[int]):
    engine = SmtSolver(formula, log_proof=True, conflict_budget=budget)
    if not _refuted(engine.solve()):
        return None, None, None, []
    # every leaf of the engine's proof is an input clause or a stored lemma
    leaves = proof_leaves(engine.sat.proof)
    origins = (engine.sat.origins[leaf[1]] for leaf in leaves)
    core = {origin[1] for origin in origins if origin[0] == "input"}
    return core, engine.sat.proof, leaves, engine.store


def _selector_route(formula: Formula, _config, budget: Optional[int]):
    engine = SelectorEngine(formula, conflict_budget=budget)
    verdict = engine.solve(range(len(formula.clauses)))
    if not _refuted(verdict):
        return None, None, None, []
    return assumption_core(verdict, engine.selectors), None, None, engine.solver.store


# core method -> (route, Boolean extractor kind of a lifted route).  The
# lifted routes run the named extractor on inputs plus stored lemmas; the
# two baselines read the core off the SMT run itself.
METHODS = {
    "lift-proof": (_lift_route, "internal-proof"),
    "lift-selectors": (_lift_route, "internal-selectors"),
    "lift-external": (_lift_route, "external"),
    "smt-proof": (_proof_route, None),
    "smt-selectors": (_selector_route, None),
}


def _run(formula: Formula, method: str, config: Optional[ExtractorConfig], *,
         minimize: bool, verify: bool, budget: Optional[int]) -> CoreReport:
    route, _kind = METHODS[method]
    core, proof, leaves, store = route(formula, config, budget)
    if core is None:
        return CoreReport("sat", (), ())
    if minimize:
        # the refutation is of the raw core, so it can verify only a core
        # that minimization keeps whole (`_minimize` returns a subset); it is
        # kept through the long part only for that; a smaller core is
        # verified from the lemmas of the minimization engine that refuted it
        raw_size = len(set(core))
        if not verify:
            proof = leaves = None
        core, lemmas = _minimize(formula, core, store, budget)
        if len(core) < raw_size:
            proof, leaves, store = None, None, lemmas
    core = tuple(sorted(set(core)))
    if verify:
        proof = proof or lifted_refutation(formula, core, store)
        problem = "the core plus its lemmas is propositionally satisfiable" if proof is None \
            else check_refutation(formula, core, proof,
                                  {var: atom for lemma in store for var, atom in lemma.defs},
                                  leaves)
        if problem is not None:
            raise ExtractionError(f"{method}: core failed verification: {problem}")
    return CoreReport("unsat", core, formula.assertion_ids(core))


def extract_core(formula: Formula, method: str = "lift-proof", *, minimize: bool = False,
                 fixpoint: bool = False, verify: bool = False,
                 budget: Optional[int] = None, extractor_cmd: Optional[str] = None) -> CoreReport:
    """Core of `formula` by one of the METHODS.  `fixpoint` only concerns
    the lifted methods and `extractor_cmd` (default: the self-bridge) only
    lift-external; an option the method would ignore is a ValueError.
    With `minimize` the core is made one-deletion minimal, and with
    `verify` the final core is checked by `check_refutation`: against the
    route's refutation when the route logged one and minimization (if
    any) kept the core whole, else against one `smt.lifted_refutation`
    builds from the core and the lemmas of the last engine that refuted
    it.  `budget` bounds each solve of the route and of minimization, not
    verification."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    kind = METHODS[method][1]
    if fixpoint and kind is None:
        raise ValueError(f"fixpoint applies only to the lift-* methods, not {method!r}")
    if kind != "external" and extractor_cmd is not None:
        raise ValueError(f"an extractor command applies only to lift-external, "
                         f"not {method!r}")
    config = None
    if kind is not None:
        command = (extractor_cmd or self_extractor_command()) if kind == "external" else None
        config = ExtractorConfig(kind, command=command, fixpoint=fixpoint)
    return _run(formula, method, config, minimize=minimize, verify=verify, budget=budget)


def lemma_lift_core(formula: Formula, config: ExtractorConfig, *, verify: bool = False,
                    conflict_budget: Optional[int] = None) -> CoreReport:
    """`extract_core` of the lift method of `config.kind`, minimized by
    `config.minimize`; it exists only because `perfbench/run.py` times it."""
    method = next(m for m, (_route, kind) in METHODS.items() if kind == config.kind)
    return _run(formula, method, config, minimize=config.minimize, verify=verify,
                budget=conflict_budget)


# ---------------------------------------------------------------------------
# Minimization and checking
# ---------------------------------------------------------------------------

def minimize_core(formula: Formula, core: Iterable[int], budget: Optional[int] = None) -> list[int]:
    """Deletion-based minimization: drop clauses one at a time (descending
    index) while the rest stays theory-unsatisfiable.  The result is
    one-deletion minimal.  Every trial is a solve of one selector engine
    that `budget` bounds; one that runs out is an ExtractionError.  A core
    that is not theory-unsatisfiable is a ValueError."""
    return _minimize(formula, core, [], budget, confirm=True)[0]


def _minimize(formula: Formula, core: Iterable[int], store: list[TLemma],
              budget: Optional[int], *, confirm: bool = False) -> tuple[list[int], list[TLemma]]:
    """`minimize_core` on an engine that starts with the clauses of the
    lemma store of a route's run, unguarded, each engine variable renamed
    to the minimization engine's own (`SmtSolver.add_lemma`).  A stored
    lemma is theory-valid, so it changes no trial's verdict, only the
    search that reaches it, and the result is the same core.  The engine
    gets no other clause: a clause is out of a trial only by its selector
    not being assumed, and a dropped clause is never assumed again.  The
    core is solved first only with `confirm`: a route's core needs no
    such solve, since the route refuted it together with theory-valid
    lemmas.  Returns the core and the engine's lemmas in its own
    numbering, the renamed store and then its own: the core plus them is
    propositionally unsat, since the engine's learned clauses keep the
    negated selectors of the clauses they came from."""
    current = sorted(set(core))
    if problem := _out_of_range(formula, current):
        raise ValueError(f"core {problem}")
    engine = SelectorEngine(formula, conflict_budget=budget)
    seeded = [engine.solver.add_lemma(lemma) for lemma in store]
    if confirm and not _refuted(engine.solve(current)):
        raise ValueError("minimize_core requires a theory-unsatisfiable core")
    for candidate in sorted(current, reverse=True):
        trial = [i for i in current if i != candidate]
        if _refuted(engine.solve(trial)):
            current = trial
    return current, seeded + engine.solver.store


def check_core(formula: Formula, core: Iterable[int]) -> Optional[str]:
    """Independent verification: None when the indices are in range and the
    induced clause set is theory-unsatisfiable, else a description."""
    core = sorted(set(core))
    if problem := _out_of_range(formula, core):
        return problem
    status = SmtSolver(formula.restrict(core)).solve().status
    if status != "unsat":
        return f"induced clause set is {status}, not unsat"
    return None
