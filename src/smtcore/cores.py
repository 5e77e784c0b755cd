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
each run on one incremental `SelectorEngine`.

A route that ends in a resolution refutation (`lift-proof`, with or
without the fixpoint, and `smt-proof`) hands it on with its core, and an
unminimized core of such a route is verified from it by
`check_refutation`, with no new search: the proof must re-derive node by
node, and every leaf it resolves on must be a core clause or a clause that
a fresh theory solver proves theory-valid.  It trusts no part of the CDCL
search that logged the proof.  Every other core (a selector or external
route, or any minimized core) is verified by `check_core`, which re-solves
the induced clause set with a fresh engine.  Neither check reads anything
of the run it checks.
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
from .sat import ProofLog, check_proof, proof_core, proof_leaves, sat_solve, solve_with_selectors
from .smt import SelectorEngine, SmtSolver, lifted_clauses, smt_solve
from .terms import Formula
from .theory import solver_for_logic


# Wall-clock seconds an external extractor may run before it is stopped.
BRIDGE_TIMEOUT_S = 60.0


class ExtractionError(RuntimeError):
    pass


class BridgeError(ExtractionError):
    """External-extractor failure; the message names the failing stage."""


@dataclass
class ExtractorConfig:
    kind: str = "internal-proof"  # internal-proof | internal-selectors | external
    command: Optional[str] = None
    output_mode: str = "index-list"  # index-list | dimacs-subset
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
    method: str
    input_size: int
    core_size: int
    verification: str                 # "verified" | "unchecked"
    assertions: tuple[int, ...]       # assertion-level view


# ---------------------------------------------------------------------------
# Boolean-level extraction
# ---------------------------------------------------------------------------

class BooleanCore(list):
    """Ascending clause indices of a Boolean core.  `proof` is a resolution
    refutation of those clauses when the extractor logged one (the
    internal proof extractor does), else None."""
    proof: Optional[ProofLog] = None


def _extract_once(clauses: list[list[int]],
                  config: ExtractorConfig) -> tuple[list[int], Optional[ProofLog]]:
    if config.kind == "internal-proof":
        verdict = sat_solve(clauses, log_proof=True)
        if verdict.status == "sat":
            raise ExtractionError("input is satisfiable; there is no core to extract")
        ids = proof_core(verdict.proof)
        return sorted(_leaf_indices(clauses, ids)), verdict.proof
    if config.kind == "internal-selectors":
        verdict, core = solve_with_selectors(clauses)
        if verdict.status == "sat":
            raise ExtractionError("input is satisfiable; there is no core to extract")
        return core, None
    return external_bridge(clauses, config.command, config.output_mode), None


def _leaf_indices(clauses: list[list[int]], leaf_ids: set[int]) -> set[int]:
    # clause ids equal input positions except that duplicated inputs collapse
    # onto the first copy; map every id onto the first position with the
    # same content
    first = {}
    for i, cl in enumerate(clauses):
        first.setdefault(frozenset(cl), i)
    return {first[frozenset(clauses[i])] for i in leaf_ids}


def boolean_core(clauses: list[list[int]], config: ExtractorConfig) -> BooleanCore:
    """Indices of an unsatisfiable subset.  With the fixpoint flag the
    extractor is re-run on its own output until the size stabilizes; the
    proof, if any, is the last run's."""
    current = list(range(len(clauses)))
    while True:
        rel, proof = _extract_once([clauses[i] for i in current], config)
        new = BooleanCore(current[j] for j in rel)
        if not config.fixpoint or len(new) == len(current):
            new.proof = proof
            return new
        current = new


def external_bridge(clauses: list[list[int]], command_template: str,
                    mode: str = "index-list") -> list[int]:
    """Run an external propositional core extractor over DIMACS files.

    The returned set is validated: it must be a subset of the emitted
    clauses (by index or by multiset match) and unsatisfiable.  Temp files
    are kept on error for debugging and removed on success.  A run longer
    than BRIDGE_TIMEOUT_S seconds is stopped and reported as a failure.
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
        indices = dimacs.read_core(out_path.read_text(encoding="utf-8"), doc, mode)
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
# when the formula is satisfiable, and the resolution refutation of the
# core's clauses plus theory-valid lemmas when the method logged one, else
# None.  `_run` then minimizes and verifies that core once, the same way
# for every method.

def _refuted(verdict) -> bool:
    if verdict.status == "unknown":
        raise ExtractionError("conflict budget exceeded before a verdict")
    return verdict.status != "sat"


def _lift_route(formula: Formula, config: ExtractorConfig, budget: Optional[int]):
    verdict, store = smt_solve(formula, conflict_budget=budget)
    if not _refuted(verdict):
        return None, None
    n = len(formula.clauses)
    idxs = boolean_core(lifted_clauses(formula, store), config)
    surviving = [i for i in idxs if i < n]
    assert surviving, "a Boolean core cannot consist of theory-valid lemmas only"
    return surviving, idxs.proof


def _proof_route(formula: Formula, _config, budget: Optional[int]):
    engine = SmtSolver(formula, log_proof=True, conflict_budget=budget)
    if not _refuted(engine.solve()):
        return None, None
    # every leaf of the engine's proof is an input clause or a stored lemma
    origins = (engine.sat.origins[cid] for cid in proof_core(engine.sat.proof))
    return {origin[1] for origin in origins if origin[0] == "input"}, engine.sat.proof


def _selector_route(formula: Formula, _config, budget: Optional[int]):
    engine = SelectorEngine(formula, conflict_budget=budget)
    verdict = engine.solve(range(len(formula.clauses)))
    if not _refuted(verdict):
        return None, None
    assert verdict.status == "unsat-assumptions", \
        "guarded clauses cannot refute without their selectors"
    return engine.conflict_clauses(verdict), None


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
    core, proof = route(formula, config, budget)
    n = len(formula.clauses)
    if core is None:
        return CoreReport("sat", (), method, n, 0, "verified", ())
    if minimize:
        # the refutation is of the raw core; drop it before the long part
        proof = None
        core = minimize_core(formula, core, budget=budget)
    core = tuple(sorted(set(core)))
    if verify:
        problem = check_core(formula, core) if proof is None \
            else check_refutation(formula, core, proof)
        if problem is not None:
            raise ExtractionError(f"{method}: core failed verification: {problem}")
    return CoreReport("unsat", core, method, n, len(core),
                      "verified" if verify else "unchecked",
                      formula.assertion_ids(core))


def extract_core(formula: Formula, method: str = "lift-proof", *, minimize: bool = False,
                 fixpoint: bool = False, verify: bool = False,
                 budget: Optional[int] = None, extractor_cmd: Optional[str] = None,
                 extractor_mode: str = "index-list") -> CoreReport:
    """Core of `formula` by one of the METHODS.  `fixpoint` only concerns
    the lifted methods, `extractor_cmd` (default: the self-bridge) and
    `extractor_mode` only lift-external; an option the method would ignore
    is a ValueError.  With `minimize` the core is made one-deletion
    minimal, and with `verify` the final core is checked independently:
    from the route's refutation when it has one and was not minimized
    (`check_refutation`), else by a fresh solve (`check_core`).  `budget`
    bounds each solve of the route and of minimization, not verification."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    kind = METHODS[method][1]
    if fixpoint and kind is None:
        raise ValueError(f"fixpoint applies only to the lift-* methods, not {method!r}")
    if kind != "external" and (extractor_cmd is not None or extractor_mode != "index-list"):
        raise ValueError(f"extractor command and mode apply only to lift-external, "
                         f"not {method!r}")
    config = None
    if kind is not None:
        command = (extractor_cmd or self_extractor_command(extractor_mode)) \
            if kind == "external" else None
        config = ExtractorConfig(kind, command=command, output_mode=extractor_mode,
                                 fixpoint=fixpoint)
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

def _out_of_range(formula: Formula, core: list[int]) -> Optional[str]:
    """A description of the first index of `core` outside `formula`, or None."""
    bad = [i for i in core if not 0 <= i < len(formula.clauses)]
    return f"index {bad[0]} out of range 0..{len(formula.clauses) - 1}" if bad else None


def minimize_core(formula: Formula, core: Iterable[int], budget: Optional[int] = None) -> list[int]:
    """Deletion-based minimization: drop clauses one at a time (descending
    index) while the rest stays theory-unsatisfiable.  The result is
    one-deletion minimal.  Every trial is a solve of one selector engine
    that `budget` bounds; one that runs out is an ExtractionError."""
    current = sorted(set(core))
    if problem := _out_of_range(formula, current):
        raise ValueError(f"core {problem}")
    engine = SelectorEngine(formula, conflict_budget=budget)
    if not _refuted(engine.solve(current)):
        raise ValueError("minimize_core requires a theory-unsatisfiable core")

    def retire(i: int):
        # a clause outside the working set never returns to it
        engine.solver.add_clause((-engine.selectors[i],))

    for i in sorted(set(range(len(formula.clauses))) - set(current)):
        retire(i)
    for candidate in sorted(current, reverse=True):
        trial = [i for i in current if i != candidate]
        if _refuted(engine.solve(trial)):
            current = trial
            retire(candidate)
    return current


def check_core(formula: Formula, core: Iterable[int]) -> Optional[str]:
    """Independent verification: None when the indices are in range and the
    induced clause set is theory-unsatisfiable, else a description."""
    core = sorted(set(core))
    if problem := _out_of_range(formula, core):
        return problem
    verdict, _ = smt_solve(formula.restrict(core))
    if verdict.status != "unsat":
        return f"induced clause set is {verdict.status}, not unsat"
    return None


def check_refutation(formula: Formula, core: Iterable[int], proof: ProofLog) -> Optional[str]:
    """Verification without a search: None when the indices are in range,
    every node of `proof` re-derives, its final node is the empty clause,
    and every leaf it resolves on is either the Boolean image of a clause
    of `core` or theory-valid; else a description.  A leaf is theory-valid
    when its negated theory literals, asserted to one fresh theory solver,
    are inconsistent; the solver is backtracked to empty after each leaf.
    Only `formula` is read besides the proof: no lemma store, clause
    numbering or engine of the run that logged it."""
    core = sorted(set(core))
    if problem := _out_of_range(formula, core):
        return problem
    problem = check_proof(proof)
    if problem is not None:
        return f"refutation: {problem}"
    table = formula.atoms
    inputs = {frozenset(table.t2p(formula.clauses[i])) for i in core}
    theory = None
    for _, _cid, lits in proof_leaves(proof):
        if lits in inputs:
            continue
        if any(not 1 <= abs(lit) <= len(table) for lit in lits):
            return f"refutation leaf {sorted(lits, key=abs)} names an unknown atom"
        if theory is None:
            theory = solver_for_logic(formula.logic, table)
        if theory is None or not _theory_valid(theory, lits):
            return (f"refutation leaf {sorted(lits, key=abs)} is neither a core "
                    f"clause nor theory-valid")
    return None


def _theory_valid(theory, lits: frozenset[int]) -> bool:
    """Whether the clause is a tautology or the negations of its literals
    over the theory's atoms are inconsistent; leaves `theory` with nothing
    asserted.  Other literals are ignored, which is sound: a clause that
    contains a valid clause is valid."""
    if any(-lit in lits for lit in lits):
        return True
    owned = [lit for lit in sorted(lits, key=abs)
             if theory.owns_atom(theory.table.atom(abs(lit)))]
    valid = any(theory.assert_literal(-lit) is not None for lit in owned) \
        or theory.check_full().status == "conflict"
    theory.backtrack(0)
    return valid
