"""Lazy online DPLL(T): the CDCL engine drives the search and a theory
solver prunes it.

Below the input formula every literal is the SAT solver's signed atom id:
the formula's clauses are converted once, when the engine loads them, and
the theory solver, the lemma list and the SAT database all read the same
ints.  Every theory literal is asserted incrementally as it gets assigned
(early pruning runs a full theory check at each propagation fixpoint),
entailed literals are unit-propagated through their deduction clauses
(theory propagation), and every theory-conflict and theory-deduction
clause is appended to the engine's lemma list before it is added to the
SAT database.  The list needs no index: a stored lemma is a clause of that
database, so by the time a hook runs, propagation has already used it if
it is unit and reported it if it is false, and the theory never hands the
same clause back.  The lemmas are the raw material for core extraction:
the abstraction of the inputs plus the stored lemmas is propositionally
unsatisfiable whenever the run answers unsat.
"""
from __future__ import annotations

import weakref
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Optional

from .sat import SatSolver, sat_solve
from .terms import (
    AtomTable, Clause, Formula, Literal, PropAtom, atom_theory, formula_from_clauses,
)
from .theory import TheorySolver, is_valid_lemma, solver_for_logic


@dataclass
class TLemma:
    clause: tuple[int, ...]  # signed atom ids; SAT clause origin ("tlemma", list position)
    kind: str                # "theory-conflict" | "theory-deduction"


@dataclass
class SmtVerdict:
    status: str  # "sat" | "unsat" | "unsat-assumptions" | "unknown"
    bool_model: Optional[dict[int, bool]] = None      # atom id -> value
    theory_model: object = None                       # LRA: {Var: int or Fraction}; EUF: {Term: class}
    conflict: Optional[tuple[int, ...]] = None        # assumption-core clause (signed atom ids)


class SmtSolver:
    """One solver instance per problem; single-owner while solving."""

    def __init__(self, formula: Formula, *, early_pruning: bool = True,
                 theory_propagation: bool = True,
                 conflict_budget: Optional[int] = None,
                 log_proof: bool = False, seed: Optional[int] = None):
        self.formula = formula
        self.table = formula.atoms
        self.theory: Optional[TheorySolver] = solver_for_logic(formula.logic, self.table)
        self.early_pruning = early_pruning
        self.theory_propagation = theory_propagation
        self.store: list[TLemma] = []
        self.sat = SatSolver(log_proof=log_proof, conflict_budget=conflict_budget, seed=seed)
        self.sat.ensure_vars(len(self.table))
        for i, clause in enumerate(formula.clauses):
            self.sat.add_clause(self.table.t2p(clause), ("input", i))
        # theory flags of the atoms the theory solver was built with; atoms
        # interned later are propositional (see add_clause)
        self._theory_var = [False] + [atom_theory(atom) is not None
                                      for _, atom in self.table.items()]
        self._scan_pos = 0                      # sat trail position scanned so far
        self._synced_positions: list[int] = []  # trail position of each theory assert
        self._theory_model = None
        if self.theory is not None:
            self.sat.theory_hook = weakref.proxy(self)  # no reference cycle

    # -- lemma plumbing ----------------------------------------------------------

    def _add_lemma(self, clause: tuple[int, ...], kind: str) -> tuple[int, str]:
        """Store a lemma and add its clause: (clause id, status)."""
        self.store.append(TLemma(clause, kind))
        return self.sat.add_clause(clause, ("tlemma", len(self.store) - 1))

    def _conflict_lemma(self, conflict: list[int]) -> bool:
        """Store the lemma of a theory conflict and make its clause the SAT
        engine's pending conflict."""
        cid, _ = self._add_lemma(tuple(-lit for lit in conflict), "theory-conflict")
        self.sat.pending_conflict = cid
        return True

    # -- theory hook (called by the SAT engine) -----------------------------------
    #
    # Each hook returns whether it added a clause; a conflict it found is
    # already the SAT engine's pending conflict.

    def _sync(self) -> bool:
        """Assert newly assigned theory literals in trail order; on a theory
        conflict, store its lemma and stop."""
        trail = self.sat.trail
        theory_var = self._theory_var
        while self._scan_pos < len(trail):
            pos = self._scan_pos
            lit = trail[pos]
            self._scan_pos += 1
            var = abs(lit)
            if var < len(theory_var) and theory_var[var]:
                conflict = self.theory.assert_literal(lit)
                self._synced_positions.append(pos)
                if conflict is not None:
                    return self._conflict_lemma(conflict)
        return False

    def _check(self) -> bool:
        """Sync, then check the asserted literals; True on a theory
        conflict, whose lemma is stored."""
        if self._sync():
            return True
        verdict = self.theory.check_full()
        return verdict.status == "conflict" and self._conflict_lemma(verdict.conflict)

    def hook_fixpoint(self, solver: SatSolver) -> bool:
        if not self.early_pruning:
            return False
        if self._check():
            return True
        # _check has asserted every assigned theory atom, so a deduced
        # literal is unassigned and its clause is unit, unless the SAT
        # database holds that clause already
        added = False
        if self.theory_propagation:
            for ded in self.theory.deductions():
                clause = tuple(-lit for lit in ded.explanation) + (ded.literal,)
                added |= self._add_lemma(clause, "theory-deduction")[1] != "duplicate"
        return added

    def hook_final(self, solver: SatSolver) -> bool:
        if self._check():
            return True
        self._theory_model = self.theory.witness()
        return False

    def hook_backjump(self, trail_len: int):
        self._scan_pos = min(self._scan_pos, trail_len)
        keep = bisect_left(self._synced_positions, trail_len)
        if keep < len(self._synced_positions):
            self.theory.backtrack(keep)
            del self._synced_positions[keep:]

    # -- solving ----------------------------------------------------------------

    def add_clause(self, lits: Iterable[int]) -> None:
        """Add a clause of signed atom ids between solves.  Its atoms must be
        known to the engine or propositional atoms interned into its table
        since: the theory solver registers its atoms once, when it is built,
        so a new theory atom is a ValueError."""
        lits = tuple(lits)
        for lit in lits:
            var = abs(lit)
            if var >= len(self._theory_var) and \
                    atom_theory(self.table.atom(var)) is not None:
                raise ValueError(f"atom {var} is a theory atom the engine was "
                                 f"not built with")
        self.sat._backjump(0)
        self.sat.add_clause(lits, ("added",))

    def solve(self, assumptions: tuple[int, ...] = ()) -> SmtVerdict:
        """Solve under `assumptions` (signed atom ids).  Learned clauses and
        the lemma store carry over to the next call."""
        verdict = self.sat.solve(assumptions)
        if verdict.status == "sat":
            model = {v: verdict.model[v] for v in range(1, len(self.table) + 1)
                     if v in verdict.model}
            return SmtVerdict("sat", bool_model=model, theory_model=self._theory_model)
        if verdict.status == "unsat":
            return SmtVerdict("unsat")
        if verdict.status == "unsat-assumptions":
            return SmtVerdict("unsat-assumptions", conflict=verdict.conflict)
        return SmtVerdict("unknown")


def smt_solve(formula: Formula, *,
              conflict_budget: Optional[int] = None) -> tuple[SmtVerdict, list[TLemma]]:
    """Solve a formula; returns the verdict together with every theory lemma
    stored during the run, in discovery order.  No lemma repeats and none
    equals an input clause: each is a clause the current assignment
    falsifies or makes unit, which no clause already in the SAT database
    can be once propagation has reached its fixpoint."""
    engine = SmtSolver(formula, conflict_budget=conflict_budget)
    verdict = engine.solve()
    return verdict, engine.store


class SelectorEngine:
    """One incremental SmtSolver that decides subsets of a formula's
    clauses.  Over a copy of the formula's atom table (the formula's own
    table does not grow), clause i becomes (not sel_i) or clause_i for a
    fresh selector atom `@sel!i`; a subset is solved under the assumption
    of its selectors.  Learned clauses and stored lemmas follow from the
    guarded clauses alone, so they carry over from one subset to the next.
    Clauses added through `solver.add_clause` stay for every later solve.
    `conflict_budget` bounds each solve, as it does an SmtSolver's."""

    def __init__(self, formula: Formula, *, conflict_budget: Optional[int] = None):
        self.table = AtomTable()
        for _id, atom in formula.atoms.items():
            self.table.intern(atom)
        self.selectors = [self.table.intern(PropAtom(f"@sel!{i}"))
                          for i in range(len(formula.clauses))]
        guarded = [(Literal(sel, False),) + clause.lits
                   for sel, clause in zip(self.selectors, formula.clauses)]
        self.solver = SmtSolver(formula_from_clauses(guarded, self.table,
                                                     formula.declarations, formula.logic),
                                conflict_budget=conflict_budget)

    def solve(self, subset: Iterable[int], *extra: int) -> SmtVerdict:
        """Solve the clauses of `subset` plus every added clause, assuming
        their selectors in the given order and then the signed atom ids
        `extra`."""
        return self.solver.solve(tuple(self.selectors[i] for i in subset) + extra)

    def conflict_clauses(self, verdict: SmtVerdict) -> list[int]:
        """Ascending indices of the clauses whose selectors an
        unsat-assumptions verdict blames."""
        negated = set(verdict.conflict)
        return [i for i, sel in enumerate(self.selectors) if -sel in negated]


def lifted_clauses(formula: Formula, store: list[TLemma]) -> list[list[int]]:
    """Boolean abstraction of the input clauses followed by the stored
    lemmas: positions below len(formula.clauses) are inputs."""
    return [formula.atoms.t2p(c) for c in formula.clauses] + \
        [list(lemma.clause) for lemma in store]


# ---------------------------------------------------------------------------
# Post-run verification helpers (the checked facts about lemma stores)
# ---------------------------------------------------------------------------

def lemma_store_violations(formula: Formula, store: list[TLemma],
                           unsat: bool) -> list[str]:
    """Check the two lemma-store facts: every stored lemma is theory-valid,
    and (after an unsat run) the abstraction of the inputs plus the lemmas
    is propositionally unsatisfiable by an independent SAT run."""
    problems = []
    for i, lemma in enumerate(store):
        ok, counter = is_valid_lemma(lemma.clause, formula.atoms)
        if not ok:
            problems.append(f"lemma {i} is not theory-valid: {counter}")
    if unsat:
        check = sat_solve(lifted_clauses(formula, store))
        if check.status != "unsat":
            problems.append("abstraction plus stored lemmas is not propositionally unsat")
    return problems


def evaluate_literal(lit: Literal, table: AtomTable, verdict: SmtVerdict) -> bool:
    """Truth of a literal under a sat verdict's theory witness (falling back
    to the Boolean model for propositional atoms)."""
    from .terms import EufAtom, LinAtom, eval_lin_atom

    atom = table.atom(lit.atom)
    if isinstance(atom, LinAtom):
        value = eval_lin_atom(atom, verdict.theory_model or {})
    elif isinstance(atom, EufAtom):
        classes = verdict.theory_model or {}
        value = classes.get(atom.lhs) == classes.get(atom.rhs) and atom.lhs in classes
    else:
        value = bool(verdict.bool_model.get(lit.atom))
    return value if lit.positive else not value


def evaluate_clause(clause: Clause, table: AtomTable, verdict: SmtVerdict) -> bool:
    return any(evaluate_literal(l, table, verdict) for l in clause.lits)
