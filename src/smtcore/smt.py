"""Lazy online DPLL(T): the CDCL engine drives the search and a theory
solver prunes it.

Every literal is the SAT solver's signed variable, from the input formula
down: the engine loads the formula's clauses as they are, and the theory
solver, the lemma list and the SAT database all read the same ints.
Variables numbered past the formula's atom table come from `new_var`,
or from `SatSolver.guard` for a selector engine's selectors, and are of
two kinds.  Most name no atom, so no user symbol can alias them, and
stay propositional.  The others are the engine's own theory atoms: an
EUF conflict is stated as a chain of lemmas over equalities the table
may lack, and each such equality gets one variable, which the theory
solver defines and the engine asserts when it is assigned true.
The table never grows.  Every theory literal is asserted incrementally as it gets
assigned, and a theory pass, a full theory check and then a deduction
pass, runs at each propagation fixpoint where the theory reports its state
`changed` since the last pass: on an unchanged state they could add
nothing (see `_check` for when each theory reports a change; for EUF, a
merge, a newly separated pair of classes or a conflict, and never a
backjump).  Entailed literals are unit-propagated through their deduction
clauses, and every theory-conflict and theory-deduction clause is
appended to the engine's lemma list as it is added to the SAT database,
with the atom of each engine variable it names.  The list needs no
index: a stored lemma is a clause of that database, and a lemma the
database holds already keeps its clause id, so it is not stored again
and the list never repeats a clause.  The database settles such a lemma
against the trail as it would a new one, so the engine acts on the
status `add_clause` returns alone.  The lemmas are the raw material for
core extraction: the abstraction of the inputs plus the stored lemmas is
propositionally unsatisfiable whenever the run answers unsat.

A solve answers with the CDCL search's own `SatVerdict`.  A theory model
is built by `smt_solve` alone, for the caller of a one-shot solve that
reads it; no engine of the extraction routes builds one.
"""
from __future__ import annotations

import weakref
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Optional

from .check import validity_check
from .sat import ProofLog, SatSolver, SatVerdict, sat_solve
from .terms import AtomTable, EufAtom, Formula, LinAtom, eval_lin_atom
from .theory import TheorySolver, solver_for_logic


@dataclass
class TLemma:
    clause: tuple[int, ...]  # signed variables; SAT clause origin ("tlemma", list position)
    kind: str                # "theory-conflict" | "theory-deduction"
    # each variable of the clause past the atom table, with the atom it names
    defs: tuple[tuple[int, EufAtom], ...] = ()


class SmtSolver:
    """One solver instance per problem; single-owner while solving."""

    def __init__(self, formula: Formula, *, conflict_budget: Optional[int] = None,
                 log_proof: bool = False, seed: Optional[int] = None):
        self.table = formula.atoms
        self.theory: Optional[TheorySolver] = solver_for_logic(formula.logic, self.table)
        self.store: list[TLemma] = []
        self.sat = SatSolver(log_proof=log_proof, conflict_budget=conflict_budget, seed=seed)
        self.sat.ensure_vars(len(self.table))
        self.sat.add_inputs(formula.clauses)
        self._table_size = len(self.table)
        # the literals _sync asserts: both signs of the table's theory atoms,
        # and the positive one of each variable the theory defined (see
        # _new_theory_var)
        self._assertable = {lit for var, atom in self.table.items()
                            if isinstance(atom, (LinAtom, EufAtom)) for lit in (var, -var)}
        self._scan_pos = 0                      # sat trail position scanned so far
        self._synced_positions: list[int] = []  # trail position of each theory assert
        if self.theory is not None:
            self.sat.theory_hook = weakref.proxy(self)  # no reference cycle

    # -- lemma plumbing ----------------------------------------------------------

    def _add_lemma(self, clause: tuple[int, ...], kind: str) -> str:
        """Add a lemma's clause and store the lemma when the clause is new
        to the SAT database; returns the clause's status.  A held clause
        is settled as a new one: its premises may have been made true by
        lemmas just before it, which propagation has not read yet."""
        new = len(self.sat.clauses)
        cid, status = self.sat.add_clause(clause, ("tlemma", len(self.store)))
        if cid == new:
            defined = self.theory.defined
            defs = tuple((abs(lit), defined[abs(lit)]) for lit in clause
                         if abs(lit) in defined) if defined else ()
            self.store.append(TLemma(clause, kind, defs))
        return status

    def _conflict_lemma(self) -> bool:
        """Add the lemmas that state the theory conflict just reported, as
        `conflict_clauses` gives them, in order, until one is false: the
        SAT engine's pending conflict.  Each one before it is unit or
        satisfied when added, so its last literal holds for the next."""
        for clause in self.theory.conflict_clauses(self._new_theory_var):
            if self._add_lemma(clause, "theory-conflict") == "conflict":
                return True
        raise RuntimeError("the lemmas of a theory conflict end in a clause that is not false")

    # -- theory hook (called by the SAT engine) -----------------------------------
    #
    # Each hook returns whether it enqueued a literal or found a conflict,
    # which is then the SAT engine's pending conflict.

    def _sync(self) -> bool:
        """Assert newly assigned theory literals in trail order, except the
        negations of the atoms the theory defined (see `_new_theory_var`);
        on a theory conflict, store its lemmas and stop."""
        trail = self.sat.trail
        start, end = self._scan_pos, len(trail)
        if start == end:
            return False
        assertable, synced = self._assertable, self._synced_positions
        assert_literal = self.theory.assert_literal
        for pos in range(start, end):
            lit = trail[pos]
            if lit in assertable:
                inconsistent = assert_literal(lit)
                synced.append(pos)
                if inconsistent:
                    self._scan_pos = pos + 1
                    return self._conflict_lemma()
        self._scan_pos = end
        return False

    def _check(self) -> bool:
        """Sync, then check the asserted literals if the theory reports them
        `changed` since the last fixpoint pass; True on a theory conflict,
        whose lemmas (`_conflict_lemma`) are stored.

        A theory pass (`check_full`, then `deductions` in `hook_fixpoint`)
        runs only on a `changed` state.  An unchanged one passed that check,
        and every deduction it gave is a clause of the SAT database, so
        running the theory again could add nothing.  The engine only
        clears the flag, after a pass; the theory sets it, on an assert
        and in the undo of a backjump.  Every assert of LRA counts as a
        change, and so does every backtrack, since its simplex basis then
        differs.  EUF counts only a merge, a pair of classes newly
        separated and a conflict, and its undo clears the flag: the SAT
        engine decides only after the fixpoint pass of its level, so a
        backjump lands on a state that pass checked and deduced, which the
        exact undo restores."""
        if self._sync():
            return True
        theory = self.theory
        if not theory.changed:
            return False
        return theory.check_full() and self._conflict_lemma()

    def hook_fixpoint(self) -> bool:
        if self._check():
            return True
        theory = self.theory
        if not theory.changed:
            return False
        theory.changed = False
        # _check has asserted every assigned theory atom, so a deduced
        # literal is unassigned and its clause is unit
        progress = False
        for clause in theory.deductions():
            progress |= self._add_lemma(clause, "theory-deduction") in ("unit", "conflict")
        return progress

    def hook_final(self) -> bool:
        return self._check()

    def hook_backjump(self, trail_len: int):
        if self._scan_pos > trail_len:
            self._scan_pos = trail_len
        synced = self._synced_positions
        if synced and synced[-1] >= trail_len:
            keep = bisect_left(synced, trail_len)
            self.theory.backtrack(keep)
            del synced[keep:]

    # -- solving ----------------------------------------------------------------

    def new_var(self) -> int:
        """A fresh propositional variable, numbered past the atom table and
        every variable before it, selectors of `SatSolver.guard`
        included; it names no atom."""
        var = self.sat.nvars + 1
        self.sat.ensure_vars(var)
        return var

    def _new_theory_var(self) -> int:
        """A variable from `new_var` for an atom the theory defines.  Only
        its positive literal is asserted, since it may merge classes that
        a disequality of the table separates.  Its negation is not: the
        input clauses name only the table's atoms and every clause over a
        defined atom is theory-valid, so an assignment whose table literals
        the theory accepts satisfies the formula, whatever the defined
        atoms' values, and a disequality over one would only feed
        deductions."""
        var = self.new_var()
        self._assertable.add(var)
        return var

    def add_clause(self, lits: Iterable[int]) -> None:
        """Add a clause between solves, over the table's atom ids, the
        variables of `new_var` and the selectors of `SatSolver.guard`,
        which are numbered past every variable, so none names an atom.
        The table must not have grown since the engine was built, a
        ValueError otherwise: an atom interned later would take the number
        of one of the engine's variables."""
        if len(self.table) != self._table_size:
            raise ValueError("the atom table grew after the engine was built")
        self.sat._backjump(0)
        self.sat.add_clause(lits, ("added",))

    def add_lemma(self, lemma: TLemma) -> TLemma:
        """Add, as `add_clause` does, a lemma another engine over the same
        table stored, each of its engine variables renamed to the one that
        names the same atom here; returns the lemma as renamed."""
        rename = {var: self.theory.atom_var(atom, self._new_theory_var)
                  for var, atom in lemma.defs}
        clause = tuple(rename.get(lit, lit) if lit > 0 else -rename.get(-lit, -lit)
                       for lit in lemma.clause)
        self.add_clause(clause)
        return TLemma(clause, lemma.kind, tuple((rename[var], atom) for var, atom in lemma.defs))

    def solve(self, assumptions: tuple[int, ...] = ()) -> SatVerdict:
        """Solve under `assumptions` (signed variables): the CDCL search's
        verdict, with no theory model.  Learned clauses and the lemma store
        carry over to the next call."""
        return self.sat.solve(assumptions)


def smt_solve(formula: Formula) -> tuple[SatVerdict, list[TLemma]]:
    """Solve a formula; returns the verdict together with every theory lemma
    stored during the run, in discovery order.  A satisfiable verdict
    always carries the theory's model in `theory_model` (None without
    theory atoms; for LRA however small the infinitesimal must be), so
    `evaluate_clause` can check it.  No lemma repeats and none
    equals an input clause: a clause the SAT database holds already is not
    stored again."""
    engine = SmtSolver(formula)
    verdict = engine.solve()
    if verdict.status == "sat" and engine.theory is not None:
        verdict.theory_model = engine.theory.witness()
    return verdict, engine.store


class SelectorEngine:
    """One incremental SmtSolver that decides subsets of a formula's
    clauses.  The engine starts from none of the clauses, over the
    formula's own atom table; `SatSolver.guard` adds clause i as (not
    sel_i) or clause_i, with the selectors numbered from the table's size
    + 1, and a subset is solved under the assumption of its selectors.
    `sat.assumption_core` reads which clauses an unsat-assumptions
    verdict blames.  Learned clauses and stored lemmas follow from the
    guarded clauses alone, so they carry over from one subset to the
    next.  A clause added through `solver.add_clause` stays for every
    later solve.  `conflict_budget` bounds each solve, as it does an
    SmtSolver's."""

    def __init__(self, formula: Formula, *, conflict_budget: Optional[int] = None):
        self.solver = SmtSolver(formula.restrict(()), conflict_budget=conflict_budget)
        self.selectors = self.solver.sat.guard(formula.clauses)

    def solve(self, subset: Iterable[int], *extra: int) -> SatVerdict:
        """Solve the clauses of `subset` plus every added clause, assuming
        their selectors in the given order and then the signed literals
        `extra`."""
        return self.solver.solve(tuple(self.selectors[i] for i in subset) + extra)


def lifted_clauses(formula: Formula, store: list[TLemma]) -> list[tuple[int, ...]]:
    """Boolean abstraction of the input clauses followed by the stored
    lemmas: positions below len(formula.clauses) are inputs."""
    return formula.clauses + [lemma.clause for lemma in store]


def lifted_refutation(formula: Formula, core: Iterable[int],
                      lemmas: list[TLemma]) -> Optional[ProofLog]:
    """A resolution refutation of the clauses of `core` plus `lemmas`, by
    one proof-logging SAT search over them, or None when they are
    propositionally satisfiable.  The lemmas of an engine that refuted the
    core are theory-valid, so this is the paper's lifting step run once
    more: `check.check_refutation` then verifies the core from it."""
    return sat_solve(lifted_clauses(formula.restrict(core), lemmas), log_proof=True).proof


# ---------------------------------------------------------------------------
# Post-run verification helpers (the checked facts about lemma stores)
# ---------------------------------------------------------------------------

def lemma_store_violations(formula: Formula, store: list[TLemma],
                           unsat: bool) -> list[str]:
    """Check the two lemma-store facts: every stored lemma is theory-valid
    under the definitions it records (`TLemma.defs`), which must name
    every variable of the clause past the atom table, each as an equality
    over the formula's terms; and (after an unsat run) the abstraction of
    the inputs plus the lemmas is propositionally unsatisfiable by an
    independent SAT run.  Validity is decided by the trusted checker's
    `check.validity_check`, as `check.check_refutation` decides it for a
    refutation's leaves; the second fact needs a SAT search, so this
    stays beside the engine."""
    problems = []
    shared = validity_check(formula.logic, formula.atoms)
    for i, lemma in enumerate(store):
        try:
            check = shared.under(lemma.defs)
        except ValueError as exc:
            problems.append(f"lemma {i}: {exc}")
            continue
        if not check.known(lemma.clause):
            problems.append(f"lemma {i} names an unknown atom")
        elif not check.valid(frozenset(lemma.clause)):
            problems.append(f"lemma {i} is not theory-valid")
    if unsat and sat_solve(lifted_clauses(formula, store)).status != "unsat":
        problems.append("abstraction plus stored lemmas is not propositionally unsat")
    return problems


def evaluate_literal(lit: int, table: AtomTable, verdict: SatVerdict) -> bool:
    """Truth of a signed atom id under the theory model of a sat verdict
    of `smt_solve` (the Boolean model for propositional atoms)."""
    atom = table.atom(abs(lit))
    if isinstance(atom, LinAtom):
        value = eval_lin_atom(atom, verdict.theory_model or {})
    elif isinstance(atom, EufAtom):
        classes = verdict.theory_model or {}
        value = classes.get(atom.lhs) == classes.get(atom.rhs) and atom.lhs in classes
    else:
        value = bool(verdict.model.get(abs(lit)))
    return value if lit > 0 else not value


def evaluate_clause(clause: tuple[int, ...], table: AtomTable, verdict: SatVerdict) -> bool:
    return any(evaluate_literal(lit, table, verdict) for lit in clause)
