"""Theory solvers: congruence closure (EUF) and simplex (LRA)."""
from __future__ import annotations

from typing import Iterable, Optional

from ..terms import LOGIC_EUF, LOGIC_LRA, LOGIC_PROP, AtomTable, EufAtom, LinAtom
from .base import Deduction, TheorySolver
from .euf import EufSolver
from .lra import LraSolver

__all__ = [
    "Deduction", "TheorySolver", "EufSolver", "LraSolver",
    "solver_for_logic", "is_valid_lemma",
]


def solver_for_logic(logic: str, table: AtomTable) -> Optional[TheorySolver]:
    if logic == LOGIC_EUF:
        return EufSolver(table)
    if logic == LOGIC_LRA:
        return LraSolver(table)
    if logic == LOGIC_PROP:
        return None
    raise ValueError(f"no theory solver for logic {logic!r}")


def is_valid_lemma(clause: Iterable[int], table: AtomTable):
    """Decide theory validity of a clause of signed atom ids with a fresh
    solver instance.

    Returns (True, None) when the conjunction of the negated literals is
    theory-unsatisfiable, else (False, countermodel).  Propositional
    literals are allowed but contribute nothing: the clause is valid only
    if its theory part already is.  Mixed-theory clauses are an error.
    """
    theory_lits: list[int] = []
    kinds = set()
    for lit in clause:
        atom = table.atom(abs(lit))
        if isinstance(atom, LinAtom):
            kinds.add(LOGIC_LRA)
            theory_lits.append(lit)
        elif isinstance(atom, EufAtom):
            kinds.add(LOGIC_EUF)
            theory_lits.append(lit)
    if len(kinds) > 1:
        raise ValueError("mixed-theory clause")
    if not theory_lits:
        # all-propositional: not a theory lemma
        return False, {"propositional": "assign every literal false"}
    solver = EufSolver(table) if LOGIC_EUF in kinds else LraSolver(table)
    if solver.negation_inconsistent(theory_lits):
        return True, None
    return False, solver.witness()
