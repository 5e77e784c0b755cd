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


def is_valid_lemma(clause: Iterable[int], table: AtomTable,
                   defs: Iterable[tuple[int, EufAtom]] = ()):
    """Decide theory validity of a clause of signed variables with a fresh
    solver instance.  A variable is an atom of `table`, or one past it
    that `defs`, pairs (variable, equality), defines as a lemma's
    `TLemma.defs` do.

    Returns (True, None) when the conjunction of the negated literals is
    theory-unsatisfiable, else (False, countermodel).  Propositional
    literals are allowed but contribute nothing: the clause is valid only
    if its theory part already is.  Mixed-theory clauses are an error.  A
    clause with a variable that neither the table nor `defs` names is not
    valid.
    """
    defined = dict(defs)
    theory_lits: list[int] = []
    kinds = set()
    for lit in clause:
        var = abs(lit)
        atom = defined.get(var)
        if atom is None:
            if not 1 <= var <= len(table):
                return False, {"undefined variable": var}
            atom = table.atom(var)
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
    for var, atom in defined.items():
        solver.define(var, atom)
    if solver.negation_inconsistent(theory_lits):
        return True, None
    return False, solver.witness()
