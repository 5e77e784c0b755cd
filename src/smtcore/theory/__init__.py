"""Theory solvers, congruence closure (EUF) and simplex (LRA), and the one
theory-validity check, `validity_check`, by which `cores.check_refutation`
decides refutation leaves and `smt.lemma_store_violations` stored lemmas.
"""
from __future__ import annotations

import copy
from typing import Iterable, Optional

from ..terms import LOGIC_EUF, LOGIC_LRA, LOGIC_PROP, Atom, AtomTable, EufAtom, FunApp, LinAtom
from .base import TheorySolver
from .euf import EufSolver
from .lra import LraSolver

__all__ = ["TheorySolver", "EufSolver", "LraSolver", "solver_for_logic"]


def solver_for_logic(logic: str, table: AtomTable) -> Optional[TheorySolver]:
    if logic == LOGIC_EUF:
        return EufSolver(table)
    if logic == LOGIC_LRA:
        return LraSolver(table)
    if logic == LOGIC_PROP:
        return None
    raise ValueError(f"no theory solver for logic {logic!r}")


def validity_check(logic: str, table: AtomTable) -> "_Validity":
    """The validity check of clauses over `table` for a formula of `logic`:
    for a formula with no theory atoms, one that accepts only tautologies."""
    return {LOGIC_EUF: _EufValidity, LOGIC_LRA: _LraValidity}.get(logic, _Validity)(table)


class _Validity:
    """Theory validity of clauses of signed variables.  A variable is an
    atom of `table`, or one past it that a copy made by `under` names,
    which only the EUF check admits (`_admit`), as only `EufSolver`
    defines atoms.  A clause is valid when it is a tautology or the
    negations of its literals over the theory's atoms are inconsistent
    (`_refutes`).  Its other literals are ignored, which is sound: a clause
    that contains a valid clause is valid.  This base decides no theory."""

    def __init__(self, table: AtomTable):
        self.table = table
        self.defined: dict[int, Atom] = {}

    def under(self, defs: Iterable[tuple[int, Atom]]) -> "_Validity":
        """A copy of this check whose only definitions are `defs`, pairs
        (variable, atom) in which each variable, past the table, names its
        atom; a ValueError naming the first it rejects.  The copy shares
        everything else, so it costs no more than its definitions."""
        check = copy.copy(self)
        check.defined = {}
        for var, atom in defs:
            try:
                if var <= len(self.table):
                    raise ValueError(f"variable {var} is an atom of the table")
                self._admit(var, atom)
            except ValueError as exc:
                raise ValueError(f"definition of variable {var} is rejected: {exc}") from None
            check.defined[var] = atom
        return check

    def atom(self, var: int) -> Atom:
        return self.defined.get(var) or self.table.atom(var)

    def known(self, lits: Iterable[int]) -> bool:
        """Whether every literal names an atom of the table or a defined one."""
        size, defined = len(self.table), self.defined
        return all(1 <= abs(lit) <= size or abs(lit) in defined for lit in lits)

    def valid(self, lits: frozenset[int]) -> bool:
        """Whether the clause is valid; every literal must be `known`."""
        return any(-lit in lits for lit in lits) or self._refutes(lits)

    def _admit(self, var: int, atom: Atom) -> None:
        raise ValueError("only an EUF formula defines atoms past its table")

    def _refutes(self, lits: frozenset[int]) -> bool:
        return False


class _EufValidity(_Validity):
    """EUF, by a congruence closure over the clause's own terms and their
    subterms, which decides a ground EUF clause (Nelson & Oppen, "Fast
    decision procedures based on congruence closure", JACM 1980).  No
    closure is kept from one clause to the next, only names: a term gets
    a dense id the first time a clause names it, kept with the ids of its
    subterms and its function symbol's number, and an atom the pair of its
    sides' ids, so a clause's closure hashes no `Term`."""

    def __init__(self, table: AtomTable):
        super().__init__(table)
        self.terms: set = set()             # every term of the table's equalities
        todo = [t for _, a in table.items() if isinstance(a, EufAtom) for t in (a.lhs, a.rhs)]
        while todo:
            t = todo.pop()
            if t not in self.terms:
                self.terms.add(t)
                if isinstance(t, FunApp):
                    todo.extend(t.args)
        self._ids: dict = {}                # term -> id
        self._app: list = []                # id -> (symbol number, argument ids), or None
        self._below: list = []              # id -> the ids of its subterms, itself last
        self._symbols: dict = {}            # function symbol -> number
        self._ends: dict = {}               # variable -> (lhs id, rhs id), or None if not EUF

    def _term_id(self, t) -> int:
        tid = self._ids.get(t)
        if tid is None:
            below, app = [], None
            if isinstance(t, FunApp):
                args = tuple([self._term_id(a) for a in t.args])
                for a in args:
                    below += self._below[a]
                app = (self._symbols.setdefault(t.fn, len(self._symbols)), args)
            tid = self._ids[t] = len(self._app)
            below.append(tid)
            self._app.append(app)
            self._below.append(tuple(dict.fromkeys(below)))
        return tid

    def under(self, defs: Iterable[tuple[int, Atom]]) -> "_EufValidity":
        check = super().under(defs)
        check._ends = {}                    # a defined variable may name another atom there
        return check

    def _admit(self, var: int, atom: Atom) -> None:
        """An equality over the terms of the table's equalities."""
        if not isinstance(atom, EufAtom):
            raise ValueError(f"{type(atom).__name__} does not belong to EUF")
        if atom.lhs not in self.terms or atom.rhs not in self.terms:
            raise ValueError(f"{atom} is not over the solver's terms")

    def _refutes(self, lits: frozenset[int]) -> bool:
        """The equalities the clause negates, closed under congruence, join
        the two sides of an equality it asserts."""
        ends = self._ends
        equal, unequal = [], []
        for lit in lits:
            var = lit if lit > 0 else -lit
            if var in ends:
                pair = ends[var]
            else:
                atom = self.atom(var)
                pair = ends[var] = (self._term_id(atom.lhs), self._term_id(atom.rhs)) \
                    if isinstance(atom, EufAtom) else None
            if pair is not None:
                (unequal if lit > 0 else equal).append(pair)
        if not unequal:
            return False
        below, app = self._below, self._app
        rep = {}                            # the clause's terms and their subterms
        for a, b in equal + unequal:
            for tid in below[a] + below[b]:
                rep[tid] = tid
        apps = [(tid, app[tid]) for tid in rep if app[tid] is not None]

        def find(t: int) -> int:
            while rep[t] != t:
                rep[t] = t = rep[rep[t]]
            return t

        for a, b in equal:
            rep[find(a)] = find(b)
        merged = True
        while merged:                       # one signature pass until none merges
            merged = False
            signatures = {}
            for tid, (fn, args) in apps:
                other = signatures.setdefault((fn, *map(find, args)), tid)
                a, b = find(tid), find(other)
                if a != b:
                    rep[a] = b
                    merged = True
        return any(find(a) == find(b) for a, b in unequal)


class _LraValidity(_Validity):
    """LRA, by asserting the negations, in variable order, to one
    `LraSolver` and checking it; the solver is backtracked to empty after
    each clause."""

    def __init__(self, table: AtomTable):
        super().__init__(table)
        self.solver = LraSolver(table)

    def _refutes(self, lits: frozenset[int]) -> bool:
        solver = self.solver
        owned = [lit for lit in sorted(lits, key=abs) if isinstance(self.atom(abs(lit)), LinAtom)]
        refuted = any(solver.assert_literal(-lit) for lit in owned) or solver.check_full()
        solver.backtrack(0)
        return refuted
