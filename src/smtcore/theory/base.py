"""Theory-solver interface shared by the congruence-closure and simplex
backends.

A solver owns the atoms of exactly one theory.  A literal is the SAT
solver's: a signed atom id of the table, positive for the atom and negative
for its negation, or a signed variable past the table that names an atom
in `defined` (the engine's own atoms: the table never grows), which only
`EufSolver` fills, with each equality a conflict chain needs and the table
has no atom for.  Asserting a literal answers whether the
asserted literals are now inconsistent, and so does the full check.
`backtrack(n)` restores exactly the state in which the first n of the
asserted literals were asserted.  The engine receives what a solver infers
as lemma clauses, the shape in which it stores them: `conflict_clauses`
states the conflict that the last True answer reported, and `deductions`
gives each entailed literal with its explanation negated.

Each solver's `assert_literal` is one call that keeps the shared records:
the literal in `_asserted`, its atom in `_asserted_atoms`, and the undo
trail's length before it in `_marks`.  Every change a solver makes to its
state is pushed on that trail, `_trail`, whose entries only the concrete
solver reads.  `backtrack` hands the length at a mark to the solver's
`_undo_to`, which pops entries until the trail is that long again.  A
solver may also undo to a length it took itself, as a check that probes
the state does.

`changed` tells the engine when `check_full` and `deductions` may answer
otherwise than at its last pass, which cleared it.  Each solver owns the
flag: it sets it when an assert changes what they read, and `_undo_to`
sets it too, False when the undo is exact (EUF: the restored state is one
that a pass already read) and True when it is not (LRA: the simplex basis
stays as the undone steps left it).
"""
from __future__ import annotations

from typing import Callable

from ..terms import Atom, AtomTable


class TheorySolver:
    """Base class; concrete solvers implement the methods that raise."""

    def __init__(self, table: AtomTable):
        self.table = table
        self.defined: dict[int, Atom] = {}   # variable past the table -> its atom
        self._asserted: list[int] = []
        self._asserted_atoms: set[int] = set()
        self._trail: list[tuple] = []   # undo entries, read by the subclass
        self._marks: list[int] = []     # trail length before each asserted literal
        self.changed = True             # see the module docstring

    # -- mark/backtrack -----------------------------------------------------

    def backtrack(self, mark: int):
        if not 0 <= mark <= len(self._asserted):
            raise ValueError(f"stale mark {mark}: only {len(self._asserted)} literals asserted")
        if mark == len(self._asserted):
            return
        self._asserted_atoms.difference_update([abs(lit) for lit in self._asserted[mark:]])
        del self._asserted[mark:]
        length = self._marks[mark]
        del self._marks[mark:]
        self._undo_to(length)

    # -- to implement ---------------------------------------------------------

    def assert_literal(self, lit: int) -> bool:
        """Assert `lit`; whether the asserted literals are now
        inconsistent (see `conflict_clauses`).  A literal over an
        atom of another theory is a ValueError saying that it does not
        belong to this one, and leaves the solver as it was.  Otherwise
        the literal is appended to `_asserted`, its variable added to
        `_asserted_atoms` and the trail's length before its changes to
        `_marks`, and `changed` is set if `check_full` or `deductions`
        may now answer otherwise."""
        raise NotImplementedError

    def _undo_to(self, length: int):
        """Pop undo entries until `_trail` has `length` entries, and set
        `changed` (see the module docstring)."""
        raise NotImplementedError

    def check_full(self) -> bool:
        """Whether the asserted literals are inconsistent, as
        `assert_literal` answers (see `conflict_clauses`)."""
        raise NotImplementedError

    def conflict_clauses(self, new_var: Callable[[], int]) -> list[tuple[int, ...]]:
        """Theory-valid clauses to add, in order, that state the conflict
        the last True answer of `assert_literal` or `check_full` reported;
        valid only right after that answer.  Under the asserted literals
        and the clauses before it, each clause has at most one literal that
        is not false, up to the first that has none, where the engine stops.
        The last has none, unless one before it has (an EUF chain may pass
        an equality that a second violated disequality negates).  A solver
        may state them over atoms it defines on variables from `new_var`."""
        raise NotImplementedError

    def witness(self):
        """Theory model of the asserted literals; valid only right after
        check_full answered False, and that answer is what makes one exist
        (LRA's search for a concrete infinitesimal ends because of it).
        Built on demand: the search never reads one, and only `smt_solve`
        asks for it (the model of a satisfiable answer)."""
        raise NotImplementedError

    def deductions(self) -> list[tuple[int, ...]]:
        """Each unasserted literal the asserted ones entail, as the lemma
        clause that states it: the negations of the asserted literals that
        entail it, then the literal itself."""
        raise NotImplementedError
