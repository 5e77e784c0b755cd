"""Theory-solver interface shared by the congruence-closure and simplex
backends.

A solver owns the atoms of exactly one theory.  A literal is the SAT
solver's: a signed atom id of the table, positive for the atom and negative
for its negation, or a signed variable past the table that names an atom
in `defined` (the engine's own atoms: the table never grows), which only
`EufSolver.define` fills.  Asserting a literal either extends the state
or returns a conflict: a subset of the currently asserted literals whose
conjunction is theory-unsatisfiable.  The full check answers the same
way, with such a conflict or None.  `backtrack(n)` restores exactly the
state in which the first n of the asserted literals were asserted.
The engine receives what a solver infers as lemma clauses, the shape in
which it stores them: `conflict_clauses` states a conflict, and
`deductions` gives each entailed literal with its explanation negated.

Every change a solver makes to its state is pushed on one undo trail,
`_trail`, whose entries only the concrete solver reads.  The base class
records the trail's length before each asserted literal in `_marks`, and
`backtrack` hands the length at the mark to the solver's `_undo_to`, which
pops entries until the trail is that long again.  A solver may also undo
to a length it took itself, as a check that probes the state does.

`changed` tells the engine when `check_full` and `deductions` may answer
otherwise than at its last pass, which cleared it: the base sets it on
every assert, and a solver may set it only when its state changes in a way
they read.  `exact_undo` says that `backtrack` restores a state on which
both answer as they did when it was first reached.
"""
from __future__ import annotations

from typing import Callable, Optional

from ..terms import Atom, AtomTable


class TheorySolver:
    """Base class; concrete solvers implement the underscored primitives."""

    theory: str = "?"
    exact_undo: bool = False

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

    def assert_literal(self, lit: int) -> Optional[list[int]]:
        var = abs(lit)
        atom = self.defined.get(var) or self.table.atom(var)
        if not self.owns_atom(atom):
            raise ValueError(f"literal over {type(atom).__name__} does not belong to {self.theory}")
        self._asserted.append(lit)
        self._asserted_atoms.add(var)
        self._marks.append(len(self._trail))
        self.changed = True
        return self._assert(lit, atom)

    def conflict_clauses(self, conflict: list[int],
                         new_var: Callable[[], int]) -> list[tuple[int, ...]]:
        """Theory-valid clauses to add, in order, for the conflict that
        `assert_literal` or `check_full` just returned as `conflict`.
        Under the asserted literals and the clauses before it, each clause
        has at most one literal that is not false, and the last has none.
        Here, the one clause negating `conflict`; a solver may instead
        state them over atoms it defines on variables from `new_var`."""
        return [tuple(-lit for lit in conflict)]

    # -- to implement ---------------------------------------------------------

    def owns_atom(self, atom) -> bool:
        raise NotImplementedError

    def _assert(self, lit: int, atom) -> Optional[list[int]]:
        raise NotImplementedError

    def _undo_to(self, length: int):
        """Pop undo entries until `_trail` has `length` entries."""
        raise NotImplementedError

    def check_full(self) -> Optional[list[int]]:
        """A conflict among the asserted literals, in the form
        `assert_literal` returns one, or None when they are consistent."""
        raise NotImplementedError

    def witness(self):
        """Theory model of the asserted literals; valid only right after
        check_full returned None.  Built on demand: the search never reads
        one, and only `smt_solve` asks for it (the model of a satisfiable
        answer)."""
        raise NotImplementedError

    def deductions(self) -> list[tuple[int, ...]]:
        """Each unasserted literal the asserted ones entail, as the lemma
        clause that states it: the negations of the asserted literals that
        entail it, then the literal itself."""
        raise NotImplementedError
