"""Core symbolic objects: terms, atoms, the atom table and formulas.

Everything is immutable and hashable once constructed.  A variable, an
application and an atom compute their hash when they are built and store
it: the value is the one a frozen dataclass generates, the hash of the
tuple of its fields, so every set and dict keyed by them iterates in the
same order, and a lookup does not hash a term tree again.  All arithmetic
is exact: a value is a plain `int` while it is integral and a
`fractions.Fraction` only when it is not; floats never appear in theory
reasoning.  Both kinds go through the same operators, and `Fraction(n)`
equals and hashes like `n`, so the kind never changes a comparison, a
dict key or an interned id.  Linear atoms are normalized to a canonical
"lhs <rel> 0" form with integer coefficients and offset, so that
syntactically different spellings of one constraint intern to the same
Boolean variable, which is what makes lifted lemma clauses share
variables with the input.

There is no literal type: a literal is a signed atom id (`3` is atom 3 of
the `AtomTable`, `-3` its negation), and a clause of a `Formula` is a tuple
of them, the format that the SAT solver, the theory solvers and the lemma
store read as well.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, Optional, Union

# An exact number: an int when integral, a Fraction otherwise.
Rational = Union[int, Fraction]

REAL = "Real"
BOOL = "Bool"

LOGIC_EUF = "EUF"
LOGIC_LRA = "LRA"
LOGIC_PROP = "mixed-propositional"


class SortError(ValueError):
    """A term or atom was built with mismatched sorts or arities."""


class _HashedOnce:
    """Base of the terms and atoms that store their hash: each sets `_hash`
    when it is built to the hash of the tuple of its fields, the value a
    frozen dataclass generates.  A string hashes differently in another
    process, so a copy or an unpickled object is built again by its
    constructor, never restored with the hash it had."""
    __slots__ = ("_hash",)

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Var(_HashedOnce):
    """Theory variable.  `index` is the declaration ordinal and fixes the
    variable order used by linear-atom canonicalization."""
    name: str
    sort: str
    index: int

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.name, self.sort, self.index)))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True)
class FunSymbol:
    name: str
    arg_sorts: tuple[str, ...]
    ret_sort: str


@dataclass(frozen=True, slots=True)
class FunApp(_HashedOnce):
    fn: FunSymbol
    args: tuple["Term", ...]

    def __post_init__(self):
        if len(self.args) != len(self.fn.arg_sorts):
            raise SortError(
                f"{self.fn.name} expects {len(self.fn.arg_sorts)} arguments, got {len(self.args)}")
        for arg, want in zip(self.args, self.fn.arg_sorts):
            got = term_sort(arg)
            if got != want:
                raise SortError(f"argument of {self.fn.name} has sort {got}, expected {want}")
        object.__setattr__(self, "_hash", hash((self.fn, self.args)))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True)
class LinComb:
    """Linear rational combination sum(coeff * var) + offset.

    `terms` is sorted by variable declaration index and contains no zero
    coefficients.
    """
    terms: tuple[tuple[Var, Rational], ...]
    offset: Rational


Term = Union[Var, FunApp, LinComb]


def term_sort(t: Term) -> str:
    if isinstance(t, Var):
        return t.sort
    if isinstance(t, LinComb):
        return REAL
    if isinstance(t, FunApp):
        return t.fn.ret_sort
    raise TypeError(f"not a term: {t!r}")


def term_key(t: Term):
    """Total order on the terms an equality atom can hold, to orient it."""
    if isinstance(t, Var):
        return (0, t.index, t.name)
    if isinstance(t, FunApp):
        return (2, t.fn.name, tuple(term_key(a) for a in t.args))
    raise TypeError(f"not an equality's term: {t!r}")


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class PropAtom(_HashedOnce):
    name: str

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.name,)))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True, slots=True)
class LinAtom(_HashedOnce):
    """Canonical linear constraint ``sum(coeffs) + offset <rel> 0``.

    Use :func:`canonical_lin_atom` to construct; the raw constructor does
    not normalize.
    """
    coeffs: tuple[tuple[Var, int], ...]
    offset: int
    rel: str  # "<=", "<" or "="

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.coeffs, self.offset, self.rel)))

    def __hash__(self):
        return self._hash

    def lincomb(self) -> LinComb:
        return LinComb(self.coeffs, self.offset)


@dataclass(frozen=True, slots=True)
class EufAtom(_HashedOnce):
    """Equality between two uninterpreted terms, sides in term order."""
    lhs: Term
    rhs: Term

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.lhs, self.rhs)))

    def __hash__(self):
        return self._hash


Atom = Union[PropAtom, LinAtom, EufAtom]

_REL_OK = ("<=", "<", "=")
_second = itemgetter(1)


def canonical_lin_atom(comb: LinComb, rel: str) -> LinAtom:
    """Normalize a linear constraint ``comb <rel> 0``.

    Steps: clear denominators to integers, divide through by the gcd of all
    integer values, and for equalities force the first nonzero coefficient
    (in declaration order) positive.  Inequalities keep their orientation:
    ``>=``/``>`` must already have been rewritten to ``<=``/``<`` by
    negating sides.  Constant constraints reduce their offset to its sign.
    The coefficients and offset of the result are `int`s.
    """
    if rel not in _REL_OK:
        raise ValueError(f"unsupported relation {rel!r}")
    coeffs = comb.terms
    offset = comb.offset
    if not coeffs:
        return LinAtom((), (offset > 0) - (offset < 0), rel)
    try:
        g = gcd(offset, *map(_second, coeffs))
    except TypeError:  # a Fraction among them: clear denominators first
        denom = lcm(offset.denominator, *[c.denominator for _, c in coeffs])
        coeffs = tuple([(v, c.numerator * (denom // c.denominator)) for v, c in coeffs])
        offset = offset.numerator * (denom // offset.denominator)
        g = gcd(offset, *map(_second, coeffs))
    if rel == "=" and coeffs[0][1] < 0:
        g = -g
    if g == 1:
        return LinAtom(coeffs, offset, rel)
    return LinAtom(tuple([(v, c // g) for v, c in coeffs]), offset // g, rel)


def euf_atom(lhs: Term, rhs: Term) -> EufAtom:
    ls, rs = term_sort(lhs), term_sort(rhs)
    if ls != rs:
        raise SortError(f"equality between sorts {ls} and {rs}")
    if ls in (REAL, BOOL):
        raise SortError(f"equality atoms over sort {ls} are not uninterpreted")
    if term_key(lhs) > term_key(rhs):
        lhs, rhs = rhs, lhs
    return EufAtom(lhs, rhs)


def eval_lin_atom(atom: LinAtom, values: dict[Var, Rational]) -> bool:
    total = atom.offset + sum(c * values.get(v, 0) for v, c in atom.coeffs)
    if atom.rel == "<=":
        return total <= 0
    if atom.rel == "<":
        return total < 0
    return total == 0


def atom_theory(atom: Atom) -> Optional[str]:
    """Theory owning an atom, or None for propositional atoms."""
    if isinstance(atom, LinAtom):
        return LOGIC_LRA
    if isinstance(atom, EufAtom):
        return LOGIC_EUF
    return None


# ---------------------------------------------------------------------------
# Atom table: the atom <-> Boolean-variable bijection
# ---------------------------------------------------------------------------

class AtomTable:
    """Append-only bijection between atoms and 1-based dense variable ids."""

    def __init__(self):
        self._atoms: list[Atom] = []
        self._ids: dict[Atom, int] = {}

    def __len__(self) -> int:
        return len(self._atoms)

    def intern(self, atom: Atom) -> int:
        idx = self._ids.setdefault(atom, len(self._atoms) + 1)
        if idx > len(self._atoms):
            self._atoms.append(atom)
        return idx

    def atom(self, idx: int) -> Atom:
        if not 1 <= idx <= len(self._atoms):
            raise LookupError(f"variable {idx} is not in the atom table (size {len(self._atoms)})")
        return self._atoms[idx - 1]

    def items(self) -> Iterable[tuple[int, Atom]]:
        return enumerate(self._atoms, 1)


# ---------------------------------------------------------------------------
# Declarations and formulas
# ---------------------------------------------------------------------------

class Declarations:
    """Symbol table: sorts, theory variables, propositional names, functions."""

    def __init__(self):
        self.sorts: list[str] = []
        self.vars: dict[str, Var] = {}
        self.props: dict[str, PropAtom] = {}
        self.funs: dict[str, FunSymbol] = {}
        self._order: list[str] = []

    def _check_fresh(self, name: str):
        if name in self.vars or name in self.props or name in self.funs or name in self.sorts:
            raise ValueError(f"symbol {name!r} is already declared")

    def declare_sort(self, name: str):
        self._check_fresh(name)
        self.sorts.append(name)

    def declare_var(self, name: str, sort: str) -> Var:
        self._check_fresh(name)
        v = Var(name, sort, len(self.vars))
        self.vars[name] = v
        self._order.append(name)
        return v

    def declare_prop(self, name: str) -> PropAtom:
        self._check_fresh(name)
        p = PropAtom(name)
        self.props[name] = p
        self._order.append(name)
        return p

    def declare_fun(self, name: str, arg_sorts: tuple[str, ...], ret_sort: str) -> FunSymbol:
        self._check_fresh(name)
        f = FunSymbol(name, arg_sorts, ret_sort)
        self.funs[name] = f
        self._order.append(name)
        return f


def _normalized(clause: Iterable[int], size: int) -> tuple[int, ...]:
    """`clause` with each repeated literal dropped after its first copy.  A
    literal beside its complement is a ValueError; literal 0 or an id
    outside an atom table of `size` atoms is a LookupError."""
    lits = dict.fromkeys(clause)
    for lit in lits:
        if not 1 <= abs(lit) <= size:
            raise LookupError(f"literal {lit} names no atom of the table (size {size})")
        if -lit in lits:
            raise ValueError("tautological clause (contains a literal and its negation)")
    return tuple(lits)


@dataclass
class Formula:
    """A CNF problem over the shared atom table: `clauses[i]` is a tuple of
    signed atom ids and `assertion_of[i]` the assertion it came from.
    Building a Formula normalizes every clause once (see `_normalized`),
    except through `_of_normalized`.  Immutable by convention once built."""
    clauses: list[tuple[int, ...]]
    atoms: AtomTable
    declarations: Optional[Declarations]
    logic: str
    assertion_of: list[int]

    def __post_init__(self):
        if len(self.assertion_of) != len(self.clauses):
            raise ValueError(f"{len(self.clauses)} clauses but {len(self.assertion_of)} "
                             f"assertion ids")
        size = len(self.atoms)
        self.clauses = [_normalized(c, size) for c in self.clauses]

    @classmethod
    def _of_normalized(cls, clauses: list[tuple[int, ...]], atoms: AtomTable,
                       declarations: Optional[Declarations], logic: str,
                       assertion_of: list[int]) -> "Formula":
        """A Formula of clauses that are normalized already, one assertion id
        each, built without checking them again: `cnf_convert` emits such
        clauses, and `restrict` picks them from a Formula."""
        formula = cls.__new__(cls)
        formula.clauses, formula.atoms, formula.declarations = clauses, atoms, declarations
        formula.logic, formula.assertion_of = logic, assertion_of
        return formula

    def __len__(self) -> int:
        return len(self.clauses)

    def restrict(self, indices: Iterable[int]) -> "Formula":
        """Sub-formula induced by a set of clause indices (re-indexed, same
        atom table; assertion ids preserved)."""
        picked = sorted(set(indices))
        return Formula._of_normalized([self.clauses[i] for i in picked], self.atoms,
                                      self.declarations, self.logic,
                                      [self.assertion_of[i] for i in picked])

    def assertion_ids(self, indices: Iterable[int]) -> tuple[int, ...]:
        return tuple(sorted({self.assertion_of[i] for i in indices}))


def infer_logic(clauses: Iterable[tuple[int, ...]], atoms: AtomTable) -> str:
    variables = set(map(abs, chain.from_iterable(clauses)))
    theories = {atom_theory(atoms.atom(var)) for var in variables} - {None}
    if len(theories) > 1:
        raise SortError("formula mixes EUF and LRA atoms; theory combination is unsupported")
    return theories.pop() if theories else LOGIC_PROP
