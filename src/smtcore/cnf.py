"""CNF conversion of parsed assertion sets.

The parser hands over each assertion in negation normal form
(`parser.BoolExpr`).  Assertions already in clause form pass through
verbatim: a literal or an `or` of literals becomes its clause directly,
with a repeated literal kept once (its first occurrence) and a literal
beside its complement rejected as a tautology.  Everything else goes
through constant folding, and is then distributed when the result stays
small (at most MAX_DISTRIBUTE clauses per assertion), and otherwise
converted definitionally with fresh auxiliary propositional variables.
Every emitted clause is a tuple of signed atom ids, and the formula
records the id of the assertion it came from.
"""
from __future__ import annotations

from typing import Optional

from .parser import AssertionSet
from .terms import Atom, AtomTable, Formula, PropAtom, infer_logic


# An assertion is distributed when that gives at most MAX_DISTRIBUTE
# clauses; distribution stops once a conjunction passes DISTRIBUTE_GUARD.
MAX_DISTRIBUTE = 8
DISTRIBUTE_GUARD = 4096


class CnfError(ValueError):
    pass


# A literal of the NNF tree (`BoolExpr`) and of a clause: (atom, positive).
_Lit = tuple[Atom, bool]


def _simplify(node):
    """Flatten nested and/and and or/or, fold constants, drop duplicate
    children, and collapse complementary siblings."""
    if node[0] in ("lit", "const"):
        return node
    kind, children = node
    flat = []
    for c in children:
        c = _simplify(c)
        if c[0] == "const":
            if c[1] == (kind == "and"):
                continue  # neutral element
            return ("const", kind != "and")  # absorbing element
        if c[0] == kind:
            flat.extend(c[1])
        else:
            flat.append(c)
    seen = set()
    out = []
    pol = {}
    for c in flat:
        key = (c[0], c[1], c[2]) if c[0] == "lit" else ("node", id(c))
        if c[0] == "lit":
            if (c[1], not c[2]) in pol:
                # l and (not l) as siblings: or is valid, and is contradictory
                return ("const", kind == "or")
            pol[(c[1], c[2])] = True
        if key in seen:
            continue
        seen.add(key)
        out.append(c)
    if not out:
        return ("const", kind == "and")
    if len(out) == 1:
        return out[0]
    return (kind, out)


def _extend(partial: tuple[list[_Lit], dict[Atom, bool]], lits) -> bool:
    """Append `lits` to a partial clause (its literals and their polarity
    by atom) in place, skipping repeats; False when that makes it
    tautological."""
    out, have = partial
    for a, p in lits:
        prev = have.get(a)
        if prev is None:
            have[a] = p
            out.append((a, p))
        elif prev != p:
            return False
    return True


def _distinct(clauses):
    """The first clause of each literal set, in order."""
    seen = set()
    out = []
    for cl in clauses:
        key = frozenset(cl[0])
        if key not in seen:
            seen.add(key)
            out.append(cl)
    return out


def _try_distribute(node) -> Optional[list[list[_Lit]]]:
    """Full distribution into an ordered clause list, or None past
    DISTRIBUTE_GUARD clauses.  Tautological and duplicate clauses are
    dropped; literal order follows the source tree so the result is
    deterministic."""
    if node[0] == "lit":
        return [[(node[1], node[2])]]
    kind, children = node
    parts = []
    for c in children:
        sub = _try_distribute(c)
        if sub is None:
            return None
        parts.append(sub)
    if kind == "and":
        out = []
        seen = set()
        for sub in parts:
            for cl in sub:
                key = frozenset(cl)
                if key not in seen:
                    seen.add(key)
                    out.append(cl)
            if len(out) > DISTRIBUTE_GUARD:
                return None
        return out
    # or: pairwise products.  A one-clause child extends every partial
    # clause in place, so an `or` of n literals costs O(n).  Two partials
    # that are equal stay equal under every later extension, so dropping
    # duplicates only before a product and at the end keeps the same first
    # copies, in the same order, as dropping them after every child.
    acc: list[tuple[list[_Lit], dict[Atom, bool]]] = [([], {})]
    for sub in parts:
        if len(sub) == 1:
            acc = [part for part in acc if _extend(part, sub[0])]
            continue
        nxt = []
        seen = set()
        for lits, have in _distinct(acc):
            for right in sub:
                merged = (list(lits), dict(have))
                if not _extend(merged, right):
                    continue  # tautology: drop
                key = frozenset(merged[0])
                if key not in seen:
                    seen.add(key)
                    nxt.append(merged)
            if len(nxt) > DISTRIBUTE_GUARD:
                return None
        acc = nxt
    return [lits for lits, _ in _distinct(acc)]


class _Definitions:
    """Definitional (auxiliary variable) translation for one conversion run.
    Auxiliaries are named `@cnf!N`, skipping every declared proposition
    name, so no auxiliary is an atom of the input: the parser rejects such
    a name, but an assertion set built through the API may declare one."""

    def __init__(self, declared):
        self.counter = 0
        self.declared = declared
        self.clauses: list[list[_Lit]] = []

    def fresh(self) -> Atom:
        while f"@cnf!{self.counter}" in self.declared:
            self.counter += 1
        atom = PropAtom(f"@cnf!{self.counter}")
        self.counter += 1
        return atom

    def lit_of(self, node) -> _Lit:
        if node[0] == "lit":
            return (node[1], node[2])
        kind, children = node
        child_lits = [self.lit_of(c) for c in children]
        aux = self.fresh()
        pos, neg = (aux, True), (aux, False)
        if kind == "and":
            for cl in child_lits:
                self.clauses.append([neg, cl])
            self.clauses.append([pos] + [(a, not p) for a, p in child_lits])
        else:
            self.clauses.append([neg] + child_lits)
            for cl in child_lits:
                self.clauses.append([pos, (cl[0], not cl[1])])
        return pos

    def top(self, node) -> list[list[_Lit]]:
        if node[0] == "lit":
            return [[(node[1], node[2])]]
        kind, children = node
        if kind == "and":
            out = []
            for c in children:
                out.extend(self.top(c))
            return out
        # top-level disjunction: literal children stay, composite children
        # get a defined auxiliary, then one linking clause
        link = []
        for c in children:
            if c[0] == "lit":
                link.append((c[1], c[2]))
            else:
                link.append(self.lit_of(c))
        defs = self.clauses
        self.clauses = []
        return defs + [link]


def _valid(aid: int) -> CnfError:
    return CnfError(f"assertion {aid} is propositionally valid (tautological); "
                    "it would contribute no clauses")


def cnf_convert(assertions: AssertionSet) -> Formula:
    """Convert a parsed assertion set into an indexed CNF formula.

    Raises CnfError for assertions that are propositionally valid (they
    would contribute no clauses and corrupt core reporting) and for
    tautological input clauses.
    """
    table = AtomTable()
    clauses: list[tuple[int, ...]] = []
    assertion_of: list[int] = []
    defs = _Definitions(assertions.declarations.props)
    intern = table.intern

    def emit(lits, aid: int):
        clauses.append(tuple([intern(a) if p else -intern(a) for a, p in lits]))
        assertion_of.append(aid)

    for aid, tree in assertions.assertions:
        args = tree[1] if tree[0] == "or" else (tree,)
        for arg in args:
            if arg[0] != "lit":
                break
        else:
            # a literal or an `or` of literals is its own clause, each literal
            # once; one beside its complement makes it valid, as in _simplify
            clause = dict.fromkeys([intern(a) if p else -intern(a) for _, a, p in args])
            for lit in clause:
                if -lit in clause:
                    raise _valid(aid)
            clauses.append(tuple(clause))
            assertion_of.append(aid)
            continue
        node = _simplify(tree)
        if node[0] == "const":
            if node[1]:
                raise _valid(aid)
            emit([], aid)
            continue
        dist = _try_distribute(node)
        if dist is not None and not dist:
            raise _valid(aid)
        if dist is not None and len(dist) <= MAX_DISTRIBUTE:
            for cl in dist:
                emit(cl, aid)
        else:
            for cl in defs.top(node):
                emit(cl, aid)

    logic = infer_logic(clauses, table)
    # every path above emits distinct literals over the table, never one
    # beside its complement, so the clauses are not normalized again
    return Formula._of_normalized(clauses, table, assertions.declarations, logic, assertion_of)
