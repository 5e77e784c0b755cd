"""Two-phase enumeration of minimal unsatisfiable cores.

Phase one enumerates every minimal correction subset (MCS) on one
incremental selector engine, after Liffiton & Sakallah, "Algorithms for
computing minimal unsatisfiable subsets of constraints" (JAR 2008):
selector variables guard the clauses, and for growing sizes k we
enumerate theory-consistent models whose false selectors form a
correction set, adding a clause that blocks each one found.  One
totalizer over the negated selectors, built once and extended as k
grows, bounds every k: at-most-k is one assumption on its outputs.  The
selectors and the totalizer's outputs come from `SmtSolver.new_var`, so
none of them is an atom.
Phase two computes all minimal unsatisfiable cores as the minimal hitting
sets of the MCS set by MMCS, which finds each set once and only when it is
minimal.  Both sets can be exponentially large, so hard caps guard each
phase and flag incomplete results loudly.  A conflict budget bounds each
solve of phase one; one that runs out ends the enumeration, flagged
incomplete the same way.  A hitting set of an incomplete MCS list need not
be unsatisfiable, so phase two runs only on a complete one.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Callable, Iterable, Optional

from .smt import SelectorEngine
from .terms import Formula

DEFAULT_CAP = 10_000


@dataclass
class McsSet:
    mcses: list[frozenset[int]]
    complete: bool
    satisfiable: Optional[bool] = False  # None: the budget ran out before a verdict


@dataclass
class MusSet:
    muses: list[frozenset[int]]
    complete: bool


class _Totalizer:
    """At-most-k over `lits` (signed variables) for every k, after
    Bailleux & Boufkhad, "Efficient CNF encoding of Boolean cardinality
    constraints" (CP 2003).  A balanced binary tree sums the lits in unary:
    the node over m of them has outputs o_1..o_m, and clause (not a_i or
    not b_j or o_(i+j)) of its children's outputs forces o_j whenever at
    least j of its lits are true.  At-most-k is the assumption not o_(k+1)
    of the root.

    Outputs are made only as far as they are read, and extended as k
    grows, after Martins, Joshi, Manquinho & Lynce, "Incremental
    cardinality constraints for MaxSAT" (CP 2014).  A node below the root
    holds outputs up to k, and the root only the o_(k+1) of each bound
    asked for; a pair of any node that sums to k+1 forces the root's
    o_(k+1) directly, which is sound since no node counts more lits than
    the root.  Each output is a fresh variable from `new_var`, and each
    clause goes to `add` once."""

    def __init__(self, lits: list[int], new_var: Callable[[], int],
                 add: Callable[[tuple[int, ...]], None]):
        self._new_var, self._add = new_var, add
        # (left outputs, right outputs, outputs, lits below), children
        # first, so the root is last
        self._nodes: list[tuple[list[int], list[int], list[int], int]] = []
        self._n = len(lits)
        self._build(lits)
        self._bounds: dict[int, int] = {}  # k -> the root's o_(k+1)

    def _build(self, lits: list[int]) -> list[int]:
        if len(lits) == 1:
            return lits
        mid = len(lits) // 2
        node = (self._build(lits[:mid]), self._build(lits[mid:]), [], len(lits))
        self._nodes.append(node)
        return node[2]

    def at_most(self, k: int) -> tuple[int, ...]:
        """The assumptions under which at most k of the lits are true."""
        if k >= self._n:
            return ()
        if k not in self._bounds:
            for left, right, out, size in self._nodes[:-1]:
                self._extend(left, right, out, min(size, k))
            bound = self._bounds[k] = self._new_var()
            for left, right, _out, _size in self._nodes:
                # the pairs (i, j) with i + j = k + 1, both at most k
                for i in range(max(k + 1 - len(right), 1), min(len(left), k) + 1):
                    self._add((-left[i - 1], -right[k - i], bound))
        return (-self._bounds[k],)

    def _extend(self, left: list[int], right: list[int], out: list[int], top: int):
        """Give the node outputs up to o_top, with the clauses of the
        pairs that force each new one."""
        old = len(out)
        for _ in range(old, top):
            out.append(self._new_var())
        add = self._add
        for i in range(min(len(left), top) + 1):
            for j in range(max(old + 1 - i, 0), min(len(right), top - i) + 1):
                if i == 0:
                    add((-right[j - 1], out[j - 1]))
                elif j == 0:
                    add((-left[i - 1], out[i - 1]))
                else:
                    add((-left[i - 1], -right[j - 1], out[i + j - 1]))


def enumerate_mcs(formula: Formula, cap: int = DEFAULT_CAP,
                  budget: Optional[int] = None) -> McsSet:
    """All minimal correction subsets of a theory-unsatisfiable formula.
    `budget` bounds each solve; one that runs out returns what was found
    so far as incomplete, with `satisfiable` None if it was the first."""
    n = len(formula.clauses)
    engine = SelectorEngine(formula, conflict_budget=budget)
    status = engine.solve(range(n)).status
    if status == "sat":
        return McsSet([], complete=True, satisfiable=True)
    if status == "unknown":
        return McsSet([], complete=False, satisfiable=None)
    selectors, add = engine.selectors, engine.solver.add_clause
    # one cardinality encoding over the dropped clauses serves every k
    dropped = _Totalizer([-s for s in selectors], engine.solver.new_var, add)
    found: list[frozenset[int]] = []
    for k in count(1):
        at_most_k = dropped.at_most(k)
        while True:
            verdict = engine.solve((), *at_most_k)
            if verdict.status == "unknown":
                return McsSet(found, complete=False)
            if verdict.status != "sat":
                break
            mcs = frozenset(i for i, s in enumerate(selectors)
                            if not verdict.model[s])
            assert mcs and len(mcs) <= k
            found.append(mcs)
            add(tuple(selectors[i] for i in sorted(mcs)))
            if len(found) >= cap:
                return McsSet(found, complete=False)
        status = engine.solve(()).status
        if status != "sat":
            return McsSet(found, complete=status != "unknown")


def minimal_hitting_sets(mcses: Iterable[frozenset[int]],
                         cap: int = DEFAULT_CAP) -> MusSet:
    """MMCS, after Murakami & Uno, "Efficient algorithms for dualizing
    large-scale hypergraphs" (DAM 2014): branch on the candidates of the
    unhit set with the fewest, banning each for the siblings after it, so
    each set is reached once.  Each chosen element keeps the sets that it
    alone hits; a branch that empties one of those reaches no minimal set
    and is cut, so every set found is minimal.  `cap` bounds the sets."""
    sets = [frozenset(m) for m in mcses]
    members = [sum(1 << e for e in s) for s in sets]  # elements, as bits
    hits = {e: sum(1 << i for i, s in enumerate(sets) if e in s)  # indices, as bits
            for e in frozenset().union(*sets)}
    found: list[frozenset[int]] = []

    def rec(crit: dict[int, int], cand: int, unhit: list[int]) -> bool:
        # crit maps each chosen element to the sets it alone hits
        if not unhit:
            found.append(frozenset(crit))
            return len(found) < cap
        pivot = min((members[i] & cand for i in unhit), key=int.bit_count)
        for e in range(pivot.bit_length()):
            if pivot >> e & 1:
                cand &= ~(1 << e)
                occ = hits[e]
                child = {f: only & ~occ for f, only in crit.items()}
                if all(child.values()):
                    child[e] = sum(1 << i for i in unhit if occ >> i & 1)
                    if not rec(child, cand, [i for i in unhit if not occ >> i & 1]):
                        return False  # capped
        return True

    complete = rec({}, -1, list(range(len(sets))))  # -1: every element
    return MusSet(sorted(found, key=sorted), complete)


def all_minimal_cores(formula: Formula, cap: int = DEFAULT_CAP,
                      budget: Optional[int] = None) -> tuple[McsSet, MusSet]:
    """The MCSes and MUSes of `formula`.  When the MCS list is incomplete
    (capped, or out of budget) no MUS is listed: a minimal hitting set of
    part of the MCSes need not be a core."""
    mcs = enumerate_mcs(formula, cap, budget)
    if not mcs.complete:
        return mcs, MusSet([], complete=False)
    return mcs, minimal_hitting_sets(mcs.mcses, cap)
