"""Two-phase enumeration of minimal unsatisfiable cores.

Phase one enumerates every minimal correction subset (MCS) on one
incremental selector engine, after Liffiton & Sakallah, "Algorithms for
computing minimal unsatisfiable subsets of constraints" (JAR 2008):
selector variables guard the clauses, and for growing sizes k we
enumerate theory-consistent models whose false selectors form a
correction set, adding a clause that blocks each one found.  The
selectors, the at-most-k counters' registers and their activation
variables all come from `SmtSolver.new_var`, so none of them is an atom.
Phase two computes all minimal unsatisfiable cores as the minimal hitting
sets of the MCS set.  Both sets can be exponentially large, so hard caps
guard each phase and flag incomplete results loudly.  A conflict budget
bounds each solve of phase one; one that runs out ends the enumeration,
flagged incomplete the same way.  A hitting set of an incomplete MCS list
need not be unsatisfiable, so phase two runs only on a complete one.
"""
from __future__ import annotations

from dataclasses import dataclass
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


def _sequential_counter_atmost(lits: list[int], k: int,
                               new_var: Callable[[], int]) -> list[tuple[int, ...]]:
    """Sinz sequential-counter encoding of at-most-k over `lits` (signed
    variables); each auxiliary register is a fresh variable from
    `new_var`, made on first use."""
    n = len(lits)
    if k >= n:
        return []
    if k == 0:
        return [(-l,) for l in lits]
    reg = {}

    def r(i: int, j: int) -> int:
        key = (i, j)
        if key not in reg:
            reg[key] = new_var()
        return reg[key]

    out: list[tuple[int, ...]] = []
    out.append((-lits[0], r(0, 0)))
    for j in range(1, k):
        out.append((-r(0, j),))
    for i in range(1, n - 1):
        out.append((-lits[i], r(i, 0)))
        out.append((-r(i - 1, 0), r(i, 0)))
        for j in range(1, k):
            out.append((-lits[i], -r(i - 1, j - 1), r(i, j)))
            out.append((-r(i - 1, j), r(i, j)))
        out.append((-lits[i], -r(i - 1, k - 1)))
    out.append((-lits[n - 1], -r(n - 2, k - 1)))
    return out


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
    selectors, new_var, add = engine.selectors, engine.solver.new_var, engine.solver.add_clause
    found: list[frozenset[int]] = []
    for k in range(1, n + 1):
        # the at-most-k counter binds only while its activation variable is
        # assumed; the unit clause after the k loop retires it for good
        act = new_var()
        for clause in _sequential_counter_atmost([-s for s in selectors], k, new_var):
            add((-act,) + clause)
        while True:
            verdict = engine.solve((), act)
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
        add((-act,))
        status = engine.solve(()).status
        if status != "sat":
            return McsSet(found, complete=status != "unknown")
    return McsSet(found, complete=True)


def minimal_hitting_sets(mcses: Iterable[frozenset[int]],
                         cap: int = DEFAULT_CAP) -> MusSet:
    """All minimal hitting sets via branch and bound: branch on the elements
    of the smallest unhit set, prune supersets of found hitting sets, and
    filter to minimality at the end."""
    sets = [frozenset(m) for m in mcses]
    results: list[frozenset[int]] = []
    seen: set[frozenset[int]] = set()
    capped = False

    def rec(chosen: frozenset[int], remaining: list[frozenset[int]]):
        nonlocal capped
        if capped:
            return
        unhit = [s for s in remaining if not (s & chosen)]
        if not unhit:
            if chosen not in seen:
                seen.add(chosen)
                results.append(chosen)
                if len(results) >= cap:
                    capped = True
            return
        if any(h <= chosen for h in results):
            return
        pivot = min(unhit, key=lambda s: (len(s), sorted(s)))
        for e in sorted(pivot):
            rec(chosen | {e}, unhit)

    rec(frozenset(), sets)
    minimal = [r for r in results if not any(o < r for o in results)]
    minimal.sort(key=sorted)
    return MusSet(minimal, complete=not capped)


def all_minimal_cores(formula: Formula, cap: int = DEFAULT_CAP,
                      budget: Optional[int] = None) -> tuple[McsSet, MusSet]:
    """The MCSes and MUSes of `formula`.  When the MCS list is incomplete
    (capped, or out of budget) no MUS is listed: a minimal hitting set of
    part of the MCSes need not be a core."""
    mcs = enumerate_mcs(formula, cap, budget)
    if not mcs.complete:
        return mcs, MusSet([], complete=False)
    return mcs, minimal_hitting_sets(mcs.mcses, cap)
