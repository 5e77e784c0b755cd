"""Independent oracles used to cross-check every engine.

These deliberately share no code with the solvers: satisfiability of
linear-arithmetic conjunctions is decided by Fourier-Motzkin elimination
(with case splits on disequalities), LRA theory propagation by a full
recompute from the bounds on every call, EUF conjunctions by a naive
congruence-closure fixpoint over the term universe, propositional formulas
by vectorized truth-table enumeration, and SMT formulas by enumerating all
total truth assignments and filtering through the theory oracle.  The
theory oracle is also the validity oracle (`clause_valid`): a clause is
theory-valid when the negations of its literals are unsatisfiable, which
`theory.validity_check`, the check of stored lemmas and refutation
leaves, must agree with; the contract of a theory conflict's lemmas
(`conflict_lemma_problem`) asks both that each clause be valid.  The
all-MUS oracle, MARCO, decides its subsets with the package's own one-shot
`smt_solve`, but shares nothing with `smtcore.mus`: no selector engine,
no cardinality counter and no hitting sets.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional

import numpy as np

from smtcore.sat import SatSolver
from smtcore.smt import evaluate_clause, smt_solve
from smtcore.terms import EufAtom, Formula, FunApp, LinAtom, Term
from smtcore.theory import validity_check


# ---------------------------------------------------------------------------
# Fourier-Motzkin for conjunctions of linear literals
# ---------------------------------------------------------------------------

def _fm_feasible(rows: list[tuple[dict, Fraction, bool]]) -> bool:
    """rows: (coeffs by var key, offset, strict) meaning sum + offset <(=) 0."""
    rows = [r for r in rows if r[0] or not (r[1] < 0 or (r[1] == 0 and not r[2]))]
    for coeffs, off, strict in rows:
        if not coeffs and (off > 0 or (off == 0 and strict)):
            return False
    rows = [r for r in rows if r[0]]
    if not rows:
        return True
    var = next(iter(sorted({v for r in rows for v in r[0]})))
    uppers, lowers, rest = [], [], []
    for coeffs, off, strict in rows:
        c = coeffs.get(var)
        if c is None:
            rest.append((coeffs, off, strict))
        elif c > 0:
            uppers.append((coeffs, off, strict, c))
        else:
            lowers.append((coeffs, off, strict, c))
    for uc, uo, us, cu in uppers:
        for lc, lo, ls, cl in lowers:
            # cu*v + ur <= 0 and cl*v + lr <= 0 with cl < 0:
            # combine with weights -cl and cu (both positive)
            coeffs = {}
            for k, c in uc.items():
                if k != var:
                    coeffs[k] = coeffs.get(k, Fraction(0)) + (-cl) * c
            for k, c in lc.items():
                if k != var:
                    coeffs[k] = coeffs.get(k, Fraction(0)) + cu * c
            coeffs = {k: c for k, c in coeffs.items() if c != 0}
            off = (-cl) * uo + cu * lo
            rest.append((coeffs, off, us or ls))
    return _fm_feasible(rest)


def lra_literals_sat(literals: list[tuple[LinAtom, bool]]) -> bool:
    """Exact satisfiability over the rationals of a literal conjunction."""
    ineqs: list[tuple[dict, Fraction, bool]] = []
    diseqs: list[tuple[dict, Fraction]] = []
    for atom, positive in literals:
        coeffs = {v.index: c for v, c in atom.coeffs}
        off = atom.offset
        if atom.rel == "<=":
            if positive:
                ineqs.append((coeffs, off, False))
            else:  # sum + off > 0
                ineqs.append(({k: -c for k, c in coeffs.items()}, -off, True))
        elif atom.rel == "<":
            if positive:
                ineqs.append((coeffs, off, True))
            else:
                ineqs.append(({k: -c for k, c in coeffs.items()}, -off, False))
        else:  # "="
            if positive:
                ineqs.append((dict(coeffs), off, False))
                ineqs.append(({k: -c for k, c in coeffs.items()}, -off, False))
            else:
                diseqs.append((coeffs, off))

    def solve(ineqs, diseqs) -> bool:
        if not diseqs:
            return _fm_feasible(list(ineqs))
        coeffs, off = diseqs[0]
        rest = diseqs[1:]
        less = ineqs + [(dict(coeffs), off, True)]
        more = ineqs + [({k: -c for k, c in coeffs.items()}, -off, True)]
        return solve(less, rest) or solve(more, rest)

    return solve(ineqs, diseqs)


# ---------------------------------------------------------------------------
# Reference LRA theory propagation: a full recompute from the bounds
# ---------------------------------------------------------------------------

def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _improves(value, current, is_lower: bool) -> bool:
    return current is None or (value > current[0] if is_lower else value < current[0])


def reference_lra_deductions(solver) -> list[tuple[int, ...]]:
    """The lemma clauses `LraSolver.deductions` must return, recomputed
    from scratch out of the solver's atom table, asserted atoms, slacks
    and bounds: unate propagation over base forms, each bounded by its one
    slack, then one round of interval propagation.  Ties keep the slack's
    own bound, then the first rule in rule order.  Each clause is the
    deduction's explanation negated, then its literal."""
    bases: dict[tuple, int] = {}
    constants, tests = [], []
    for atom_id, atom in solver.table.items():
        if not isinstance(atom, LinAtom):
            continue
        if not atom.coeffs:
            holds = {"<=": atom.offset <= 0, "<": atom.offset < 0, "=": atom.offset == 0}
            constants.append(atom_id if holds[atom.rel] else -atom_id)
            continue
        lam = gcd(*(c for _, c in atom.coeffs))
        if atom.coeffs[0][1] < 0:
            lam = -lam
        form = tuple((v.index, c // lam) for v, c in atom.coeffs)
        bid = bases.setdefault(form, len(bases))
        k = Fraction(-atom.offset, lam)
        strict = int(atom.rel == "<")
        if atom.rel == "=":
            least = most = (k, 0)
        elif lam > 0:
            least, most = None, (k, -strict)
        else:
            least, most = (k, strict), None
        tests.append((atom_id, bid, least, most))
    single = {form[0][0]: bid for form, bid in bases.items() if len(form) == 1}
    rules = []
    for form, bid in bases.items():
        if len(form) < 2:
            continue
        if all(v in single for v, _ in form):
            rules.append((bid, tuple((single[v], c) for v, c in form)))
        if len(form) == 2:
            for (vi, ci), (vj, cj) in ((form[0], form[1]), (form[1], form[0])):
                if vi in single and vj in single:
                    rules.append((single[vj], ((bid, Fraction(1, cj)),
                                               (single[vi], Fraction(-ci, cj)))))
    lo: dict[int, tuple] = {}
    hi: dict[int, tuple] = {}
    for form, bid in bases.items():
        sid = solver.slack_of.get(form)
        for bound, side in ((solver.lower.get(sid), lo), (solver.upper.get(sid), hi)):
            if bound is not None:
                side[bid] = (bound[0], (bound[1],))
    derived = ({}, {})
    for target, terms in rules:
        for is_lower, out in ((True, derived[0]), (False, derived[1])):
            real = delta = 0
            expl: list[int] = []
            for src, coeff in terms:
                entry = (lo if (coeff > 0) == is_lower else hi).get(src)
                if entry is None:
                    break
                real += entry[0][0] * coeff
                delta += entry[0][1] * coeff
                expl.extend(entry[1])
            else:
                value = (real, _sign(delta))
                if _improves(value, out.get(target), is_lower):
                    out[target] = (value, tuple(dict.fromkeys(expl)))
    for out, side, is_lower in ((derived[0], lo, True), (derived[1], hi, False)):
        for bid, (value, expl) in out.items():
            if _improves(value, side.get(bid), is_lower):
                side[bid] = (value, expl)
    asserted = {abs(lit) for lit in solver._asserted}
    found = [(lit, ()) for lit in constants if abs(lit) not in asserted]
    for atom_id, bid, least, most in tests:
        if atom_id in asserted:
            continue
        low, up = lo.get(bid), hi.get(bid)
        low_in = least is None or (low is not None and low[0] >= least)
        up_in = most is None or (up is not None and up[0] <= most)
        if low_in and up_in:
            expl = (low[1] if least is not None else ()) + (up[1] if most is not None else ())
            found.append((atom_id, tuple(dict.fromkeys(expl))))
        elif low is not None and most is not None and low[0] > most:
            found.append((-atom_id, low[1]))
        elif up is not None and least is not None and up[0] < least:
            found.append((-atom_id, up[1]))
    return [tuple(-e for e in expl) + (lit,) for lit, expl in found]


# ---------------------------------------------------------------------------
# Naive congruence closure for conjunctions of EUF literals
# ---------------------------------------------------------------------------

def _subterms(t: Term, out: set):
    out.add(t)
    if isinstance(t, FunApp):
        for a in t.args:
            _subterms(a, out)


def euf_literals_sat(literals: list[tuple[EufAtom, bool]]) -> bool:
    universe: set[Term] = set()
    for atom, _pos in literals:
        _subterms(atom.lhs, universe)
        _subterms(atom.rhs, universe)
    terms = sorted(universe, key=repr)
    index = {t: i for i, t in enumerate(terms)}
    parent = list(range(len(terms)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            return True
        return False

    for atom, pos in literals:
        if pos:
            union(index[atom.lhs], index[atom.rhs])
    changed = True
    while changed:
        changed = False
        apps = [t for t in terms if isinstance(t, FunApp)]
        for i, s in enumerate(apps):
            for t in apps[i + 1:]:
                if s.fn != t.fn:
                    continue
                if find(index[s]) == find(index[t]):
                    continue
                if all(find(index[a]) == find(index[b])
                       for a, b in zip(s.args, t.args)):
                    union(index[s], index[t])
                    changed = True
    for atom, pos in literals:
        if not pos and find(index[atom.lhs]) == find(index[atom.rhs]):
            return False
    return True


# ---------------------------------------------------------------------------
# Propositional truth tables (vectorized)
# ---------------------------------------------------------------------------

def _satisfies(assignments: np.ndarray, clause: list[int]) -> np.ndarray:
    """Which of `assignments` (variable v is bit v-1) satisfy `clause`."""
    sat_here = np.zeros(assignments.shape, dtype=bool)
    for lit in clause:
        bit = (assignments >> (abs(lit) - 1)) & 1
        sat_here |= (bit == 1) if lit > 0 else (bit == 0)
    return sat_here


def cnf_truth_table_sat(clauses: list[list[int]], nvars: int) -> bool:
    """Exhaustive enumeration of all 2^nvars assignments."""
    if any(len(c) == 0 for c in clauses):
        return False
    if nvars == 0:
        return True
    assignments = np.arange(1 << nvars, dtype=np.uint32)
    ok = np.ones(assignments.shape, dtype=bool)
    for cl in clauses:
        ok &= _satisfies(assignments, cl)
        if not ok.any():
            return False
    return bool(ok.any())


def cnf_models(clauses: list[list[int]], nvars: int) -> np.ndarray:
    """Every one of the 2^nvars assignments that satisfies all of
    `clauses`, as a bit pattern: variable v is bit v-1."""
    assignments = np.arange(1 << nvars, dtype=np.uint32)
    ok = np.ones(assignments.shape, dtype=bool)
    for cl in clauses:
        ok &= _satisfies(assignments, cl)
    return assignments[ok]


# ---------------------------------------------------------------------------
# Brute-force SMT: assignment enumeration + theory filtering
# ---------------------------------------------------------------------------

def theory_literals_sat(literals: list[tuple[object, bool]]) -> bool:
    lin = [(a, p) for a, p in literals if isinstance(a, LinAtom)]
    euf = [(a, p) for a, p in literals if isinstance(a, EufAtom)]
    assert not (lin and euf), "mixed-theory conjunction"
    if lin:
        return lra_literals_sat(lin)
    if euf:
        return euf_literals_sat(euf)
    return True


def clause_valid(clause, atom_of) -> bool:
    """Whether a clause of signed variables, `atom_of(var)` the atom of
    each, is a tautology or its negated theory literals are unsatisfiable;
    propositional literals count for nothing."""
    return any(-lit in clause for lit in clause) or not theory_literals_sat(
        [(atom_of(abs(lit)), lit < 0) for lit in clause])


def conflict_lemma_problem(solver, logic: str, clauses) -> Optional[str]:
    """What breaks, in the clauses `solver.conflict_clauses` just gave, the
    contract `SmtSolver._conflict_lemma` relies on, or None when nothing
    does.  Each clause is theory-valid, both by `validity_check` under the
    solver's definitions and by `clause_valid`.  Under the asserted
    literals and the clauses before it, each clause has at most one
    literal that is not false, up to the first that has none, where the
    engine stops.  There must be one.  It is the last, unless an EUF chain
    passes an equality that a second violated disequality negates."""
    check = validity_check(logic, solver.table).under(solver.defined.items())
    true = set(solver._asserted)
    false_at = None
    for i, clause in enumerate(clauses):
        if not (check.known(clause) and check.valid(frozenset(clause))):
            return f"clause {i} {clause} is not theory-valid"
        if not clause_valid(clause, check.atom):
            return f"clause {i} {clause} is not valid by the oracle"
        if false_at is not None:
            continue
        open_lits = [lit for lit in clause if -lit not in true]
        if len(open_lits) > 1:
            return f"clause {i} {clause} has {len(open_lits)} literals that are not false"
        if not open_lits:
            false_at = i
        true.update(open_lits)
    if false_at is None:
        return "no clause is false"
    return None


def brute_force_smt_sat(formula: Formula) -> bool:
    """Satisfiable iff some total assignment to the formula's atoms both
    propositionally satisfies every clause and refines to a theory-consistent
    literal set."""
    atom_ids = sorted({abs(l) for c in formula.clauses for l in c})
    clauses = formula.clauses
    if any(len(c) == 0 for c in clauses):
        return False
    n = len(atom_ids)
    pos = {a: i for i, a in enumerate(atom_ids)}
    for mask in range(1 << n):
        assignment = {a: bool((mask >> pos[a]) & 1) for a in atom_ids}
        if not all(any(assignment[abs(l)] == (l > 0) for l in cl) for cl in clauses):
            continue
        literals = []
        theory = True
        for a in atom_ids:
            atom = formula.atoms.atom(a)
            if isinstance(atom, (LinAtom, EufAtom)):
                literals.append((atom, assignment[a]))
        if theory_literals_sat(literals):
            return True
    return False


# ---------------------------------------------------------------------------
# MARCO: all MUSes by exploring the power set of the clauses
# ---------------------------------------------------------------------------

def marco_muses(formula: Formula) -> set[frozenset[int]]:
    """Every minimal unsatisfiable subset of the formula's clauses, after
    Liffiton, Previti, Malik & Marques-Silva, "Fast, flexible MUS
    enumeration" (Constraints 2016).  A SAT map over one variable per
    clause (variable i + 1 true: clause i is left out) holds the subsets
    not yet explored; the solver's default phase leaves a clause in, so
    a seed is large.  A satisfiable seed is grown to a maximal satisfiable
    subset and its subsets are blocked; an unsatisfiable one is shrunk to a
    MUS by deletion and its supersets are blocked.

    A subset check is a fresh `smt_solve`, except where the answer is
    known: a subset holding a MUS found so far is unsatisfiable, and one
    whose clauses the model of an earlier satisfiable check all satisfies
    is satisfiable.  A satisfiable check takes in every clause its model
    satisfies, so growing needs one solve per clause that model misses."""
    n = len(formula.clauses)
    blocks: list[tuple[int, ...]] = []
    muses: set[frozenset[int]] = set()
    modelled: list[frozenset[int]] = []  # the clauses each model satisfies

    def satisfied(subset: set[int]):
        """A set of clauses holding `subset` that one model satisfies, or
        None when `subset` is unsatisfiable."""
        if any(mus <= subset for mus in muses):
            return None
        known = next((known for known in modelled if subset <= known), None)
        if known is not None:
            return known
        verdict, _ = smt_solve(formula.restrict(sorted(subset)))
        if verdict.status != "sat":
            return None
        known = frozenset(i for i, clause in enumerate(formula.clauses)
                          if evaluate_clause(clause, formula.atoms, verdict))
        assert subset <= known, "a model of the subset falsifies one of its clauses"
        modelled.append(known)
        return known

    while True:
        explored = SatSolver()
        explored.ensure_vars(n)
        for block in blocks:
            explored.add_clause(block)
        verdict = explored.solve()
        if verdict.status != "sat":
            return muses
        seed = {i for i in range(n) if not verdict.model[i + 1]}
        known = satisfied(seed)
        if known is not None:
            seed = set(known)
            for i in range(n):
                if i not in seed and (known := satisfied(seed | {i})) is not None:
                    seed = set(known)
            blocks.append(tuple(-(i + 1) for i in range(n) if i not in seed))
        else:
            for i in sorted(seed):
                if satisfied(seed - {i}) is None:
                    seed.discard(i)
            muses.add(frozenset(seed))
            blocks.append(tuple(i + 1 for i in sorted(seed)))


# ---------------------------------------------------------------------------
# The shape of converted clauses
# ---------------------------------------------------------------------------

def unnormalized_clauses(formula: Formula) -> list[tuple]:
    """The clauses of `formula` that are not tuples of distinct literals over
    its atom table, without a literal beside its complement: what
    `cnf_convert` must never emit, since it builds its Formula without
    normalizing the clauses again."""
    size = len(formula.atoms)
    return [clause for clause in formula.clauses
            if type(clause) is not tuple or len(set(clause)) != len(clause)
            or any(not 1 <= abs(lit) <= size or -lit in clause for lit in clause)]
