"""Seeded random instance generators shared by the property suites."""
from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from smtcore.cnf import cnf_convert
from smtcore.parser import parse
from smtcore.terms import (
    REAL, AtomTable, Declarations, Formula, FunApp, FunSymbol, LinComb, PropAtom, Var,
    canonical_lin_atom, euf_atom, infer_logic,
)


def formula_from_clauses(clauses: list[tuple[int, ...]], atoms: AtomTable,
                         declarations: Optional[Declarations] = None,
                         logic: Optional[str] = None) -> Formula:
    """Build a Formula from bare clauses of signed atom ids (assertion id ==
    clause index); the logic is inferred from the atoms when not given."""
    if logic is None:
        logic = infer_logic(clauses, atoms)
    return Formula(clauses, atoms, declarations, logic, list(range(len(clauses))))


def prop_formula(clauses) -> Formula:
    """A propositional formula over atoms p1, p2, ... from int clauses."""
    table = AtomTable()
    nvars = max(abs(lit) for cl in clauses for lit in cl)
    ids = [None] + [table.intern(PropAtom(f"p{v}")) for v in range(1, nvars + 1)]
    return formula_from_clauses([tuple(ids[l] if l > 0 else -ids[-l] for l in cl)
                                 for cl in clauses], table)


def lin_comb(coeffs: dict, offset) -> LinComb:
    """The `LinComb` of {variable: coefficient} plus `offset`: its terms
    sorted by declaration index, with no zero coefficient."""
    return LinComb(tuple(sorted(((v, c) for v, c in coeffs.items() if c != 0),
                                key=lambda it: it[0].index)), offset)


LRA_VARS = [Var("x", REAL, 0), Var("y", REAL, 1), Var("z", REAL, 2)]

_U = "U"
_EUF_CONSTS = [Var("a", _U, 0), Var("b", _U, 1), Var("c", _U, 2), Var("d", _U, 3)]
_F = FunSymbol("f", (_U,), _U)
_G = FunSymbol("g", (_U, _U), _U)


def _euf_terms():
    a, b, c, d = _EUF_CONSTS
    return [a, b, c, d,
            FunApp(_F, (a,)), FunApp(_F, (b,)), FunApp(_F, (c,)),
            FunApp(_F, (FunApp(_F, (a,)),)), FunApp(_G, (a, b))]


def random_lra_atoms(rng: random.Random, n_atoms: int, n_vars: int = 3):
    vars_ = LRA_VARS[:n_vars]
    atoms = []
    seen = set()
    while len(atoms) < n_atoms:
        width = rng.randint(1, 2)
        picked = rng.sample(vars_, min(width, len(vars_)))
        coeffs = {}
        for v in picked:
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            coeffs[v] = Fraction(c)
        offset = Fraction(rng.randint(-4, 4))
        rel = rng.choice(["<=", "<", "="])
        atom = canonical_lin_atom(lin_comb(coeffs, offset), rel)
        if atom not in seen:
            seen.add(atom)
            atoms.append(atom)
    return atoms


def random_euf_atoms(rng: random.Random, n_atoms: int):
    pool = _euf_terms()
    atoms = []
    seen = set()
    guard = 0
    while len(atoms) < n_atoms and guard < 200:
        guard += 1
        s, t = rng.sample(pool, 2)
        atom = euf_atom(s, t)
        if atom not in seen:
            seen.add(atom)
            atoms.append(atom)
    return atoms


def random_formula(rng: random.Random, theory: str, max_atoms: int = 6,
                   max_clauses: int = 8, with_prop: bool = True) -> Formula:
    """Random clause set over at most `max_atoms` theory atoms (plus at most
    one propositional atom)."""
    n_atoms = rng.randint(2, max_atoms)
    if theory == "LRA":
        atoms = random_lra_atoms(rng, n_atoms)
    else:
        atoms = random_euf_atoms(rng, n_atoms)
    if with_prop and rng.random() < 0.4:
        atoms.append(PropAtom("P"))
    table = AtomTable()
    ids = [table.intern(a) for a in atoms]
    n_clauses = rng.randint(1, max_clauses)
    clauses = []
    for _ in range(n_clauses):
        width = rng.randint(1, min(3, len(ids)))
        chosen = rng.sample(ids, width)
        clauses.append(tuple(a if rng.random() < 0.5 else -a for a in chosen))
    return formula_from_clauses(clauses, table, None,
                                "LRA" if theory == "LRA" else "EUF")


def random_difference_formula(rng: random.Random, n_reals: int = 6,
                              n_clauses: int = 24, width: int = 3) -> Formula:
    """Random clauses over difference constraints ``x_i - x_j <= c`` or
    ``< c`` between `n_reals` reals, c in [-4, 1], with a bound
    ``+-x_i <= c`` for about one literal in four.  Each clause has
    2..`width` distinct atoms, four in five of them positive."""
    reals = [Var(f"r{i}", REAL, i) for i in range(n_reals)]
    table = AtomTable()
    clauses = []
    for _ in range(n_clauses):
        lits: dict[int, bool] = {}
        for _ in range(rng.randint(2, width)):
            if rng.random() < 0.25:
                coeffs = {rng.choice(reals): Fraction(rng.choice([-1, 1]))}
            else:
                i, j = rng.sample(reals, 2)
                coeffs = {i: Fraction(1), j: Fraction(-1)}
            comb = lin_comb(coeffs, Fraction(-rng.randint(-4, 1)))
            atom_id = table.intern(canonical_lin_atom(comb, rng.choice(["<=", "<"])))
            lits.setdefault(atom_id, rng.random() < 0.8)
        clauses.append(tuple(a if pos else -a for a, pos in lits.items()))
    return formula_from_clauses(clauses, table, None, "LRA")


def random_uf_formula(rng: random.Random, n_consts: int = 10,
                      n_clauses: int = 40, width: int = 2) -> Formula:
    """Random clauses over equalities between `n_consts` constants of one
    sort and their images under one unary function ``h``.  Each clause
    draws 2..`width` term pairs (a pair drawn twice counts once), and each
    literal is positive with probability one half."""
    consts = [Var(f"c{i}", _U, i) for i in range(n_consts)]
    h = FunSymbol("h", (_U,), _U)
    pool = consts + [FunApp(h, (c,)) for c in consts]
    table = AtomTable()
    clauses = []
    for _ in range(n_clauses):
        lits: dict[int, bool] = {}
        for _ in range(rng.randint(2, width)):
            s, t = rng.sample(pool, 2)
            lits.setdefault(table.intern(euf_atom(s, t)), rng.random() < 0.5)
        clauses.append(tuple(a if pos else -a for a, pos in lits.items()))
    return formula_from_clauses(clauses, table, None, "EUF")


def diamond_chain_formula(rng: random.Random, n: int, noise_clauses: int = 0) -> Formula:
    """`n` diamonds ``x_i = y_i = x_(i+1)`` or ``x_i = z_i = x_(i+1)``
    closed by ``f(x_0) != f(x_n)``, so unsat, shuffled among
    `noise_clauses` random clauses of one or two (dis)equalities between
    the ``x_i`` and their images under ``f``."""
    asserts = [f"(or (and (= x{i} y{i}) (= y{i} x{i + 1})) "
               f"(and (= x{i} z{i}) (= z{i} x{i + 1})))" for i in range(n)]
    asserts.append(f"(not (= (f x0) (f x{n})))")
    pool = [f"x{i}" for i in range(n + 1)] + [f"(f x{i})" for i in range(n + 1)]
    pairs = [(s, t) for k, s in enumerate(pool) for t in pool[k + 1:]]
    for _ in range(noise_clauses):
        lits = []
        for s, t in rng.sample(pairs, rng.randint(1, 2)):
            lits.append(f"(= {s} {t})" if rng.random() < 0.5 else f"(not (= {s} {t}))")
        asserts.append(f"(or {' '.join(lits)})")
    rng.shuffle(asserts)
    decls = [f"(declare-fun {c}{i} () U)" for c in "xyz" for i in range(n + 1)]
    text = "\n".join(["(set-logic QF_UF)", "(declare-sort U 0)", "(declare-fun f (U) U)",
                      *decls, *(f"(assert {a})" for a in asserts)])
    return cnf_convert(parse(text))


def random_cnf(rng: random.Random, max_vars: int = 16, min_width: int = 1,
               max_width: int = 3, density: int = 3):
    """Raw random CNF as signed-int clauses (may contain duplicate literals
    and, rarely, tautologies)."""
    nvars = rng.randint(1, max_vars)
    n_clauses = rng.randint(1, max(3, nvars * density))
    clauses = []
    for _ in range(n_clauses):
        width = rng.randint(min_width, max_width)
        cl = [rng.choice([-1, 1]) * rng.randint(1, nvars) for _ in range(width)]
        clauses.append(cl)
    return clauses, nvars


def pigeonhole_cnf(rng: random.Random, holes: int, noise_vars: int,
                   noise_clauses: int) -> tuple[list[list[int]], set[int]]:
    """Pigeonhole CNF with holes + 1 pigeons, shuffled among satisfiable
    3-literal noise clauses over fresh variables (each satisfied by one
    planted assignment).  Returns (clauses, positions of the pigeonhole
    clauses); the pigeonhole clauses are minimally unsatisfiable and the
    noise is satisfiable on its own, so they are the only minimal
    unsatisfiable subset."""
    pigeons = holes + 1

    def p(i, h):
        return i * holes + h + 1

    php = [[p(i, h) for h in range(holes)] for i in range(pigeons)]
    php += [[-p(i, h), -p(j, h)] for h in range(holes)
            for i in range(pigeons) for j in range(i + 1, pigeons)]
    base = pigeons * holes
    planted = [rng.random() < 0.5 for _ in range(noise_vars)]
    noise = []
    for _ in range(noise_clauses):
        picked = rng.sample(range(noise_vars), 3)
        signs = [rng.random() < 0.5 for _ in picked]
        signs[0] = planted[picked[0]]
        noise.append([base + 1 + v if s else -(base + 1 + v) for v, s in zip(picked, signs)])
    tagged = [(cl, True) for cl in php] + [(cl, False) for cl in noise]
    rng.shuffle(tagged)
    return [cl for cl, _ in tagged], {i for i, (_, is_php) in enumerate(tagged) if is_php}


def labeled_corpus(theory: str, want_unsat: int, want_sat: int,
                   oracle, seed: int = 0,
                   max_atoms: int = 6, max_clauses: int = 8):
    """Generate formulas until the requested numbers of oracle-labeled unsat
    and sat instances are collected.  Returns (unsat list, sat list)."""
    unsat, sat = [], []
    seed_i = seed
    while len(unsat) < want_unsat or len(sat) < want_sat:
        rng = random.Random(seed_i)
        seed_i += 1
        formula = random_formula(rng, theory, max_atoms, max_clauses)
        if oracle(formula):
            if len(sat) < want_sat:
                sat.append(formula)
        else:
            if len(unsat) < want_unsat:
                unsat.append(formula)
    return unsat, sat
