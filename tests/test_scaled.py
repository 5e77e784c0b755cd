"""Scaled differential tests: instances several times the size of the
property suites' (at most 6 atoms and 8 clauses), checked across the
solver's pruning and propagation settings.

- difference constraints: 6 reals, 24 binary clauses, about half unsat;
- EUF: 8 to 15 constants and their images under one unary function,
  five clauses of at most two literals per constant, three of the eight
  unsat;
- pigeonhole 7/6 among satisfiable noise clauses, whose refutation takes
  close to a thousand conflicts and backjumps over many levels."""
import random

import pytest

from gen import pigeonhole_cnf, random_difference_formula, random_uf_formula
from smtcore.cores import check_core, extract_core
from smtcore.sat import check_proof, proof_core, sat_solve, solve_with_selectors
from smtcore.smt import SmtSolver, evaluate_clause, lemma_store_violations, smt_solve


def _check_facts(formula, verdict, store):
    unsat = verdict.status == "unsat"
    # every stored lemma is theory-valid; after unsat, inputs plus lemmas
    # are propositionally unsat
    assert lemma_store_violations(formula, store, unsat=unsat) == []
    if not unsat:
        assert all(evaluate_clause(c, formula.atoms, verdict) for c in formula.clauses)
        return
    for method in ("lift-proof", "smt-selectors"):
        report = extract_core(formula, method)
        assert report.verdict == "unsat"
        assert check_core(formula, report.core) is None


@pytest.mark.parametrize("seed", range(8))
def test_difference_constraints(seed):
    formula = random_difference_formula(random.Random(seed), n_reals=6,
                                        n_clauses=24, width=2)
    verdict, store = smt_solve(formula)
    plain = SmtSolver(formula, theory_propagation=False).solve()
    assert verdict.status == plain.status
    _check_facts(formula, verdict, store)


@pytest.mark.parametrize("seed", range(8))
def test_uninterpreted_functions(seed):
    n_consts = 8 + seed
    formula = random_uf_formula(random.Random(seed), n_consts=n_consts,
                                n_clauses=5 * n_consts, width=2)
    verdict, store = smt_solve(formula)
    # propagation only runs under early pruning, so three settings cover it
    for options in ({"theory_propagation": False}, {"early_pruning": False}):
        other = SmtSolver(formula, **options).solve()
        assert other.status == verdict.status
    _check_facts(formula, verdict, store)


def test_pigeonhole_cores():
    clauses, php = pigeonhole_cnf(random.Random(0), holes=6, noise_vars=16,
                                  noise_clauses=40)
    verdict = sat_solve(clauses, log_proof=True)
    assert verdict.status == "unsat"
    assert check_proof(verdict.proof, clauses) is None
    assert proof_core(verdict.proof) == php
    verdict, core = solve_with_selectors(clauses)
    assert verdict.status == "unsat-assumptions"
    assert set(core) == php
