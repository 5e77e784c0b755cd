"""Scaled differential tests: instances several times the size of the
property suites' (at most 6 atoms and 8 clauses), each verdict checked on
its own: a sat model against every clause, an unsat verdict through the
lemma-store facts and two verified cores.

- difference constraints: 6 reals, 24 binary clauses, about half unsat;
- difference constraints at 12/60 and 24/120, each core verified from a
  refutation, and at 12/60 minimized and checked one-deletion minimal
  (minimizing at 24/120 takes seconds to half a minute an instance);
- the minimized cores of four methods on the 5-10x corpus of difference
  logic 12/60, random UF 10/60 and diamond chains 8/30, pinned by one
  digest;
- EUF: 8 to 15 constants and their images under one unary function,
  five clauses of at most two literals per constant, three of the eight
  unsat;
- pure diamond chains of 8, 10 and 12 diamonds, whose refutation took
  one theory conflict per path through the chain (5,027 conflicts at 12)
  before EUF conflicts were stated as chains of lemmas over atoms the
  engine defines; now at most ten per diamond;
- pigeonhole 7/6 among satisfiable noise clauses, whose refutation takes
  close to a thousand conflicts and backjumps over many levels;
- the 15,288 minimal hitting sets of the 300 MCSes of an EUF instance
  with 40 clauses."""
import hashlib
import random

import pytest

from gen import diamond_chain_formula, pigeonhole_cnf, random_difference_formula, random_uf_formula
from smtcore.check import check_proof, proof_leaves
from smtcore.cores import check_core, extract_core
from smtcore.mus import enumerate_mcs, minimal_hitting_sets
from smtcore.sat import SatSolver, assumption_core, sat_solve
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
    _check_facts(formula, verdict, store)


@pytest.mark.parametrize("shape, seed, minimize",
                         [((12, 60, 2), seed, True) for seed in (0, 3, 7)]
                         + [((24, 120, 2), seed, False) for seed in range(4)]
                         + [((24, 120, 3), seed, False) for seed in range(2)])
def test_difference_constraints_at_scale(shape, seed, minimize):
    formula = random_difference_formula(random.Random(seed), *shape)
    verdict, store = smt_solve(formula)
    unsat = verdict.status == "unsat"
    assert lemma_store_violations(formula, store, unsat=unsat) == []
    if not unsat:
        assert all(evaluate_clause(c, formula.atoms, verdict) for c in formula.clauses)
        return
    for method in ("lift-proof", "smt-selectors"):
        core = extract_core(formula, method, minimize=minimize, verify=True).core
        for i in core if minimize else ():
            rest = [j for j in core if j != i]
            assert smt_solve(formula.restrict(rest))[0].status == "sat", (method, i)


@pytest.mark.parametrize("seed", range(8))
def test_uninterpreted_functions(seed):
    n_consts = 8 + seed
    formula = random_uf_formula(random.Random(seed), n_consts=n_consts,
                                n_clauses=5 * n_consts, width=2)
    verdict, store = smt_solve(formula)
    _check_facts(formula, verdict, store)


@pytest.mark.parametrize("n", [8, 10, 12])
def test_diamond_chains(n):
    formula = diamond_chain_formula(random.Random(n), n, 0)
    engine = SmtSolver(formula)
    assert engine.solve().status == "unsat"
    assert engine.sat.conflicts <= 10 * n
    assert any(lemma.defs for lemma in engine.store)
    assert lemma_store_violations(formula, engine.store, unsat=True) == []
    report = extract_core(formula, "lift-proof", verify=True)
    # every diamond and the closing disequality
    assert report.assertions == tuple(range(n + 1))


def test_pigeonhole_cores():
    clauses, php = pigeonhole_cnf(random.Random(0), holes=6, noise_vars=16,
                                  noise_clauses=40)
    verdict = sat_solve(clauses, log_proof=True)
    assert verdict.status == "unsat"
    assert check_proof(verdict.proof, clauses) is None
    assert {leaf[1] for leaf in proof_leaves(verdict.proof)} == php
    solver = SatSolver()
    selectors = solver.guard(clauses)
    verdict = solver.solve(selectors)
    assert verdict.status == "unsat-assumptions"
    assert set(assumption_core(verdict, selectors)) == php


def test_all_minimal_hitting_sets_at_scale():
    mcses = enumerate_mcs(random_uf_formula(random.Random(4), 8, 40, 2)).mcses
    result = minimal_hitting_sets(mcses, cap=20_000)
    assert result.complete and len(result.muses) == 15_288
    assert len(set(result.muses)) == len(result.muses)
    masks = [sum(1 << c for c in mcs) for mcs in mcses]
    for mus in result.muses:
        bits = sum(1 << c for c in mus)
        hit = [bits & m for m in masks]
        assert all(hit)
        # minimal: every clause alone hits some MCS, so none can go
        assert sum({h for h in hit if h & (h - 1) == 0}) == bits
    assert minimal_hitting_sets(mcses[::-1], cap=20_000).muses == result.muses


# methods that extract in-process; lift-external starts a process each time
MINIMIZED_METHODS = ("lift-proof", "lift-selectors", "smt-proof", "smt-selectors")
MINIMIZED_DIGEST = "735a2d428a91338fb239159d6009de32994b6dacbbc419fd546e9b4f9df8422e"


def minimized_corpus():
    """Difference logic 12/60 width 2 and random UF 10/60, seeds 0-11 each,
    and diamond chains of 8 diamonds among 30 noise clauses, seeds 0-5."""
    return ([random_difference_formula(random.Random(s), 12, 60, 2) for s in range(12)]
            + [random_uf_formula(random.Random(s), 10, 60, 2) for s in range(12)]
            + [diamond_chain_formula(random.Random(s), 8, 30) for s in range(6)])


def minimized_digest() -> str:
    """SHA-256 over each method's verdict and verified minimized core."""
    h = hashlib.sha256()
    for formula in minimized_corpus():
        for method in MINIMIZED_METHODS:
            report = extract_core(formula, method, minimize=True, verify=True)
            h.update(f"{method} {report.verdict} {report.core}\n".encode())
    return h.hexdigest()


def test_minimized_cores_are_pinned():
    """`extract_core(minimize=True)` minimizes on an engine seeded with the
    route's lemma store, and its lemmas feed the verifying refutation; a
    deletion minimization's core depends only on its trials' verdicts, so
    a change to the search inside minimization keeps this digest.  It was
    computed on the minimization that fixed each selector outside the
    working set false with a unit clause; recompute it with

        PYTHONPATH=src:tests python -c "import test_scaled as t; print(t.minimized_digest())"
    """
    assert minimized_digest() == MINIMIZED_DIGEST
