"""Scaled differential test: difference-constraint instances four times the
size of the property suites' (6 reals, 24 binary clauses), about half of
them unsat, checked across theory propagation on and off."""
import random

import pytest

from gen import random_difference_formula
from smtcore.cores import check_core, extract_core
from smtcore.smt import evaluate_clause, lemma_store_violations, smt_solve


@pytest.mark.parametrize("seed", range(8))
def test_difference_constraints(seed):
    formula = random_difference_formula(random.Random(seed), n_reals=6,
                                        n_clauses=24, width=2)
    verdict, store = smt_solve(formula)
    plain, _ = smt_solve(formula, theory_propagation=False)
    assert verdict.status == plain.status
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
