"""The lifted routes on formulas with no theory atoms.

A propositional formula (`LOGIC_PROP`) can store no theory lemma, so the
Boolean extractor's input is exactly the formula's clauses, and its own
search decides satisfiability: the internal lift routes build no SMT
engine for such a formula.  The digests pin what `extract_core` reports
for `lift-proof` (plain, with the fixpoint and minimized) and for
`lift-selectors` on seeded pigeonhole formulas among satisfiable noise
and on satisfiable random CNFs.  They were computed while every lift
route still ran an SMT search before extracting; a mismatch means a core,
a verdict or an assertion view changed.  A change to `tests/gen.py`
changes the corpus rather than the routes: recompute the digests then, on
the commit before it, with

    PYTHONPATH=src:tests python -c "import test_prop_lift as t; \\
        print({name: t.digest(t.corpus(name)) for name in t.CORPORA})"

The counting tests pin the number of searches: a `LOGIC_PROP` formula
builds no `SmtSolver` on `lift-proof` or `lift-selectors`, and plain
`lift-proof` runs one CDCL search, while `lift-external` and every formula
with theory atoms still run their SMT search.
"""
import hashlib
import random

import pytest

from gen import (
    diamond_chain_formula, pigeonhole_cnf, prop_formula, random_cnf, random_difference_formula,
)
from smtcore.cores import extract_core
from smtcore.sat import SatSolver, sat_solve
from smtcore.smt import SmtSolver
from smtcore.terms import LOGIC_PROP

RUNS = [
    ("lift-proof", {}),
    ("lift-proof", {"fixpoint": True}),
    ("lift-proof", {"minimize": True}),
    ("lift-selectors", {}),
]


def outcome(formula) -> str:
    """Verdict, core and assertion view of each run in RUNS, as one string."""
    lines = []
    for method, options in RUNS:
        report = extract_core(formula, method, verify=True, **options)
        lines.append(f"{method} {sorted(options)} {report.verdict} {report.core} "
                     f"{report.assertions}")
    return "\n".join(lines) + "\n"


def digest(formulas) -> str:
    h = hashlib.sha256()
    for formula in formulas:
        h.update(hashlib.sha256(outcome(formula).encode()).digest())
    return h.hexdigest()


def _php(seed, holes):
    clauses, _ = pigeonhole_cnf(random.Random(seed), holes=holes, noise_vars=8,
                                noise_clauses=12)
    return prop_formula(clauses)


def _satisfiable_cnfs(count):
    found, seed = [], 0
    while len(found) < count:
        clauses, _ = random_cnf(random.Random(seed), max_vars=10)
        tautology = any(-lit in cl for cl in clauses for lit in cl)
        if not tautology and len(clauses) >= 8 and sat_solve(clauses).status == "sat":
            found.append(prop_formula(clauses))
        seed += 1
    return found


CORPORA = {
    # pigeonhole 3/2 to 5/4 among satisfiable 3-literal noise
    "php": lambda: [_php(seed, holes) for holes in (2, 3, 4) for seed in range(4)],
    # the first satisfiable random CNFs of at least eight clauses over at
    # most ten variables
    "sat": lambda: _satisfiable_cnfs(6),
}


def corpus(name):
    return CORPORA[name]()


DIGESTS = {
    "php": "6273aca5159a20ff12b57bef5763178ef1d57e923c9293a98b9072744d1c6efd",
    "sat": "bf50f4fbd58cead6c438ba35dd98d4ec309e7cb62eecf7fa70d7b895899cf7c0",
}


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_reports_are_unchanged(name):
    formulas = corpus(name)
    assert all(formula.logic == LOGIC_PROP for formula in formulas)
    assert digest(formulas) == DIGESTS[name]


@pytest.fixture()
def counts(monkeypatch):
    """How often an SmtSolver is built and SatSolver.solve is called."""
    seen = {"smt": 0, "solve": 0}
    init, solve = SmtSolver.__init__, SatSolver.solve

    def counted_init(self, *args, **kwargs):
        seen["smt"] += 1
        init(self, *args, **kwargs)

    def counted_solve(self, *args, **kwargs):
        seen["solve"] += 1
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(SmtSolver, "__init__", counted_init)
    monkeypatch.setattr(SatSolver, "solve", counted_solve)
    return seen


class TestOneSearch:
    @pytest.mark.parametrize("formula", [_php(0, 3), _satisfiable_cnfs(1)[0]],
                             ids=["unsat", "sat"])
    def test_lift_proof_runs_one_cdcl_search(self, counts, formula):
        extract_core(formula, "lift-proof", verify=True)
        assert counts == {"smt": 0, "solve": 1}

    @pytest.mark.parametrize("options", [{}, {"fixpoint": True}])
    def test_lift_selectors_builds_no_smt_engine(self, counts, options):
        assert extract_core(_php(0, 3), "lift-selectors", **options).verdict == "unsat"
        assert counts["smt"] == 0

    def test_lift_external_keeps_its_smt_run(self, counts):
        assert extract_core(_php(0, 2), "lift-external").verdict == "unsat"
        assert counts["smt"] == 1

    @pytest.mark.parametrize("method", ["lift-proof", "lift-selectors"])
    @pytest.mark.parametrize("formula", [random_difference_formula(random.Random(0), 6, 24, 2),
                                         diamond_chain_formula(random.Random(3), 3, 6)],
                             ids=["lra", "euf"])
    def test_a_theory_formula_keeps_its_smt_run(self, counts, method, formula):
        assert formula.logic != LOGIC_PROP
        extract_core(formula, method)
        assert counts["smt"] == 1
