import random

import pytest

from gen import labeled_corpus, random_difference_formula, random_formula, random_uf_formula
from oracles import brute_force_smt_sat
from smtcore.cnf import cnf_convert
from smtcore.parser import parse
from smtcore.smt import (
    SelectorEngine, SmtSolver, evaluate_clause, lemma_store_violations, smt_solve,
)
from smtcore.terms import (
    REAL, Clause, LinComb, Literal, PropAtom, Var, canonical_lin_atom, euf_atom,
    formula_from_clauses,
)
from smtcore.theory import is_valid_lemma


def test_nine_clause_instance_unsat_with_facts(nine_clauses):
    verdict, store = smt_solve(nine_clauses)
    assert verdict.status == "unsat"
    assert len(store) > 0
    assert lemma_store_violations(nine_clauses, store, unsat=True) == []


def test_unit_sat_with_witness():
    f = cnf_convert(parse("(declare-fun y () Real)(assert (< y 0))"))
    verdict, _ = smt_solve(f)
    assert verdict.status == "sat"
    assert verdict.theory_model[next(iter(verdict.theory_model))] < 0


def test_gap_instance_zero_lemmas_permissible(abstraction_gap):
    verdict, store = smt_solve(abstraction_gap)
    assert verdict.status == "unsat"
    assert len(store) == 0


def test_contradictory_units_store_the_pairwise_lemma():
    f = cnf_convert(parse(
        "(declare-fun x () Real)(assert (= x 1))(assert (= x 0))"))
    verdict, store = smt_solve(f)
    assert verdict.status == "unsat"
    keys = {frozenset(lem.clause) for lem in store}
    a1 = f.clauses[0].lits[0].atom
    a0 = f.clauses[1].lits[0].atom
    assert frozenset({-a1, -a0}) in keys


def test_stored_lemmas_accessor_order(nine_clauses):
    engine = SmtSolver(nine_clauses)
    engine.solve()
    # lemma i is the i-th ("tlemma", i) clause of the SAT database, whose
    # literals the watch scheme may reorder
    tlemma = [(origin[1], frozenset(engine.sat.clauses[cid]))
              for cid, origin in enumerate(engine.sat.origins) if origin[0] == "tlemma"]
    assert tlemma == [(i, frozenset(lem.clause)) for i, lem in enumerate(engine.store)]
    for lem in engine.store:
        assert is_valid_lemma(lem.clause, nine_clauses.atoms)[0]
        assert lem.kind in ("theory-conflict", "theory-deduction")


def test_budget_returns_unknown_with_partial_store(nine_clauses):
    engine = SmtSolver(nine_clauses, conflict_budget=0)
    verdict = engine.solve()
    assert verdict.status in ("unknown", "unsat")
    # zero budget must not silently claim sat
    assert verdict.status != "sat"


def test_propositional_only_formula():
    f = cnf_convert(parse(
        "(declare-fun p () Bool)(declare-fun q () Bool)"
        "(assert (or p q))(assert (not p))"))
    verdict, store = smt_solve(f)
    assert verdict.status == "sat"
    assert len(store) == 0
    assert verdict.bool_model
    assert all(evaluate_clause(c, f.atoms, verdict) for c in f.clauses)


@pytest.mark.parametrize("theory", ["LRA", "EUF"])
@pytest.mark.parametrize("options", [
    dict(),
    dict(early_pruning=False),
    dict(theory_propagation=False),
    dict(early_pruning=False, theory_propagation=False),
])
def test_verdicts_match_brute_force(theory, options):
    rng = random.Random(99)
    for _ in range(120):
        formula = random_formula(rng, theory)
        expected = brute_force_smt_sat(formula)
        engine = SmtSolver(formula, **options)
        verdict, store = engine.solve(), engine.store
        assert verdict.status == ("sat" if expected else "unsat")
        if verdict.status == "sat":
            assert all(evaluate_clause(c, formula.atoms, verdict)
                       for c in formula.clauses)
        else:
            assert lemma_store_violations(formula, store, unsat=True) == []


@pytest.mark.parametrize("theory", ["LRA", "EUF"])
def test_facts_hold_on_labeled_unsat_corpus(theory):
    unsat, _ = labeled_corpus(theory, want_unsat=60, want_sat=0,
                              oracle=brute_force_smt_sat, seed=1234)
    for formula in unsat:
        verdict, store = smt_solve(formula)
        assert verdict.status == "unsat"
        assert lemma_store_violations(formula, store, unsat=True) == []


@pytest.mark.parametrize("theory", ["LRA", "EUF"])
def test_selector_engine_matches_fresh_solves(theory):
    """Random subset solves on one engine, interleaved with added clauses
    over the formula's atoms and new propositional atoms: every verdict is
    that of a fresh solve of the subset plus the added clauses."""
    rng = random.Random(61)
    for k in range(60):
        formula = random_formula(rng, theory, max_atoms=6, max_clauses=12)
        engine = SelectorEngine(formula)
        n = len(formula.clauses)
        added = []
        for step in range(8):
            if rng.random() < 0.3:
                pool = list(range(1, len(formula.atoms) + 1))
                pool.append(engine.table.intern(PropAtom(f"fresh{step % 3}")))
                lits = tuple(a if rng.random() < 0.5 else -a
                             for a in rng.sample(pool, rng.randint(1, 2)))
                engine.solver.add_clause(lits)
                added.append(tuple(Literal(abs(l), l > 0) for l in lits))
            subset = rng.sample(range(n), rng.randint(n // 2, n))
            verdict = engine.solve(subset)
            fresh, _ = smt_solve(formula_from_clauses(
                [formula.clauses[i].lits for i in sorted(subset)] + added,
                engine.table, None, formula.logic))
            assert (verdict.status == "sat") == (fresh.status == "sat"), (k, step)
            if verdict.status == "sat":
                assert all(evaluate_clause(c, engine.table, verdict)
                           for c in [formula.clauses[i] for i in subset]
                           + [Clause(lits) for lits in added])
            elif verdict.status == "unsat-assumptions":
                blamed = engine.conflict_clauses(verdict)
                assert set(blamed) <= set(subset)
                again, _ = smt_solve(formula_from_clauses(
                    [formula.clauses[i].lits for i in blamed] + added,
                    engine.table, None, formula.logic))
                assert again.status == "unsat"
        if theory == "LRA":
            new_atom = canonical_lin_atom(LinComb.build({Var("fresh", REAL, 90): 1}, 0), "<=")
        else:
            new_atom = euf_atom(Var("fresh_a", "U", 90), Var("fresh_b", "U", 91))
        with pytest.raises(ValueError, match="theory atom"):
            engine.solver.add_clause((engine.table.intern(new_atom),))


def _check_lemma_list(engine, inputs):
    """The lemma list holds no index, so nothing but the search keeps it
    free of repeats: no two stored lemmas share a literal set, none equals
    an input clause (signed atom ids), and the SAT database holds lemma i
    as its i-th ("tlemma", i) clause."""
    keys = [frozenset(lemma.clause) for lemma in engine.store]
    assert len(set(keys)) == len(keys)
    assert not set(keys) & {frozenset(lits) for lits in inputs}
    tlemma = [origin[1] for origin in engine.sat.origins if origin[0] == "tlemma"]
    assert tlemma == list(range(len(engine.store)))


def _lemma_list_formulas(rng, theory):
    """Small random formulas, then larger ones whose searches store
    hundreds of lemmas each."""
    for _ in range(120):
        yield random_formula(rng, theory)
    for _ in range(20):
        if theory == "LRA":
            yield random_difference_formula(rng, 6, 24, 3)
        else:
            yield random_uf_formula(rng, 8, 30, 2)


@pytest.mark.parametrize("theory", ["LRA", "EUF"])
@pytest.mark.parametrize("options", [
    dict(),
    dict(theory_propagation=False),
    dict(early_pruning=False),
])
def test_lemma_list_has_no_repeats(theory, options):
    rng = random.Random(4242)
    stored = 0
    for formula in _lemma_list_formulas(rng, theory):
        engine = SmtSolver(formula, **options)
        engine.solve()
        _check_lemma_list(engine, [formula.atoms.t2p(c) for c in formula.clauses])
        stored += len(engine.store)
    assert stored > 300


@pytest.mark.parametrize("theory", ["LRA", "EUF"])
def test_lemma_list_has_no_repeats_across_subset_solves(theory):
    """One selector engine, many subsets, some clauses retired between
    solves: a lemma of one solve never comes back in a later one."""
    rng = random.Random(4243)
    stored = 0
    for formula in _lemma_list_formulas(rng, theory):
        engine = SelectorEngine(formula)
        n = len(formula.clauses)
        inputs = [engine.table.t2p(c) for c in engine.solver.formula.clauses]
        for _step in range(6):
            if rng.random() < 0.3:
                retired = (-engine.selectors[rng.randrange(n)],)
                engine.solver.add_clause(retired)
                inputs.append(retired)
            engine.solve(rng.sample(range(n), rng.randint(n // 2, n)))
            _check_lemma_list(engine.solver, inputs)
        stored += len(engine.solver.store)
    assert stored > 300
