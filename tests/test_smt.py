import itertools
import random
from collections import Counter
from dataclasses import replace

import pytest

from gen import (
    diamond_chain_formula, formula_from_clauses, labeled_corpus, lin_comb, random_difference_formula,
    random_euf_atoms, random_formula, random_lra_atoms, random_uf_formula,
)
from oracles import brute_force_smt_sat, clause_valid, conflict_lemma_problem
from smtcore.cnf import cnf_convert
from smtcore.cores import METHODS, ExtractorConfig, check_refutation, extract_core
from smtcore.mus import all_minimal_cores
from smtcore.parser import parse
from smtcore.smt import (
    SelectorEngine, SmtSolver, TLemma, evaluate_clause, lemma_store_violations, smt_solve,
)
from smtcore.terms import (
    REAL, AtomTable, EufAtom, PropAtom, Var, atom_theory, canonical_lin_atom, euf_atom,
    term_sort,
)
from smtcore.theory import EufSolver, LraSolver, TheorySolver, solver_for_logic


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
    a1 = f.clauses[0][0]
    a0 = f.clauses[1][0]
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
        assert clause_valid(lem.clause, nine_clauses.atoms.atom)
        assert lem.kind in ("theory-conflict", "theory-deduction")


def test_budget_returns_unknown_with_partial_store(nine_clauses):
    engine = SmtSolver(nine_clauses, conflict_budget=0)
    verdict = engine.solve()
    assert verdict.status in ("unknown", "unsat")
    # zero budget must not silently claim sat
    assert verdict.status != "sat"


def test_a_level_0_conflict_is_never_cut_by_the_budget():
    """A refutation that needs no decision is found under budget 0, by this
    solve and every later one."""
    f = cnf_convert(parse("(declare-fun p () Bool)(assert p)(assert (not p))"))
    engine = SmtSolver(f, conflict_budget=0)
    assert [engine.solve().status for _ in range(3)] == ["unsat"] * 3


def test_propositional_only_formula():
    f = cnf_convert(parse(
        "(declare-fun p () Bool)(declare-fun q () Bool)"
        "(assert (or p q))(assert (not p))"))
    verdict, store = smt_solve(f)
    assert verdict.status == "sat"
    assert len(store) == 0
    assert verdict.model
    assert all(evaluate_clause(c, f.atoms, verdict) for c in f.clauses)


@pytest.mark.parametrize("theory", ["LRA", "EUF"])
def test_verdicts_match_brute_force(theory):
    rng = random.Random(99)
    for _ in range(120):
        formula = random_formula(rng, theory)
        expected = brute_force_smt_sat(formula)
        engine = SmtSolver(formula)
        verdict, store = engine.solve(), engine.store
        assert verdict.status == ("sat" if expected else "unsat")
        if verdict.status == "sat":
            # an engine's verdict carries no theory model; the theory holds one
            verdict.theory_model = engine.theory.witness()
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
    over the formula's atoms and fresh engine variables: every verdict is
    that of a fresh solve of the subset plus the added clauses, over a
    reference table in which each engine variable is a propositional atom
    of the same id."""
    rng = random.Random(61)
    for k in range(60):
        formula = random_formula(rng, theory, max_atoms=6, max_clauses=12)
        engine = SelectorEngine(formula)
        fresh = [engine.solver.new_var() for _ in range(3)]
        reference = AtomTable()
        for _, atom in formula.atoms.items():
            reference.intern(atom)
        while len(reference) < fresh[-1]:
            reference.intern(PropAtom(f"v{len(reference) + 1}"))
        n = len(formula.clauses)
        added = []
        for step in range(8):
            if rng.random() < 0.3:
                pool = list(range(1, len(formula.atoms) + 1)) + [fresh[step % 3]]
                lits = tuple(a if rng.random() < 0.5 else -a
                             for a in rng.sample(pool, rng.randint(1, 2)))
                engine.solver.add_clause(lits)
                added.append(lits)
            subset = rng.sample(range(n), rng.randint(n // 2, n))
            verdict = engine.solve(subset)
            again, _ = smt_solve(formula_from_clauses(
                [formula.clauses[i] for i in sorted(subset)] + added,
                reference, None, formula.logic))
            assert (verdict.status == "sat") == (again.status == "sat"), (k, step)
            if verdict.status == "sat":
                verdict.theory_model = engine.solver.theory.witness()
                assert all(evaluate_clause(c, reference, verdict)
                           for c in [formula.clauses[i] for i in subset]
                           + added)
            elif verdict.status == "unsat-assumptions":
                blamed = engine.conflict_clauses(verdict)
                assert set(blamed) <= set(subset)
                again, _ = smt_solve(formula_from_clauses(
                    [formula.clauses[i] for i in blamed] + added,
                    reference, None, formula.logic))
                assert again.status == "unsat"
        if theory == "LRA":
            new_atom = canonical_lin_atom(lin_comb({Var("fresh", REAL, 90): 1}, 0), "<=")
        else:
            new_atom = euf_atom(Var("fresh_a", "U", 90), Var("fresh_b", "U", 91))
        new_id = formula.atoms.intern(new_atom)
        with pytest.raises(ValueError, match="the atom table grew after the engine was built"):
            engine.solver.add_clause((new_id,))


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
def test_lemma_list_has_no_repeats(theory):
    rng = random.Random(4242)
    stored = 0
    for formula in _lemma_list_formulas(rng, theory):
        engine = SmtSolver(formula)
        engine.solve()
        _check_lemma_list(engine, formula.clauses)
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
        inputs = [(-sel,) + clause for sel, clause in zip(engine.selectors, formula.clauses)]
        for _step in range(6):
            if rng.random() < 0.3:
                retired = (-engine.selectors[rng.randrange(n)],)
                engine.solver.add_clause(retired)
                inputs.append(retired)
            engine.solve(rng.sample(range(n), rng.randint(n // 2, n)))
            _check_lemma_list(engine.solver, inputs)
        stored += len(engine.solver.store)
    assert stored > 300


# (theory, expected verdict) -> a formula with that verdict
MODEL_CONTRACT_FORMULAS = {
    ("LRA", "sat"): lambda: random_difference_formula(random.Random(0), 6, 12, 2),
    ("LRA", "unsat"): lambda: random_difference_formula(random.Random(3), 6, 24, 2),
    ("EUF", "sat"): lambda: random_uf_formula(random.Random(0), 8, 30, 2),
    ("EUF", "unsat"): lambda: random_uf_formula(random.Random(4), 8, 30, 2),
}


@pytest.fixture()
def witness_calls(monkeypatch):
    """The theory models built while the test runs, one entry per
    `witness` call."""
    calls = []
    for cls in (LraSolver, EufSolver):
        def counted(self, original=cls.witness):
            calls.append(type(self).__name__)
            return original(self)
        monkeypatch.setattr(cls, "witness", counted)
    return calls


class TestModelContract:
    """A theory model is built only where one is read: once by
    `smt_solve` on a satisfiable answer, never by core extraction,
    minimization, verification or enumeration."""

    @pytest.mark.parametrize("key", sorted(MODEL_CONTRACT_FORMULAS), ids="-".join)
    def test_extraction_and_enumeration_build_no_model(self, key, witness_calls):
        formula = MODEL_CONTRACT_FORMULAS[key]()
        status = key[1]
        assert extract_core(formula, "lift-proof", minimize=True, verify=True).verdict == status
        assert extract_core(formula, "smt-selectors").verdict == status
        mcs, _ = all_minimal_cores(formula)
        assert mcs.satisfiable is (status == "sat")
        assert witness_calls == []

    @pytest.mark.parametrize("theory", ["LRA", "EUF"])
    def test_smt_solve_builds_one_checkable_model(self, theory, witness_calls):
        formula = MODEL_CONTRACT_FORMULAS[theory, "sat"]()
        verdict, _ = smt_solve(formula)
        assert verdict.status == "sat"
        assert len(witness_calls) == 1
        assert all(evaluate_clause(c, formula.atoms, verdict) for c in formula.clauses)


class TestTheoryGuard:
    """A propagation fixpoint runs `check_full` and `deductions` only when
    a theory literal was asserted or retracted since the last one ran."""

    @staticmethod
    def counted_engine(formula):
        """An engine whose theory records each check_full and deductions
        call, settled at level 0: its fixpoint hook has nothing to add."""
        engine = SmtSolver(formula)
        calls = []
        for name in ("check_full", "deductions"):
            def counted(original=getattr(engine.theory, name), name=name):
                calls.append(name)
                return original()
            setattr(engine.theory, name, counted)
        TestTheoryGuard.settle(engine)
        return engine, calls

    @staticmethod
    def settle(engine):
        # a deduction's literal is enqueued as its clause is added, and
        # asserted by the next fixpoint
        while engine.hook_fixpoint():
            pass

    @staticmethod
    def decide(engine, lit):
        engine.sat.trail_lim.append(len(engine.sat.trail))
        engine.sat._enqueue(lit, None)

    @staticmethod
    def unassigned_theory_atom(engine):
        return next(i for i, atom in engine.table.items()
                    if atom_theory(atom) and engine.sat._vals[i] is None)

    def test_a_fixpoint_with_no_new_theory_literal_skips_the_theory(self, nine_clauses):
        engine, calls = self.counted_engine(nine_clauses)
        calls.clear()
        assert not engine.hook_fixpoint() and not engine.hook_final()
        self.decide(engine, engine.new_var())
        assert not engine.hook_fixpoint() and not engine.hook_final()
        assert calls == []
        self.decide(engine, self.unassigned_theory_atom(engine))
        engine.hook_fixpoint()
        assert calls == ["check_full", "deductions"]

    def test_a_backjump_that_retracts_a_theory_literal_checks_again(self, nine_clauses):
        engine, calls = self.counted_engine(nine_clauses)
        self.decide(engine, self.unassigned_theory_atom(engine))
        self.settle(engine)
        self.decide(engine, engine.new_var())
        calls.clear()
        engine.hook_fixpoint()
        # undoing the propositional decision leaves the asserted set as it was
        engine.sat._backjump(1)
        engine.hook_fixpoint()
        assert calls == []
        engine.sat._backjump(0)
        engine.hook_fixpoint()
        assert calls == ["check_full", "deductions"]

    def test_a_backjump_that_retracts_an_euf_literal_waits_for_a_merge(self):
        # the EUF undo is exact and lands on a state a pass has read, so
        # EUF checks again only after a new merge or separation, even when
        # the retracted literal made a conflict
        formula = cnf_convert(parse(
            "(set-logic QF_UF)(declare-sort U 0)(declare-fun f (U) U)"
            "(declare-fun a () U)(declare-fun b () U)(declare-fun c () U)"
            "(assert (or (= a b) (= b c)))"
            "(assert (or (not (= (f a) (f b))) (= a c)))"))
        iab, ifab = 1, 3                # a = b and f(a) = f(b), in table order
        engine, calls = self.counted_engine(formula)
        assert isinstance(engine.theory, EufSolver) and engine.sat.trail == []
        self.decide(engine, -ifab)      # a separation: a pass
        self.settle(engine)
        assert calls[:2] == ["check_full", "deductions"]
        calls.clear()
        self.decide(engine, iab)        # a merge whose congruence conflicts
        assert engine.hook_fixpoint() and engine.theory.changed
        engine.sat._backjump(1)
        assert engine.theory._asserted == [-ifab] and not engine.theory.changed
        assert not engine.hook_fixpoint() and not engine.hook_final()
        engine.sat._backjump(0)
        assert not engine.hook_fixpoint() and not engine.hook_final()
        assert calls == []
        self.decide(engine, self.unassigned_theory_atom(engine))
        engine.hook_fixpoint()
        assert calls == ["check_full", "deductions"]

    def test_conflict_lemmas_that_end_in_a_clause_not_false_are_an_error(self, nine_clauses):
        # every check reports a conflict, stated by a clause over a
        # variable that no clause names, so the search can still satisfy it
        engine = SmtSolver(nine_clauses)
        free = engine.new_var()
        engine.theory.check_full = lambda: True
        engine.theory.conflict_clauses = lambda new_var: [(free,)]
        with pytest.raises(RuntimeError, match="the lemmas of a theory conflict end in a "
                                               "clause that is not false"):
            engine.solve()


class TestConflictLemmas:
    """Every conflict a theory reports, from an assert or a full check, is
    stated by lemmas that keep the contract `SmtSolver._conflict_lemma`
    relies on (`oracles.conflict_lemma_problem`)."""

    # the fewest conflicts each walk must find, by where they were found, about
    # half of what it found when written: an EUF conflict is found as its
    # last literal is asserted, and the walk then backtracks past it
    @pytest.mark.parametrize("logic, make_atoms, floor", [
        ("EUF", random_euf_atoms, {"assert": 150}),
        ("LRA", random_lra_atoms, {"assert": 180, "check": 130}),
    ], ids=["EUF", "LRA"])
    def test_random_walk(self, logic, make_atoms, floor):
        # assert, check and backtrack at random; after a conflict, backtrack
        # past the last literal, as a backjump does.  EUF also asserts the
        # positive literal of an atom it defined, as the engine does
        rng = random.Random(41)
        found = Counter()
        for _ in range(600):
            table = AtomTable()
            ids = sorted({table.intern(atom) for atom in make_atoms(rng, rng.randint(3, 8))})
            s = solver_for_logic(logic, table)
            new_var = itertools.count(len(table) + 1).__next__
            for _step in range(30):
                taken = {abs(lit) for lit in s._asserted}
                free = [i * rng.choice((1, -1)) for i in ids if i not in taken]
                free += [var for var in s.defined if var not in taken]
                op = rng.random()
                if op < 0.6 and free:
                    source, inconsistent = "assert", s.assert_literal(rng.choice(free))
                elif op < 0.85:
                    source, inconsistent = "check", s.check_full()
                else:
                    s.backtrack(rng.randint(0, len(s._asserted)))
                    continue
                if inconsistent:
                    problem = conflict_lemma_problem(s, logic, s.conflict_clauses(new_var))
                    assert problem is None, (source, s._asserted, problem)
                    found[source] += 1
                    s.backtrack(rng.randrange(len(s._asserted)))
        assert all(found[source] >= n for source, n in floor.items()), found


def _diamond_formulas():
    """Diamond chains with and without noise: their refutations store
    lemmas over equalities the engine defines past the atom table."""
    for n in range(3, 9):
        for noise in (0, n):
            yield diamond_chain_formula(random.Random(100 * n + noise), n, noise)


class TestEngineDefinedAtoms:
    """An EUF conflict is stored as a chain of lemmas, some over equality
    atoms the engine defines on variables past the atom table; each lemma
    records the equality of every such variable it names."""

    def test_lemma_list_has_no_repeats(self):
        defined = 0
        for formula in _diamond_formulas():
            size = len(formula.atoms)
            engine = SmtSolver(formula)
            assert engine.solve().status == "unsat"
            assert len(formula.atoms) == size
            _check_lemma_list(engine, formula.clauses)
            defined += sum(bool(lemma.defs) for lemma in engine.store)
            selectors = SelectorEngine(formula)
            inputs = [(-sel,) + clause
                      for sel, clause in zip(selectors.selectors, formula.clauses)]
            n = len(formula.clauses)
            for step in range(4):
                selectors.solve(range(n) if step == 0 else
                                random.Random(step).sample(range(n), n - 1))
                _check_lemma_list(selectors.solver, inputs)
        assert defined > 20

    def test_a_chain_lemma_is_valid_under_its_definitions_only(self):
        formula = diamond_chain_formula(random.Random(6), 6, 0)
        size = len(formula.atoms)
        _, store = smt_solve(formula)
        chained = [lemma for lemma in store if lemma.defs]
        assert chained
        for lemma in chained:
            past = {abs(lit) for lit in lemma.clause if abs(lit) > size}
            assert past == {var for var, _ in lemma.defs}
            defined = dict(lemma.defs)
            assert clause_valid(lemma.clause, lambda v: defined.get(v) or formula.atoms.atom(v))
        assert lemma_store_violations(formula, store, unsat=True) == []
        # stripped of its definitions, a chain lemma names variables that no
        # other lemma's definitions may stand in for
        i = store.index(chained[-1])
        forged = store[:i] + [replace(store[i], defs=())] + store[i + 1:]
        assert lemma_store_violations(formula, forged, unsat=True) == [
            f"lemma {i} names an unknown atom"]

    def test_check_refutation_reads_the_definitions(self):
        formula = diamond_chain_formula(random.Random(7), 7, 0)
        route, kind = METHODS["lift-proof"]
        core, proof, _leaves, store = route(formula, ExtractorConfig(kind), None)
        defs = {var: atom for lemma in store for var, atom in lemma.defs}
        assert defs and check_refutation(formula, core, proof, defs) is None
        # a leaf over an engine variable that nothing defines
        assert "names an unknown atom" in check_refutation(formula, core, proof)
        # a definition of a table atom's variable
        table_var, table_atom = next(iter(formula.atoms.items()))
        assert check_refutation(formula, core, proof, {**defs, table_var: table_atom}) == (
            f"definition of variable {table_var} is rejected: "
            f"variable {table_var} is an atom of the table")
        # definitions under which a lemma leaf is not valid: every engine
        # variable names y0 = z0, which no diamond forces
        decls = formula.declarations
        unforced = euf_atom(decls.vars["y0"], decls.vars["z0"])
        problem = check_refutation(formula, core, proof, {var: unforced for var in defs})
        assert problem is not None and problem.endswith("is neither a core clause nor "
                                                        "theory-valid")

    def test_only_the_positive_literal_of_a_defined_atom_is_asserted(self):
        formula = diamond_chain_formula(random.Random(9), 6, 6)
        size = len(formula.atoms)
        engine = SelectorEngine(formula)
        asserted = []
        assert_literal = engine.solver.theory.assert_literal

        def recording(lit):
            asserted.append(lit)
            return assert_literal(lit)

        engine.solver.theory.assert_literal = recording
        n = len(formula.clauses)
        for step in range(6):
            engine.solve(range(n) if step == 0 else random.Random(step).sample(range(n), n - 2))
        assert any(lit > size for lit in asserted)
        assert not any(-lit > size for lit in asserted)

    def test_two_table_atoms_over_one_pair(self):
        """The chain concludes the pair's first atom; a disequality over
        the other gets one more lemma joining the two."""
        a, b = Var("a", "U", 0), Var("b", "U", 1)
        table = AtomTable()
        first, second = table.intern(euf_atom(a, b)), table.intern(EufAtom(b, a))
        for units, lemma in (((first, -second), (-first, second)),
                             ((second, -first), (-second, first))):
            formula = formula_from_clauses([(lit,) for lit in units], table, None, "EUF")
            verdict, store = smt_solve(formula)
            assert verdict.status == "unsat"
            assert [stored.clause for stored in store] == [lemma]

    @pytest.mark.parametrize("negated", ["(= x x)", "(= (f x) (f x))"])
    def test_a_negated_reflexive_atom_is_refuted(self, negated):
        """Both sides of the violated disequality are one term, so there
        is no path to chain: the conflict is the one clause (k)."""
        formula = cnf_convert(parse(
            "(set-logic QF_UF) (declare-sort U 0) (declare-fun x () U) "
            f"(declare-fun f (U) U) (assert (not {negated}))"))
        verdict, store = smt_solve(formula)
        assert verdict.status == "unsat"
        assert lemma_store_violations(formula, store, unsat=True) == []
        for method in sorted(METHODS):
            report = extract_core(formula, method, verify=True)
            assert (report.verdict, report.core) == ("unsat", (0,))

    def test_the_table_growth_check_still_fires(self):
        formula = diamond_chain_formula(random.Random(8), 8, 0)
        engine = SelectorEngine(formula)
        assert engine.solve(range(len(formula.clauses))).status == "unsat-assumptions"
        assert engine.solver.theory.defined
        new_id = formula.atoms.intern(euf_atom(Var("fresh_a", "U", 90),
                                               Var("fresh_b", "U", 91)))
        with pytest.raises(ValueError, match="the atom table grew after the engine was built"):
            engine.solver.add_clause((new_id,))


def _flipped(store, atom_of, chained=False):
    """The index of the first stored lemma (with definitions, if `chained`)
    that flipping its last literal makes invalid by the oracle, and the
    store with that lemma flipped."""
    for i, lemma in enumerate(store):
        if chained and not lemma.defs:
            continue
        clause = lemma.clause[:-1] + (-lemma.clause[-1],)
        if not clause_valid(clause, atom_of):
            return i, store[:i] + [replace(lemma, clause=clause)] + store[i + 1:]
    raise AssertionError("no lemma turns invalid when flipped")


class TestLemmaStoreViolations:
    """Forged lemma stores: each must give exactly one problem."""

    def test_a_flipped_euf_lemma(self):
        formula = diamond_chain_formula(random.Random(4), 5, 3)
        _, store = smt_solve(formula)
        defs = {var: atom for lemma in store for var, atom in lemma.defs}
        i, forged = _flipped(store, lambda v: defs.get(v) or formula.atoms.atom(v), chained=True)
        assert lemma_store_violations(formula, forged, unsat=False) == [
            f"lemma {i} is not theory-valid"]

    def test_a_flipped_lra_lemma(self):
        formula = random_difference_formula(random.Random(0), 4, 12, 3)
        _, store = smt_solve(formula)
        i, forged = _flipped(store, formula.atoms.atom)
        assert lemma_store_violations(formula, forged, unsat=False) == [
            f"lemma {i} is not theory-valid"]

    def test_definitions_past_the_formula(self):
        formula = diamond_chain_formula(random.Random(6), 6, 0)
        _, store = smt_solve(formula)
        i = next(k for k, lemma in enumerate(store) if lemma.defs)
        (var, atom), *rest = store[i].defs
        table_var, table_atom = next(iter(formula.atoms.items()))
        stranger = euf_atom(atom.lhs, Var("stranger", term_sort(atom.lhs), 99))
        for defs, named, problem in [
                (((table_var, table_atom),) + store[i].defs, table_var,
                 f"variable {table_var} is an atom of the table"),
                (((var, stranger), *rest), var, f"{stranger} is not over the solver's terms"),
                (((var, PropAtom("p")), *rest), var, "PropAtom does not belong to EUF")]:
            forged = store[:i] + [replace(store[i], defs=tuple(defs))] + store[i + 1:]
            assert lemma_store_violations(formula, forged, unsat=True) == [
                f"lemma {i}: definition of variable {named} is rejected: {problem}"]

    @pytest.mark.parametrize("logic", ["LRA", "propositional"])
    def test_only_an_euf_formula_defines_atoms(self, nine_clauses, logic):
        """A lemma store can come from outside the program: a definition on
        any other formula is rejected, whatever atom it names."""
        formula = nine_clauses if logic == "LRA" else cnf_convert(parse(
            "(declare-fun p () Bool)(declare-fun q () Bool)"
            "(assert (or p q))(assert (not p))(assert (not q))"))
        route, kind = METHODS["lift-proof"]
        core, proof, _leaves, store = route(formula, ExtractorConfig(kind), None)
        var = len(formula.atoms) + 1
        rejected = (f"definition of variable {var} is rejected: "
                    "only an EUF formula defines atoms past its table")
        for atom in (formula.atoms.atom(1), euf_atom(Var("a", "U", 0), Var("b", "U", 1))):
            forged = store + [TLemma((-var, var), "theory-conflict", ((var, atom),))]
            assert lemma_store_violations(formula, forged, unsat=True) == [
                f"lemma {len(store)}: {rejected}"]
            # a leaf outside the core makes the check read the definitions
            assert check_refutation(formula, sorted(core)[1:], proof, {var: atom}) == rejected

    def test_a_store_that_leaves_the_abstraction_satisfiable(self, nine_clauses):
        assert lemma_store_violations(nine_clauses, [], unsat=True) == [
            "abstraction plus stored lemmas is not propositionally unsat"]

    def test_calls_no_euf_solver_method(self, monkeypatch):
        formula = diamond_chain_formula(random.Random(3), 5, 5)
        _, store = smt_solve(formula)

        def forbidden(*args, **kwargs):
            raise AssertionError("an EufSolver method was called")

        for cls in (EufSolver, TheorySolver):
            for name, value in list(vars(cls).items()):
                if callable(value):
                    monkeypatch.setattr(cls, name, forbidden)
        assert any(lemma.defs for lemma in store)
        assert lemma_store_violations(formula, store, unsat=True) == []
