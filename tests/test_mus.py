import itertools
import math
import random

import pytest

from gen import labeled_corpus, random_difference_formula, random_uf_formula
from oracles import brute_force_smt_sat, cnf_models, marco_muses
from smtcore.cnf import cnf_convert
from smtcore.cores import check_core, extract_core
from smtcore.mus import (
    _Totalizer, all_minimal_cores, enumerate_mcs, minimal_hitting_sets,
)
from smtcore.parser import parse
from smtcore.smt import SmtSolver, smt_solve

MCS_FAMILY = [{0}, {1}, {2}, {3}, {5}, {4, 7}]
CORE_A = frozenset({0, 1, 2, 3, 4, 5})
CORE_B = frozenset({0, 1, 2, 3, 5, 7})


def test_totalizer_matches_brute_force_at_every_bound():
    for n in range(1, 6):
        xs = list(range(1, n + 1))
        outputs, clauses = [], []

        def new_var():
            outputs.append(n + len(outputs) + 1)
            return outputs[-1]

        totalizer = _Totalizer(xs, new_var, clauses.append)
        # one totalizer, its outputs extended as the bound grows
        for k in range(1, n + 1):
            bound = totalizer.at_most(k)
            nvars = n + len(outputs)
            # the xs are the low n bits of an assignment: the patterns of
            # them that some model of the encoding under the bound extends
            models = cnf_models([list(c) for c in clauses] + [[lit] for lit in bound], nvars)
            extendable = set((models & ((1 << n) - 1)).tolist())
            # for every assignment of the xs, the encoding must be extendable
            # exactly when at most k are true
            for bits in itertools.product([False, True], repeat=n):
                pattern = sum(1 << i for i, b in enumerate(bits) if b)
                assert (pattern in extendable) == (sum(bits) <= k)


def test_enumeration_variables_grow_as_n_log_n(monkeypatch):
    # 40 clauses over 61 atoms with 300 MCSes of sizes 1 to 14: a counter
    # per bound left over 4,000 registers in the engine
    formula = random_uf_formula(random.Random(4), 8, 40, 2)
    n = len(formula.clauses)
    nvars = []
    new_var = SmtSolver.new_var

    def counted(self):
        nvars.append(new_var(self))
        return nvars[-1]

    monkeypatch.setattr(SmtSolver, "new_var", counted)
    result = enumerate_mcs(formula)
    assert result.complete and max(len(m) for m in result.mcses) == 14
    # past the atoms: n selectors, then at most n outputs on each of the
    # ceil(log2 n) levels of the tree and one bound output a k
    assert max(nvars) - len(formula.atoms) - n <= n * math.ceil(math.log2(n)) + n


class TestEnumerateMcs:
    def test_nine_clause_instance_has_exactly_six_mcses(self, nine_clauses):
        result = enumerate_mcs(nine_clauses)
        assert result.complete and not result.satisfiable
        assert sorted(sorted(m) for m in result.mcses) == \
            sorted(sorted(m) for m in MCS_FAMILY)

    def test_satisfiable_formula_gives_empty_set(self):
        f = cnf_convert(parse("(declare-fun y () Real)(assert (< y 0))"))
        result = enumerate_mcs(f)
        assert result.satisfiable and result.mcses == []

    def test_two_contradictory_units(self):
        f = cnf_convert(parse(
            "(declare-fun x () Real)(assert (= x 0))(assert (not (= x 0)))"))
        result = enumerate_mcs(f)
        assert sorted(sorted(m) for m in result.mcses) == [[0], [1]]

    def test_every_mcs_complement_is_satisfiable_and_minimal(self, nine_clauses):
        result = enumerate_mcs(nine_clauses)
        all_idx = set(range(len(nine_clauses.clauses)))
        for mcs in result.mcses:
            verdict, _ = smt_solve(nine_clauses.restrict(all_idx - mcs))
            assert verdict.status == "sat"
            for c in mcs:
                verdict, _ = smt_solve(nine_clauses.restrict(all_idx - (mcs - {c})))
                assert verdict.status == "unsat"

    def test_no_mcs_is_a_subset_of_another(self, nine_clauses):
        result = enumerate_mcs(nine_clauses)
        for m1 in result.mcses:
            for m2 in result.mcses:
                assert m1 is m2 or not (m1 < m2)

    def test_cap_flags_incomplete(self, nine_clauses):
        result = enumerate_mcs(nine_clauses, cap=2)
        assert not result.complete and len(result.mcses) == 2


class TestBudget:
    def test_out_of_budget_before_a_verdict(self, nine_clauses):
        result = enumerate_mcs(nine_clauses, budget=0)
        assert result.satisfiable is None
        assert not result.complete and result.mcses == []
        mcs, mus = all_minimal_cores(nine_clauses, budget=0)
        assert mcs.satisfiable is None and not mus.complete and mus.muses == []

    def test_a_satisfiable_formula_needs_no_conflict(self):
        f = cnf_convert(parse("(declare-fun y () Real)(assert (< y 0))"))
        result = enumerate_mcs(f, budget=0)
        assert result.satisfiable and result.complete

    @pytest.mark.parametrize("name", ["nine-clauses", "uf-8-30"])
    def test_a_budget_never_shortens_an_exact_list(self, nine_clauses, name):
        # uf-8-30: equalities over eight constants and their images, 36 MCSes
        formula = nine_clauses if name == "nine-clauses" \
            else random_uf_formula(random.Random(4), 8, 30, 2)
        exact = enumerate_mcs(formula)
        kinds = set()
        for budget in range(0, 30):
            result = enumerate_mcs(formula, budget=budget)
            assert result.satisfiable is not True
            # what the budget allows is the start of the unbudgeted order
            assert result.mcses == exact.mcses[:len(result.mcses)]
            if result.complete:
                assert result.mcses == exact.mcses
                kinds.add("complete")
            else:
                # a hitting set of part of the MCSes need not be a core
                _, mus = all_minimal_cores(formula, budget=budget)
                assert not mus.complete and mus.muses == []
                kinds.add("partial" if result.satisfiable is False else "undecided")
        assert kinds == {"undecided", "partial", "complete"}

    def test_a_capped_mcs_list_names_no_mus(self, nine_clauses):
        mcs, mus = all_minimal_cores(nine_clauses, cap=2)
        assert not mcs.complete and len(mcs.mcses) == 2
        assert not mus.complete and mus.muses == []


class TestHittingSets:
    def test_expected_family_yields_both_minimal_cores(self):
        mus = minimal_hitting_sets([frozenset(m) for m in MCS_FAMILY])
        assert mus.complete
        assert set(mus.muses) == {CORE_A, CORE_B}

    def test_two_singletons(self):
        mus = minimal_hitting_sets([frozenset({0}), frozenset({1})])
        assert mus.muses == [frozenset({0, 1})]

    def test_one_pair(self):
        mus = minimal_hitting_sets([frozenset({0, 1})])
        assert set(mus.muses) == {frozenset({0}), frozenset({1})}

    def test_members_are_pairwise_incomparable(self):
        sets = [frozenset(s) for s in ({0, 1}, {1, 2}, {2, 3}, {0, 3})]
        mus = minimal_hitting_sets(sets)
        for m1 in mus.muses:
            for m2 in mus.muses:
                assert m1 is m2 or not (m1 < m2)

    def test_against_brute_force_on_random_families(self):
        rng = random.Random(17)
        # a fixed family first: with cap 2, a branch and bound that filtered
        # to minimal only at the end listed {0,2} and {2,3}, though {3}
        # alone hits all three sets
        cases = [(range(7), [frozenset(range(7)), frozenset({0, 3, 4, 5, 6}),
                             frozenset({2, 3})])]
        for _ in range(60):
            universe = list(range(rng.randint(2, 6)))
            fam = []
            for _ in range(rng.randint(1, 5)):
                size = rng.randint(1, len(universe))
                fam.append(frozenset(rng.sample(universe, size)))
            cases.append((universe, fam))
        for universe, fam in cases:
            # brute force: all subsets that hit everything, filtered to minimal
            hitting = [frozenset(s)
                       for r in range(len(universe) + 1)
                       for s in itertools.combinations(universe, r)
                       if all(set(s) & f for f in fam)]
            minimal = {h for h in hitting
                       if not any(o < h for o in hitting)}
            assert set(minimal_hitting_sets(fam).muses) == minimal
            # a capped list holds only minimal sets, as many as the cap allows
            for cap in range(1, len(minimal) + 1):
                got = minimal_hitting_sets(fam, cap)
                assert set(got.muses) <= minimal
                assert len(got.muses) == min(cap, len(minimal))


class TestDuality:
    def test_mus_set_equals_brute_force_enumeration(self, nine_clauses):
        _, mus = all_minimal_cores(nine_clauses)
        assert set(mus.muses) == {CORE_A, CORE_B}
        for m in mus.muses:
            assert check_core(nine_clauses, m) is None
            for c in m:
                verdict, _ = smt_solve(nine_clauses.restrict(m - {c}))
                assert verdict.status == "sat"

    @pytest.mark.parametrize("theory", ["LRA", "EUF"])
    def test_duality_on_random_small_instances(self, theory):
        unsat, _ = labeled_corpus(theory, want_unsat=10, want_sat=0,
                                  oracle=brute_force_smt_sat, seed=5,
                                  max_atoms=4, max_clauses=6)
        for formula in unsat:
            n = len(formula.clauses)
            mcs, mus = all_minimal_cores(formula)
            assert mcs.complete and mus.complete
            # brute-force all one-deletion-minimal theory-unsat subsets
            expected = set()
            for r in range(1, n + 1):
                for subset in itertools.combinations(range(n), r):
                    sub = set(subset)
                    verdict, _ = smt_solve(formula.restrict(sub))
                    if verdict.status != "unsat":
                        continue
                    if all(smt_solve(formula.restrict(sub - {c}))[0].status == "sat"
                           for c in sub):
                        expected.add(frozenset(sub))
            assert set(mus.muses) == expected


class TestAgainstMarco:
    """`all_minimal_cores` (MCSes on one selector engine, then hitting sets)
    against MARCO, which explores subsets with fresh solves only."""

    def test_nine_clauses(self, nine_clauses):
        mcs, mus = all_minimal_cores(nine_clauses)
        assert mcs.complete and mus.complete
        assert set(mus.muses) == marco_muses(nine_clauses) == {CORE_A, CORE_B}

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_lift_proof_cores_of_difference_formulas(self, seed):
        # cores of 26 / 19 / 17 clauses with 12 / 1 / 3 MUSes
        formula = random_difference_formula(random.Random(seed), 12, 60, 2)
        core = formula.restrict(extract_core(formula, "lift-proof").core)
        mcs, mus = all_minimal_cores(core)
        assert mcs.complete and mus.complete
        assert set(mus.muses) == marco_muses(core)
