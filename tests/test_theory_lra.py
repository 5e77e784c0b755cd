import copy
import random
from fractions import Fraction

import pytest

from gen import lin_comb, random_difference_formula, random_lra_atoms
from oracles import clause_valid, lra_literals_sat, reference_lra_deductions
from smtcore.check import validity_check
from smtcore.cnf import cnf_convert
from smtcore.cores import minimize_core
from smtcore.parser import parse
from smtcore.smt import evaluate_clause, smt_solve
from smtcore.terms import (
    REAL, AtomTable, PropAtom, Var, canonical_lin_atom, euf_atom, eval_lin_atom,
)
from smtcore.theory import LraSolver

X = Var("x", REAL, 0)
Y = Var("y", REAL, 1)


def lin(coeffs, offset, rel):
    return canonical_lin_atom(lin_comb(coeffs, Fraction(offset)), rel)


def table_with(*atoms):
    table = AtomTable()
    return table, [table.intern(a) for a in atoms]


def _facts(table, lits):
    """(atom, polarity) pairs of signed atom ids, as the oracle takes them."""
    return [(table.atom(abs(l)), l > 0) for l in lits]


def _no_new_var():
    raise AssertionError("LRA defines no atom")


def conflict_clause(s):
    """The one clause of the conflict `s` just reported."""
    (clause,) = s.conflict_clauses(_no_new_var)
    return clause


class TestBoundOrder:
    def test_strict_below_non_strict_and_real_part_dominates(self):
        # bounds are (real, delta) tuples read real + delta * eps
        table, (ile1, ilt1, ile0, ilt0) = table_with(
            lin({X: 1}, -1, "<="), lin({X: 1}, -1, "<"),   # x <= 1, x < 1
            lin({X: 1}, 0, "<="), lin({X: 1}, 0, "<"))     # x <= 0, x < 0

        def uppers(*lits):
            s = LraSolver(table)
            seen = []
            for lit in lits:
                assert not s.assert_literal(lit)
                seen.append(s.upper[s.slack_of[((X.index, 1),)]])
            assert not s.check_full()
            return seen

        # x < 1 tightens x <= 1, and x <= 1 does not loosen x < 1
        assert uppers(ile1, ilt1) == [((1, 0), ile1), ((1, -1), ilt1)]
        assert uppers(ilt1, ile1) == [((1, -1), ilt1), ((1, -1), ilt1)]
        # x <= 0 tightens x < 1 whatever the infinitesimal
        assert uppers(ilt1, ile0, ilt0) == [((1, -1), ilt1), ((0, 0), ile0), ((0, -1), ilt0)]


class TestAssertAndConflict:
    def test_bound_pair_conflict(self):
        table, (ilt, ieq) = table_with(lin({Y: 1}, 0, "<"), lin({Y: 1}, -1, "="))
        s = LraSolver(table)
        assert not s.assert_literal(ilt)
        assert s.assert_literal(ieq)
        assert set(conflict_clause(s)) == {-ilt, -ieq}

    def test_single_bound_ok(self):
        table, (ieq,) = table_with(lin({X: 1}, 0, "="))
        s = LraSolver(table)
        assert not s.assert_literal(ieq)
        assert not s.check_full()

    def test_row_conflict_found_by_check(self):
        # x <= 0, y <= 0, x + y >= 1
        table, (iux, iuy, isum) = table_with(
            lin({X: 1}, 0, "<="), lin({Y: 1}, 0, "<="),
            lin({X: -1, Y: -1}, 1, "<="))
        s = LraSolver(table)
        for i in (iux, iuy, isum):
            assert not s.assert_literal(i)
        assert s.check_full()
        assert set(conflict_clause(s)) == {-iux, -iuy, -isum}

    def test_witness_satisfies_every_literal_exactly(self):
        table, ids = table_with(
            lin({X: -1, Y: -1}, 3, "<"),   # x + y > 3
            lin({Y: 1}, 0, "<"),           # y < 0
            lin({X: 1, Y: -1}, -4, "="))   # x - y = 4 (asserted negatively)
        s = LraSolver(table)
        lits = [ids[0], ids[1], -ids[2]]
        for lit in lits:
            assert not s.assert_literal(lit)
        assert not s.check_full()
        for lit in lits:
            assert eval_lin_atom(table.atom(abs(lit)), s.witness()) == (lit > 0)

    def test_strict_chain_needs_infinitesimal(self):
        # x < 1 and x >= 1 - delta impossible; x < 1 and x > 0 fine
        table, (ilt, igt) = table_with(lin({X: 1}, -1, "<"), lin({X: -1}, 0, "<"))
        s = LraSolver(table)
        assert not s.assert_literal(ilt)
        assert not s.assert_literal(igt)
        assert not s.check_full()
        assert 0 < s.witness()[X] < 1

    def test_an_infinitesimal_below_two_to_the_minus_230_is_concretized(self):
        formula = cnf_convert(parse(
            f"(declare-fun x () Real)(assert (> x 0))(assert (< x (/ 1 {2 ** 230})))"))
        verdict, _store = smt_solve(formula)
        assert verdict.status == "sat"
        assert all(evaluate_clause(c, formula.atoms, verdict) for c in formula.clauses)

    def test_the_witness_skips_a_disequality_root(self):
        # eps = 1 breaks x < 1 and eps = 1/2 meets x = 1/2, so eps = 1/4
        formula = cnf_convert(parse(
            "(declare-fun x () Real)(assert (> x 0))(assert (< x 1))"
            "(assert (not (= x (/ 1 2))))"))
        verdict, _store = smt_solve(formula)
        assert verdict.status == "sat"
        assert list(verdict.theory_model.values()) == [Fraction(1, 4)]

    def test_equality_negation_splits(self):
        # x >= 0, x <= 0, x != 0 must conflict with all three cited
        table, (ige, ile, ieq) = table_with(
            lin({X: -1}, 0, "<="), lin({X: 1}, 0, "<="), lin({X: 1}, 0, "="))
        s = LraSolver(table)
        assert not s.assert_literal(ige)
        assert not s.assert_literal(ile)
        if not s.assert_literal(-ieq):
            assert s.check_full()
        assert ieq in conflict_clause(s)

    def test_a_conflict_independent_of_a_split_leaves_its_disequality_out(self):
        # x0 != x2 is split first; on its first probed side the two bounds
        # force x0 - x1 = 0 against x0 != x1, a conflict the split has no
        # part in, so it is returned as it is
        x0, x1, x2 = (Var(f"x{i}", REAL, i) for i in range(3))
        table, (ieq02, ieq01, ile01, ile10) = table_with(
            lin({x0: 1, x2: -1}, 0, "="), lin({x0: 1, x1: -1}, 0, "="),
            lin({x0: 1, x1: -1}, 0, "<="), lin({x1: 1, x0: -1}, 0, "<="))
        s = LraSolver(table)
        for lit in (-ieq02, -ieq01, ile01, ile10):
            assert not s.assert_literal(lit)
        assert s.check_full()
        clause = conflict_clause(s)
        assert ieq02 not in clause
        assert sorted(clause) == sorted([-ile10, -ile01, ieq01])
        assert clause_valid(clause, table.atom)

    def test_constant_atom_conflict(self):
        table, (ic,) = table_with(lin({}, 1, "<"))  # 1 < 0: false
        s = LraSolver(table)
        assert s.assert_literal(ic)
        assert s.conflict_clauses(_no_new_var) == [(-ic,)]

    def test_constant_atoms_are_deduced_with_no_explanation(self):
        formula = cnf_convert(parse(
            "(declare-fun p () Bool)(declare-fun x () Real)(assert (or p (< 1 0)))"
            "(assert (or (not p) (<= 0 1) (<= x 0)))(assert (<= x 1))"))
        verdict, store = smt_solve(formula)
        assert verdict.status == "sat"
        # 1 < 0 (atom 2) is false and 0 <= 1 (atom 3) true, whatever is asserted
        assert [(lemma.clause, lemma.kind) for lemma in store] == [
            ((-2,), "theory-deduction"), ((3,), "theory-deduction")]
        assert all(evaluate_clause(c, formula.atoms, verdict) for c in formula.clauses)

    def test_a_disequality_between_equal_bounds_conflicts(self):
        table, (ile, ilt, ieq) = table_with(
            lin({X: 1}, -3, "<="), lin({X: 1}, -3, "<"), lin({X: 1}, -3, "="))
        s = LraSolver(table)
        assert not s.assert_literal(ile)           # x <= 3
        assert not s.assert_literal(-ilt)          # x >= 3
        assert s.assert_literal(-ieq)
        assert s.conflict_clauses(_no_new_var) == [(ilt, -ile, ieq)]


class TestTwinSlacks:
    """Atoms whose linear forms differ by a constant factor, as `x` and
    `-x` or `x - y` and `y - x` do, bound one shared slack."""

    def test_a_disequality_between_twin_bounds_conflicts_at_assertion(self):
        table, (ige, ile, ieq) = table_with(
            lin({X: -1}, 0, "<="), lin({X: 1}, 0, "<="), lin({X: 1}, 0, "="))
        s = LraSolver(table)
        assert not s.assert_literal(ige)           # -x <= 0
        assert not s.assert_literal(ile)           # x <= 0
        assert s.assert_literal(-ieq)
        assert s.conflict_clauses(_no_new_var) == [(-ige, -ile, ieq)]

    def test_a_difference_and_its_reverse_share_one_row(self):
        table, (ixy, iyx, ieq) = table_with(
            lin({X: 1, Y: -1}, -2, "<="), lin({Y: 1, X: -1}, 2, "<="),
            lin({X: 1, Y: -1}, -2, "="))
        s = LraSolver(table)
        assert not s.assert_literal(ixy)           # x - y <= 2
        assert not s.assert_literal(iyx)           # y - x <= -2
        assert s.assert_literal(-ieq)
        assert s.conflict_clauses(_no_new_var) == [(-iyx, -ixy, ieq)]
        assert len(s.rows) == 1

    def test_a_formula_over_twin_atoms_and_a_disequality_is_solved(self):
        # x - y >= 2 would meet x - y <= 2 and x - y != 2 at one point, so
        # x < 0 must hold, then y = 0; 2y - 2x < 5 scales the same form
        formula = cnf_convert(parse(
            "(declare-fun x () Real)(declare-fun y () Real)"
            "(assert (<= (- x y) 2))(assert (or (<= (- y x) (- 2)) (< x 0)))"
            "(assert (not (= (- x y) 2)))(assert (or (>= x 1) (= y 0)))"
            "(assert (< (* 2 (- y x)) 5))"))
        verdict, _store = smt_solve(formula)
        assert verdict.status == "sat"
        assert all(evaluate_clause(c, formula.atoms, verdict) for c in formula.clauses)


class TestBacktracking:
    def test_mark_restores_verdict(self):
        table, (ilt, ieq) = table_with(lin({Y: 1}, 0, "<"), lin({Y: 1}, -2, "="))
        s = LraSolver(table)
        s.assert_literal(ilt)
        mark = len(s._asserted)
        before = s.check_full()
        s.assert_literal(ieq)
        assert s.check_full()
        s.backtrack(mark)
        assert not before and not s.check_full()

    def test_stale_mark(self):
        table, (ilt,) = table_with(lin({Y: 1}, 0, "<"))
        s = LraSolver(table)
        s.assert_literal(ilt)
        mark = len(s._asserted)
        s.backtrack(0)
        with pytest.raises(ValueError, match="stale"):
            s.backtrack(mark)

    def test_lifo_interleaved_marks(self):
        table, ids = table_with(lin({X: 1}, -3, "<="), lin({X: -1}, 0, "<="),
                                lin({X: 1}, -1, "="))
        s = LraSolver(table)
        states = []
        marks = []
        for i in ids:
            marks.append(len(s._asserted))
            states.append(len(s._asserted))
            s.assert_literal(i)
        for mark, n in zip(reversed(marks), reversed(states)):
            s.backtrack(mark)
            assert len(s._asserted) == n


class TestDeductions:
    def test_bound_refutation(self):
        table, (ieq1, ieq0) = table_with(lin({X: 1}, -1, "="), lin({X: 1}, 0, "="))
        s = LraSolver(table)
        s.assert_literal(ieq1)
        deds = {abs(clause[-1]): clause for clause in s.deductions()}
        assert deds[ieq0] == (-ieq1, -ieq0)

    def test_deductions_leave_the_tableau_unchanged(self):
        table, ids = table_with(
            lin({X: 1, Y: -1}, -1, "<="), lin({Y: 1}, 0, "<"), lin({X: 1}, -3, "<="),
            lin({X: 1, Y: 1}, -2, "<="), lin({X: 2, Y: -1}, 0, "="))
        s = LraSolver(table)
        for i in ids[:2]:
            assert not s.assert_literal(i)
        assert not s.check_full()
        state = copy.deepcopy((s.rows, s.values, s.lower, s.upper, s.slack_of))
        assert s.deductions()
        assert (s.rows, s.values, s.lower, s.upper, s.slack_of) == state

    def test_cross_sign_unate(self):
        # x - y <= 1 refutes y - x < -1, which shares its base with opposite sign
        table, (ile, ilt) = table_with(lin({X: 1, Y: -1}, -1, "<="),
                                       lin({X: -1, Y: 1}, 1, "<"))
        s = LraSolver(table)
        s.assert_literal(ile)
        assert s.deductions() == [(-ile, -ilt)]

    def test_scaled_unate(self):
        # 2x <= 3 entails x <= 2: the same base x at scales 2 and 1
        table, (i2x, ix) = table_with(lin({X: 2}, -3, "<="), lin({X: 1}, -2, "<="))
        s = LraSolver(table)
        s.assert_literal(i2x)
        assert s.deductions() == [(-i2x, ix)]

    def test_interval_sum(self):
        # x <= 1 and y <= 1 entail x + y <= 2
        table, (ix, iy, isum) = table_with(lin({X: 1}, -1, "<="), lin({Y: 1}, -1, "<="),
                                           lin({X: 1, Y: 1}, -2, "<="))
        s = LraSolver(table)
        s.assert_literal(ix)
        s.assert_literal(iy)
        deds = s.deductions()
        assert [clause[-1] for clause in deds] == [isum]
        assert set(deds[0][:-1]) == {-ix, -iy}

    def test_interval_difference_bounds_a_variable(self):
        # x - y <= 1 and y < 0 entail x < 1, hence not (x >= 1)
        table, (idiff, iy, ix) = table_with(lin({X: 1, Y: -1}, -1, "<="),
                                            lin({Y: 1}, 0, "<"), lin({X: -1}, 1, "<="))
        s = LraSolver(table)
        s.assert_literal(idiff)
        s.assert_literal(iy)
        deds = s.deductions()
        assert [clause[-1] for clause in deds] == [-ix]
        assert set(deds[0][:-1]) == {-idiff, -iy}

    def test_no_deductions_on_empty_state(self):
        table, _ = table_with(lin({X: 1}, 0, "="))
        assert LraSolver(table).deductions() == []

    def test_deductions_are_sound(self):
        rng = random.Random(31)
        checked = 0
        for _ in range(500):
            atoms = random_lra_atoms(rng, rng.randint(2, 5))
            table = AtomTable()
            ids = [table.intern(a) for a in atoms]
            s = LraSolver(table)
            ok = True
            picked = rng.sample(ids, rng.randint(1, len(ids)))
            for i in picked:
                if s.assert_literal(i if rng.random() < 0.7 else -i):
                    ok = False
                    break
            if not ok or s.check_full():
                continue
            for clause in s.deductions():
                # its negation, the explanation plus the negated literal,
                # must be oracle-unsat
                assert not lra_literals_sat(_facts(table, [-lit for lit in clause]))
                checked += 1
        assert checked > 50


@pytest.fixture
def checked_deductions(monkeypatch):
    """Make every LraSolver.deductions call compare its answer, clause for
    clause and literal for literal, with the full recompute of the
    reference; the list returned collects the number of deductions of each
    call."""
    found = []
    deductions = LraSolver.deductions

    def checked(self):
        want = reference_lra_deductions(self)
        got = deductions(self)
        assert got == want
        found.append(len(got))
        return got

    monkeypatch.setattr(LraSolver, "deductions", checked)
    return found


class TestDeductionsAgainstReference:
    """The incremental deductions equal a full recompute, call for call."""

    @pytest.mark.parametrize("shape, seeds", [((6, 24, 2), range(8)), ((6, 24, 3), range(4)),
                                              ((12, 60, 3), (0, 1))])
    def test_inside_smt_solve(self, checked_deductions, shape, seeds):
        for seed in seeds:
            smt_solve(random_difference_formula(random.Random(seed), *shape))
        assert len(checked_deductions) > 20 * len(seeds)
        assert sum(checked_deductions) > 0

    def test_inside_minimize_core_subset_solves(self, checked_deductions):
        for seed in (0, 3, 5, 7):
            formula = random_difference_formula(random.Random(seed), 6, 24, 2)
            verdict, _ = smt_solve(formula)
            assert verdict.status == "unsat"
            minimize_core(formula, range(len(formula.clauses)))
        assert sum(checked_deductions) > 100

    def test_random_walk(self, checked_deductions):
        # assert, check, deduce and backtrack at random; the literals a call
        # reports are mostly asserted before the next call, as the SMT
        # engine does, and sometimes left for the next call to report again
        rng = random.Random(12)
        for _ in range(400):
            table = AtomTable()
            ids = sorted({table.intern(a) for a in random_lra_atoms(rng, rng.randint(3, 10), 4)})
            s = LraSolver(table)

            def undo_some():
                s.backtrack(rng.randrange(len(s._asserted)) if s._asserted else 0)

            for _step in range(40):
                op = rng.random()
                asserted = {abs(lit) for lit in s._asserted}
                free = [i for i in ids if i not in asserted]
                if op < 0.4 and free:
                    if s.assert_literal(rng.choice(free) * rng.choice((1, -1))):
                        undo_some()
                elif op < 0.55:
                    if s.check_full():
                        undo_some()
                elif op < 0.85:
                    deduced = s.deductions()
                    if rng.random() < 0.8:
                        for clause in deduced:
                            if s.assert_literal(clause[-1]):
                                undo_some()
                                break
                else:
                    undo_some()
        assert len(checked_deductions) > 3000
        assert sum(checked_deductions) > 600


def _lra_verdicts(table, clauses):
    """The shared check's verdict on each clause, which the oracle must share."""
    check = validity_check("LRA", table)
    verdicts = [check.valid(frozenset(clause)) for clause in clauses]
    assert verdicts == [clause_valid(frozenset(clause), table.atom) for clause in clauses]
    return verdicts


class TestValidity:
    def test_pairwise_bound_lemmas_are_valid(self):
        table, (i10, i01, iy2, iylt, iy1) = table_with(
            lin({X: 1}, -1, "="), lin({X: 1}, 0, "="),
            lin({Y: 1}, -2, "="), lin({Y: 1}, 0, "<"), lin({Y: 1}, -1, "="))
        lemmas = [(-i10, -i01), (-iy2, -iylt), (-iy1, -iylt)]
        assert _lra_verdicts(table, lemmas) == [True, True, True]

    def test_trivial_tautology_shape(self):
        table, (ieq,) = table_with(lin({X: 1}, 0, "="))
        # (x=0 or x=0) is not valid; (x=0 or not x=0) is
        assert _lra_verdicts(table, [(ieq, ieq), (ieq, -ieq)]) == [False, True]

    def test_a_propositional_literal_counts_for_nothing(self):
        table, (ip, ile0, ile1) = table_with(
            PropAtom("p"), lin({X: 1}, 0, "<="), lin({X: 1}, -1, "<="))
        # x <= 0 implies x <= 1, whatever p is
        clauses = [(ip, -ile0, ile1), (-ip, -ile0, ile1), (ip, ile0), (ip, -ip)]
        assert _lra_verdicts(table, clauses) == [True, True, False, True]


class TestForeignLiterals:
    """Only a literal over a `LinAtom` belongs to LRA; another is rejected
    and leaves the solver as it was."""

    @pytest.mark.parametrize("foreign", [
        euf_atom(Var("a", "U", 2), Var("b", "U", 3)),
        PropAtom("p"),
    ], ids=["euf", "prop"])
    def test_a_foreign_literal_is_rejected_and_changes_nothing(self, foreign):
        table, (ile0, ibad) = table_with(lin({X: 1}, 0, "<="), foreign)
        s = LraSolver(table)
        assert not s.assert_literal(ile0)
        state = (list(s._asserted), set(s._asserted_atoms), list(s._marks), list(s._trail))
        for lit in (ibad, -ibad):
            with pytest.raises(ValueError, match="does not belong to LRA"):
                s.assert_literal(lit)
            assert (s._asserted, s._asserted_atoms, s._marks, s._trail) == state
        assert not s.check_full()
        s.backtrack(0)
        assert (s._asserted, s._marks) == ([], [])


class PivotWatch(LraSolver):
    """Counts the pivots that leave a non-integral tableau coefficient, that
    is, the pivots that take the Fraction fallback of the integer path."""

    def __init__(self, table):
        super().__init__(table)
        self.fractional_pivots = 0

    def _pivot_and_update(self, xi, xj, v):
        super()._pivot_and_update(xi, xj, v)
        if any(type(c) is Fraction and c.denominator != 1
               for row in self.rows.values() for c in row.values()):
            self.fractional_pivots += 1


class TestCompletenessAgainstFourierMotzkin:
    def test_thousand_seeds(self):
        rng = random.Random(2025)
        fractional_pivots = 0
        for trial in range(1000):
            n_atoms = rng.randint(1, 6)
            atoms = random_lra_atoms(rng, n_atoms)
            table = AtomTable()
            ids = [table.intern(a) for a in atoms]
            n_lits = rng.randint(1, 8)
            lits = [(rng.choice(ids), rng.random() < 0.6) for _ in range(n_lits)]
            # keep the first literal on each atom (trail-style input)
            seen = set()
            filtered = []
            for i, positive in lits:
                if i not in seen:
                    seen.add(i)
                    filtered.append(i if positive else -i)
            s = PivotWatch(table)
            got_sat = not (any(s.assert_literal(lit) for lit in filtered) or s.check_full())
            fractional_pivots += s.fractional_pivots
            want_sat = lra_literals_sat(_facts(table, filtered))
            assert got_sat == want_sat, f"trial {trial}"
            if not got_sat:
                reasons = [-lit for lit in conflict_clause(s)]
                assert not lra_literals_sat(_facts(table, reasons)), \
                    f"trial {trial}: unsound conflict"
                assert set(reasons) <= set(filtered)
        # coefficients up to 3 make pivots divide by 2 or 3, so the verdicts
        # above include tableaux with Fraction coefficients
        assert fractional_pivots > 0
