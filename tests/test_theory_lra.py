import copy
import random
from fractions import Fraction

import pytest

from gen import random_lra_atoms
from oracles import lra_literals_sat
from smtcore.terms import (
    REAL, AtomTable, Clause, LinComb, Literal, Var, canonical_lin_atom, eval_lin_atom,
)
from smtcore.theory import LraSolver, is_valid_lemma
from smtcore.theory.lra import DeltaRational

X = Var("x", REAL, 0)
Y = Var("y", REAL, 1)


def lin(coeffs, offset, rel):
    return canonical_lin_atom(LinComb.build(coeffs, Fraction(offset)), rel)


def table_with(*atoms):
    table = AtomTable()
    return table, [table.intern(a) for a in atoms]


class TestDeltaRational:
    def test_lexicographic_order(self):
        assert DeltaRational(Fraction(1)) < DeltaRational(Fraction(1), Fraction(1))
        assert DeltaRational(Fraction(1), Fraction(-1)) < DeltaRational(Fraction(1))
        assert DeltaRational(Fraction(0), Fraction(5)) < DeltaRational(Fraction(1), Fraction(-5))

    def test_arithmetic(self):
        d = DeltaRational(Fraction(1), Fraction(2)) + DeltaRational(Fraction(3), Fraction(-1))
        assert d == DeltaRational(Fraction(4), Fraction(1))
        assert d.scale(Fraction(1, 2)) == DeltaRational(Fraction(2), Fraction(1, 2))


class TestAssertAndConflict:
    def test_bound_pair_conflict(self):
        table, (ilt, ieq) = table_with(lin({Y: 1}, 0, "<"), lin({Y: 1}, -1, "="))
        s = LraSolver(table)
        assert s.assert_literal(Literal(ilt, True)) is None
        conflict = s.assert_literal(Literal(ieq, True))
        assert conflict is not None
        assert {(l.atom, l.positive) for l in conflict} == {(ilt, True), (ieq, True)}

    def test_single_bound_ok(self):
        table, (ieq,) = table_with(lin({X: 1}, 0, "="))
        s = LraSolver(table)
        assert s.assert_literal(Literal(ieq, True)) is None
        assert s.check_full().status == "sat"

    def test_row_conflict_found_by_check(self):
        # x <= 0, y <= 0, x + y >= 1
        table, (iux, iuy, isum) = table_with(
            lin({X: 1}, 0, "<="), lin({Y: 1}, 0, "<="),
            lin({X: -1, Y: -1}, 1, "<="))
        s = LraSolver(table)
        for i in (iux, iuy, isum):
            assert s.assert_literal(Literal(i, True)) is None
        v = s.check_full()
        assert v.status == "conflict"
        assert {(l.atom, l.positive) for l in v.conflict} == \
            {(iux, True), (iuy, True), (isum, True)}

    def test_witness_satisfies_every_literal_exactly(self):
        table, ids = table_with(
            lin({X: -1, Y: -1}, 3, "<"),   # x + y > 3
            lin({Y: 1}, 0, "<"),           # y < 0
            lin({X: 1, Y: -1}, -4, "="))   # x - y = 4 (asserted negatively)
        s = LraSolver(table)
        lits = [Literal(ids[0], True), Literal(ids[1], True), Literal(ids[2], False)]
        for lit in lits:
            assert s.assert_literal(lit) is None
        v = s.check_full()
        assert v.status == "sat"
        for lit in lits:
            assert eval_lin_atom(table.atom(lit.atom), s.witness()) == lit.positive

    def test_strict_chain_needs_infinitesimal(self):
        # x < 1 and x >= 1 - delta impossible; x < 1 and x > 0 fine
        table, (ilt, igt) = table_with(lin({X: 1}, -1, "<"), lin({X: -1}, 0, "<"))
        s = LraSolver(table)
        assert s.assert_literal(Literal(ilt, True)) is None
        assert s.assert_literal(Literal(igt, True)) is None
        v = s.check_full()
        assert v.status == "sat"
        assert 0 < s.witness()[X] < 1

    def test_equality_negation_splits(self):
        # x >= 0, x <= 0, x != 0 must conflict with all three cited
        table, (ige, ile, ieq) = table_with(
            lin({X: -1}, 0, "<="), lin({X: 1}, 0, "<="), lin({X: 1}, 0, "="))
        s = LraSolver(table)
        assert s.assert_literal(Literal(ige, True)) is None
        assert s.assert_literal(Literal(ile, True)) is None
        conflict = s.assert_literal(Literal(ieq, False))
        if conflict is None:
            v = s.check_full()
            assert v.status == "conflict"
            conflict = v.conflict
        assert (ieq, False) in {(l.atom, l.positive) for l in conflict}

    def test_constant_atom_conflict(self):
        table, (ic,) = table_with(lin({}, 1, "<"))  # 1 < 0: false
        s = LraSolver(table)
        conflict = s.assert_literal(Literal(ic, True))
        assert conflict == [Literal(ic, True)]


class TestBacktracking:
    def test_mark_restores_verdict(self):
        table, (ilt, ieq) = table_with(lin({Y: 1}, 0, "<"), lin({Y: 1}, -2, "="))
        s = LraSolver(table)
        s.assert_literal(Literal(ilt, True))
        mark = s.mark()
        before = s.check_full().status
        s.assert_literal(Literal(ieq, True))
        assert s.check_full().status == "conflict"
        s.backtrack(mark)
        assert s.check_full().status == before == "sat"

    def test_stale_mark(self):
        table, (ilt,) = table_with(lin({Y: 1}, 0, "<"))
        s = LraSolver(table)
        s.assert_literal(Literal(ilt, True))
        mark = s.mark()
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
            marks.append(s.mark())
            states.append(len(s.asserted()))
            s.assert_literal(Literal(i, True))
        for mark, n in zip(reversed(marks), reversed(states)):
            s.backtrack(mark)
            assert len(s.asserted()) == n


class TestDeductions:
    def test_bound_refutation(self):
        table, (ieq1, ieq0) = table_with(lin({X: 1}, -1, "="), lin({X: 1}, 0, "="))
        s = LraSolver(table)
        s.assert_literal(Literal(ieq1, True))
        deds = {d.literal.atom: d for d in s.deductions()}
        assert ieq0 in deds
        assert not deds[ieq0].literal.positive
        assert {(l.atom, l.positive) for l in deds[ieq0].explanation} == {(ieq1, True)}

    def test_deductions_leave_the_tableau_unchanged(self):
        table, ids = table_with(
            lin({X: 1, Y: -1}, -1, "<="), lin({Y: 1}, 0, "<"), lin({X: 1}, -3, "<="),
            lin({X: 1, Y: 1}, -2, "<="), lin({X: 2, Y: -1}, 0, "="))
        s = LraSolver(table)
        for i in ids[:2]:
            assert s.assert_literal(Literal(i, True)) is None
        assert s.check_full().status == "sat"
        state = copy.deepcopy((s.rows, s.values, s.lower, s.upper, s.slack_of))
        assert s.deductions()
        assert (s.rows, s.values, s.lower, s.upper, s.slack_of) == state

    def test_cross_sign_unate(self):
        # x - y <= 1 refutes y - x < -1, which shares its base with opposite sign
        table, (ile, ilt) = table_with(lin({X: 1, Y: -1}, -1, "<="),
                                       lin({X: -1, Y: 1}, 1, "<"))
        s = LraSolver(table)
        s.assert_literal(Literal(ile, True))
        assert [(d.literal, d.explanation) for d in s.deductions()] == \
            [(Literal(ilt, False), (Literal(ile, True),))]

    def test_scaled_unate(self):
        # 2x <= 3 entails x <= 2: the same base x at scales 2 and 1
        table, (i2x, ix) = table_with(lin({X: 2}, -3, "<="), lin({X: 1}, -2, "<="))
        s = LraSolver(table)
        s.assert_literal(Literal(i2x, True))
        assert [(d.literal, d.explanation) for d in s.deductions()] == \
            [(Literal(ix, True), (Literal(i2x, True),))]

    def test_interval_sum(self):
        # x <= 1 and y <= 1 entail x + y <= 2
        table, (ix, iy, isum) = table_with(lin({X: 1}, -1, "<="), lin({Y: 1}, -1, "<="),
                                           lin({X: 1, Y: 1}, -2, "<="))
        s = LraSolver(table)
        s.assert_literal(Literal(ix, True))
        s.assert_literal(Literal(iy, True))
        deds = s.deductions()
        assert [d.literal for d in deds] == [Literal(isum, True)]
        assert set(deds[0].explanation) == {Literal(ix, True), Literal(iy, True)}

    def test_interval_difference_bounds_a_variable(self):
        # x - y <= 1 and y < 0 entail x < 1, hence not (x >= 1)
        table, (idiff, iy, ix) = table_with(lin({X: 1, Y: -1}, -1, "<="),
                                            lin({Y: 1}, 0, "<"), lin({X: -1}, 1, "<="))
        s = LraSolver(table)
        s.assert_literal(Literal(idiff, True))
        s.assert_literal(Literal(iy, True))
        deds = s.deductions()
        assert [d.literal for d in deds] == [Literal(ix, False)]
        assert set(deds[0].explanation) == {Literal(idiff, True), Literal(iy, True)}

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
                if s.assert_literal(Literal(i, rng.random() < 0.7)) is not None:
                    ok = False
                    break
            if not ok or s.check_full().status != "sat":
                continue
            for d in s.deductions():
                # explanation plus the negated literal must be oracle-unsat
                lits = [(table.atom(l.atom), l.positive) for l in d.explanation]
                lits.append((table.atom(d.literal.atom), not d.literal.positive))
                assert not lra_literals_sat(lits)
                checked += 1
        assert checked > 50


class TestValidity:
    def test_pairwise_bound_lemmas_are_valid(self):
        table, (i10, i01, iy2, iylt, iy1) = table_with(
            lin({X: 1}, -1, "="), lin({X: 1}, 0, "="),
            lin({Y: 1}, -2, "="), lin({Y: 1}, 0, "<"), lin({Y: 1}, -1, "="))
        lemmas = [
            Clause((Literal(i10, False), Literal(i01, False))),
            Clause((Literal(iy2, False), Literal(iylt, False))),
            Clause((Literal(iy1, False), Literal(iylt, False))),
        ]
        for lemma in lemmas:
            assert is_valid_lemma(lemma, table) == (True, None)

    def test_trivial_tautology_shape(self):
        table, (ieq,) = table_with(lin({X: 1}, 0, "="))
        lemma = Clause((Literal(ieq, True), Literal(ieq, True)))
        # (x=0 or x=0) is not valid; the real tautology is unconstructible
        ok, counter = is_valid_lemma(lemma, table)
        assert not ok and counter[X] != 0

    def test_invalid_lemma_has_countermodel(self):
        table, (i0, i1) = table_with(lin({X: 1}, 0, "="), lin({X: 1}, -1, "="))
        ok, counter = is_valid_lemma(Clause((Literal(i0, True), Literal(i1, True))), table)
        assert not ok
        assert counter[X] not in (0, 1)

    def test_mixed_theory_clause_is_an_error(self):
        from smtcore.terms import euf_atom
        u, v = Var("u", "U", 0), Var("v", "U", 1)
        table = AtomTable()
        i1 = table.intern(lin({X: 1}, 0, "="))
        i2 = table.intern(euf_atom(u, v))
        with pytest.raises(ValueError, match="mixed"):
            is_valid_lemma(Clause((Literal(i1, True), Literal(i2, True))), table)


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
            lits = [Literal(rng.choice(ids), rng.random() < 0.6) for _ in range(n_lits)]
            # drop contradictory duplicates on the same atom (trail-style input)
            seen = {}
            filtered = []
            for l in lits:
                if l.atom in seen:
                    continue
                seen[l.atom] = l.positive
                filtered.append(l)
            s = PivotWatch(table)
            conflict = None
            for lit in filtered:
                conflict = s.assert_literal(lit)
                if conflict is not None:
                    break
            if conflict is None:
                verdict = s.check_full()
                got_sat = verdict.status == "sat"
                if not got_sat:
                    conflict = verdict.conflict
            else:
                got_sat = False
            fractional_pivots += s.fractional_pivots
            want_sat = lra_literals_sat(
                [(table.atom(l.atom), l.positive) for l in filtered])
            assert got_sat == want_sat, f"trial {trial}"
            if conflict is not None:
                sub = [(table.atom(l.atom), l.positive) for l in conflict]
                assert not lra_literals_sat(sub), f"trial {trial}: unsound conflict"
                asserted_keys = {(l.atom, l.positive) for l in filtered}
                assert all((l.atom, l.positive) in asserted_keys for l in conflict)
        # coefficients up to 3 make pivots divide by 2 or 3, so the verdicts
        # above include tableaux with Fraction coefficients
        assert fractional_pivots > 0
