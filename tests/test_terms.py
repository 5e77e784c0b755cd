import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import lra_literals_sat
from smtcore.terms import (
    REAL, AtomTable, Clause, FunApp, FunSymbol, LinComb, Literal,
    PropAtom, SortError, Var, canonical_lin_atom, euf_atom,
)

X = Var("x", REAL, 0)
Y = Var("y", REAL, 1)


def lin(coeffs, offset, rel):
    return canonical_lin_atom(LinComb.build(coeffs, Fraction(offset)), rel)


class TestCanonicalization:
    def test_scaled_spellings_intern_to_one_id(self):
        table = AtomTable()
        a = lin({X: Fraction(2)}, -2, "<=")   # 2x - 2 <= 0
        b = lin({X: Fraction(1)}, -1, "<=")   # x - 1 <= 0
        assert table.intern(a) == table.intern(b) == 1

    def test_intern_is_idempotent(self):
        table = AtomTable()
        a = lin({X: Fraction(1)}, 0, "=")
        assert table.intern(a) == table.intern(a)

    def test_first_interned_atom_gets_variable_one(self):
        table = AtomTable()
        assert table.intern(lin({X: Fraction(1)}, 0, "=")) == 1

    def test_equality_sign_normalized(self):
        a = lin({X: Fraction(-1), Y: Fraction(2)}, 3, "=")
        b = lin({X: Fraction(1), Y: Fraction(-2)}, -3, "=")
        assert a == b

    def test_inequalities_keep_orientation(self):
        le = lin({X: Fraction(1)}, 0, "<=")       # x <= 0
        ge = lin({X: Fraction(-1)}, 0, "<=")      # -x <= 0, i.e. x >= 0
        assert le != ge

    def test_constant_atoms_reduce_to_sign(self):
        assert lin({}, -7, "<") == lin({}, -2, "<")
        assert lin({}, 5, "<=") == lin({}, 1, "<=")
        assert lin({}, 0, "=").offset == 0

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6),
           st.integers(1, 5), st.integers(1, 5),
           st.sampled_from(["<=", "<", "="]))
    def test_positive_scaling_preserves_identity(self, cx, cy, off, num, den, rel):
        if cx == 0 and cy == 0:
            return
        k = Fraction(num, den)
        a = lin({X: Fraction(cx), Y: Fraction(cy)}, off, rel)
        b = lin({X: Fraction(cx) * k, Y: Fraction(cy) * k}, Fraction(off) * k, rel)
        assert a == b

    def test_same_id_implies_same_solution_set(self):
        # sampled pairs checked through the Fourier-Motzkin oracle
        rng = random.Random(7)
        rels = ["<=", "<", "="]
        for _ in range(300):
            cx, cy = rng.randint(-4, 4), rng.randint(-4, 4)
            if cx == 0 and cy == 0:
                continue
            off = rng.randint(-4, 4)
            rel = rng.choice(rels)
            k = Fraction(rng.randint(1, 6), rng.randint(1, 6))
            a = lin({X: Fraction(cx), Y: Fraction(cy)}, off, rel)
            b = lin({X: Fraction(cx) * k, Y: Fraction(cy) * k},
                    Fraction(off) * k, rel)
            assert a == b
            # a and not-b simultaneously: must be unsatisfiable both ways
            assert not lra_literals_sat([(a, True), (b, False)])
            assert not lra_literals_sat([(a, False), (b, True)])


class TestEufAtoms:
    U = "U"
    a = Var("a", U, 0)
    b = Var("b", U, 1)
    f = FunSymbol("f", (U,), U)

    def test_sides_are_ordered(self):
        assert euf_atom(self.a, self.b) == euf_atom(self.b, self.a)

    def test_sort_mismatch_rejected(self):
        with pytest.raises(SortError):
            euf_atom(self.a, X)

    def test_real_equality_is_not_uninterpreted(self):
        with pytest.raises(SortError):
            euf_atom(X, Y)

    def test_function_arity_checked(self):
        with pytest.raises(SortError):
            FunApp(self.f, (self.a, self.b))


class TestClause:
    def test_duplicate_literals_collapse(self):
        c = Clause((Literal(1, True), Literal(1, True), Literal(2, False)))
        assert len(c.lits) == 2

    def test_tautology_rejected(self):
        with pytest.raises(ValueError):
            Clause((Literal(1, True), Literal(1, False)))

    def test_empty_clause_allowed(self):
        assert len(Clause(())) == 0


class TestAtomTable:
    def _table(self):
        table = AtomTable()
        a1 = lin({X: Fraction(1)}, 0, "=")
        a2 = lin({X: Fraction(1)}, -1, "=")
        p = PropAtom("A1")
        return table, table.intern(a1), table.intern(a2), table.intern(p)

    def test_t2p_preserves_polarity(self):
        table, i1, i2, ip = self._table()
        clause = Clause((Literal(i1, True), Literal(i2, False), Literal(ip, True)))
        assert table.t2p(clause) == [i1, -i2, ip]

    def test_t2p_empty_clause(self):
        table, *_ = self._table()
        assert table.t2p(Clause(())) == []

    def test_round_trip_on_every_live_index(self):
        table, i1, i2, ip = self._table()
        for idx in (i1, i2, ip):
            assert table.intern(table.atom(idx)) == idx

    def test_interning_is_deterministic(self):
        runs = []
        for _ in range(2):
            table = AtomTable()
            ids = [table.intern(lin({X: Fraction(c)}, -c, "<=")) for c in (2, 3, 4)]
            runs.append(ids)
        assert runs[0] == runs[1] == [1, 1, 1]  # all scale to x - 1 <= 0
