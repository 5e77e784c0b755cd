import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import formula_from_clauses
from oracles import lra_literals_sat
from smtcore.terms import (
    LOGIC_PROP, REAL, AtomTable, Formula, FunApp, FunSymbol, LinComb, PropAtom, SortError,
    Var, canonical_lin_atom, euf_atom,
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
    """Building a Formula normalizes its clauses of signed atom ids once."""

    def _table(self, n=3):
        table = AtomTable()
        for i in range(n):
            table.intern(PropAtom(f"p{i}"))
        return table

    def test_duplicate_literals_collapse(self):
        f = formula_from_clauses([(2, 1, 2, -3, 1)], self._table())
        assert f.clauses == [(2, 1, -3)]

    def test_tautology_rejected(self):
        with pytest.raises(ValueError, match="tautological"):
            formula_from_clauses([(1, 2), (3, 1, -1)], self._table())

    def test_empty_clause_allowed(self):
        table = self._table()
        assert formula_from_clauses([()], table).clauses == [()]
        assert formula_from_clauses([()], AtomTable()).clauses == [()]

    def test_zero_literal_rejected(self):
        with pytest.raises(LookupError):
            Formula([(1, 0)], self._table(), None, LOGIC_PROP, [0])

    def test_atom_outside_the_table_rejected(self):
        for lit in (4, -4, 99):
            with pytest.raises(LookupError):
                Formula([(1,), (2, lit)], self._table(), None, LOGIC_PROP, [0, 1])

    def test_signed_ids_kept_as_given(self):
        table = AtomTable()
        i1 = table.intern(lin({X: Fraction(1)}, 0, "="))
        i2 = table.intern(lin({X: Fraction(1)}, -1, "="))
        ip = table.intern(PropAtom("A1"))
        f = formula_from_clauses([[i1, -i2, ip], (-ip,)], table)
        assert f.clauses == [(i1, -i2, ip), (-ip,)]
        assert f.logic == "LRA" and f.assertion_of == [0, 1]

    def test_one_assertion_id_a_clause(self):
        with pytest.raises(ValueError, match="assertion ids"):
            Formula([(1,), (2,)], self._table(), None, LOGIC_PROP, [0])

    def test_restrict_reads_the_assertion_ids(self):
        f = Formula([(1,), (2,), (-3,)], self._table(), None, LOGIC_PROP, [5, 5, 7])
        sub = f.restrict([2, 0])
        assert sub.clauses == [(1,), (-3,)] and sub.assertion_of == [5, 7]
        assert f.assertion_ids([0, 1]) == (5,) and f.assertion_ids([1, 2]) == (5, 7)


class TestAtomTable:
    def _table(self):
        table = AtomTable()
        a1 = lin({X: Fraction(1)}, 0, "=")
        a2 = lin({X: Fraction(1)}, -1, "=")
        p = PropAtom("A1")
        return table, table.intern(a1), table.intern(a2), table.intern(p)

    def test_t2p_empty_clause(self):
        """An empty clause needs no translation: a Formula over a table of live
        atoms keeps it as () beside the clauses that name them."""
        table, i1, i2, ip = self._table()
        f = formula_from_clauses([(), (i1, -i2), (-ip,)], table)
        assert f.clauses == [(), (i1, -i2), (-ip,)]
        assert f.logic == "LRA" and len(f.clauses[0]) == 0

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
