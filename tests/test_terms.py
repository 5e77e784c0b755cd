import dataclasses
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import formula_from_clauses, lin_comb
from oracles import lra_literals_sat
from smtcore.terms import (
    LOGIC_PROP, REAL, AtomTable, EufAtom, Formula, FunApp, FunSymbol, LinAtom, PropAtom,
    SortError, Var, canonical_lin_atom, euf_atom,
)

X = Var("x", REAL, 0)
Y = Var("y", REAL, 1)


def lin(coeffs, offset, rel):
    return canonical_lin_atom(lin_comb(coeffs, Fraction(offset)), rel)


def general_canonical(comb, rel):
    """canonical_lin_atom without its all-int path: the denominators of
    every number are cleared, whatever its type, before the gcd."""
    if not comb.terms:
        return LinAtom((), (comb.offset > 0) - (comb.offset < 0), rel)
    denom = comb.offset.denominator
    for _, c in comb.terms:
        denom = lcm(denom, c.denominator)
    ints = [c.numerator * (denom // c.denominator) for _, c in comb.terms]
    off = comb.offset.numerator * (denom // comb.offset.denominator)
    g = gcd(off, *ints)
    if rel == "=" and ints[0] < 0:
        g = -g
    return LinAtom(tuple((v, n // g) for (v, _), n in zip(comb.terms, ints)), off // g, rel)


_NUMBERS = st.one_of(st.integers(-12, 12),
                     st.fractions(min_value=-6, max_value=6, max_denominator=6))


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

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.lists(_NUMBERS, max_size=4), _NUMBERS, st.sampled_from(["<=", "<", "="]),
           st.booleans())
    def test_the_int_path_gives_the_general_result(self, coeffs, offset, rel, ints):
        """With every number an int, canonical_lin_atom skips clearing
        denominators; its atom, number types included, is the one the
        general path gives, and so are those of Fraction forms."""
        if ints:
            coeffs = [int(c) for c in coeffs]
            offset = int(offset)
        variables = [X, Y, Var("z", REAL, 2), Var("w", REAL, 3)]
        comb = lin_comb(dict(zip(variables, coeffs)), offset)
        atom = canonical_lin_atom(comb, rel)
        assert repr(atom) == repr(general_canonical(comb, rel))
        assert all(type(c) is int for _, c in atom.coeffs) and type(atom.offset) is int

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


class TestHashedOnce:
    """Terms and atoms compute their hash when they are built.  It must be
    the hash a frozen dataclass would generate, that of the tuple of the
    compared fields, so that every set and dict keyed by them iterates in
    the same order and every search stays the same."""
    U = "U"
    a = Var("a", U, 0)
    b = Var("b", U, 1)
    f = FunSymbol("f", (U,), U)
    g = FunSymbol("g", (U, U), U)

    def _examples(self):
        fa = FunApp(self.f, (self.a,))
        gab = FunApp(self.g, (self.a, fa))
        yield from (X, Y, self.a, fa, gab, FunApp(self.f, (gab,)))
        yield from (euf_atom(self.a, self.b), euf_atom(fa, gab), euf_atom(self.b, self.b))
        yield from (lin({X: Fraction(2), Y: Fraction(-4)}, 6, "<="), lin({}, 3, "<"),
                    lin({Y: Fraction(1, 3)}, Fraction(1, 2), "="))
        yield from (PropAtom("p"), PropAtom("@cnf!3"))

    def test_hash_is_that_of_the_tuple_of_fields(self):
        kinds = set()
        for obj in self._examples():
            values = tuple(getattr(obj, f.name) for f in dataclasses.fields(obj) if f.compare)
            assert hash(obj) == hash(values), obj
            kinds.add(type(obj))
        assert kinds == {Var, FunApp, EufAtom, LinAtom, PropAtom}

    def test_equal_objects_built_apart_hash_alike(self):
        for obj in self._examples():
            values = [getattr(obj, f.name) for f in dataclasses.fields(obj) if f.init]
            twin = type(obj)(*values)
            assert twin is not obj and twin == obj and hash(twin) == hash(obj)
            assert repr(twin) == repr(obj) and "_hash" not in repr(obj)

    def test_a_copy_from_another_process_hashes_as_built_here(self):
        """A string hashes differently under another hash seed, so an
        unpickled term must not keep the hash it was pickled with."""
        prog = ("import pickle, sys\n"
                "from test_terms import TestHashedOnce\n"
                "sys.stdout.buffer.write(pickle.dumps(list(TestHashedOnce()._examples())))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                   PYTHONHASHSEED="2" if os.environ.get("PYTHONHASHSEED") == "1" else "1")
        proc = subprocess.run([sys.executable, "-c", prog], capture_output=True, env=env,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        here = list(self._examples())
        copies = pickle.loads(proc.stdout)
        assert copies == here and [hash(c) for c in copies] == [hash(h) for h in here]
        assert set(copies) == set(here)

    def test_terms_stay_immutable(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            self.a.index = 5

    def test_function_arity_and_sorts_still_checked(self):
        with pytest.raises(SortError, match="f expects 1 arguments, got 2"):
            FunApp(self.f, (self.a, self.b))
        with pytest.raises(SortError, match="g expects 2 arguments, got 0"):
            FunApp(self.g, ())
        with pytest.raises(SortError, match="argument of f has sort Real, expected U"):
            FunApp(self.f, (X,))
        with pytest.raises(SortError, match="argument of g has sort Bool, expected U"):
            FunApp(self.g, (self.a, Var("p", "Bool", 2)))


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
