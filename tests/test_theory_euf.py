import itertools
import random

import pytest

from gen import random_euf_atoms
from oracles import clause_valid, conflict_lemma_problem, euf_literals_sat
from smtcore.check import validity_check
from smtcore.terms import AtomTable, FunApp, FunSymbol, Var, euf_atom
from smtcore.theory import EufSolver

U = "U"

# deductions that the replaying solver, which the undo trail replaced, found
# on the seeded corpus of test_deductions_are_sound_and_complete_for_equalities
DEDUCTION_FLOOR = 45

a = Var("a", U, 0)
b = Var("b", U, 1)
c = Var("c", U, 2)
f = FunSymbol("f", (U,), U)


def setup_atoms(*atoms):
    table = AtomTable()
    return table, [table.intern(x) for x in atoms]


def _facts(table, lits):
    """(atom, polarity) pairs of signed atom ids, as the oracle takes them."""
    return [(table.atom(abs(l)), l > 0) for l in lits]


def _conflict_lemmas(s):
    """The lemmas of the conflict `s` just reported, which must keep the
    contract the engine relies on, and the asserted literals they negate."""
    clauses = s.conflict_clauses(itertools.count(max([len(s.table), *s.defined]) + 1).__next__)
    assert conflict_lemma_problem(s, "EUF", clauses) is None
    asserted = set(s._asserted)
    return clauses, {-lit for clause in clauses for lit in clause if -lit in asserted}


def test_transitivity_conflict():
    table, (iab, ibc, iac) = setup_atoms(euf_atom(a, b), euf_atom(b, c), euf_atom(a, c))
    s = EufSolver(table)
    assert not s.assert_literal(iab)
    assert not s.assert_literal(ibc)
    assert s.assert_literal(-iac)
    clauses, premises = _conflict_lemmas(s)
    assert clauses == [(-iab, -ibc, iac)]
    assert premises == {iab, ibc, -iac}


def test_congruence_conflict():
    fa = FunApp(f, (a,))
    ffa = FunApp(f, (fa,))
    table, (i1, i2) = setup_atoms(euf_atom(fa, a), euf_atom(ffa, a))
    s = EufSolver(table)
    assert not s.assert_literal(i1)
    assert s.assert_literal(-i2)
    clauses, premises = _conflict_lemmas(s)
    # f(a) = a gives f(f(a)) = f(a) by congruence, on a variable the
    # solver defines, and then f(f(a)) = a
    assert s.defined == {3: euf_atom(fa, ffa)}
    assert clauses == [(-i1, 3), (-i1, -3, i2)]
    assert premises == {i1, -i2}


def test_single_assert_is_fine():
    table, (iab,) = setup_atoms(euf_atom(a, b))
    s = EufSolver(table)
    assert not s.assert_literal(iab)
    assert not s.check_full()


def test_witness_is_a_partition():
    table, (iab, iac) = setup_atoms(euf_atom(a, b), euf_atom(a, c))
    s = EufSolver(table)
    s.assert_literal(iab)
    s.assert_literal(-iac)
    assert not s.check_full()
    witness = s.witness()
    assert witness[a] == witness[b]
    assert witness[a] != witness[c]


def test_deduction_by_congruence():
    fa, fb = FunApp(f, (a,)), FunApp(f, (b,))
    table, (iab, ifafb) = setup_atoms(euf_atom(a, b), euf_atom(fa, fb))
    s = EufSolver(table)
    s.assert_literal(iab)
    by_atom = {abs(clause[-1]): clause for clause in s.deductions()}
    assert by_atom[ifafb] == (-iab, ifafb)


def test_no_deductions_without_assertions():
    table, _ = setup_atoms(euf_atom(a, b))
    assert EufSolver(table).deductions() == []


def test_negative_deduction_through_disequality():
    table, (iab, ibc, iac) = setup_atoms(euf_atom(a, b), euf_atom(b, c), euf_atom(a, c))
    s = EufSolver(table)
    s.assert_literal(iab)
    s.assert_literal(-iac)
    deds = {abs(clause[-1]): clause for clause in s.deductions()}
    assert ibc in deds and deds[ibc][-1] == -ibc


def test_backtrack_replay_equivalence():
    table, (iab, ibc, iac) = setup_atoms(euf_atom(a, b), euf_atom(b, c), euf_atom(a, c))
    s = EufSolver(table)
    s.assert_literal(iab)
    mark = len(s._asserted)
    before = s.check_full()
    before_witness = s.witness()
    s.assert_literal(-iac)
    s.assert_literal(ibc)
    s.backtrack(mark)
    after = s.check_full()
    assert not before and not after
    assert before_witness == s.witness()
    assert s._asserted == [iab]


def test_backtrack_to_initial_mark_empties_everything():
    table, (iab,) = setup_atoms(euf_atom(a, b))
    s = EufSolver(table)
    base = len(s._asserted)
    s.assert_literal(iab)
    s.backtrack(base)
    assert s._asserted == []
    assert not s.check_full()


def test_lifo_marks_restore_snapshots():
    table, ids = setup_atoms(euf_atom(a, b), euf_atom(b, c), euf_atom(a, c))
    s = EufSolver(table)
    snapshots = []
    marks = []
    for i in ids:
        marks.append(len(s._asserted))
        snapshots.append(list(s._asserted))
        s.assert_literal(i)
    for mark, snap in zip(reversed(marks), reversed(snapshots)):
        s.backtrack(mark)
        assert s._asserted == snap


def test_stale_mark_is_an_error():
    table, (iab,) = setup_atoms(euf_atom(a, b))
    s = EufSolver(table)
    s.assert_literal(iab)
    mark = len(s._asserted)
    s.backtrack(0)
    with pytest.raises(ValueError, match="stale"):
        s.backtrack(mark)


def test_wrong_theory_literal_rejected():
    from fractions import Fraction
    from smtcore.terms import LinComb, REAL, canonical_lin_atom
    x = Var("x", REAL, 0)
    table = AtomTable()
    ix = table.intern(canonical_lin_atom(LinComb(((x, Fraction(1)),), Fraction(0)), "<="))
    with pytest.raises(ValueError, match="does not belong"):
        EufSolver(table).assert_literal(ix)


def test_only_an_equality_over_the_solver_terms_is_defined_past_the_table():
    table, (iab, ibc) = setup_atoms(euf_atom(a, b), euf_atom(b, c))
    s = EufSolver(table)
    assert s.atom_var(euf_atom(b, c), lambda: 4) == ibc
    assert s.defined == {}
    assert s.atom_var(euf_atom(a, c), lambda: 3) == 3
    assert s.defined == {3: euf_atom(a, c)}
    assert s.atom_var(euf_atom(c, a), lambda: 4) == 3
    assert not s.assert_literal(3) and not s.assert_literal(iab)
    assert s.assert_literal(-ibc)
    _clauses, premises = _conflict_lemmas(s)
    assert premises == {3, iab, -ibc}


def test_valid_lemma_examples():
    table, (iab, ibc, iac) = setup_atoms(euf_atom(a, b), euf_atom(b, c), euf_atom(a, c))
    check = validity_check("EUF", table)
    for clause, valid in [((-iab, -ibc, iac), True), ((iab, ibc), False)]:
        assert check.valid(frozenset(clause)) == valid
        assert clause_valid(frozenset(clause), table.atom) == valid


class TestAgainstNaiveClosure:
    def test_conflicts_and_verdicts_match_the_oracle(self):
        rng = random.Random(13)
        disagreements = 0
        for _ in range(600):
            atoms = random_euf_atoms(rng, rng.randint(2, 6))
            table = AtomTable()
            ids = [table.intern(x) for x in atoms]
            lits = [i if rng.random() < 0.5 else -i for i in ids]
            s = EufSolver(table)
            got_sat = not (any(s.assert_literal(lit) for lit in lits) or s.check_full())
            if not got_sat:
                # the asserted literals the lemmas negate must be oracle-unsat
                _clauses, premises = _conflict_lemmas(s)
                assert not euf_literals_sat(_facts(table, premises))
            want_sat = euf_literals_sat(_facts(table, lits))
            if got_sat != want_sat:
                disagreements += 1
        assert disagreements == 0


def _partition(solver):
    """The classes of the atom terms, independent of class ids."""
    witness = solver.witness()
    classes: dict = {}
    for _, atom in solver.table.items():
        for term in (atom.lhs, atom.rhs):
            classes.setdefault(witness[term], set()).add(term)
    return {frozenset(members) for members in classes.values()}


def _observed(solver):
    return (not solver.check_full(), _partition(solver),
            {clause[-1] for clause in solver.deductions()})


class TestUndoTrail:
    def test_backtrack_matches_a_fresh_solver_on_the_prefix(self):
        rng = random.Random(29)
        backtracks = 0
        for _ in range(300):
            atoms = random_euf_atoms(rng, rng.randint(3, 9))
            table = AtomTable()
            ids = [table.intern(x) for x in atoms]
            s = EufSolver(table)
            marks = []
            for _ in range(rng.randint(4, 20)):
                op = rng.random()
                taken = {abs(l) for l in s._asserted}
                free = [i for i in ids if i not in taken]
                if op < 0.55 and free:
                    i = rng.choice(free)
                    s.assert_literal(i if rng.random() < 0.6 else -i)
                elif op < 0.8:
                    marks.append(len(s._asserted))
                elif marks:
                    # backtracking drops the marks above its target, so
                    # every kept mark stays live
                    mark = rng.choice(marks)
                    marks = [m for m in marks if m <= mark]
                    s.backtrack(mark)
                    backtracks += 1
                    fresh = EufSolver(table)
                    for lit in s._asserted:
                        fresh.assert_literal(lit)
                    assert _observed(s) == _observed(fresh)
        assert backtracks > 200


class TestDeductions:
    def test_deductions_are_sound_and_complete_for_equalities(self):
        rng = random.Random(31)
        checked = 0
        for _ in range(500):
            atoms = random_euf_atoms(rng, rng.randint(2, 7))
            table = AtomTable()
            ids = [table.intern(x) for x in atoms]
            s = EufSolver(table)
            picked = rng.sample(ids, rng.randint(1, len(ids)))
            if any(s.assert_literal(i if rng.random() < 0.7 else -i) for i in picked):
                continue
            if s.check_full():
                continue
            asserted = list(s._asserted)
            facts = _facts(table, asserted)
            deduced = {}
            for clause in s.deductions():
                negation = [-lit for lit in clause]  # the explanation, then the literal negated
                assert set(negation[:-1]) <= set(asserted)
                # explanation plus the negated literal must be oracle-unsat
                assert not euf_literals_sat(_facts(table, negation))
                deduced[abs(clause[-1])] = clause[-1] > 0
                checked += 1
            for i in ids:
                if i in picked:
                    continue
                if not euf_literals_sat(facts + [(table.atom(i), False)]):
                    assert deduced.get(i) is True
        assert checked >= DEDUCTION_FLOOR
