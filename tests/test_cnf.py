import itertools
import random
import time

import pytest

from oracles import cnf_truth_table_sat
from smtcore import cnf
from smtcore.cnf import CnfError, cnf_convert
from smtcore.parser import parse
from smtcore.terms import PropAtom

PROPS = "(declare-fun a () Bool)(declare-fun b () Bool)(declare-fun c () Bool)(declare-fun d () Bool)"


def convert(text):
    return cnf_convert(parse(PROPS + text))


def test_clause_shaped_assertions_pass_through_verbatim():
    f = convert("(assert (or a (not b) c))")
    assert len(f.clauses) == 1
    assert [l > 0 for l in f.clauses[0]] == [True, False, True]


def test_long_or_with_a_composite_argument_converts_in_linear_time():
    # (and q0 q1) distributes into the literal part: one clause of n literals
    n = 20_000
    text = "".join(f"(declare-fun q{i} () Bool)" for i in range(n))
    text += "(assert (or " + " ".join(f"q{i}" for i in range(n)) + " (and q0 q1)))"
    assertions = parse(text)
    start = time.process_time()
    f = cnf_convert(assertions)
    assert time.process_time() - start < 2.0
    assert len(f.clauses) == 1
    assert list(f.clauses[0]) == list(range(1, n + 1))


def test_single_atom_assertion_is_a_unit_clause():
    f = convert("(assert a)")
    assert len(f.clauses) == 1
    assert len(f.clauses[0]) == 1


def test_every_clause_carries_its_assertion_id():
    f = convert("(assert (and a b))(assert (or c d))")
    assert f.assertion_of == [0, 0, 1]


def test_definitional_translation_shape(monkeypatch):
    # one auxiliary, three definition clauses plus one linking clause
    monkeypatch.setattr(cnf, "MAX_DISTRIBUTE", 1)
    f = convert("(assert (or a (and b c)))")
    assert len(f.clauses) == 4
    aux_atoms = {f.atoms.atom(abs(l)).name
                 for c in f.clauses for l in c
                 if isinstance(f.atoms.atom(abs(l)), PropAtom)
                 and f.atoms.atom(abs(l)).name.startswith("@cnf!")}
    assert len(aux_atoms) == 1
    assert len(f.clauses[-1]) == 2  # linking clause: a or aux


def test_small_formulas_distribute_without_auxiliaries():
    f = convert("(assert (or a (and b c)))")
    assert len(f.clauses) == 2
    assert all(not isinstance(f.atoms.atom(abs(l)), PropAtom)
               or not f.atoms.atom(abs(l)).name.startswith("@cnf!")
               for c in f.clauses for l in c)


def test_tautological_input_clause_rejected():
    with pytest.raises(CnfError, match="valid"):
        convert("(assert (or a (not a)))")


def test_propositionally_valid_assertion_rejected():
    with pytest.raises(CnfError, match="valid"):
        convert("(assert (=> a a))")


def test_assert_false_yields_empty_clause():
    f = convert("(assert false)")
    assert len(f.clauses) == 1 and len(f.clauses[0]) == 0


def test_origin_indices_are_dense():
    # one assertion id a clause, read by the clause's position
    f = convert("(assert (and a (or b c)))(assert d)")
    assert f.assertion_of == [0, 0, 1]


def _eval_tree(node, assignment):
    from smtcore.parser import BAnd, BAtom, BConst, BNot, BOr
    if isinstance(node, BConst):
        return node.value
    if isinstance(node, BAtom):
        return assignment[node.atom]
    if isinstance(node, BNot):
        return not _eval_tree(node.arg, assignment)
    if isinstance(node, BAnd):
        return all(_eval_tree(a, assignment) for a in node.args)
    return any(_eval_tree(a, assignment) for a in node.args)


def _random_tree(rng, atoms, depth):
    from smtcore.parser import BAnd, BAtom, BNot, BOr
    if depth == 0 or rng.random() < 0.3:
        node = BAtom(rng.choice(atoms))
        return BNot(node) if rng.random() < 0.3 else node
    kind = rng.choice([BAnd, BOr])
    children = tuple(_random_tree(rng, atoms, depth - 1)
                     for _ in range(rng.randint(2, 3)))
    node = kind(children)
    return BNot(node) if rng.random() < 0.2 else node


@pytest.mark.parametrize("max_distribute", [8, 0])
def test_conversion_preserves_satisfiability(max_distribute, monkeypatch):
    """Brute-force equisatisfiability over the original atoms, for both the
    distributing and the definitional strategy."""
    monkeypatch.setattr(cnf, "MAX_DISTRIBUTE", max_distribute)
    from smtcore.cnf import CnfError
    from smtcore.parser import AssertionSet
    from smtcore.terms import Declarations

    atoms = [PropAtom(n) for n in "abcd"]
    rng = random.Random(11)
    checked = 0
    for _ in range(250):
        n_asserts = rng.randint(1, 3)
        trees = [(i, _random_tree(rng, atoms, rng.randint(1, 3)))
                 for i in range(n_asserts)]
        aset = AssertionSet(trees, Declarations(), None)
        try:
            formula = cnf_convert(aset)
        except CnfError:
            continue  # a propositionally valid assertion: rejected by design
        checked += 1
        # brute force the source trees over the original atoms
        source_sat = False
        for bits in itertools.product([False, True], repeat=len(atoms)):
            assignment = dict(zip(atoms, bits))
            if all(_eval_tree(t, assignment) for _, t in trees):
                source_sat = True
                break
        cnf_sat = cnf_truth_table_sat(formula.clauses, len(formula.atoms))
        assert cnf_sat == source_sat
    assert checked > 150


def test_traceability_covers_every_assertion():
    f = convert("(assert (and a b))(assert (or (and a c) (and b d)))(assert d)")
    covered = set(f.assertion_of)
    assert covered == {0, 1, 2}
