import itertools
import random
import time

import pytest

from oracles import cnf_truth_table_sat, unnormalized_clauses
from smtcore import cnf
from smtcore.cnf import CnfError, cnf_convert
from smtcore.parser import AssertionSet, parse
from smtcore.sat import sat_solve
from smtcore.terms import Declarations, PropAtom

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


def test_auxiliaries_skip_declared_propositions():
    # the parser rejects '@' names, so only an assertion set built through
    # the API can declare one an auxiliary would otherwise take
    decls = Declarations()
    taken = [decls.declare_prop(name) for name in ("@cnf!0", "@cnf!1")]
    props = [decls.declare_prop(name) for name in "abcdefgh"]
    # (or (and a b) (and c d) (and e f) (and g h)) distributes to 16 clauses
    tree = ("or", [("and", [("lit", props[i], True), ("lit", props[i + 1], True)])
                   for i in range(0, 8, 2)])
    f = cnf_convert(AssertionSet([(0, tree), (1, ("lit", taken[1], False))], decls, None))
    aux = {f.atoms.atom(abs(l)) for c, aid in zip(f.clauses, f.assertion_of) if aid == 0
           for l in c} - set(props)
    assert len(aux) == 4 and aux.isdisjoint(taken)


def test_small_formulas_distribute_without_auxiliaries():
    f = convert("(assert (or a (and b c)))")
    assert len(f.clauses) == 2
    assert all(not isinstance(f.atoms.atom(abs(l)), PropAtom)
               or not f.atoms.atom(abs(l)).name.startswith("@cnf!")
               for c in f.clauses for l in c)


def _or_of_pairs(tag, n):
    return ("or", [("and", [f"{tag}a{i}", f"{tag}b{i}"]) for i in range(n)])


def _leaves(node):
    return [node] if isinstance(node, str) else [x for c in node[1] for x in _leaves(c)]


def _holds(node, truth):
    if isinstance(node, str):
        return truth[node]
    return (any if node[0] == "or" else all)(_holds(c, truth) for c in node[1])


def _sexpr(node):
    return node if isinstance(node, str) else f"({node[0]} {' '.join(map(_sexpr, node[1]))})"


@pytest.mark.parametrize("tree, clauses, atoms", [
    (_or_of_pairs("", 13), 40, 39),                               # an or past the guard
    (("and", ["p", _or_of_pairs("", 13)]), 41, 40),               # ... under an and
    (("and", [_or_of_pairs("", 12), _or_of_pairs("c", 12)]), 74, 72),  # an and past it
])
def test_distribution_past_the_guard_falls_back_to_definitions(tree, clauses, atoms):
    text = "".join(f"(declare-fun {name} () Bool)" for name in _leaves(tree))
    f = cnf_convert(parse(text + f"(assert {_sexpr(tree)})"))
    assert (len(f.clauses), len(f.atoms)) == (clauses, atoms)
    verdict = sat_solve(f.clauses)
    assert verdict.status == "sat"
    assert _holds(tree, {atom.name: verdict.model[var] for var, atom in f.atoms.items()})


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


def _random_formula(rng, depth):
    """A random formula over the propositions a, b, c and d, as its text
    and its truth value: a function of an assignment (name -> bool)."""
    if depth == 0 or rng.random() < 0.25:
        leaf = rng.choice("abcdabcdabcdTF")
        if leaf in "TF":
            return ("true", lambda v: True) if leaf == "T" else ("false", lambda v: False)
        return leaf, lambda v: v[leaf]
    op = rng.choice(["not", "and", "or", "=>", "ite"])
    arity = {"not": 1, "and": rng.randint(1, 3), "or": rng.randint(1, 3),
             "=>": rng.randint(2, 3), "ite": 3}[op]
    args = [_random_formula(rng, depth - 1) for _ in range(arity)]
    text = f"({op} {' '.join(t for t, _ in args)})"
    fs = [f for _, f in args]
    if op == "not":
        return text, lambda v: not fs[0](v)
    if op == "and":
        return text, lambda v: all(f(v) for f in fs)
    if op == "or":
        return text, lambda v: any(f(v) for f in fs)
    if op == "=>":
        return text, lambda v: not all(f(v) for f in fs[:-1]) or fs[-1](v)
    return text, lambda v: fs[1](v) if fs[0](v) else fs[2](v)


@pytest.mark.parametrize("max_distribute", [8, 0])
def test_conversion_preserves_satisfiability(max_distribute, monkeypatch):
    """Brute-force equisatisfiability through the parser, for both the
    distributing and the definitional strategy: random assertions are
    drawn as text, and their satisfiability over the four propositions is
    compared with that of `cnf_convert(parse(text))`.  This checks the
    parser's reading of not, =>, ite and the constants at either polarity
    end to end."""
    monkeypatch.setattr(cnf, "MAX_DISTRIBUTE", max_distribute)
    rng = random.Random(11)
    checked = 0
    for _ in range(250):
        drawn = [_random_formula(rng, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        try:
            formula = convert("".join(f"(assert {text})" for text, _ in drawn))
        except CnfError:
            continue  # a propositionally valid assertion: rejected by design
        checked += 1
        source_sat = any(
            all(value(dict(zip("abcd", bits))) for _, value in drawn)
            for bits in itertools.product([False, True], repeat=4))
        cnf_sat = cnf_truth_table_sat(formula.clauses, len(formula.atoms))
        assert cnf_sat == source_sat, [text for text, _ in drawn]
    assert checked > 150


@pytest.mark.parametrize("max_distribute", [8, 0])
def test_every_path_emits_normalized_clauses(max_distribute, monkeypatch):
    """Clause-shaped assertions, distribution and the definitional
    translation each emit distinct literals over the table, never a
    literal beside its complement, on the random formulas above and on
    the trees past the distribution guard."""
    monkeypatch.setattr(cnf, "MAX_DISTRIBUTE", max_distribute)
    rng = random.Random(5)
    texts = ["".join(f"(assert {_random_formula(rng, rng.randint(1, 3))[0]})"
                     for _ in range(rng.randint(1, 3))) for _ in range(300)]
    texts += ["(assert (or a a b (not c) b))", "(assert (and (or a a) (or b (not b) c)))",
              "(assert (or (and a b) (and a (not b)) (and a c)))"]
    converted = 0
    for text in texts:
        try:
            formula = convert(text)
        except CnfError:
            continue
        converted += 1
        assert unnormalized_clauses(formula) == [], text
    for tree in (_or_of_pairs("", 13), ("and", [_or_of_pairs("", 12), _or_of_pairs("c", 12)])):
        decls = "".join(f"(declare-fun {name} () Bool)" for name in _leaves(tree))
        assert unnormalized_clauses(cnf_convert(parse(decls + f"(assert {_sexpr(tree)})"))) == []
    assert converted > 200


def test_traceability_covers_every_assertion():
    f = convert("(assert (and a b))(assert (or (and a c) (and b d)))(assert d)")
    covered = set(f.assertion_of)
    assert covered == {0, 1, 2}
