"""The front end's output is pinned: `cnf_convert(parse(text))` must give
the same atom table (ids and atoms, with their number types) and the same
clauses (literals and origins), and a rejected input the same error, as the
two-pass reader and the term-by-term arithmetic it replaced.

Each corpus is reduced to one SHA-256 digest.  The digests were computed on
that earlier front end; a mismatch means the output changed.  To find the
first instance that differs, compare `outcome(text)` across the two
versions on the corpus that fails.  A change to a generator
(`perfbench/workloads.py`, `tests/gen.py` or the ones below) changes the
corpus rather than the front end: recompute the digests then, on the
commit before it.
"""
import dataclasses
import hashlib
import random
import sys
from pathlib import Path

import pytest

import gen
from oracles import unnormalized_clauses
from smtcore.cnf import CnfError, cnf_convert
from smtcore.parser import ParseError, parse, render_instance
from smtcore.terms import REAL, Declarations, SortError

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

PER_SEED = 20


def outcome(text: str) -> str:
    """Everything the front end produces for `text`, as one string."""
    try:
        formula = cnf_convert(parse(text))
    except (ParseError, CnfError, SortError) as exc:
        return f"error {type(exc).__name__} {exc}\n"
    lines = [formula.logic]
    lines += [f"{i} {atom!r}" for i, atom in formula.atoms.items()]
    lines += [f"{list(clause)} Original(index={i}, assertion_id={aid})"
              for i, (clause, aid) in enumerate(zip(formula.clauses, formula.assertion_of))]
    return "\n".join(lines) + "\n"


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(hashlib.sha256(outcome(text).encode()).digest())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# The benchmark's generators
# ---------------------------------------------------------------------------

PERFBENCH_DIGESTS = {
    ("lra-core", 1):
        "4cade721cfc29be4fbd2a9c6251fb7656d755d64a19533906f1e6606c0f3ba60",
    ("lra-core", 3):
        "07c908131ab2be9836f78653617d42e82911ebf10ae18bcbb01a5ed980185245",
    ("lra-core", 9001):
        "6d0ba5298ab99908e0cf21313808900af872c1163b98d92850daef1ac192a0a9",
    ("euf-core", 1):
        "ef95a1caae6b15cc1bacb5df032b14f5581d83f76c8d248873597ffb71d3d9c3",
    ("euf-core", 3):
        "51c74052d897ed44597f5a00809ef417eca7780251ec6f87887b12252abeb5a0",
    ("euf-core", 9001):
        "b7265dd56eb4dee9706225db81dd425e8019be9296dd908bd1d47d94b05a3aeb",
    ("prop-core", 1):
        "efe7280d1f199f132f02bc966db03bfbbcfea55cac97c9891a30b9529fc83cca",
    ("prop-core", 3):
        "76b012cfcd12d73770ae9fb52ada79a512acc1259a1882b21b46328ad7e8e309",
    ("prop-core", 9001):
        "dd1969a85d9922b889162229171b2911057ee08d67672c760052587510327bbe",
    ("mus-enum", 1):
        "eb44c86be494823fe49be805be28d4a2667efdf0c3c6a51339a84a390f12eb2b",
    ("mus-enum", 3):
        "3093e2e97155ef5889e65156273e4bb05678dcf3f86e5b5d3bf72bb76bb2087b",
    ("mus-enum", 9001):
        "3391ec86986a14c7c0282aaf7e521de945e5094b13ab676095a864637c2b75b6",
    # the benchmark's usual seeds, computed on the front end before its
    # linear atoms took an all-int path and its applications were shared
    ("euf-core", 2025):
        "e7a6e8d3f60bc54481a3bd75d3b1a4f66c4a9f9e117c940633fc8bdd828971a9",
    ("euf-core", 3131):
        "b7f0e460cbb4fdd5dd8af7ba6ac506bb2dee26cbba89ee0bc373c36c1797b06b",
    ("lra-core", 2025):
        "153406c1015a360ce4b4be8c169bb67350b2b6bb4d0329f04b4cf77879ff434c",
    ("lra-core", 3131):
        "9a71e67f8f65e1528a58bc77c4082cba92a455c7608efe8141aa199c8d4364f0",
    ("mus-enum", 2025):
        "ada19ac4d319ea0c1d28ba2341e6bbb800f2cfd0e711dc622b3056f0176cb55f",
    ("mus-enum", 3131):
        "33790738aa26bd2c79771487f97a43a5d6ab9bac400b6915ab854c66e3af322e",
    ("prop-core", 2025):
        "9a4fcda503b2179209cb1a4a2fa6b74633d7226a00177e3ca96aecf6b53139fa",
    ("prop-core", 3131):
        "1d6ab1269c6e600747a55d57a18b649930afc65ea2c10402c6af6ae56de5aa7e",
}


@pytest.mark.parametrize("name, seed", sorted(PERFBENCH_DIGESTS))
def test_perfbench_corpora(name, seed):
    workload = workloads.WORKLOADS[name]
    corpus = workloads.build_corpus(workload, seed, PER_SEED / workload.per_second)
    assert len(corpus) == PER_SEED
    assert digest(inst.text for inst in corpus) == PERFBENCH_DIGESTS[name, seed]


# ---------------------------------------------------------------------------
# tests/gen.py formulas, rendered back to text
# ---------------------------------------------------------------------------

def _declared(formula, reals=(), consts=(), funs=()):
    decls = Declarations()
    if consts:
        decls.declare_sort("U")
    for name in reals:
        decls.declare_var(name, REAL)
    for name in consts:
        decls.declare_var(name, "U")
    for name, arity in funs:
        decls.declare_fun(name, ("U",) * arity, "U")
    return render_instance(dataclasses.replace(formula, declarations=decls))


def _gen_texts(seed: int) -> list[str]:
    rng = random.Random(seed)
    return [
        _declared(gen.random_formula(rng, "LRA"), reals="xyz"),
        _declared(gen.random_formula(rng, "EUF"), consts="abcd", funs=[("f", 1), ("g", 2)]),
        _declared(gen.random_difference_formula(rng, 6, 24, 3),
                  reals=[f"r{i}" for i in range(6)]),
        _declared(gen.random_uf_formula(rng, 10, 30, 2),
                  consts=[f"c{i}" for i in range(10)], funs=[("h", 1)]),
    ]


GEN_DIGEST = "645bef42ee800c5e74a0782d5f50d5dcf7925d615953b471574f821f070a31da"


def test_rendered_gen_formulas():
    assert digest(t for seed in range(25) for t in _gen_texts(seed)) == GEN_DIGEST


# ---------------------------------------------------------------------------
# Random arithmetic and Boolean structure, well-formed or not
# ---------------------------------------------------------------------------

_PRELUDE = ("(declare-fun x () Real)(declare-fun y () Real)(declare-fun z () Real)"
            "(declare-sort U 0)(declare-fun a () U)(declare-fun b () U)"
            "(declare-fun f (U) U)(declare-fun p () Bool)(declare-fun q () Bool)"
            "(declare-fun r () Bool)\n")
_NUMERALS = ["0", "1", "2", "3", "-2", "0.5", "1.25", "10", "(- 4)", "(/ 1 3)", "(/ 6 4)"]
_BAD_TERMS = ["a", "(f a)", "(f x)", "w", "f", "(* x y)", "(/ x 0)", "(/ 1 x)", "(+)",
              "(-)", "(* 2)", "(/ 1)", "()", "((x))", "(g x)", "1.5.2", "p"]


def _arith(rng: random.Random, depth: int, bad: float) -> str:
    if rng.random() < bad:
        return rng.choice(_BAD_TERMS)
    if depth == 0 or rng.random() < 0.35:
        return rng.choice(["x", "y", "z"] + _NUMERALS)
    op = rng.choice(["+", "-", "-", "*", "*", "/"])
    if op == "*":
        args = [rng.choice(_NUMERALS) for _ in range(rng.randint(1, 2))]
        args.insert(rng.randint(0, len(args)), _arith(rng, depth - 1, bad))
        if rng.random() < 0.2:
            args.append("(- x x)")  # cancels to the constant 0
        if rng.random() < 10 * bad:  # a second factor, often not a constant
            args.insert(rng.randint(0, len(args)), _arith(rng, depth - 1, bad))
    elif op == "/":
        args = [_arith(rng, depth - 1, bad), rng.choice(_NUMERALS[1:])]
    else:
        args = [_arith(rng, depth - 1, bad) for _ in range(rng.randint(1, 3))]
    return f"({op} {' '.join(args)})"


def _atom(rng: random.Random, euf: bool, bad: float) -> str:
    if rng.random() < 0.15:
        return rng.choice(["p", "q", "r"])
    if euf:
        return rng.choice(["(= a b)", "(= (f a) b)", "(= a (f (f b)))", "(= (f b) (f a))"])
    rel = rng.choice(["=", "<=", "<", ">=", ">"])
    return f"({rel} {_arith(rng, 3, bad)} {_arith(rng, 3, bad)})"


def _formula(rng: random.Random, depth: int, euf: bool, bad: float) -> str:
    if depth == 0 or rng.random() < 0.3:
        lit = _atom(rng, euf, bad) if rng.random() > 0.05 else rng.choice(["true", "false"])
        return lit if rng.random() < 0.7 else f"(not {lit})"
    op = rng.choice(["or", "or", "and", "=>", "not", "ite"])
    n = {"not": 1, "ite": 3}.get(op, rng.randint(1, 4) if op != "=>" else rng.randint(2, 4))
    return f"({op} {' '.join(_formula(rng, depth - 1, euf, bad) for _ in range(n))})"


def _random_texts(seed: int, count: int, bad: float) -> list[str]:
    rng = random.Random(seed)
    texts = []
    for _ in range(count):
        euf = rng.random() < 0.25
        asserts = [f"(assert {_formula(rng, 3, euf, bad)})" for _ in range(rng.randint(1, 4))]
        texts.append(_PRELUDE + "\n".join(asserts))
    return texts


RANDOM_DIGESTS = {
    "well-formed": "a11013770ed49cfe1801415a9422aa6f847f5bb97b36985ce97a1a1bd47e063c",
    "malformed": "82e9c9ddb34704630144adf799574fa29dc31fc4c5b6f5ceddb661079018d8a7",
}


@pytest.mark.parametrize("kind", sorted(RANDOM_DIGESTS))
def test_random_arithmetic_and_structure(kind):
    texts = _random_texts(17, 400, 0.0 if kind == "well-formed" else 0.04)
    assert digest(texts) == RANDOM_DIGESTS[kind]


def test_converted_clauses_are_normalized():
    """`cnf_convert` builds its Formula without normalizing the clauses
    again, so it must emit them normalized: on the random texts above, the
    rendered `tests/gen.py` formulas and the benchmark's corpora."""
    texts = _random_texts(17, 400, 0.0) + _random_texts(17, 400, 0.04)
    texts += [t for seed in range(25) for t in _gen_texts(seed)]
    for name, workload in sorted(workloads.WORKLOADS.items()):
        texts += [inst.text for inst in workloads.build_corpus(workload, 1, 5 / workload.per_second)]
    converted = 0
    for text in texts:
        try:
            formula = cnf_convert(parse(text))
        except (ParseError, CnfError, SortError):
            continue
        converted += 1
        assert unnormalized_clauses(formula) == [], text
    assert converted > 500
