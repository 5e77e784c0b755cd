"""Fuzzing of `smtcore core` on generated input files.

Whatever the file holds, `cli.main` must return a verdict exit code (10
sat, 20 unsat) or 1 with an `error:` line, and never let an exception
escape.  The inputs are malformed s-expressions, flat `and`/`or`/`=>` with
up to 2,000 arguments, and formulas nested right at the reader's depth
limit.
"""
import contextlib
import io
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from smtcore.cli import main
from smtcore.parser import MAX_NESTING

PROPS = [f"p{i}" for i in range(8)]
DECLS = ("(declare-fun x () Real)(declare-fun y () Real)"
         + "".join(f"(declare-fun {p} () Bool)" for p in PROPS) + "\n")

FUZZ = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def run_core(tmp_path_factory, text: str):
    path = tmp_path_factory.mktemp("fuzz") / "input.smt2"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["core", str(path)])
    if code == 1:
        assert err.getvalue().startswith("error: "), err.getvalue()
    else:
        assert code in (10, 20)
        assert out.getvalue().splitlines()[0] == ("sat" if code == 10 else "unsat")
    return code


def _literal(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.02:
        return rng.choice(["true", "false"])
    if roll < 0.2:
        atom = f"({rng.choice(['<', '<=', '>', '>=', '='])} (- x y) {rng.randint(-2, 2)})"
    else:
        atom = rng.choice(PROPS)
    return atom if rng.random() < 0.6 else f"(not {atom})"


_WORD = st.sampled_from([
    "(", ")", "(", ")", "(", ")", "assert", "declare-fun", "and", "or", "not", "=>",
    "ite", "<", "=", "+", "*", "/", "x", "y", "p0", "p1", "Real", "Bool", "()", "0",
    "1", "-1", "0.5", "true", "false", ";", "\n",
])


@FUZZ
@given(st.lists(_WORD, max_size=60).map(" ".join))
def test_malformed_sexpressions(tmp_path_factory, soup):
    run_core(tmp_path_factory, DECLS + soup)


@FUZZ
@given(st.sampled_from(["and", "or", "=>"]),
       st.one_of(st.integers(1, 40), st.integers(1000, 2000)), st.integers(0, 2 ** 32),
       st.booleans())
def test_flat_connectives(tmp_path_factory, op, n, seed, extra_unit):
    rng = random.Random(seed)
    n = max(n, 2) if op == "=>" else n
    body = f"(assert ({op} {' '.join(_literal(rng) for _ in range(n))}))"
    unit = f"(assert {_literal(rng)})" if extra_unit else ""
    run_core(tmp_path_factory, DECLS + body + unit)


@FUZZ
@given(st.integers(MAX_NESTING - 3, MAX_NESTING + 1), st.integers(0, 2 ** 32),
       st.sampled_from(["bool", "arith"]))
def test_nesting_at_the_limit(tmp_path_factory, depth, seed, kind):
    """`depth` counts every parenthesis level, the assert's included."""
    rng = random.Random(seed)
    if kind == "bool":
        formula = rng.choice(PROPS)
        for _ in range(depth - 1):
            op = rng.choice(["not", "and", "or"])
            side = "" if op == "not" else " " + rng.choice(PROPS)
            formula = f"({op} {formula}{side})"
        text = f"(assert {formula})"
    else:
        term = "x"
        for _ in range(depth - 2):
            term = f"({rng.choice(['+', '-'])} {term} {rng.randint(0, 3)})"
        text = f"(assert (< {term} y))"
    run_core(tmp_path_factory, DECLS + text)
