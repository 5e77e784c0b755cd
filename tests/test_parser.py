import hashlib
import random
import re
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from smtcore.cnf import cnf_convert
from smtcore.parser import (
    MAX_NESTING, ParseError, _locate, _read_sexprs, parse, render_instance,
)
from smtcore.smt import smt_solve
from smtcore.terms import REAL, AtomTable, LinAtom, Var, canonical_lin_atom

DATA = Path(__file__).parent / "data"
PINNED_PARSE_OUTCOMES = "464d980759d6cb939760009c02a06fb5f600cde5ddea9aab56189003f3171511"

NINE_CLAUSES = """
(set-logic QF_LRA)
(declare-fun x () Real)
(declare-fun y () Real)
(declare-fun A1 () Bool)
(declare-fun A2 () Bool)
(assert (or (= x 0) (not (= x 1)) A1))
(assert (or (= x 0) (= x 1) A2))
(assert (or (not (= x 0)) (= x 1) A2))
(assert (or (not A2) (= y 1)))
(assert (or (not A1) (> (+ x y) 3)))
(assert (< y 0))
(assert (or A2 (= (- x y) 4)))
(assert (or (= y 2) (not A1)))
(assert (>= x 0))
(check-sat)
"""


def test_nine_assertions_each_already_a_clause():
    aset = parse(NINE_CLAUSES)
    assert len(aset.assertions) == 9
    assert [aid for aid, _ in aset.assertions] == list(range(9))
    formula = cnf_convert(aset)
    assert len(formula.clauses) == 9  # each assertion already a clause


def test_single_unit_assertion():
    aset = parse("(declare-fun y () Real)(assert (< y 0))")
    assert len(aset.assertions) == 1
    formula = cnf_convert(aset)
    assert len(formula.clauses) == 1
    assert len(formula.clauses[0]) == 1


def test_undeclared_symbol_is_an_error():
    with pytest.raises(ParseError, match="undeclared"):
        parse("(declare-fun y () Real)(assert (< y z))")


def test_arity_mismatch_is_an_error():
    text = """(declare-sort U 0)(declare-fun f (U U) U)(declare-fun a () U)
              (assert (= (f a) a))"""
    with pytest.raises(ParseError):
        parse(text)


def test_unsupported_logic_is_an_error():
    with pytest.raises(ParseError, match="unsupported logic"):
        parse("(set-logic QF_BV)")


def test_error_carries_line_and_column():
    try:
        parse("(declare-fun x () Real)\n(assert (< x q))")
    except ParseError as exc:
        assert exc.line == 2
        assert exc.col > 0
    else:
        pytest.fail("expected a parse error")


def test_lia_is_interpreted_over_rationals_with_warning():
    text = "(set-logic QF_LIA)(declare-fun n () Int)(assert (< n 0))"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        aset = parse(text)
    assert any("rationals" in str(w.message) for w in caught)
    formula = cnf_convert(aset)
    assert isinstance(formula.atoms.atom(1), LinAtom)


def test_comments_and_extra_commands_ignored():
    text = """; a comment
    (set-info :status unsat)
    (declare-fun p () Bool)
    (assert p) ; trailing comment
    (check-sat)
    (exit)
    """
    assert len(parse(text).assertions) == 1


def test_strict_relations_rewritten():
    aset = parse("(declare-fun x () Real)(assert (> x 1))(assert (>= x 1))")
    formula = cnf_convert(aset)
    a0 = formula.atoms.atom(abs(formula.clauses[0][0]))
    a1 = formula.atoms.atom(abs(formula.clauses[1][0]))
    assert a0.rel == "<" and a1.rel == "<="


def test_multiplication_by_constant_only():
    with pytest.raises(ParseError, match="constant"):
        parse("(declare-fun x () Real)(declare-fun y () Real)(assert (< (* x y) 1))")


def test_rational_constants():
    aset = parse("(declare-fun x () Real)(assert (< x (/ 1 2)))(assert (< x 0.25))")
    formula = cnf_convert(aset)
    assert len(formula.clauses) == 2


def test_boolean_equality_unsupported():
    with pytest.raises(ParseError, match="unsupported"):
        parse("(declare-fun p () Bool)(declare-fun q () Bool)(assert (= p q))")


def test_declare_sort_rejected_in_arith_logics():
    with pytest.raises(ParseError):
        parse("(set-logic QF_LRA)(declare-sort U 0)")


def test_function_over_interpreted_sorts_is_reported_once():
    with pytest.raises(ParseError) as info:
        parse("(declare-fun x () Real)\n(declare-fun f (Real) Real)")
    assert str(info.value) == "2:14: function symbols must use uninterpreted sorts only"


def test_duplicate_declaration_is_an_error():
    with pytest.raises(ParseError, match="already declared"):
        parse("(declare-fun x () Real)(declare-fun x () Real)")


@pytest.mark.parametrize("text, line, col, message", [
    ("(declare-fun @x () Bool)(assert @x)", 1, 14, "symbol '@x' is reserved"),
    ("(declare-fun p () Bool)\n(declare-const .y Real)", 2, 16, "symbol '.y' is reserved"),
    ("(declare-sort @U 0)", 1, 15, "symbol '@U' is reserved"),
    ("(declare-sort U 0)(declare-fun @f (U) U)", 1, 32, "symbol '@f' is reserved"),
    ("(declare-fun p () Bool)\n  (assert (or p @cnf!0))", 2, 17, "undeclared symbol '@cnf!0'"),
])
def test_a_reserved_symbol_can_be_neither_declared_nor_used(text, line, col, message):
    """SMT-LIB reserves the simple symbols that start with '@' or '.'."""
    with pytest.raises(ParseError) as info:
        parse(text)
    assert (info.value.line, info.value.col) == (line, col)
    assert str(info.value).startswith(f"{line}:{col}: {message}")


def test_render_round_trip(nine_clauses):
    text = render_instance(nine_clauses)
    reparsed = cnf_convert(parse(text))
    assert len(reparsed.clauses) == len(nine_clauses.clauses)
    # canonical atoms survive the round trip
    for c1, c2 in zip(nine_clauses.clauses, reparsed.clauses):
        atoms1 = [nine_clauses.atoms.atom(abs(l)) for l in c1]
        atoms2 = [reparsed.atoms.atom(abs(l)) for l in c2]
        assert atoms1 == atoms2
        assert [l > 0 for l in c1] == [l > 0 for l in c2]


def test_render_writes_an_empty_clause_as_false():
    formula = cnf_convert(parse("(declare-fun a () Bool)(assert a)(assert false)"))
    assert formula.clauses == [(1,), ()]
    text = render_instance(formula)
    assert "(assert false)" in text.splitlines()
    assert cnf_convert(parse(text)).clauses == formula.clauses


def test_render_subset_is_parsable(nine_clauses):
    text = render_instance(nine_clauses, [0, 1, 5])
    sub = cnf_convert(parse(text))
    assert len(sub.clauses) == 3


@pytest.mark.parametrize("theory", ["LRA", "EUF"])
def test_render_declares_the_symbols_of_a_formula_built_without_them(theory):
    """A formula from the generators has no declarations; its rendered
    text declares what its atoms use, loads again, and renders the same."""
    rng = random.Random(5)
    if theory == "LRA":
        formulas = [gen.random_formula(rng, "LRA") for _ in range(20)]
        formulas += [gen.random_difference_formula(random.Random(s), 6, 24, 3) for s in range(4)]
    else:
        formulas = [gen.random_formula(rng, "EUF") for _ in range(20)]
        formulas += [gen.random_uf_formula(random.Random(s), 8, 40, 2) for s in range(4)]
    for formula in formulas:
        assert formula.declarations is None
        text = render_instance(formula)
        reparsed = cnf_convert(parse(text))
        assert render_instance(reparsed) == text
        assert smt_solve(reparsed)[0].status == smt_solve(formula)[0].status
        assert cnf_convert(parse(render_instance(formula, [0])))


@pytest.mark.parametrize("digits", [4000, 4001, 6000, 50_000])
def test_render_writes_numbers_past_the_digit_limit(digits):
    """A number longer than the interpreter converts is written as constant
    arithmetic over shorter numerals, and reads back to the same atoms."""
    big = "(* " + " ".join(["9" * 1000] * (digits // 1000)) + ")"
    text = (f"(declare-fun x () Real)(declare-fun y () Real)"
            f"(assert (< (+ (* {big} x) y) (/ 1 {big})))(assert (= (* 3 {big}) (* 7 y)))")
    formula = cnf_convert(parse(text))
    assert max(abs(a.offset) for _, a in formula.atoms.items()) >= 10 ** (digits - 10)
    rendered = render_instance(formula)
    assert max(len(numeral) for numeral in re.findall(r"\d+", rendered)) <= 4001
    reparsed = cnf_convert(parse(rendered))
    assert list(reparsed.atoms.items()) == list(formula.atoms.items())


# ---------------------------------------------------------------------------
# Reader: pinned to the character loop and the token-list reader it replaced
# ---------------------------------------------------------------------------

def reference_tokenize(text):
    """The character-at-a-time tokenizer, kept as the reference: tokens as
    (kind, text, line, column)."""
    toks = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            i += 1
            col += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            toks.append((ch, ch, line, col))
            i += 1
            col += 1
        else:
            start = i
            startcol = col
            while i < n and text[i] not in " \t\r\n();":
                i += 1
                col += 1
            toks.append(("sym", text[start:i], line, startcol))
    return toks


def reference_read(text):
    """The reader that ran over `reference_tokenize`, kept as the reference:
    the tree as nested tuples, symbols as ("sym", text, line, column) and
    lists as ("list", line, column, children), or the error it raised as
    ("error", message, line, column)."""
    out, stack = [], []
    for kind, tok, line, col in reference_tokenize(text):
        if kind == "(":
            if len(stack) == MAX_NESTING:
                return ("error", f"nesting deeper than {MAX_NESTING} levels", line, col)
            node = ("list", line, col, [])
            (stack[-1][3] if stack else out).append(node)
            stack.append(node)
        elif kind == ")":
            if not stack:
                return ("error", "unbalanced ')'", line, col)
            stack.pop()
        else:
            (stack[-1][3] if stack else out).append(("sym", tok, line, col))
    if stack:
        return ("error", "unbalanced '(' at end of input", stack[-1][1], stack[-1][2])
    return out


def read(text):
    """`_read_sexprs` in the form of `reference_read`, with every node
    placed by `_locate`."""
    try:
        top, tokens = _read_sexprs(text)
    except ParseError as exc:
        return ("error", str(exc).split(": ", 1)[1], exc.line, exc.col)

    def tree(node):
        line, col = _locate(text, top, node)
        if isinstance(node, int):
            return ("sym", tokens[node], line, col)
        return ("list", line, col, [tree(c) for c in node])
    return [tree(node) for node in top]


@pytest.mark.parametrize("text", [
    "(assert p) ; comment at the end of input",
    "(assert p);",
    ";",
    "\t(declare-fun\tx () Real)\t\t(assert\t(< x 1))",
    "(assert p)\r\n(assert q)\r\n",
    "\r\r\n\r(a)",
    ")(()(x)(",
    "a;b\nc;d\n;e",
    "x\x0by\x0cz é ²",  # only space, tab, CR and LF separate symbols
    "",
    "(a (b (c d) e)\n  f) g (h)",
    pytest.param("(" * MAX_NESTING + ")" * MAX_NESTING, id="nesting-at-the-limit"),
    pytest.param("x " + "(" * (MAX_NESTING + 1) + ")" * (MAX_NESTING + 1),
                 id="nesting-past-the-limit"),
])
def test_tokenizer_matches_the_character_loop(text):
    assert read(text) == reference_read(text)


# Parser-shaped text, so that the fuzzing reaches past the reader into the
# commands, terms and atoms.
WORDS = [
    "(", ")", "(", ")", "assert", "declare-fun", "declare-const", "declare-sort",
    "set-logic", "check-sat", "Real", "Bool", "U", "QF_LRA", "QF_UF", "x", "y", "p",
    "f", "not", "and", "or", "=>", "ite", "=", "<=", "<", ">=", ">", "+", "-", "*",
    "/", "0", "1", "-2", "0.5", "1.", "true", "false", ";", "\n", "\r\n", "\t",
]
PARSER_ISH = st.lists(st.sampled_from(WORDS), max_size=40).map(" ".join)
ALPHABET = "();-./0123456789abcdefghijklmnopqrstuvwxyz \t\r\n"


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(st.text(alphabet=ALPHABET, max_size=80), PARSER_ISH))
def test_arbitrary_text_raises_only_parse_errors(text):
    assert read(text) == reference_read(text)
    try:
        parse(text)
    except ParseError:
        pass


def parse_outcome(text):
    """What `parse` makes of `text`: the logic and the assertions with their
    atoms, or the error's message, line and column."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            aset = parse(text)
    except ParseError as exc:
        return repr(("error", str(exc), exc.line, exc.col))
    return repr((aset.logic, aset.assertions))


def seeded_parse_corpus(seed=20):
    """Parser-shaped and arbitrary texts drawn as `PARSER_ISH` and
    `ALPHABET` draw them, and every file of tests/data whole, with one token
    deleted, doubled or replaced by one of `WORDS`, at seeded positions."""
    rng = random.Random(seed)
    for _ in range(1500):
        yield " ".join(rng.choice(WORDS) for _ in range(rng.randrange(41)))
        yield "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(81)))
    for path in sorted(DATA.glob("*.smt2")):
        text = path.read_text()
        yield text
        spans = [m.span() for m in re.finditer(r";[^\n]*|[()]|[^ \t\r\n();]+", text)]
        for start, end in rng.sample(spans, min(len(spans), 60)):
            yield text[:start] + text[end:]
            yield text[:end] + " " + text[start:]
            yield text[:start] + rng.choice(WORDS) + text[end:]


def test_parse_outcomes_are_pinned():
    """One digest over the outcome of every text of the seeded corpus (3,701
    texts): every tree, atom, message, line and column is pinned.  The value
    was recorded from the parser that still built one dataclass node per
    connective, with the converter's former pass into negation normal form
    applied at positive polarity to every tree, and errors hashed as they
    are here: reading straight into negation normal form changed no tree."""
    digest = hashlib.sha256()
    for text in seeded_parse_corpus():
        digest.update(parse_outcome(text).encode())
        digest.update(b"\0")
    assert digest.hexdigest() == PINNED_PARSE_OUTCOMES


@pytest.mark.parametrize("text, line, col", [
    ("(assert p)\r\n\t)", 2, 2),
    ("(declare-fun x () Real) ; c\r\n\t(assert (< x q))", 2, 15),
    ("(declare-fun p () Bool)(assert p)(", 1, 34),
    ("(declare-fun p () Bool)\n(assert p ; no close", 2, 1),
    ("(declare-fun p () Bool)\n\n  (assert p))(assert p)", 3, 13),
    ("(declare-fun x () Real)\t(assert (<= x 1.5.2))", 1, 39),
    ("(declare-fun x () Real)(assert\t(<=\tx\t(/ 1 0)))", 1, 38),
    ("(declare-fun x () Real)\r(assert (< x -))", 1, 38),
    ("(declare-fun p () Bool)(assert p)\n;(assert q)\n(assert q)", 3, 9),
])
def test_error_positions_are_unchanged(text, line, col):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert (info.value.line, info.value.col) == (line, col)


_TERMS = ("(declare-sort U 0)(declare-fun a () U)(declare-fun f (U) U)"
          "(declare-fun x () Real)(declare-fun y () Real)\n")


@pytest.mark.parametrize("text, col, message", [
    ("(assert (< (* x y (f a)) 1))", 17, "multiplication must be by a numeric constant"),
    ("(assert (< (* x (f a) y) 1))", 12, "uninterpreted terms cannot appear in arithmetic"),
    ("(assert (< (+ (f a) w) 1))", 21, "undeclared symbol 'w'"),
    ("(assert (< (/ x (f a)) (* 2)))", 12, "uninterpreted terms cannot appear in arithmetic"),
    ("(assert (= (+ x 1) (f q)))", 23, "undeclared symbol 'q'"),
    ("(assert (= a (+ (f x) 1)))", 17, "argument of f has sort Real, expected U"),
    ("(assert (>= (- (* x 0.5) (f a)) (/ y 0)))", 13,
     "uninterpreted terms cannot appear in arithmetic"),
])
def test_the_first_error_met_is_the_one_reported(text, col, message):
    """Every argument is read, with its errors, before its operator's own
    errors are raised: pinned to term-by-term evaluation."""
    with pytest.raises(ParseError) as info:
        parse(_TERMS + text)
    assert (info.value.line, info.value.col, str(info.value)) == (2, col, f"2:{col}: {message}")


_FUNS = _TERMS.replace("\n", "(declare-fun g (U U) U)\n")


@pytest.mark.parametrize("text, line, col, message", [
    # a numeral or an arithmetic term as the argument of a function; the
    # arity error and an earlier argument's error come first
    (_FUNS + "(assert (= a (f 3)))", 2, 14, "argument of f has sort Real, expected U"),
    (_FUNS + "(assert (= a (f 1.5)))", 2, 14, "argument of f has sort Real, expected U"),
    (_FUNS + "(assert (= a (f (+ x 1))))", 2, 14, "argument of f has sort Real, expected U"),
    (_FUNS + "(assert (= a (f 3 4)))", 2, 14, "f expects 1 arguments, got 2"),
    (_FUNS + "(assert (= a (f 3 b)))", 2, 19, "undeclared symbol 'b'"),
    (_FUNS + "(assert (= a (g a (- 2))))", 2, 14, "argument of g has sort Real, expected U"),
    # declarations and connectives
    ("(declare-sort U 1)", 1, 17, "only zero-arity sorts are supported"),
    ("(declare-sort U 0)\n(declare-sort U 0)", 2, 15, "symbol 'U' is already declared"),
    ("(declare-sort U 0)(declare-fun x () (U))", 1, 37, "expected a sort name"),
    ("(set-logic QF_UF)(declare-fun x () Int)", 1, 36, "sort Int is not available in QF_UF"),
    ("(set-logic QF_UF)\n(declare-const x Real)", 2, 18, "sort Real is not available in QF_UF"),
    ("(declare-const x)", 1, 1, "expected (declare-const <name> <sort>)"),
    ("(assert (and))", 1, 9, "and needs arguments"),
    ("(declare-fun p () Bool)(assert (=> p))", 1, 32, "=> needs at least two arguments"),
])
def test_error_messages_are_pinned(text, line, col, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert (info.value.line, info.value.col, str(info.value)) == (
        line, col, f"{line}:{col}: {message}")


@pytest.mark.parametrize("numeral", ["9" * 5000, "1." + "5" * 5000, "²"])
def test_numerals_the_interpreter_cannot_convert_are_parse_errors(numeral):
    with pytest.raises(ParseError) as info:
        parse(f"(declare-fun x () Real)\n(assert (< x {numeral}))")
    assert (info.value.line, info.value.col) == (2, 14)


# ---------------------------------------------------------------------------
# Integer arithmetic: canonical atoms hold ints
# ---------------------------------------------------------------------------

def test_parsed_linear_atoms_hold_ints(nine_clauses):
    text = """(declare-fun x () Real)(declare-fun y () Real)
    (assert (< (* 0.5 x) 0.25))
    (assert (>= (/ (- x y) 3) (/ 1 2)))
    (assert (= (* 2.5 y) (- 1.5)))
    (assert (<= (* 3 x) (+ (* 6 y) 1.2)))
    (assert (< 1 (/ 3 2)))"""
    for formula in (cnf_convert(parse(text)), nine_clauses):
        lin_atoms = [a for _, a in formula.atoms.items() if isinstance(a, LinAtom)]
        assert lin_atoms
        for atom in lin_atoms:
            assert type(atom.offset) is int
            assert all(type(c) is int for _, c in atom.coeffs)


def test_spellings_of_one_bound_intern_to_one_atom():
    spellings = ["2", "2.0", "(/ 4 2)", "(* 2 1)", "(+ 1 1.0)", "(- 3 (/ 2 2))"]
    text = "(declare-fun x () Real)" + "".join(f"(assert (<= x {s}))" for s in spellings)
    formula = cnf_convert(parse(text))
    assert {c[0] for c in formula.clauses} == {1}
    x = formula.declarations.vars["x"]
    built = [canonical_lin_atom(gen.lin_comb({x: Fraction(1)}, Fraction(-2)), "<="),
             canonical_lin_atom(gen.lin_comb({x: Fraction(1, 2)}, Fraction(-1)), "<="),
             canonical_lin_atom(gen.lin_comb({x: 3}, -6), "<=")]
    assert all(formula.atoms.intern(a) == 1 for a in built)
    assert len(formula.atoms) == 1
    table = AtomTable()
    y = Var("y", REAL, 1)
    assert table.intern(canonical_lin_atom(gen.lin_comb({y: Fraction(-4)}, Fraction(2)), "=")) \
        == table.intern(canonical_lin_atom(gen.lin_comb({y: 2}, -1), "="))
