"""Reader and writer for a small SMT-LIB style surface language.

Supported commands: set-logic (QF_UF, QF_LRA, QF_RDL, QF_LIA), declare-sort,
declare-fun, declare-const, assert, check-sat.  set-info/set-option/exit are
accepted and ignored.  Connectives: and/or/not/=>/ite over Bool; relations
=, <=, <, >=, >; arithmetic +, -, unary -, and multiplication by numeric
constants only.  Comments start with ';'.  An integer numeral is read as
an `int`; a decimal numeral or a `/` gives an exact `fractions.Fraction`.
As in SMT-LIB, a symbol that starts with '@' or '.' is reserved: it can be
neither declared nor used.

The text is split into tokens and read into plain nested lists, in one
pass with no position arithmetic: a symbol is held as the ordinal of its
token.  Only a `ParseError` needs a line and column, and `_locate` finds
them by scanning the text again from that ordinal, or from a list's place
in the tree.  Both sides of a relation are then read into one accumulator,
a map from variable to coefficient plus a constant, which gives the
canonical atom in one step; no term in between is built, and every
occurrence of an application is one `FunApp`.  Each assertion is read
straight into negation normal form (`BoolExpr`): `not` flips the polarity
it is read at, `(=> a1 ... an c)` becomes the flat `(or (not a1) ...
(not an) c)` and `(ite c t e)` becomes `(and (or (not c) t) (or c e))`,
both at that polarity.

QF_LIA inputs are interpreted over the rationals; a loud warning is issued.
"""
from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from typing import Optional, Union

from .terms import (
    BOOL, LOGIC_EUF, LOGIC_LRA, REAL, Atom, Declarations, EufAtom, FunApp, LinAtom, LinComb,
    PropAtom, Rational, SortError, Term, Var, canonical_lin_atom, euf_atom, term_sort,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}" if line else message)


# An assertion's Boolean structure, as `parse` produces it: negation normal
# form, with negations pushed to the atoms.  A node is ("lit", atom,
# positive), ("and", children) or ("or", children), the children in a list
# in source order, or ("const", value).
BoolExpr = tuple


@dataclass
class AssertionSet:
    """Parsed problem: one entry per assert command, in file order."""
    assertions: list[tuple[int, BoolExpr]]
    declarations: Declarations
    logic: Optional[str]


# ---------------------------------------------------------------------------
# Reader: text to nested lists in one pass
# ---------------------------------------------------------------------------

# One token per match: a comment up to the end of its line, a parenthesis,
# or a symbol, which runs to the next space, tab, carriage return, newline,
# parenthesis or ';'.  Spaces, tabs, carriage returns and newlines match
# nothing and are skipped.
_TOKEN = re.compile(r";[^\n]*|[()]|[^ \t\r\n();]+")
_COMMENT = re.compile(r";[^\n]*")

# A node of the tree: a list of nodes, or a symbol, held as the ordinal of
# its token among the non-comment matches of _TOKEN: its text is `tokens[node]`.
Node = Union[int, list]

# Deeper input is rejected up front: later stages recurse once or more per
# level and would otherwise exhaust the interpreter stack.
MAX_NESTING = 200


def _read_sexprs(text: str) -> tuple[list[Node], list[str]]:
    """The top-level s-expressions of `text`, and its tokens: those of
    `_TOKEN` less the comments, split faster by string methods.  No
    position is kept: `_locate` finds the one an error needs."""
    spaced = _COMMENT.sub("", text).replace("\n", " ").replace("\t", " ").replace("\r", " ")
    tokens = list(filter(None, spaced.replace("(", " ( ").replace(")", " ) ").split(" ")))
    out: list[Node] = []
    items = out  # the list the next node joins
    stack: list[list[Node]] = []  # the enclosing lists of `items`
    push, pop = stack.append, stack.pop
    for i, tok in enumerate(tokens):
        if tok == "(":
            if len(stack) == MAX_NESTING:
                raise ParseError(f"nesting deeper than {MAX_NESTING} levels",
                                 *_locate(text, out, i))
            node: list[Node] = []
            items.append(node)
            push(items)
            items = node
        elif tok == ")":
            if not stack:
                raise ParseError("unbalanced ')'", *_locate(text, out, i))
            items = pop()
        else:
            items.append(i)
    if stack:
        raise ParseError("unbalanced '(' at end of input", *_locate(text, out, items))
    return out, tokens


def _locate(text: str, tree: list[Node], node: Node) -> tuple[int, int]:
    """The 1-based line and column of the first character of `node`, a
    node of `tree` as `_read_sexprs` reads it (or has read it so far) from
    `text`.  A symbol is its token; a list is the k-th list of the tree in
    pre-order, so it opens at the k-th '(' token.  Only errors need a
    position, so the text is scanned again here instead of while reading."""
    matches = (m for m in _TOKEN.finditer(text) if m[0][0] != ";")
    if isinstance(node, int):
        m = next(islice(matches, node, None))
    else:
        k = next(k for k, x in enumerate(_lists(tree)) if x is node)
        m = next(islice((m for m in matches if m[0] == "("), k, None))
    start = m.start()
    return text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)


def _lists(tree: list[Node]):
    """The lists of `tree` in pre-order."""
    walk = [iter(tree)]
    while walk:
        for child in walk[-1]:
            if isinstance(child, list):
                yield child
                walk.append(iter(child))
                break
        else:
            walk.pop()


_NUMERAL = re.compile(r"-?\d+(\.\d+)?")
_ARITH_OPS = ("+", "-", "*", "/")
# What a term outside arithmetic is: an uninterpreted constant or application.
_NON_ARITH = (Var, FunApp)
_CANONICAL_REL = {"<=": "<=", "<": "<", "=": "=", ">=": "<=", ">": "<"}


_LOGICS = ("QF_UF", "QF_LRA", "QF_RDL", "QF_LIA")
_ARITH_LOGICS = ("QF_LRA", "QF_RDL", "QF_LIA")


class _Parser:
    def __init__(self):
        self.decls = Declarations()
        self.logic: Optional[str] = None
        self.assertions: list[tuple[int, BoolExpr]] = []
        self._warned_int = False
        self._reals: dict[str, int] = {}  # Real variable's name -> index, unless a numeral
        self._var_at: list[Var] = []      # every variable, by declaration index
        self._apps: dict[tuple, FunApp] = {}  # (function name, arguments) -> its one FunApp
        self._text = ""
        self._tree: list[Node] = []
        self._tokens: list[str] = []

    def _error(self, message: str, node: Node) -> ParseError:
        return ParseError(message, *_locate(self._text, self._tree, node))

    # -- commands ----------------------------------------------------------

    def run(self, text: str) -> AssertionSet:
        self._text = text
        self._tree, self._tokens = _read_sexprs(text)
        for sx in self._tree:
            self._command(sx)
        return AssertionSet(self.assertions, self.decls, self.logic)

    def _command(self, sx: Node):
        if isinstance(sx, int) or not sx:
            raise self._error("expected a command", sx)
        head = sx[0]
        if not isinstance(head, int):
            raise self._error("command name must be a symbol", head)
        name = self._tokens[head]
        if name == "assert":  # by far the most frequent command
            if len(sx) != 2:
                raise self._error("assert takes exactly one formula", sx)
            self.assertions.append((len(self.assertions), self._bool(sx[1])))
        elif name == "set-logic":
            self._set_logic(sx[1:], sx)
        elif name == "declare-sort":
            self._declare_sort(sx[1:], sx)
        elif name == "declare-fun":
            self._declare_fun(sx[1:], sx)
        elif name == "declare-const":
            self._declare_const(sx[1:], sx)
        elif name in ("check-sat", "set-info", "set-option", "exit"):
            pass
        else:
            raise self._error(f"unsupported command {name!r}", sx)

    def _set_logic(self, args, sx):
        if len(args) != 1 or not isinstance(args[0], int):
            raise self._error("set-logic takes one symbol", sx)
        logic = self._tokens[args[0]]
        if logic not in _LOGICS:
            raise self._error(f"unsupported logic {logic!r} (supported: {', '.join(_LOGICS)})",
                              args[0])
        self.logic = logic

    def _declare_sort(self, args, sx):
        if self.logic in _ARITH_LOGICS:
            raise self._error(f"declare-sort is not available in {self.logic}", sx)
        if len(args) not in (1, 2) or not isinstance(args[0], int):
            raise self._error("expected (declare-sort <name> 0)", sx)
        if len(args) == 2 and (not isinstance(args[1], int) or self._tokens[args[1]] != "0"):
            raise self._error("only zero-arity sorts are supported", args[1])
        name = self._new_name(args[0])
        try:
            self.decls.declare_sort(name)
        except ValueError as exc:
            raise self._error(str(exc), args[0])

    def _sort_name(self, sx: Node) -> str:
        if not isinstance(sx, int):
            raise self._error("expected a sort name", sx)
        name = self._tokens[sx]
        if name == "Int":
            if self.logic == "QF_UF":
                raise self._error("sort Int is not available in QF_UF", sx)
            if not self._warned_int:
                warnings.warn(
                    "sort Int is interpreted over the rationals: integrality is NOT enforced",
                    stacklevel=2)
                self._warned_int = True
            return REAL
        if name in (REAL, BOOL):
            if name == REAL and self.logic == "QF_UF":
                raise self._error("sort Real is not available in QF_UF", sx)
            return name
        if name in self.decls.sorts:
            return name
        raise self._error(f"unknown sort {name!r}", sx)

    def _new_name(self, sx: int) -> str:
        """The symbol a command declares.  SMT-LIB reserves the simple
        symbols that start with '@' or '.' for solvers; the CNF converter
        names its auxiliaries among them."""
        name = self._tokens[sx]
        if name[0] in "@.":
            raise self._error(f"symbol {name!r} is reserved: it starts with {name[0]!r}", sx)
        return name

    def _declare_common(self, name_sx: int, arg_sorts: tuple[str, ...], ret: str):
        name = self._new_name(name_sx)
        if arg_sorts and (ret in (REAL, BOOL) or any(s in (REAL, BOOL) for s in arg_sorts)):
            raise self._error("function symbols must use uninterpreted sorts only", name_sx)
        try:
            if arg_sorts:
                self.decls.declare_fun(name, arg_sorts, ret)
            elif ret == BOOL:
                self.decls.declare_prop(name)
            else:
                v = self.decls.declare_var(name, ret)
                self._var_at.append(v)
                if ret == REAL and not _NUMERAL.fullmatch(name):
                    self._reals[name] = v.index
        except ValueError as exc:
            raise self._error(str(exc), name_sx)

    def _declare_fun(self, args, sx):
        if len(args) != 3 or not isinstance(args[0], int) or isinstance(args[1], int):
            raise self._error("expected (declare-fun <name> (<sorts>) <sort>)", sx)
        arg_sorts = tuple(self._sort_name(a) for a in args[1])
        self._declare_common(args[0], arg_sorts, self._sort_name(args[2]))

    def _declare_const(self, args, sx):
        if len(args) != 2 or not isinstance(args[0], int):
            raise self._error("expected (declare-const <name> <sort>)", sx)
        self._declare_common(args[0], (), self._sort_name(args[1]))

    # -- terms -------------------------------------------------------------

    def _numeral(self, sx: int) -> Optional[Rational]:
        """The value of a numeral token, or None for any other symbol."""
        text = self._tokens[sx]
        try:
            if text.isdecimal():  # the digits alone, which _NUMERAL matches
                return int(text)
            numeral = _NUMERAL.fullmatch(text)
            return (Fraction(text) if numeral.group(1) else int(text)) if numeral else None
        except ValueError:  # beyond the interpreter's digit limit
            raise self._error(f"numeral of {len(text)} characters is too long", sx) from None

    def _term(self, sx: Node) -> Term:
        tokens = self._tokens
        # arithmetic read here is a function's argument: a sort error whatever its value
        if isinstance(sx, int):
            text = tokens[sx]
            if self._numeral(sx) is not None:
                return LinComb((), 0)
            if text in self.decls.vars:
                return self.decls.vars[text]
            if text in self.decls.funs:
                f = self.decls.funs[text]
                raise self._error(f"{text!r} expects {len(f.arg_sorts)} arguments", sx)
            raise self._error(f"undeclared symbol {text!r}", sx)
        if not sx or not isinstance(sx[0], int):
            raise self._error("expected a term", sx)
        op = tokens[sx[0]]
        if op in _ARITH_OPS:
            self._linear(sx, 1, {})
            return LinComb((), 0)
        if op in self.decls.funs:
            key = (op, tuple([self._term(a) for a in sx[1:]]))
            app = self._apps.get(key)
            if app is None:
                try:
                    app = self._apps[key] = FunApp(self.decls.funs[op], key[1])
                except SortError as exc:
                    raise self._error(str(exc), sx)
            return app
        raise self._error(f"unknown function {op!r}", sx)

    def _linear(self, sx: Node, k: Rational,
                coeffs: dict[int, Rational]) -> Union[Rational, Var, FunApp]:
        """Add `k` times the term `sx` into `coeffs` (declaration index of a
        variable -> coefficient) and return `k` times its constant part.  A
        term outside arithmetic, an uninterpreted constant or application,
        adds nothing and is returned as the Term it is.

        Every argument of an arithmetic operator is read, with its own
        errors, before the operator's own errors are raised, so the first
        error reported is the one a term-by-term evaluation would meet."""
        tokens = self._tokens
        if isinstance(sx, int):
            text = tokens[sx]
            i = self._reals.get(text)
            if i is not None:
                coeffs[i] = coeffs.get(i, 0) + k
                return 0
            first = text[0]
            if first == "-" or first.isdecimal():  # else _NUMERAL cannot match
                value = self._numeral(sx)
                if value is not None:
                    return k * value
            v = self.decls.vars.get(text)
            return self._term(sx) if v is None else v  # raises: undeclared, or a function
        if not sx or not isinstance(sx[0], int) or tokens[sx[0]] not in _ARITH_OPS:
            return self._term(sx)
        op = tokens[sx[0]]
        args = sx[1:]
        if op == "+" or op == "-":
            if not args:
                raise self._error(f"{op} needs arguments", sx)
            const = 0
            pure = True
            sign = k if op == "+" or len(args) > 1 else -k
            reals = self._reals
            for a in args:
                i = reals.get(tokens[a]) if isinstance(a, int) else None
                if i is not None:  # a Real variable, read here rather than by a call
                    coeffs[i] = coeffs.get(i, 0) + sign
                else:
                    part = self._linear(a, sign, coeffs)
                    if isinstance(part, _NON_ARITH):
                        pure = False
                    else:
                        const += part
                if op == "-":
                    sign = -k
            if not pure:
                raise self._error("uninterpreted terms cannot appear in arithmetic", sx)
            return const
        # "*" and "/" need the value of each argument before they can scale
        # the non-constant one, so every argument gets an accumulator of its own
        parts = []
        for a in args:
            sub: dict[int, Rational] = {}
            parts.append((self._linear(a, 1, sub), sub, a))
        if op == "/":
            if len(parts) != 2:
                raise self._error("/ takes two arguments", sx)
            (num, own, _), (den, den_coeffs, _) = parts
            if isinstance(num, _NON_ARITH) or isinstance(den, _NON_ARITH):
                raise self._error("uninterpreted terms cannot appear in arithmetic", sx)
            if any(den_coeffs.values()) or den == 0:
                raise self._error("division only by a nonzero numeric constant", sx)
            scale = k * Fraction(1, den)
        else:
            if len(parts) < 2:
                raise self._error("* needs at least two arguments", sx)
            scale = k
            num, own = 1, None  # the one factor that is not a constant
            for const, part, a in parts:
                if isinstance(const, _NON_ARITH):
                    raise self._error("uninterpreted terms cannot appear in arithmetic", sx)
                if not any(part.values()):
                    scale *= const
                elif own is None:
                    num, own = const, part
                else:
                    raise self._error("multiplication must be by a numeric constant", a)
            if own is None:
                return scale
        for v, c in own.items():
            coeffs[v] = coeffs.get(v, 0) + c * scale
        return num * scale

    # -- atoms and formulas --------------------------------------------------

    def _relation(self, op: str, args, sx) -> Atom:
        """One atom from both sides of a relation, read into one
        accumulator, with `>=` and `>` rewritten by negating sides."""
        if len(args) != 2:
            raise self._error(f"{op} takes two arguments", sx)
        coeffs: dict[int, Rational] = {}
        k = -1 if op == ">=" or op == ">" else 1
        lhs = self._linear(args[0], k, coeffs)
        rhs = self._linear(args[1], -k, coeffs)
        lterm, rterm = isinstance(lhs, _NON_ARITH), isinstance(rhs, _NON_ARITH)
        if lterm or rterm:
            ls = term_sort(lhs) if lterm else REAL
            rs = term_sort(rhs) if rterm else REAL
            if op == "=" and ls == rs:
                return euf_atom(lhs, rhs)
            raise self._error(f"relation {op} needs arithmetic operands "
                              f"(got sorts {ls}, {rs})", sx)
        at = self._var_at
        terms = tuple([(at[i], coeffs[i]) for i in sorted(coeffs) if coeffs[i]])
        return canonical_lin_atom(LinComb(terms, lhs + rhs), _CANONICAL_REL[op])

    def _bool(self, sx: Node, positive: bool = True) -> BoolExpr:
        """The formula `sx` in negation normal form, negated when `positive`
        is False: `not` flips the polarity, and the polarity picks between
        `and` and `or`."""
        tokens = self._tokens
        while True:  # each `not` flips the polarity of what it wraps
            if isinstance(sx, int):
                text = tokens[sx]
                if text == "true" or text == "false":
                    return ("const", (text == "true") == positive)
                if text in self.decls.props:
                    return ("lit", self.decls.props[text], positive)
                if text in self.decls.vars:
                    raise self._error(f"{text!r} is not Boolean", sx)
                raise self._error(f"undeclared symbol {text!r}", sx)
            if not sx or not isinstance(sx[0], int):
                raise self._error("expected a formula", sx)
            op = tokens[sx[0]]
            if op != "not":
                break
            if len(sx) != 2:
                raise self._error("not takes one argument", sx)
            sx, positive = sx[1], not positive
        args = sx[1:]
        if op in _CANONICAL_REL:
            if op == "=" and len(args) == 2:
                # Boolean equality is out of the supported grammar; detect it
                # early for a clear message.
                for a in args:
                    if isinstance(a, int) and tokens[a] in self.decls.props:
                        raise self._error("equality between Boolean terms is unsupported", sx)
            return ("lit", self._relation(op, args, sx), positive)
        conj, disj = ("and", "or") if positive else ("or", "and")
        if op == "and" or op == "or":
            if not args:
                raise self._error(f"{op} needs arguments", sx)
            return (conj if op == "and" else disj, [self._bool(a, positive) for a in args])
        if op == "=>":
            if len(args) < 2:
                raise self._error("=> needs at least two arguments", sx)
            parts = [self._bool(a, not positive) for a in args[:-1]]
            parts.append(self._bool(args[-1], positive))
            return (disj, parts)
        if op == "ite":
            if len(args) != 3:
                raise self._error("ite takes three arguments", sx)
            # (and (or (not c) t) (or c e)), the condition read once per
            # polarity, so an error in c is met first and one in e last
            c, t, e = args
            then = (disj, [self._bool(c, not positive), self._bool(t, positive)])
            return (conj, [then, (disj, [self._bool(c, positive), self._bool(e, positive)])])
        raise self._error(f"unsupported operator {op!r}", sx)


def parse(text: str) -> AssertionSet:
    """Parse a problem text into an ordered assertion set."""
    return _Parser().run(text)


def parse_file(path: str) -> AssertionSet:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse(fh.read())


# ---------------------------------------------------------------------------
# Rendering (used by `core --out` to write a core as a new input file)
# ---------------------------------------------------------------------------

# A numeral of more digits than the interpreter converts (4,300 by default)
# is written as constant arithmetic over numerals of at most this many.
_CHUNK_DIGITS = 4000
_CHUNK = 10 ** _CHUNK_DIGITS
_CHUNK_TEXT = str(_CHUNK)


def _nat_sexpr(n: int) -> str:
    """A natural number as text the reader turns back into `n`.  Past
    `_CHUNK_DIGITS` digits, its base-10**_CHUNK_DIGITS digits are split in
    halves, as (+ (* high B ... B) low), so the nesting grows with the log of
    the length."""
    if n < _CHUNK:
        return str(n)
    digits = []  # least significant first
    while n:
        n, d = divmod(n, _CHUNK)
        digits.append(d)

    def poly(ds: list[int]) -> str:
        if len(ds) == 1:
            return str(ds[0])
        half = len(ds) // 2
        shift = f" {_CHUNK_TEXT}" * half
        return f"(+ (* {poly(ds[half:])}{shift}) {poly(ds[:half])})"

    return poly(digits)


def _frac_sexpr(value: Rational) -> str:
    num, den = abs(value.numerator), value.denominator
    text = _nat_sexpr(num) if den == 1 else f"(/ {_nat_sexpr(num)} {_nat_sexpr(den)})"
    return text if value >= 0 else f"(- {text})"


def term_sexpr(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, FunApp):
        return "(" + " ".join([t.fn.name] + [term_sexpr(a) for a in t.args]) + ")"
    if isinstance(t, LinComb):
        parts = []
        for v, c in t.terms:
            parts.append(v.name if c == 1 else f"(* {_frac_sexpr(c)} {v.name})")
        if t.offset != 0 or not parts:
            parts.append(_frac_sexpr(t.offset))
        return parts[0] if len(parts) == 1 else "(+ " + " ".join(parts) + ")"
    raise TypeError(f"not a term: {t!r}")


def atom_sexpr(atom: Atom) -> str:
    if isinstance(atom, PropAtom):
        return atom.name
    if isinstance(atom, LinAtom):
        op = {"<=": "<=", "<": "<", "=": "="}[atom.rel]
        return f"({op} {term_sexpr(atom.lincomb())} 0)"
    if isinstance(atom, EufAtom):
        return f"(= {term_sexpr(atom.lhs)} {term_sexpr(atom.rhs)})"
    raise TypeError(f"not an atom: {atom!r}")


def _symbols(t: Term, variables: dict, functions: dict):
    """Record the variables and function symbols of a term."""
    if isinstance(t, Var):
        variables[t] = None
    elif isinstance(t, FunApp):
        functions[t.fn] = None
        for a in t.args:
            _symbols(a, variables, functions)
    elif isinstance(t, LinComb):
        for v, _ in t.terms:
            variables[v] = None


def _derived_declarations(formula, picked) -> list[str]:
    """Declarations of the sorts, variables and function symbols of the
    picked clauses' atoms, for a formula built without declarations:
    variables in declaration order, so atoms read back in the same
    orientation, then functions by name."""
    variables: dict[Var, None] = {}
    functions: dict = {}
    for i in picked:
        for lit in formula.clauses[i]:
            atom = formula.atoms.atom(abs(lit))
            if isinstance(atom, EufAtom):
                _symbols(atom.lhs, variables, functions)
                _symbols(atom.rhs, variables, functions)
            elif isinstance(atom, LinAtom):
                _symbols(atom.lincomb(), variables, functions)
    ordered_vars = sorted(variables, key=lambda v: (v.index, v.name))
    ordered_funs = sorted(functions, key=lambda f: f.name)
    sorts = {v.sort for v in ordered_vars}
    for f in ordered_funs:
        sorts.update(f.arg_sorts, (f.ret_sort,))
    lines = [f"(declare-sort {s} 0)" for s in sorted(sorts - {REAL, BOOL})]
    lines += [f"(declare-fun {v.name} () {v.sort})" for v in ordered_vars]
    lines += [f"(declare-fun {f.name} ({' '.join(f.arg_sorts)}) {f.ret_sort})"
              for f in ordered_funs]
    return lines


def render_instance(formula, indices=None) -> str:
    """Serialize (a subset of) a formula back to the input language.  A
    formula built without declarations gets those its rendered atoms
    need, and an undeclared proposition with a reserved name, as CNF
    auxiliaries have, is written under a fresh one."""
    lines = []
    if formula.logic == LOGIC_EUF:
        lines.append("(set-logic QF_UF)")
    elif formula.logic == LOGIC_LRA:
        lines.append("(set-logic QF_LRA)")
    picked = range(len(formula.clauses)) if indices is None else sorted(set(indices))
    decls = formula.declarations
    if decls is None:
        lines += _derived_declarations(formula, picked)
    else:
        for s in decls.sorts:
            lines.append(f"(declare-sort {s} 0)")
        for name in decls._order:
            if name in decls.props:
                lines.append(f"(declare-fun {name} () Bool)")
            elif name in decls.vars:
                lines.append(f"(declare-fun {name} () {decls.vars[name].sort})")
            else:
                f = decls.funs[name]
                lines.append(f"(declare-fun {name} ({' '.join(f.arg_sorts)}) {f.ret_sort})")
    known_props = set(decls.props) if decls is not None else set()
    extra = []
    for i in picked:
        for lit in formula.clauses[i]:
            a = formula.atoms.atom(abs(lit))
            if isinstance(a, PropAtom) and a.name not in known_props:
                known_props.add(a.name)
                extra.append(a.name)
    # auxiliaries introduced by CNF conversion; a reserved name, as theirs
    # are, is written as the first `aux!N` that nothing declared takes
    taken = set(_TOKEN.findall("\n".join(lines))) | set(extra)
    fresh = (name for k in count() if (name := f"aux!{k}") not in taken)
    rename = {name: next(fresh) for name in extra if name[0] in "@."}
    for name in extra:
        lines.append(f"(declare-fun {rename.get(name, name)} () Bool)")
    for i in picked:
        lits = []
        for lit in formula.clauses[i]:
            s = atom_sexpr(formula.atoms.atom(abs(lit)))
            s = rename.get(s, s)
            lits.append(s if lit > 0 else f"(not {s})")
        if not lits:
            body = "false"
        elif len(lits) == 1:
            body = lits[0]
        else:
            body = "(or " + " ".join(lits) + ")"
        lines.append(f"(assert {body})")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"
