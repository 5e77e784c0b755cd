"""Reader and writer for a small SMT-LIB style surface language.

Supported commands: set-logic (QF_UF, QF_LRA, QF_RDL, QF_LIA), declare-sort,
declare-fun, declare-const, assert, check-sat.  set-info/set-option/exit are
accepted and ignored.  Connectives: and/or/not/=>/ite over Bool; relations
=, <=, <, >=, >; arithmetic +, -, unary -, and multiplication by numeric
constants only.  Comments start with ';'.  An integer numeral is read as
an `int`; a decimal numeral or a `/` gives an exact `fractions.Fraction`.

QF_LIA inputs are interpreted over the rationals; a loud warning is issued.
"""
from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .terms import (
    BOOL, REAL, Atom, Declarations, EufAtom, FunApp, LinAtom, LinComb,
    PropAtom, RatConst, Rational, SortError, Term, Var, canonical_lin_atom, euf_atom,
    term_sort,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}" if line else message)


# ---------------------------------------------------------------------------
# Boolean expression trees (what `parse` produces per assertion)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BAtom:
    atom: Atom


@dataclass(frozen=True)
class BNot:
    arg: "BoolExpr"


@dataclass(frozen=True)
class BAnd:
    args: tuple["BoolExpr", ...]


@dataclass(frozen=True)
class BOr:
    args: tuple["BoolExpr", ...]


@dataclass(frozen=True)
class BConst:
    value: bool


BoolExpr = Union[BAtom, BNot, BAnd, BOr, BConst]


@dataclass
class AssertionSet:
    """Parsed problem: one entry per assert command, in file order."""
    assertions: list[tuple[int, BoolExpr]]
    declarations: Declarations
    logic: Optional[str]


# ---------------------------------------------------------------------------
# Lexer / s-expression reader
# ---------------------------------------------------------------------------

# One token per match: a newline (counted for line numbers), a comment up
# to the end of its line, a parenthesis, or a symbol, which runs to the next
# space, tab, carriage return, newline, parenthesis or ';'.  Spaces, tabs and
# carriage returns match nothing and are skipped.  A comment always ends at
# a newline or at the end of the input, so the column of every token is its
# offset from the start of its line.
_TOKEN = re.compile(r"\n|;[^\n]*|[()]|[^ \t\r\n();]+")


def _tokenize(text: str) -> list[tuple[str, int, int]]:
    """The tokens of `text` as (text, line, column), both 1-based; a token
    is "(", ")" or a symbol."""
    toks = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        tok = m.group()
        first = tok[0]
        if first == "\n":
            line += 1
            line_start = m.end()
        elif first != ";":
            toks.append((tok, line, m.start() - line_start + 1))
    return toks


@dataclass
class _SExpr:
    items: Optional[list["_SExpr"]]  # None for an atom token
    text: Optional[str]  # the token of an atom
    line: int
    col: int

    @property
    def is_atom(self) -> bool:
        return self.items is None


# Deeper input is rejected up front: later stages recurse once or more per
# level and would otherwise exhaust the interpreter stack.
MAX_NESTING = 200


def _read_sexprs(toks: list[tuple[str, int, int]]) -> list[_SExpr]:
    out: list[_SExpr] = []
    stack: list[_SExpr] = []
    for text, line, col in toks:
        if text == "(":
            if len(stack) == MAX_NESTING:
                raise ParseError(f"nesting deeper than {MAX_NESTING} levels", line, col)
            node = _SExpr([], None, line, col)
            if stack:
                stack[-1].items.append(node)
            stack.append(node)
        elif text == ")":
            if not stack:
                raise ParseError("unbalanced ')'", line, col)
            node = stack.pop()
            if not stack:
                out.append(node)
        else:
            node = _SExpr(None, text, line, col)
            if stack:
                stack[-1].items.append(node)
            else:
                out.append(node)
    if stack:
        raise ParseError("unbalanced '(' at end of input", stack[-1].line, stack[-1].col)
    return out


_NUMERAL = re.compile(r"-?\d+(\.\d+)?")


_LOGICS = ("QF_UF", "QF_LRA", "QF_RDL", "QF_LIA")
_ARITH_LOGICS = ("QF_LRA", "QF_RDL", "QF_LIA")


class _Parser:
    def __init__(self):
        self.decls = Declarations()
        self.logic: Optional[str] = None
        self.assertions: list[tuple[int, BoolExpr]] = []
        self._warned_int = False

    # -- commands ----------------------------------------------------------

    def run(self, text: str) -> AssertionSet:
        for sx in _read_sexprs(_tokenize(text)):
            self._command(sx)
        return AssertionSet(self.assertions, self.decls, self.logic)

    def _command(self, sx: _SExpr):
        if sx.is_atom or not sx.items:
            raise ParseError("expected a command", sx.line, sx.col)
        head = sx.items[0]
        if head.is_atom is False:
            raise ParseError("command name must be a symbol", head.line, head.col)
        name = head.text
        args = sx.items[1:]
        if name == "set-logic":
            self._set_logic(args, sx)
        elif name == "declare-sort":
            self._declare_sort(args, sx)
        elif name == "declare-fun":
            self._declare_fun(args, sx)
        elif name == "declare-const":
            self._declare_const(args, sx)
        elif name == "assert":
            if len(args) != 1:
                raise ParseError("assert takes exactly one formula", sx.line, sx.col)
            self.assertions.append((len(self.assertions), self._bool(args[0])))
        elif name in ("check-sat", "set-info", "set-option", "exit"):
            pass
        else:
            raise ParseError(f"unsupported command {name!r}", sx.line, sx.col)

    def _set_logic(self, args, sx):
        if len(args) != 1 or not args[0].is_atom:
            raise ParseError("set-logic takes one symbol", sx.line, sx.col)
        logic = args[0].text
        if logic not in _LOGICS:
            raise ParseError(f"unsupported logic {logic!r} (supported: {', '.join(_LOGICS)})",
                             args[0].line, args[0].col)
        self.logic = logic

    def _declare_sort(self, args, sx):
        if self.logic in _ARITH_LOGICS:
            raise ParseError(f"declare-sort is not available in {self.logic}", sx.line, sx.col)
        if len(args) not in (1, 2) or not args[0].is_atom:
            raise ParseError("expected (declare-sort <name> 0)", sx.line, sx.col)
        if len(args) == 2 and (not args[1].is_atom or args[1].text != "0"):
            raise ParseError("only zero-arity sorts are supported", args[1].line, args[1].col)
        try:
            self.decls.declare_sort(args[0].text)
        except ValueError as exc:
            raise ParseError(str(exc), args[0].line, args[0].col)

    def _sort_name(self, sx: _SExpr) -> str:
        if not sx.is_atom:
            raise ParseError("expected a sort name", sx.line, sx.col)
        name = sx.text
        if name == "Int":
            if self.logic == "QF_UF":
                raise ParseError("sort Int is not available in QF_UF", sx.line, sx.col)
            if not self._warned_int:
                warnings.warn(
                    "sort Int is interpreted over the rationals: integrality is NOT enforced",
                    stacklevel=2)
                self._warned_int = True
            return REAL
        if name in (REAL, BOOL):
            if name == REAL and self.logic == "QF_UF":
                raise ParseError("sort Real is not available in QF_UF", sx.line, sx.col)
            return name
        if name in self.decls.sorts:
            return name
        raise ParseError(f"unknown sort {name!r}", sx.line, sx.col)

    def _declare_common(self, name_sx: _SExpr, arg_sorts: tuple[str, ...], ret: str):
        name = name_sx.text
        try:
            if arg_sorts:
                if ret in (REAL, BOOL) or any(s in (REAL, BOOL) for s in arg_sorts):
                    raise ParseError(
                        "function symbols must use uninterpreted sorts only",
                        name_sx.line, name_sx.col)
                self.decls.declare_fun(name, arg_sorts, ret)
            elif ret == BOOL:
                self.decls.declare_prop(name)
            elif ret == REAL:
                self.decls.declare_var(name, REAL)
            else:
                self.decls.declare_var(name, ret)
        except ValueError as exc:
            raise ParseError(str(exc), name_sx.line, name_sx.col)

    def _declare_fun(self, args, sx):
        if len(args) != 3 or not args[0].is_atom or args[1].is_atom:
            raise ParseError("expected (declare-fun <name> (<sorts>) <sort>)", sx.line, sx.col)
        arg_sorts = tuple(self._sort_name(a) for a in args[1].items)
        self._declare_common(args[0], arg_sorts, self._sort_name(args[2]))

    def _declare_const(self, args, sx):
        if len(args) != 2 or not args[0].is_atom:
            raise ParseError("expected (declare-const <name> <sort>)", sx.line, sx.col)
        self._declare_common(args[0], (), self._sort_name(args[1]))

    # -- terms -------------------------------------------------------------

    def _term(self, sx: _SExpr) -> Term:
        if sx.is_atom:
            text = sx.text
            numeral = _NUMERAL.fullmatch(text)
            if numeral:
                try:
                    value = Fraction(text) if numeral.group(1) else int(text)
                except ValueError:  # beyond the interpreter's digit limit
                    raise ParseError(f"numeral of {len(text)} characters is too long",
                                     sx.line, sx.col) from None
                return RatConst(value)
            if text in self.decls.vars:
                return self.decls.vars[text]
            if text in self.decls.funs:
                f = self.decls.funs[text]
                raise ParseError(f"{text!r} expects {len(f.arg_sorts)} arguments", sx.line, sx.col)
            raise ParseError(f"undeclared symbol {text!r}", sx.line, sx.col)
        items = sx.items
        if not items or not items[0].is_atom:
            raise ParseError("expected a term", sx.line, sx.col)
        op = items[0].text
        args = items[1:]
        if op in ("+", "-", "*", "/"):
            return self._arith(op, args, sx)
        if op in self.decls.funs:
            f = self.decls.funs[op]
            try:
                return FunApp(f, tuple(self._term(a) for a in args))
            except SortError as exc:
                raise ParseError(str(exc), sx.line, sx.col)
        raise ParseError(f"unknown function {op!r}", sx.line, sx.col)

    def _to_lincomb(self, t: Term, sx: _SExpr) -> LinComb:
        if isinstance(t, LinComb):
            return t
        if isinstance(t, RatConst):
            return LinComb((), t.value)
        if isinstance(t, Var) and t.sort == REAL:
            return LinComb(((t, 1),), 0)
        raise ParseError("uninterpreted terms cannot appear in arithmetic", sx.line, sx.col)

    def _arith(self, op: str, args, sx) -> Term:
        terms = [self._term(a) for a in args]
        if op == "+":
            if not terms:
                raise ParseError("+ needs arguments", sx.line, sx.col)
            acc = self._to_lincomb(terms[0], sx)
            for t in terms[1:]:
                acc = acc.add(self._to_lincomb(t, sx))
            return acc
        if op == "-":
            if not terms:
                raise ParseError("- needs arguments", sx.line, sx.col)
            if len(terms) == 1:
                return self._to_lincomb(terms[0], sx).negate()
            acc = self._to_lincomb(terms[0], sx)
            for t in terms[1:]:
                acc = acc.add(self._to_lincomb(t, sx).negate())
            return acc
        if op == "*":
            if len(terms) < 2:
                raise ParseError("* needs at least two arguments", sx.line, sx.col)
            const = 1
            other: Optional[LinComb] = None
            for t, a in zip(terms, args):
                lc = self._to_lincomb(t, sx)
                if not lc.terms:
                    const *= lc.offset
                elif other is None:
                    other = lc
                else:
                    raise ParseError("multiplication must be by a numeric constant",
                                     a.line, a.col)
            return other.scale(const) if other is not None else LinComb((), const)
        # op == "/"
        if len(terms) != 2:
            raise ParseError("/ takes two arguments", sx.line, sx.col)
        num = self._to_lincomb(terms[0], sx)
        den = self._to_lincomb(terms[1], sx)
        if den.terms or den.offset == 0:
            raise ParseError("division only by a nonzero numeric constant", sx.line, sx.col)
        return num.scale(Fraction(1, den.offset))

    # -- atoms and formulas --------------------------------------------------

    def _relation(self, op: str, args, sx) -> Atom:
        if len(args) != 2:
            raise ParseError(f"{op} takes two arguments", sx.line, sx.col)
        lhs = self._term(args[0])
        rhs = self._term(args[1])
        ls, rs = term_sort(lhs), term_sort(rhs)
        if op == "=" and ls == rs and ls != REAL:
            try:
                return euf_atom(lhs, rhs)
            except SortError as exc:
                raise ParseError(str(exc), sx.line, sx.col)
        if ls != REAL or rs != REAL:
            raise ParseError(f"relation {op} needs arithmetic operands "
                             f"(got sorts {ls}, {rs})", sx.line, sx.col)
        lc = self._to_lincomb(lhs, args[0])
        rc = self._to_lincomb(rhs, args[1])
        if op in ("<=", "<", "="):
            return canonical_lin_atom(lc.add(rc.negate()), op)
        if op == ">=":
            return canonical_lin_atom(rc.add(lc.negate()), "<=")
        return canonical_lin_atom(rc.add(lc.negate()), "<")  # op == ">"

    def _bool(self, sx: _SExpr) -> BoolExpr:
        if sx.is_atom:
            text = sx.text
            if text == "true":
                return BConst(True)
            if text == "false":
                return BConst(False)
            if text in self.decls.props:
                return BAtom(self.decls.props[text])
            if text in self.decls.vars:
                raise ParseError(f"{text!r} is not Boolean", sx.line, sx.col)
            raise ParseError(f"undeclared symbol {text!r}", sx.line, sx.col)
        items = sx.items
        if not items or not items[0].is_atom:
            raise ParseError("expected a formula", sx.line, sx.col)
        op = items[0].text
        args = items[1:]
        if op == "not":
            if len(args) != 1:
                raise ParseError("not takes one argument", sx.line, sx.col)
            return BNot(self._bool(args[0]))
        if op == "and":
            if not args:
                raise ParseError("and needs arguments", sx.line, sx.col)
            return BAnd(tuple(self._bool(a) for a in args))
        if op == "or":
            if not args:
                raise ParseError("or needs arguments", sx.line, sx.col)
            return BOr(tuple(self._bool(a) for a in args))
        if op == "=>":
            if len(args) < 2:
                raise ParseError("=> needs at least two arguments", sx.line, sx.col)
            parts = [self._bool(a) for a in args]
            acc = parts[-1]
            for p in reversed(parts[:-1]):
                acc = BOr((BNot(p), acc))
            return acc
        if op == "ite":
            if len(args) != 3:
                raise ParseError("ite takes three arguments", sx.line, sx.col)
            c, t, e = (self._bool(a) for a in args)
            return BAnd((BOr((BNot(c), t)), BOr((c, e))))
        if op in ("=", "<=", "<", ">=", ">"):
            if op == "=" and len(args) == 2:
                # Boolean equality is out of the supported grammar; detect it
                # early for a clear message.
                for a in args:
                    if a.is_atom and a.text in self.decls.props:
                        raise ParseError("equality between Boolean terms is unsupported",
                                         sx.line, sx.col)
            return BAtom(self._relation(op, args, sx))
        raise ParseError(f"unsupported operator {op!r}", sx.line, sx.col)


def parse(text: str) -> AssertionSet:
    """Parse a problem text into an ordered assertion set."""
    return _Parser().run(text)


def parse_file(path: str) -> AssertionSet:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


# ---------------------------------------------------------------------------
# Rendering (used by `core --out` to write a core as a new input file)
# ---------------------------------------------------------------------------

def _frac_sexpr(value: Rational) -> str:
    if value.denominator == 1:
        return str(value.numerator) if value >= 0 else f"(- {-value.numerator})"
    if value >= 0:
        return f"(/ {value.numerator} {value.denominator})"
    return f"(- (/ {-value.numerator} {value.denominator}))"


def term_sexpr(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, RatConst):
        return _frac_sexpr(t.value)
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


def render_instance(formula, indices=None) -> str:
    """Serialize (a subset of) a formula back to the input language."""
    from .terms import LOGIC_EUF, LOGIC_LRA

    lines = []
    if formula.logic == LOGIC_EUF:
        lines.append("(set-logic QF_UF)")
    elif formula.logic == LOGIC_LRA:
        lines.append("(set-logic QF_LRA)")
    decls = formula.declarations
    if decls is not None:
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
    picked = range(len(formula.clauses)) if indices is None else sorted(set(indices))
    known_props = set(decls.props) if decls is not None else set()
    extra = []
    for i in picked:
        for lit in formula.clauses[i].lits:
            a = formula.atoms.atom(lit.atom)
            if isinstance(a, PropAtom) and a.name not in known_props:
                known_props.add(a.name)
                extra.append(a.name)
    for name in extra:  # auxiliaries introduced by CNF conversion
        lines.append(f"(declare-fun {name} () Bool)")
    for i in picked:
        clause = formula.clauses[i]
        lits = []
        for lit in clause.lits:
            s = atom_sexpr(formula.atoms.atom(lit.atom))
            lits.append(s if lit.positive else f"(not {s})")
        if not lits:
            body = "false"
        elif len(lits) == 1:
            body = lits[0]
        else:
            body = "(or " + " ".join(lits) + ")"
        lines.append(f"(assert {body})")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"
