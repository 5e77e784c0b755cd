"""General simplex over the rationals for linear arithmetic.

Every number is exact: a plain `int` while it is integral and a
`fractions.Fraction` only when a quotient is not (`_div`); no float is
ever used.  Canonical atoms have integer coefficients, so on difference
constraints every pivot divides by +-1 and the tableau stays integral,
the small-integer fast path of Dutertre & de Moura (CAV 2006).

Variables (original theory variables plus one slack per distinct
coefficient vector) carry optional lower/upper bounds valued in
delta-rationals, so strict inequalities are exact.  Pivoting uses Bland's
rule (first eligible by fixed variable order), which guarantees
termination.  Conflicts are the Farkas row of the failing bound: the
bound-introducing literals with nonzero coefficient in the infeasibility
certificate; they are sound but not necessarily minimal.

Negated equalities are held aside as disequalities and settled inside
check_full by probing both strict sides; when both sides fail the conflict
is the union of the two certificates plus the disequality literal.
check_full returns the verdict only; `witness` turns the delta-valued
assignment into a rational model on demand.

Theory propagation (`deductions`) reads the bounds and never pivots, after
Dutertre & de Moura, "A Fast Linear-Arithmetic Solver for DPLL(T)" (CAV
2006).  Every atom's linear form is lam * b for a base form b (content 1,
first coefficient positive), so `x - y` and `y - x`, or `x` and `2x`,
share one.  Unate propagation bounds b by the tightest asserted bound of
any slack over it; one round of interval propagation then bounds
multi-variable bases by their variables' bounds, and a variable by a
two-variable base plus its other variable.  Every unasserted atom whose
threshold the bounds cross is deduced, explained by the literals that set
the bounds used.  This finds fewer atoms than a simplex probe per atom
would, at a small fraction of the cost.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

from ..terms import LinAtom, Rational, Var, eval_lin_atom
from .base import Deduction, TheorySolver, TheoryVerdict


@dataclass(frozen=True, order=True)
class DeltaRational:
    """Rational plus an infinitesimal coefficient, ordered lexicographically."""
    real: Rational
    delta: Rational = 0

    def __add__(self, other: "DeltaRational") -> "DeltaRational":
        return DeltaRational(self.real + other.real, self.delta + other.delta)

    def __sub__(self, other: "DeltaRational") -> "DeltaRational":
        return DeltaRational(self.real - other.real, self.delta - other.delta)

    def scale(self, k: Rational) -> "DeltaRational":
        return DeltaRational(self.real * k, self.delta * k)

    def divide(self, k: Rational) -> "DeltaRational":
        return DeltaRational(_div(self.real, k), _div(self.delta, k))


class _Probe:
    """Sentinel bound reason used during disequality splits; never escapes
    into a reported conflict."""

    __slots__ = ("literal",)

    def __init__(self, literal: int):
        self.literal = literal


@dataclass
class _Bound:
    value: DeltaRational
    reason: object  # asserted literal or _Probe


class LraSolver(TheorySolver):
    theory = "LRA"

    def __init__(self, table):
        super().__init__(table)
        self.columns: dict[Var, int] = {}
        self.slack_of: dict[tuple, int] = {}
        self.nvars = 0
        self.rows: dict[int, dict[int, Rational]] = {}
        self.values: dict[int, DeltaRational] = {}
        self.lower: dict[int, _Bound] = {}
        self.upper: dict[int, _Bound] = {}
        self.diseqs: list[tuple[int, Rational, int]] = []
        self._tests = None  # deduction plan, built on first use (_build_propagation)

    def owns_atom(self, atom) -> bool:
        return isinstance(atom, LinAtom)

    # -- tableau ---------------------------------------------------------------

    def _new_id(self) -> int:
        vid = self.nvars
        self.nvars += 1
        self.values[vid] = DeltaRational(0)
        return vid

    def _column(self, v: Var) -> int:
        vid = self.columns.get(v)
        if vid is None:
            vid = self._new_id()
            self.columns[v] = vid
        return vid

    def _slack(self, coeffs: tuple[tuple[Var, int], ...]) -> int:
        key = tuple((v.index, c) for v, c in coeffs)
        sid = self.slack_of.get(key)
        if sid is not None:
            return sid
        row: dict[int, Rational] = {}
        for v, c in coeffs:
            col = self._column(v)
            if col in self.rows:  # substitute an already-basic variable
                for k, ck in self.rows[col].items():
                    row[k] = row.get(k, 0) + c * ck
            else:
                row[col] = row.get(col, 0) + c
        row = {k: ck for k, ck in row.items() if ck != 0}
        assert row, "a nonzero linear form cannot reduce to the empty row"
        sid = self._new_id()
        self.slack_of[key] = sid
        self.rows[sid] = row
        val = DeltaRational(0)
        for k, ck in row.items():
            val = val + self.values[k].scale(ck)
        self.values[sid] = val
        return sid

    def _update_nonbasic(self, xj: int, v: DeltaRational):
        delta = v - self.values[xj]
        for xi, row in self.rows.items():
            a = row.get(xj)
            if a:
                self.values[xi] = self.values[xi] + delta.scale(a)
        self.values[xj] = v

    def _pivot_and_update(self, xi: int, xj: int, v: DeltaRational):
        row = self.rows[xi]
        aij = row[xj]
        theta = (v - self.values[xi]).divide(aij)
        self.values[xi] = v
        self.values[xj] = self.values[xj] + theta
        for xk, rk in self.rows.items():
            if xk != xi:
                a = rk.get(xj)
                if a:
                    self.values[xk] = self.values[xk] + theta.scale(a)
        # pivot: xj leaves the nonbasic set, xi enters it
        del self.rows[xi]
        new_row = {xi: _div(1, aij)}
        for k, ck in row.items():
            if k != xj:
                new_row[k] = _div(-ck, aij)
        self.rows[xj] = new_row
        for xk, rk in list(self.rows.items()):
            if xk == xj:
                continue
            a = rk.pop(xj, None)
            if a:
                for k, ck in new_row.items():
                    nv = rk.get(k, 0) + a * ck
                    if nv:
                        rk[k] = nv
                    else:
                        rk.pop(k, None)

    # -- bounds ------------------------------------------------------------------

    def _assert_bound(self, var: int, which: str, value: DeltaRational,
                      reason) -> Optional[list]:
        store = self.lower if which == "lower" else self.upper
        cur = store.get(var)
        better = cur is None or (value > cur.value if which == "lower" else value < cur.value)
        if not better:
            return None
        self._trail.append(("bound", var, which, cur))
        store[var] = _Bound(value, reason)
        opp = (self.upper if which == "lower" else self.lower).get(var)
        if opp is not None:
            crossed = value > opp.value if which == "lower" else value < opp.value
            if crossed:
                return [reason, opp.reason]
        if var not in self.rows:  # nonbasic: move inside the bound
            if which == "lower" and self.values[var] < value:
                self._update_nonbasic(var, value)
            elif which == "upper" and self.values[var] > value:
                self._update_nonbasic(var, value)
        return None

    # -- assert / undo ------------------------------------------------------------

    def _assert(self, lit: int, atom: LinAtom) -> Optional[list[int]]:
        if not atom.coeffs:
            holds = eval_lin_atom(atom, {})
            if holds != (lit > 0):
                return [lit]
            return None
        sid = self._slack(atom.coeffs)
        c = -atom.offset
        rel, pos = atom.rel, lit > 0
        if rel == "<=":
            if pos:
                conf = self._assert_bound(sid, "upper", DeltaRational(c), lit)
            else:
                conf = self._assert_bound(sid, "lower", DeltaRational(c, 1), lit)
        elif rel == "<":
            if pos:
                conf = self._assert_bound(sid, "upper", DeltaRational(c, -1), lit)
            else:
                conf = self._assert_bound(sid, "lower", DeltaRational(c), lit)
        else:  # "="
            if pos:
                conf = self._assert_bound(sid, "lower", DeltaRational(c), lit)
                if conf is None:
                    conf = self._assert_bound(sid, "upper", DeltaRational(c), lit)
            else:
                self._trail.append(("diseq",))
                self.diseqs.append((sid, c, lit))
                conf = None
                low, up = self.lower.get(sid), self.upper.get(sid)
                if (low is not None and up is not None
                        and low.value == up.value == DeltaRational(c)):
                    conf = [low.reason, up.reason, lit]
        if conf is None:
            return None
        return self._sanitize(conf)

    def _sanitize(self, reasons) -> list[int]:
        lits = [r.literal if isinstance(r, _Probe) else r for r in reasons]
        assert all(type(lit) is int for lit in lits), "probe sentinel leaked into a conflict"
        return list(dict.fromkeys(lits))

    def _undo_to(self, length: int):
        trail = self._trail
        while len(trail) > length:
            entry = trail.pop()
            if entry[0] == "bound":
                _, var, which, old = entry
                store = self.lower if which == "lower" else self.upper
                if old is None:
                    del store[var]
                else:
                    store[var] = old
            else:  # "diseq"
                self.diseqs.pop()

    # -- feasibility --------------------------------------------------------------

    def _check(self) -> Optional[list]:
        """Restore feasibility or return the raw reason list of a conflict
        (may contain probe sentinels)."""
        for var in sorted(self.lower):
            up = self.upper.get(var)
            if up is not None and self.lower[var].value > up.value:
                return [self.lower[var].reason, up.reason]
        while True:
            victim = None
            for xi in sorted(self.rows):
                low = self.lower.get(xi)
                if low is not None and self.values[xi] < low.value:
                    victim = (xi, "low")
                    break
                up = self.upper.get(xi)
                if up is not None and self.values[xi] > up.value:
                    victim = (xi, "up")
                    break
            if victim is None:
                return None
            xi, kind = victim
            row = self.rows[xi]
            pivot = None
            for xj in sorted(row):
                a = row[xj]
                if kind == "low":
                    ok = (a > 0 and (xj not in self.upper
                                     or self.values[xj] < self.upper[xj].value)) or \
                         (a < 0 and (xj not in self.lower
                                     or self.values[xj] > self.lower[xj].value))
                else:
                    ok = (a < 0 and (xj not in self.upper
                                     or self.values[xj] < self.upper[xj].value)) or \
                         (a > 0 and (xj not in self.lower
                                     or self.values[xj] > self.lower[xj].value))
                if ok:
                    pivot = xj
                    break
            if pivot is None:
                if kind == "low":
                    reasons = [self.lower[xi].reason]
                    for xj in sorted(row):
                        reasons.append(self.upper[xj].reason if row[xj] > 0
                                       else self.lower[xj].reason)
                else:
                    reasons = [self.upper[xi].reason]
                    for xj in sorted(row):
                        reasons.append(self.lower[xj].reason if row[xj] > 0
                                       else self.upper[xj].reason)
                return reasons
            target = self.lower[xi].value if kind == "low" else self.upper[xi].value
            self._pivot_and_update(xi, pivot, target)

    # -- disequality splitting ------------------------------------------------------

    def _violated_diseq(self, pinned: frozenset) -> Optional[int]:
        for i, (sid, c, _lit) in enumerate(self.diseqs):
            if i in pinned:
                continue
            if self.values[sid] == DeltaRational(c):
                return i
        return None

    def _settle_diseqs(self, pinned: frozenset) -> Optional[list]:
        i = self._violated_diseq(pinned)
        if i is None:
            return None
        sid, c, dlit = self.diseqs[i]
        collected = []
        for which, value in (("upper", DeltaRational(c, -1)),
                             ("lower", DeltaRational(c, 1))):
            length = len(self._trail)
            probe = _Probe(dlit)
            conf = self._assert_bound(sid, which, value, probe)
            if conf is None:
                conf = self._check()
            if conf is None:
                conf = self._settle_diseqs(pinned | {i})
            if conf is None:
                return None  # this side works; probes stay until check_full unwinds
            self._undo_to(length)
            if probe not in conf:
                return conf  # conflict independent of the split
            collected.append([r for r in conf if r is not probe])
        merged = collected[0] + collected[1] + [dlit]
        return merged

    # -- public checks -----------------------------------------------------------------

    def check_full(self) -> TheoryVerdict:
        start = len(self._trail)
        conf = self._check()
        if conf is None:
            conf = self._settle_diseqs(frozenset())
        self._undo_to(start)
        if conf is not None:
            return TheoryVerdict("conflict", conflict=self._sanitize(conf))
        return TheoryVerdict("sat")

    def witness(self) -> dict[Var, Rational]:
        """The simplex assignment with the infinitesimal made concrete:
        halve a rational epsilon until every asserted literal holds.  The
        disequality probes of check_full are undone but the values they
        moved stay, so this is a model right after a "sat" check_full."""
        eps = 1
        atoms = [(self.table.atom(abs(l)), l > 0) for l in self._asserted]
        for _ in range(220):
            vals = {v: self.values[vid].real + self.values[vid].delta * eps
                    for v, vid in self.columns.items()}
            if all(eval_lin_atom(a, vals) == pos for a, pos in atoms):
                return vals
            eps = _div(eps, 2)
        raise RuntimeError("could not concretize the infinitesimal")

    # -- deductions ------------------------------------------------------------------

    def _build_propagation(self):
        """Group the atoms by base form, in table order.  An atom `s rel c`
        over its slack s = lam * b, b its base form, holds exactly when
        least <= b <= most, with thresholds in base units (c / lam; None
        when unbounded, a nonzero infinitesimal when strict)."""
        bases: dict[tuple, int] = {}
        groups: dict[tuple, tuple[int, Rational]] = {}
        constants = []
        tests = []
        for atom_id, atom in self.table.items():
            if not isinstance(atom, LinAtom):
                continue
            if not atom.coeffs:
                constants.append(atom_id if eval_lin_atom(atom, {}) else -atom_id)
                continue
            form, lam = _base_form(atom.coeffs)
            bid = bases.setdefault(form, len(bases))
            groups.setdefault(tuple((v.index, c) for v, c in atom.coeffs), (bid, lam))
            k = _div(-atom.offset, lam)
            strict = int(atom.rel == "<")
            if atom.rel == "=":
                least = most = DeltaRational(k)
            elif lam > 0:
                least, most = None, DeltaRational(k, -strict)
            else:
                least, most = DeltaRational(k, strict), None
            tests.append((atom_id, bid, least, most))
        # one interval rule per derivable base: target <- sum(coeff * source)
        single = {form[0][0]: bid for form, bid in bases.items() if len(form) == 1}
        rules = []
        for form, bid in bases.items():
            if len(form) < 2:
                continue
            if all(v in single for v, _ in form):
                rules.append((bid, tuple((single[v], c) for v, c in form)))
            if len(form) == 2:
                for (vi, ci), (vj, cj) in ((form[0], form[1]), (form[1], form[0])):
                    if vi in single and vj in single:
                        rules.append((single[vj], ((bid, _div(1, cj)), (single[vi], _div(-ci, cj)))))
        self._groups = groups
        self._rules = rules
        self._constants = constants
        self._tests = tests
        self._live = []

    def _live_groups(self) -> list[tuple[int, int, Rational]]:
        """(slack id, base id, 1/lam) for every atom slack the tableau has,
        in table order; slacks are never dropped, so this is cached until
        the next one is made."""
        if len(self._live) != len(self.slack_of):
            self._live = [(self.slack_of[key], bid, _div(1, lam))
                          for key, (bid, lam) in self._groups.items()
                          if key in self.slack_of]
        return self._live

    def deductions(self) -> list[Deduction]:
        """Unate and interval propagation over the current bounds; reads the
        tableau state and never changes it."""
        if self._tests is None:
            self._build_propagation()
        lo: dict[int, tuple[DeltaRational, tuple[int, ...]]] = {}
        hi: dict[int, tuple[DeltaRational, tuple[int, ...]]] = {}
        for sid, bid, inv in self._live_groups():
            for bound, is_lower in ((self.lower.get(sid), inv > 0),
                                    (self.upper.get(sid), inv < 0)):
                if bound is not None:
                    value = bound.value if inv == 1 else _strictness(bound.value.scale(inv))
                    _tighten(lo if is_lower else hi, bid, is_lower, value, (bound.reason,))
        derived_lo: dict[int, tuple] = {}
        derived_hi: dict[int, tuple] = {}
        for target, terms in self._rules:
            for is_lower, out in ((True, derived_lo), (False, derived_hi)):
                total = DeltaRational(0)
                expl: list[int] = []
                for src, coeff in terms:
                    entry = (lo if (coeff > 0) == is_lower else hi).get(src)
                    if entry is None:
                        break
                    total = total + (entry[0] if coeff == 1 else entry[0].scale(coeff))
                    expl.extend(entry[1])
                else:
                    _tighten(out, target, is_lower, _strictness(total),
                             tuple(dict.fromkeys(expl)))
        for derived, side, is_lower in ((derived_lo, lo, True), (derived_hi, hi, False)):
            for bid, (value, expl) in derived.items():
                _tighten(side, bid, is_lower, value, expl)
        out = [Deduction(lit, ()) for lit in self._constants
               if abs(lit) not in self._asserted_atoms]
        for atom_id, bid, least, most in self._tests:
            if atom_id in self._asserted_atoms:
                continue
            low, up = lo.get(bid), hi.get(bid)
            low_in = least is None or (low is not None and low[0] >= least)
            up_in = most is None or (up is not None and up[0] <= most)
            if low_in and up_in:
                expl = (low[1] if least is not None else ()) + (up[1] if most is not None else ())
                out.append(Deduction(atom_id, tuple(dict.fromkeys(expl))))
            elif low is not None and most is not None and low[0] > most:
                out.append(Deduction(-atom_id, low[1]))
            elif up is not None and least is not None and up[0] < least:
                out.append(Deduction(-atom_id, up[1]))
        return out


def _div(a: Rational, b: Rational) -> Rational:
    """The exact quotient a / b: an int when it is integral, a Fraction
    otherwise."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = a / b
    return q.numerator if q.denominator == 1 else q


def _base_form(coeffs) -> tuple[tuple, Rational]:
    """(base form, lam) with coeffs = lam * base: the base is the vector over
    variable indices divided by its content, first coefficient positive."""
    lam = gcd(*(c for _, c in coeffs))
    if coeffs[0][1] < 0:
        lam = -lam
    return tuple((v.index, c // lam) for v, c in coeffs), lam


def _strictness(value: DeltaRational) -> DeltaRational:
    """Keep only the sign of the infinitesimal: a bound is strict or not,
    and the size of delta carries no meaning once rows are combined."""
    d = value.delta
    return DeltaRational(value.real, (d > 0) - (d < 0))


def _tighten(side: dict, bid: int, is_lower: bool, value: DeltaRational, expl: tuple):
    cur = side.get(bid)
    if cur is None or (value > cur[0] if is_lower else value < cur[0]):
        side[bid] = (value, expl)
