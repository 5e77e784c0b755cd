"""General simplex over the rationals for linear arithmetic.

Every number is exact: a plain `int` while it is integral and a
`fractions.Fraction` only when a quotient is not (`_div`); no float is
ever used.  Canonical atoms have integer coefficients, so on difference
constraints every pivot divides by +-1 and the tableau stays integral,
the small-integer fast path of Dutertre & de Moura (CAV 2006).

Every atom's linear form is lam * b for a base form b (content 1, first
coefficient positive), so `x - y` and `y - x`, or `x` and `2x`, share
one, and an atom is a bound on the one slack of its base form, at its
constant divided by lam.  Variables (original theory variables plus the
slacks) carry optional lower/upper bounds valued in delta-rationals, so
strict inequalities are exact.  A delta-rational is a plain
`(real, delta)` tuple standing for real + delta * eps with eps > 0
infinitesimal, so Python's tuple order is the order of the values.  Each
literal's slack and bound tuples are worked out once, on its first
assertion.  A nonbasic variable moves by one routine, `_update_nonbasic`,
which moves each basic variable whose row holds it: a bound asserted on
it moves it into the bound, and `_pivot_and_update` moves the entering
column by the step that brings the leaving variable to its bound, then
pivots.  The check keeps a set holding every basic variable outside its
bounds and repairs the smallest first, which is Bland's rule (first
eligible by fixed variable order) and guarantees termination.  One rule
repairs either side, up to sign: a variable below its lower bound must
rise and one above its upper bound must fall, so the first column that
can move it that way enters, and when none can, the violated bound and
the bounds blocking the row's columns are the conflict.  A bound asserted
past the opposite bound is a conflict at once and stays one until it is
undone.  Conflicts are the Farkas row of the failing bound: the
bound-introducing literals with nonzero coefficient in the infeasibility
certificate; they are sound but not necessarily minimal.

`assert_literal` works out a literal's plan the first time it is seen,
and rejects a literal that is not over a `LinAtom`.  Every assert and
every undo sets `changed`: an undo restores the bounds but not the basis,
so a check may pivot otherwise than it did before.

Negated equalities are held aside as disequalities and settled inside
check_full by probing both strict sides; when both sides fail the conflict
is the union of the two certificates plus the disequality literal.
`assert_literal` and check_full answer only whether there is a conflict.
The solver keeps the reasons of the one it found, each once, and
`conflict_clauses` states it as the one clause that negates them;
`witness` turns the delta-valued assignment into a rational model on
demand: the assignment under the first eps = 2**-k for which every
asserted literal holds, by the atoms' own `eval_lin_atom`.

Theory propagation (`deductions`) reads the bounds and never pivots, after
Dutertre & de Moura, "A Fast Linear-Arithmetic Solver for DPLL(T)" (CAV
2006).  Unate propagation bounds each base by the asserted bounds of its
slack; one round of interval propagation then bounds multi-variable
bases by their variables' bounds, and a variable by a two-variable base
plus its other variable.  Every unasserted atom whose threshold the
bounds cross is deduced, explained by the literals that set the bounds
used.  This finds fewer atoms than a simplex probe per atom would, at a
small fraction of the cost.

Propagation is driven by the undo trail.  The rule-derived bounds are
solver state, and every change to them is a trail entry, so backtracking
restores them with the asserted bounds.  A call reads only the slacks
whose bounds moved since the state was last brought up to date, re-runs
only the interval rules that read them, and tests only the atoms whose
answer can differ from the previous call's: those over a base whose
bound changed, those unasserted since, and those the previous call
reported.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd
from typing import Callable, Optional

from ..terms import LinAtom, Rational, Var, eval_lin_atom
from .base import TheorySolver

# undo-trail entry tags
_BOUND, _DISEQ, _CROSSED, _SLOT, _SYNCED = range(5)

# how a literal acts on its slack (_literal_plan)
_CONST, _BOUNDS, _NOT_EQUAL = range(3)


class _Propagation:
    """The deduction plan of one solver's atom table, and the rule-derived
    bounds it maintains.

    The plan groups the atoms by base form, in table order, and lists the
    interval rules over those bases.  An atom `s rel c` over the linear
    form s = lam * b, b its base form, holds exactly when least <= b <=
    most, with thresholds in base units (c / lam; None when unbounded, a
    nonzero infinitesimal when strict).  A base's own bounds are those
    asserted on its slack (`slack`, None until one has been: unbounded).

    The state is, per side (0 lower, 1 upper), a (value, explanation) or
    None per rule for the bound it derives, and per base for the tightest
    of its rules' bounds when that is strictly tighter than its slack's
    own (ruled).  The solver writes it through the undo trail
    (`LraSolver._set_slot`)."""

    def __init__(self, solver: "LraSolver"):
        bases: dict[tuple, int] = {}
        self.constants: list[int] = []
        self.tests: list[tuple] = []           # (atom id, base, least, most)
        self.tests_of: list[list[int]] = []    # base -> its tests
        self.test_of_atom: dict[int, int] = {}
        tests, tests_of, base_form = self.tests, self.tests_of, solver._base_form
        for atom_id, atom in solver.table.items():
            if not isinstance(atom, LinAtom):
                continue
            if not atom.coeffs:
                self.constants.append(atom_id if eval_lin_atom(atom, {}) else -atom_id)
                continue
            form, lam = base_form(atom.coeffs)
            bid = bases.get(form)
            if bid is None:
                bid = bases[form] = len(bases)
                tests_of.append([])
            k = _div(-atom.offset, lam)
            rel = atom.rel
            if rel == "=":
                least = most = (k, 0)
            elif lam > 0:
                least, most = None, (k, -(rel == "<"))
            else:
                least, most = (k, int(rel == "<")), None
            self.test_of_atom[atom_id] = test = len(tests)
            tests_of[bid].append(test)
            tests.append((atom_id, bid, least, most))
        nbases = len(bases)
        self.base_of = bases                   # base form -> base
        self.slack: list[Optional[int]] = [None] * nbases
        self.ruled = ([None] * nbases, [None] * nbases)
        # one interval rule per derivable base: target <- sum(coeff * source)
        single = {form[0][0]: bid for form, bid in bases.items() if len(form) == 1}
        rules = []
        for form, bid in bases.items() if single else ():  # rules read one-variable bases
            if len(form) < 2:
                continue
            if all(v in single for v, _ in form):
                rules.append((bid, tuple((single[v], c) for v, c in form)))
            if len(form) == 2:
                for (vi, ci), (vj, cj) in ((form[0], form[1]), (form[1], form[0])):
                    if vi in single and vj in single:
                        rules.append((single[vj], ((bid, _div(1, cj)),
                                                   (single[vi], _div(-ci, cj)))))
        self.rule_target = [target for target, _terms in rules]
        # per side and rule, its terms, each reading its source's slack
        # bound on the side the coefficient's sign selects
        stores = (solver.lower, solver.upper)
        self.rule_terms = tuple(
            [tuple((stores[side if c > 0 else 1 - side], src, c) for src, c in terms)
             for _target, terms in rules]
            for side in (0, 1))
        self.rule_bounds = ([None] * len(rules), [None] * len(rules))
        self.rules_of: list[list[int]] = [[] for _ in range(nbases)]  # target -> its rules
        self.readers: list[list[int]] = [[] for _ in range(nbases)]   # source -> rules reading it
        for r, (target, terms) in enumerate(rules):
            self.rules_of[target].append(r)
            for src, _c in terms:
                self.readers[src].append(r)


class LraSolver(TheorySolver):
    def __init__(self, table):
        super().__init__(table)
        self.columns: dict[Var, int] = {}
        self.slack_of: dict[tuple, int] = {}
        self._bases: dict[tuple, tuple] = {}     # linear form -> _base_form
        self._form_of: dict[int, tuple] = {}     # slack -> its base form
        self.nvars = 0
        self.rows: dict[int, dict[int, Rational]] = {}
        self.values: dict[int, tuple] = {}       # variable -> (real, delta)
        self.lower: dict[int, tuple] = {}        # variable -> ((real, delta), reason)
        self.upper: dict[int, tuple] = {}        # reason: an asserted literal
        self.diseqs: list[tuple[int, Rational, int]] = []
        self._out_of_bounds: set[int] = set()    # holds every basic variable outside its bounds
        self._crossed: Optional[list] = None     # reasons of a bound asserted past its opposite
        self._conflict: list[int] = []           # reasons of the last conflict found, each once
        self._lit_plans: dict[int, tuple] = {}   # literal -> _literal_plan
        self._prop: Optional[_Propagation] = None  # built on the first deductions call
        self._synced = 0                     # trail length the base bounds are current at
        self._reported: list[int] = []       # tests the last call reported
        self._seen: set[int] = set()         # atoms asserted at the last call

    # -- tableau ---------------------------------------------------------------

    def _base_form(self, coeffs) -> tuple[tuple, int]:
        """(base form, lam) with coeffs = lam * base, coeffs a linear form as
        (variable, coefficient) pairs and the base as (variable index,
        coefficient) pairs: the form divided by its content, first
        coefficient positive.  Worked out once per linear form."""
        base = self._bases.get(coeffs)
        if base is None:
            lam = gcd(*(c for _, c in coeffs))
            if coeffs[0][1] < 0:
                lam = -lam
            base = self._bases[coeffs] = tuple([(v.index, c // lam) for v, c in coeffs]), lam
        return base

    def _new_id(self) -> int:
        vid = self.nvars
        self.nvars += 1
        self.values[vid] = (0, 0)
        return vid

    def _slack(self, coeffs: tuple[tuple[Var, int], ...]) -> tuple[int, int]:
        """(slack, lam) for a linear form lam * b, b its base form: the
        slack stands for b, and its row is made on the first call."""
        form, lam = self._base_form(coeffs)
        sid = self.slack_of.get(form)
        if sid is not None:
            return sid, lam
        row: dict[int, Rational] = {}
        for v, c in coeffs:
            c //= lam
            col = self.columns.get(v)
            if col is None:
                col = self.columns[v] = self._new_id()
            if col in self.rows:  # substitute an already-basic variable
                for k, ck in self.rows[col].items():
                    row[k] = row.get(k, 0) + c * ck
            else:
                row[col] = row.get(col, 0) + c
        row = {k: ck for k, ck in row.items() if ck != 0}
        assert row, "a nonzero linear form cannot reduce to the empty row"
        sid = self._new_id()
        self.slack_of[form] = sid
        self._form_of[sid] = form
        self.rows[sid] = row
        real = delta = 0
        for k, ck in row.items():
            vr, vd = self.values[k]
            real, delta = real + vr * ck, delta + vd * ck
        self.values[sid] = (real, delta)
        return sid, lam

    def _track(self, var: int, value: tuple):
        """Put a basic variable whose value just changed in the
        out-of-bounds set when its new value violates a bound."""
        low = self.lower.get(var)
        if low is not None and value < low[0]:
            self._out_of_bounds.add(var)
            return
        up = self.upper.get(var)
        if up is not None and value > up[0]:
            self._out_of_bounds.add(var)

    def _update_nonbasic(self, xj: int, dr: Rational, dd: Rational):
        """Move every basic variable whose row holds column xj as xj moves
        by dr + dd * eps; the caller sets xj's own value."""
        values = self.values
        for xi, row in self.rows.items():
            a = row.get(xj)
            if a:
                r, d = values[xi]
                values[xi] = nv = (r + dr * a, d + dd * a)
                self._track(xi, nv)

    def _pivot_and_update(self, xi: int, xj: int, v: tuple):
        """Move basic xi to v by moving column xj, then pivot: xj becomes
        basic and xi nonbasic at v."""
        values = self.values
        row = self.rows[xi]
        aij = row[xj]
        r, d = values[xi]
        tr, td = _div(v[0] - r, aij), _div(v[1] - d, aij)
        r, d = values[xj]
        values[xj] = (r + tr, d + td)
        self._update_nonbasic(xj, tr, td)
        values[xi] = v                  # exact as given: no int turns into a Fraction
        self._out_of_bounds.discard(xi)
        self._track(xj, values[xj])
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

    def _assert_bound(self, var: int, is_lower: bool, value: tuple,
                      reason) -> Optional[list]:
        store, opposite = (self.lower, self.upper) if is_lower else (self.upper, self.lower)
        cur = store.get(var)
        if cur is not None and (value <= cur[0] if is_lower else value >= cur[0]):
            return None
        self._trail.append((_BOUND, var, is_lower, cur))
        store[var] = (value, reason)
        opp = opposite.get(var)
        if opp is not None and (value > opp[0] if is_lower else value < opp[0]):
            self._trail.append((_CROSSED, self._crossed))
            self._crossed = [reason, opp[1]]
            return self._crossed
        current = self.values[var]
        if current < value if is_lower else current > value:
            if var in self.rows:
                self._out_of_bounds.add(var)
            else:  # nonbasic: move inside the bound
                self._update_nonbasic(var, value[0] - current[0], value[1] - current[1])
                self.values[var] = value
        return None

    # -- assert / undo ------------------------------------------------------------

    def _literal_plan(self, lit: int, atom: LinAtom) -> tuple:
        """(kind, slack, data) of a literal: _BOUNDS with the (is_lower,
        value) pairs it asserts on its slack, _NOT_EQUAL with the constant
        its slack must differ from, or _CONST (no slack) with whether it
        holds.  The atom `lam * b rel c` is stated on b's slack, at c / lam
        and on the side the sign of lam selects."""
        if not atom.coeffs:
            return _CONST, None, eval_lin_atom(atom, {}) == (lit > 0)
        sid, lam = self._slack(atom.coeffs)
        c = _div(-atom.offset, lam)
        if atom.rel == "=":
            if lit > 0:
                return _BOUNDS, sid, ((True, (c, 0)), (False, (c, 0)))
            return _NOT_EQUAL, sid, c
        # a positive literal bounds lam * b from above, strictly when it is
        # `<`; a negative one from below, strictly when it negates `<=`
        is_lower = (lit > 0) != (lam > 0)
        strict = (atom.rel == "<") == (lit > 0)
        return _BOUNDS, sid, ((is_lower, (c, (1 if is_lower else -1) if strict else 0)),)

    def assert_literal(self, lit: int) -> bool:
        """Works out the literal's plan the first time it is asserted."""
        plan = self._lit_plans.get(lit)
        if plan is None:
            atom = self.table.atom(abs(lit))
            if not isinstance(atom, LinAtom):
                raise ValueError(f"literal over {type(atom).__name__} does not belong to LRA")
            plan = self._lit_plans[lit] = self._literal_plan(lit, atom)
        self._asserted.append(lit)
        self._asserted_atoms.add(abs(lit))
        self._marks.append(len(self._trail))
        self.changed = True
        kind, sid, data = plan
        if kind == _BOUNDS:
            for is_lower, value in data:
                conf = self._assert_bound(sid, is_lower, value, lit)
                if conf is not None:
                    return self._found(conf)
            return False
        if kind == _CONST:
            return not data and self._found([lit])
        self._trail.append((_DISEQ,))
        self.diseqs.append((sid, data, lit))
        low, up = self.lower.get(sid), self.upper.get(sid)
        if low is not None and up is not None and low[0] == up[0] == (data, 0):
            return self._found([low[1], up[1], lit])
        return False

    def _found(self, reasons) -> bool:
        """Keep `reasons`, a raw reason list that may repeat a literal, as
        the conflict just found, each literal once; True."""
        self._conflict = list(dict.fromkeys(reasons))
        return True

    def conflict_clauses(self, new_var: Callable[[], int]) -> list[tuple[int, ...]]:
        """The one clause negating the reasons of the last conflict."""
        return [tuple([-lit for lit in self._conflict])]

    def _undo_to(self, length: int):
        trail = self._trail
        while len(trail) > length:
            entry = trail.pop()
            tag = entry[0]
            if tag == _BOUND:
                _, var, is_lower, old = entry
                store = self.lower if is_lower else self.upper
                if old is None:
                    del store[var]
                else:
                    store[var] = old
            elif tag == _SLOT:
                entry[1][entry[2]] = entry[3]
            elif tag == _DISEQ:
                self.diseqs.pop()
            elif tag == _SYNCED:
                self._synced = entry[1]
            else:  # _CROSSED
                self._crossed = entry[1]
        self.changed = True  # the basis stays as the undone steps left it

    # -- feasibility --------------------------------------------------------------

    def _check(self) -> Optional[list]:
        """Restore feasibility or return the raw reason list of a conflict
        (may repeat a literal)."""
        if self._crossed is not None:
            return self._crossed
        rows, values, lower, upper = self.rows, self.values, self.lower, self.upper
        out = self._out_of_bounds
        while out:
            xi = min(out)  # basic: a variable leaves the set as it leaves the basis
            row = rows[xi]
            # the violated bound, and whether xi must rise to it
            low, up = lower.get(xi), upper.get(xi)
            if low is not None and values[xi] < low[0]:
                bound, rising = low, True
            elif up is not None and values[xi] > up[0]:
                bound, rising = up, False
            else:
                out.discard(xi)
                continue
            # the first column, in index order, that can move the way that
            # moves xi towards the bound (xi's way when its coefficient is
            # positive) before its own bound blocks it; if none can, the
            # violated bound and the blocking ones are the Farkas row
            reasons = [bound[1]]
            for xj in sorted(row):
                if (row[xj] > 0) == rising:
                    block = upper.get(xj)
                    if block is None or values[xj] < block[0]:
                        break
                else:
                    block = lower.get(xj)
                    if block is None or values[xj] > block[0]:
                        break
                reasons.append(block[1])
            else:
                return reasons
            self._pivot_and_update(xi, xj, bound[0])
        return None

    # -- disequality splitting ------------------------------------------------------

    def _violated_diseq(self, pinned: frozenset) -> Optional[int]:
        for i, (sid, c, _lit) in enumerate(self.diseqs):
            if i in pinned:
                continue
            if self.values[sid] == (c, 0):
                return i
        return None

    def _settle_diseqs(self, pinned: frozenset) -> Optional[list]:
        i = self._violated_diseq(pinned)
        if i is None:
            return None
        sid, c, dlit = self.diseqs[i]
        collected = []
        for is_lower, value in ((False, (c, -1)), (True, (c, 1))):
            length = len(self._trail)
            # the probed side's reason is dlit: a disequality literal is the
            # reason of no other bound, so a conflict naming it needs the split
            conf = self._assert_bound(sid, is_lower, value, dlit)
            if conf is None:
                conf = self._check()
            if conf is None:
                conf = self._settle_diseqs(pinned | {i})
            if conf is None:
                return None  # this side works; probes stay until check_full unwinds
            self._undo_to(length)
            if dlit not in conf:
                return conf  # conflict independent of the split
            collected.append([r for r in conf if r != dlit])
        return collected[0] + collected[1] + [dlit]

    # -- public checks -----------------------------------------------------------------

    def check_full(self) -> bool:
        start = len(self._trail)
        conf = self._check()
        if conf is None:
            conf = self._settle_diseqs(frozenset())
        self._undo_to(start)
        return conf is not None and self._found(conf)

    def witness(self) -> dict[Var, Rational]:
        """The simplex assignment with the infinitesimal made concrete: for
        the first eps = 2**-k (k = 0, 1, ...) under which every asserted
        literal holds, each column's r + d * eps.  At k = 0 eps is the int
        1, so an integral assignment stays integral.  The disequality probes
        of check_full are undone but the values they moved stay, so this is
        a model right after a check_full that found no conflict.

        The loop ends: right after such a check the delta-valued assignment
        meets every asserted bound and disequality for every small enough
        eps > 0, so the eps that work form an interval (0, E) less at most
        one root per disequality."""
        values = self.values
        for k in count():
            eps = 1 if k == 0 else Fraction(1, 1 << k)
            vals = {v: values[vid][0] + values[vid][1] * eps for v, vid in self.columns.items()}
            if all(eval_lin_atom(self.table.atom(abs(lit)), vals) == (lit > 0)
                   for lit in self._asserted):
                return vals

    # -- deductions ------------------------------------------------------------------

    def _set_slot(self, slots: list, bid: int, value) -> bool:
        """Set one per-base bound through the trail; whether it changed."""
        old = slots[bid]
        if value == old:
            return False
        self._trail.append((_SLOT, slots, bid, old))
        slots[bid] = value
        return True

    def _sync_bases(self, prop: _Propagation) -> set[int]:
        """Bring the rule-derived bounds up to date with the asserted
        bounds, reading only the slacks whose bounds moved since they last
        were and re-running only the rules that read them; returns the
        bases whose bound may have changed."""
        trail = self._trail
        changed = set()
        for entry in trail[self._synced:]:
            if entry[0] == _BOUND:
                bid = prop.base_of.get(self._form_of[entry[1]])
                if bid is not None:
                    prop.slack[bid] = entry[1]
                    changed.add(bid)
        rules = {r for bid in changed for r in prop.readers[bid]}
        for r in rules:
            for side in (0, 1):
                if self._set_slot(prop.rule_bounds[side], r,
                                  _rule_bound(prop.rule_terms[side][r], prop.slack)):
                    changed.add(prop.rule_target[r])
        # ruled: the tightest rule bound, the first in rule order among
        # equals, when it is strictly tighter than the slack's own bound
        for bid in changed:
            for side, store in ((0, self.lower), (1, self.upper)):
                own = store.get(prop.slack[bid])
                best = None if own is None else own[0]
                tightest = None
                for r in prop.rules_of[bid]:
                    bound = prop.rule_bounds[side][r]
                    if bound is not None and (best is None or (
                            bound[0] > best if side == 0 else bound[0] < best)):
                        best, tightest = bound[0], bound
                self._set_slot(prop.ruled[side], bid, tightest)
        trail.append((_SYNCED, self._synced))
        self._synced = len(trail)
        return changed

    def deductions(self) -> list[tuple[int, ...]]:
        """Unate and interval propagation over the current bounds, each
        deduction as its lemma clause; changes no bound, value or row of
        the tableau."""
        prop = self._prop
        if prop is None:
            prop = self._prop = _Propagation(self)
        asserted = self._asserted_atoms
        # The answer can change only for atoms over a base whose bound
        # changed, atoms the last call reported and atoms unasserted since.
        # A base an undo restored needs no more: its bound is that of an
        # earlier call, so looser, and an atom it entails was entailed at
        # the last call too, which reported it unless it was asserted then.
        candidates = set(self._reported)
        for bid in self._sync_bases(prop):
            candidates.update(prop.tests_of[bid])
        for atom_id in self._seen - asserted:
            test = prop.test_of_atom.get(atom_id)
            if test is not None:
                candidates.add(test)
        out = [(lit,) for lit in prop.constants if abs(lit) not in asserted]
        (lo, hi), lower, upper, slack = prop.ruled, self.lower, self.upper, prop.slack
        reported = []
        for test in sorted(candidates):
            atom_id, bid, least, most = prop.tests[test]
            if atom_id in asserted:
                continue
            low = lo[bid] or _own(lower.get(slack[bid]))
            up = hi[bid] or _own(upper.get(slack[bid]))
            low_in = least is None or (low is not None and low[0] >= least)
            up_in = most is None or (up is not None and up[0] <= most)
            if low_in and up_in:
                expl = (low[1] if least is not None else ()) + (up[1] if most is not None else ())
                out.append((*[-lit for lit in dict.fromkeys(expl)], atom_id))
            elif low is not None and most is not None and low[0] > most:
                out.append((*[-lit for lit in low[1]], -atom_id))
            elif up is not None and least is not None and up[0] < least:
                out.append((*[-lit for lit in up[1]], -atom_id))
            else:
                continue
            reported.append(test)
        self._reported = reported
        self._seen = set(asserted)
        return out


def _div(a: Rational, b: Rational) -> Rational:
    """The exact quotient a / b: an int when it is integral, a Fraction
    otherwise."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = a / b
    return q.numerator if q.denominator == 1 else q


def _own(entry) -> Optional[tuple]:
    """A slack's bound entry (value, reason) as a (value, explanation)
    bound, or None when the slack has none on that side."""
    return None if entry is None else (entry[0], (entry[1],))


def _sign(x: Rational) -> int:
    return (x > 0) - (x < 0)


def _rule_bound(terms, slack) -> Optional[tuple]:
    """The bound an interval rule derives from the slack bounds of its
    sources, or None when one is unbounded (a base with no slack yet is).
    Only the sign of the summed infinitesimal is kept: a bound is strict
    or not, and the size of delta carries no meaning once rows are
    combined."""
    real = delta = 0
    expl: list = []
    for store, src, coeff in terms:
        entry = store.get(slack[src])
        if entry is None:
            return None
        (vr, vd), reason = entry
        real, delta = real + vr * coeff, delta + vd * coeff
        expl.append(reason)
    return (real, _sign(delta)), tuple(dict.fromkeys(expl))
