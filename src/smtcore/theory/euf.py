"""Backtrackable congruence closure for equality with uninterpreted functions.

The design follows Nieuwenhuis & Oliveras, "Fast congruence closure and
extensions" (2007).  Every term of every EUF atom in the table is
registered once, when the solver is built, so the hot path works on dense
term ids and never hashes a `Term`:

- a representative array with class lists: finding a class is one array
  read, and a merge relabels the members of the smaller class;
- use lists: per class, the applications with an argument in it.  A merge
  re-signs the applications of the absorbed class against the signature
  table, keyed by a function symbol's number and the argument classes; a
  hit on another class is a congruence and is merged in turn;
- a proof forest whose edges are labeled either with the asserted equality
  literal that caused the merge or with a congruence step, whose argument
  equalities are explained in turn.  Explanations are not guaranteed
  minimal;
- disequalities, listed per class and indexed by the ordered pair of their
  endpoints' classes, both ways round, under one integer key: a merge
  checks only the absorbed class's disequalities, and a deduction finds
  the disequality separating an atom's two classes with one lookup.

`assert_literal` is one call: the `_ends` table both decides that a
literal is the solver's and gives its two terms.  It sets `changed` only
when the closure changes, by a merge, a pair of classes newly separated or
a conflict: an equality inside one class, or a disequality between two
classes already separated, leaves `check_full` and `deductions` with the
answers they had, so the engine runs neither for it.

Every change to these structures is pushed on the base class's undo
trail, and backtracking pops the trail back to the length it had when the
mark's literal was asserted; nothing is rebuilt from the asserted prefix.
The undo is exact: after `backtrack(n)` the classes, signatures and
disequalities are those the first n literals gave, and the proof forest
has the same edges with the same labels.  An undone link cuts its edge
without turning the tree back, so an edge may point the other way than
before; a path between two terms of one tree is unique, so every
explanation and lemma reads the same edges in the same order.  So
`_undo_to` clears `changed`: the engine decides only after the theory
pass of its level, and a backjump lands on a state that pass has read.

A conflict is a disequality whose two sides share a class; `assert_literal`
and `check_full` only answer whether one holds.  It reaches the engine as
`conflict_clauses` builds it from the proof forest, a chain of short
lemmas rather than one clause, so no flat explanation of it is made.  The
chain follows the path between the two sides a, b of the violated
disequality (a reflexive one, a != a, has none and is the one clause
a = a): each asserted edge u - v adds
(not a=u) or (not u=v) or a=v, each congruence edge between f(s..) and
f(t..) adds (not s1=t1) or ... or f(s..)=f(t..), whose argument
equalities are broken up the same way, and the last lemma concludes the
disequality's own atom a=b.  An equality the table has no atom for gets
a variable of its own (`_eq_var`, the only theory atoms past the table),
which is asserted and backtracked like a table atom (the engine asserts
only its positive literal) but left out of `deductions`: its own lemmas
propagate it.
So the search learns a = x_i once, not once per path through a chain of
diamonds, as with splitting on demand (Barrett, Nieuwenhuis, Oliveras &
Tinelli, LPAR 2006).
"""
from __future__ import annotations

from typing import Callable, Optional

from ..terms import EufAtom, FunApp, Term, euf_atom
from .base import TheorySolver

# undo-trail entry tags
_MERGE, _SIG, _DISEQ, _PAIR, _CONFLICT = range(5)


class EufSolver(TheorySolver):
    def __init__(self, table):
        super().__init__(table)
        self.terms: list[Term] = []
        self._fn: list[int] = []                 # function symbol number; -1 for a constant
        self._args: list[tuple[int, ...]] = []
        self._ids: dict[Term, int] = {}
        # the table's EUF atoms when the solver is built; none is added later
        self._atoms: list[tuple[int, int, int]] = []   # (atom id, lhs, rhs), table order
        self._ends: dict[int, tuple[int, int]] = {}    # variable -> (lhs, rhs), defined ones too
        self._eq: dict[tuple[int, int], int] = {}      # sorted (lhs, rhs) -> its variable
        ids, atoms, ends_of, eq, symbols = self._ids, self._atoms, self._ends, self._eq, {}
        for atom_id, atom in table.items():
            if isinstance(atom, EufAtom):
                a = ids.get(atom.lhs)
                if a is None:
                    a = self._register(atom.lhs, symbols)
                b = ids.get(atom.rhs)
                if b is None:
                    b = self._register(atom.rhs, symbols)
                atoms.append((atom_id, a, b))
                ends_of[atom_id] = (a, b)
                eq.setdefault((a, b) if a < b else (b, a), atom_id)
        n = self._n = len(self.terms)
        self.rep: list[int] = list(range(n))     # term -> representative of its class
        self._members = [[t] for t in range(n)]  # representative -> class members
        self._uses = [[] for _ in range(n)]      # representative -> applications over the class
        self._sig: dict[tuple, int] = {}         # (symbol, argument classes) -> application
        for tid, args in enumerate(self._args):
            if args:
                for a in dict.fromkeys(args):
                    self._uses[a].append(tid)
                # distinct terms never share a signature: nothing is merged yet
                self._sig[(self._fn[tid], *args)] = tid
        # proof forest: parent term (-1 at a root) and the edge's label, an
        # asserted literal or a congruent application pair (p, q)
        self._fparent = [-1] * n
        self._flabel: list = [None] * n
        self._diseqs: list[tuple[int, int, int]] = []
        self._dq_of = [[] for _ in range(n)]     # representative -> incident disequalities
        # ru * n + rv -> the first disequality separating classes ru and rv,
        # stored under both orders
        self._dq_pair: dict[int, int] = {}
        self._conflict: Optional[int] = None     # a disequality whose sides are merged

    def _register(self, t: Term, symbols: dict) -> int:
        """The id of `t`, registering it and its subterms, arguments first."""
        tid = self._ids.get(t)
        if tid is not None:
            return tid
        if isinstance(t, FunApp):
            args = tuple([self._register(a, symbols) for a in t.args])
            fn = symbols.setdefault(t.fn, len(symbols))
        else:
            args, fn = (), -1
        tid = self._ids[t] = len(self.terms)
        self.terms.append(t)
        self._fn.append(fn)
        self._args.append(args)
        return tid

    def atom_var(self, atom: EufAtom, new_var: Callable[[], int]) -> int:
        """The variable naming `atom`, an equality over the solver's terms:
        the table's or a defined one, else one from `new_var` defined now."""
        return self._eq_var(self._ids[atom.lhs], self._ids[atom.rhs], new_var)

    def _eq_var(self, a: int, b: int, new_var: Callable[[], int]) -> int:
        """The variable naming a = b: the table's or a defined one, else
        one from `new_var`, past the table, that names a = b from now on.
        Its ends are ordered as `euf_atom` orders the atom's sides."""
        key = (a, b) if a < b else (b, a)
        var = self._eq.get(key)
        if var is None:
            var = new_var()
            atom = euf_atom(self.terms[a], self.terms[b])
            self._ends[var] = (self._ids[atom.lhs], self._ids[atom.rhs])
            self._eq[key] = var
            self.defined[var] = atom
        return var

    # -- merging ------------------------------------------------------------------

    def _merge(self, a: int, b: int, label):
        """Merge the classes of a and b, which differ, and every pair of
        classes the merge makes congruent."""
        rep, members, uses, dq_of = self.rep, self._members, self._uses, self._dq_of
        sig, fn, args, trail = self._sig, self._fn, self._args, self._trail
        fparent, flabel, diseqs = self._fparent, self._flabel, self._diseqs
        self.changed = True
        pending = [(a, b, label)]
        while pending:
            a, b, label = pending.pop()
            ra, rb = rep[a], rep[b]
            if ra == rb:
                continue
            # make a the root of its proof tree, then hang it under b
            node, prev, prev_label = a, -1, None
            while node != -1:
                nxt, next_label = fparent[node], flabel[node]
                fparent[node], flabel[node] = prev, prev_label
                prev, prev_label, node = node, next_label, nxt
            fparent[a], flabel[a] = b, label
            if len(members[ra]) > len(members[rb]):
                ra, rb = rb, ra
            # fold class ra into rb; ra's own lists stay as they are, so the
            # undo only relabels and truncates, then cuts the edge a - b
            into, uses_rb, dq_rb = members[rb], uses[rb], dq_of[rb]
            trail.append((_MERGE, ra, rb, len(into), len(uses_rb), len(dq_rb), a, b))
            absorbed = members[ra]
            for m in absorbed:
                rep[m] = rb
            into.extend(absorbed)
            for p in uses[ra]:
                pargs = args[p]
                if len(pargs) == 1:
                    key = (fn[p], rep[pargs[0]])
                else:
                    key = (fn[p], *[rep[x] for x in pargs])
                q = sig.get(key)
                if q is None:
                    sig[key] = p
                    trail.append((_SIG, key))
                elif rep[q] != rep[p]:
                    pending.append((p, q, (p, q)))
            uses_rb.extend(uses[ra])
            for d in dq_of[ra]:
                u, v, _ = diseqs[d]
                self._index_diseq(d, rep[u], rep[v])
            dq_rb.extend(dq_of[ra])

    def _index_diseq(self, d: int, ru: int, rv: int):
        if ru == rv:
            if self._conflict is None:
                self._conflict = d
                self._trail.append((_CONFLICT,))
                self.changed = True
            return
        n, pairs = self._n, self._dq_pair
        key = ru * n + rv
        if key not in pairs:
            back = rv * n + ru
            pairs[key] = pairs[back] = d
            self._trail.append((_PAIR, key, back))
            self.changed = True

    # -- explanations -----------------------------------------------------------

    def _explain(self, pairs: list[tuple[int, int]], out: set) -> tuple[int, ...]:
        """`out` plus asserted literals whose conjunction entails a = b for
        every pair (a, b), each of which lies in one class; sorted by atom."""
        args = self._args
        seen = set()
        while pairs:
            a, b = pairs.pop()
            if a == b:
                continue
            key = (a, b) if a < b else (b, a)
            if key in seen:
                continue
            seen.add(key)
            for u, v, label in self._path(a, b):
                if type(label) is tuple:
                    pairs.extend(zip(args[u], args[v]))
                else:
                    out.add(label)
        return tuple(sorted(out, key=abs))

    def _path(self, a: int, b: int) -> list[tuple[int, int, object]]:
        """The proof-forest edges from a to b, two terms of one tree, in
        path order: (u, v, label) with u nearer to a."""
        fparent, flabel = self._fparent, self._flabel
        ancestors = {a}
        node = a
        while fparent[node] != -1:
            node = fparent[node]
            ancestors.add(node)
        tail = []
        node = b
        while node not in ancestors:
            parent = fparent[node]
            if parent < 0:
                raise RuntimeError(f"terms {a} and {b} are not in one proof tree")
            tail.append((parent, node, flabel[node]))
            node = parent
        head = []
        while a != node:
            head.append((a, fparent[a], flabel[a]))
            a = fparent[a]
        return head + tail[::-1]

    def _chain(self, a: int, b: int, out: list, new_var: Callable[[], int]) -> int:
        """Append to `out` lemmas that derive a = b from asserted literals
        along the proof-forest path, each after those it needs; returns the
        literal of a = b they make true."""
        args = self._args
        held = None                     # the literal of a = u, u the term reached
        for u, v, label in self._path(a, b):
            if type(label) is tuple:
                premises = [self._chain(s, t, out, new_var)
                            for s, t in zip(args[u], args[v]) if s != t]
                edge = self._eq_var(u, v, new_var)
                out.append(tuple(-p for p in premises) + (edge,))
            else:
                edge = label
            if held is None:
                held = edge
            else:
                conclusion = self._eq_var(a, v, new_var)
                out.append((-held, -edge, conclusion))
                held = conclusion
        return held

    def conflict_clauses(self, new_var: Callable[[], int]) -> list[tuple[int, ...]]:
        a, b, lit = self._diseqs[self._conflict]
        if a == b:                      # a reflexive atom: no path, the one clause
            return [(-lit,)]
        out: list[tuple[int, ...]] = []
        held = self._chain(a, b, out, new_var)
        if held != -lit:                # the table has two atoms over a, b
            out.append((-held, -lit))
        return out

    # -- assert / undo / check ----------------------------------------------------

    def assert_literal(self, lit: int) -> bool:
        """Sets `changed` only when the closure changes."""
        var = lit if lit > 0 else -lit
        ends = self._ends.get(var)
        if ends is None:
            atom = self.table.atom(var)     # every defined variable has ends
            raise ValueError(f"literal over {type(atom).__name__} does not belong to EUF")
        self._asserted.append(lit)
        self._asserted_atoms.add(var)
        trail = self._trail
        self._marks.append(len(trail))
        a, b = ends
        rep = self.rep
        if lit > 0:
            if rep[a] != rep[b]:
                self._merge(a, b, lit)
        else:
            d = len(self._diseqs)
            self._diseqs.append((a, b, lit))
            ra, rb = rep[a], rep[b]
            dq_of = self._dq_of
            dq_of[ra].append(d)
            if rb != ra:
                dq_of[rb].append(d)
            trail.append((_DISEQ, ra, rb))
            self._index_diseq(d, ra, rb)
        return self._conflict is not None

    def _undo_to(self, length: int):
        trail = self._trail
        rep, members, uses, dq_of = self.rep, self._members, self._uses, self._dq_of
        sig, pairs, fparent, flabel = self._sig, self._dq_pair, self._fparent, self._flabel
        for entry in reversed(trail[length:]):
            tag = entry[0]
            if tag == _SIG:
                del sig[entry[1]]
            elif tag == _MERGE:
                _, ra, rb, n_members, n_uses, n_dq, a, b = entry
                into = members[rb]
                for m in into[n_members:]:
                    rep[m] = ra
                del into[n_members:]
                del uses[rb][n_uses:]
                del dq_of[rb][n_dq:]
                if fparent[a] != b:         # a later link turned the edge round
                    a = b
                fparent[a] = -1
                flabel[a] = None
            elif tag == _PAIR:
                del pairs[entry[1]], pairs[entry[2]]
            elif tag == _DISEQ:
                _, ra, rb = entry
                self._diseqs.pop()
                dq_of[ra].pop()
                if rb != ra:
                    dq_of[rb].pop()
            else:
                self._conflict = None
        del trail[length:]
        self.changed = False

    def check_full(self) -> bool:
        return self._conflict is not None

    def witness(self):
        return {t: self.rep[i] for i, t in enumerate(self.terms)}

    def deductions(self) -> list[tuple[int, ...]]:
        """Every unasserted atom whose sides share a class (positive) or lie
        in two classes a disequality separates (negative), as its lemma
        clause."""
        out = []
        rep, asserted, pairs, n = self.rep, self._asserted_atoms, self._dq_pair, self._n
        for atom_id, a, b in self._atoms:
            if atom_id in asserted:
                continue
            ra = rep[a]
            rb = rep[b]
            if ra == rb:
                out.append((*[-lit for lit in self._explain([(a, b)], set())], atom_id))
                continue
            if ra * n + rb not in pairs:
                continue
            u, v, dlit = self._diseqs[pairs[ra * n + rb]]
            if rep[u] != ra:
                u, v = v, u
            out.append((*[-lit for lit in self._explain([(u, a), (v, b)], {dlit})], -atom_id))
        return out
