"""Backtrackable congruence closure for equality with uninterpreted functions.

The design follows Nieuwenhuis & Oliveras, "Fast congruence closure and
extensions" (2007).  Every term of every EUF atom in the table is
registered once, when the solver is built, so the hot path works on dense
term ids and never hashes a `Term`:

- a representative array with class lists: finding a class is one array
  read, and a merge relabels the members of the smaller class;
- use lists: per class, the applications with an argument in it.  A merge
  re-signs the applications of the absorbed class against the signature
  table; a hit on another class is a congruence and is merged in turn;
- a proof forest whose edges are labeled either with the asserted equality
  literal that caused the merge or with a congruence step, whose argument
  equalities are explained in turn.  Explanations are not guaranteed
  minimal;
- disequalities, listed per class and indexed by the sorted pair of their
  endpoints' classes: a merge checks only the absorbed class's
  disequalities, and a deduction finds the disequality separating an
  atom's two classes with one lookup.

Every change to these structures is pushed on the base class's undo
trail, and backtracking pops the trail back to the length it had when the
mark's literal was asserted; nothing is rebuilt from the asserted prefix.
"""
from __future__ import annotations

from typing import Optional

from ..terms import EufAtom, FunApp, Term
from .base import Deduction, TheorySolver

# undo-trail entry tags
_MERGE, _SIG, _DISEQ, _PAIR, _LINK, _CONFLICT = range(6)


class EufSolver(TheorySolver):
    theory = "EUF"

    def __init__(self, table):
        super().__init__(table)
        self.terms: list[Term] = []
        self._fn: list[int] = []                 # function symbol number; -1 for a constant
        self._args: list[tuple[int, ...]] = []
        self.rep: list[int] = []                 # term -> representative of its class
        self._members: list[list[int]] = []      # representative -> class members
        self._uses: list[list[int]] = []         # representative -> applications over the class
        self._sig: dict[tuple, int] = {}         # (symbol, argument classes) -> application
        # proof forest: parent term (-1 at a root) and the edge's label, an
        # asserted literal or a congruent application pair (p, q)
        self._fparent: list[int] = []
        self._flabel: list = []
        self._diseqs: list[tuple[int, int, int]] = []
        self._dq_of: list[list[int]] = []        # representative -> incident disequalities
        self._dq_pair: dict[tuple[int, int], int] = {}  # sorted class pair -> disequality
        self._conflict: Optional[int] = None     # a disequality whose sides are merged
        # the table's EUF atoms when the solver is built; none is added later
        self._atoms: list[tuple[int, int, int]] = []   # (atom id, lhs, rhs), table order
        self._ends: dict[int, tuple[int, int]] = {}    # atom id -> (lhs, rhs)
        ids: dict[Term, int] = {}
        symbols: dict = {}
        for atom_id, atom in table.items():
            if isinstance(atom, EufAtom):
                ends = (self._register(atom.lhs, ids, symbols),
                        self._register(atom.rhs, ids, symbols))
                self._atoms.append((atom_id, *ends))
                self._ends[atom_id] = ends

    def owns_atom(self, atom) -> bool:
        return isinstance(atom, EufAtom)

    def _register(self, t: Term, ids: dict, symbols: dict) -> int:
        tid = ids.get(t)
        if tid is not None:
            return tid
        if isinstance(t, FunApp):
            args = tuple(self._register(a, ids, symbols) for a in t.args)
            fn = symbols.setdefault(t.fn, len(symbols))
        else:
            args, fn = (), -1
        tid = len(self.terms)
        ids[t] = tid
        self.terms.append(t)
        self._fn.append(fn)
        self._args.append(args)
        self.rep.append(tid)
        self._members.append([tid])
        self._uses.append([])
        self._fparent.append(-1)
        self._flabel.append(None)
        self._dq_of.append([])
        if args:
            for a in dict.fromkeys(args):
                self._uses[a].append(tid)
            # distinct registered terms never share a signature: nothing is merged yet
            self._sig[(fn, *args)] = tid
        return tid

    # -- merging ------------------------------------------------------------------

    def _merge(self, a: int, b: int, label):
        rep, members, uses, dq_of = self.rep, self._members, self._uses, self._dq_of
        sig, fn, args, trail = self._sig, self._fn, self._args, self._trail
        pending = [(a, b, label)]
        while pending:
            a, b, label = pending.pop()
            ra, rb = rep[a], rep[b]
            if ra == rb:
                continue
            self._link(a, b, label)
            if len(members[ra]) > len(members[rb]):
                ra, rb = rb, ra
            # fold class ra into rb; ra's own lists stay as they are, so the
            # undo only relabels and truncates
            into, uses_rb, dq_rb = members[rb], uses[rb], dq_of[rb]
            trail.append((_MERGE, ra, rb, len(into), len(uses_rb), len(dq_rb)))
            for m in members[ra]:
                rep[m] = rb
            into.extend(members[ra])
            for p in uses[ra]:
                key = (fn[p], *[rep[x] for x in args[p]])
                q = sig.get(key)
                if q is None:
                    sig[key] = p
                    trail.append((_SIG, key))
                elif rep[q] != rep[p]:
                    pending.append((p, q, (p, q)))
            uses_rb.extend(uses[ra])
            for d in dq_of[ra]:
                u, v, _ = self._diseqs[d]
                self._index_diseq(d, rep[u], rep[v])
            dq_rb.extend(dq_of[ra])

    def _index_diseq(self, d: int, ru: int, rv: int):
        if ru == rv:
            if self._conflict is None:
                self._conflict = d
                self._trail.append((_CONFLICT,))
            return
        key = (ru, rv) if ru < rv else (rv, ru)
        if key not in self._dq_pair:
            self._dq_pair[key] = d
            self._trail.append((_PAIR, key))

    def _reroot(self, node: int) -> int:
        """Make `node` the root of its proof tree; returns the old root."""
        fparent, flabel = self._fparent, self._flabel
        prev, prev_label = -1, None
        while node != -1:
            nxt, label = fparent[node], flabel[node]
            fparent[node], flabel[node] = prev, prev_label
            prev, prev_label = node, label
            node = nxt
        return prev

    def _link(self, a: int, b: int, label):
        old_root = self._reroot(a)
        self._fparent[a] = b
        self._flabel[a] = label
        self._trail.append((_LINK, a, old_root))

    # -- explanations -----------------------------------------------------------

    def _explain(self, pairs: list[tuple[int, int]], out: set) -> tuple[int, ...]:
        """`out` plus asserted literals whose conjunction entails a = b for
        every pair (a, b), each of which lies in one class; sorted by atom."""
        fparent, flabel, args = self._fparent, self._flabel, self._args
        seen = set()
        while pairs:
            a, b = pairs.pop()
            if a == b:
                continue
            key = (a, b) if a < b else (b, a)
            if key in seen:
                continue
            seen.add(key)
            ancestors = {a}
            node = a
            while fparent[node] != -1:
                node = fparent[node]
                ancestors.add(node)
            common = b
            while common not in ancestors:
                common = fparent[common]
                if common < 0:
                    raise RuntimeError(f"terms {a} and {b} are not in one proof tree")
            for node in (a, b):
                while node != common:
                    label = flabel[node]
                    if type(label) is tuple:
                        p, q = label
                        pairs.extend(zip(args[p], args[q]))
                    else:
                        out.add(label)
                    node = fparent[node]
        return tuple(sorted(out, key=abs))

    # -- assert / undo / check ----------------------------------------------------

    def _assert(self, lit: int, atom: EufAtom) -> Optional[list[int]]:
        a, b = self._ends[abs(lit)]
        if lit > 0:
            self._merge(a, b, lit)
        else:
            d = len(self._diseqs)
            self._diseqs.append((a, b, lit))
            ra, rb = self.rep[a], self.rep[b]
            self._dq_of[ra].append(d)
            if rb != ra:
                self._dq_of[rb].append(d)
            self._trail.append((_DISEQ, ra, rb))
            self._index_diseq(d, ra, rb)
        return self._conflict_literals()

    def _conflict_literals(self) -> Optional[list[int]]:
        if self._conflict is None:
            return None
        a, b, lit = self._diseqs[self._conflict]
        return list(self._explain([(a, b)], {lit}))

    def _undo_to(self, length: int):
        trail = self._trail
        rep, members, uses, dq_of = self.rep, self._members, self._uses, self._dq_of
        while len(trail) > length:
            entry = trail.pop()
            tag = entry[0]
            if tag == _MERGE:
                _, ra, rb, n_members, n_uses, n_dq = entry
                into = members[rb]
                for m in into[n_members:]:
                    rep[m] = ra
                del into[n_members:]
                del uses[rb][n_uses:]
                del dq_of[rb][n_dq:]
            elif tag == _SIG:
                del self._sig[entry[1]]
            elif tag == _LINK:
                _, a, old_root = entry
                self._fparent[a] = -1
                self._flabel[a] = None
                self._reroot(old_root)
            elif tag == _PAIR:
                del self._dq_pair[entry[1]]
            elif tag == _DISEQ:
                _, ra, rb = entry
                self._diseqs.pop()
                dq_of[ra].pop()
                if rb != ra:
                    dq_of[rb].pop()
            else:
                self._conflict = None

    def check_full(self) -> Optional[list[int]]:
        return self._conflict_literals()

    def witness(self):
        return {t: self.rep[i] for i, t in enumerate(self.terms)}

    def deductions(self) -> list[Deduction]:
        """Every unasserted atom whose sides share a class (positive) or lie
        in two classes a disequality separates (negative)."""
        out = []
        rep, asserted, pairs = self.rep, self._asserted_atoms, self._dq_pair
        for atom_id, a, b in self._atoms:
            if atom_id in asserted:
                continue
            ra, rb = rep[a], rep[b]
            if ra == rb:
                out.append(Deduction(atom_id, self._explain([(a, b)], set())))
                continue
            d = pairs.get((ra, rb) if ra < rb else (rb, ra))
            if d is None:
                continue
            u, v, dlit = self._diseqs[d]
            if rep[u] != ra:
                u, v = v, u
            out.append(Deduction(-atom_id, self._explain([(u, a), (v, b)], {dlit})))
        return out
