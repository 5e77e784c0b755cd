"""Congruence closure for equality with uninterpreted functions.

Union-find with a congruence signature table; explanations come from a
proof forest whose edges are labeled either with the asserted equality
literal that caused the merge or with a congruence step, whose argument
equalities are explained recursively.  Explanations are not guaranteed
minimal.  Backtracking rebuilds from the asserted prefix (replay), which is
cheap at this scale and trivially exact.
"""
from __future__ import annotations

from typing import Optional

from ..terms import EufAtom, FunApp, Literal, Term
from .base import Deduction, TheorySolver, TheoryVerdict


class EufSolver(TheorySolver):
    theory = "EUF"

    def __init__(self, table):
        super().__init__(table)
        self._reset()

    def _reset(self):
        self.ids: dict[Term, int] = {}
        self.terms: list[Term] = []
        self.parent: list[int] = []
        self.rank: list[int] = []
        self.use_list: dict[int, list[int]] = {}
        self.sig: dict[tuple, int] = {}
        # proof forest: node -> (parent node, label); label is
        # ("lit", Literal) or ("cong", term_id, term_id)
        self.forest: dict[int, tuple[int, tuple]] = {}
        self.diseqs: list[tuple[int, int, Literal]] = []

    def owns_atom(self, atom) -> bool:
        return isinstance(atom, EufAtom)

    # -- term/union-find plumbing ---------------------------------------------

    def _tid(self, t: Term) -> int:
        tid = self.ids.get(t)
        if tid is not None:
            return tid
        if isinstance(t, FunApp):
            arg_ids = [self._tid(a) for a in t.args]
        else:
            arg_ids = []
        tid = len(self.terms)
        self.ids[t] = tid
        self.terms.append(t)
        self.parent.append(tid)
        self.rank.append(0)
        self.use_list[tid] = []
        if isinstance(t, FunApp):
            for a in arg_ids:
                self.use_list[self._find(a)].append(tid)
            key = (t.fn.name, tuple(self._find(a) for a in arg_ids))
            other = self.sig.get(key)
            if other is None:
                self.sig[key] = tid
            elif self._find(other) != tid:
                self._merge_ids(tid, other, ("cong", tid, other))
        return tid

    def _find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def _merge_ids(self, a: int, b: int, label: tuple):
        work = [(a, b, label)]
        while work:
            x, y, lab = work.pop()
            rx, ry = self._find(x), self._find(y)
            if rx == ry:
                continue
            self._forest_link(x, y, lab)
            if self.rank[rx] > self.rank[ry]:
                rx, ry = ry, rx
            if self.rank[rx] == self.rank[ry]:
                self.rank[ry] += 1
            self.parent[rx] = ry
            moved = self.use_list.pop(rx, [])
            targets = self.use_list.setdefault(ry, [])
            for p in moved:
                targets.append(p)
            # re-canonicalize signatures of every parent of the merged class
            for p in list(targets):
                t = self.terms[p]
                key = (t.fn.name, tuple(self._find(self.ids[a2]) for a2 in t.args))
                other = self.sig.get(key)
                if other is None:
                    self.sig[key] = p
                elif self._find(other) != self._find(p):
                    work.append((p, other, ("cong", p, other)))

    def _forest_link(self, a: int, b: int, label: tuple):
        # invert a's path to its forest root, then hang a below b
        path = []
        node = a
        while node in self.forest:
            parent, lab = self.forest[node]
            path.append((node, parent, lab))
            node = parent
        for child, parent, lab in reversed(path):
            del self.forest[child]
            self.forest[parent] = (child, lab)
        self.forest[a] = (b, label)

    # -- explanations -----------------------------------------------------------

    def _explain_pair(self, a: int, b: int, out: set, seen_pairs: set):
        if a == b:
            return
        key = (min(a, b), max(a, b))
        if key in seen_pairs:
            return
        seen_pairs.add(key)
        ancestors = {a}
        node = a
        while node in self.forest:
            node = self.forest[node][0]
            ancestors.add(node)
        common = b
        while common not in ancestors:
            common = self.forest[common][0]
        for start in (a, b):
            node = start
            while node != common:
                parent, lab = self.forest[node]
                self._edge_reason(lab, out, seen_pairs)
                node = parent

    def _edge_reason(self, label: tuple, out: set, pending_seen: set):
        if label[0] == "lit":
            out.add(label[1])
        else:
            _, p, q = label
            tp, tq = self.terms[p], self.terms[q]
            for ap, aq in zip(tp.args, tq.args):
                self._explain_pair(self.ids[ap], self.ids[aq], out, pending_seen)

    def explain(self, s: Term, t: Term) -> list[Literal]:
        """Asserted equalities whose conjunction entails s = t."""
        out: set = set()
        self._explain_pair(self._tid(s), self._tid(t), out, set())
        return sorted(out, key=lambda l: (l.atom, l.positive))

    # -- assert / undo / check ----------------------------------------------------

    def _assert(self, lit: Literal, atom: EufAtom) -> Optional[list[Literal]]:
        a = self._tid(atom.lhs)
        b = self._tid(atom.rhs)
        if lit.positive:
            self._merge_ids(a, b, ("lit", lit))
        else:
            self.diseqs.append((a, b, lit))
        return self._violated_diseq()

    def _violated_diseq(self) -> Optional[list[Literal]]:
        for a, b, lit in self.diseqs:
            if self._find(a) == self._find(b):
                conflict = set(self.explain(self.terms[a], self.terms[b]))
                conflict.add(lit)
                return sorted(conflict, key=lambda l: (l.atom, l.positive))
        return None

    def _undo_to(self, mark: int):
        # replay: state is a pure function of the asserted prefix; conflicts
        # still present in the prefix resurface at the next check
        prefix = self._asserted[:]  # already truncated by the base class
        self._reset()
        for lit in prefix:
            self._assert(lit, self.table.atom(lit.atom))

    def check_full(self) -> TheoryVerdict:
        conflict = self._violated_diseq()
        if conflict is not None:
            return TheoryVerdict("conflict", conflict=conflict)
        return TheoryVerdict("sat")

    def witness(self):
        return {t: self._find(i) for t, i in self.ids.items()}

    def deductions(self) -> list[Deduction]:
        out = []
        for atom_id, atom in self.table.items():
            if not isinstance(atom, EufAtom) or atom_id in self._asserted_atoms:
                continue
            # registering the terms lets the signature table link congruent
            # applications such as f(a) ~ f(b) under an asserted a = b
            a = self._tid(atom.lhs)
            b = self._tid(atom.rhs)
            ra, rb = self._find(a), self._find(b)
            if ra == rb:
                expl = self.explain(atom.lhs, atom.rhs)
                out.append(Deduction(Literal(atom_id, True), tuple(expl)))
                continue
            for u, v, dlit in self.diseqs:
                ru, rv = self._find(u), self._find(v)
                if (ru, rv) == (ra, rb) or (ru, rv) == (rb, ra):
                    expl = {dlit}
                    if (ru, rv) == (ra, rb):
                        expl.update(self.explain(self.terms[u], atom.lhs))
                        expl.update(self.explain(self.terms[v], atom.rhs))
                    else:
                        expl.update(self.explain(self.terms[u], atom.rhs))
                        expl.update(self.explain(self.terms[v], atom.lhs))
                    out.append(Deduction(
                        Literal(atom_id, False),
                        tuple(sorted(expl, key=lambda l: (l.atom, l.positive)))))
                    break
        return out
