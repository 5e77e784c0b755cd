"""Conflict-driven clause-learning SAT solver with resolution-proof logging.

A literal is a nonzero signed integer over 1-based variables.  The solver
supports solving under assumptions (the unsatisfiable answer is then a
conflict clause over negated assumptions), selector-guarded clauses for
core extraction (`SatSolver.guard`, read back by `assumption_core`), and
an optional theory hook used by the lazy SMT engine.

Learned clauses are exact resolvents of their reason clauses.  The proof
log holds one node per learned clause: the chain of (pivot, reason) steps
conflict analysis took from the conflict clause, and the clause derived,
after Zhang & Malik, "Validating SAT solvers using an independent
resolution-based checker" (DATE 2003).  No intermediate resolvent is built
while searching; `check.check_proof` replays each chain step by step.
Level-zero-false literals are kept in learned clauses instead of being
elided, so every chain is plain binary resolution and needs no other rule.

The search state is array-based, after Eén & Sörensson, "An Extensible
SAT-solver" (SAT 2003): values, watch lists, levels, reasons, trail
positions, activities and phases live in plain lists indexed by literal or
variable (see `SatSolver`), conflict analysis walks the trail backwards
with a seen-set, and branching reads a lazy binary heap.  The hot loops
read the arrays inline and are written for the interpreter: a watch move
writes its two literals directly, a binary clause is not scanned for a
replacement, and a variable is taken by a sign test, not `abs`.
`tests/test_sat.py` pins the search they run, every learned clause, model
and proof node of a pigeonhole and a random-CNF corpus, to one digest.

Clause intake has one generic pass, which reads every literal's value to
give the clause's status and choose its two watches, and two paths that
leave the same state without it: a clause added while the trail is empty
is watched on its first two literals, and a learned clause is watched on
its asserting literal and its highest-level literal, which conflict
analysis has put first, and its asserting literal is enqueued.
`add_inputs` sizes the arrays once for a whole load of input clauses, and
loads in bulk each clause whose first two literals are unassigned: the
generic pass would watch them and leave the clause as it is, whatever else
the trail holds.  `add_clause` checks and sizes its one clause itself, so
a lemma added in mid-search goes through a single call before the status
pass.
One rule settles a clause the database holds against the trail (a lemma
added again, a clause learned again, a one-literal clause, and at the
start of `solve` a clause added above level 0): its unit literal is
enqueued, or, if it is false, it is the pending conflict.

A conflict whose every literal is at level 0 refutes the clauses, and the
one conflict analysis derives the empty clause from it: it walks the trail
back as for any conflict, without a backjump, and resolves every literal
against its level-0 reason; the chain is the proof's final node.  An empty
clause is such a conflict with no literal to resolve.  The conflict budget
bounds search, not a refutation that needs none: a conflict met with no
decision on the trail is analysed whatever the budget.

There is one search for every caller.  It never restarts: the trail is
cut back only by conflict analysis and by a new `solve` call.  Proof
logging only records: with `log_proof` on or off, the solver makes the same
decisions, counts the same conflicts, learns the same clauses and returns
the same verdict and model.

`SatVerdict` is the one verdict of every search, with or without a theory
hook: the lazy SMT engine returns the verdict of its CDCL search as it is.
Only `smt.smt_solve` fills `theory_model`, on a satisfiable answer.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import chain
from typing import Iterable, Optional


# ---------------------------------------------------------------------------
# Resolution proofs
# ---------------------------------------------------------------------------

class ProofLog:
    """Append-only DAG of resolution nodes ending (on unsat) in the empty
    clause.  Nodes are ("leaf", clause_id, lits) or
    ("chain", first, steps, lits): node `first` resolved, in order, on each
    (pivot, antecedent node) pair of `steps`, deriving `lits`.  A node names
    only earlier nodes."""

    def __init__(self):
        self.nodes: list[tuple] = []
        self.final: Optional[int] = None

    def lits(self, node: int) -> frozenset[int]:
        return self.nodes[node][-1]

    def leaf(self, clause_id: int, lits: Iterable[int]) -> int:
        node = len(self.nodes)
        self.nodes.append(("leaf", clause_id, frozenset(lits)))
        return node

    def chain(self, first: int, steps: Iterable[tuple[int, int]], lits: Iterable[int]) -> int:
        """Record a derivation as given; `check.check_proof` replays it."""
        node = len(self.nodes)
        self.nodes.append(("chain", first, tuple(steps), frozenset(lits)))
        return node

    def to_trace(self) -> str:
        """Text dump, one node per line: "L <clause id>" for a leaf and
        "C <first> <pivot> <node> <pivot> <node> ..." for a chain."""
        lines = []
        for n in self.nodes:
            if n[0] == "leaf":
                lines.append(f"L {n[1]}")
            else:
                lines.append(" ".join(["C", str(n[1]), *(f"{p} {a}" for p, a in n[2])]))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

@dataclass
class SatVerdict:
    status: str  # "sat" | "unsat" | "unsat-assumptions" | "unknown"
    model: Optional[dict[int, bool]] = None
    proof: Optional[ProofLog] = None
    conflict: Optional[tuple[int, ...]] = None  # negations of responsible assumptions
    theory_model: object = None  # LRA: {Var: int or Fraction}; EUF: {Term: class}


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------

ACTIVITY_DECAY = 0.95
# The branching heap is rebuilt once it holds more than this many entries
# per variable, which bounds the stale entries that lazy deletion leaves.
HEAP_SLACK = 4


class SatSolver:
    """CDCL with two-watched literals, activity branching (decay
    ACTIVITY_DECAY, ties to the lowest variable index) and 1st-UIP
    learning, without restarts.  `log_proof` records a resolution
    derivation of every learned clause and never changes the search.

    All search state is held in plain lists.  `_vals` and `_watches` are
    indexed by the signed literal itself: for a capacity of `cap` variables
    they have 2·cap+1 entries, literal v at index v and literal -v at
    Python's negative index -v (that is, 2·cap+1-v).  `_vals[lit]` is True,
    False or None.  `_level`, `_reason`, `_trail_pos`, `_activity` and
    `_phase` are indexed by variable; the first three hold meaningful values
    only while the variable is assigned.  `ensure_vars` grows every array by
    doubling.  Branching reads `_heap`, a lazy binary heap of
    (-activity, var) entries: a variable is pushed when it is added and
    whenever it is unassigned, and an entry is dropped when it reaches the
    top while its variable is assigned.  Only assigned variables are bumped
    and a rescale rebuilds the heap, so the newest entry of an unassigned
    variable carries its current activity and outranks its older ones."""

    def __init__(self, log_proof: bool = False,
                 conflict_budget: Optional[int] = None,
                 seed: Optional[int] = None):
        self.clauses: list[list[int]] = []
        self.origins: list[tuple] = []
        self.proof: Optional[ProofLog] = ProofLog() if log_proof else None
        self._node_of: dict[int, int] = {}
        self._by_key: dict[frozenset[int], int] = {}
        self.nvars = 0
        self._cap = 0
        self._vals: list[Optional[bool]] = [None]
        self._watches: list[list[int]] = [[]]
        self._level: list[int] = [0]
        self._reason: list[Optional[int]] = [None]
        self._trail_pos: list[int] = [0]
        self._activity: list[float] = [0.0]
        self._phase: list[bool] = [False]
        self._heap: list[tuple[float, int]] = []
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.var_inc = 1.0
        self.conflict_budget = conflict_budget
        self.conflicts = 0
        # a seed perturbs initial activities, varying branching tie-breaks
        # while staying reproducible per seed
        self._rng = random.Random(seed) if seed is not None else None
        # the theory hook holds the solver it is set on, so its hooks take
        # no solver: hook_fixpoint() and hook_final() each return whether
        # they enqueued a literal or left a conflict in pending_conflict;
        # hook_backjump(trail_len) follows every backjump
        self.theory_hook = None
        # set once the clauses are refuted without assumptions, by a level-0
        # conflict or an empty clause: every later solve answers unsat,
        # whatever it assumes
        self.refuted = False
        # a false clause, taken by the next propagation before it propagates
        self.pending_conflict: Optional[int] = None
        # clauses added above level 0 that were false there or have one
        # literal: the next solve reads them again at level 0
        self._recheck: list[int] = []

    # -- basic state ---------------------------------------------------------

    def ensure_vars(self, n: int):
        if n <= self.nvars:
            return
        if n > self._cap:
            self._grow(max(n, 2 * self._cap))
        rng = self._rng
        if rng:
            for v in range(self.nvars + 1, n + 1):
                self._activity[v] = rng.random() * 1e-6
                self._phase[v] = bool(rng.getrandbits(1))
                heappush(self._heap, (-self._activity[v], v))
        else:  # activities are >= 0, so (-0.0, v) is the largest key: a push appends it
            self._heap += [(-0.0, v) for v in range(self.nvars + 1, n + 1)]
        self.nvars = n

    def _grow(self, cap: int):
        """Resize every array to `cap` variables.  A negative literal keeps
        its distance from the end of the literal-indexed lists."""
        old, extra = self._cap, cap - self._cap
        self._vals = self._vals[:old + 1] + [None] * (2 * extra) + self._vals[old + 1:]
        self._watches = (self._watches[:old + 1] + [[] for _ in range(2 * extra)]
                         + self._watches[old + 1:])
        self._level += [0] * extra
        self._reason += [None] * extra
        self._trail_pos += [0] * extra
        self._activity += [0.0] * extra
        self._phase += [False] * extra
        self._cap = cap

    def _enqueue(self, lit: int, reason: Optional[int]):
        v = abs(lit)
        self._vals[lit] = True
        self._vals[-lit] = False
        self._level[v] = len(self.trail_lim)
        self._reason[v] = reason
        self._trail_pos[v] = len(self.trail)
        self.trail.append(lit)

    # -- clauses ------------------------------------------------------------

    def add_clause(self, lits: Iterable[int], origin: tuple = ("learned",)) -> tuple[int, str]:
        """Add a clause; returns (clause id, status).  Input clauses always
        get a fresh id (ids equal input positions); any other clause equal
        to one the database holds gets that clause's id.  The status ("ok",
        "unit", "satisfied" or "conflict") is the clause's under the current
        assignment: a unit clause is enqueued, a false one is the pending
        conflict.  An empty clause refutes the clauses when it is added, as
        the proof's final node, and is the pending conflict, which ends a
        search it is added in as unsat."""
        # duplicates go; a tautology is kept but can never propagate
        norm = list(dict.fromkeys(lits))
        if 0 in norm:
            raise ValueError("literal 0 is not allowed")
        if norm:
            top = max(max(norm), -min(norm))
            if top > self.nvars:
                self.ensure_vars(top)
        return self._insert(norm, origin)

    def add_inputs(self, clauses: Iterable[Iterable[int]]) -> None:
        """Add `clauses` as input clauses, clause i with origin ("input", i),
        as `add_clause` adds them one by one, with the arrays sized once for
        all of them."""
        norms = [list(dict.fromkeys(lits)) for lits in clauses]
        every = list(chain.from_iterable(norms))
        if 0 in every:
            raise ValueError("literal 0 is not allowed")
        if every:
            self.ensure_vars(max(max(every), -min(every)))
        # a clause of two or more literals whose first two are unassigned
        # is watched on them, and left as it is, as `_insert` would
        clauses_, origins, by_key = self.clauses, self.origins, self._by_key
        vals, watches = self._vals, self._watches
        for i, norm in enumerate(norms):
            if len(norm) < 2 or vals[norm[0]] is not None or vals[norm[1]] is not None:
                self._insert(norm, ("input", i))
                continue
            cid = len(clauses_)
            clauses_.append(norm)
            origins.append(("input", i))
            by_key.setdefault(frozenset(norm), cid)
            watches[norm[0]].append(cid)
            watches[norm[1]].append(cid)

    def guard(self, clauses: Iterable[Iterable[int]]) -> list[int]:
        """Add clause i as the input clause (-s_i) or clause_i, through
        `add_inputs`, and return the selectors s_0, s_1, ...: fresh
        variables numbered in order past every variable the solver holds
        and every variable the clauses name, so no selector aliases a
        variable the clauses or the solver give a meaning.  Solving under
        the assumption of some selectors decides the conjunction of their
        clauses (Eén & Sörensson, SAT 2003), and `assumption_core` reads
        which of them a refutation blames."""
        clauses = [tuple(lits) for lits in clauses]
        base = max(self.nvars, max((abs(l) for cl in clauses for l in cl), default=0))
        selectors = list(range(base + 1, base + 1 + len(clauses)))
        self.add_inputs((-sel, *cl) for sel, cl in zip(selectors, clauses))
        return selectors

    def _insert(self, norm: list[int], origin: tuple) -> tuple[int, str]:
        """`add_clause` for a clause without repeated literals whose
        variables the arrays hold."""
        key = frozenset(norm)
        existing = self._by_key.get(key)
        if existing is not None and origin[0] != "input":
            return existing, self._settle_held(existing)
        cid = len(self.clauses)
        self.clauses.append(norm)
        self.origins.append(origin)
        if existing is None:
            self._by_key[key] = cid
        if not norm:
            self.refuted = True
            self.pending_conflict = cid
            if self.proof:
                self.proof.final = self._node(cid)
            return cid, "conflict"
        if len(norm) == 1:
            status = self._settle_held(cid)
            if self.trail_lim and status != "conflict":
                # a backjump undoes what it says, and it has no watches
                self._recheck.append(cid)
            return cid, status
        if not self.trail:
            # no literal is assigned: the pass below would watch the first two
            self._watches[norm[0]].append(cid)
            self._watches[norm[1]].append(cid)
            return cid, "ok"
        vals = self._vals
        # One pass over the literals gives the status and the two watches:
        # the first two literals that are not false, else the false ones of
        # the highest level (lowest position on ties).
        level = self._level
        free1 = free2 = false1 = false2 = -1
        lvl1 = lvl2 = -1
        satisfied = False
        unassigned = 0
        unit = 0
        for i, l in enumerate(norm):
            val = vals[l]
            if val is False:
                lv = level[l if l > 0 else -l]
                if lv > lvl1:
                    false2, lvl2, false1, lvl1 = false1, lvl1, i, lv
                elif lv > lvl2:
                    false2, lvl2 = i, lv
                continue
            if free1 < 0:
                free1 = i
            elif free2 < 0:
                free2 = i
            if val is None:
                unassigned += 1
                unit = l
            else:
                satisfied = True
        # a clause of two or more literals has two of these
        if free2 >= 0:
            a, b = free1, free2
        elif free1 >= 0:
            a, b = free1, false1
        else:
            a, b = false1, false2
        norm[0], norm[a] = norm[a], norm[0]
        if b == 0:
            b = a
        norm[1], norm[b] = norm[b], norm[1]
        self._watches[norm[0]].append(cid)
        self._watches[norm[1]].append(cid)
        return cid, self._settle(cid, satisfied, unassigned, unit)

    def _settle_held(self, cid: int) -> str:
        """Settle clause `cid`, one the database holds, against the trail;
        returns its status.  Its watches need not have seen its literals go
        false: they may have been assigned after the last propagation, or a
        backjump may have left it unit."""
        vals = self._vals
        free = [lit for lit in self.clauses[cid] if vals[lit] is not False]
        return self._settle(cid, any(vals[lit] for lit in free), len(free),
                            free[0] if free else 0)

    def _settle(self, cid: int, satisfied: bool, unassigned: int, unit: int) -> str:
        """The status of clause `cid`, given whether a literal is true and
        else how many are unassigned and one of them, `unit`: enqueue that
        literal if it is the only one, make the clause the pending conflict
        if none is."""
        if satisfied:
            return "satisfied"
        if not unassigned:
            if self.trail_lim:
                self._recheck.append(cid)
            self.pending_conflict = cid
            return "conflict"
        if unassigned == 1:
            self._enqueue(unit, cid)
            return "unit"
        return "ok"

    def _node(self, cid: int) -> int:
        node = self._node_of.get(cid)
        if node is None:
            if self.origins[cid][0] == "learned":
                raise ValueError("learned clause has no recorded derivation")
            node = self.proof.leaf(cid, self.clauses[cid])
            self._node_of[cid] = node
        return node

    # -- propagation ---------------------------------------------------------

    def _propagate(self) -> Optional[int]:
        if self.pending_conflict is not None:
            c = self.pending_conflict
            self.pending_conflict = None
            return c
        vals, watches, clauses = self._vals, self._watches, self.clauses
        level, reason, trail_pos = self._level, self._reason, self._trail_pos
        trail = self.trail
        dl = len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            neg = -trail[qhead]
            qhead += 1
            ws = watches[neg]
            # Every clause of `ws` watches `neg`, now false, as its first or
            # second literal.  It stays in `keep` if its other watch is true
            # or no replacement is found; else it moves to the list of the
            # replacement, which takes `neg`'s place as its second literal.
            keep = []
            moved = 0
            for cid in ws:
                cl = clauses[cid]
                first = cl[0]
                if first == neg:
                    first = cl[1]
                    cl[0] = first
                    cl[1] = neg
                val = vals[first]
                if val is True:
                    keep.append(cid)
                    continue
                k, n = 2, len(cl)
                while k < n:
                    lit = cl[k]
                    if vals[lit] is not False:
                        cl[1] = lit
                        cl[k] = neg
                        watches[lit].append(cid)
                        moved += 1
                        break
                    k += 1
                else:
                    keep.append(cid)
                    if val is False:
                        # the entries not visited stay: every entry up to
                        # this one is in keep or was moved
                        keep += ws[len(keep) + moved:]
                        watches[neg] = keep
                        self.qhead = qhead
                        return cid
                    vals[first] = True
                    vals[-first] = False
                    v = first if first > 0 else -first
                    level[v] = dl
                    reason[v] = cid
                    trail_pos[v] = len(trail)
                    trail.append(first)
            watches[neg] = keep
        self.qhead = qhead
        return None

    # -- conflict analysis ----------------------------------------------------

    def _decay_activity(self):
        self.var_inc /= ACTIVITY_DECAY
        if self.var_inc > 1e100:
            self._activity = [a * 1e-100 for a in self._activity]
            self.var_inc *= 1e-100
            self._rebuild_heap()

    def _rebuild_heap(self):
        vals, act = self._vals, self._activity
        self._heap = [(-act[v], v) for v in range(1, self.nvars + 1) if vals[v] is None]
        heapify(self._heap)

    def _backjump(self, target_level: int):
        trail_lim = self.trail_lim
        if len(trail_lim) <= target_level:
            return
        cut = trail_lim[target_level]
        trail = self.trail
        vals, phase, act, heap = self._vals, self._phase, self._activity, self._heap
        for lit in trail[cut:]:
            vals[lit] = vals[-lit] = None
            if lit > 0:
                phase[lit] = True
                heappush(heap, (-act[lit], lit))
            else:
                phase[-lit] = False
                heappush(heap, (-act[-lit], -lit))
        del trail[cut:]
        del trail_lim[target_level:]
        if self.qhead > cut:
            self.qhead = cut
        if len(heap) > HEAP_SLACK * self.nvars:
            self._rebuild_heap()
        if self.theory_hook is not None:
            self.theory_hook.hook_backjump(cut)

    def _analyze(self, confl: int):
        """1st-UIP analysis.  Returns (learned literal list with the
        asserting literal first, backjump level, derivation), or None when
        the conflict is at level 0 and so refutes the clauses.  With proof
        logging, the derivation is (conflict node, [(pivot, reason node),
        ...]); the learned clause is exactly its resolvent.

        Walks the trail backwards from its end, resolving every marked
        conflict-level literal against its reason until one such literal
        is left open: the resolution order is decreasing trail position.
        The literals below the conflict level are collected as trail
        positions, so that they sort as plain integers.  A level-0
        conflict takes no backjump, so the decisions stay on the trail:
        the walk resolves every literal, down to the empty clause, which
        is the proof's final node."""
        clauses, level = self.clauses, self._level
        clause = clauses[confl]
        lvl = 0
        for l in clause:
            lv = level[l if l > 0 else -l]
            if lv > lvl:
                lvl = lv
        if lvl:
            self._backjump(lvl)
        act, inc, reason, trail_pos = self._activity, self.var_inc, self._reason, self._trail_pos
        proof, node_of = self.proof, self._node_of
        first = self._node(confl) if proof else None
        steps = []
        seen = set()
        rest = []   # trail positions of the literals below the conflict level
        open_ = 0   # marked current-level literals not yet resolved away
        for l in clause:
            v = l if l > 0 else -l
            act[v] += inc
            seen.add(v)
            if level[v] == lvl:
                open_ += 1
            else:
                rest.append(trail_pos[v])
        trail = self.trail
        i = len(trail)
        while open_:
            i -= 1
            v = trail[i]
            if v < 0:
                v = -v
            if v not in seen:
                continue
            if open_ == 1 and lvl:
                break
            open_ -= 1
            rid = reason[v]
            assert rid is not None, "multiple decision literals at one level"
            if proof:
                node = node_of.get(rid)
                steps.append((v, self._node(rid) if node is None else node))
            for q in clauses[rid]:
                u = q if q > 0 else -q
                if u not in seen:
                    seen.add(u)
                    if level[u] == lvl:
                        open_ += 1
                    else:
                        rest.append(trail_pos[u])
            act[v] += inc
        else:
            if proof:
                proof.final = proof.chain(first, steps, ())
            return None
        # Each literal below the conflict level is false: the negation of
        # the trail literal at its position.  Levels never decrease along
        # the trail, so they go in the order of decreasing (level, position).
        rest.sort(reverse=True)
        learned = [-trail[i]]
        for p in rest:
            learned.append(-trail[p])
        backjump = 0
        if rest:
            u = trail[rest[0]]
            backjump = level[u if u > 0 else -u]
        self._decay_activity()
        return learned, backjump, (first, steps)

    def _learn(self, learned: list[int], backjump: int, derivation: tuple) -> None:
        """Add the learned clause and enqueue its asserting literal.  The
        clause is watched on its first two literals, the asserting literal
        and the highest-level one after it: the watches `add_clause` would
        choose after the backjump.  With proof logging, a clause without a
        node gets one chain node (or the conflict's node, when no step was
        taken).  A re-derived clause keeps its id and node and is settled."""
        self._backjump(backjump)
        key = frozenset(learned)
        cid = held = self._by_key.get(key)
        if held is None:
            cid = len(self.clauses)
            self.clauses.append(learned)
            self.origins.append(("learned",))
            self._by_key[key] = cid
            if len(learned) > 1:
                self._watches[learned[0]].append(cid)
                self._watches[learned[1]].append(cid)
        if self.proof and cid not in self._node_of:
            first, steps = derivation
            # the chain node's clause is the key already built
            self._node_of[cid] = self.proof.chain(first, steps, key) if steps else first
        if held is None:
            self._enqueue(learned[0], cid)
        else:
            self._settle_held(held)

    # -- assumptions ----------------------------------------------------------

    def _analyze_final(self, failed: int) -> tuple[int, ...]:
        """Conflict clause over assumption negations for a failed assumption
        (an assumption literal that is already false)."""
        level, reason = self._level, self._reason
        out = {-failed}
        seen = {abs(failed)}
        for idx in range(len(self.trail) - 1, -1, -1):
            t = self.trail[idx]
            v = abs(t)
            if v not in seen or level[v] == 0:
                continue
            rid = reason[v]
            if rid is None:
                out.add(-t)
            else:
                for q in self.clauses[rid]:
                    if abs(q) != v and level[abs(q)] > 0:
                        seen.add(abs(q))
        return tuple(sorted(out, key=abs))

    # -- search ----------------------------------------------------------------

    def _pick_var(self) -> Optional[int]:
        """The unassigned variable of highest activity, ties to the lowest
        index; None when every variable is assigned."""
        heap, vals = self._heap, self._vals
        while heap:
            v = heap[0][1]
            if vals[v] is None:
                return v
            heappop(heap)
        return None

    def solve(self, assumptions: Iterable[int] = ()) -> SatVerdict:
        """Search under `assumptions`.  A solver can be solved again, under
        other assumptions and after more clauses were added, at level 0 or
        on the trail the last call left (the call starts from level 0, where
        it re-checks those clauses); learned clauses carry over, since they
        follow from the clauses.  An assumption literal 0 is a ValueError.
        `conflict_budget` bounds the conflicts of each call, while
        `conflicts` counts them over the solver's life: a conflict past the
        budget answers unknown, unless it is met with no decision on the
        trail, where analysis refutes the clauses with no search."""
        assumptions = list(assumptions)
        if 0 in assumptions:
            raise ValueError("literal 0 is not allowed")
        for a in assumptions:
            self.ensure_vars(abs(a))
        # the previous call left its decisions on the trail; assumptions are
        # taken one per decision level from level 1
        self._backjump(0)
        if self.refuted:
            return SatVerdict("unsat", proof=self.proof)
        # A clause added on that trail may have been false only under its
        # decisions, and a one-literal clause has no watches to bring back
        # what the backjump undid: settle them again at level 0.
        recheck, self._recheck = self._recheck, []
        if self.pending_conflict in recheck:
            self.pending_conflict = None
        for cid in recheck:
            self._settle_held(cid)
        budget_end = None if self.conflict_budget is None else self.conflicts + self.conflict_budget
        hook, trail, trail_lim = self.theory_hook, self.trail, self.trail_lim
        while True:
            confl = self._propagate()
            if confl is None:
                if hook is not None and hook.hook_fixpoint():
                    continue
            else:
                self.conflicts += 1
                if budget_end is not None and self.conflicts > budget_end and trail_lim:
                    return SatVerdict("unknown")
                res = self._analyze(confl)
                if res is None:
                    self.refuted = True
                    return SatVerdict("unsat", proof=self.proof)
                self._learn(*res)
                continue
            dl = len(trail_lim)
            if dl < len(assumptions):
                a = assumptions[dl]
                val = self._vals[a]
                if val is True:
                    trail_lim.append(len(trail))
                    continue
                if val is False:
                    conflict = self._analyze_final(a)
                    return SatVerdict("unsat-assumptions", conflict=conflict)
                trail_lim.append(len(trail))
                self._enqueue(a, None)
                continue
            v = self._pick_var()
            if v is None:
                if hook is not None and hook.hook_final():
                    continue
                vals = self._vals
                return SatVerdict("sat", model={u: vals[u] for u in range(1, self.nvars + 1)})
            trail_lim.append(len(trail))
            self._enqueue(v if self._phase[v] else -v, None)


# ---------------------------------------------------------------------------
# Convenience entry points
# ---------------------------------------------------------------------------

def sat_solve(clauses: list[list[int]], log_proof: bool = False,
              conflict_budget: Optional[int] = None) -> SatVerdict:
    """One-shot solve over the variables the clauses mention.  With proof
    logging, an unsat verdict carries a resolution proof whose leaves are
    input clauses."""
    s = SatSolver(log_proof=log_proof, conflict_budget=conflict_budget)
    s.add_inputs(clauses)
    return s.solve()


def assumption_core(verdict: SatVerdict, selectors: list[int]) -> list[int]:
    """Ascending positions of the clauses, guarded by `selectors` as
    `SatSolver.guard` returned them, whose selectors the final conflict of
    an unsat-assumptions verdict negates: the clauses its refutation
    blames."""
    assert verdict.status == "unsat-assumptions", \
        "selector-guarded clauses cannot be refuted without their selectors"
    negated = set(verdict.conflict)
    return [i for i, sel in enumerate(selectors) if -sel in negated]
