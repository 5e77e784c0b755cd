"""Conflict-driven clause-learning SAT solver with resolution-proof logging.

Literals are nonzero signed integers over 1-based variables.  The solver
supports solving under assumptions (the unsatisfiable answer is then a
conflict clause over negated assumptions), selector-variable core
extraction, and an optional theory hook used by the lazy SMT engine.

Learned clauses are exact resolvents of their reason clauses: conflict
analysis materializes every resolution step, so the proof log is purely
resolution-shaped.  Level-zero-false literals are kept in learned clauses
instead of being elided, which keeps the log honest at a negligible size
cost at this scale.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional


# ---------------------------------------------------------------------------
# Resolution proofs
# ---------------------------------------------------------------------------

class ProofLog:
    """Append-only DAG of resolution nodes ending (on unsat) in the empty
    clause.  Nodes are ("leaf", clause_id, lits) or
    ("res", pivot, left, right, lits)."""

    def __init__(self):
        self.nodes: list[tuple] = []
        self.final: Optional[int] = None
        self._leaf_of: dict[int, int] = {}

    def lits(self, node: int) -> frozenset[int]:
        return self.nodes[node][-1]

    def leaf(self, clause_id: int, lits: Iterable[int]) -> int:
        cached = self._leaf_of.get(clause_id)
        if cached is not None:
            return cached
        node = len(self.nodes)
        self.nodes.append(("leaf", clause_id, frozenset(lits)))
        self._leaf_of[clause_id] = node
        return node

    def resolve(self, pivot: int, left: int, right: int) -> int:
        ll, rl = self.lits(left), self.lits(right)
        if pivot in ll and -pivot in rl:
            merged = (ll - {pivot}) | (rl - {-pivot})
        elif -pivot in ll and pivot in rl:
            merged = (ll - {-pivot}) | (rl - {pivot})
        else:
            raise ValueError(f"pivot {pivot} does not occur with opposite polarities")
        node = len(self.nodes)
        self.nodes.append(("res", pivot, left, right, merged))
        return node

    def to_trace(self) -> str:
        """Text dump, one node per line: "L <id>" / "R <pivot> <left> <right>"."""
        lines = []
        for n in self.nodes:
            if n[0] == "leaf":
                lines.append(f"L {n[1]}")
            else:
                lines.append(f"R {n[1]} {n[2]} {n[3]}")
        return "\n".join(lines) + "\n"


def proof_core(proof: ProofLog) -> set[int]:
    """Clause ids of all distinct leaves reachable from the final node."""
    if proof.final is None:
        raise ValueError("proof does not derive the empty clause")
    if proof.lits(proof.final):
        raise ValueError("final node is not the empty clause")
    seen = set()
    out = set()
    stack = [proof.final]
    while stack:
        n = stack.pop()
        if n in seen:
            continue
        seen.add(n)
        node = proof.nodes[n]
        if node[0] == "leaf":
            out.add(node[1])
        else:
            stack.append(node[2])
            stack.append(node[3])
    return out


def check_proof(proof: ProofLog, input_clauses: list[list[int]]) -> Optional[str]:
    """Re-verify every node; None when the proof correctly derives the empty
    clause from input clauses, else a description of the first violation."""
    for i, node in enumerate(proof.nodes):
        if node[0] == "leaf":
            _, cid, lits = node
            if not 0 <= cid < len(input_clauses):
                return f"node {i}: leaf references unknown clause {cid}"
            if frozenset(input_clauses[cid]) != lits:
                return f"node {i}: leaf literals differ from input clause {cid}"
        else:
            _, pivot, left, right, lits = node
            if left >= i or right >= i or left < 0 or right < 0:
                return f"node {i}: child references a later node"
            ll, rl = proof.lits(left), proof.lits(right)
            if pivot in ll and -pivot in rl:
                merged = (ll - {pivot}) | (rl - {-pivot})
            elif -pivot in ll and pivot in rl:
                merged = (ll - {-pivot}) | (rl - {pivot})
            else:
                return f"node {i}: pivot {pivot} not opposite in the children"
            if merged != lits:
                return f"node {i}: stored resolvent differs from the resolution result"
    if proof.final is None:
        return "no final node"
    if not 0 <= proof.final < len(proof.nodes):
        return "final node out of range"
    if proof.lits(proof.final):
        return "final node is not the empty clause"
    return None


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

@dataclass
class SatVerdict:
    status: str  # "sat" | "unsat" | "unsat-assumptions" | "unknown"
    model: Optional[dict[int, bool]] = None
    proof: Optional[ProofLog] = None
    conflict: Optional[tuple[int, ...]] = None  # negations of responsible assumptions


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------

ACTIVITY_DECAY = 0.95


class SatSolver:
    """CDCL with two-watched literals, activity branching (decay
    ACTIVITY_DECAY, ties to the lowest variable index), 1st-UIP learning and
    optional geometric restarts (off by default while logging proofs)."""

    def __init__(self, log_proof: bool = False,
                 conflict_budget: Optional[int] = None,
                 enable_restarts: Optional[bool] = None,
                 seed: Optional[int] = None):
        self.clauses: list[list[int]] = []
        self.origins: list[tuple] = []
        self.proof: Optional[ProofLog] = ProofLog() if log_proof else None
        self._node_of: dict[int, int] = {}
        self._by_key: dict[frozenset[int], int] = {}
        self.nvars = 0
        self.watches: dict[int, list[int]] = {}
        self.assign: dict[int, bool] = {}
        self.level: dict[int, int] = {}
        self.reason: dict[int, Optional[int]] = {}
        self.trail: list[int] = []
        self.trail_pos: dict[int, int] = {}
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.activity: dict[int, float] = {}
        self.phase: dict[int, bool] = {}
        self.var_inc = 1.0
        self.conflict_budget = conflict_budget
        self.conflicts = 0
        if enable_restarts is None:
            enable_restarts = not log_proof
        self.enable_restarts = enable_restarts
        # a seed perturbs initial activities, varying branching tie-breaks
        # while staying reproducible per seed
        import random as _random
        self._rng = _random.Random(seed) if seed is not None else None
        self.theory_hook = None
        self.empty_clause: Optional[int] = None
        self.pending_conflict: Optional[int] = None

    # -- basic state ---------------------------------------------------------

    @property
    def decision_level(self) -> int:
        return len(self.trail_lim)

    def ensure_vars(self, n: int):
        while self.nvars < n:
            self.nvars += 1
            v = self.nvars
            self.watches[v] = []
            self.watches[-v] = []
            self.activity[v] = self._rng.random() * 1e-6 if self._rng else 0.0
            self.phase[v] = bool(self._rng.getrandbits(1)) if self._rng else False

    def value(self, lit: int) -> Optional[bool]:
        a = self.assign.get(abs(lit))
        if a is None:
            return None
        return a if lit > 0 else not a

    def _enqueue(self, lit: int, reason: Optional[int]):
        v = abs(lit)
        self.assign[v] = lit > 0
        self.level[v] = self.decision_level
        self.reason[v] = reason
        self.trail_pos[v] = len(self.trail)
        self.trail.append(lit)

    # -- clauses ------------------------------------------------------------

    def add_clause(self, lits: Iterable[int], origin: tuple = ("learned",)) -> tuple[int, str]:
        """Add a clause; returns (clause id, status).  Input clauses always
        get a fresh id (ids equal input positions); re-added lemma or learned
        clauses that are canonically equal to an existing clause are ignored
        and the existing id is returned.  Status describes the clause under
        the current assignment; a unit clause is enqueued immediately."""
        seen = {}
        norm = []
        for l in lits:
            if l == 0:
                raise ValueError("literal 0 is not allowed")
            if -l in seen:
                norm = None  # tautology: keep but it can never propagate
                break
            if l not in seen:
                seen[l] = True
                norm.append(l)
        if norm is None:
            norm = list(dict.fromkeys(lits))
        key = frozenset(norm)
        existing = self._by_key.get(key)
        if existing is not None and origin[0] != "input":
            return existing, "duplicate"
        cid = len(self.clauses)
        self.clauses.append(norm)
        self.origins.append(origin)
        if existing is None:
            self._by_key[key] = cid
        for l in norm:
            self.ensure_vars(abs(l))
        if not norm:
            self.empty_clause = cid
            return cid, "conflict"
        if len(norm) == 1:
            val = self.value(norm[0])
            if val is None:
                self._enqueue(norm[0], cid)
                return cid, "unit"
            if val:
                return cid, "satisfied"
            self.pending_conflict = cid
            return cid, "conflict"
        self._install_watches(cid)
        vals = [self.value(l) for l in norm]
        if any(v is True for v in vals):
            return cid, "satisfied"
        unassigned = [l for l, v in zip(norm, vals) if v is None]
        if not unassigned:
            self.pending_conflict = cid
            return cid, "conflict"
        if len(unassigned) == 1:
            self._enqueue(unassigned[0], cid)
            return cid, "unit"
        return cid, "ok"

    def _install_watches(self, cid: int):
        cl = self.clauses[cid]

        def rank(i):
            v = self.value(cl[i])
            if v is None or v is True:
                return (0, i)
            return (1, -self.level[abs(cl[i])], i)

        order = sorted(range(len(cl)), key=rank)
        a, b = order[0], order[1]
        cl[0], cl[a] = cl[a], cl[0]
        if b == 0:
            b = a
        cl[1], cl[b] = cl[b], cl[1]
        self.watches[cl[0]].append(cid)
        self.watches[cl[1]].append(cid)

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
        while self.qhead < len(self.trail):
            p = self.trail[self.qhead]
            self.qhead += 1
            neg = -p
            ws = self.watches[neg]
            keep = []
            for pos, cid in enumerate(ws):
                cl = self.clauses[cid]
                if cl[0] == neg:
                    cl[0], cl[1] = cl[1], cl[0]
                first = cl[0]
                if self.value(first) is True:
                    keep.append(cid)
                    continue
                moved = False
                for k in range(2, len(cl)):
                    if self.value(cl[k]) is not False:
                        cl[1], cl[k] = cl[k], cl[1]
                        self.watches[cl[1]].append(cid)
                        moved = True
                        break
                if moved:
                    continue
                keep.append(cid)
                if self.value(first) is False:
                    keep.extend(ws[pos + 1:])
                    self.watches[neg] = keep
                    return cid
                self._enqueue(first, cid)
            self.watches[neg] = keep
        return None

    # -- conflict analysis ----------------------------------------------------

    def _bump(self, v: int):
        self.activity[v] += self.var_inc

    def _decay_activity(self):
        self.var_inc /= ACTIVITY_DECAY
        if self.var_inc > 1e100:
            for v in self.activity:
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100

    def _backjump(self, target_level: int):
        if self.decision_level <= target_level:
            return
        cut = self.trail_lim[target_level]
        for lit in self.trail[cut:]:
            v = abs(lit)
            self.phase[v] = self.assign[v]
            del self.assign[v]
            del self.level[v]
            del self.reason[v]
            del self.trail_pos[v]
        del self.trail[cut:]
        del self.trail_lim[target_level:]
        self.qhead = min(self.qhead, len(self.trail))
        if self.theory_hook is not None:
            self.theory_hook.hook_backjump(len(self.trail))

    def _derive_empty(self, confl: int):
        """Level-0 conflict: resolve against reasons in reverse trail order
        down to the empty clause; record it as the proof's final node."""
        cur = set(self.clauses[confl])
        node = self._node(confl) if self.proof else None
        while cur:
            lit = max(cur, key=lambda l: self.trail_pos[abs(l)])
            v = abs(lit)
            rid = self.reason[v]
            assert rid is not None, "unassigned or decision literal in a level-0 conflict"
            if self.proof:
                node = self.proof.resolve(v, node, self._node(rid))
            cur = (cur - {lit}) | (set(self.clauses[rid]) - {-lit})
        if self.proof:
            self.proof.final = node

    def _analyze(self, confl: int):
        """1st-UIP analysis.  Returns (learned literal list with the
        asserting literal first, backjump level, proof node or None) or None
        when the conflict proves global unsatisfiability."""
        clause = self.clauses[confl]
        max_lvl = max((self.level[abs(l)] for l in clause), default=0)
        if max_lvl == 0:
            self._derive_empty(confl)
            return None
        if max_lvl < self.decision_level:
            self._backjump(max_lvl)
        lvl = self.decision_level
        cur = set(clause)
        node = self._node(confl) if self.proof else None
        for l in clause:
            self._bump(abs(l))
        while True:
            at_level = [l for l in cur if self.level[abs(l)] == lvl]
            if len(at_level) <= 1:
                break
            target = max(at_level, key=lambda l: self.trail_pos[abs(l)])
            v = abs(target)
            rid = self.reason[v]
            assert rid is not None, "multiple decision literals at one level"
            if self.proof:
                node = self.proof.resolve(v, node, self._node(rid))
            reason_lits = set(self.clauses[rid])
            cur = (cur - {target}) | (reason_lits - {-target})
            self._bump(v)
        assert len(at_level) == 1
        assert_lit = at_level[0]
        rest = sorted((l for l in cur if l != assert_lit),
                      key=lambda l: (-self.level[abs(l)], -self.trail_pos[abs(l)]))
        backjump = self.level[abs(rest[0])] if rest else 0
        self._decay_activity()
        return [assert_lit] + rest, backjump, node

    def _learn(self, learned: list[int], backjump: int, node) -> None:
        self._backjump(backjump)
        cid, status = self.add_clause(learned, ("learned",))
        if status == "duplicate":
            if self.proof and cid not in self._node_of:
                self._node_of[cid] = node
            # re-derived clause: it must re-propagate its asserting literal
            if self.value(learned[0]) is None:
                self._enqueue(learned[0], cid)
        elif self.proof:
            self._node_of[cid] = node

    # -- assumptions ----------------------------------------------------------

    def _analyze_final(self, failed: int) -> tuple[int, ...]:
        """Conflict clause over assumption negations for a failed assumption
        (an assumption literal that is already false)."""
        out = {-failed}
        seen = {abs(failed)}
        for idx in range(len(self.trail) - 1, -1, -1):
            t = self.trail[idx]
            v = abs(t)
            if v not in seen or self.level[v] == 0:
                continue
            rid = self.reason[v]
            if rid is None:
                out.add(-t)
            else:
                for q in self.clauses[rid]:
                    if abs(q) != v and self.level[abs(q)] > 0:
                        seen.add(abs(q))
        return tuple(sorted(out, key=abs))

    # -- search ----------------------------------------------------------------

    def _pick_var(self) -> Optional[int]:
        best = None
        best_act = -1.0
        for v in range(1, self.nvars + 1):
            if v not in self.assign:
                act = self.activity[v]
                if act > best_act:
                    best, best_act = v, act
        return best

    def solve(self, assumptions: Iterable[int] = ()) -> SatVerdict:
        assumptions = list(assumptions)
        for a in assumptions:
            self.ensure_vars(abs(a))
        if self.empty_clause is not None:
            if self.proof:
                self.proof.final = self._node(self.empty_clause)
            return SatVerdict("unsat", proof=self.proof)
        restart_limit = 100
        conflicts_here = 0
        while True:
            confl = self._propagate()
            if confl is None and self.theory_hook is not None:
                hr = self.theory_hook.hook_fixpoint(self)
                if hr == "added":
                    continue
                confl = hr
                self.pending_conflict = None
            if confl is not None:
                self.conflicts += 1
                conflicts_here += 1
                if self.conflict_budget is not None and self.conflicts > self.conflict_budget:
                    return SatVerdict("unknown")
                res = self._analyze(confl)
                if res is None:
                    return SatVerdict("unsat", proof=self.proof)
                learned, backjump, node = res
                self._learn(learned, backjump, node)
                continue
            if self.enable_restarts and conflicts_here >= restart_limit:
                restart_limit = int(restart_limit * 1.5)
                conflicts_here = 0
                self._backjump(0)
                continue
            dl = self.decision_level
            if dl < len(assumptions):
                a = assumptions[dl]
                val = self.value(a)
                if val is True:
                    self.trail_lim.append(len(self.trail))
                    continue
                if val is False:
                    conflict = self._analyze_final(a)
                    return SatVerdict("unsat-assumptions", conflict=conflict)
                self.trail_lim.append(len(self.trail))
                self._enqueue(a, None)
                continue
            v = self._pick_var()
            if v is None:
                if self.theory_hook is not None:
                    hr = self.theory_hook.hook_final(self)
                    if hr == "added":
                        continue
                    if hr is not None:
                        # re-enter the conflict path above through _propagate
                        self.pending_conflict = hr
                        continue
                model = dict(self.assign)
                return SatVerdict("sat", model=model)
            lit = v if self.phase[v] else -v
            self.trail_lim.append(len(self.trail))
            self._enqueue(lit, None)


# ---------------------------------------------------------------------------
# Convenience entry points
# ---------------------------------------------------------------------------

def sat_solve(clauses: list[list[int]], assumptions: Iterable[int] = (),
              log_proof: bool = False, conflict_budget: Optional[int] = None,
              nvars: Optional[int] = None) -> SatVerdict:
    """One-shot solve.  With proof logging, an unsat verdict carries a
    resolution proof whose leaves are input clauses."""
    s = SatSolver(log_proof=log_proof, conflict_budget=conflict_budget)
    if nvars:
        s.ensure_vars(nvars)
    for i, cl in enumerate(clauses):
        s.add_clause(cl, ("input", i))
    return s.solve(assumptions)


def solve_with_selectors(clauses: list[list[int]],
                         conflict_budget: Optional[int] = None,
                         nvars: Optional[int] = None):
    """Guard every clause with a fresh selector variable assumed true; on
    unsat the core is the set of clauses whose selectors appear negated in
    the final conflict clause.  Returns (verdict, core indices or None)."""
    if not clauses:
        return SatVerdict("sat", model={}), None
    base = nvars if nvars else max((abs(l) for cl in clauses for l in cl), default=0)
    s = SatSolver(conflict_budget=conflict_budget)
    s.ensure_vars(base + len(clauses))
    selector = {}
    for i, cl in enumerate(clauses):
        sel = base + 1 + i
        selector[-sel] = i
        s.add_clause([-sel] + list(cl), ("input", i))
    verdict = s.solve(assumptions=[base + 1 + i for i in range(len(clauses))])
    if verdict.status == "sat":
        return verdict, None
    if verdict.status == "unknown":
        return verdict, None
    assert verdict.status == "unsat-assumptions", \
        "selector-guarded clauses cannot conflict without assumptions"
    core = sorted(selector[l] for l in verdict.conflict if l in selector)
    return verdict, core
