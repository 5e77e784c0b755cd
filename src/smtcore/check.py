"""The trusted checker: every verified core rests on this module alone.

It replays a resolution refutation and decides its leaves, after Zhang &
Malik, "Validating SAT solvers using an independent resolution-based
checker" (DATE 2003), and shares no code with the search that logged it.
From `smtcore` it imports only `terms` and `theory.lra.LraSolver`, and
reads a proof only through `ProofLog.nodes` and `ProofLog.final`, so the
trusted base is this module, `terms` and the LRA solver with its base
class (`tests/test_refutation.py` holds the module to those imports).

- `check_proof` replays every chain of a proof step by step, and
  `proof_leaves` lists the leaves the final node derives from.
- `validity_check` decides the theory validity of a clause: for EUF by a
  congruence closure over the clause's own terms, which shares no code
  with the `EufSolver` that made the lemmas, for LRA by one fresh
  `LraSolver`.  `smt.lemma_store_violations` decides stored lemmas by it.
- `check_refutation` verifies a core from a refutation of its clauses plus
  theory-valid lemmas: every chain must re-derive, and every leaf it
  resolves on must be a core clause or theory-valid.  A leaf may name an
  equality atom the run's EUF engine defined past the atom table, so
  `check_refutation` reads the definitions of the engine whose lemmas it
  checks (each lemma records those of its clause), and accepts only
  definitions that give each such variable one equality over the
  formula's terms.
"""
from __future__ import annotations

import copy
from typing import Iterable, Optional

from .terms import LOGIC_EUF, LOGIC_LRA, Atom, AtomTable, EufAtom, Formula, FunApp, LinAtom
from .theory.lra import LraSolver


# ---------------------------------------------------------------------------
# Proof replay
# ---------------------------------------------------------------------------

def proof_leaves(proof) -> list[tuple]:
    """The distinct leaf nodes reachable from the final node."""
    nodes = proof.nodes
    if proof.final is None:
        raise ValueError("proof does not derive the empty clause")
    if nodes[proof.final][-1]:
        raise ValueError("final node is not the empty clause")
    seen = bytearray(len(nodes))
    out = []
    stack = [proof.final]
    push = stack.append
    while stack:
        n = stack.pop()
        if seen[n]:
            continue
        seen[n] = 1
        node = nodes[n]
        if node[0] == "leaf":
            out.append(node)
            continue
        # a node seen by now would be skipped when popped: leave it off
        if not seen[node[1]]:
            push(node[1])
        for _, a in node[2]:
            if not seen[a]:
                push(a)
    return out


def check_proof(proof,
                input_clauses: Optional[list[list[int]]] = None) -> Optional[str]:
    """Re-verify every node of a `sat.ProofLog`; None when the proof
    correctly derives the empty clause, else a description of the first
    violation.  A chain is replayed step by step on one clause: each step
    must resolve on a pivot that occurs with opposite polarities in the
    running clause and the antecedent, giving (C - {p}) | (D - {-p}), and
    the last clause must equal the stored one.  With `input_clauses`,
    every leaf must equal the input clause it names; without, leaves are
    taken as given and the caller checks them."""
    nodes = proof.nodes
    for i, node in enumerate(nodes):
        if node[0] == "leaf":
            if input_clauses is None:
                continue
            _, cid, lits = node
            if not 0 <= cid < len(input_clauses):
                return f"node {i}: leaf references unknown clause {cid}"
            if frozenset(input_clauses[cid]) != lits:
                return f"node {i}: leaf literals differ from input clause {cid}"
            continue
        _, first, steps, lits = node
        if not 0 <= first < i:
            return f"node {i}: chain starts at a node that is not earlier"
        clause = set(nodes[first][-1])
        for k, (pivot, ante) in enumerate(steps):
            if not 0 <= ante < i:
                return f"node {i}: step {k} names a node that is not earlier"
            other = nodes[ante][-1]
            if pivot in clause and -pivot in other:
                lit = pivot
            elif -pivot in clause and pivot in other:
                lit = -pivot
            else:
                return f"node {i}: step {k}: pivot {pivot} not opposite in the clauses"
            # (C - {lit}) | (D - {-lit}) in place: -lit stays only if C held
            # it, and lit only if D holds it (either may be a tautology)
            had = -lit in clause
            clause.discard(lit)
            clause |= other
            if not had:
                clause.discard(-lit)
        if clause != lits:
            return f"node {i}: stored clause differs from the replayed chain"
    if proof.final is None:
        return "no final node"
    if not 0 <= proof.final < len(nodes):
        return "final node out of range"
    if nodes[proof.final][-1]:
        return "final node is not the empty clause"
    return None


# ---------------------------------------------------------------------------
# Theory validity of a clause
# ---------------------------------------------------------------------------

def validity_check(logic: str, table: AtomTable) -> "_Validity":
    """The validity check of clauses over `table` for a formula of `logic`:
    for a formula with no theory atoms, one that accepts only tautologies."""
    return {LOGIC_EUF: _EufValidity, LOGIC_LRA: _LraValidity}.get(logic, _Validity)(table)


class _Validity:
    """Theory validity of clauses of signed variables.  A variable is an
    atom of `table`, or one past it that a copy made by `under` names,
    which only the EUF check admits (`_admit`), as only `EufSolver`
    defines atoms.  A clause is valid when it is a tautology or the
    negations of its literals over the theory's atoms are inconsistent
    (`_refutes`).  Its other literals are ignored, which is sound: a clause
    that contains a valid clause is valid.  This base decides no theory."""

    def __init__(self, table: AtomTable):
        self.table = table
        self.defined: dict[int, Atom] = {}

    def under(self, defs: Iterable[tuple[int, Atom]]) -> "_Validity":
        """A copy of this check whose only definitions are `defs`, pairs
        (variable, atom) in which each variable, past the table, names its
        atom; a ValueError naming the first it rejects.  The copy shares
        everything else, so it costs no more than its definitions."""
        check = copy.copy(self)
        check.defined = {}
        for var, atom in defs:
            try:
                if var <= len(self.table):
                    raise ValueError(f"variable {var} is an atom of the table")
                self._admit(var, atom)
            except ValueError as exc:
                raise ValueError(f"definition of variable {var} is rejected: {exc}") from None
            check.defined[var] = atom
        return check

    def atom(self, var: int) -> Atom:
        return self.defined.get(var) or self.table.atom(var)

    def known(self, lits: Iterable[int]) -> bool:
        """Whether every literal names an atom of the table or a defined one."""
        size, defined = len(self.table), self.defined
        return all(1 <= abs(lit) <= size or abs(lit) in defined for lit in lits)

    def valid(self, lits: frozenset[int]) -> bool:
        """Whether the clause is valid; every literal must be `known`."""
        return any(-lit in lits for lit in lits) or self._refutes(lits)

    def _admit(self, var: int, atom: Atom) -> None:
        raise ValueError("only an EUF formula defines atoms past its table")

    def _refutes(self, lits: frozenset[int]) -> bool:
        return False


class _EufValidity(_Validity):
    """EUF, by a congruence closure over the clause's own terms and their
    subterms, which decides a ground EUF clause (Nelson & Oppen, "Fast
    decision procedures based on congruence closure", JACM 1980).  No
    closure is kept from one clause to the next, only names: a term gets
    a dense id the first time a clause names it, kept with the ids of its
    subterms and its function symbol's number, and an atom the pair of its
    sides' ids, so a clause's closure hashes no `Term`."""

    def __init__(self, table: AtomTable):
        super().__init__(table)
        self.terms: set = set()             # every term of the table's equalities
        todo = [t for _, a in table.items() if isinstance(a, EufAtom) for t in (a.lhs, a.rhs)]
        while todo:
            t = todo.pop()
            if t not in self.terms:
                self.terms.add(t)
                if isinstance(t, FunApp):
                    todo.extend(t.args)
        self._ids: dict = {}                # term -> id
        self._app: list = []                # id -> (symbol number, argument ids), or None
        self._below: list = []              # id -> the ids of its subterms, itself last
        self._symbols: dict = {}            # function symbol -> number
        self._ends: dict = {}               # variable -> (lhs id, rhs id), or None if not EUF

    def _term_id(self, t) -> int:
        tid = self._ids.get(t)
        if tid is None:
            below, app = [], None
            if isinstance(t, FunApp):
                args = tuple([self._term_id(a) for a in t.args])
                for a in args:
                    below += self._below[a]
                app = (self._symbols.setdefault(t.fn, len(self._symbols)), args)
            tid = self._ids[t] = len(self._app)
            below.append(tid)
            self._app.append(app)
            self._below.append(tuple(dict.fromkeys(below)))
        return tid

    def under(self, defs: Iterable[tuple[int, Atom]]) -> "_EufValidity":
        check = super().under(defs)
        check._ends = {}                    # a defined variable may name another atom there
        return check

    def _admit(self, var: int, atom: Atom) -> None:
        """An equality over the terms of the table's equalities."""
        if not isinstance(atom, EufAtom):
            raise ValueError(f"{type(atom).__name__} does not belong to EUF")
        if atom.lhs not in self.terms or atom.rhs not in self.terms:
            raise ValueError(f"{atom} is not over the solver's terms")

    def _refutes(self, lits: frozenset[int]) -> bool:
        """The equalities the clause negates, closed under congruence, join
        the two sides of an equality it asserts."""
        ends = self._ends
        equal, unequal = [], []
        for lit in lits:
            var = lit if lit > 0 else -lit
            if var in ends:
                pair = ends[var]
            else:
                atom = self.atom(var)
                pair = ends[var] = (self._term_id(atom.lhs), self._term_id(atom.rhs)) \
                    if isinstance(atom, EufAtom) else None
            if pair is not None:
                (unequal if lit > 0 else equal).append(pair)
        if not unequal:
            return False
        below, app = self._below, self._app
        rep = {}                            # the clause's terms and their subterms
        for a, b in equal + unequal:
            for tid in below[a] + below[b]:
                rep[tid] = tid
        apps = [(tid, app[tid]) for tid in rep if app[tid] is not None]

        def find(t: int) -> int:
            while rep[t] != t:
                rep[t] = t = rep[rep[t]]
            return t

        for a, b in equal:
            rep[find(a)] = find(b)
        merged = True
        while merged:                       # one signature pass until none merges
            merged = False
            signatures = {}
            for tid, (fn, args) in apps:
                other = signatures.setdefault((fn, *map(find, args)), tid)
                a, b = find(tid), find(other)
                if a != b:
                    rep[a] = b
                    merged = True
        return any(find(a) == find(b) for a, b in unequal)


class _LraValidity(_Validity):
    """LRA, by asserting the negations, in variable order, to one
    `LraSolver` and checking it; the solver is backtracked to empty after
    each clause."""

    def __init__(self, table: AtomTable):
        super().__init__(table)
        self.solver = LraSolver(table)

    def _refutes(self, lits: frozenset[int]) -> bool:
        solver = self.solver
        owned = [lit for lit in sorted(lits, key=abs) if isinstance(self.atom(abs(lit)), LinAtom)]
        refuted = any(solver.assert_literal(-lit) for lit in owned) or solver.check_full()
        solver.backtrack(0)
        return refuted


# ---------------------------------------------------------------------------
# Core verification from a refutation
# ---------------------------------------------------------------------------

def _out_of_range(formula: Formula, core: list[int]) -> Optional[str]:
    """A description of the first index of `core` outside `formula`, or None."""
    bad = [i for i in core if not 0 <= i < len(formula.clauses)]
    return f"index {bad[0]} out of range 0..{len(formula.clauses) - 1}" if bad else None


def check_refutation(formula: Formula, core: Iterable[int], proof,
                     defs: Optional[dict[int, Atom]] = None,
                     leaves: Optional[list[tuple]] = None) -> Optional[str]:
    """Verification without a search: None when the indices are in range,
    every chain of `proof`, a `sat.ProofLog`, re-derives step by step
    (`check_proof`), its final node is the empty clause, and every leaf it
    resolves on is either a clause of `core` (as a set) or theory-valid;
    else a description.  A leaf variable is an atom of the formula's table,
    or one past it that `defs` maps to an equality over the formula's
    terms; any other definition is rejected.  That is sound: a model of the
    core extends to those variables by evaluating their equalities, and
    then satisfies every theory-valid leaf, so the refutation refutes the
    core.  A leaf is theory-valid when it is a tautology or its negated
    theory literals are inconsistent, as `validity_check` decides it: for
    EUF by a congruence closure over the leaf's own terms (no
    `EufSolver`), for LRA by one fresh `LraSolver`, which is backtracked
    to empty after each leaf.  Only `formula`, `proof` and `defs` are
    read: no lemma store, clause numbering or engine of the run that
    logged the proof.  `leaves`, when given, must be `proof_leaves` of
    `proof`, from a caller that walked it already."""
    core = sorted(set(core))
    if problem := _out_of_range(formula, core):
        return problem
    problem = check_proof(proof)
    if problem is not None:
        return f"refutation: {problem}"
    inputs = {frozenset(formula.clauses[i]) for i in core}
    if leaves is None:
        leaves = proof_leaves(proof)
    leaves = [lits for _, _cid, lits in leaves if lits not in inputs]
    if not leaves:
        return None
    try:
        check = validity_check(formula.logic, formula.atoms).under(
            sorted((defs or {}).items()))
    except ValueError as exc:
        return str(exc)
    for lits in leaves:
        if not check.known(lits):
            return f"refutation leaf {sorted(lits, key=abs)} names an unknown atom"
        if not check.valid(lits):
            return (f"refutation leaf {sorted(lits, key=abs)} is neither a core "
                    f"clause nor theory-valid")
    return None
