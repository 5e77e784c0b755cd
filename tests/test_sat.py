import hashlib
import random
from collections import Counter
from functools import partial

import pytest

from gen import pigeonhole_cnf, random_cnf, random_difference_formula
from oracles import cnf_models, cnf_truth_table_sat
from smtcore import smt
from smtcore.sat import (
    ACTIVITY_DECAY, HEAP_SLACK, ProofLog, SatSolver, check_proof, proof_leaves, sat_solve,
    solve_with_selectors,
)


def assert_model_satisfies(model, clauses):
    for cl in clauses:
        assert any(model[abs(l)] == (l > 0) for l in cl)


class TestBasics:
    def test_contradictory_units(self):
        v = sat_solve([[1], [-1]], log_proof=True)
        assert v.status == "unsat"
        assert {leaf[1] for leaf in proof_leaves(v.proof)} == {0, 1}
        # one chain node of exactly one resolution step, on the single variable
        chains = [n for n in v.proof.nodes if n[0] == "chain"]
        assert len(chains) == 1
        assert [pivot for pivot, _ in chains[0][2]] == [1]

    def test_simple_sat(self):
        v = sat_solve([[1, 2]])
        assert v.status == "sat"
        assert v.model[1] or v.model[2]

    def test_lifted_abstraction_is_unsat(self, nine_clauses):
        from smtcore.smt import smt_solve
        _, store = smt_solve(nine_clauses)
        clauses = nine_clauses.clauses + [l.clause for l in store]
        assert sat_solve(clauses).status == "unsat"

    def test_empty_input_clause(self):
        v = sat_solve([[1], []], log_proof=True)
        assert v.status == "unsat"
        assert {leaf[1] for leaf in proof_leaves(v.proof)} == {1}

    def test_tautology_from_one_shot_iterable_keeps_every_literal(self):
        s = SatSolver()
        s.add_clause(iter([1, -1, 2]), ("input", 0))
        assert s.clauses[0] == [1, -1, 2]
        s.add_clause([-2], ("input", 1))
        v = s.solve()
        assert v.status == "sat" and v.model[2] is False

    def test_budget_gives_unknown(self):
        """The budget bounds search: a formula refuted by a conflict met
        with no decision on the trail (here its four unit clauses) is unsat
        under budget 0, and one that needs a decision is unknown."""
        rng = random.Random(5)
        clauses, nvars = random_cnf(rng, max_vars=12)
        while cnf_truth_table_sat(clauses, nvars):
            clauses, nvars = random_cnf(rng, max_vars=12)
        assert sat_solve(clauses, conflict_budget=0).status == "unsat"
        v = sat_solve([[1, 2], [-1, 2], [1, -2], [-1, -2]], conflict_budget=0)
        assert v.status == "unknown"

    def test_a_level_0_conflict_is_never_cut_by_the_budget(self):
        """A conflict met at level 0 is analysed whatever the budget, so no
        later solve of the same solver can answer sat."""
        s = SatSolver(conflict_budget=0)
        s.add_inputs([[1], [-1]])
        assert [s.solve().status for _ in range(3)] == ["unsat"] * 3
        # a lemma false at level 0, added above level 0: that solve runs
        # out, and the next meets the lemma at level 0
        s = SatSolver(conflict_budget=0)
        s.add_inputs([[1], [2, 3], [-2, 4]])
        s.theory_hook = OnceAboveLevelZero(s, lambda s: [-1])
        assert [s.solve().status for _ in range(3)] == ["unknown", "unsat", "unsat"]

    def test_budget_bounds_each_solve_not_the_solver_life(self):
        clauses, _ = pigeonhole_cnf(random.Random(0), 4, 0, 0)  # PHP 5/4, 20 variables
        s = SatSolver(conflict_budget=3)
        for i, cl in enumerate(clauses + [[21, 22]]):
            s.add_clause(cl, ("input", i))
        for assumptions in ([21], [-21], []):
            before = s.conflicts
            assert s.solve(assumptions).status == "unknown"
            assert s.conflicts - before == 4  # the conflict past the budget stops it
        s.conflict_budget = None
        assert s.solve([-21]).status == "unsat"


class TestProofCore:
    def test_irrelevant_clause_not_in_core(self):
        v = sat_solve([[1], [-1], [2]], log_proof=True)
        assert v.status == "unsat"
        assert {leaf[1] for leaf in proof_leaves(v.proof)} == {0, 1}

    def test_core_is_unsat_subset(self, nine_clauses):
        from smtcore.smt import lifted_clauses, smt_solve
        _, store = smt_solve(nine_clauses)
        clauses = lifted_clauses(nine_clauses, store)
        v = sat_solve(clauses, log_proof=True)
        core = sorted({leaf[1] for leaf in proof_leaves(v.proof)})
        assert set(core) <= set(range(len(clauses)))
        assert sat_solve([clauses[i] for i in core]).status == "unsat"

    def test_nine_clause_boolean_subset_passes_the_checker(self, nine_clauses):
        # a hand-verified nine-clause Boolean subset must pass the checker
        from smtcore.smt import lifted_clauses, smt_solve
        _, store = smt_solve(nine_clauses)
        rows = lifted_clauses(nine_clauses, store)
        n = len(nine_clauses.clauses)
        picked = [rows[i] for i in (0, 1, 2, 3, 5, 7)] + rows[n:]
        assert sat_solve(picked).status == "unsat"


class TestSelectors:
    def test_contradictory_pair(self):
        v, core = solve_with_selectors([[1], [-1]])
        assert v.status == "unsat-assumptions"
        assert core == [0, 1]

    def test_satisfiable_input(self):
        v, core = solve_with_selectors([[1, 2], [-1]])
        assert v.status == "sat" and core is None

    def test_empty_clause_list_is_sat(self):
        v, core = solve_with_selectors([])
        assert v.status == "sat" and v.model == {} and core is None

    def test_conflict_clause_contains_only_negated_selectors(self, nine_clauses):
        from smtcore.smt import lifted_clauses, smt_solve
        _, store = smt_solve(nine_clauses)
        clauses = lifted_clauses(nine_clauses, store)
        v, core = solve_with_selectors(clauses)
        assert v.status == "unsat-assumptions"
        assert all(l < 0 for l in v.conflict)
        assert all(abs(l) > len(nine_clauses.atoms) for l in v.conflict)
        assert sat_solve([clauses[i] for i in core]).status == "unsat"


class TestCheckProof:
    def test_hand_built_chain(self):
        clauses = [[1], [-1, 2], [-2]]
        proof = ProofLog()
        l0 = proof.leaf(0, clauses[0])
        l1 = proof.leaf(1, clauses[1])
        l2 = proof.leaf(2, clauses[2])
        n1 = proof.chain(l0, [(1, l1)], [2])
        proof.final = proof.chain(n1, [(2, l2)], [])
        assert check_proof(proof, clauses) is None
        assert {leaf[1] for leaf in proof_leaves(proof)} == {0, 1, 2}
        # the same refutation as one chain of two steps
        proof.final = proof.chain(l0, [(1, l1), (2, l2)], [])
        assert check_proof(proof, clauses) is None

    def test_corrupted_pivot_is_reported(self):
        clauses = [[1], [-1]]
        proof = ProofLog()
        l0 = proof.leaf(0, clauses[0])
        l1 = proof.leaf(1, clauses[1])
        n = proof.chain(l0, [(2, l1)], [])  # pivot 2 does not occur
        proof.final = n
        assert check_proof(proof, clauses) == \
            f"node {n}: step 0: pivot 2 not opposite in the clauses"

    @pytest.mark.parametrize("first, steps, lits", [
        # a tautological running clause: {1, -1} on 1 with {-1, 2} keeps
        # its own -1, so {-1, 2} remains, not {2}
        ([1, -1], [(1, [-1, 2])], [-1, 2]),
        ([1, -1], [(1, [-1, 2]), (2, [-2]), (1, [1])], []),
        # the other polarity of the pivot
        ([-1, 1], [(-1, [1, 2])], [1, 2]),
        # a tautological antecedent: {1} on 1 with {-1, 1, 2} gets 1 back
        ([1], [(1, [-1, 1, 2])], [1, 2]),
        ([1], [(1, [-1, 1, 2]), (1, [-1]), (2, [-2])], []),
    ], ids=["tautology-first", "tautology-first-to-empty", "negative-pivot",
            "tautology-antecedent", "tautology-antecedent-to-empty"])
    def test_each_step_is_exact_binary_resolution(self, first, steps, lits):
        """(C - {p}) | (D - {-p}) at every step, also when C or D holds
        both polarities of the pivot."""
        clauses = [first] + [d for _, d in steps]
        proof = ProofLog()
        nodes = [proof.leaf(i, cl) for i, cl in enumerate(clauses)]
        n = proof.chain(nodes[0], [(p, a) for (p, _), a in zip(steps, nodes[1:])], lits)
        proof.final = n
        if lits:
            assert check_proof(proof, clauses) == "final node is not the empty clause"
        else:
            assert check_proof(proof, clauses) is None
        for wrong in ({2}, {-1, 1, 2}, {-1}):
            if wrong != set(lits):
                proof.nodes[n] = ("chain", nodes[0], proof.nodes[n][2], frozenset(wrong))
                assert check_proof(proof, clauses) == \
                    f"node {n}: stored clause differs from the replayed chain"

    def test_solver_proofs_always_check(self):
        rng = random.Random(41)
        seen_unsat = 0
        for _ in range(150):
            clauses, nvars = random_cnf(rng, max_vars=10)
            v = sat_solve(clauses, log_proof=True)
            if v.status == "unsat":
                seen_unsat += 1
                assert check_proof(v.proof, clauses) is None
        assert seen_unsat > 20

    def test_trace_format(self):
        # leaf nodes 0 and 1 name clauses 1 and 0; node 2 starts at node 0
        # and resolves on variable 1 with node 1
        v = sat_solve([[1], [-1]], log_proof=True)
        assert v.proof.to_trace() == "L 1\nL 0\nC 0 1 1\n"
        clauses, _ = pigeonhole_cnf(random.Random(0), 4, 0, 0)
        proof = sat_solve(clauses, log_proof=True).proof
        lines = proof.to_trace().splitlines()
        assert len(lines) == len(proof.nodes)
        for line, node in zip(lines, proof.nodes):
            kind, *fields = line.split()
            if node[0] == "leaf":
                assert (kind, fields) == ("L", [str(node[1])])
            else:
                steps = [int(f) for f in fields[1:]]
                assert kind == "C" and int(fields[0]) == node[1]
                assert list(zip(steps[::2], steps[1::2])) == list(node[2])
        assert sum(l.startswith("C ") for l in lines) == \
            sum(n[0] == "chain" for n in proof.nodes) > 1

    def test_one_chain_node_per_learned_clause(self):
        """Conflict analysis logs one node per learned clause, holding that
        clause, and one more for the empty clause; nothing in between."""
        clauses, _ = pigeonhole_cnf(random.Random(0), 4, 0, 0)  # PHP 5/4
        s = SatSolver(log_proof=True)
        for i, cl in enumerate(clauses):
            s.add_clause(cl, ("input", i))
        assert s.solve().status == "unsat"
        proof = s.proof
        learned = [cid for cid, origin in enumerate(s.origins) if origin == ("learned",)]
        assert len(learned) > 20
        assert sum(n[0] == "chain" for n in proof.nodes) == len(learned) + 1
        for cid in learned:
            node = s._node_of[cid]
            assert proof.nodes[node][0] == "chain"
            assert proof.lits(node) == frozenset(s.clauses[cid])
        assert proof.nodes[proof.final][0] == "chain"
        assert check_proof(proof, clauses) is None


class TestSoundnessAgainstTruthTables:
    def test_thousand_seeds(self):
        rng = random.Random(2024)
        agree = 0
        for _ in range(1000):
            clauses, nvars = random_cnf(rng, max_vars=16)
            expected = cnf_truth_table_sat(clauses, nvars)
            v = sat_solve(clauses, log_proof=not expected)
            assert (v.status == "sat") == expected
            if v.status == "sat":
                assert_model_satisfies(v.model, clauses)
            else:
                assert check_proof(v.proof, clauses) is None
                core = sorted({leaf[1] for leaf in proof_leaves(v.proof)})
                assert not cnf_truth_table_sat([clauses[i] for i in core], nvars)
            agree += 1
        assert agree == 1000


class TestLearnedClauseEntailment:
    def test_learned_clauses_are_implied(self):
        rng = random.Random(77)
        checked = 0
        for _ in range(250):
            clauses, nvars = random_cnf(rng, max_vars=12, min_width=2, density=4)
            solver = SatSolver()
            for i, cl in enumerate(clauses):
                solver.add_clause(cl, ("input", i))
            solver.solve()
            learned_clauses = [cl for cl, origin in zip(solver.clauses, solver.origins)
                               if origin[0] == "learned"]
            for learned in learned_clauses[:5]:
                negated = clauses + [[-l] for l in learned]
                assert not cnf_truth_table_sat(negated, nvars)
                checked += 1
        assert checked > 30


class TestAssumptions:
    def test_assumption_core_under_plain_unsat_formula(self):
        # globally unsat regardless of assumptions: plain unsat wins
        s = SatSolver(log_proof=True)
        s.add_inputs([[1], [-1]])
        v = s.solve([2])
        assert v.status == "unsat"

    def test_failed_assumption(self):
        s = SatSolver()
        s.add_inputs([[1]])
        v = s.solve([-1])
        assert v.status == "unsat-assumptions"
        assert 1 in v.conflict

    def test_each_solve_takes_its_own_assumptions(self):
        s = SatSolver()
        s.add_clause([1, 2], ("input", 0))
        assert s.solve([1]).status == "sat"
        v = s.solve([-1])
        assert v.status == "sat" and v.model[1] is False and v.model[2] is True
        s = SatSolver()
        s.add_clause([1, 2], ("input", 0))
        assert s.solve([-1, -2]).status == "unsat-assumptions"
        v = s.solve([1])
        assert v.status == "sat" and v.model[1] is True

    def test_a_level_zero_refutation_holds_for_every_later_solve(self):
        clauses = [[1, 2], [1, -2], [-1, 2], [-1, -2]]
        s = SatSolver(log_proof=True)
        for i, cl in enumerate(clauses):
            s.add_clause(cl, ("input", i))
        for assumptions in ((), (), (1,), (-2, 1), ()):
            v = s.solve(assumptions)
            assert v.status == "unsat"
            assert check_proof(v.proof, clauses) is None

    def test_repeated_solves_against_truth_tables(self):
        rng = random.Random(41)
        for _ in range(150):
            clauses, nvars = random_cnf(rng, max_vars=6)
            s = SatSolver()
            for i, cl in enumerate(clauses):
                s.add_clause(cl, ("input", i))
            for _ in range(6):
                assumptions = [v if rng.random() < 0.5 else -v
                               for v in rng.sample(range(1, nvars + 1),
                                                   rng.randint(0, nvars))]
                v = s.solve(assumptions)
                expected = cnf_truth_table_sat(clauses + [[a] for a in assumptions], nvars)
                assert (v.status == "sat") == expected
                if v.status == "sat":
                    assert_model_satisfies(v.model, clauses + [[a] for a in assumptions])
                elif v.status == "unsat-assumptions":
                    assert set(v.conflict) <= {-a for a in assumptions}
                    assert not cnf_truth_table_sat(clauses + [[-l] for l in v.conflict], nvars)
                else:
                    assert not cnf_truth_table_sat(clauses, nvars)


class CheckedSolver(SatSolver):
    """Checks every branching choice against a scan of all variables and,
    after every backjump, the value array against the trail."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.picks = self.backjumps = self.rescales = 0

    def _pick_var(self):
        picked = super()._pick_var()
        best, best_act = None, -1.0
        for v in range(1, self.nvars + 1):
            if self._vals[v] is None and self._activity[v] > best_act:
                best, best_act = v, self._activity[v]
        assert picked == best
        self.picks += 1
        return picked

    def _decay_activity(self):
        before = self.var_inc
        super()._decay_activity()
        self.rescales += self.var_inc < before

    def _backjump(self, target_level):
        super()._backjump(target_level)
        self.backjumps += 1
        signed = set(self.trail)
        assert len({abs(l) for l in signed}) == len(self.trail)
        for v in range(1, self.nvars + 1):
            want = True if v in signed else False if -v in signed else None
            assert self._vals[v] is want
            assert self._vals[-v] is (None if want is None else not want)
        assert len(self._heap) <= HEAP_SLACK * self.nvars


class TestBranching:
    def _run(self, clauses, nvars=0, var_inc=1.0, **kwargs):
        s = CheckedSolver(**kwargs)
        s.ensure_vars(nvars)
        s.var_inc = var_inc
        for i, cl in enumerate(clauses):
            s.add_clause(cl, ("input", i))
        return s, s.solve()

    def test_heap_choice_equals_scan(self):
        rng = random.Random(13)
        picks = backjumps = rescales = 0
        for k in range(200):
            clauses, nvars = random_cnf(rng, max_vars=16, min_width=3, density=4 + k % 2)
            # seeded solvers start from random activities and phases; every
            # second run reaches the rescale threshold within three conflicts
            var_inc = 0.99e100 * ACTIVITY_DECAY ** (k % 3) if k % 2 == 0 else 1.0
            s, v = self._run(clauses, nvars, var_inc=var_inc, seed=k if k % 3 else None)
            assert (v.status == "sat") == cnf_truth_table_sat(clauses, nvars)
            picks, backjumps = picks + s.picks, backjumps + s.backjumps
            rescales += s.rescales
        assert picks > 1000 and backjumps > 80 and rescales >= 5

    def test_heap_choice_on_deep_refutations(self):
        clauses, _ = pigeonhole_cnf(random.Random(1), holes=5, noise_vars=10,
                                    noise_clauses=20)
        for seed in (None, 3):
            for log_proof in (False, True):
                # the second run rescales activities after 60 conflicts
                for var_inc in (1.0, 0.99e100 * ACTIVITY_DECAY ** 60):
                    s, v = self._run(clauses, var_inc=var_inc, log_proof=log_proof, seed=seed)
                    assert v.status == "unsat"
                    assert s.picks > 100 and s.backjumps > 100
                    assert s.rescales == (var_inc > 1.0)


class TestProofLoggingOnlyObserves:
    """A proof-logging solver searches exactly as a plain one: the same
    conflicts, verdict, model and learned clauses."""

    @staticmethod
    def _solve(clauses, log_proof):
        s = SatSolver(log_proof=log_proof)
        for i, cl in enumerate(clauses):
            s.add_clause(cl, ("input", i))
        v = s.solve()
        learned = [cl for cl, origin in zip(s.clauses, s.origins) if origin == ("learned",)]
        return s.conflicts, v.status, v.model, learned

    def _assert_same_search(self, clauses):
        plain = self._solve(clauses, log_proof=False)
        logged = self._solve(clauses, log_proof=True)
        assert plain == logged
        return plain

    def test_random_three_cnf(self):
        statuses = set()
        for seed in range(6):
            rng = random.Random(seed)
            # 90 variables near the satisfiability threshold: long searches,
            # some satisfiable and some not
            clauses = [[v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 91), 3)]
                       for _ in range(384)]
            conflicts, status, _, _ = self._assert_same_search(clauses)
            assert conflicts > 100
            statuses.add(status)
        assert statuses == {"sat", "unsat"}

    def test_pigeonhole_with_noise(self):
        clauses, _ = pigeonhole_cnf(random.Random(1), 6, 20, 40)
        conflicts, status, _, _ = self._assert_same_search(clauses)
        assert status == "unsat" and conflicts > 100


class GenericIntake(SatSolver):
    """A solver that takes every clause through the generic status-and-watch
    pass, as `add_clause` did before it had fast paths: sized clause by
    clause, and learned clauses added through `add_clause`.  Its additions
    to that pass are to note, for the next `solve`, a clause added above
    level 0 that is false there or has one literal, and to settle a clause
    the database holds by the solver's own rule."""

    def add_clause(self, lits, origin=("learned",)):
        norm = list(dict.fromkeys(lits))
        if 0 in norm:
            raise ValueError("literal 0 is not allowed")
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
        self.ensure_vars(max(map(abs, norm)))
        vals = self._vals
        if len(norm) == 1:
            if self.trail_lim:
                self._recheck.append(cid)
            val = vals[norm[0]]
            if val is None:
                self._enqueue(norm[0], cid)
                return cid, "unit"
            if val:
                return cid, "satisfied"
            self.pending_conflict = cid
            return cid, "conflict"
        level = self._level
        free1 = free2 = false1 = false2 = -1
        lvl1 = lvl2 = -1
        satisfied = False
        unassigned = 0
        unit = 0
        for i, l in enumerate(norm):
            val = vals[l]
            if val is False:
                lv = level[abs(l)]
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
        a, b = [i for i in (free1, free2, false1, false2) if i >= 0][:2]
        norm[0], norm[a] = norm[a], norm[0]
        if b == 0:
            b = a
        norm[1], norm[b] = norm[b], norm[1]
        self._watches[norm[0]].append(cid)
        self._watches[norm[1]].append(cid)
        if satisfied:
            return cid, "satisfied"
        if not unassigned:
            if self.trail_lim:
                self._recheck.append(cid)
            self.pending_conflict = cid
            return cid, "conflict"
        if unassigned == 1:
            self._enqueue(unit, cid)
            return cid, "unit"
        return cid, "ok"

    def add_inputs(self, clauses):
        for i, cl in enumerate(clauses):
            self.add_clause(cl, ("input", i))

    def _learn(self, learned, backjump, derivation):
        self._backjump(backjump)
        cid, _ = self.add_clause(learned, ("learned",))
        if self.proof and cid not in self._node_of:
            first, steps = derivation
            self._node_of[cid] = self.proof.chain(first, steps, learned) if steps else first


def intake_state(s):
    """Everything clause intake writes: the clauses in their watch order,
    origins, watch lists, assignment, trail and pending conflict."""
    lits = [l for v in range(1, s.nvars + 1) for l in (v, -v)]
    return (s.nvars, s.clauses, s.origins, s._by_key, [s._watches[l] for l in lits],
            [s._vals[l] for l in lits], s.trail, s.trail_lim, s.qhead,
            [(s._level[abs(l)], s._reason[abs(l)]) for l in s.trail],
            s.pending_conflict, s._recheck, s.refuted, s.conflicts, s._node_of,
            s.proof.nodes if s.proof else None, s.proof.final if s.proof else None)


def intake_clause(rng, nvars, earlier):
    """A random clause that may repeat a literal, be a tautology, be a
    unit or empty, or be an earlier clause in another order."""
    r = rng.random()
    if earlier and r < 0.05:
        cl = list(rng.choice(earlier))
        rng.shuffle(cl)
        return cl
    if r < 0.07:
        return [rng.choice((1, -1)) * rng.randint(1, nvars)]
    if r < 0.072:
        return []
    width = min(rng.choice((2, 3, 3, 3, 3, 3, 5)), nvars)
    cl = [rng.choice((1, -1)) * v for v in rng.sample(range(1, nvars + 1), width)]
    if r < 0.12:
        cl.append(-cl[0])
    elif r < 0.17:
        cl.insert(rng.randrange(len(cl)), rng.choice(cl))
    return cl


class RandomLemmas:
    """A theory hook that adds a few random clauses to `solver` at
    propagation fixpoints, as a theory adds its lemmas in the middle of a
    search."""

    def __init__(self, solver, rng, nvars, tally):
        self.solver, self.rng, self.nvars, self.tally = solver, rng, nvars, tally
        self.budget = 0  # clauses left to add in this solve

    def hook_fixpoint(self):
        if self.budget <= 0 or self.rng.random() < 0.5:
            return False
        self.budget -= 1
        solver = self.solver
        return add_and_tally(solver, intake_clause(self.rng, self.nvars, solver.clauses),
                             ("tlemma", self.budget), self.tally)[1] in ("unit", "conflict")

    def hook_final(self):
        return False

    def hook_backjump(self, trail_len):
        pass


def add_and_tally(solver, cl, origin, tally):
    """`solver.add_clause`, counting which path of intake the clause takes."""
    width = len(set(cl))
    if width > 1:
        tally["on a trail" if solver.trail else "empty trail"] += 1
    elif width == 1 and solver.trail_lim:
        tally["one literal above level 0"] += 1
    return solver.add_clause(cl, origin)


class TestIntake:
    """The fast paths of clause intake (a clause added on an empty trail, a
    load of input clauses, a learned clause) leave the solver exactly as
    the generic status-and-watch pass does, and clauses added on the trail
    a solve left are all kept by the next solve."""

    def test_fast_paths_match_the_generic_pass(self):
        tally = Counter()
        for seed in range(150):
            rng = random.Random(seed)
            nvars = rng.randint(8, 30)
            kwargs = dict(log_proof=seed % 2 == 0, conflict_budget=rng.choice((None, None, 0, 5)),
                          seed=seed if seed % 3 == 0 else None)
            fast, generic = SatSolver(**kwargs), GenericIntake(**kwargs)
            inputs = []
            for _ in range(rng.randint(3 * nvars, 5 * nvars)):
                inputs.append(intake_clause(rng, nvars, inputs))
            # a one-shot iterable of one-shot clauses
            fast.add_inputs(iter([iter(cl) for cl in inputs]))
            generic.add_inputs(inputs)
            assert intake_state(fast) == intake_state(generic)
            units = [k for k, cl in enumerate(inputs) if len(set(cl)) == 1]
            if units:
                tally["input after a unit"] += sum(len(set(cl)) > 1 for cl in inputs[units[0]:])
            # while the two states agree, both hooks draw the same clauses
            hook_seed = rng.random()
            fast.theory_hook = RandomLemmas(fast, random.Random(hook_seed), nvars, Counter())
            generic.theory_hook = RandomLemmas(generic, random.Random(hook_seed), nvars, tally)
            for _ in range(4):
                assumptions = [rng.choice((1, -1)) * v
                               for v in rng.sample(range(1, nvars + 1), rng.randint(0, 3))]
                fast.theory_hook.budget = generic.theory_hook.budget = rng.choice((0, 4))
                learned = generic.origins.count(("learned",))
                v1, v2 = fast.solve(assumptions), generic.solve(assumptions)
                assert (v1.status, v1.model, v1.conflict) == (v2.status, v2.model, v2.conflict)
                if v1.status == "sat":
                    assert_model_satisfies(v1.model, fast.clauses + [[a] for a in assumptions])
                assert intake_state(fast) == intake_state(generic)
                tally["learned"] += generic.origins.count(("learned",)) - learned
                # clauses added between solves, at level 0 or on the trail
                # the solve left
                if rng.random() < 0.5:
                    fast._backjump(0)
                    generic._backjump(0)
                for k in range(rng.randint(0, 6)):
                    cl = intake_clause(rng, nvars + 1, generic.clauses)
                    origin = rng.choice((("added",), ("tlemma", k)))
                    assert fast.add_clause(cl, origin) == add_and_tally(
                        generic, list(cl), origin, tally)
                    assert intake_state(fast) == intake_state(generic)
                nvars = fast.nvars
        least = {"empty trail": 100, "on a trail": 100, "learned": 100,
                 "one literal above level 0": 10, "input after a unit": 1000}
        assert all(tally[path] >= n for path, n in least.items()), tally

    def test_pigeonhole_search_is_unchanged(self):
        """Long searches with deep backjumps and many re-derived clauses."""
        clauses, _ = pigeonhole_cnf(random.Random(2), 5, 12, 30)
        for log_proof in (False, True):
            fast, generic = SatSolver(log_proof=log_proof), GenericIntake(log_proof=log_proof)
            fast.add_inputs(clauses)
            generic.add_inputs(clauses)
            assert fast.solve().status == generic.solve().status == "unsat"
            assert fast.conflicts > 100
            assert intake_state(fast) == intake_state(generic)

    def test_blocking_clauses_added_after_a_solve_count_every_model(self):
        """A clause added on the trail a solve left, false only under that
        solve's decisions, is no conflict for the next solve."""
        for seed in range(200):
            rng = random.Random(seed)
            nvars = rng.randint(1, 7)
            clauses = [intake_clause(rng, nvars, []) for _ in range(rng.randint(1, 3 * nvars))]
            s = SatSolver()
            s.ensure_vars(nvars)
            s.add_inputs(clauses)
            models = 0
            while (v := s.solve()).status == "sat":
                models += 1
                s.add_clause([-l if v.model[l] else l for l in range(1, nvars + 1)], ("added",))
            assert v.status == "unsat"
            assert models == len(cnf_models(clauses, nvars))

    def test_one_literal_clause_added_after_a_solve_holds(self):
        s = SatSolver()
        s.add_clause([1, -1], ("input", 0))
        assert s.solve().model == {1: False}
        s.add_clause([1], ("added",))  # false under the last solve's decision
        assert s.solve().model == {1: True}
        s.add_clause([-1, 2], ("added",))
        assert s.solve().model == {1: True, 2: True}  # unit on that trail
        s.add_clause([-2], ("added",))
        assert s.solve().status == "unsat"

    def test_clauses_added_after_a_solve_are_all_kept(self):
        """Clauses of every width, added on the trail each solve leaves: every
        verdict and model agrees with the clauses added so far."""
        for seed in range(300):
            rng = random.Random(seed)
            nvars = rng.randint(1, 6)
            s = SatSolver(log_proof=seed % 2 == 0)
            clauses = []
            for _ in range(8):
                for _ in range(rng.randint(0, 3)):
                    cl = intake_clause(rng, nvars, clauses)
                    s.add_clause(cl, ("added",))
                    clauses.append(cl)
                v = s.solve()
                models = cnf_models(clauses, nvars)
                assert v.status == ("sat" if len(models) else "unsat")
                if v.status == "sat":
                    assert all(any(v.model[abs(l)] == (l > 0) for l in cl) for cl in clauses)
                    continue
                if s.proof is not None:
                    assert check_proof(s.proof, s.clauses) is None
                break

    def test_literal_zero_is_refused(self):
        """A clause, a load of input clauses or assumptions with literal 0
        is a ValueError, raised before the solver's state is touched."""
        for call in (lambda s: s.add_clause([1, 0]), lambda s: s.add_inputs([[1, 2], [0]]),
                     lambda s: s.solve([1, 0])):
            s = SatSolver()
            s.add_inputs([[1, 2], [-1, 3]])
            assert s.solve([2]).status == "sat"
            state = intake_state(s)
            with pytest.raises(ValueError, match="literal 0 is not allowed"):
                call(s)
            assert intake_state(s) == state


def test_a_held_clause_is_settled_as_a_new_one():
    """`add_clause` of a clause the database holds keeps its id and acts on
    it as on a new clause."""
    s = SatSolver()
    cid, status = s.add_clause([1, 2, 3], ("tlemma", 0))
    assert status == "ok" and s.add_clause([3, 1, 2]) == (cid, "ok")
    s.trail_lim.append(len(s.trail))
    s._enqueue(-1, None)
    assert s.add_clause([2, 3, 1], ("added",)) == (cid, "ok")
    s._enqueue(-2, None)
    assert s.add_clause([1, 2, 3], ("tlemma", 1)) == (cid, "unit")
    assert s._vals[3] is True and s._reason[3] == cid
    assert s.add_clause([1, 2, 3]) == (cid, "satisfied")
    s._backjump(0)
    s.trail_lim.append(0)
    for lit in (-1, -2, -3):
        s._enqueue(lit, None)
    assert s.add_clause([1, 2, 3]) == (cid, "conflict") and s.pending_conflict == cid
    assert s._recheck == [cid]
    assert len(s.clauses) == 1


class UnitAfterConflict:
    """A hook that adds (-1 or -3) to `solver` once, when 3 is true."""

    def __init__(self, solver):
        self.solver = solver
        self.added = False

    def hook_fixpoint(self):
        if self.added or self.solver._vals[3] is not True:
            return False
        self.added = True
        return self.solver.add_clause([-1, -3], ("tlemma", 0))[1] in ("unit", "conflict")

    def hook_final(self):
        return False

    def hook_backjump(self, trail_len):
        pass


def test_a_clause_a_budget_exit_left_unit_at_level_0_is_propagated():
    """The hook's clause is false when added, above level 0, and the budget
    ends the solve at that conflict.  The next solve settles the clause at
    level 0, where it is unit, and so never meets that conflict again."""
    s = SatSolver(conflict_budget=0)
    s.add_inputs([[1], [2, 3]])
    s.theory_hook = UnitAfterConflict(s)
    assert s.solve().status == "unknown"
    verdict = s.solve()
    assert (verdict.status, s.conflicts) == ("sat", 1)
    assert verdict.model == {1: True, 2: True, 3: False}


class OnceAboveLevelZero:
    """A hook that adds to `solver`, once, at the first fixpoint above level
    0, the clause `lemma(solver)` gives.  It records the argument of every
    `hook_backjump` call."""

    def __init__(self, solver, lemma):
        self.solver, self.lemma = solver, lemma
        self.added = False
        self.backjumps = []

    def hook_fixpoint(self):
        s = self.solver
        if self.added or not s.trail_lim:
            return False
        self.added = True
        return s.add_clause(self.lemma(s), ("tlemma", 0))[1] in ("unit", "conflict")

    def hook_final(self):
        return False

    def hook_backjump(self, trail_len):
        self.backjumps.append(trail_len)


@pytest.mark.parametrize("log_proof", [False, True])
def test_an_empty_clause_added_mid_search_refutes_that_search(log_proof):
    s = SatSolver(log_proof=log_proof)
    s.add_inputs([[1, 2], [-1, 3], [2, 3]])
    s.theory_hook = OnceAboveLevelZero(s, lambda s: [])
    v = s.solve()
    assert v.status == "unsat" and s.trail_lim
    if log_proof:
        assert check_proof(v.proof, s.clauses) is None
        assert proof_leaves(v.proof) == [("leaf", 3, frozenset())]
    assert s.solve().status == "unsat"


def negated_level_zero_literals(rng, s):
    """The clause that negates one to three literals of the level-0 trail,
    which a unit input clause keeps from being empty."""
    level0 = s.trail[:s.trail_lim[0]]
    return [-l for l in rng.sample(level0, min(len(level0), rng.randint(1, 3)))]


def level_zero_runs():
    """300 solves of seeded 3-CNFs, each with one to three unit clauses,
    with proof logging on even seeds and no budget.  A hook adds the clause
    that negates one to three literals of the level-0 trail: a conflict at
    level 0, met with decisions on the trail.  Yields (solver, verdict,
    hook) for each."""
    for seed in range(300):
        rng = random.Random(seed)
        nvars = rng.randint(6, 24)
        clauses = [[v if rng.random() < 0.5 else -v for v in rng.sample(range(1, nvars + 1), 3)]
                   for _ in range(rng.randint(2 * nvars, 4 * nvars))]
        for _ in range(rng.randint(1, 3)):
            clauses.insert(rng.randrange(len(clauses) + 1),
                           [rng.choice((1, -1)) * rng.randint(1, nvars)])
        s = SatSolver(log_proof=seed % 2 == 0)
        s.add_inputs(clauses)
        s.theory_hook = hook = OnceAboveLevelZero(s, partial(negated_level_zero_literals, rng))
        yield s, s.solve(), hook


def level_zero_record(s, v, hook) -> bytes:
    """The SHA-256 of one run: verdict, conflict count, trail, trail
    limits, the hook's backjump calls, proof nodes and final node."""
    run = (v.status, sorted(v.model.items()) if v.model else None, s.conflicts,
           s.trail, s.trail_lim, hook.backjumps,
           s.proof.nodes if s.proof else None, s.proof.final if s.proof else None)
    return hashlib.sha256(repr(run).encode()).digest()


def level_zero_digest() -> str:
    h = hashlib.sha256()
    for run in level_zero_runs():
        h.update(level_zero_record(*run))
    return h.hexdigest()


LEVEL_ZERO_DIGEST = "319a4fddafef8531356d7d943f935dee2ef74307b165b8392d928e7e9554919a"


def test_level_0_refutations_are_pinned():
    """A conflict whose every literal is at level 0 refutes the clauses
    where it is met: analysis resolves it down to the empty clause without
    a backjump, so the decisions stay on the trail and no theory is
    backtracked.  Each run is pinned by `level_zero_record`, and the
    corpus by a digest computed on the kernel that derived the empty
    clause in a walk of its own; recompute it with

        PYTHONPATH=src:tests python -c "import test_sat as t; print(t.level_zero_digest())"

    Every logged refutation must also pass `check_proof`, and most runs
    must refute above level 0 (245 of the 300 do)."""
    h = hashlib.sha256()
    above = 0
    for s, v, hook in level_zero_runs():
        h.update(level_zero_record(s, v, hook))
        if v.status == "unsat" and s.trail_lim:
            above += 1
        if v.status == "unsat" and s.proof:
            assert check_proof(s.proof, s.clauses) is None
    assert above >= 200
    assert h.hexdigest() == LEVEL_ZERO_DIGEST


# ---------------------------------------------------------------------------
# The two-watched-literal invariant, and the search pinned bit for bit
# ---------------------------------------------------------------------------

def pigeonhole_corpus():
    """PHP 4/3 to 6/5, each among satisfiable noise."""
    return [pigeonhole_cnf(random.Random(holes), holes, noise, 2 * noise)[0]
            for holes in (3, 4, 5) for noise in (10, 20)]


def threshold_corpus():
    """Random 3-CNF of 70 variables at clause density 4.26, where searches
    are long and both verdicts occur."""
    corpus = []
    for seed in range(8):
        rng = random.Random(seed)
        corpus.append([[v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 71), 3)]
                       for _ in range(298)])
    return corpus


class WatchChecked(SatSolver):
    """After every `_propagate`, checks that each clause of two or more
    literals is in the watch lists of its first two literals, once each,
    and in no other list; with `fixpoint_check`, also that at a fixpoint
    without a conflict no clause is false, or unit with its literal
    unassigned."""

    fixpoint_check = True

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.tally = Counter()

    def add_clause(self, lits, origin=("learned",)):
        if self.trail_lim:
            self.tally["added above level 0"] += 1
        return super().add_clause(lits, origin)

    def _propagate(self):
        pending = self.pending_conflict is not None
        confl = super()._propagate()
        self._check_watches()
        if confl is None:
            self.tally["fixpoints"] += 1
            if self.fixpoint_check:
                self._check_fixpoint()
        elif not pending:
            # the conflict clause stays where it was found, ahead of the
            # entries of its watch list that were not visited
            ws = self._watches[-self.trail[self.qhead - 1]]
            if ws.index(confl) < len(ws) - 1:
                self.tally["conflicts inside a watch list"] += 1
        return confl

    def _check_watches(self):
        found = Counter()
        for v in range(1, self.nvars + 1):
            for lit in (v, -v):
                for cid in self._watches[lit]:
                    found[cid, lit] += 1
        want = Counter()
        for cid, cl in enumerate(self.clauses):
            if len(cl) >= 2:
                want[cid, cl[0]] += 1
                want[cid, cl[1]] += 1
        assert found == want

    def _check_fixpoint(self):
        vals = self._vals
        for cl in self.clauses:
            free = [l for l in cl if vals[l] is not False]
            assert free, f"false clause {cl} at a fixpoint"
            assert len(free) > 1 or vals[free[0]], f"unit clause {cl} at a fixpoint"


class WatchesOnly(WatchChecked):
    fixpoint_check = False


class TestWatchInvariant:
    def _solve(self, clauses, log_proof):
        s = WatchChecked(log_proof=log_proof)
        s.add_inputs(clauses)
        return s, s.solve()

    def test_pigeonhole_with_noise(self):
        tally = Counter()
        for clauses in pigeonhole_corpus():
            for log_proof in (False, True):
                s, v = self._solve(clauses, log_proof)
                assert v.status == "unsat"
                tally += s.tally
        assert tally["conflicts inside a watch list"] >= 100, tally

    def test_threshold_three_cnf(self):
        tally, statuses = Counter(), set()
        for clauses in threshold_corpus():
            for log_proof in (False, True):
                s, v = self._solve(clauses, log_proof)
                statuses.add(v.status)
                tally += s.tally
        assert statuses == {"sat", "unsat"}
        assert tally["conflicts inside a watch list"] >= 100, tally

    def test_lemmas_added_mid_search(self, monkeypatch):
        """A theory lemma that a backjump leaves unit stays unpropagated
        until it is added again, so only the watches are checked here."""
        monkeypatch.setattr(smt, "SatSolver", WatchesOnly)
        engine = smt.SmtSolver(random_difference_formula(random.Random(0), 12, 60, 2))
        engine.solve()
        assert engine.sat.tally["added above level 0"] >= 20, engine.sat.tally
        assert engine.sat.tally["fixpoints"] >= 20, engine.sat.tally


class TracedSolver(SatSolver):
    """Records every learned clause as conflict analysis gives it."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.learned = []

    def _learn(self, learned, backjump, derivation):
        self.learned.append(f"{backjump}: {' '.join(map(str, learned))}")
        super()._learn(learned, backjump, derivation)


def search_trace(clauses, log_proof, seed=None) -> str:
    """One solve as text: verdict and conflict count, every learned clause
    in order with its backjump level, the model, every clause in its final
    literal order (which the watch moves decide) and every proof node."""
    s = TracedSolver(log_proof=log_proof, seed=seed)
    s.add_inputs(clauses)
    v = s.solve()
    lines = [f"{v.status} {s.conflicts}", *s.learned]
    lines.append(repr(sorted(v.model.items())) if v.model else "no model")
    lines += [" ".join(map(str, cl)) for cl in s.clauses]
    if s.proof:
        lines += [f"{n[:-1]} {sorted(n[-1])}" for n in s.proof.nodes]
        lines.append(f"final {s.proof.final}")
    return "\n".join(lines) + "\n"


def search_digest() -> str:
    h = hashlib.sha256()
    for clauses in pigeonhole_corpus() + threshold_corpus():
        for log_proof in (False, True):
            for seed in (None, 1):
                h.update(hashlib.sha256(search_trace(clauses, log_proof, seed).encode()).digest())
    return h.hexdigest()


SEARCH_DIGEST = "79921a29db0771ad746b8d6400b8193566485aa581b788536afac048ec3480ed"


def test_search_trace_is_pinned():
    """The CDCL search is pinned: on the pigeonhole and threshold corpora,
    with and without proof logging and a branching seed, every solve must
    learn the same clauses in the same order, count the same conflicts,
    give the same verdict and model, leave every clause in the same literal
    order and log the same proof nodes.  A change that means to alter the
    search recomputes the digest on the commit before it, with

        PYTHONPATH=src:tests python -c "import test_sat as t; print(t.search_digest())"

    and says why the search moved; to find the first run that differs,
    compare `search_trace` across the two versions."""
    assert search_digest() == SEARCH_DIGEST
