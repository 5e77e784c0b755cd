"""Core verification from a resolution refutation (`check_refutation`).

An unminimized `lift-proof` or `smt-proof` core is verified from the
refutation its route logged, with no new search; every other core by
`check_core`'s fresh solve.  The rejection tests corrupt one part of a
refutation, its core or the run that produced it, and each must fail
verification with a clean description (`ExtractionError` through
`extract_core`).  The agreement tests run both checks on the cores of all
three proof routes, on the property suites' generators and on instances
several times their size."""
import random
import weakref

import pytest

from gen import (
    diamond_chain_formula, labeled_corpus, pigeonhole_cnf, random_difference_formula,
    random_uf_formula,
)
from oracles import brute_force_smt_sat
from smtcore import cores, smt
from smtcore.cores import (
    METHODS, ExtractionError, ExtractorConfig, check_core, check_refutation, extract_core,
)
from smtcore.cnf import cnf_convert
from smtcore.parser import parse
from smtcore.sat import ProofLog, sat_solve
from smtcore.smt import SmtVerdict, TLemma
from smtcore.terms import AtomTable, Literal, PropAtom, formula_from_clauses

PROOF_ROUTES = [("lift-proof", False), ("lift-proof", True), ("smt-proof", False)]


def core_and_proof(formula, method="lift-proof", fixpoint=False):
    """The raw core of a proof route and the refutation it logged."""
    route, kind = METHODS[method]
    config = ExtractorConfig(kind, fixpoint=fixpoint) if kind else None
    core, proof = route(formula, config, None)
    assert isinstance(proof, ProofLog)
    return sorted(core), proof


def formula_of(text):
    return cnf_convert(parse(text))


def prop_formula(clauses):
    """A propositional formula over atoms p1, p2, ... from int clauses."""
    table = AtomTable()
    nvars = max(abs(lit) for cl in clauses for lit in cl)
    ids = [None] + [table.intern(PropAtom(f"p{v}")) for v in range(1, nvars + 1)]
    return formula_from_clauses([tuple(Literal(ids[abs(l)], l > 0) for l in cl)
                                 for cl in clauses], table)


def php_formula(holes, seed=0):
    """Pigeonhole plus satisfiable noise."""
    clauses, _ = pigeonhole_cnf(random.Random(seed), holes=holes, noise_vars=10,
                                noise_clauses=20)
    return prop_formula(clauses)


# Unit inputs whose literals the clause `refuting(formula)` negates.  Over
# the _SAT inputs that clause is a theory lemma with one literal flipped,
# and not theory-valid; over the _UNSAT inputs, which differ in the sign of
# the last unit, it is the lemma as it should be.
LRA_SAT = """(set-logic QF_LRA) (declare-fun x () Real)
(assert (<= x 0)) (assert (<= x 1))"""
LRA_UNSAT = LRA_SAT.replace("(assert (<= x 1))", "(assert (not (<= x 1)))")
EUF_SAT = """(set-logic QF_UF) (declare-sort U 0)
(declare-fun x () U) (declare-fun y () U) (declare-fun z () U)
(assert (= x y)) (assert (= y z)) (assert (= x z))"""
EUF_UNSAT = EUF_SAT.replace("(assert (= x z))", "(assert (not (= x z)))")


def refuting(formula):
    return tuple(-formula.atoms.t2p(c)[0] for c in formula.clauses)


class TestRejections:
    def test_core_missing_a_cone_input(self, nine_clauses):
        core, proof = core_and_proof(nine_clauses)
        for dropped in core:
            problem = check_refutation(nine_clauses, [i for i in core if i != dropped], proof)
            assert problem is not None and "neither a core clause nor theory-valid" in problem

    def test_core_missing_a_cone_input_through_extract_core(self, nine_clauses, monkeypatch):
        route, kind = METHODS["lift-proof"]

        def dropping_route(formula, config, budget):
            core, proof = route(formula, config, budget)
            return core[1:], proof

        monkeypatch.setitem(cores.METHODS, "lift-proof", (dropping_route, kind))
        with pytest.raises(ExtractionError, match="core failed verification: refutation leaf"):
            extract_core(nine_clauses, "lift-proof", verify=True)
        assert extract_core(nine_clauses, "lift-proof").verification == "unchecked"

    @pytest.mark.parametrize("method, fixpoint", PROOF_ROUTES)
    def test_wrong_pivot(self, nine_clauses, method, fixpoint):
        core, proof = core_and_proof(nine_clauses, method, fixpoint)
        i = proof.final
        _, pivot, left, right, lits = proof.nodes[i]
        other = len(nine_clauses.atoms) + 1
        proof.nodes[i] = ("res", other, left, right, lits)
        assert check_refutation(nine_clauses, core, proof) == (
            f"refutation: node {i}: pivot {other} not opposite in the children")

    @pytest.mark.parametrize("method, fixpoint", PROOF_ROUTES)
    def test_wrong_resolvent(self, nine_clauses, method, fixpoint):
        core, proof = core_and_proof(nine_clauses, method, fixpoint)
        i = proof.final
        _, pivot, left, right, lits = proof.nodes[i]
        proof.nodes[i] = ("res", pivot, left, right, lits | {pivot})
        assert check_refutation(nine_clauses, core, proof) == (
            f"refutation: node {i}: stored resolvent differs from the resolution result")

    def test_final_node_not_empty(self, nine_clauses):
        core, proof = core_and_proof(nine_clauses)
        proof.final = next(i for i, node in enumerate(proof.nodes) if node[0] == "leaf")
        assert check_refutation(nine_clauses, core, proof) == \
            "refutation: final node is not the empty clause"
        proof.final = None
        assert check_refutation(nine_clauses, core, proof) == "refutation: no final node"

    def test_out_of_range_index(self, nine_clauses):
        core, proof = core_and_proof(nine_clauses)
        assert "out of range" in check_refutation(nine_clauses, core + [99], proof)

    @pytest.mark.parametrize("sat, unsat", [(LRA_SAT, LRA_UNSAT), (EUF_SAT, EUF_UNSAT)],
                             ids=["LRA", "EUF"])
    def test_flipped_lemma_leaf(self, sat, unsat):
        for text, valid in ((unsat, True), (sat, False)):
            formula = formula_of(text)
            rows = [formula.atoms.t2p(c) for c in formula.clauses] + [list(refuting(formula))]
            proof = sat_solve(rows, log_proof=True).proof
            problem = check_refutation(formula, range(len(formula.clauses)), proof)
            if valid:
                assert problem is None
            else:
                assert problem == (f"refutation leaf {sorted(rows[-1], key=abs)} is neither "
                                   f"a core clause nor theory-valid")

    @pytest.mark.parametrize("text", [LRA_SAT, EUF_SAT], ids=["LRA", "EUF"])
    def test_flipped_lemma_from_the_run_through_extract_core(self, text, monkeypatch):
        """A run that stores a flipped lemma and answers unsat yields a
        wrong core, which only the check of its refutation catches."""
        formula = formula_of(text)
        lemma = TLemma(refuting(formula), "theory-conflict")
        monkeypatch.setattr(cores, "smt_solve",
                            lambda f, conflict_budget: (SmtVerdict("unsat"), [lemma]))
        everything = tuple(range(len(formula.clauses)))
        assert extract_core(formula, "lift-proof").core == everything
        with pytest.raises(ExtractionError, match="is neither a core clause nor theory-valid"):
            extract_core(formula, "lift-proof", verify=True)

    def test_propositional_cone_uses_a_non_core_input(self, monkeypatch):
        formula = prop_formula([[1], [-1, 2], [-2], [3, 1]])
        core, proof = core_and_proof(formula)
        assert core == [0, 1, 2]
        assert check_refutation(formula, core, proof) is None
        problem = check_refutation(formula, [0, 2], proof)
        assert problem is not None and "neither a core clause nor theory-valid" in problem
        route, kind = METHODS["smt-proof"]

        def dropping_route(formula, config, budget):
            core, proof = route(formula, config, budget)
            return sorted(core)[:-1], proof

        monkeypatch.setitem(cores.METHODS, "smt-proof", (dropping_route, kind))
        with pytest.raises(ExtractionError, match="core failed verification"):
            extract_core(formula, "smt-proof", verify=True)

    def test_tautological_leaf_is_valid(self):
        """A tautology is valid in every theory; asserting both of its
        negated literals would leave the solver unable to backtrack."""
        formula = formula_of("(set-logic QF_LRA) (declare-fun x () Real) "
                             "(assert (<= x 0)) (assert (not (<= x 0)))")
        a = formula.atoms.t2p(formula.clauses[0])[0]
        proof = ProofLog()
        tautology, neg, pos = proof.leaf(7, [a, -a]), proof.leaf(1, [-a]), proof.leaf(0, [a])
        proof.final = proof.resolve(a, proof.resolve(a, tautology, neg), pos)
        assert check_refutation(formula, [0, 1], proof) is None
        assert check_refutation(formula, [0], proof) is not None

    def test_unknown_atom_in_a_leaf(self, nine_clauses):
        unknown = len(nine_clauses.atoms) + 1
        proof = sat_solve([[unknown], [-unknown]], log_proof=True).proof
        assert "names an unknown atom" in check_refutation(nine_clauses, [0], proof)


def _unsat_corpus():
    """(id, formula) for the agreement tests: the property suites'
    generators, then instances several times their size."""
    for theory in ("LRA", "EUF"):
        unsat, _ = labeled_corpus(theory, want_unsat=12, want_sat=0,
                                  oracle=brute_force_smt_sat, seed=303)
        for k, formula in enumerate(unsat):
            yield f"random-{theory}-{k}", formula
    for seed in range(8):
        yield f"difference-6-24-{seed}", random_difference_formula(
            random.Random(seed), 6, 24, 2)
        yield f"uf-{seed}", random_uf_formula(random.Random(seed), 8 + seed,
                                              5 * (8 + seed), 2)
    yield "php-4", php_formula(4)
    for width in (2, 3):
        for seed in range(8):
            yield f"difference-12-60-w{width}-{seed}", random_difference_formula(
                random.Random(seed), 12, 60, width)
    for n in (6, 7, 8):
        yield f"diamond-{n}", diamond_chain_formula(random.Random(n), n, 3 * n)


class TestAgreement:
    def test_both_checks_pass_on_every_proof_route(self, monkeypatch):
        seen = []

        def spy(formula, core, proof):
            problem = check_refutation(formula, core, proof)
            seen.append(problem)
            return problem

        monkeypatch.setattr(cores, "check_refutation", spy)
        unsat = 0
        for name, formula in _unsat_corpus():
            if smt.smt_solve(formula)[0].status != "unsat":
                continue
            unsat += 1
            for method, fixpoint in PROOF_ROUTES:
                seen.clear()
                report = extract_core(formula, method, fixpoint=fixpoint, verify=True)
                assert seen == [None], (name, method, fixpoint)
                assert report.verification == "verified"
                assert check_core(formula, report.core) is None, (name, method, fixpoint)
        assert unsat >= 40

    def test_lift_proof_builds_one_engine(self, nine_clauses, monkeypatch):
        engines = []
        init = smt.SmtSolver.__init__

        def counted(self, *args, **kwargs):
            engines.append(None)
            init(self, *args, **kwargs)

        monkeypatch.setattr(smt.SmtSolver, "__init__", counted)
        extract_core(nine_clauses, "lift-proof", verify=True)
        assert len(engines) == 1
        engines.clear()
        checked = []
        monkeypatch.setattr(cores, "check_core",
                            lambda f, core: checked.append(core) or check_core(f, core))
        report = extract_core(nine_clauses, "lift-proof", minimize=True, verify=True)
        # the lift, the minimization's selector engine and check_core's engine
        assert len(engines) == 3
        assert checked == [report.core]

    def test_minimized_and_selector_cores_use_check_core(self, nine_clauses, monkeypatch):
        called = []
        monkeypatch.setattr(cores, "check_refutation",
                            lambda *args: called.append(args) or None)
        for method in ("lift-selectors", "smt-selectors"):
            extract_core(nine_clauses, method, verify=True)
        for method, fixpoint in PROOF_ROUTES:
            extract_core(nine_clauses, method, fixpoint=fixpoint, minimize=True, verify=True)
        assert called == []

    def test_refutation_is_dropped_before_minimization(self, nine_clauses, monkeypatch):
        proofs = []
        boolean_core = cores.boolean_core

        def recording(clauses, config):
            result = boolean_core(clauses, config)
            proofs.append(weakref.ref(result.proof))
            return result

        alive = []
        minimize_core = cores.minimize_core
        monkeypatch.setattr(cores, "boolean_core", recording)
        monkeypatch.setattr(cores, "minimize_core", lambda f, core, budget: alive.append(
            proofs[-1]() is not None) or minimize_core(f, core, budget))
        extract_core(nine_clauses, "lift-proof", minimize=True, verify=True)
        assert alive == [False]
        report = extract_core(nine_clauses, "lift-proof", verify=True)
        assert report.verification == "verified"
        assert proofs[-1]() is None

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_verify_never_changes_the_core(self, method):
        formulas = [formula for _, formula in _unsat_corpus()][::9]
        if method == "lift-external":
            formulas = formulas[:3]
        for formula in formulas:
            assert extract_core(formula, method, verify=True).core == \
                extract_core(formula, method).core
