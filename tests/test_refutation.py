"""Core verification from a resolution refutation (`check_refutation`).

Every core `extract_core` verifies is checked by `check_refutation`, with
no theory search: a `lift-proof` or `smt-proof` core that minimization did
not shrink against the refutation its route logged, every other core
against the one `smt.lifted_refutation` builds from the core and the
lemmas of the last engine that refuted it.  The checker is the module
`smtcore.check`, whose imports from the package are fenced to the trusted
base.  The rejection tests corrupt one part of a refutation, its core or
the run that produced it, and each must fail verification with a clean
description (`ExtractionError` through `extract_core`).  The agreement
tests run `check_refutation` and `check_core`'s fresh solve on the cores
of every route, with and without minimization, on the property suites'
generators and on instances several times their size."""
import ast
import random
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from gen import (
    diamond_chain_formula, labeled_corpus, lin_comb, pigeonhole_cnf, prop_formula,
    random_difference_formula, random_uf_formula,
)
from oracles import brute_force_smt_sat, clause_valid
from smtcore import check, cores, smt
from smtcore.check import check_proof, check_refutation, proof_leaves, validity_check
from smtcore.cnf import cnf_convert
from smtcore.cores import METHODS, ExtractionError, ExtractorConfig, check_core, extract_core
from smtcore.parser import parse
from smtcore.sat import ProofLog, SatVerdict, sat_solve
from smtcore.smt import TLemma
from smtcore.terms import (
    REAL, AtomTable, FunApp, FunSymbol, PropAtom, Var, canonical_lin_atom, euf_atom,
)
from smtcore.theory import EufSolver, TheorySolver

PROOF_ROUTES = [("lift-proof", False), ("lift-proof", True), ("smt-proof", False)]
INTERNAL_ROUTES = PROOF_ROUTES + [("lift-selectors", False), ("smt-selectors", False)]
EVERY_ROUTE = INTERNAL_ROUTES + [("lift-external", False)]


def core_and_proof(formula, method="lift-proof", fixpoint=False):
    """The raw core of a proof route and the refutation it logged."""
    route, kind = METHODS[method]
    config = ExtractorConfig(kind, fixpoint=fixpoint) if kind else None
    core, proof, _leaves, _store = route(formula, config, None)
    assert isinstance(proof, ProofLog)
    return sorted(core), proof


def formula_of(text):
    return cnf_convert(parse(text))


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
    return tuple(-c[0] for c in formula.clauses)


class TestRejections:
    def test_core_missing_a_cone_input(self, nine_clauses):
        core, proof = core_and_proof(nine_clauses)
        for dropped in core:
            problem = check_refutation(nine_clauses, [i for i in core if i != dropped], proof)
            assert problem is not None and "neither a core clause nor theory-valid" in problem

    def test_core_missing_a_cone_input_through_extract_core(self, nine_clauses, monkeypatch):
        route, kind = METHODS["lift-proof"]

        def dropping_route(formula, config, budget):
            core, proof, leaves, store = route(formula, config, budget)
            return core[1:], proof, leaves, store

        monkeypatch.setitem(cores.METHODS, "lift-proof", (dropping_route, kind))
        with pytest.raises(ExtractionError, match="core failed verification: refutation leaf"):
            extract_core(nine_clauses, "lift-proof", verify=True)
        assert extract_core(nine_clauses, "lift-proof").verdict == "unsat"

    @pytest.mark.parametrize("minimize", [False, True])
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_a_dropped_core_clause_fails_on_every_route(self, nine_clauses, abstraction_gap,
                                                        monkeypatch, method, minimize):
        """A route that loses a core clause fails verification, whether its
        refutation or the lemmas of its engine are checked.  So does one
        that also forges the clause into its store as a lemma: the forged
        leaf is then what fails.  On `abstraction_gap` the forged lemma lets
        minimization shrink the core, so the lemmas of its engine are
        checked."""
        route, kind = METHODS[method]
        forged = "refutation leaf .* is neither a core clause nor theory-valid"
        lost = forged + "|the core plus its lemmas is propositionally satisfiable"
        for formula in (nine_clauses, abstraction_gap):
            for forge, message in ((False, lost), (True, forged)):
                def dropping_route(formula, config, budget, forge=forge):
                    core, proof, leaves, store = route(formula, config, budget)
                    dropped, *kept = sorted(core)
                    lemma = TLemma(formula.clauses[dropped], "theory-conflict")
                    return kept, proof, leaves, store + [lemma] * forge

                monkeypatch.setitem(cores.METHODS, method, (dropping_route, kind))
                with pytest.raises(ExtractionError,
                                   match=f"^{method}: core failed verification: ({message})"):
                    extract_core(formula, method, minimize=minimize, verify=True)

    @pytest.mark.parametrize("method, fixpoint", PROOF_ROUTES)
    def test_wrong_pivot(self, nine_clauses, method, fixpoint):
        core, proof = core_and_proof(nine_clauses, method, fixpoint)
        i = proof.final
        _, first, steps, lits = proof.nodes[i]
        other = len(nine_clauses.atoms) + 1
        k = len(steps) - 1
        proof.nodes[i] = ("chain", first, steps[:k] + ((other, steps[k][1]),), lits)
        assert check_refutation(nine_clauses, core, proof) == (
            f"refutation: node {i}: step {k}: pivot {other} not opposite in the clauses")

    @pytest.mark.parametrize("method, fixpoint", PROOF_ROUTES)
    def test_wrong_resolvent(self, nine_clauses, method, fixpoint):
        core, proof = core_and_proof(nine_clauses, method, fixpoint)
        i = proof.final
        _, first, steps, lits = proof.nodes[i]
        proof.nodes[i] = ("chain", first, steps, lits | {steps[-1][0]})
        assert check_refutation(nine_clauses, core, proof) == (
            f"refutation: node {i}: stored clause differs from the replayed chain")

    @pytest.mark.parametrize("method, fixpoint", PROOF_ROUTES)
    def test_wrong_pivot_at_a_middle_step(self, nine_clauses, method, fixpoint):
        core, proof = core_and_proof(nine_clauses, method, fixpoint)
        i = proof.final
        _, first, steps, lits = proof.nodes[i]
        assert len(steps) >= 3
        k = len(steps) // 2
        pivot, ante = steps[k]
        for wrong in (len(nine_clauses.atoms) + 1, steps[k + 1][0]):
            proof.nodes[i] = ("chain", first, steps[:k] + ((wrong, ante),) + steps[k + 1:], lits)
            problem = check_refutation(nine_clauses, core, proof)
            assert problem is not None and problem.startswith(f"refutation: node {i}: step"), \
                wrong
        # the pivot's sign does not matter: only its variable is read
        proof.nodes[i] = ("chain", first, steps[:k] + ((-pivot, ante),) + steps[k + 1:], lits)
        assert check_refutation(nine_clauses, core, proof) is None

    @pytest.mark.parametrize("method, fixpoint", PROOF_ROUTES)
    def test_dropped_step(self, nine_clauses, method, fixpoint):
        core, proof = core_and_proof(nine_clauses, method, fixpoint)
        i = proof.final
        _, first, steps, lits = proof.nodes[i]
        for k in range(len(steps)):
            proof.nodes[i] = ("chain", first, steps[:k] + steps[k + 1:], lits)
            problem = check_refutation(nine_clauses, core, proof)
            assert problem is not None and problem.startswith(f"refutation: node {i}: "), k
        proof.nodes[i] = ("chain", first, steps[:-1], lits)
        assert check_refutation(nine_clauses, core, proof) == (
            f"refutation: node {i}: stored clause differs from the replayed chain")

    @pytest.mark.parametrize("method, fixpoint", PROOF_ROUTES)
    def test_step_names_a_later_node(self, nine_clauses, method, fixpoint):
        core, proof = core_and_proof(nine_clauses, method, fixpoint)
        j = next(j for j, node in enumerate(proof.nodes)
                 if node[0] == "chain" and j != proof.final)
        _, first, steps, lits = proof.nodes[j]
        for later in (j, j + 1, proof.final, len(proof.nodes)):
            proof.nodes[j] = ("chain", first, ((steps[0][0], later),) + steps[1:], lits)
            assert check_refutation(nine_clauses, core, proof) == (
                f"refutation: node {j}: step 0 names a node that is not earlier")
            proof.nodes[j] = ("chain", later, steps, lits)
            assert check_refutation(nine_clauses, core, proof) == (
                f"refutation: node {j}: chain starts at a node that is not earlier")

    @pytest.mark.parametrize("method, fixpoint", PROOF_ROUTES)
    def test_stored_clause_one_literal_off(self, nine_clauses, method, fixpoint):
        core, proof = core_and_proof(nine_clauses, method, fixpoint)
        j = next(j for j, node in enumerate(proof.nodes)
                 if node[0] == "chain" and j != proof.final)
        _, first, steps, lits = proof.nodes[j]
        assert len(lits) >= 2
        extra = len(nine_clauses.atoms) + 1
        wrong = [lits | {extra}, lits | {-extra}] + [lits - {lit} for lit in lits]
        for bad in wrong:
            proof.nodes[j] = ("chain", first, steps, bad)
            assert check_refutation(nine_clauses, core, proof) == (
                f"refutation: node {j}: stored clause differs from the replayed chain")

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
            rows = formula.clauses + [refuting(formula)]
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

        def flipped_run(engine, assumptions=()):
            engine.store.append(lemma)
            return SatVerdict("unsat")

        monkeypatch.setattr(smt.SmtSolver, "solve", flipped_run)
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
            core, proof, leaves, store = route(formula, config, budget)
            return sorted(core)[:-1], proof, leaves, store

        monkeypatch.setitem(cores.METHODS, "smt-proof", (dropping_route, kind))
        with pytest.raises(ExtractionError, match="core failed verification"):
            extract_core(formula, "smt-proof", verify=True)

    def test_tautological_leaf_is_valid(self):
        """A tautology is valid in every theory; asserting both of its
        negated literals would leave the solver unable to backtrack."""
        formula = formula_of("(set-logic QF_LRA) (declare-fun x () Real) "
                             "(assert (<= x 0)) (assert (not (<= x 0)))")
        a = formula.clauses[0][0]
        proof = ProofLog()
        tautology, neg, pos = proof.leaf(7, [a, -a]), proof.leaf(1, [-a]), proof.leaf(0, [a])
        # {a, -a} on a with {-a} keeps its own -a, which {a} then resolves away
        proof.final = proof.chain(tautology, [(a, neg), (a, pos)], [])
        assert check_refutation(formula, [0, 1], proof) is None
        assert check_refutation(formula, [0], proof) is not None

    def test_unknown_atom_in_a_leaf(self, nine_clauses):
        unknown = len(nine_clauses.atoms) + 1
        proof = sat_solve([[unknown], [-unknown]], log_proof=True).proof
        assert "names an unknown atom" in check_refutation(nine_clauses, [0], proof)


# The modules of the package that the trusted checker may import: the
# terms it reads and, until LRA leaves carry certificates, the solver that
# decides them.
TRUSTED = {"smtcore.terms", "smtcore.theory.lra"}


def smtcore_imports(source):
    """The `smtcore` modules that the imports of `source` name, relative or
    absolute, for a module at the package's top level.  An import from a
    package names that package's submodule of each name it imports, and a
    relative import that leaves the package names `..`."""
    named = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            named += [alias.name for alias in node.names
                      if alias.name.split(".")[0] == "smtcore"]
        elif isinstance(node, ast.ImportFrom):
            if node.level > 1:
                named.append("..")
                continue
            base = ".".join(["smtcore"] * node.level + [node.module or ""]).strip(".")
            if base.split(".")[0] != "smtcore":
                continue
            if base in ("smtcore", "smtcore.theory"):
                named += [f"{base}.{alias.name}" for alias in node.names]
            else:
                named.append(base)
    return named


def php_3_2_refutation():
    """Three pigeons in two holes, as a formula, and its logged refutation."""
    clauses, _ = pigeonhole_cnf(random.Random(0), holes=2, noise_vars=0, noise_clauses=0)
    proof = sat_solve(clauses, log_proof=True).proof
    assert check_proof(proof, clauses) is None
    return prop_formula(clauses), proof


class TestTrustedChecker:
    """`smtcore.check`: what it may import, and the rejections of a
    mutated real refutation that the route tests never reach."""

    def test_imports_only_the_trusted_base(self):
        assert set(smtcore_imports(Path(check.__file__).read_text(encoding="utf-8"))) <= TRUSTED

    @pytest.mark.parametrize("line", [
        "from .sat import sat_solve", "from . import cores", "from .theory import EufSolver",
        "from .theory.euf import EufSolver", "from smtcore.smt import smt_solve",
        "from smtcore import sat", "import smtcore.sat", "import smtcore",
        "from ..smtcore import sat",
        "def f():\n    from .sat import ProofLog",
    ])
    def test_the_fence_catches_another_import(self, line):
        source = Path(check.__file__).read_text(encoding="utf-8") + "\n" + line + "\n"
        assert not set(smtcore_imports(source)) <= TRUSTED

    def test_a_leaf_naming_no_input_clause(self):
        formula, proof = php_3_2_refutation()
        j, (_, cid, lits) = next((j, node) for j, node in enumerate(proof.nodes)
                                 if node[0] == "leaf")
        for unknown in (len(formula.clauses), -1):
            proof.nodes[j] = ("leaf", unknown, lits)
            assert check_proof(proof, formula.clauses) == (
                f"node {j}: leaf references unknown clause {unknown}")
        other = (cid + 1) % len(formula.clauses)
        proof.nodes[j] = ("leaf", other, lits)
        assert check_proof(proof, formula.clauses) == (
            f"node {j}: leaf literals differ from input clause {other}")

    def test_final_node_out_of_range(self):
        formula, proof = php_3_2_refutation()
        everything = range(len(formula.clauses))
        for final in (len(proof.nodes), -1):
            proof.final = final
            assert check_proof(proof, formula.clauses) == "final node out of range"
            assert check_refutation(formula, everything, proof) == (
                "refutation: final node out of range")

    def test_leaves_of_a_proof_without_the_empty_clause(self):
        _, proof = php_3_2_refutation()
        proof.final = None
        with pytest.raises(ValueError) as info:
            proof_leaves(proof)
        assert str(info.value) == "proof does not derive the empty clause"
        proof.final = next(j for j, node in enumerate(proof.nodes) if node[0] == "leaf")
        with pytest.raises(ValueError) as info:
            proof_leaves(proof)
        assert str(info.value) == "final node is not the empty clause"


U = "U"
_CONSTS = [Var(name, U, k) for k, name in enumerate("abc")]
_F = FunSymbol("f", (U,), U)
_G = FunSymbol("g", (U, U), U)


def _nested_terms():
    """Constants, then unary and binary applications two deep."""
    terms = list(_CONSTS)
    for _ in range(2):
        terms += [FunApp(_F, (t,)) for t in terms] + [FunApp(_G, (s, t)) for s in terms[:2]
                                                      for t in terms[:3]]
    return list(dict.fromkeys(terms))


def _random_clause(rng, variables):
    """One to five literals over `variables`, with a literal's complement
    beside it in about one clause in eight."""
    clause = {rng.choice(variables) * rng.choice((1, -1)) for _ in range(rng.randint(1, 5))}
    if rng.random() < 0.125:
        clause.add(-next(iter(clause)))
    return frozenset(clause)


def _cone(proof):
    """The nodes the final node of `proof` derives from, itself included."""
    seen, todo = set(), [proof.final]
    while todo:
        n = todo.pop()
        if n not in seen:
            seen.add(n)
            node = proof.nodes[n]
            if node[0] == "chain":
                todo += [node[1], *(antecedent for _, antecedent in node[2])]
    return seen


def _agrees_with_the_oracle(check, clause) -> bool:
    """The check's verdict on `clause`, checked against the oracle's."""
    valid = check.valid(clause)
    assert valid == clause_valid(clause, check.atom), sorted(clause)
    return valid


def _lin(coeffs, offset, rel):
    return canonical_lin_atom(lin_comb(coeffs, Fraction(offset)), rel)


GENERATORS = {
    "difference": lambda s: random_difference_formula(random.Random(s), 4, 12, 3),
    "diamond": lambda s: diamond_chain_formula(random.Random(s), 3 + s % 4, s % 3),
    "uf": lambda s: random_uf_formula(random.Random(s), 5, 14, 2),
}


class TestTheoryValidity:
    """`check.validity_check`, which decides stored lemmas and refutation
    leaves alike, agrees with the oracle (`oracles.clause_valid`: Fourier-
    Motzkin for LRA, a naive congruence closure for EUF)."""

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_agrees_with_the_oracle_on_generated_formulas(self, name):
        """Every stored lemma, and random clauses over the table's and the
        defined variables."""
        rng = random.Random(2029)
        verdicts = []
        for seed in range(40):
            formula = GENERATORS[name](seed)
            _, store = smt.smt_solve(formula)
            defs = {var: atom for lemma in store for var, atom in lemma.defs}
            check = validity_check(formula.logic, formula.atoms).under(sorted(defs.items()))
            for lemma in store:
                assert _agrees_with_the_oracle(check, frozenset(lemma.clause))
            variables = [var for var, _ in formula.atoms.items()] + sorted(defs)
            for _ in range(60):
                verdicts.append(_agrees_with_the_oracle(check, _random_clause(rng, variables)))
        assert 300 <= sum(verdicts) <= len(verdicts) - 300

    def test_agrees_with_the_oracle_on_nested_applications(self):
        rng = random.Random(2027)
        terms = _nested_terms()
        verdicts = []
        for _ in range(150):
            table = AtomTable()
            atoms = {euf_atom(*rng.sample(terms[:12], 2)) for _ in range(rng.randint(2, 7))}
            atoms |= {euf_atom(s, t) for s, t in rng.sample(list(zip(terms, terms[3:])), 2)}
            atoms.add(euf_atom(t := rng.choice(terms), t))      # reflexive
            ids = [table.intern(atom) for atom in sorted(atoms, key=repr)]
            ids += [table.intern(PropAtom(name)) for name in ("p", "q")]
            check = validity_check("EUF", table)
            for _ in range(12):
                verdicts.append(_agrees_with_the_oracle(check, _random_clause(rng, ids)))
        assert 250 <= sum(verdicts) <= len(verdicts) - 250

    def test_fixed_clauses(self):
        """A propositional literal beside a valid EUF clause; a tautology
        and a lone literal over a propositional atom; a constant atom; a
        strict bound.  The theory test files hold transitivity, the bound
        lemmas and the repeated literal."""
        a, b, c = _CONSTS
        x = Var("x", REAL, 0)
        table = AtomTable()
        iab, ibc, iac = (table.intern(euf_atom(s, t)) for s, t in ((a, b), (b, c), (a, c)))
        p = table.intern(PropAtom("p"))
        euf = validity_check("EUF", table)
        table = AtomTable()
        ix1, ix0, ione, ixlt, ixle = (table.intern(atom) for atom in (
            _lin({x: 1}, -1, "="), _lin({x: 1}, 0, "="), _lin({}, -1, "<="),
            _lin({x: 1}, 0, "<"), _lin({x: 1}, 0, "<=")))
        lra = validity_check("LRA", table)
        cases = [
            (euf, (-iab, -ibc, iac, p), True), (euf, (p, -p), True), (euf, (p,), False),
            (lra, (ix0, ix1), False), (lra, (ione,), True), (lra, (-ione,), False),
            (lra, (-ixlt, ixle), True), (lra, (-ixle, ixlt), False),
        ]
        for check, clause, valid in cases:
            assert _agrees_with_the_oracle(check, frozenset(clause)) == valid, clause

class TestEufLeaves:
    """`check_refutation` decides an EUF leaf by the congruence closure of
    `check.validity_check`, not with an `EufSolver`."""

    def test_a_weakened_leaf_of_a_real_refutation_fails(self, monkeypatch):
        """Leaves of euf-core-like refutations, each with one premise
        dropped or its conclusion negated.  Replay is switched off, so the
        mutated leaf reaches the leaf check, which must reject it unless
        the oracle finds the mutation valid (an explanation need not be
        minimal, so a deduction can survive losing a premise)."""
        monkeypatch.setattr(check, "check_proof", lambda proof: None)
        route, kind = METHODS["lift-proof"]
        rejected = kept = 0
        for seed in range(8):
            formula = diamond_chain_formula(random.Random(seed), 3 + seed % 3, 8)
            core, proof, _leaves, store = route(formula, ExtractorConfig(kind), None)
            defs = {var: atom for lemma in store for var, atom in lemma.defs}
            assert check_refutation(formula, core, proof, defs) is None
            inputs = {frozenset(formula.clauses[i]) for i in core}
            lemma_of = {frozenset(lemma.clause): lemma for lemma in store}
            for j in _cone(proof):
                node = proof.nodes[j]
                if node[0] != "leaf" or node[2] in inputs:
                    continue
                *premises, conclusion = lemma_of[node[2]].clause
                mutants = [(node[2] - {p}, True) for p in premises]
                mutants.append((node[2] - {conclusion} | {-conclusion}, False))
                for lits, may_stay_valid in mutants:
                    proof.nodes[j] = ("leaf", node[1], lits)
                    problem = check_refutation(formula, core, proof, defs)
                    if problem is None:
                        assert may_stay_valid and clause_valid(
                            lits, lambda v: defs.get(v) or formula.atoms.atom(v))
                        kept += 1
                    else:
                        assert problem == (f"refutation leaf {sorted(lits, key=abs)} is "
                                           f"neither a core clause nor theory-valid")
                        rejected += 1
                proof.nodes[j] = node
        assert rejected >= 100 and kept <= rejected // 20

    def test_check_refutation_calls_no_euf_solver_method(self, monkeypatch):
        formula = diamond_chain_formula(random.Random(3), 5, 5)
        route, kind = METHODS["lift-proof"]
        core, proof, _leaves, store = route(formula, ExtractorConfig(kind), None)
        defs = {var: atom for lemma in store for var, atom in lemma.defs}

        def forbidden(*args, **kwargs):
            raise AssertionError("an EufSolver method was called")

        for cls in (EufSolver, TheorySolver):
            for name, value in list(vars(cls).items()):
                if callable(value):
                    monkeypatch.setattr(cls, name, forbidden)
        assert defs and check_refutation(formula, core, proof, defs) is None


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

        def spy(formula, core, proof, defs, leaves):
            problem = check_refutation(formula, core, proof, defs, leaves)
            seen.append(problem)
            return problem

        monkeypatch.setattr(cores, "check_refutation", spy)
        unsat = 0
        for k, (name, formula) in enumerate(_unsat_corpus()):
            if smt.smt_solve(formula)[0].status != "unsat":
                continue
            unsat += 1
            # every internal route minimized on every third formula, so that
            # cores kept whole and cores shrunk are both checked
            routes = [(m, f, False) for m, f in PROOF_ROUTES]
            if k % 3 == 0:
                routes += [(m, f, True) for m, f in INTERNAL_ROUTES]
            for method, fixpoint, minimize in routes:
                seen.clear()
                report = extract_core(formula, method, fixpoint=fixpoint, minimize=minimize,
                                      verify=True)
                assert seen == [None], (name, method, fixpoint, minimize)
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
        # the lift and the minimization's selector engine: minimization kept
        # the core whole, so its refutation verifies it with no third engine
        assert len(report.core) == 6
        assert len(engines) == 2
        assert checked == []

    @staticmethod
    def _spy_checks(monkeypatch):
        """Record, in call order, which check verified each core."""
        called = []
        monkeypatch.setattr(cores, "check_core", lambda f, core: called.append(
            "check_core") or check_core(f, core))
        monkeypatch.setattr(cores, "check_refutation", lambda *args: called.append(
            "check_refutation") or check_refutation(*args))
        return called

    @pytest.mark.parametrize("method, fixpoint", EVERY_ROUTE)
    def test_every_core_is_checked_by_one_refutation(self, nine_clauses, abstraction_gap,
                                                     monkeypatch, method, fixpoint):
        """With or without minimization, kept whole (`nine_clauses`) or
        shrunk (`abstraction_gap`, whose raw core of 4 clauses minimizes
        to 3), a core is checked once, by `check_refutation`."""
        called = self._spy_checks(monkeypatch)
        for formula in (nine_clauses, abstraction_gap):
            for minimize in (False, True):
                called.clear()
                report = extract_core(formula, method, fixpoint=fixpoint, minimize=minimize,
                                      verify=True)
                assert called == ["check_refutation"], (len(formula.clauses), minimize)
        assert report.core == (0, 1, 2)

    @pytest.mark.parametrize("method, fixpoint", PROOF_ROUTES)
    def test_cores_kept_whole_use_the_refutation(self, nine_clauses, monkeypatch, method,
                                                 fixpoint):
        called = self._spy_checks(monkeypatch)
        report = extract_core(nine_clauses, method, fixpoint=fixpoint, minimize=True,
                              verify=True)
        assert report.core == tuple(core_and_proof(nine_clauses, method, fixpoint)[0])
        assert called == ["check_refutation"]

    def test_refutation_is_dropped_once_it_cannot_verify(self, nine_clauses, abstraction_gap,
                                                         monkeypatch):
        proofs = []
        boolean_core = cores.boolean_core

        def recording(clauses, config, budget=None):
            result = boolean_core(clauses, config, budget)
            proofs.append(weakref.ref(result.proof))
            return result

        alive = []
        minimize = cores._minimize
        monkeypatch.setattr(cores, "boolean_core", recording)
        monkeypatch.setattr(cores, "_minimize", lambda f, core, store, budget: alive.append(
            ("minimize", proofs[-1]() is not None)) or minimize(f, core, store, budget))
        monkeypatch.setattr(cores, "check_refutation", lambda f, core, proof, defs, leaves:
                            alive.append(("check_refutation", proofs[-1]() is not None))
                            or check_refutation(f, core, proof, defs, leaves))
        for formula in (nine_clauses, abstraction_gap):
            # without verify nothing reads the refutation past the route
            extract_core(formula, "lift-proof", minimize=True)
            assert alive == [("minimize", False)]
            assert proofs[-1]() is None
            alive.clear()
        # with verify it is kept through minimization, for the core kept whole ...
        extract_core(nine_clauses, "lift-proof", minimize=True, verify=True)
        assert alive == [("minimize", True), ("check_refutation", True)]
        assert proofs[-1]() is None
        alive.clear()
        # ... and dropped before the lifted refutation of a core that
        # minimization shrank is checked
        extract_core(abstraction_gap, "lift-proof", minimize=True, verify=True)
        assert alive == [("minimize", True), ("check_refutation", False)]
        assert proofs[-1]() is None
        extract_core(nine_clauses, "lift-proof", verify=True)
        assert proofs[-1]() is None

    @pytest.mark.parametrize("method, fixpoint", PROOF_ROUTES)
    def test_a_corrupt_refutation_fails_a_core_kept_whole(self, nine_clauses, monkeypatch,
                                                          method, fixpoint):
        route, kind = METHODS[method]

        def corrupting_route(formula, config, budget):
            core, proof, leaves, store = route(formula, config, budget)
            i = proof.final
            _, first, steps, lits = proof.nodes[i]
            wrong = len(formula.atoms) + 1
            proof.nodes[i] = ("chain", first, steps[:-1] + ((wrong, steps[-1][1]),), lits)
            return core, proof, leaves, store

        monkeypatch.setitem(cores.METHODS, method, (corrupting_route, kind))
        with pytest.raises(ExtractionError,
                           match=f"{method}: core failed verification: refutation: node "):
            extract_core(nine_clauses, method, fixpoint=fixpoint, minimize=True, verify=True)
        # the core itself is sound: only the refutation that verifies it is broken
        assert extract_core(nine_clauses, method, fixpoint=fixpoint,
                            minimize=True).verdict == "unsat"

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_verify_never_changes_the_core(self, method):
        formulas = [formula for _, formula in _unsat_corpus()][::9]
        if method == "lift-external":
            formulas = formulas[:3]  # each extraction starts a subprocess
        for formula in formulas:
            for minimize in (False, True):
                report = extract_core(formula, method, minimize=minimize, verify=True)
                assert report.core == extract_core(formula, method, minimize=minimize).core
                assert report.verdict == "sat" or check_core(formula, report.core) is None
