import gc
import random
import tempfile
import weakref

import pytest

from gen import labeled_corpus, random_difference_formula
from oracles import brute_force_smt_sat
from smtcore import cores, smt
from smtcore.cnf import cnf_convert
from smtcore.cores import (
    METHODS, BridgeError, ExtractorConfig, ExtractionError, boolean_core, check_core,
    _run, external_bridge, extract_core, lemma_lift_core, minimize_core,
    self_extractor_command,
)
from smtcore.mus import enumerate_mcs
from smtcore.parser import parse
from smtcore.smt import SmtSolver, smt_solve
from smtcore.terms import Original

CORE_A = (0, 1, 2, 3, 4, 5)
CORE_B = (0, 1, 2, 3, 5, 7)


def lifted_clauses(formula):
    _, store = smt_solve(formula)
    return smt.lifted_clauses(formula, store)


class TestExtractorConfig:
    def test_external_requires_placeholders(self):
        with pytest.raises(ValueError, match="placeholders"):
            ExtractorConfig("external", command="mytool problem.cnf")
        with pytest.raises(ValueError, match="command"):
            ExtractorConfig("external")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ExtractorConfig("magic")


class TestBooleanCore:
    def test_minimal_unsat_pair(self):
        core = boolean_core([[1], [-1], [2]], ExtractorConfig("internal-proof"))
        assert core == [0, 1]

    def test_selectors_agree_on_shape(self):
        core = boolean_core([[1], [-1], [2]], ExtractorConfig("internal-selectors"))
        assert core == [0, 1]

    def test_satisfiable_input_is_an_error(self):
        with pytest.raises(ExtractionError, match="satisfiable"):
            boolean_core([[1, 2]], ExtractorConfig("internal-proof"))

    def test_fixpoint_stabilizes(self, nine_clauses):
        rows = lifted_clauses(nine_clauses)
        cfg = ExtractorConfig("internal-proof", fixpoint=True)
        core = boolean_core(rows, cfg)
        again = boolean_core([rows[i] for i in core], ExtractorConfig("internal-proof"))
        assert [core[j] for j in again] == core  # already a fixpoint

    def test_fixpoint_sizes_never_increase(self, nine_clauses):
        rows = lifted_clauses(nine_clauses)
        plain = boolean_core(rows, ExtractorConfig("internal-proof"))
        fixed = boolean_core(rows, ExtractorConfig("internal-proof", fixpoint=True))
        assert len(fixed) <= len(plain)


class TestLemmaLifting:
    def test_nine_clause_internal_proof(self, nine_clauses):
        report = extract_core(nine_clauses, "lift-proof", verify=True)
        assert report.verdict == "unsat"
        assert set(report.core) <= set(range(9))
        assert report.verification == "verified"

    def test_nine_clause_minimize_reaches_a_minimal_core(self, nine_clauses):
        report = extract_core(nine_clauses, "lift-proof", minimize=True, verify=True)
        assert report.core in (CORE_A, CORE_B)

    def test_sat_input_short_circuits(self):
        f = cnf_convert(parse("(declare-fun y () Real)(assert (< y 0))"))
        report = extract_core(f, "lift-proof")
        assert report.verdict == "sat" and report.core == ()

    def test_gap_instance_with_empty_store(self, abstraction_gap):
        # the premise: the run stores no lemma, so the lift sees the bare
        # abstraction
        assert smt_solve(abstraction_gap)[1] == []
        report = extract_core(abstraction_gap, "lift-proof", verify=True)
        assert report.core == (0, 1, 2, 3)
        minimized = extract_core(abstraction_gap, "lift-proof", minimize=True, verify=True)
        assert minimized.core == (0, 1, 2)

    def test_no_lemma_origin_in_any_report(self, nine_clauses):
        for method in ("lift-proof", "lift-selectors"):
            report = extract_core(nine_clauses, method, verify=True)
            for i in report.core:
                assert isinstance(nine_clauses.clauses[i].origin, Original)
                assert i < len(nine_clauses.clauses)

    def test_assertion_level_view(self, nine_clauses):
        report = extract_core(nine_clauses, "lift-proof")
        # one clause per assertion in this instance
        assert report.assertions == report.core


class TestBaselines:
    def test_smt_proof_core_verifies(self, nine_clauses):
        report = extract_core(nine_clauses, "smt-proof", verify=True)
        assert report.verdict == "unsat"
        assert check_core(nine_clauses, report.core) is None

    def test_smt_assumption_core_verifies(self, nine_clauses):
        report = extract_core(nine_clauses, "smt-selectors", verify=True)
        assert report.verdict == "unsat"
        assert check_core(nine_clauses, report.core) is None

    def test_assumption_core_does_not_grow_the_input_table(self, nine_clauses):
        before = len(nine_clauses.atoms)
        extract_core(nine_clauses, "smt-selectors")
        # minimization and enumeration intern into their engine's own table
        minimize_core(nine_clauses, range(9))
        enumerate_mcs(nine_clauses)
        assert len(nine_clauses.atoms) == before

    def test_both_baselines_on_contradictory_units(self):
        f = cnf_convert(parse(
            "(declare-fun x () Real)(assert (= x 1))(assert (= x 0))"))
        assert extract_core(f, "smt-proof", verify=True).core == (0, 1)
        assert extract_core(f, "smt-selectors", verify=True).core == (0, 1)

    def test_baselines_sat_path(self):
        f = cnf_convert(parse("(declare-fun y () Real)(assert (< y 0))"))
        assert extract_core(f, "smt-proof").verdict == "sat"
        assert extract_core(f, "smt-selectors").verdict == "sat"


class TestMinimize:
    def test_seven_clause_core_drops_the_redundant_clause(self, nine_clauses):
        assert minimize_core(nine_clauses, [0, 1, 2, 3, 5, 6, 7]) == list(CORE_B)

    def test_minimal_core_is_a_fixed_point(self, nine_clauses):
        assert minimize_core(nine_clauses, list(CORE_B)) == list(CORE_B)

    def test_gap_instance_keeps_first_three(self, abstraction_gap):
        assert minimize_core(abstraction_gap, [0, 1, 2, 3]) == [0, 1, 2]

    def test_satisfiable_core_rejected(self, nine_clauses):
        with pytest.raises(ValueError, match="unsatisfiable"):
            minimize_core(nine_clauses, [0, 1])

    def test_out_of_range_index_rejected(self, nine_clauses):
        with pytest.raises(ValueError, match="index 99 out of range"):
            minimize_core(nine_clauses, list(CORE_B) + [99])

    def test_one_deletion_minimality(self, nine_clauses):
        core = minimize_core(nine_clauses, list(range(9)))
        for i in core:
            rest = [j for j in core if j != i]
            verdict, _ = smt_solve(nine_clauses.restrict(rest))
            assert verdict.status == "sat"


class TestCheckCore:
    def test_known_core_passes(self, nine_clauses):
        assert check_core(nine_clauses, CORE_A) is None

    def test_dropping_the_unit_makes_it_satisfiable(self, nine_clauses):
        out = check_core(nine_clauses, [0, 1, 2, 3, 4, 6, 7, 8])
        assert out is not None and "sat" in out

    def test_out_of_range_index(self, nine_clauses):
        assert "out of range" in check_core(nine_clauses, [99])


class TestExtractCore:
    CONFIGS = {
        "lift-proof": ExtractorConfig("internal-proof"),
        "lift-selectors": ExtractorConfig("internal-selectors"),
        "lift-external": ExtractorConfig("external", command=self_extractor_command()),
        "smt-proof": None,
        "smt-selectors": None,
    }

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_equals_the_direct_route(self, nine_clauses, method):
        direct = _run(nine_clauses, method, self.CONFIGS[method], minimize=False,
                      verify=False, budget=None)
        assert extract_core(nine_clauses, method) == direct

    def test_unknown_method_rejected(self, nine_clauses):
        with pytest.raises(ValueError, match="unknown method"):
            extract_core(nine_clauses, "magic")


class TestLemmaLiftShim:
    """`lemma_lift_core` is kept only for the benchmark; it must stay
    `extract_core` under another signature."""

    @pytest.mark.parametrize("minimize", [False, True])
    @pytest.mark.parametrize("kind, method", [("internal-proof", "lift-proof"),
                                              ("internal-selectors", "lift-selectors"),
                                              ("external", "lift-external")])
    def test_equals_extract_core(self, nine_clauses, kind, method, minimize):
        command = self_extractor_command() if kind == "external" else None
        for budget in (None, 1000):
            shim = lemma_lift_core(nine_clauses,
                                   ExtractorConfig(kind, command=command, minimize=minimize),
                                   verify=True, conflict_budget=budget)
            assert shim == extract_core(nine_clauses, method, minimize=minimize,
                                        verify=True, budget=budget)


def difference_12_60():
    """Its lift-proof route takes 11 conflicts; one of its minimization
    trials takes more."""
    return random_difference_formula(random.Random(0), 12, 60, 2)


DIFFERENCE_12_60_MINIMAL = (0, 3, 10, 11, 14, 16, 18, 19, 20, 21, 24, 25, 27, 34, 36,
                            38, 44, 51, 57)


class TestBudget:
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_a_route_that_runs_out_raises(self, method):
        with pytest.raises(ExtractionError, match="conflict budget exceeded"):
            extract_core(difference_12_60(), method, budget=0)

    def test_minimization_trials_are_budgeted(self):
        formula = difference_12_60()
        # the route alone fits in the budget
        assert extract_core(formula, "lift-proof", budget=11).verdict == "unsat"
        with pytest.raises(ExtractionError, match="conflict budget exceeded"):
            extract_core(formula, "lift-proof", minimize=True, budget=11)
        assert extract_core(formula, "lift-proof", minimize=True).core == DIFFERENCE_12_60_MINIMAL

    def test_minimize_core_runs_out_on_its_own(self):
        formula = difference_12_60()
        core = extract_core(formula, "lift-proof").core
        with pytest.raises(ExtractionError, match="conflict budget exceeded"):
            minimize_core(formula, core, budget=0)
        assert tuple(minimize_core(formula, core, budget=100)) == DIFFERENCE_12_60_MINIMAL


class TestEngineLifetime:
    """An engine is no reference cycle: it dies with its last reference,
    without the cycle collector."""

    @pytest.mark.parametrize("method, minimize", [("lift-proof", False),
                                                  ("smt-proof", False),
                                                  ("smt-selectors", True)])
    def test_engines_are_freed_when_extraction_returns(self, nine_clauses, monkeypatch,
                                                       method, minimize):
        built = []
        init = SmtSolver.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(weakref.ref(self))

        monkeypatch.setattr(SmtSolver, "__init__", recording)
        gc.collect()
        gc.disable()
        try:
            extract_core(nine_clauses, method, minimize=minimize, verify=True)
            alive = [ref() is not None for ref in built]
        finally:
            gc.enable()
        assert alive and not any(alive)


class TestBridge:
    @pytest.fixture(autouse=True)
    def _private_tempdir(self, tmp_path, monkeypatch):
        # failing runs keep their smtcore-bridge-* directory on purpose;
        # keep them under tmp_path rather than the system temp dir
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))

    def test_self_bridge_round_trip(self, nine_clauses):
        rows = lifted_clauses(nine_clauses)
        direct = boolean_core(rows, ExtractorConfig("internal-proof"))
        via = external_bridge(rows, self_extractor_command())
        assert via == direct

    def test_dimacs_subset_mode(self, nine_clauses):
        rows = lifted_clauses(nine_clauses)
        cmd = self_extractor_command("dimacs-subset")
        via = external_bridge(rows, cmd, mode="dimacs-subset")
        direct = boolean_core(rows, ExtractorConfig("internal-proof"))
        assert via == direct

    def test_default_bridge_writes_the_mode_it_reads(self, nine_clauses, tmp_path):
        by_index = extract_core(nine_clauses, "lift-external")
        by_subset = extract_core(nine_clauses, "lift-external", extractor_mode="dimacs-subset")
        assert by_subset == by_index
        assert not list(tmp_path.glob("smtcore-bridge-*"))

    def test_full_clause_list_is_accepted(self):
        cmd = f"{_python()} -c \"import sys,shutil; open(sys.argv[2],'w').write('1\\n2\\n')\" {{in}} {{out}}"
        core = external_bridge([[1], [-1]], cmd)
        assert core == [0, 1]

    def test_out_of_range_core_rejected(self):
        cmd = f"{_python()} -c \"import sys; open(sys.argv[2],'w').write('9\\n')\" {{in}} {{out}}"
        with pytest.raises(BridgeError, match="interpret"):
            external_bridge([[1], [-1]], cmd)

    def test_malformed_subset_header_keeps_files(self, tmp_path):
        cmd = f"{_python()} -c \"import sys; open(sys.argv[2],'w').write('p cnf x 2\\n')\" {{in}} {{out}}"
        with pytest.raises(BridgeError, match="files kept in"):
            external_bridge([[1], [-1]], cmd, mode="dimacs-subset")
        kept, = tmp_path.glob("smtcore-bridge-*")
        assert (kept / "problem.cnf").exists()

    def test_timeout_stops_the_extractor_and_keeps_files(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cores, "BRIDGE_TIMEOUT_S", 0.5)
        cmd = f"{_python()} -c \"import time; time.sleep(30)\" {{in}} {{out}}"
        with pytest.raises(BridgeError, match="timed out after 0.5s") as err:
            external_bridge([[1], [-1]], cmd)
        kept, = tmp_path.glob("smtcore-bridge-*")
        assert f"files kept in {kept}" in str(err.value)
        assert (kept / "problem.cnf").exists()

    def test_nonzero_exit_reported(self):
        cmd = f"{_python()} -c \"import sys; sys.exit(3)\" {{in}} {{out}}"
        with pytest.raises(BridgeError, match="status 3"):
            external_bridge([[1], [-1]], cmd)

    def test_satisfiable_core_rejected(self):
        cmd = f"{_python()} -c \"import sys; open(sys.argv[2],'w').write('3\\n')\" {{in}} {{out}}"
        with pytest.raises(BridgeError, match="satisfiable"):
            external_bridge([[1], [-1], [2]], cmd)

    def test_lift_external_end_to_end(self, nine_clauses):
        report = extract_core(nine_clauses, "lift-external", verify=True)
        direct = extract_core(nine_clauses, "lift-proof")
        assert report.core == direct.core


def _python():
    import shlex
    import sys
    return shlex.quote(sys.executable)


class TestSoundnessOnRandomCorpus:
    @pytest.mark.parametrize("theory", ["LRA", "EUF"])
    def test_every_method_passes_check_core(self, theory):
        unsat, _ = labeled_corpus(theory, want_unsat=25, want_sat=0,
                                  oracle=brute_force_smt_sat, seed=77)
        for formula in unsat:
            reports = [
                extract_core(formula, "lift-proof", verify=True),
                extract_core(formula, "lift-selectors", verify=True),
                extract_core(formula, "smt-proof", verify=True),
                extract_core(formula, "smt-selectors", verify=True),
            ]
            for report in reports:
                assert report.verdict == "unsat"
                assert set(report.core) <= set(range(len(formula.clauses)))
                assert check_core(formula, report.core) is None
            minimized = minimize_core(formula, reports[0].core)
            for i in minimized:
                rest = [j for j in minimized if j != i]
                verdict, _ = smt_solve(formula.restrict(rest))
                assert verdict.status == "sat"
