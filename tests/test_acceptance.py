"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Benchmark-scale evaluations (hundreds of SMT-LIB
instances against third-party extractors) are out of desk-scale reach by
design; they are replaced here by the property suites over seeded random
corpora plus the bench harness producing the same table shape on a
synthetic corpus (see the final test).
"""
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from gen import labeled_corpus
from oracles import brute_force_smt_sat
from smtcore.bench import BenchRecord, ratio_stats, stats_for_pair
from smtcore.cli import main as cli_main
from smtcore.cnf import cnf_convert
from smtcore.cores import (
    ExtractorConfig, boolean_core, check_core, external_bridge, extract_core, minimize_core,
    self_extractor_command,
)
from smtcore.parser import parse_file
from smtcore.smt import lemma_store_violations, lifted_clauses, smt_solve
from smtcore.sat import sat_solve

DATA = Path(__file__).parent / "data"
CORE_A = (0, 1, 2, 3, 4, 5)
CORE_B = (0, 1, 2, 3, 5, 7)
MCS_FAMILY = [frozenset(s) for s in ({0}, {1}, {2}, {3}, {5}, {4, 7})]


def _load(name):
    return cnf_convert(parse_file(str(DATA / name)))


@pytest.fixture(scope="module")
def corpora():
    """Labeled random corpora per theory: >= 500 unsat and 150 sat each,
    at most 6 theory atoms and 8 clauses per instance."""
    out = {}
    for theory in ("LRA", "EUF"):
        unsat, sat = labeled_corpus(theory, want_unsat=500, want_sat=150,
                                    oracle=brute_force_smt_sat, seed=42)
        out[theory] = (unsat, sat)
    return out


@pytest.fixture(scope="module")
def method_corpus():
    """The corpus used for the cross-method criteria: the two worked
    examples plus 30 random unsat instances per theory."""
    instances = [_load("nine_clauses.smt2"), _load("abstraction_gap.smt2")]
    for theory in ("LRA", "EUF"):
        unsat, _ = labeled_corpus(theory, want_unsat=30, want_sat=0,
                                  oracle=brute_force_smt_sat, seed=777)
        instances.extend(unsat)
    return instances


def test_criterion_nine_clause_pipeline(capsys):
    """lift-proof --minimize on the nine-clause example returns exactly one
    of its two minimal cores, within one second."""
    start = time.perf_counter()
    code = cli_main(["core", str(DATA / "nine_clauses.smt2"), "--method", "lift-proof",
                     "--minimize", "--verify"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out.splitlines()
    assert code == 20
    got = tuple(int(i) - 1 for i in out[1].split(":")[1].split())
    assert got in (CORE_A, CORE_B)
    assert elapsed < 1.0
    with capsys.disabled():
        print(f"\nPASS nine-clause pipeline: core {sorted(i+1 for i in got)} "
              f"in {elapsed*1000:.0f} ms")


def test_criterion_allmus_oracle(capsys):
    """allmus on the nine-clause example emits exactly the expected MCS set
    and both minimal cores, within one second."""
    start = time.perf_counter()
    code = cli_main(["allmus", str(DATA / "nine_clauses.smt2")])
    elapsed = time.perf_counter() - start
    lines = capsys.readouterr().out.splitlines()
    assert code == 20
    mcs_lines = [l for l in lines if l.startswith("MCS:")]
    mus_lines = [l for l in lines if l.startswith("MUS:")]
    got_mcs = {frozenset(int(i) - 1 for i in l.split(":")[1].split())
               for l in mcs_lines}
    got_mus = {frozenset(int(i) - 1 for i in l.split(":")[1].split())
               for l in mus_lines}
    assert got_mcs == set(MCS_FAMILY)
    assert got_mus == {frozenset(CORE_A), frozenset(CORE_B)}
    assert elapsed < 1.0
    with capsys.disabled():
        print(f"\nPASS all-MUS oracle: 6 MCSes, 2 MUSes in {elapsed*1000:.0f} ms")


def test_criterion_abstraction_gap_discriminator(capsys):
    """On the four-clause example the minimal Boolean core of the
    abstraction is all four clauses while deletion minimization drops the
    theory-valid fourth: lifted cores need not be theory-minimal."""
    formula = _load("abstraction_gap.smt2")
    abstraction = formula.clauses
    bool_core = boolean_core(abstraction, ExtractorConfig("internal-proof"))
    assert bool_core == [0, 1, 2, 3]
    # and it is Boolean-minimal: every proper subset is satisfiable
    for drop in range(4):
        sub = [abstraction[i] for i in range(4) if i != drop]
        assert sat_solve(sub).status == "sat"
    minimized = minimize_core(formula, [0, 1, 2, 3])
    assert minimized == [0, 1, 2]
    # the run stores no lemma, so the lifting route reproduces both halves
    assert smt_solve(formula)[1] == []
    report = extract_core(formula, "lift-proof", verify=True)
    assert report.core == (0, 1, 2, 3)
    report_min = extract_core(formula, "lift-proof", minimize=True, verify=True)
    assert report_min.core == (0, 1, 2)
    with capsys.disabled():
        print("\nPASS abstraction-gap discriminator: Boolean core = 4 clauses, "
              "minimized theory core = first 3")


def test_criterion_lemma_facts_suite(corpora, capsys):
    """Over >= 500 random unsatisfiable instances per theory, every stored
    lemma is theory-valid and every abstraction-plus-lemmas set is
    propositionally unsat by an independent SAT run; zero violations."""
    counts = {}
    for theory, (unsat, _sat) in corpora.items():
        assert len(unsat) >= 500
        violations = 0
        for formula in unsat:
            verdict, store = smt_solve(formula)
            assert verdict.status == "unsat"
            violations += len(lemma_store_violations(formula, store, unsat=True))
        assert violations == 0
        counts[theory] = len(unsat)
    with capsys.disabled():
        print(f"\nPASS lemma-store facts: zero violations over "
              f"{counts['LRA']} LRA + {counts['EUF']} EUF unsat instances")


def test_criterion_oracle_equivalence(corpora, capsys):
    """smt_solve agrees with the assignment-enumeration + theory-oracle
    brute force on every instance, satisfiable ones included."""
    total = 0
    for theory, (unsat, sat) in corpora.items():
        for formula, expected in [(f, False) for f in unsat] + [(f, True) for f in sat]:
            verdict, _ = smt_solve(formula)
            assert verdict.status == ("sat" if expected else "unsat")
            total += 1
    with capsys.disabled():
        print(f"\nPASS oracle equivalence: verdicts agree on {total} instances")


def test_criterion_core_soundness_across_methods(method_corpus, capsys):
    """Every method returns a verified subset core on every instance of the
    method corpus; minimization passes the one-deletion test."""
    checked = 0
    for formula in method_corpus:
        n = len(formula.clauses)
        reports = {
            "lift-proof": extract_core(formula, "lift-proof"),
            "lift-selectors": extract_core(formula, "lift-selectors"),
            "lift-external": extract_core(formula, "lift-external"),
            "smt-proof": extract_core(formula, "smt-proof"),
            "smt-selectors": extract_core(formula, "smt-selectors"),
        }
        for method, report in reports.items():
            assert report.verdict == "unsat", method
            assert set(report.core) <= set(range(n)), method
            assert check_core(formula, report.core) is None, method
            checked += 1
        minimized = minimize_core(formula, reports["lift-proof"].core)
        for i in minimized:
            rest = [j for j in minimized if j != i]
            sub_verdict, _ = smt_solve(formula.restrict(rest))
            assert sub_verdict.status == "sat"
    with capsys.disabled():
        print(f"\nPASS core soundness: {checked} method/instance cores verified, "
              f"minimized cores one-deletion minimal on {len(method_corpus)} instances")


def test_criterion_bridge_fidelity(method_corpus, capsys):
    """The self-bridge (this tool's own Boolean extractor as a subprocess)
    returns byte-identical index sets to the in-process proof extractor on
    the same lifted DIMACS, over the full method corpus."""
    from smtcore.dimacs import render_core_indices

    compared = 0
    for formula in method_corpus:
        verdict, store = smt_solve(formula)
        assert verdict.status == "unsat"
        rows = lifted_clauses(formula, store)
        direct = boolean_core(rows, ExtractorConfig("internal-proof"))
        bridged = external_bridge(rows, self_extractor_command())
        assert render_core_indices(bridged) == render_core_indices(direct)
        compared += 1
    with capsys.disabled():
        print(f"\nPASS bridge fidelity: byte-identical index files on "
              f"{compared} lifted instances")


def test_criterion_ratio_statistics(capsys):
    """RatioStats on a hand-constructed ten-instance synthetic corpus matches
    the hand-computed table to two decimals.

    Core sizes: method A fixed at the full 100 clauses, baseline B at
    100/ratio with ratios {1.0 x4, 1.25 x2, 2.0 x2, 2.5, 5.0}; by hand
    (Hazen rule): sorted ratios 1,1,1,1,1.25,1.25,2,2,2.5,5 ->
    q1 at position 3 = 1.00, median at 5.5 = 1.25, mean = 1.80,
    q3 at position 8 = 2.00.
    """
    ratios = [Fraction(1)] * 4 + [Fraction(5, 4)] * 2 + [Fraction(2)] * 2 + \
             [Fraction(5, 2), Fraction(5)]
    records = []
    for i, r in enumerate(ratios):
        records.append(BenchRecord(f"i{i}", 100, "A", 100, 1.0, "ok"))
        records.append(BenchRecord(f"i{i}", 100, "B", int(100 / r), 1.0, "ok"))
    st = stats_for_pair(records, "A", "B")
    assert st.count == 10
    assert round(float(st.q1), 2) == 1.00
    assert round(float(st.median), 2) == 1.25
    assert round(float(st.mean), 2) == 1.80
    assert round(float(st.q3), 2) == 2.00
    # the pinned four-point vector from the quartile-rule contract
    pinned = ratio_stats([Fraction(1), Fraction(2), Fraction(3), Fraction(4)])
    assert (pinned.q1, pinned.median, pinned.mean, pinned.q3) == \
        (Fraction(3, 2), Fraction(5, 2), Fraction(5, 2), Fraction(7, 2))
    # the A-returns-everything / B-returns-half corpus: all statistics 2.0
    double = []
    for i in range(10):
        double.append(BenchRecord(f"d{i}", 100, "A", 100, 1.0, "ok"))
        double.append(BenchRecord(f"d{i}", 100, "B", 50, 1.0, "ok"))
    st2 = stats_for_pair(double, "A", "B")
    assert st2.q1 == st2.median == st2.mean == st2.q3 == 2
    with capsys.disabled():
        print("\nPASS ratio statistics: hand-computed table reproduced "
              "(1.00 / 1.25 / 1.80 / 2.00) and constant-ratio corpus gives 2.00")


def test_criterion_desk_scale_replacement(tmp_path, capsys):
    """Benchmark-scale comparisons are replaced by the property
    suites above plus the bench harness emitting the same table shape on a
    synthetic corpus."""
    code = cli_main(["bench", str(DATA), "--methods",
                     "lift-proof,lift-selectors,smt-proof,smt-selectors",
                     "--baseline", "lift-proof",
                     "--csv", str(tmp_path / "bench.csv")])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    header = lines[0].split()
    assert header == ["core", "size", "ratio", "1st", "quartile", "median",
                      "mean", "3rd", "quartile", "n"]
    assert any(l.startswith("lift-selectors/lift-proof") for l in lines)
    assert any(l.startswith("smt-proof/lift-proof") for l in lines)
    assert (tmp_path / "bench.csv").exists()
    with capsys.disabled():
        print("\nPASS desk-scale replacement: bench harness emits the ratio "
              "table shape on the synthetic corpus "
              "(SMT-LIB-scale timings are explicitly out of scope)")
