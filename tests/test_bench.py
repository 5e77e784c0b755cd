import csv
import shlex
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from smtcore import cores
from smtcore.bench import (
    BenchRecord, RatioStats, format_table, quantile, ratio_stats,
    records_to_csv, run_bench, stats_for_pair,
)

DATA = Path(__file__).parent / "data"


class TestQuartiles:
    def test_pinned_vector(self):
        st = ratio_stats([Fraction(1), Fraction(2), Fraction(3), Fraction(4)])
        assert st.q1 == Fraction(3, 2)
        assert st.median == Fraction(5, 2)
        assert st.mean == Fraction(5, 2)
        assert st.q3 == Fraction(7, 2)

    def test_single_sample(self):
        st = ratio_stats([Fraction(2)])
        assert st.q1 == st.median == st.mean == st.q3 == 2

    def test_quartiles_are_ordered(self):
        st = ratio_stats([Fraction(5), Fraction(1), Fraction(9), Fraction(2), Fraction(2)])
        assert st.q1 <= st.median <= st.q3

    def test_quantile_clamps(self):
        vals = [Fraction(1), Fraction(2)]
        assert quantile(vals, Fraction(0)) == 1
        assert quantile(vals, Fraction(1)) == 2


def _rec(instance, method, size, verified="ok", clauses=100):
    return BenchRecord(instance, clauses, method, size, 1.0, verified)


class TestPairStats:
    def test_double_size_ratio(self):
        records = []
        for i in range(6):
            records.append(_rec(f"i{i}", "A", 100))
            records.append(_rec(f"i{i}", "B", 50))
        st = stats_for_pair(records, "A", "B")
        assert st.q1 == st.median == st.mean == st.q3 == 2
        assert st.count == 6

    def test_baseline_against_itself(self):
        records = [_rec(f"i{i}", "A", 10 + i) for i in range(4)]
        st = stats_for_pair(records, "A", "A")
        assert st.q1 == st.median == st.mean == st.q3 == 1

    def test_only_jointly_verified_instances_count(self):
        records = [
            _rec("i0", "A", 10), _rec("i0", "B", 10),
            _rec("i1", "A", 10), _rec("i1", "B", None, verified="error:boom"),
            _rec("i2", "A", None), _rec("i2", "B", 10),  # sat instance on A
        ]
        st = stats_for_pair(records, "A", "B")
        assert st.count == 1

    def test_no_overlap_gives_none(self):
        records = [_rec("i0", "A", 10)]
        assert stats_for_pair(records, "A", "B") is None


class TestCsv:
    def test_round_trip_is_lossless(self):
        records = [
            BenchRecord("a.smt2", 9, "lift-proof", 6, 12.25, "ok"),
            BenchRecord("b.smt2", 4, "smt-proof", None, 0.5, "error:ParseError"),
            BenchRecord("c.smt2", 3, "lift-selectors", 3, 7.125, "ok"),
        ]
        rows = csv.DictReader(records_to_csv(records).splitlines())
        assert [BenchRecord(r["instance"], int(r["clauses"]), r["method"],
                            int(r["core_size"]) if r["core_size"] else None,
                            float(r["time_ms"]), r["verified"]) for r in rows] == records

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            BenchRecord("x", 3, "m", 4, 1.0, "ok")   # core bigger than input
        with pytest.raises(ValueError):
            BenchRecord("x", 3, "m", 1, -1.0, "ok")  # negative time


class TestTable:
    def test_shape_matches_the_ratio_table_layout(self):
        stats = {
            "smt-proof": RatioStats(Fraction(1), Fraction(103, 100),
                                    Fraction(109, 100), Fraction(11, 10), 42),
            "smt-selectors": None,
        }
        text = format_table(stats, "lift-proof")
        lines = text.splitlines()
        assert lines[0].split() == [
            "core", "size", "ratio", "1st", "quartile", "median", "mean",
            "3rd", "quartile", "n"]
        row = lines[1].split()
        assert row[0] == "smt-proof/lift-proof"
        assert row[1:5] == ["1.00", "1.03", "1.09", "1.10"]
        assert any("smt-selectors/lift-proof" in l for l in lines)


class TestRunBench:
    def test_a_failing_extraction_is_recorded_and_the_rest_stay_ok(self, tmp_path,
                                                                  monkeypatch):
        # the failing bridge keeps its smtcore-bridge-* directory; keep it here
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        exits_1 = f"{shlex.quote(sys.executable)} -c \"import sys; sys.exit(1)\" {{in}} {{out}}"
        records = run_bench([DATA / "contradictory_units.smt2"],
                            ["lift-proof", "lift-external", "smt-proof"],
                            extractor_cmd=exits_1)
        assert [(r.method, r.verified) for r in records] == [
            ("lift-proof", "ok"), ("lift-external", "error:BridgeError"),
            ("smt-proof", "ok")]
        assert records[0].core_size == records[2].core_size == 2
        assert len(list(tmp_path.glob("smtcore-bridge-*"))) == 1

    def test_a_core_that_fails_verification_is_recorded_as_an_extraction_error(
            self, monkeypatch):
        monkeypatch.setattr(cores, "check_refutation", lambda *args: "a planted problem")
        records = run_bench([DATA / "contradictory_units.smt2"], ["lift-proof"])
        assert [(r.core_size, r.verified) for r in records] == [(None, "error:ExtractionError")]
