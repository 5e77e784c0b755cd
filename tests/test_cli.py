import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from gen import random_difference_formula
from smtcore import dimacs
from smtcore.cli import main
from smtcore.cnf import cnf_convert
from smtcore.cores import METHODS
from smtcore.parser import parse_file, render_instance
from smtcore.sat import sat_solve
from smtcore.smt import smt_solve

NINE_CLAUSES = "nine_clauses.smt2"


def run_cli(*argv, capsys):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSolve:
    def test_nine_clause_unsat_exit_20(self, data_dir, capsys):
        code, out, _ = run_cli("solve", str(data_dir / NINE_CLAUSES), capsys=capsys)
        assert out.strip() == "unsat" and code == 20

    def test_sat_exit_10(self, data_dir, capsys):
        code, out, _ = run_cli("solve", str(data_dir / "sat_unit.smt2"), capsys=capsys)
        assert out.strip() == "sat" and code == 10

    def test_missing_file_exit_1(self, capsys):
        code, _, err = run_cli("solve", "no-such-file.smt2", capsys=capsys)
        assert code == 1 and "error" in err

    def test_parse_error_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.smt2"
        bad.write_text("(assert (< y 0))", encoding="utf-8")
        code, _, err = run_cli("solve", str(bad), capsys=capsys)
        assert code == 1 and "undeclared" in err

    def test_proof_out(self, data_dir, tmp_path, capsys):
        trace = tmp_path / "proof.txt"
        code, _, _ = run_cli("solve", str(data_dir / NINE_CLAUSES),
                             "--proof-out", str(trace), capsys=capsys)
        assert code == 20
        lines = trace.read_text().splitlines()
        assert any(l.startswith("L ") for l in lines)
        assert any(l.startswith("R ") for l in lines)


class TestCore:
    def test_lift_proof_minimize(self, data_dir, capsys):
        code, out, _ = run_cli("core", str(data_dir / NINE_CLAUSES), "--method", "lift-proof",
                               "--minimize", "--verify", capsys=capsys)
        assert code == 20
        lines = out.splitlines()
        assert lines[0] == "unsat"
        got = lines[1].split(":")[1].split()
        assert got in (["1", "2", "3", "4", "5", "6"], ["1", "2", "3", "4", "6", "8"])

    def test_sat_input_prints_sat(self, data_dir, capsys):
        code, out, _ = run_cli("core", str(data_dir / "sat_unit.smt2"), capsys=capsys)
        assert code == 10 and out.strip() == "sat"

    @pytest.mark.parametrize("extra, message", [
        (["--method", "smt-proof", "--fixpoint"], "fixpoint applies only"),
        (["--method", "lift-proof", "--extractor-cmd", "extract {in} {out}"],
         "only to lift-external"),
        (["--method", "smt-selectors", "--extractor-mode", "dimacs-subset"],
         "only to lift-external"),
    ])
    def test_option_the_method_ignores_exits_1(self, data_dir, capsys, extra, message):
        code, out, err = run_cli("core", str(data_dir / NINE_CLAUSES), *extra, capsys=capsys)
        assert code == 1 and out == ""
        assert message in err

    def test_lift_external_defaults_to_self(self, data_dir, capsys):
        code, out, _ = run_cli("core", str(data_dir / NINE_CLAUSES),
                               "--method", "lift-external", "--verify", capsys=capsys)
        assert code == 20
        code2, out2, _ = run_cli("core", str(data_dir / NINE_CLAUSES),
                                 "--method", "lift-proof", capsys=capsys)
        assert out.splitlines()[1] == out2.splitlines()[1]

    def test_lift_external_default_bridge_in_dimacs_subset_mode(self, data_dir, tmp_path,
                                                                capsys, monkeypatch):
        # a failing bridge keeps its smtcore-bridge-* directory; keep it here
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        path = str(data_dir / NINE_CLAUSES)
        code, out, err = run_cli("core", path, "--method", "lift-external",
                                 "--extractor-mode", "dimacs-subset", "--verify",
                                 capsys=capsys)
        assert (code, err) == (20, "")
        code2, out2, _ = run_cli("core", path, "--method", "lift-external", capsys=capsys)
        assert out.splitlines()[1] == out2.splitlines()[1]

    def test_out_writes_a_loadable_instance(self, data_dir, tmp_path, capsys):
        dest = tmp_path / "core.smt2"
        code, _, _ = run_cli("core", str(data_dir / NINE_CLAUSES), "--minimize",
                             "--out", str(dest), capsys=capsys)
        assert code == 20
        code2, out2, _ = run_cli("solve", str(dest), capsys=capsys)
        assert code2 == 20 and out2.strip() == "unsat"

    def test_out_writes_coefficients_past_the_digit_limit(self, tmp_path, capsys):
        big = "7" * 3000  # its square has 6,000 digits, past the interpreter's 4,300
        src = tmp_path / "big.smt2"
        src.write_text(f"(declare-fun x () Real)(assert (< (* {big} {big} x) 1))"
                       "(assert (> x 1))", encoding="utf-8")
        dest = tmp_path / "core.smt2"
        code, out, err = run_cli("core", str(src), "--out", str(dest), capsys=capsys)
        assert (code, out.splitlines()[0], err) == (20, "unsat", "")
        written = cnf_convert(parse_file(str(dest)))
        original = cnf_convert(parse_file(str(src)))
        assert list(written.atoms.items()) == list(original.atoms.items())
        code2, out2, _ = run_cli("solve", str(dest), capsys=capsys)
        assert code2 == 20 and out2.strip() == "unsat"

    def test_all_methods_give_verified_cores(self, data_dir, capsys):
        for method in ("lift-proof", "lift-selectors", "lift-external",
                       "smt-proof", "smt-selectors"):
            code, out, _ = run_cli("core", str(data_dir / NINE_CLAUSES), "--method", method,
                                   "--verify", capsys=capsys)
            assert code == 20, method
            assert out.splitlines()[0] == "unsat"

    def test_budget_bounds_minimization_too(self, tmp_path):
        # the lift-proof route of this formula takes 11 conflicts, one of its
        # minimization trials more
        formula = random_difference_formula(random.Random(0), 12, 60, 2)
        logic, rest = render_instance(formula).split("\n", 1)
        decls = "".join(f"(declare-fun r{i} () Real)\n" for i in range(12))
        path = tmp_path / "difference.smt2"
        path.write_text(f"{logic}\n{decls}{rest}", encoding="utf-8")

        def core(*extra):
            return subprocess.run([sys.executable, "-m", "smtcore", "core", str(path),
                                   "--budget", "11", *extra], capture_output=True, text=True)

        assert core().returncode == 20
        proc = core("--minimize")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: conflict budget exceeded before a verdict\n"

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_minimize_verify_gives_a_minimal_core(self, data_dir, capsys, method):
        path = str(data_dir / NINE_CLAUSES)
        code, out, _ = run_cli("core", path, "--method", method, "--minimize", "--verify",
                               capsys=capsys)
        assert code == 20
        core = [int(i) - 1 for i in out.splitlines()[1].split(":")[1].split()]
        formula = cnf_convert(parse_file(path))
        assert smt_solve(formula.restrict(core))[0].status == "unsat"
        for i in core:
            rest = [j for j in core if j != i]
            assert smt_solve(formula.restrict(rest))[0].status == "sat", (method, i)


class TestMalformedInput:
    def test_non_integer_budget_variable(self, data_dir, capsys, monkeypatch):
        monkeypatch.setenv("SMTCORE_BUDGET", "abc")
        code, _, err = run_cli("solve", str(data_dir / NINE_CLAUSES), capsys=capsys)
        assert code == 1 and "SMTCORE_BUDGET" in err

    def test_negative_budget_variable(self, data_dir, capsys, monkeypatch):
        monkeypatch.setenv("SMTCORE_BUDGET", "-1")
        code, out, err = run_cli("core", str(data_dir / NINE_CLAUSES), capsys=capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "SMTCORE_BUDGET" in err

    def test_deep_nesting(self, tmp_path, capsys):
        deep = tmp_path / "deep.smt2"
        depth = 3000
        deep.write_text("(declare-fun p () Bool)(assert " + "(not " * depth + "p"
                        + ")" * depth + ")", encoding="utf-8")
        code, _, err = run_cli("solve", str(deep), capsys=capsys)
        assert code == 1 and "nesting" in err

    def test_flat_implication_gives_a_verdict(self, tmp_path, capsys):
        n = 1200
        valid = tmp_path / "valid.smt2"
        valid.write_text("(declare-fun p () Bool)(assert (=>" + " p" * n + "))", encoding="utf-8")
        code, out, err = run_cli("core", str(valid), capsys=capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "tautological" in err
        props = [f"p{i}" for i in range(n)]
        chain = tmp_path / "chain.smt2"
        chain.write_text("".join(f"(declare-fun {p} () Bool)" for p in props)
                         + f"(assert (=> {' '.join(props)}))"
                         + f"(assert (and {' '.join(props[:-1])}))"
                         + f"(assert (not {props[-1]}))", encoding="utf-8")
        code, out, _ = run_cli("core", str(chain), capsys=capsys)
        assert code == 20
        assert out.splitlines()[2] == "core-assertions: 1 2 3"

    @pytest.mark.parametrize("argv", [[], ["core"], ["core", "f.smt2", "--method", "magic"],
                                      ["solve", "f.smt2", "--budget", "many"],
                                      ["solve", "f.smt2", "--budget", "-1"],
                                      ["core", "f.smt2", "--budget", "-1"],
                                      ["bench", "d", "--budget", "-1"],
                                      ["allmus", "f.smt2", "--cap", "0"],
                                      ["allmus", "f.smt2", "--cap", "-3"]])
    def test_usage_errors_exit_1(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "usage" in capsys.readouterr().err


class TestAllmus:
    def test_nine_clause_blocks(self, data_dir, capsys):
        code, out, _ = run_cli("allmus", str(data_dir / NINE_CLAUSES), capsys=capsys)
        assert code == 20
        lines = out.splitlines()
        assert lines[0] == "unsat"
        mcs = [l for l in lines if l.startswith("MCS:")]
        mus = [l for l in lines if l.startswith("MUS:")]
        assert mcs == ["MCS: 1", "MCS: 2", "MCS: 3", "MCS: 4", "MCS: 5 8", "MCS: 6"]
        assert mus == ["MUS: 1 2 3 4 5 6", "MUS: 1 2 3 4 6 8"]

    def test_sat_instance(self, data_dir, capsys):
        code, out, _ = run_cli("allmus", str(data_dir / "sat_unit.smt2"), capsys=capsys)
        assert code == 10 and out.strip() == "sat"

    def test_contradictory_units(self, data_dir, capsys):
        code, out, _ = run_cli("allmus", str(data_dir / "contradictory_units.smt2"),
                               capsys=capsys)
        assert code == 20
        lines = out.splitlines()
        assert lines[1:] == ["MCS: 1", "MCS: 2", "MUS: 1 2"]

    def test_cap_exits_2_with_banner(self, data_dir, capsys):
        code, out, _ = run_cli("allmus", str(data_dir / NINE_CLAUSES), "--cap", "2",
                               capsys=capsys)
        assert code == 2 and "INCOMPLETE" in out


class TestVerify:
    def test_good_core(self, data_dir, tmp_path, capsys):
        core = tmp_path / "core.txt"
        core.write_text("1\n2\n3\n4\n5\n6\n", encoding="utf-8")
        code, out, _ = run_cli("verify", str(data_dir / NINE_CLAUSES), "--core", str(core),
                               capsys=capsys)
        assert code == 0 and out.strip() == "ok"

    def test_bad_core(self, data_dir, tmp_path, capsys):
        core = tmp_path / "core.txt"
        core.write_text("1\n2\n", encoding="utf-8")
        code, out, _ = run_cli("verify", str(data_dir / NINE_CLAUSES), "--core", str(core),
                               capsys=capsys)
        assert code == 1 and "violation" in out

    def test_blank_lines_are_skipped(self, data_dir, tmp_path, capsys):
        core = tmp_path / "core.txt"
        core.write_text("\n1\n2\n  \n3\n4\n5\n6\n\n", encoding="utf-8")
        code, out, _ = run_cli("verify", str(data_dir / NINE_CLAUSES), "--core", str(core),
                               capsys=capsys)
        assert code == 0 and out.strip() == "ok"

    def test_out_of_range_index_names_its_line(self, data_dir, tmp_path, capsys):
        core = tmp_path / "core.txt"
        core.write_text("1\n\n10\n", encoding="utf-8")
        code, out, _ = run_cli("verify", str(data_dir / NINE_CLAUSES), "--core", str(core),
                               capsys=capsys)
        assert code == 1
        assert out.strip() == "violation: line 3: index 10 out of range"


class TestBench:
    def test_csv_and_table(self, data_dir, tmp_path, capsys):
        csv_path = tmp_path / "bench.csv"
        code, out, _ = run_cli(
            "bench", str(data_dir), "--methods", "lift-proof,smt-proof",
            "--baseline", "lift-proof", "--csv", str(csv_path), capsys=capsys)
        assert code == 0
        from smtcore.bench import records_from_csv
        records = records_from_csv(csv_path.read_text())
        instances = {r.instance for r in records}
        assert len(instances) == len(list(Path(data_dir).glob("*.smt2")))
        assert "core size ratio" in out
        assert "smt-proof/lift-proof" in out

    def test_unknown_method_rejected(self, data_dir, capsys):
        code, _, err = run_cli("bench", str(data_dir), "--methods", "magic",
                               capsys=capsys)
        assert code == 1 and "unknown method" in err

    def test_baseline_outside_the_methods_rejected(self, data_dir, capsys):
        code, out, err = run_cli("bench", str(data_dir), "--methods", "smt-proof",
                                 "--baseline", "lift-proof", capsys=capsys)
        assert code == 1 and out == ""
        assert "baseline 'lift-proof' is not among the methods" in err

    def test_per_instance_failures_never_abort_the_run(self, data_dir, tmp_path, capsys):
        work = tmp_path / "corpus"
        work.mkdir()
        (work / "good.smt2").write_text(
            (Path(data_dir) / "contradictory_units.smt2").read_text())
        (work / "broken.smt2").write_text("(assert (< y 0))")  # undeclared symbol
        csv_path = tmp_path / "out.csv"
        code, out, _ = run_cli("bench", str(work), "--methods", "lift-proof",
                               "--baseline", "lift-proof", "--csv", str(csv_path),
                               capsys=capsys)
        assert code == 0
        from smtcore.bench import records_from_csv
        records = records_from_csv(csv_path.read_text())
        by_instance = {Path(r.instance).name: r for r in records}
        assert by_instance["good.smt2"].verified == "ok"
        assert by_instance["broken.smt2"].verified.startswith("error:")


class TestBooleanCoreCommand:
    def test_extractor_surface(self, tmp_path, capsys):
        cnf = tmp_path / "in.cnf"
        cnf.write_text("p cnf 2 3\n1 0\n-1 0\n2 0\n", encoding="utf-8")
        out_path = tmp_path / "core.txt"
        code, _, _ = run_cli("boolean-core", str(cnf), str(out_path), capsys=capsys)
        assert code == 0
        assert out_path.read_text().split() == ["1", "2"]

    def test_dimacs_subset_output_reads_back_unsat(self, tmp_path, capsys):
        text = "p cnf 2 4\n1 2 0\n-1 0\n2 -1 0\n-2 0\n"
        cnf = tmp_path / "in.cnf"
        cnf.write_text(text, encoding="utf-8")
        out_path = tmp_path / "core.cnf"
        code, _, _ = run_cli("boolean-core", str(cnf), str(out_path),
                             "--mode", "dimacs-subset", capsys=capsys)
        assert code == 0
        doc = dimacs.parse_dimacs(text)
        core = dimacs.read_core(out_path.read_text(), doc, "dimacs-subset")
        assert core <= set(range(4))
        assert sat_solve([doc.clauses[i] for i in sorted(core)]).status == "unsat"

    def test_subprocess_invocation_matches_in_process(self, tmp_path):
        cnf = tmp_path / "in.cnf"
        cnf.write_text("p cnf 2 3\n1 0\n-1 0\n2 0\n", encoding="utf-8")
        out_path = tmp_path / "core.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "smtcore", "boolean-core", str(cnf), str(out_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert out_path.read_text().split() == ["1", "2"]

    def test_satisfiable_dimacs_fails(self, tmp_path, capsys):
        cnf = tmp_path / "in.cnf"
        cnf.write_text("p cnf 2 1\n1 2 0\n", encoding="utf-8")
        code, _, err = run_cli("boolean-core", str(cnf), str(tmp_path / "o"),
                               capsys=capsys)
        assert code == 1 and "satisfiable" in err
