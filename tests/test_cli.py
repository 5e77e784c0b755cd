import csv
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from gen import pigeonhole_cnf, prop_formula, random_difference_formula
from smtcore import cores, dimacs
from smtcore.cli import main
from smtcore.cnf import cnf_convert
from smtcore.cores import METHODS, self_extractor_command
from smtcore.parser import parse_file, render_instance
from smtcore.sat import sat_solve
from smtcore.smt import SmtSolver, smt_solve

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

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        path = tmp_path / "bom.smt2"
        path.write_bytes(b"\xef\xbb\xbf(set-logic QF_UF)(declare-fun a () Bool)"
                         b"(assert a)(assert (not a))")
        code, out, err = run_cli("solve", str(path), capsys=capsys)
        assert (code, out, err) == (20, "unsat\n", "")

    def test_budget_out_is_unknown_exit_1(self, tmp_path, capsys):
        # pigeonhole 3/2 takes a conflict to refute
        path = tmp_path / "php.smt2"
        path.write_text(render_instance(prop_formula(pigeonhole_cnf(random.Random(0), 2, 0, 0)[0])),
                        encoding="utf-8")
        code, out, err = run_cli("solve", str(path), "--budget", "0", capsys=capsys)
        assert (code, out, err) == (1, "unknown\n", "")

    def test_budget_does_not_cut_a_refutation_that_needs_no_search(self, tmp_path, capsys):
        path = tmp_path / "units.smt2"
        path.write_text("(declare-fun p () Bool)(assert p)(assert (not p))", encoding="utf-8")
        code, out, err = run_cli("solve", str(path), "--budget", "0", capsys=capsys)
        assert (code, out, err) == (20, "unsat\n", "")

    def test_proof_out(self, data_dir, tmp_path, capsys):
        trace = tmp_path / "proof.txt"
        code, _, _ = run_cli("solve", str(data_dir / NINE_CLAUSES),
                             "--proof-out", str(trace), capsys=capsys)
        assert code == 20
        lines = trace.read_text().splitlines()
        # one line a node: "L <clause id>" a leaf, "C <first> <pivot> <node> ..."
        # the chain of one learned clause or of the empty clause
        engine = SmtSolver(cnf_convert(parse_file(str(data_dir / NINE_CLAUSES))), log_proof=True)
        assert engine.solve().status == "unsat"
        nodes = engine.sat.proof.nodes
        assert [l.split()[0] for l in lines] == ["L" if n[0] == "leaf" else "C" for n in nodes]
        assert sum(l.startswith("C ") for l in lines) == sum(n[0] == "chain" for n in nodes) >= 2


class TestCore:
    def test_lift_proof_minimize(self, data_dir, capsys):
        code, out, _ = run_cli("core", str(data_dir / NINE_CLAUSES), "--method", "lift-proof",
                               "--minimize", "--verify", capsys=capsys)
        assert code == 20
        lines = out.splitlines()
        assert lines[0] == "unsat"
        got = lines[1].split(":")[1].split()
        assert got in (["1", "2", "3", "4", "5", "6"], ["1", "2", "3", "4", "6", "8"])

    @pytest.mark.parametrize("name, check", [(NINE_CLAUSES, "check_refutation")])
    def test_minimize_verify_prints_the_lines_of_minimize(self, data_dir, capsys, monkeypatch,
                                                          name, check):
        path = str(data_dir / name)
        code, plain, _ = run_cli("core", path, "--minimize", capsys=capsys)
        assert code == 20
        called = []
        for fn in ("check_core", "check_refutation"):
            monkeypatch.setattr(cores, fn, lambda *args, fn=fn, real=getattr(cores, fn):
                                called.append(fn) or real(*args))
        code, verified, _ = run_cli("core", path, "--minimize", "--verify", capsys=capsys)
        assert (code, verified) == (20, plain)
        assert called == [check]

    def test_sat_input_prints_sat(self, data_dir, capsys):
        code, out, _ = run_cli("core", str(data_dir / "sat_unit.smt2"), capsys=capsys)
        assert code == 10 and out.strip() == "sat"

    @pytest.mark.parametrize("extra, message", [
        (["--method", "smt-proof", "--fixpoint"], "fixpoint applies only"),
        (["--method", "lift-proof", "--extractor-cmd", "extract {in} {out}"],
         "only to lift-external"),
        (["--method", "smt-selectors", "--extractor-cmd", "extract {in} {out}"],
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
                                 "--extractor-cmd", self_extractor_command("dimacs-subset"),
                                 "--verify", capsys=capsys)
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

    def test_out_that_cannot_be_written_prints_no_answer(self, data_dir, tmp_path, capsys):
        dest = tmp_path / "missing" / "core.smt2"
        code, out, err = run_cli("core", str(data_dir / NINE_CLAUSES), "--out", str(dest),
                                 capsys=capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and str(dest) in err
        assert not dest.exists()

    def test_out_writes_the_auxiliaries_under_fresh_names(self, tmp_path, capsys):
        """A core with CNF auxiliaries is written with each under the first
        `aux!N` that no declared symbol takes, since SMT-LIB reserves the
        names the converter gives them."""
        src = tmp_path / "aux.smt2"
        src.write_text("(declare-fun aux!0 () Bool)"
                       + "".join(f"(declare-fun {c} () Bool)" for c in "abcdefgh")
                       + "(assert (or (and a b) (and c d) (and e f) (and g h)))"
                         "(assert (not aux!0))(assert (not a))(assert (not c))"
                         "(assert (not e))(assert (not g))", encoding="utf-8")
        dest = tmp_path / "core.smt2"
        code, _, _ = run_cli("core", str(src), "--out", str(dest), capsys=capsys)
        assert code == 20
        written = dest.read_text(encoding="utf-8")
        assert "@" not in written
        assert [line for line in written.splitlines() if "aux!" in line][:5] == [
            f"(declare-fun aux!{k} () Bool)" for k in range(5)]
        code, out, _ = run_cli("solve", str(dest), capsys=capsys)
        assert (code, out) == (20, "unsat\n")

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
        # the lift-proof route of this formula takes 10 conflicts, one of its
        # minimization trials more
        formula = random_difference_formula(random.Random(3), 12, 60, 2)
        path = tmp_path / "difference.smt2"
        path.write_text(render_instance(formula), encoding="utf-8")

        def core(*extra):
            return subprocess.run([sys.executable, "-m", "smtcore", "core", str(path),
                                   "--budget", "10", *extra], capture_output=True, text=True)

        assert core().returncode == 20
        proc = core("--minimize")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: conflict budget exceeded before a verdict\n"

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_propositional_input_under_a_budget(self, tmp_path, capsys, method):
        sat = tmp_path / "sat.smt2"
        sat.write_text("(declare-fun a () Bool) (declare-fun b () Bool)\n"
                       "(assert (or a b)) (assert (not a)) (assert (or b (not a)))\n",
                       encoding="utf-8")
        # pigeonhole 3/2: three pigeons, two holes
        names = [f"p{i}{h}" for i in range(3) for h in range(2)]
        php = tmp_path / "php.smt2"
        php.write_text("".join(f"(declare-fun {n} () Bool)\n" for n in names)
                       + "".join(f"(assert (or p{i}0 p{i}1))\n" for i in range(3))
                       + "".join(f"(assert (or (not p{i}{h}) (not p{j}{h})))\n"
                                 for h in range(2) for i in range(3) for j in range(i + 1, 3)),
                       encoding="utf-8")
        for budget in ("0", "100"):
            code, out, _ = run_cli("core", str(sat), "--method", method, "--budget", budget,
                                   capsys=capsys)
            assert (code, out) == (10, "sat\n")
        code, out, err = run_cli("core", str(php), "--method", method, "--budget", "0",
                                 capsys=capsys)
        assert (code, out) == (1, "")
        assert err == "error: conflict budget exceeded before a verdict\n"
        code, out, _ = run_cli("core", str(php), "--method", method, "--budget", "100",
                               "--verify", capsys=capsys)
        assert code == 20 and out.splitlines()[1] == "core-clauses: " + " ".join(
            str(i) for i in range(1, 10))

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

    def test_mixed_euf_and_lra_atoms_exit_1(self, tmp_path, capsys):
        mixed = tmp_path / "mixed.smt2"
        mixed.write_text("(declare-sort U 0)(declare-fun a () U)(declare-fun b () U)"
                         "(declare-fun x () Real)(assert (= a b))(assert (< x 0))",
                         encoding="utf-8")
        code, out, err = run_cli("core", str(mixed), capsys=capsys)
        assert (code, out) == (1, "")
        assert err == "error: formula mixes EUF and LRA atoms; theory combination is unsupported\n"

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
        # a hitting set of two of the six MCSes is no core
        assert not [l for l in out.splitlines() if l.startswith("MUS:")]

    def test_budget_out_before_a_verdict_is_unknown(self, data_dir, capsys):
        code, out, _ = run_cli("allmus", str(data_dir / NINE_CLAUSES), "--budget", "0",
                               capsys=capsys)
        assert (code, out) == (2, "unknown\n")

    def test_budget_out_mid_enumeration_prints_the_partial_lists(self, data_dir, capsys):
        # the first verdict takes three conflicts, the costliest solve of
        # the enumeration five
        code, out, _ = run_cli("allmus", str(data_dir / NINE_CLAUSES), "--budget", "4",
                               capsys=capsys)
        lines = out.splitlines()
        assert code == 2 and lines[:2] == ["unsat", "MCS: 1"]
        assert lines[-1].startswith("INCOMPLETE")
        assert not [l for l in lines if l.startswith("MUS:")]
        code, out, _ = run_cli("allmus", str(data_dir / NINE_CLAUSES), "--budget", "5",
                               capsys=capsys)
        assert code == 20 and "INCOMPLETE" not in out

    def test_budget_defaults_to_the_environment(self, data_dir, capsys, monkeypatch):
        monkeypatch.setenv("SMTCORE_BUDGET", "0")
        code, out, _ = run_cli("allmus", str(data_dir / NINE_CLAUSES), capsys=capsys)
        assert (code, out) == (2, "unknown\n")


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

    def test_byte_order_mark_is_skipped(self, data_dir, tmp_path, capsys):
        core = tmp_path / "core.txt"
        core.write_text("1\n2\n3\n4\n5\n6\n", encoding="utf-8-sig")
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

    def test_non_integer_line_names_its_line(self, data_dir, tmp_path, capsys):
        core = tmp_path / "core.txt"
        core.write_text("1\n\nx\n", encoding="utf-8")
        code, out, err = run_cli("verify", str(data_dir / NINE_CLAUSES), "--core", str(core),
                                 capsys=capsys)
        assert code == 1 and out == ""
        assert err.strip() == "error: line 3: not a clause index: 'x'"


class TestBench:
    def test_csv_and_table(self, data_dir, tmp_path, capsys):
        csv_path = tmp_path / "bench.csv"
        code, out, _ = run_cli(
            "bench", str(data_dir), "--methods", "lift-proof,smt-proof",
            "--baseline", "lift-proof", "--csv", str(csv_path), capsys=capsys)
        assert code == 0
        records = list(csv.DictReader(csv_path.read_text().splitlines()))
        instances = {r["instance"] for r in records}
        assert len(instances) == len(list(Path(data_dir).glob("*.smt2")))
        assert "core size ratio" in out
        assert "smt-proof/lift-proof" in out

    def test_csv_goes_to_standard_output_before_the_table(self, data_dir, capsys):
        code, out, _ = run_cli("bench", str(data_dir), "--methods", "lift-proof,smt-proof",
                               "--baseline", "lift-proof", capsys=capsys)
        assert code == 0
        lines = out.splitlines()
        table = next(i for i, line in enumerate(lines) if line.startswith("core size ratio"))
        records = list(csv.DictReader(lines[:table]))
        assert [(Path(r["instance"]).name, r["method"]) for r in records] == [
            (path.name, method) for path in sorted(Path(data_dir).glob("*.smt2"))
            for method in ("lift-proof", "smt-proof")]
        assert "smt-proof/lift-proof" in lines[table + 1]

    def test_unknown_method_rejected(self, data_dir, capsys):
        code, _, err = run_cli("bench", str(data_dir), "--methods", "magic",
                               capsys=capsys)
        assert code == 1 and "unknown method" in err

    def test_baseline_outside_the_methods_rejected(self, data_dir, capsys):
        code, out, err = run_cli("bench", str(data_dir), "--methods", "smt-proof",
                                 "--baseline", "lift-proof", capsys=capsys)
        assert code == 1 and out == ""
        assert "baseline 'lift-proof' is not among the methods" in err

    @pytest.mark.parametrize("kind, problem", [
        ("missing", "does not exist"),
        ("file", "is not a directory"),
        ("no instances", "holds no *.smt2 file"),
    ])
    def test_a_directory_without_instances_exits_1(self, tmp_path, capsys, kind, problem):
        (tmp_path / "notes.txt").write_text("x", encoding="utf-8")
        path = {"missing": tmp_path / "missing", "file": tmp_path / "notes.txt",
                "no instances": tmp_path}[kind]
        code, out, err = run_cli("bench", str(path), capsys=capsys)
        assert code == 1 and out == ""
        assert err == f"error: {path} {problem}\n"

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
        records = csv.DictReader(csv_path.read_text().splitlines())
        by_instance = {Path(r["instance"]).name: r for r in records}
        assert by_instance["good.smt2"]["verified"] == "ok"
        assert by_instance["broken.smt2"]["verified"].startswith("error:")


class TestBooleanCoreCommand:
    # the second header declares more variables than its clauses name
    @pytest.mark.parametrize("header", ["p cnf 2 3", "p cnf 9 3"], ids=["exact", "wide"])
    @pytest.mark.parametrize("method", ["proof", "selectors"])
    def test_extractor_surface(self, tmp_path, capsys, method, header):
        cnf = tmp_path / "in.cnf"
        cnf.write_text(f"{header}\n1 0\n-1 0\n2 0\n", encoding="utf-8")
        out_path = tmp_path / "core.txt"
        code, _, _ = run_cli("boolean-core", str(cnf), str(out_path), "--method", method,
                             capsys=capsys)
        assert code == 0
        assert out_path.read_text().split() == ["1", "2"]

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        cnf = tmp_path / "in.cnf"
        cnf.write_text("p cnf 2 3\n1 0\n-1 0\n2 0\n", encoding="utf-8-sig")
        out_path = tmp_path / "core.txt"
        code, _, err = run_cli("boolean-core", str(cnf), str(out_path), capsys=capsys)
        assert (code, err) == (0, "")
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
        core = dimacs.read_core(out_path.read_text(), doc)
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

    @pytest.mark.parametrize("method", ["proof", "selectors"])
    def test_satisfiable_dimacs_fails(self, tmp_path, capsys, method):
        cnf = tmp_path / "in.cnf"
        cnf.write_text("p cnf 2 1\n1 2 0\n", encoding="utf-8")
        code, _, err = run_cli("boolean-core", str(cnf), str(tmp_path / "o"),
                               "--method", method, capsys=capsys)
        assert code == 1 and "satisfiable" in err


def _seeded_template(seed):
    """A small file over the propositions {0}..{4} and three real bounds.
    Each assertion is a disjunction of one to four two-literal conjunctions
    over distinct atoms; four of them would distribute to 16 clauses, more
    than CNF conversion distributes, so they get auxiliaries."""
    rng = random.Random(seed)
    atoms = [f"{{{i}}}" for i in range(5)] + ["(< x y)", "(<= y 0)", "(< 0 x)"]

    def assertion():
        n = rng.randint(1, 4)
        picked = iter(rng.sample(atoms, 2 * n))
        conjuncts = [" ".join(a if rng.random() < 0.6 else f"(not {a})"
                              for a in (next(picked), next(picked))) for _ in range(n)]
        return f"(or {' '.join(f'(and {c})' for c in conjuncts)})"

    decls = "".join(f"(declare-fun {{{i}}} () Bool)" for i in range(5))
    body = "".join(f"(assert {assertion()})" for _ in range(rng.randint(3, 7)))
    return ("(declare-fun x () Real)(declare-fun y () Real)" + decls + body
            + "".join(f"(assert (not {{{i}}}))" for i in range(5) if rng.random() < 0.3))


class TestPropositionNames:
    """The verdict and the cores do not depend on what the propositions are
    called, even when a name is one `core --out` could write for an
    auxiliary of its own.  A name the converter could pick, which starts
    with '@' as SMT-LIB reserves, cannot be declared."""
    PLAIN = ("p0", "p1", "p2", "p3", "p4")
    LOOKALIKE = ("aux!0", "cnf!0", "sel!0", "aux!1", "amk!k1")
    CLASHING = ("@cnf!0", "@sel!0", "@sel!1", "@amk!k1", "@cnf!1")
    LETTERS = "abcdefgh"
    TEMPLATES = {
        # a declared selector name
        "selector": "(declare-fun {0} () Bool)(declare-fun {1} () Bool)"
                    "(assert {0})(assert (not {1}))",
        # a declared auxiliary name: the disjunction of conjunctions
        # is too wide to distribute, so it gets auxiliaries
        "auxiliary": "(declare-fun {0} () Bool)"
                     + "".join(f"(declare-fun {c} () Bool)" for c in LETTERS)
                     + "(assert (or (and a b) (and c d) (and e f) (and g h)))"
                       "(assert (not {0}))(assert a)(assert b)",
        **{f"seed{s}": _seeded_template(s) for s in (0, 1, 6, 7, 13, 22)},
    }
    COMMANDS = (("solve",), ("core", "--minimize", "--verify"), ("allmus",))

    def _run(self, tmp_path, capsys, text, command):
        path = tmp_path / "names.smt2"
        path.write_text(text, encoding="utf-8")
        return run_cli(command[0], str(path), *command[1:], capsys=capsys)

    @pytest.mark.parametrize("name", sorted(TEMPLATES))
    def test_renaming_changes_nothing(self, tmp_path, capsys, name):
        template = self.TEMPLATES[name]
        for command in self.COMMANDS:
            plain = self._run(tmp_path, capsys, template.format(*self.PLAIN), command)
            lookalike = self._run(tmp_path, capsys, template.format(*self.LOOKALIKE), command)
            assert plain[0] in (10, 20), (command, plain)
            assert lookalike[:2] == plain[:2], command

    @pytest.mark.parametrize("name", sorted(TEMPLATES))
    def test_a_reserved_name_is_a_parse_error(self, tmp_path, capsys, name):
        text = self.TEMPLATES[name].format(*self.CLASHING)
        # the first declaration of a reserved name is the one reported
        first = min((text.find(f"(declare-fun {n} "), n) for n in self.CLASHING
                    if f"(declare-fun {n} " in text)
        col = first[0] + len("(declare-fun ") + 1
        for command in self.COMMANDS:
            code, out, err = self._run(tmp_path, capsys, text, command)
            assert (code, out) == (1, ""), command
            assert f"1:{col}: symbol {first[1]!r} is reserved" in err, command
