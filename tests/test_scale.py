"""tools/scale.py, the seeded scale cases timed in fresh child processes:
its arguments, its checks, and one tiny case run end to end."""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("tools_scale", ROOT / "tools" / "scale.py")
scale = sys.modules["tools_scale"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scale)


def test_arguments_and_defaults():
    args = scale.parse_args([])
    assert (args.case, args.src, args.json) == (None, ROOT / "src", None)
    args = scale.parse_args(["--case", "php8x7", "--case", "ite-12", "--src", str(ROOT / "src")])
    assert args.case == ["php8x7", "ite-12"]


@pytest.mark.parametrize("argv", [
    ["--case", "no-such-case"],
    ["--case"],
    ["--src", "no/such/tree"],
    ["--seed", "3"],
])
def test_bad_arguments_exit_with_status_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        scale.parse_args(argv)
    assert exc.value.code == 2
    assert "error" in capsys.readouterr().err


def test_the_cases_are_the_fifteen_named_ones():
    assert list(scale.CASES) == [
        "solve-40x200w3-s0", "solve-40x200w3-s1",
        "extract-12x60w2-s0", "extract-12x60w2-s3", "extract-12x60w2-s7",
        "minimize-12x60w2-s0", "minimize-12x60w2-s3", "minimize-12x60w2-s7",
        "mcs-uf8x40-s0", "mcs-uf8x40-s4", "mhs-uf8x40-s0", "mhs-uf8x40-s4",
        "php8x7", "php8x7-proof", "ite-12"]


def test_the_ite_chain_nests_one_ite_per_level():
    text = scale.ite_chain(2)
    assert "(assert (ite (ite p0 p1 q1) p2 q2))" in text
    assert text.count("declare-fun") == 5


def test_a_wrong_answer_fails_its_check():
    from smtcore.sat import SatVerdict
    _call, check = scale.prepare("php", (2, 3, 4, 1, False))
    with pytest.raises(scale.CheckFailed, match="not unsat"):
        check(SatVerdict("sat"))


def test_a_tiny_case_runs_in_a_child_and_is_checked(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(scale.CASES, "tiny-minimize", ("minimize", (6, 24, 2, 0)))
    out = tmp_path / "rows.json"
    assert scale.main(["--case", "tiny-minimize", "--json", str(out)]) == 0
    assert "tiny-minimize" in capsys.readouterr().out
    (row,) = json.loads(out.read_text())
    assert row["case"] == "tiny-minimize"
    assert row["cpu_s"] > 0 and row["nominal_s"] > 0
    assert row["result"].startswith("core of ")


def test_a_failing_child_is_reported():
    row = scale.run_case("no-such-kind", (), ROOT / "src")
    assert "unknown case kind" in row["error"]
