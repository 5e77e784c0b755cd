"""tools/ab.py, the paired in-process A/B of two source trees: its
arguments, its statistics, and a null comparison of the working tree
with a copy of itself, whose interval must contain 1."""
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("tools_ab", ROOT / "tools" / "ab.py")
ab = sys.modules["tools_ab"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def test_arguments_and_defaults():
    args = ab.parse_args(["--parent", "HEAD~1", "--workload", "lra-core"])
    assert (args.parent, args.workload, args.seed, args.rounds) == ("HEAD~1", "lra-core", 2025, 4)
    args = ab.parse_args(["--parent", "abc", "--workload", "mus-enum", "--seed", "7",
                          "--rounds", "2"])
    assert (args.seed, args.rounds) == (7, 2)


def test_the_change_is_the_working_tree_unless_named():
    assert ab.parse_args(["--parent", "HEAD~1", "--workload", "lra-core"]).change is None
    args = ab.parse_args(["--parent", "3609a69", "--change", "a556235", "--workload", "euf-core"])
    assert (args.parent, args.change, args.workload) == ("3609a69", "a556235", "euf-core")


@pytest.mark.parametrize("argv", [
    ["--workload", "lra-core"],                                   # no parent
    ["--parent", "HEAD"],                                         # no workload
    ["--parent", "HEAD", "--workload", "no-such-workload"],
    ["--parent", "HEAD", "--workload", "lra-core", "--rounds", "0"],
    ["--parent", "HEAD", "--workload", "lra-core", "--rounds", "two"],
    ["--parent", "HEAD", "--workload", "lra-core", "--seed", "1.5"],
])
def test_bad_arguments_exit_with_status_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        ab.parse_args(argv)
    assert exc.value.code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_an_unknown_revision_is_a_clean_error(capsys):
    argv = ["--parent", "no-such-revision", "--workload", "lra-core"]
    assert ab.main(argv) == 2
    assert "no-such-revision" in capsys.readouterr().err


def commit_copy(repo: Path, edit=None) -> Path:
    """A new git repository at `repo` with one commit: a copy of the
    working tree's `src/smtcore` and `perfbench`, changed by `edit(repo)`
    when given, and a BENCHMARK.json of one-second runs; returns `repo`."""
    for part in (("src", "smtcore"), ("perfbench",)):
        shutil.copytree(ROOT.joinpath(*part), repo.joinpath(*part),
                        ignore=shutil.ignore_patterns("__pycache__"))
    if edit is not None:
        edit(repo)
    (repo / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1}))
    git = ["git", "-c", "user.name=ab", "-c", "user.email=ab@example.invalid",
           "-c", "commit.gpgsign=false"]
    for argv in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "copy"]):
        subprocess.run(git + argv, cwd=repo, check=True, capture_output=True)
    return repo


def forget_archived_modules():
    for name in [m for m in sys.modules if m.split(".")[0].startswith("ab_")]:
        del sys.modules[name]


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_an_unknown_change_revision_is_a_clean_error(tmp_path, monkeypatch, capsys):
    # in a repository of its own, where HEAD can be archived whether or not
    # the working tree is a git checkout
    monkeypatch.setattr(ab, "ROOT", commit_copy(tmp_path / "repo"))
    argv = ["--parent", "HEAD", "--change", "no-such-change", "--workload", "lra-core"]
    try:
        assert ab.main(argv) == 2
    finally:
        forget_archived_modules()
    assert "no-such-change" in capsys.readouterr().err


def test_summary_of_a_uniform_speed_up():
    parent = [[2.0, 2.2], [1.0, 1.1], [4.0, 4.4]]
    change = [[0.8 * t for t in times] for times in parent]
    s = ab.summary(parent, change, resamples=200)
    assert s["ratio"] == pytest.approx(0.8)
    assert s["low"] == pytest.approx(0.8) and s["high"] == pytest.approx(0.8)
    assert s["median_ratio"] == pytest.approx(0.8)
    assert s["faster"] == 3 and s["instances"] == 3


@pytest.fixture
def two_copies(tmp_path):
    """The working tree's package and a copy of it, imported side by side,
    each with the working tree's `run_one`."""
    shutil.copytree(ROOT / "src" / "smtcore", tmp_path / "src" / "smtcore",
                    ignore=shutil.ignore_patterns("__pycache__"))
    names = ("ab_null_copy", "ab_null_tree")
    run_one = ab.perfbench_run().run_one
    yield ((ab.load_tree(tmp_path / "src", names[0]), run_one),
           (ab.load_tree(ROOT / "src", names[1]), run_one))
    for name in [m for m in sys.modules if m.split(".")[0] in names]:
        del sys.modules[name]


def test_null_comparison_interval_contains_one(two_copies):
    run = ab.perfbench_run()
    workload = run.WORKLOADS["lra-core"]
    corpus = run.build_corpus(workload, 2025, 1)
    s = ab.summary(*ab.compare(*two_copies, workload, corpus, 4))
    assert s["instances"] == len(corpus) == 6
    assert s["low"] <= 1.0 <= s["high"], s


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_each_revision_runs_its_own_run_one(tmp_path, monkeypatch, capsys):
    """A commit whose `perfbench/run.py` has a `run_one` that fails every
    instance: as the parent it fails against the working tree, and as both
    sides it agrees with itself."""
    def failing_run_one(repo):
        run_py = repo / "perfbench" / "run.py"
        text = run_py.read_text()
        marker = 'def run_one(sm, workload, inst):\n    """The measured per-instance operation."""\n'
        assert text.count(marker) == 1
        run_py.write_text(text.replace(marker, marker + '    raise RuntimeError("archived")\n'))

    monkeypatch.setattr(ab, "ROOT", commit_copy(tmp_path / "repo", failing_run_one))
    argv = ["--parent", "HEAD", "--workload", "lra-core", "--rounds", "1"]
    archived_fails = r"parent gives \['error', 'RuntimeError'\], change gives \['(sat|unsat)'"
    with pytest.raises(AssertionError, match=archived_fails):
        ab.main(argv)
    assert ab.main(argv + ["--change", "HEAD"]) == 0
    assert "signatures equal" in capsys.readouterr().out
    forget_archived_modules()
