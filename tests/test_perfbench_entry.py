"""The benchmark's entry points still run against the current API.

perfbench/run.py and perfbench/workloads.py are loaded as they are, and
`run_one` plus its untimed `check_instance` run on the first instances of
every workload, so an API change that breaks the benchmark fails here
rather than at benchmark time.  A short traced run of every workload also
runs the wrappers that `spans.install` puts around the library.

That traced run also pins the search on the benchmark's own corpora: the
run's count metrics (those whose unit in BENCHMARK.json is "count") are
reduced to one SHA-256 digest per workload, which must equal
`COUNT_DIGESTS`.  A search-preserving change keeps them.  A change that
alters the search, a workload's corpus or the set of count metrics
re-pins them, and so does a verification change that stops calling a
wrapped theory method, whose calls are counts too.  To re-pin, say in
the change's notes why the counts moved, and recompute every digest with

    PYTHONPATH=src:tests python -c "import tempfile, test_perfbench_entry as t; \\
        print({n: t.count_digest(t.traced_run(n, tempfile.mkdtemp())) for n in t.COUNT_DIGESTS})"
"""
import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import smtcore

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402

INSTANCES = 3
SEED = 5

_BENCHMARK = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
COUNT_METRICS = sorted(m["name"] for m in _BENCHMARK["end_to_end"] + _BENCHMARK["per_layer"]
                       if m["unit"] == "count")
COUNT_DIGESTS = {
    "euf-core": "e33bbddc1b0c9b2bbad25d7d89a2aa976b86eb5c38c8ef1dce9bf52c0e55a644",
    "lra-core": "749631c0abdf6e1eb710b6b2a8e251b7abb0cdc7c6cb92edd542a0a599983b4e",
    "mus-enum": "4087aa768bd239841a04674c408399bf7dfee2b07c6d7a89aba12d4c33dea20f",
    "prop-core": "05bf0f6af84307cd14d5b0c02fe1af08f88b8f1da79cb21dcfb60ab3ecbd364f",
}

# run.py is loaded under a name of its own: "run" is too generic to claim
_spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
run = sys.modules["perfbench_run"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_run_one_and_check_instance(name):
    workload = workloads.WORKLOADS[name]
    corpus = workloads.build_corpus(workload, SEED, INSTANCES / workload.per_second)
    assert len(corpus) == INSTANCES
    for inst in corpus:
        outcome = run.run_one(smtcore, workload, inst)
        run.check_instance(smtcore, workload, inst, outcome)
        assert run.signature(outcome)[0] in ("sat", "unsat")


def count_digest(result: dict) -> str:
    """SHA-256 of the count metrics of a run's result line, by name."""
    counts = {name: result["metrics"][name]["value"] for name in COUNT_METRICS}
    return hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest()


def traced_run(name: str, cwd) -> dict:
    """The result line of a short traced run of one workload; the run
    writes its span table under `cwd`."""
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", name, "--seed", str(SEED),
         "--seconds", "0.5", "--trace", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_is_correct(name, tmp_path):
    result = traced_run(name, tmp_path)
    assert (result["correct"], result["failed"]) == (True, 0)
    assert count_digest(result) == COUNT_DIGESTS[name]
