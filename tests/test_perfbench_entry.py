"""The benchmark's entry points still run against the current API.

perfbench/run.py and perfbench/workloads.py are loaded as they are, and
`run_one` plus its untimed `check_instance` run on the first instances of
every workload, so an API change that breaks the benchmark fails here
rather than at benchmark time.  A short traced run of every workload also
runs the wrappers that `spans.install` puts around the library.
"""
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


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_is_correct(name, tmp_path):
    # a traced run writes its span table under the working directory
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", name, "--seed", str(SEED),
         "--seconds", "0.5", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), proc.stderr
