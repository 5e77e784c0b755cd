"""Determinism and seed-option behavior."""
import random
import subprocess
import sys
from pathlib import Path

from gen import random_formula
from oracles import brute_force_smt_sat
from smtcore.cnf import cnf_convert
from smtcore.cores import extract_core
from smtcore.dimacs import document_for, render
from smtcore.parser import parse_file
from smtcore.smt import SmtSolver, lifted_clauses, smt_solve

DATA = Path(__file__).parent / "data"


def _pipeline(path):
    formula = cnf_convert(parse_file(str(path)))
    verdict, store = smt_solve(formula)
    dim = render(document_for(lifted_clauses(formula, store)))
    report = extract_core(formula, "lift-proof", minimize=True)
    return dim, report.core


def test_pipeline_is_identical_across_runs_in_process():
    a = _pipeline(DATA / "nine_clauses.smt2")
    b = _pipeline(DATA / "nine_clauses.smt2")
    assert a == b


_HASH_SEED_PROG = """
import sys
from smtcore.cnf import cnf_convert
from smtcore.cores import extract_core
from smtcore.dimacs import document_for, render
from smtcore.mus import all_minimal_cores
from smtcore.parser import parse_file
from smtcore.smt import lifted_clauses, smt_solve

formula = cnf_convert(parse_file(sys.argv[1]))
verdict, store = smt_solve(formula)
print(render(document_for(lifted_clauses(formula, store))))
report = extract_core(formula, "lift-proof", minimize=True)
print(report.core)
print([sorted(m) for m in all_minimal_cores(formula)[1].muses])
"""


def test_pipeline_is_identical_across_interpreter_hash_seeds():
    import os
    # one LRA and one EUF instance: lemma order must not follow set or dict
    # iteration over hashed terms in either theory solver
    for name in ("nine_clauses.smt2", "diamond_chain.smt2"):
        outs = set()
        for hash_seed in ("0", "12345", "999"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            proc = subprocess.run(
                [sys.executable, "-c", _HASH_SEED_PROG, str(DATA / name)],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            outs.add(proc.stdout)
        assert len(outs) == 1, name


def test_seed_option_keeps_verdicts_and_varies_reproducibly():
    rng = random.Random(4)
    for _ in range(40):
        formula = random_formula(rng, "LRA")
        expected = brute_force_smt_sat(formula)
        for seed in (None, 1, 2):
            verdict = SmtSolver(formula, seed=seed).solve()
            assert verdict.status == ("sat" if expected else "unsat")
    # same seed, same store
    f = cnf_convert(parse_file(str(DATA / "nine_clauses.smt2")))
    runs = []
    for _ in range(2):
        engine = SmtSolver(f, seed=7)
        engine.solve()
        runs.append([lem.clause for lem in engine.store])
    assert runs[0] == runs[1]
