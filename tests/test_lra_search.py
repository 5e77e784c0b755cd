"""The LRA search is pinned: on seeded difference-constraint formulas, every
`smt_solve` must give the same verdict after the same number of conflicts
with the same stored lemmas, in the same order, and every core method the
same core, with and without minimization.

Each corpus is reduced to one SHA-256 digest.  The digests were computed
again when atoms whose linear forms differ by a constant factor (`x - y`
and `y - x`) came to bound one shared slack, which changed the search on
a minority of formulas: every verdict equalled the one before, no stored
lemma was invalid, every core passed verification and every minimized
core was one-deletion minimal.  A mismatch means the search changed.  To
find the first instance that differs, compare `outcome(formula)` across
the two versions on the corpus that fails.  A change to `tests/gen.py`
changes the corpus rather than the search: recompute the digests then,
on the commit before it, with

    PYTHONPATH=src:tests python -c "import test_lra_search as t; \\
        print({shape: t.digest(t.corpus(shape)) for shape in t.CORPORA})"

`test_models_are_pinned` pins the theory models of the satisfiable answers
of a second corpus the same way.  Its digest was computed on the
closed-form `LraSolver.witness` that the search for eps replaced; a
mismatch means a model changed.  Recompute it with

    PYTHONPATH=src:tests python -c "import test_lra_search as t; \\
        print(t.model_digest(t.model_corpus()))"
"""
import hashlib
import random
import sys
from pathlib import Path

import pytest

from gen import random_difference_formula, random_formula
from smtcore.cnf import cnf_convert
from smtcore.cores import METHODS, extract_core, minimize_core
from smtcore.parser import parse
from smtcore.smt import SmtSolver, smt_solve

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402


def outcome(formula) -> str:
    """Verdict, conflict count and lemma list of one solve, then each
    method's core and its minimization, as one string."""
    engine = SmtSolver(formula)
    verdict = engine.solve()
    lines = [f"{verdict.status} {engine.sat.conflicts}"]
    lines += [f"{lemma.kind} {lemma.clause}" for lemma in engine.store]
    minimized = {}
    for method in METHODS:
        report = extract_core(formula, method)
        lines.append(f"{method} {report.verdict} {report.core}")
        if report.verdict == "unsat":
            if report.core not in minimized:
                minimized[report.core] = tuple(minimize_core(formula, report.core))
            lines.append(f"{method} minimized {minimized[report.core]}")
    return "\n".join(lines) + "\n"


def digest(formulas) -> str:
    h = hashlib.sha256()
    for formula in formulas:
        h.update(hashlib.sha256(outcome(formula).encode()).digest())
    return h.hexdigest()


# (reals, clauses, width) -> seeds; twenty instances, the 12/60 selector
# case of seeds 0, 1 and 3 among them
CORPORA = {
    (6, 24, 2): range(8),
    (6, 24, 3): range(4),
    (8, 36, 2): range(4),
    (12, 60, 3): (0, 1, 3),
    (12, 60, 2): (3,),
}

DIGESTS = {
    (6, 24, 2):
        "af3b1417454ac6835b8a775ce84d21545f2505262b90eb2320c7af5e2817c51e",
    (6, 24, 3):
        "8de0fd258631962d0ca47277e15d481763e9b885447478d0c2cf739f9cef3d22",
    (8, 36, 2):
        "6aa839f5342908f880ccb109f9fa410d7920c71f42ea39387d0d77b9b391f8ee",
    (12, 60, 3):
        "2dc94f776adaa9d6ee10e41321c6d09b59785a82f1d96e6ad0e1b429fe74ad1f",
    (12, 60, 2):
        "3d20a04b162b4ec4f9956e87cdebf336ea3194179fe156497714f52e73d1ea66",
}


def corpus(shape):
    return [random_difference_formula(random.Random(seed), *shape) for seed in CORPORA[shape]]


@pytest.mark.parametrize("shape", sorted(CORPORA))
def test_search_is_pinned(shape):
    assert digest(corpus(shape)) == DIGESTS[shape]


def model_corpus():
    """200 random LRA formulas, difference formulas of two shapes and the
    benchmark's `lra-core` corpus at seed 5 (twenty instances)."""
    rng = random.Random(42)
    formulas = [random_formula(rng, "LRA") for _ in range(200)]
    formulas += [random_difference_formula(random.Random(seed), 6, 24, 3) for seed in range(40)]
    formulas += [random_difference_formula(random.Random(seed), 12, 60, 2) for seed in range(12)]
    workload = workloads.WORKLOADS["lra-core"]
    formulas += [cnf_convert(parse(inst.text))
                 for inst in workloads.build_corpus(workload, 5, 20 / workload.per_second)]
    return formulas


def model_digest(formulas) -> str:
    """One digest over the theory model of each satisfiable answer: its
    sorted (variable name, value type name, value) triples."""
    h = hashlib.sha256()
    for formula in formulas:
        verdict, _store = smt_solve(formula)
        if verdict.status == "sat":
            triples = sorted((v.name, type(value).__name__, str(value))
                             for v, value in verdict.theory_model.items())
            h.update(hashlib.sha256(repr(triples).encode()).digest())
    return h.hexdigest()


MODEL_DIGEST = "a9294732ef259139fcf8189f717b9ce582bc5d81ce3742c84d73620d1a707eda"


def test_models_are_pinned():
    assert model_digest(model_corpus()) == MODEL_DIGEST
