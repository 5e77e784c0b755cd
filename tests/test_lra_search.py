"""The LRA search is pinned: on seeded difference-constraint formulas, every
`smt_solve` must give the same verdict after the same number of conflicts
with the same stored lemmas, in the same order, and every core method the
same core, with and without minimization.

Each corpus is reduced to one SHA-256 digest.  The digests were computed
on the simplex that recomputed its deductions from all bounds on every
call, before propagation followed the undo trail; a mismatch means the
search changed.  To find the first instance that differs, compare
`outcome(formula)` across the two versions on the corpus that fails.  A
change to `tests/gen.py` changes the corpus rather than the search:
recompute the digests then, on the commit before it.
"""
import hashlib
import random

import pytest

from gen import random_difference_formula
from smtcore.cores import METHODS, extract_core, minimize_core
from smtcore.smt import SmtSolver


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
        "09d66fdc66d02c6416899ec7132afb62b8090fcab0f4d9956e8d1939c133e2e6",
    (6, 24, 3):
        "f268b548657d4b40dbd7691d67f9a204057114875f77d000c740931ad39a26e8",
    (8, 36, 2):
        "cd148d07424f8047a5410a0567d0700f7bc4e9808d790d45e4019e5e2bb852f1",
    (12, 60, 3):
        "96ff462e3ed81ac604c7765a03d0f5f0aef82e34b1025d8f9e50e694f4da43f6",
    (12, 60, 2):
        "279a2c64e6d23583c170a2a9b8c4d07fc78b1e1b404bf6669251ae35c6259fc8",
}


@pytest.mark.parametrize("shape", sorted(CORPORA))
def test_search_is_pinned(shape):
    reals, clauses, width = shape
    formulas = [random_difference_formula(random.Random(seed), reals, clauses, width)
                for seed in CORPORA[shape]]
    assert digest(formulas) == DIGESTS[shape]
