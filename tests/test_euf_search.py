"""The plain EUF search is pinned: on seeded random UF formulas and diamond
chains with noise, every `SmtSolver` solve must give the same verdict
after the same number of conflicts with the same stored lemmas (kind,
clause and the atoms of the engine's own variables), in the same order,
and every core method the same core, with and without minimization.

Each corpus is reduced to one SHA-256 digest.  A mismatch means the
search changed.  To find the first instance that differs, compare
`outcome(formula)` across the two versions on the corpus that fails.  A
change to `tests/gen.py` changes the corpus rather than the search:
recompute the digests then, on the commit before it, with

    PYTHONPATH=src:tests python -c "import test_euf_search as t; \\
        print({key: t.digest(t.corpus(key)) for key in t.CORPORA})"

`CheckedSkips` below checks the rule by which the engine skips a theory
pass (`SmtSolver._check`): every skipped pass, run in full, finds nothing.
"""
import hashlib
import random
from collections import Counter

import pytest

from gen import diamond_chain_formula, random_uf_formula
from smtcore import cores, smt
from smtcore.cores import METHODS, extract_core, minimize_core


def outcome(formula) -> str:
    """Verdict, conflict count and lemma list of one solve, then each
    method's core and its minimization, as one string."""
    engine = smt.SmtSolver(formula)
    verdict = engine.solve()
    lines = [f"{verdict.status} {engine.sat.conflicts}"]
    lines += [f"{lemma.kind} {lemma.clause} {lemma.defs}" for lemma in engine.store]
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


# (generator, size) -> seeds: random UF as (constants, clauses, width),
# diamond chains as (diamonds, noise clauses)
CORPORA = {
    ("uf", 6, 30, 2): range(8),
    ("uf", 8, 40, 2): range(6),
    ("uf", 10, 60, 3): range(4),
    ("diamond", 4, 10): range(4),
    ("diamond", 6, 20): range(4),
    ("diamond", 8, 30): range(2),
}

DIGESTS = {
    ("uf", 6, 30, 2):
        "de25359231f597e19aadc437870da5d427137500df00cceb58d5f9b4c579037e",
    ("uf", 8, 40, 2):
        "5af20cba8991a7b7c573ee1663599e412ccaed08a0c863748d2b82328364ee4d",
    ("uf", 10, 60, 3):
        "1ebd1a23145a1be73e3ab78dc8582e39b1a8c350a20b501eea46030dfdb4b930",
    ("diamond", 4, 10):
        "ace8e5c32dc47cef316e127a15b7b8c2ca6e4795634e5e44c3a010dc2a9504d4",
    ("diamond", 6, 20):
        "2ffb6e7f70a5b23df86e15cb73ee4ededc40b68f74dfaed2a71721da6591b200",
    ("diamond", 8, 30):
        "6fb408bca0d62ab6748432523c2d8cf20536a3acbc0b3945b5777ae9c50bf5fc",
}


def _name(key) -> str:
    return "-".join(map(str, key))


def corpus(key):
    kind, *size = key
    make = random_uf_formula if kind == "uf" else diamond_chain_formula
    return [make(random.Random(seed), *size) for seed in CORPORA[key]]


@pytest.mark.parametrize("key", sorted(CORPORA), ids=_name)
def test_search_is_pinned(key):
    assert digest(corpus(key)) == DIGESTS[key]


class CheckedSkips(smt.SmtSolver):
    """An engine that, whenever it skips a theory pass because the theory
    reports no change, runs `check_full` and `deductions` in full and
    asserts that they find nothing.  Both only read an `EufSolver`, so the
    search is the plain engine's.  `tally["skipped"]` counts the skips
    after a theory literal was asserted or backtracked since the check
    before, where a pass would run if every assert counted as a change."""

    tally = Counter()

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.events = self.events_seen = 0

    def hook_backjump(self, trail_len):
        synced = len(self._synced_positions)
        super().hook_backjump(trail_len)
        self.events += synced != len(self._synced_positions)

    def _check(self):
        synced = len(self._synced_positions)
        if self._sync():
            return True
        self.events += synced != len(self._synced_positions)
        if not self.theory.changed:
            assert not self.theory.check_full()
            assert self.theory.deductions() == []
            self.tally["skipped"] += self.events != self.events_seen
        self.events_seen = self.events
        return super()._check()


@pytest.fixture
def checked_skips(monkeypatch):
    """Every engine of the search and of the core methods is `CheckedSkips`."""
    monkeypatch.setattr(smt, "SmtSolver", CheckedSkips)
    monkeypatch.setattr(cores, "SmtSolver", CheckedSkips)
    CheckedSkips.tally = Counter()
    return CheckedSkips.tally


# corpus -> the fewest skips its checked run must count, about half of what
# it counted when the rule was written; random UF 10/60 of width 2 adds
# seeds 0-9 to the pinned corpora
SKIP_FLOOR = {
    ("uf", 6, 30, 2): 220,
    ("uf", 8, 40, 2): 370,
    ("uf", 10, 60, 3): 650,
    ("uf", 10, 60, 2): 2200,
    ("diamond", 4, 10): 50,
    ("diamond", 6, 20): 70,
    ("diamond", 8, 30): 14,
}


@pytest.mark.parametrize("key", sorted(SKIP_FLOOR), ids=_name)
def test_a_skipped_theory_pass_would_find_nothing(key, checked_skips):
    """The checked engine's outcomes are the plain engine's, and every pass
    it skipped would have found nothing."""
    if key in CORPORA:
        assert digest(corpus(key)) == DIGESTS[key]
    else:
        for seed in range(10):
            outcome(random_uf_formula(random.Random(seed), *key[1:]))
    assert checked_skips["skipped"] >= SKIP_FLOOR[key], checked_skips
