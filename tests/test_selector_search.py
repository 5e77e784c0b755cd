"""The selector-engine searches are pinned: on seeded LRA and EUF corpora,
`enumerate_mcs` must find the same minimal correction subsets in the same
order, and the `smt-selectors` core and the minimization of each
`lift-proof` core must come out the same.  All three run on one
incremental `SelectorEngine`, whose selector variables, totalizer outputs
and clause order decide each of these outcomes; `test_lra_search.py` pins
the plain search and only the LRA minimizations.

Each corpus is reduced to one SHA-256 digest.  The digests were computed
when one totalizer replaced a sequential counter per bound, which changed
the order in which MCSes are found and nothing else: with each MCS list
sorted, every outcome equalled the one of the counters.  The `euf-uf` and
`euf-diamond` digests were computed again when EUF conflicts became
chains of lemmas over engine-defined atoms: with each MCS list sorted,
every MCS set equalled the one before and every minimized core was among
MARCO's MUSes, while some cores of `euf-uf` changed.  The `lra-difference`
digest was computed again when atoms whose linear forms differ by a
constant factor came to bound one shared slack: every MCS set equalled
the one before, and every core passed verification.  A mismatch means
a selector search changed.  To find the first instance that
differs, compare `outcome(formula)` across the two versions on the corpus
that fails.  A change to `tests/gen.py` changes the corpus rather than
the search: recompute the digests then, on the commit before it, with

    PYTHONPATH=src:tests python -c "import test_selector_search as t; \\
        print({name: t.digest(t.corpus(name)) for name in t.CORPORA})"
"""
import hashlib
import random

import pytest

from gen import diamond_chain_formula, labeled_corpus, random_difference_formula, random_uf_formula
from oracles import brute_force_smt_sat
from smtcore.cores import extract_core, minimize_core
from smtcore.mus import enumerate_mcs


def outcome(formula) -> str:
    """The MCSes in the order found, the `smt-selectors` core, and the
    `lift-proof` core with its minimization, as one string."""
    result = enumerate_mcs(formula)
    lines = [f"mcs complete={result.complete} satisfiable={result.satisfiable}"]
    lines += [str(tuple(sorted(mcs))) for mcs in result.mcses]
    for method in ("smt-selectors", "lift-proof"):
        report = extract_core(formula, method)
        lines.append(f"{method} {report.verdict} {report.core}")
    if report.verdict == "unsat":
        lines.append(f"minimized {tuple(minimize_core(formula, report.core))}")
    return "\n".join(lines) + "\n"


def digest(formulas) -> str:
    h = hashlib.sha256()
    for formula in formulas:
        h.update(hashlib.sha256(outcome(formula).encode()).digest())
    return h.hexdigest()


CORPORA = {
    # small oracle-labeled formulas, unsat then sat
    "lra-labeled": lambda: sum(labeled_corpus("LRA", 30, 10, brute_force_smt_sat,
                                              seed=2024), []),
    "euf-labeled": lambda: sum(labeled_corpus("EUF", 30, 10, brute_force_smt_sat,
                                              seed=2024), []),
    # 6/24 difference constraints, four of the eight unsat
    "lra-difference": lambda: [random_difference_formula(random.Random(s), 6, 24, 2)
                               for s in range(8)],
    # equalities over six constants and their images, three of four unsat,
    # and one unsat 8/30 instance with 36 MCSes
    "euf-uf": lambda: [random_uf_formula(random.Random(s), 6, 30, 2) for s in range(4)]
                      + [random_uf_formula(random.Random(4), 8, 30, 2)],
    # diamond chains of three to five diamonds among six noise clauses
    "euf-diamond": lambda: [diamond_chain_formula(random.Random(n), n, 6) for n in (3, 4, 5)],
}


def corpus(name):
    return CORPORA[name]()


DIGESTS = {
    "lra-labeled": "2addb857545764e11418e22cf577b389a1a08fe692a4d3592f7ef10d2386fe87",
    "euf-labeled": "7b2f9035ebc24afbc7abcc6377b9ded86723ac78fb7e013e59292a93bd0c85cd",
    "lra-difference": "0878b01ea9a83bf486c42051db5095886889298b6abecc3b9f635b13da51e83e",
    "euf-uf": "5b3132f7a275ab4044f35db14eeddc48423655214e0a1b41554ccc029661e62f",
    "euf-diamond": "eaffd3a59313f3f4efc7b3d99fc0161bf5241a9caf011c94432b1c94d3bc5f5d",
}


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_selector_search_is_pinned(name):
    assert digest(corpus(name)) == DIGESTS[name]
