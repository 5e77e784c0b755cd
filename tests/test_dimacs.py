import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smtcore.dimacs import (
    DimacsDocument, DimacsError, document_for, parse_dimacs, read_core, render,
    render_core_indices,
)


def test_lifted_document_header_counts(nine_clauses):
    from smtcore.smt import lifted_clauses, smt_solve
    verdict, store = smt_solve(nine_clauses)
    assert verdict.status == "unsat"
    doc = DimacsDocument(len(nine_clauses.atoms),
                         [list(cl) for cl in lifted_clauses(nine_clauses, store)])
    text = render(doc)
    assert text.splitlines()[0] == f"p cnf 10 {9 + len(store)}"
    # the canonical run stores exactly the three pairwise-conflict lemmas
    assert len(store) == 3
    assert text.splitlines()[0] == "p cnf 10 12"


def test_empty_document():
    assert render(document_for([])) == "p cnf 0 0\n"


def test_single_unit_clause_row():
    assert render(document_for([[1]])).splitlines()[1] == "1 0"


def test_parse_rejects_count_mismatch():
    with pytest.raises(DimacsError, match="declares"):
        parse_dimacs("p cnf 2 2\n1 0\n")


def test_parse_rejects_unterminated_clause():
    with pytest.raises(DimacsError, match="terminated"):
        parse_dimacs("p cnf 2 1\n1 2\n")


def test_parse_skips_comments():
    doc = parse_dimacs("c hello\np cnf 2 1\nc mid\n1 -2 0\n")
    assert doc.clauses == [[1, -2]]


def test_literal_beyond_header_rejected():
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 1 1\n2 0\n")


def test_index_list_mode():
    original = document_for([[1], [2], [3]])
    assert read_core("1\n3\n", original) == {0, 2}


def test_index_out_of_range():
    original = document_for([[1], [2]])
    with pytest.raises(DimacsError, match="out of range"):
        read_core("3\n", original)


def test_subset_mode_full_repeat():
    original = document_for([[1, -2], [2, 3], [-1]])
    text = render(original)
    assert read_core(text, original) == {0, 1, 2}


def test_subset_mode_order_insensitive():
    original = document_for([[1, -2]])
    assert read_core("p cnf 2 1\n-2 1 0\n", original) == {0}


def test_subset_mode_duplicates_take_lowest_unused():
    original = document_for([[1, 2], [1, 2], [3]])
    got = read_core("p cnf 3 2\n2 1 0\n1 2 0\n", original)
    assert got == {0, 1}


def test_subset_mode_unmatched_clause_rejected():
    original = document_for([[1, 2]])
    with pytest.raises(DimacsError, match="no unmatched counterpart"):
        read_core("p cnf 3 1\n1 3 0\n", original)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.data())
def test_round_trip_choose_then_read(data):
    rng_clauses = data.draw(st.lists(
        st.lists(st.sampled_from([1, -1, 2, -2, 3, -3, 4, -4]),
                 min_size=1, max_size=3),
        min_size=1, max_size=6))
    original = DimacsDocument(4, rng_clauses)
    chosen = data.draw(st.sets(st.integers(0, len(rng_clauses) - 1)))
    # an index list
    text = render_core_indices(chosen)
    assert read_core(text, original) == set(chosen)
    # a DIMACS subset: write the chosen clauses, read back; content matching may
    # legally remap duplicate clauses, so compare clause multisets
    sub = DimacsDocument(original.nvars, [original.clauses[i] for i in sorted(chosen)])
    got = read_core(render(sub), original)
    assert sorted(tuple(sorted(original.clauses[i])) for i in got) == \
        sorted(tuple(sorted(original.clauses[i])) for i in chosen)


@pytest.mark.parametrize("header", ["p cnf x 2", "p cnf 2 y", "p cnf 2.5 1"])
def test_non_integer_header_rejected(header):
    with pytest.raises(DimacsError, match="malformed problem line"):
        parse_dimacs(header + "\n1 0\n")


def test_negative_variable_count_rejected():
    with pytest.raises(DimacsError, match="negative count"):
        parse_dimacs("p cnf -3 0\n")


def test_negative_clause_count_rejected():
    with pytest.raises(DimacsError, match="negative count"):
        parse_dimacs("p cnf 2 -1\n")


# Mostly DIMACS-shaped text, so that the fuzzing reaches the header counts
# and the clause body.
_TOKEN = st.text(alphabet="0123456789-x. ", min_size=1, max_size=4)
DIMACS_ISH = st.builds("p cnf {} {}\n{}".format, _TOKEN, _TOKEN,
                       st.text(alphabet="0123456789- x\nc", max_size=40))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(st.text(max_size=80), DIMACS_ISH))
def test_arbitrary_text_raises_only_dimacs_errors(text):
    original = document_for([[1, -2], [2], [-1, 3]])
    for read in (lambda: parse_dimacs(text), lambda: read_core(text, original)):
        try:
            read()
        except DimacsError:
            pass
