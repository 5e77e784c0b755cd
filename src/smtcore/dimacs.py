"""DIMACS CNF documents and core-exchange files.

The writer is deterministic: variables are numbered by atom-table order,
then come the engine's own variables past the table that stored lemmas
name, and clauses keep input order.  `read_core` understands two exchange
shapes, and tells them apart by the file alone: a DIMACS subset, which has
a `p cnf` header and whose clauses are matched back to the original by
sorted-literal multiset equality, and any other file, a plain list of
1-based clause indices.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


class DimacsError(ValueError):
    pass


@dataclass
class DimacsDocument:
    nvars: int
    clauses: list[list[int]]

    def __post_init__(self):
        for cl in self.clauses:
            for lit in cl:
                if lit == 0:
                    raise DimacsError("0 inside a clause body")
                if abs(lit) > self.nvars:
                    raise DimacsError(f"literal {lit} exceeds declared variable count {self.nvars}")

    @property
    def nclauses(self) -> int:
        return len(self.clauses)


def document_for(clauses: Iterable[Iterable[int]]) -> DimacsDocument:
    """The document of `clauses` over as many variables as the largest one
    a clause names, which for a lemma over an engine-defined atom lies past
    the atom table."""
    rows = [list(cl) for cl in clauses]
    nvars = max((abs(l) for cl in rows for l in cl), default=0)
    return DimacsDocument(nvars, rows)


def render(doc: DimacsDocument) -> str:
    lines = [f"p cnf {doc.nvars} {doc.nclauses}"]
    for cl in doc.clauses:
        lines.append(" ".join(str(l) for l in cl) + " 0")
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> DimacsDocument:
    nvars = None
    declared = None
    clauses: list[list[int]] = []
    current: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"malformed problem line: {line!r}")
            try:
                nvars, declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsError(f"malformed problem line: {line!r}") from None
            if nvars < 0 or declared < 0:
                raise DimacsError(f"negative count in problem line: {line!r}")
            continue
        if nvars is None:
            raise DimacsError("clause before the 'p cnf' header")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise DimacsError(f"bad literal token {tok!r}")
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                current.append(lit)
    if current:
        raise DimacsError("last clause is not terminated by 0")
    if nvars is None:
        raise DimacsError("missing 'p cnf' header")
    if declared != len(clauses):
        raise DimacsError(f"header declares {declared} clauses, body has {len(clauses)}")
    return DimacsDocument(nvars, clauses)


def render_core_indices(indices: Iterable[int]) -> str:
    """Core-index file body: one 1-based index per line, ascending."""
    return "".join(f"{i + 1}\n" for i in sorted(set(indices)))


def index_lines(text: str) -> Iterator[tuple[int, int]]:
    """(line number, index) for each nonblank line of a file of 1-based
    clause indices, one a line; a line that is not an integer is a
    DimacsError naming it.  The caller checks the range."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            idx = int(line)
        except ValueError:
            raise DimacsError(f"line {ln}: not a clause index: {line!r}") from None
        yield ln, idx


def read_core(text: str, original: DimacsDocument) -> set[int]:
    """Interpret a returned core file against the original document: a
    DIMACS subset if a line is a problem line, as `parse_dimacs` reads one,
    else an index list.

    Returns 0-based indices into the original clause list.
    """
    if not any(line.strip().startswith("p") for line in text.splitlines()):
        out = set()
        for ln, idx in index_lines(text):
            if not 1 <= idx <= original.nclauses:
                raise DimacsError(
                    f"line {ln}: index {idx} out of range 1..{original.nclauses}")
            out.add(idx - 1)
        return out
    doc = parse_dimacs(text)
    pool: dict[tuple[int, ...], list[int]] = {}
    for i, cl in enumerate(original.clauses):
        pool.setdefault(tuple(sorted(cl)), []).append(i)
    # lowest original indices first, consumed left to right
    out = set()
    used: dict[tuple[int, ...], int] = {}
    for cl in doc.clauses:
        key = tuple(sorted(cl))
        candidates = pool.get(key)
        pos = used.get(key, 0)
        if candidates is None or pos >= len(candidates):
            raise DimacsError(f"subset clause {cl} has no unmatched counterpart "
                              "in the original document")
        out.add(candidates[pos])
        used[key] = pos + 1
    return out
