"""Theory solvers, congruence closure (EUF) and simplex (LRA), and
`solver_for_logic`, which picks the one of a formula's logic.  The
theory-validity check of stored lemmas and refutation leaves is
`check.validity_check`, which shares no code with `EufSolver`.
"""
from __future__ import annotations

from typing import Optional

from ..terms import LOGIC_EUF, LOGIC_LRA, LOGIC_PROP, AtomTable
from .base import TheorySolver
from .euf import EufSolver
from .lra import LraSolver


def solver_for_logic(logic: str, table: AtomTable) -> Optional[TheorySolver]:
    if logic == LOGIC_EUF:
        return EufSolver(table)
    if logic == LOGIC_LRA:
        return LraSolver(table)
    if logic == LOGIC_PROP:
        return None
    raise ValueError(f"no theory solver for logic {logic!r}")
