"""The two diagram factories, kept as names for their groups.

A Dynkin diagram here is the path 1 - 2 - ... - rank, and
`CoxeterPresentation` answers its queries (`nodes`, `adjacent`,
`is_connected`, `is_totally_disconnected`), so each factory returns the
presentation of its type.
"""

from __future__ import annotations

from .signed import CoxeterPresentation


def type_a_diagram(rank: int) -> CoxeterPresentation:
    """S_{rank+1}, whose diagram is the path 1 - 2 - ... - rank, all labels 3."""
    return CoxeterPresentation("A", rank)


def type_b_diagram(rank: int) -> CoxeterPresentation:
    """B_rank, whose path has the label-4 edge at the far end: m(s_{rank-1}, s_rank) = 4."""
    return CoxeterPresentation("B", rank)
