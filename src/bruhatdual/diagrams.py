"""The type-A diagram factory, kept as a name for its group.

A Dynkin diagram here is the path 1 - 2 - ... - rank, and
`CoxeterPresentation` answers its queries (`nodes`, `adjacent`,
`is_connected`, `is_totally_disconnected`), so the factory returns the
presentation of its type.
"""

from __future__ import annotations

from .signed import CoxeterPresentation


def type_a_diagram(rank: int) -> CoxeterPresentation:
    """S_{rank+1}, whose diagram is the path 1 - 2 - ... - rank, all labels 3."""
    return CoxeterPresentation("A", rank)
