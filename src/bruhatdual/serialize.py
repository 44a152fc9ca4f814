"""JSON and DOT emission for intervals, level graphs, and polished
decompositions.  Exports are write-only: nothing in the package reads them
back.  Vertex labels are one-line notation; ordering is always the
deterministic internal order, so identical inputs serialize byte-identically.
"""

from __future__ import annotations

from .duality import LevelGraph
from .intervals import BruhatInterval
from .polished import PolishedDecomposition
from .signed import Element, SignedPermutation


def element_kind(x: Element) -> str:
    return "signed" if isinstance(x, SignedPermutation) else "permutation"


# -- level graphs -------------------------------------------------------------


def _level_graph_labels(g: LevelGraph, top: Element) -> tuple[list[str], list[str]]:
    """The one-line labels of both sides, each vertex made an element of the
    class of ``top``."""
    cls = type(top)
    return [cls(x).one_line() for x in g.small], [cls(x).one_line() for x in g.big]


def level_graph_to_dict(g: LevelGraph, top: Element) -> dict:
    small, big = _level_graph_labels(g, top)
    return {
        "kind": "level-graph",
        "element_kind": element_kind(top),
        "side": g.side,
        "top": top.one_line(),
        "small_count": len(small),
        "vertices": small + big,
        "edges": [[si, len(small) + bi] for si, bi in g.edges],
    }


def level_graph_to_dot(g: LevelGraph, top: Element) -> str:
    small, big = _level_graph_labels(g, top)
    lines = [f"graph gamma_{g.side} {{", f'  label="{g.side} level graph of {top.one_line()}";']
    lines += [f'  "{name}";' for name in small + big]
    lines += [f'  "{small[si]}" -- "{big[bi]}";' for si, bi in g.edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- intervals ----------------------------------------------------------------


def interval_to_dict(interval: BruhatInterval) -> dict:
    edges = [[x, y] for x, ys in enumerate(interval.down) for y in ys]
    return {
        "kind": "interval",
        "element_kind": element_kind(interval.top),
        "top": interval.top.one_line(),
        "vertices": [x.one_line() for x in interval.elements],
        "ranks": list(interval.rank),
        "edges": edges,
    }


def interval_to_dot(interval: BruhatInterval) -> str:
    names = [x.one_line() for x in interval.elements]
    lines = ["digraph interval {", f'  label="[e, {interval.top.one_line()}]";']
    lines += [f'  "{name}";' for name in names]
    lines += [f'  "{names[x]}" -> "{names[y]}";' for x, ys in enumerate(interval.down) for y in ys]
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- decompositions -------------------------------------------------------------


def decomposition_to_dict(decomp: PolishedDecomposition) -> dict:
    return {
        "blocks": [
            {"S": sorted(b.S), "J": sorted(b.J), "Jp": sorted(b.Jp)} for b in decomp.blocks
        ]
    }
