"""JSON and DOT emission (and JSON round-trip parsing) for intervals, level
graphs, and polished decompositions.  Vertex labels are one-line notation;
ordering is always the deterministic internal order, so identical inputs
serialize byte-identically.
"""

from __future__ import annotations

from .duality import LevelGraph
from .intervals import BruhatInterval
from .permutations import parse_permutation
from .polished import PolishedBlock, PolishedDecomposition
from .signed import Element, SignedPermutation


def element_kind(x: Element) -> str:
    return "signed" if isinstance(x, SignedPermutation) else "permutation"


def parse_element(text: str, kind: str) -> Element:
    if kind == "signed":
        tokens = [t.strip() for t in text.split(",")]
        return SignedPermutation(tuple(int(t) for t in tokens))
    if kind == "permutation":
        return parse_permutation(text)
    raise ValueError(f"unknown element kind {kind!r}")


# -- level graphs -------------------------------------------------------------


def level_graph_to_dict(g: LevelGraph, top: Element) -> dict:
    labels = [x.one_line() for x in g.small] + [x.one_line() for x in g.big]
    offset = len(g.small)
    return {
        "kind": "level-graph",
        "element_kind": element_kind(top),
        "side": g.side,
        "top": top.one_line(),
        "small_count": len(g.small),
        "vertices": labels,
        "edges": [[si, offset + bi] for si, bi in g.edges],
    }


def level_graph_from_dict(d: dict) -> LevelGraph:
    if d.get("kind") != "level-graph":
        raise ValueError("not a level-graph document")
    k = d["small_count"]
    kind = d["element_kind"]
    verts = [parse_element(t, kind) for t in d["vertices"]]
    edges = tuple(sorted((i, j - k) for i, j in d["edges"]))
    return LevelGraph(d["side"], tuple(verts[:k]), tuple(verts[k:]), edges)


def level_graph_to_dot(g: LevelGraph, top: Element) -> str:
    lines = [f"graph gamma_{g.side} {{", f'  label="{g.side} level graph of {top.one_line()}";']
    for x in g.small:
        lines.append(f'  "{x.one_line()}";')
    for x in g.big:
        lines.append(f'  "{x.one_line()}";')
    for si, bi in g.edges:
        lines.append(f'  "{g.small[si].one_line()}" -- "{g.big[bi].one_line()}";')
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


def interval_from_dict(d: dict) -> BruhatInterval:
    if d.get("kind") != "interval":
        raise ValueError("not an interval document")
    kind = d["element_kind"]
    elements = [parse_element(t, kind) for t in d["vertices"]]
    rank = list(d["ranks"])
    if any(a < b for a, b in zip(rank, rank[1:])):
        raise ValueError("interval vertices must come in non-increasing rank order")
    down: list[list[int]] = [[] for _ in elements]
    for x, y in d["edges"]:
        down[x].append(y)
    return BruhatInterval(elements[0], elements, rank, down)


def interval_to_dot(interval: BruhatInterval) -> str:
    lines = ["digraph interval {", f'  label="[e, {interval.top.one_line()}]";']
    for x in interval.elements:
        lines.append(f'  "{x.one_line()}";')
    for x, ys in enumerate(interval.down):
        for y in ys:
            lines.append(
                f'  "{interval.elements[x].one_line()}" -> "{interval.elements[y].one_line()}";'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- decompositions -------------------------------------------------------------


def decomposition_to_dict(decomp: PolishedDecomposition) -> dict:
    return {
        "blocks": [
            {"S": sorted(b.S), "J": sorted(b.J), "Jp": sorted(b.Jp)} for b in decomp.blocks
        ]
    }


def decomposition_from_dict(d: dict) -> PolishedDecomposition:
    blocks = tuple(
        PolishedBlock(frozenset(b["S"]), frozenset(b["J"]), frozenset(b["Jp"]))
        for b in d["blocks"]
    )
    return PolishedDecomposition(blocks)
