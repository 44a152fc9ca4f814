"""Dynkin diagrams for the finite types used here (A and B paths).

A diagram is a labeled graph on generator indices: an edge {s, t} carries the
order m(s, t) >= 3 of the product st; absent edges mean m = 2 (commuting
generators).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DynkinDiagram:
    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]  # (s, t, m) with s < t, m >= 3

    def __post_init__(self):
        seen = set(self.nodes)
        if len(seen) != len(self.nodes):
            raise ValueError("duplicate diagram nodes")
        for s, t, m in self.edges:
            if s >= t or s not in seen or t not in seen:
                raise ValueError(f"bad diagram edge ({s}, {t}, {m})")
            if m < 3:
                raise ValueError(f"edge label must be >= 3, got m({s},{t}) = {m}")

    def adjacent(self, s: int, t: int) -> bool:
        a, b = min(s, t), max(s, t)
        return any(x == a and y == b for x, y, _ in self.edges)

    def neighbors(self, s: int) -> frozenset[int]:
        out = set()
        for x, y, _ in self.edges:
            if x == s:
                out.add(y)
            elif y == s:
                out.add(x)
        return frozenset(out)

    def is_connected(self, subset: frozenset[int]) -> bool:
        """Connectedness of the induced subgraph; empty sets count as connected."""
        if not subset:
            return True
        todo = [next(iter(subset))]
        seen = {todo[0]}
        while todo:
            s = todo.pop()
            for t in self.neighbors(s):
                if t in subset and t not in seen:
                    seen.add(t)
                    todo.append(t)
        return seen == set(subset)

    def is_totally_disconnected(self, subset: frozenset[int]) -> bool:
        return not any(s in subset and t in subset for s, t, _ in self.edges)


def type_a_diagram(rank: int) -> DynkinDiagram:
    """Path 1 - 2 - ... - rank, all labels 3 (the diagram of S_{rank+1})."""
    nodes = tuple(range(1, rank + 1))
    edges = tuple((i, i + 1, 3) for i in range(1, rank))
    return DynkinDiagram(nodes, edges)


def type_b_diagram(rank: int) -> DynkinDiagram:
    """Path with the label-4 edge at the far end: m(s_{rank-1}, s_rank) = 4."""
    nodes = tuple(range(1, rank + 1))
    edges = tuple((i, i + 1, 3) for i in range(1, rank - 1))
    if rank >= 2:
        edges = edges + ((rank - 1, rank, 4),)
    return DynkinDiagram(nodes, edges)
