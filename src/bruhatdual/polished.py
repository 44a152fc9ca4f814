"""The polished-element machinery: the six-pattern test, the region/type
classification of a permutation's matrix, the one-step reduction table, and
assembly into ordered (S_i, J_i, J_i') block data whose triple products
reconstruct the element.

A permutation avoiding 3412, 4231, 34521, 45321, 54123 and 54312 decomposes
by repeatedly classifying the region structure around the entries (1, w(1))
and (w^{-1}(1), 1) and multiplying away a longest parabolic element; the
recorded generator windows chain into blocks whose alternating unions give
the J / J' covers.

The classification, the reduction and the assembly run on one-line tuples:
w_0 of a window of consecutive generators reverses values (on the left) or
positions (on the right), s_b swaps two values or two positions, and the
closing reconstruction check multiplies the blocks' Young-subgroup reversals
(`permutations.young_reversal`).  `_classify` and `_step` are the reduction's
only interface, taking and returning tuples; Permutation appears only at
assemble_decomposition's boundary, and reconstruct stays generic over both
element kinds.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Optional

from .intervals import build_interval, longest_parabolic
from .permutations import (
    Permutation,
    PatternOccurrence,
    contains_pattern,
    inverse_images,
    young_reversal,
)
from .signed import CoxeterPresentation, Element

SMOOTH_PATTERNS = (Permutation((3, 4, 1, 2)), Permutation((4, 2, 3, 1)))
LENGTH5_PATTERNS = (
    Permutation((3, 4, 5, 2, 1)),
    Permutation((4, 5, 3, 2, 1)),
    Permutation((5, 4, 1, 2, 3)),
    Permutation((5, 4, 3, 1, 2)),
)
SELFDUAL_PATTERNS = SMOOTH_PATTERNS + LENGTH5_PATTERNS


class PatternWitnessError(ValueError):
    """Raised when an operation requiring pattern avoidance is handed a
    permutation containing one of the six patterns; carries the witness."""

    def __init__(self, w: Permutation, occ: PatternOccurrence):
        self.witness = occ
        super().__init__(
            f"{w.one_line()} contains {occ.pattern.one_line()} at indices {occ.indices}"
        )


class NotPolishedError(ValueError):
    """Structural failure inside the reduction/assembly pipeline.  On inputs
    containing one of the six patterns this is the expected way for the
    algorithm to stop; after a pattern precheck it would indicate a bug.
    Its text names the one-line tuples involved as permutations.
    """


def avoids_smooth_patterns(w: Permutation) -> bool:
    """True when w avoids 3412 and 4231 (rank-symmetric interval)."""
    return all(contains_pattern(w, p) is None for p in SMOOTH_PATTERNS)


def avoids_selfdual_patterns(w: Permutation) -> bool:
    """True when w avoids all six patterns characterizing self-dual [e, w]."""
    return selfdual_pattern_witness(w) is None


def selfdual_pattern_witness(w: Permutation) -> Optional[PatternOccurrence]:
    """The first of the six patterns in w, 3412 and 4231 tried first, or None:
    w is smooth exactly when the witness is None or has length 5."""
    for p in SELFDUAL_PATTERNS:
        occ = contains_pattern(w, p)
        if occ is not None:
            return occ
    return None


# -- type classification -------------------------------------------------------


def _text(x: tuple[int, ...]) -> str:
    return Permutation(x).one_line()


def _classify(x: tuple[int, ...]) -> tuple[str, int, tuple[int, ...]]:
    """Classify a smooth (3412- and 4231-avoiding) one-line tuple x by the
    regions around the staircase from (1, x(1)) down to (x^{-1}(1), 1), as
    (tag, t, chain).

    tag: one of n, r0, r1, l0, l1.  chain: the staircase positions, those up
    to x^{-1}(1) whose values are at most x(1); t is one less than their
    number, so x(1) = 1 gives type n with t = 0.  For l types the r0/r1
    refinement is read off the inverse, but the chain reported is still x's.

    Raises NotPolishedError when the region structure is inconsistent with
    smoothness, or when the r0/r1 refinement would need the 45321-type region
    to be nonempty.
    """
    v1 = x[0]
    pos1 = x.index(1) + 1
    head = x[:pos1]
    chain = tuple(a for a, v in enumerate(head, 1) if v <= v1)
    t = len(chain) - 1
    vals = [v for v in head if v <= v1]
    if vals != sorted(vals, reverse=True):
        raise NotPolishedError(f"staircase of {_text(x)} not decreasing: contains 4231")
    R = [a for a, v in enumerate(head, 1) if v > v1]
    L = any(1 < v < v1 for v in x[pos1:])
    if R and L:
        raise NotPolishedError(f"{_text(x)} has both side regions nonempty: contains 3412")
    if not R and not L:
        return "n", t, chain
    if R:
        if t == 1:
            return "r0", t, chain
        if any(a < chain[t - 2] for a in R):
            raise NotPolishedError(
                f"region below the staircase head of {_text(x)} nonempty: contains 45321"
            )
        r1 = any(chain[t - 2] < a < chain[t - 1] for a in R)
        return ("r1" if r1 else "r0"), t, chain
    mirror_tag, mirror_t, _ = _classify(inverse_images(x))
    if mirror_tag not in ("r0", "r1") or mirror_t != t:
        raise AssertionError(f"inconsistent mirror classification for {_text(x)}")
    return "l" + mirror_tag[1], t, chain


# -- one-step reduction -----------------------------------------------------------


def _step(x: tuple[int, ...]) -> tuple[tuple[int, ...], int, tuple[str, int, tuple[int, ...]]]:
    """One reduction of a one-line tuple x other than the identity: strip
    its m leading fixed points, classify the rest, and multiply away the
    longest element of the window K = m+1 .. m+t, per the table

        n:  w_0(K) x = x w_0(K)     r0: w_0(K) x      r1: s_b w_0(K) x
                                    l0: x w_0(K)      l1: x w_0(K) s_b

    with b = m+t.  w_0(K) reverses the values m+1 .. b+1 of x on the left
    and the positions on the right, and s_b swaps two values on the left and
    two positions on the right.  Returns (x', m, (tag, t, chain)), the
    classification being that of the stripped tail, so its chain is local.

    The support of x' is checked against the tabulated residual window; a
    violation means the six-pattern precondition did not hold.
    """
    n = len(x)
    m = 0
    while m < n and x[m] == m + 1:
        m += 1
    if m == n:
        raise ValueError("identity admits no reduction step")
    local = _classify(tuple(v - m for v in x[m:]))
    tag, t, _ = local
    b = m + t
    w0 = young_reversal(n, range(m + 1, b + 1))
    if tag in ("n", "r0", "r1"):
        out = [w0[v - 1] + 1 for v in x]
        if tag == "n":
            if out != [x[j] for j in w0]:
                raise NotPolishedError(f"type-n step of {_text(x)} fails to commute: bad input")
            support_floor = b + 2
        elif tag == "r0":
            support_floor = b + 1
        else:
            p, q = out.index(b), out.index(b + 1)
            out[p], out[q] = out[q], out[p]
            support_floor = b
    else:
        out = [x[j] for j in w0]
        if tag == "l0":
            support_floor = b + 1
        else:
            out[b - 1], out[b] = out[b], out[b - 1]
            support_floor = b
    # the support of x' misses every generator below support_floor exactly
    # when x' fixes 1 .. support_floor - 1
    fixed = min(support_floor - 1, n)
    if out[:fixed] != list(range(1, fixed + 1)):
        raise NotPolishedError(
            f"step output {_text(tuple(out))} escapes its window: "
            f"{_text(x)} violates the pattern precondition"
        )
    return tuple(out), m, local


# -- full decomposition -------------------------------------------------------------


@dataclass(frozen=True)
class PolishedBlock:
    S: frozenset[int]
    J: frozenset[int]
    Jp: frozenset[int]


@dataclass(frozen=True)
class PolishedDecomposition:
    """Ordered block data (S_i, J_i, J_i'); the left-to-right product of
    w_0(J_i) w_0(J_i and J_i') w_0(J_i') over the blocks is the element."""

    blocks: tuple[PolishedBlock, ...]


def assemble_decomposition(w: Permutation) -> PolishedDecomposition:
    """Run the reduction to the identity and assemble block data, verifying
    the window bookkeeping and the final reconstruction.

    Reduction steps are grouped into maximal chains of overlapping windows
    (an r1/l1 step shares its last generator with the next window); each
    chain contributes one block whose J and J' take alternate windows.  A
    chain ending in r0 (or n) multiplies to the left of what remains, a
    chain ending in l0 to the right.

    Raises NotPolishedError whenever the structure breaks down, which on
    unchecked input is simply the signal that w is not polished.
    """
    n = w.n
    e = tuple(range(1, n + 1))
    if w.images == e:
        return PolishedDecomposition(())

    chains: list[list[tuple[tuple[int, ...], str]]] = []
    chain: list[tuple[tuple[int, ...], str]] = []
    prev: Optional[tuple[tuple[int, ...], str]] = None
    x = w.images
    while x != e:
        x, m, (tag, t, _) = _step(x)
        K = tuple(range(m + 1, m + t + 1))
        if prev is not None:
            K1, tag1 = prev
            gap = K[0] - K1[-1]
            if tag1 == "n":
                ok = gap > 1
            elif tag1 in ("r0", "l0"):
                ok = gap == 1
            else:
                ok = gap == 0
            if not ok:
                raise NotPolishedError(f"window adjacency violated after {tag1} step: {K1} vs {K}")
        prev = K, tag
        chain.append(prev)
        if tag in ("n", "r0", "l0"):
            chains.append(chain)
            chain = []
    if chain:
        raise NotPolishedError("reduction ended on an overlapping step")

    left: list[PolishedBlock] = []
    right: list[PolishedBlock] = []
    for chain in chains:
        interior = [tag for _, tag in chain[:-1]]
        if any(a == b for a, b in zip(interior, interior[1:])):
            raise NotPolishedError(f"overlapping steps fail to alternate: {interior}")
        # Window side: an r-flavored factor's longest element lands left of
        # the shared boundary generators, an l-flavored one right of them;
        # sides then alternate along the chain, the final window included
        # (its own r0/l0 flavor decides only the placement, not the side).
        odd = frozenset(g for K, _ in chain[0::2] for g in K)
        even = frozenset(g for K, _ in chain[1::2] for g in K)
        J, Jp = (odd, even) if chain[0][1] in ("r1", "r0", "n") else (even, odd)
        if J & Jp != {K[-1] for K, _ in chain[:-1]}:
            raise NotPolishedError("window overlaps disagree with J and J' intersection")
        block = PolishedBlock(J | Jp, J, Jp)
        (right if chain[-1][1] == "l0" else left).append(block)
    decomp = PolishedDecomposition(tuple(left + right[::-1]))

    # the block triples' product, each w_0 a Young-subgroup reversal of positions
    validate_decomposition(decomp, CoxeterPresentation("A", n - 1))
    product = e
    for gens in _block_factors(decomp):
        product = tuple(map(product.__getitem__, young_reversal(n, gens)))
    if product != w.images:
        raise NotPolishedError(f"reconstruction mismatch for {w.one_line()}")
    return decomp


def polished_decompose(w: Permutation) -> PolishedDecomposition:
    """Decompose a six-pattern-avoiding permutation into polished block data;
    a permutation containing one of the patterns is rejected with a witness
    occurrence."""
    witness = selfdual_pattern_witness(w)
    if witness is not None:
        raise PatternWitnessError(w, witness)
    try:
        return assemble_decomposition(w)
    except NotPolishedError as exc:
        raise AssertionError(
            f"decomposition failed on pattern-free input {w.one_line()}: {exc}"
        ) from exc


def validate_decomposition(decomp: PolishedDecomposition, diagram: CoxeterPresentation) -> None:
    nodes = set(diagram.nodes)
    used: set[int] = set()
    for block in decomp.blocks:
        if not block.S:
            raise ValueError("empty block")
        if block.J | block.Jp != block.S:
            raise ValueError(f"J and J' fail to cover S in block {block}")
        if not block.S <= nodes:
            raise ValueError(f"block nodes {sorted(block.S)} outside the diagram")
        if block.S & used:
            raise ValueError(f"blocks overlap at {sorted(block.S & used)}")
        used |= block.S
        if not diagram.is_connected(block.S):
            raise ValueError(f"block support {sorted(block.S)} not connected in the diagram")
        if not diagram.is_totally_disconnected(block.J & block.Jp):
            raise ValueError(
                f"J and J' overlap {sorted(block.J & block.Jp)} is not totally disconnected"
            )


def reconstruct(decomp: PolishedDecomposition, diagram: CoxeterPresentation) -> Element:
    """The left-to-right product of the block triples in the group
    ``diagram``, whose Dynkin diagram is the path 1 - 2 - ... - rank, after
    validating the structural constraints on the block data."""
    validate_decomposition(decomp, diagram)
    e = diagram.identity()
    out = e
    for gens in _block_factors(decomp):
        out = out * longest_parabolic(e, gens)
    return out


def _block_factors(decomp: PolishedDecomposition) -> Iterator[frozenset[int]]:
    """The generator sets J, J and J', J' of each block in turn, whose longest
    elements multiply left to right to the decomposed element."""
    for block in decomp.blocks:
        yield block.J
        yield block.J & block.Jp
        yield block.Jp


# -- brute-force polished test ------------------------------------------------------


@functools.lru_cache(maxsize=16)
def _candidate_blocks(diagram: CoxeterPresentation) -> tuple[tuple[frozenset[int], Element], ...]:
    """All (S, product) pairs over connected S and covers S = J | J' with
    totally disconnected overlap, deduplicated by product."""
    e = diagram.identity()
    nodes = list(diagram.nodes)
    out: dict[tuple[frozenset[int], Element], None] = {}
    for mask in range(1, 1 << len(nodes)):
        S = frozenset(nodes[i] for i in range(len(nodes)) if mask >> i & 1)
        if not diagram.is_connected(S):
            continue
        members = sorted(S)
        for assign in range(3 ** len(members)):
            J, Jp = set(), set()
            q = assign
            for s in members:
                q, r = divmod(q, 3)
                if r == 0:
                    J.add(s)
                elif r == 1:
                    Jp.add(s)
                else:
                    J.add(s)
                    Jp.add(s)
            if not diagram.is_totally_disconnected(frozenset(J & Jp)):
                continue
            prod = (
                longest_parabolic(e, J)
                * longest_parabolic(e, frozenset(J & Jp))
                * longest_parabolic(e, Jp)
            )
            out[(S, prod)] = None
    return tuple(out.keys())


def is_polished_bruteforce(w: Element, diagram: CoxeterPresentation) -> bool:
    """Exhaustive search for Definition-2.4-style block data multiplying to w
    in the group ``diagram``, whose Dynkin diagram is the path 1 - ... - rank.

    Ordered sequences of pairwise disjoint connected supports are enumerated;
    consecutive blocks whose supports do not interact in the diagram are
    forced into min-first order to cut the search space.
    """
    if diagram.rank > 8:
        raise ValueError(f"diagram rank {diagram.rank} exceeds brute-force bound 8")
    e = diagram.identity()
    if e.n != w.n or not isinstance(w, type(e)):
        raise ValueError("element does not belong to the diagram's group")
    if w.is_identity():
        return True
    candidates = _candidate_blocks(diagram)
    below = build_interval(w)

    def interacts(S1: frozenset[int], S2: frozenset[int]) -> bool:
        return any(diagram.adjacent(s, t) for s in S1 for t in S2)

    def search(acc: Element, used: frozenset[int], last: Optional[frozenset[int]]) -> bool:
        for S, prod in candidates:
            if S & used:
                continue
            if last is not None and not interacts(last, S) and min(S) < min(last):
                continue  # commuting neighbors: canonical order only
            nxt = acc * prod
            if not below.contains(nxt):
                continue
            if nxt == w or search(nxt, used | S, S):
                return True
        return False

    return search(w.identity_like(), frozenset(), None)
