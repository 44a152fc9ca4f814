"""The polished-element machinery: the six-pattern test, the region/type
classification of a permutation's matrix, the one-step reduction table, and
assembly into ordered (S_i, J_i, J_i') block data whose triple products
reconstruct the element.

A permutation avoiding 3412, 4231, 34521, 45321, 54123 and 54312 decomposes
by repeatedly classifying the region structure around the entries (1, w(1))
and (w^{-1}(1), 1) and multiplying away a longest parabolic element; the
recorded generator windows chain into blocks whose alternating unions give
the J / J' covers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from .intervals import build_interval, longest_parabolic
from .permutations import (
    Permutation,
    PatternOccurrence,
    contains_pattern,
    identity,
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
    algorithm to stop; after a pattern precheck it would indicate a bug."""


def avoids_smooth_patterns(w: Permutation) -> bool:
    """True when w avoids 3412 and 4231 (rank-symmetric interval)."""
    return all(contains_pattern(w, p) is None for p in SMOOTH_PATTERNS)


def avoids_selfdual_patterns(w: Permutation) -> bool:
    """True when w avoids all six patterns characterizing self-dual [e, w]."""
    return all(contains_pattern(w, p) is None for p in SELFDUAL_PATTERNS)


def selfdual_pattern_witness(w: Permutation) -> Optional[PatternOccurrence]:
    """The first of the six patterns in w, 3412 and 4231 tried first, or None:
    w is smooth exactly when the witness is None or has length 5."""
    for p in SELFDUAL_PATTERNS:
        occ = contains_pattern(w, p)
        if occ is not None:
            return occ
    return None


# -- type classification -------------------------------------------------------


@dataclass(frozen=True)
class TypeTag:
    """Classification of a (smooth, w(1) != 1 unless trivial) permutation by
    the regions around the staircase from (1, w(1)) down to (w^{-1}(1), 1).

    tag: one of n, r0, r1, l0, l1.  t: one less than the number of staircase
    entries.  c_chain: the staircase positions of w itself (for l types the
    refinement is read off the inverse, but the chain reported is still w's).
    """

    tag: str
    t: int
    c_chain: tuple[int, ...]


def classify_type(w: Permutation) -> TypeTag:
    """Region classification; requires w smooth (3412- and 4231-avoiding).

    Raises when the region structure is inconsistent with smoothness, or when
    the r0/r1 refinement would need the 45321-type region to be nonempty.
    """
    n = w.n
    v1 = w(1)
    pos1 = w.inverse()(1)
    chain = tuple(a for a in range(1, pos1 + 1) if w(a) <= v1)
    t = len(chain) - 1
    vals = [w(a) for a in chain]
    if any(vals[i] <= vals[i + 1] for i in range(len(vals) - 1)):
        raise NotPolishedError(f"staircase of {w.one_line()} not decreasing: contains 4231")
    R = [a for a in range(2, pos1) if w(a) > v1]
    L = [a for a in range(pos1 + 1, n + 1) if 1 < w(a) < v1]
    if R and L:
        raise NotPolishedError(f"{w.one_line()} has both side regions nonempty: contains 3412")
    if not R and not L:
        return TypeTag("n", t, chain)
    if R:
        return TypeTag(_r_refinement(w, chain, R), t, chain)
    mirror = classify_type(w.inverse())
    if mirror.tag not in ("r0", "r1") or mirror.t != t:
        raise AssertionError(f"inconsistent mirror classification for {w.one_line()}")
    return TypeTag("l" + mirror.tag[1], t, chain)


def _r_refinement(w: Permutation, chain: tuple[int, ...], R: list[int]) -> str:
    t = len(chain) - 1
    if t == 1:
        return "r0"
    r2 = [a for a in R if a < chain[t - 2]]
    if r2:
        raise NotPolishedError(
            f"region below the staircase head of {w.one_line()} nonempty: contains 45321"
        )
    r1 = [a for a in R if chain[t - 2] < a < chain[t - 1]]
    return "r1" if r1 else "r0"


# -- one-step reduction -----------------------------------------------------------


def _leading_fixed_points(w: Permutation) -> int:
    m = 0
    while m < w.n and w(m + 1) == m + 1:
        m += 1
    return m


def _renormalize(w: Permutation, m: int) -> Permutation:
    return Permutation(tuple(w(i) - m for i in range(m + 1, w.n + 1)))


def decompose_step(w: Permutation) -> tuple[Permutation, tuple[int, ...], TypeTag]:
    """One reduction: strip leading fixed points, classify, multiply away the
    longest element of the classified window K, per the table

        n:  w_0(K) w = w w_0(K)     r0: w_0(K) w      r1: s_b w_0(K) w
                                    l0: w w_0(K)      l1: w w_0(K) s_b

    Returns (w', K, tag) with K in ambient generator indices.  The support of
    w' is checked against the tabulated residual window; a violation means the
    six-pattern precondition did not hold.
    """
    m = _leading_fixed_points(w)
    if m == w.n:
        raise ValueError("identity admits no reduction step")
    local = classify_type(_renormalize(w, m))
    t = local.t
    b = m + t
    K = tuple(range(m + 1, b + 1))
    w0k = longest_parabolic(identity(w.n), K)
    tag = local.tag
    if tag == "n":
        w_prime = w0k * w
        if w_prime != w * w0k:
            raise NotPolishedError(f"type-n step of {w.one_line()} fails to commute: bad input")
        support_floor = b + 2
    elif tag == "r0":
        w_prime = w0k * w
        support_floor = b + 1
    elif tag == "r1":
        w_prime = (w0k * w).times_simple_left(b)
        support_floor = b
    elif tag == "l0":
        w_prime = w * w0k
        support_floor = b + 1
    else:  # l1
        w_prime = (w * w0k).times_simple_right(b)
        support_floor = b
    if any(i < support_floor for i in w_prime.support()):
        raise NotPolishedError(
            f"step output {w_prime.one_line()} escapes its window: "
            f"{w.one_line()} violates the pattern precondition"
        )
    ambient = TypeTag(tag, t, tuple(c + m for c in local.c_chain))
    return w_prime, K, ambient


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
    chain contributes one block, J taking the odd-position windows and J'
    the even ones.  A chain ending in r0 (or n) multiplies to the left of
    what remains, a chain ending in l0 to the right.

    Raises NotPolishedError whenever the structure breaks down, which on
    unchecked input is simply the signal that w is not polished.
    """
    if w.is_identity():
        return PolishedDecomposition(())

    steps: list[tuple[tuple[int, ...], str]] = []
    x = w
    while not x.is_identity():
        x, K, tag = decompose_step(x)
        steps.append((K, tag.tag))

    # adjacency bookkeeping between consecutive windows
    for (K1, tag1), (K2, _) in zip(steps, steps[1:]):
        b, a = K1[-1], K2[0]
        if tag1 == "n":
            ok = b < a - 1
        elif tag1 in ("r0", "l0"):
            ok = b == a - 1
        else:
            ok = b == a
        if not ok:
            raise NotPolishedError(f"window adjacency violated after {tag1} step: {K1} vs {K2}")

    runs: list[list[tuple[tuple[int, ...], str]]] = []
    cur: list[tuple[tuple[int, ...], str]] = []
    for K, tag in steps:
        cur.append((K, tag))
        if tag in ("n", "r0", "l0"):
            runs.append(cur)
            cur = []
    if cur:
        raise NotPolishedError("reduction ended on an overlapping step")

    placed: list[tuple[PolishedBlock, bool]] = []
    for run in runs:
        interior = [tag for _, tag in run[:-1]]
        if any(tag not in ("r1", "l1") for tag in interior):
            raise NotPolishedError(f"non-overlapping step inside a chain: {interior}")
        if any(a == b for a, b in zip(interior, interior[1:])):
            raise NotPolishedError(f"overlapping steps fail to alternate: {interior}")
        # Window side: an r-flavored factor's longest element lands left of
        # the shared boundary generators, an l-flavored one right of them;
        # sides then alternate along the chain, the final window included
        # (its own r0/l0 flavor decides only the placement, not the side).
        first_in_j = run[0][1] in ("r1", "r0", "n")
        J: set[int] = set()
        Jp: set[int] = set()
        for pos, (K, _) in enumerate(run):
            in_j = first_in_j == (pos % 2 == 0)
            (J if in_j else Jp).update(K)
        meet = frozenset(K[-1] for K, _ in run[:-1])
        if frozenset(J) & frozenset(Jp) != meet:
            raise NotPolishedError("window overlaps disagree with J and J' intersection")
        block = PolishedBlock(frozenset(J) | frozenset(Jp), frozenset(J), frozenset(Jp))
        left = run[-1][1] in ("r0", "n")
        placed.append((block, left))

    ordered: list[PolishedBlock] = []
    for block, left in reversed(placed):
        if left:
            ordered.insert(0, block)
        else:
            ordered.append(block)
    decomp = PolishedDecomposition(tuple(ordered))

    if reconstruct(decomp, CoxeterPresentation("A", w.n - 1)) != w:
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
    for block in decomp.blocks:
        out = (
            out
            * longest_parabolic(e, block.J)
            * longest_parabolic(e, block.J & block.Jp)
            * longest_parabolic(e, block.Jp)
        )
    return out


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
