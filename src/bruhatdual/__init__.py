"""Bruhat intervals, level graphs, and self-duality of [e, w] on symmetric
and hyperoctahedral groups, with an exhaustive verification harness."""

from .diagrams import DynkinDiagram, type_a_diagram, type_b_diagram
from .duality import (
    DualityCertificate,
    LevelGraph,
    bipartite_isomorphic,
    certify_self_dual,
    duality_map,
    gamma_lower,
    gamma_upper,
)
from .intervals import (
    BruhatInterval,
    ParabolicDecomposition,
    bruhat_leq,
    build_interval,
    degree_extremes,
    is_bp_decomposition,
    longest_parabolic,
    max_parabolic_below,
    parabolic_decompose,
    rank_profile,
    subword_leq,
)
from .permutations import (
    ParseError,
    PatternOccurrence,
    Permutation,
    contains_pattern,
    parse_permutation,
)
from .polished import (
    NotPolishedError,
    PatternWitnessError,
    PolishedBlock,
    PolishedDecomposition,
    TypeTag,
    avoids_selfdual_patterns,
    avoids_smooth_patterns,
    classify_type,
    decompose_step,
    is_polished_bruteforce,
    polished_decompose,
    reconstruct,
)
from .signed import (
    CoxeterPresentation,
    SignedPermutation,
    all_reflections,
    evaluate_word,
    parse_word,
)


def longest_element(group: "CoxeterPresentation", J) -> "object":
    """w_0(J) for a type A or B presentation."""
    return longest_parabolic(group.identity(), J)


__all__ = [
    "BruhatInterval",
    "CoxeterPresentation",
    "DualityCertificate",
    "DynkinDiagram",
    "LevelGraph",
    "NotPolishedError",
    "ParabolicDecomposition",
    "ParseError",
    "PatternOccurrence",
    "PatternWitnessError",
    "Permutation",
    "PolishedBlock",
    "PolishedDecomposition",
    "SignedPermutation",
    "TypeTag",
    "all_reflections",
    "avoids_selfdual_patterns",
    "avoids_smooth_patterns",
    "bipartite_isomorphic",
    "bruhat_leq",
    "build_interval",
    "certify_self_dual",
    "classify_type",
    "contains_pattern",
    "decompose_step",
    "degree_extremes",
    "duality_map",
    "evaluate_word",
    "gamma_lower",
    "gamma_upper",
    "is_bp_decomposition",
    "is_polished_bruteforce",
    "longest_element",
    "longest_parabolic",
    "max_parabolic_below",
    "parabolic_decompose",
    "parse_permutation",
    "parse_word",
    "polished_decompose",
    "rank_profile",
    "reconstruct",
    "subword_leq",
    "type_a_diagram",
    "type_b_diagram",
]
