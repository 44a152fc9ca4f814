"""Bruhat intervals, level graphs, and self-duality of [e, w] on symmetric
and hyperoctahedral groups, with an exhaustive verification harness."""

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
    avoids_selfdual_patterns,
    avoids_smooth_patterns,
    is_polished_bruteforce,
    polished_decompose,
    reconstruct,
)
from .signed import (
    CoxeterPresentation,
    SignedPermutation,
    evaluate_word,
)


__all__ = [
    "BruhatInterval",
    "CoxeterPresentation",
    "DualityCertificate",
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
    "avoids_selfdual_patterns",
    "avoids_smooth_patterns",
    "bipartite_isomorphic",
    "bruhat_leq",
    "build_interval",
    "certify_self_dual",
    "contains_pattern",
    "degree_extremes",
    "duality_map",
    "evaluate_word",
    "gamma_lower",
    "gamma_upper",
    "is_bp_decomposition",
    "is_polished_bruteforce",
    "longest_parabolic",
    "max_parabolic_below",
    "parabolic_decompose",
    "parse_permutation",
    "polished_decompose",
    "rank_profile",
    "reconstruct",
    "subword_leq",
]
