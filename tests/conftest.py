from hypothesis import HealthCheck, settings

from bruhatdual.permutations import Permutation, identity

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def longest_permutation(n: int) -> Permutation:
    """w_0 of S_n, the one-line word n n-1 ... 1."""
    return Permutation(tuple(range(n, 0, -1)))


def simple_transposition(n: int, i: int) -> Permutation:
    """s_i of S_n, the identity with positions i and i + 1 swapped."""
    return identity(n).times_simple_right(i)
