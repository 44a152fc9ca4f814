from hypothesis import HealthCheck, settings

from bruhatdual.permutations import Permutation

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def longest_permutation(n: int) -> Permutation:
    """w_0 of S_n, the one-line word n n-1 ... 1."""
    return Permutation(tuple(range(n, 0, -1)))
