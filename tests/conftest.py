import pytest

from skewmorph import enumeration as en
from skewmorph import structure_verify as sv


@pytest.fixture(scope="session")
def brute32():
    return en.brute_force_enum(3, 2)


@pytest.fixture(scope="session")
def struct32():
    return en.full_enum(3, 2, method="structured")


@pytest.fixture(scope="session")
def set33():
    return en.full_enum(3, 3, method="structured")


@pytest.fixture(scope="session")
def set52():
    return en.full_enum(5, 2, method="structured")


@pytest.fixture(scope="session")
def set72():
    return en.full_enum(7, 2, method="structured")


@pytest.fixture(scope="session")
def small_brutes():
    """Brute-force sets for every p**n <= 9 configuration."""
    return {(p, n): en.brute_force_enum(p, n)
            for p, n in ((2, 1), (2, 2), (2, 3), (3, 1), (5, 1), (7, 1), (3, 2))}


@pytest.fixture(scope="session")
def example_reports():
    return {tag: sv.build_and_verify_example(tag) for tag in ("e1", "e2", "e3")}


# the law of skew_core.SkewProductGroup on pairs (g, i), one pair at a
# time: the scalar reference that its id-array mul and inv are checked
# against


def id_pair(X, ident):
    return divmod(int(ident), X.order)


def mult_pairs(X, a, b):
    ga, ia = a
    gb, ib = b
    g = int(X.add[ga, X.S[ia, gb]])
    i = (int(X.PS[ia, gb]) + ib) % X.order
    return (g, i)


def inv_pair(X, a):
    ga, ia = a
    gb = int(X.S[(X.order - ia) % X.order, X.neg[ga]])
    ib = (-int(X.PS[ia, gb])) % X.order
    return (gb, ib)


def splitmix64_scalar(c):
    """Output c of splitmix64 seeded at 0, c >= 1, by the scalar formula
    on Python ints: the reference for _kernels.splitmix64."""
    mask = (1 << 64) - 1
    z = c * 0x9E3779B97F4A7C15 & mask
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & mask
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
    return z ^ (z >> 31)
