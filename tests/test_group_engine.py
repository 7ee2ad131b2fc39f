import numpy as np
import pytest

from skewmorph import group_engine as ge
from skewmorph import skew_core as sc


@pytest.fixture(scope="module")
def x54(brute32):
    """Order-54 skew product of a non-normal order-6 member over F_3^2."""
    six = next(s for s in brute32.skews if s.order == 6 and not s.is_automorphism())
    spg = sc.SkewProductGroup(six, check=False)
    X = spg.as_finite_group()
    return six, X


def test_cyclic_and_elementary_abelian():
    C = ge.cyclic_group(12)
    assert len(C) == 12
    assert C.element_order(1) == 12
    assert C.element_order(4) == 3
    E = ge.elementary_abelian_group(3, 2)
    assert len(E) == 9
    assert E.is_abelian()
    assert ge.elementary_abelian_rank(E, 3) == 2


def test_perm_carrier_is_a_then_b():
    c = ge.perm_carrier(4)
    a, b = (1, 2, 3, 0), (0, 2, 1, 3)
    # a then b: x -> b[a[x]]
    assert c.mul(a, b) == tuple(b[a[x]] for x in range(4))
    assert c.mul(a, c.inv(a)) == c.identity == (0, 1, 2, 3)
    G = ge.FiniteGroup.from_generators(c, (a, b))
    assert len(G) == 24


def test_closure_cap():
    with pytest.raises(ge.ClosureCapError):
        ge.FiniteGroup.from_generators(ge.cyclic_carrier(100), (1,), cap=50)


def test_prime_power_split():
    assert ge.prime_power_split(27) == (3, 3)
    assert ge.prime_power_split(32) == (2, 5)
    with pytest.raises(ValueError):
        ge.prime_power_split(12)
    with pytest.raises(ValueError):
        ge.prime_power_split(1)


def test_normality_and_core(x54):
    six, X = x54
    G = X.subgroup(X.generators[:2])
    assert not ge.is_normal(G, X)
    C = ge.core(G, X)
    assert len(C) == 3
    assert ge.is_normal(C, X)
    # core is the largest normal subgroup inside G: every strictly larger
    # subgroup of G through C fails normality
    P = X.subgroup(X.generators[:2] + ((0, six.k % six.order),))
    assert len(P) == 27
    assert ge.is_normal(P, X)


def test_centralizer(x54):
    _, X = x54
    G = X.subgroup(X.generators[:2])
    cent = ge.centralizer(X, G.generators)
    assert X.identity in cent.element_set
    assert all(X.mul(x, g) == X.mul(g, x) for x in cent for g in G.generators)


def test_derived_subgroup_and_metabelian(x54):
    _, X = x54
    D = ge.derived_subgroup(X)
    assert len(D) == 9
    assert ge.is_normal(D, X)
    assert D.is_abelian()
    assert ge.is_metabelian(X)


def test_quotient_group(x54):
    _, X = x54
    G = X.subgroup(X.generators[:2])
    C = ge.core(G, X)
    Q, cmap = ge.quotient_group(X, C)
    assert len(Q) == 18
    assert not Q.is_abelian()
    # cmap is a homomorphism onto Q
    for a in X.elements[::7]:
        for b in X.elements[::11]:
            assert cmap[X.mul(a, b)] == Q.mul(cmap[a], cmap[b])


def test_omega1():
    E = ge.elementary_abelian_group(5, 2)
    assert len(ge.omega1_pgroup(E)) == 25
    M = ge.metacyclic_group(3, 2)
    assert len(M) == 27
    om = ge.omega1_pgroup(M)
    assert len(om) == 9
    assert ge.elementary_abelian_rank(om, 3) == 2


def test_metabelian_identity_on_x54(x54):
    _, X = x54
    rng = np.random.default_rng(0)
    elems = X.elements
    for _ in range(30):
        a = elems[rng.integers(len(elems))]
        b = elems[rng.integers(len(elems))]
        n = int(rng.integers(1, 6))
        assert ge.metabelian_identity_check(X, a, b, n, assume_metabelian=True)


def test_commutator_words(x54):
    _, X = x54
    a, b = X.generators[0], X.generators[-1]
    assert ge.iterated_commutator(X, a, b, 1, 1) == X.commutator(a, b)
    with pytest.raises(ValueError):
        ge.left_normed_commutator(X, [a])


def test_elementary_abelian_rank_rejects():
    C9 = ge.cyclic_group(9)
    assert ge.elementary_abelian_rank(C9) is None
    C6 = ge.cyclic_group(6)
    assert ge.elementary_abelian_rank(C6) is None
    assert ge.elementary_abelian_rank(C9.subgroup((3,)), 3) == 1


def test_normal_elem_abelian_subgroups(x54):
    _, X = x54
    subs = ge.normal_elem_abelian_subgroups(X, 2, p=3)
    assert len(subs) == 2
    for H in subs:
        assert len(H) == 9
        assert ge.is_normal(H, X)
        assert ge.elementary_abelian_rank(H, 3) == 2
        assert ge.has_complement(X, H)


def test_complement_absence():
    C9 = ge.cyclic_group(9)
    N3 = C9.subgroup((3,))
    assert not ge.has_complement(C9, N3)
    found = ge.find_complement(C9, N3)
    assert found is None


def test_complement_found_is_one(x54):
    _, X = x54
    subs = ge.normal_elem_abelian_subgroups(X, 2, p=3)
    K = ge.find_complement(X, subs[0])
    assert K is not None
    assert len(K) * len(subs[0]) == len(X)
    assert len(K.element_set & subs[0].element_set) == 1
