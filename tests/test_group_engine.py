import itertools

import numpy as np
import pytest

from skewmorph import _kernels as K
from skewmorph import enumeration as en
from skewmorph import fpalg
from skewmorph import group_engine as ge
from skewmorph import skew_core as sc

from conftest import splitmix64_scalar


@pytest.fixture(scope="module")
def x54(brute32):
    """Order-54 skew product of a non-normal order-6 member over F_3^2."""
    six = next(s for s in brute32.skews if s.order == 6 and not s.is_automorphism())
    spg = sc.SkewProductGroup(six, check=False)
    X = spg.as_finite_group()
    return six, X


@pytest.fixture(scope="module")
def e1_group():
    return ge.example_e1()["X"]


def test_cyclic_and_elementary_abelian():
    C = ge.cyclic_group(12)
    assert len(C) == 12
    assert C.element_order(1) == 12
    assert C.element_order(4) == 3
    E = ge.elementary_abelian_group(3, 2)
    assert len(E) == 9
    assert E.is_abelian()
    assert ge.elementary_abelian_rank(E, 3) == 2


def permutation_group(rows, generators):
    """The group of all of the given permutation rows, coded by row number:
    the reference carrier for the paper's factorization X = G<s> below.

    Rows keep the order given, the identity first, and a * b is "a then
    b", x -> b[a[x]].  A product row is located by its row-hash key, with
    splitmix64 weights, and a binary search over the sorted keys, then
    compared with the row found, so a product that leaves the rows raises ValueError, as do
    duplicate rows.
    """
    rows = np.ascontiguousarray(rows)
    M, N = rows.shape
    if (rows[0] != np.arange(N)).any():
        raise ValueError("the first row must be the identity")
    w = K.splitmix64(1, N).view(np.int64)
    keys = rows @ w
    order = np.argsort(keys)
    keys = keys[order]
    same = np.flatnonzero(keys[1:] == keys[:-1])
    if same.size:
        dup = (rows[order[same]] == rows[order[same + 1]]).all(axis=1).any()
        raise ValueError("duplicate rows" if dup else "row keys collide")
    flat = rows.ravel()

    def locate(prod):
        at = order[np.minimum(np.searchsorted(keys, prod @ w), M - 1)]
        if (rows[at] != prod).any():
            raise ValueError("a product leaves the permutation group")
        return ge._code(at)

    def mul(a, b):
        return locate(flat.take(np.multiply(b, N)[..., None] + rows[a]))

    def inv(a):
        return locate(np.argsort(rows[a], axis=-1))

    return ge.FiniteGroup.whole(ge.Carrier(mul, inv, M, "permutations of %d points" % N),
                                generators)


def _perm_rows(perms):
    return np.array([list(q) for q in perms])


def test_permutation_group_is_a_then_b():
    # S_4 on all of its rows, the identity first and the rest in order
    rows = _perm_rows(itertools.permutations(range(4)))
    S4 = permutation_group(rows, ())
    assert np.array_equal(S4.elements, np.arange(24)) and S4.identity == 0
    assert rows[0].tolist() == [0, 1, 2, 3]
    a, b = 5, 17
    # a then b: x -> b[a[x]], for ints and for broadcast arrays
    assert rows[S4.mul(a, b)].tolist() == [rows[b][rows[a][x]] for x in range(4)]
    codes = np.arange(24)
    prod = S4.mul(codes[:, None], codes)
    assert (rows[prod] == rows[codes[None, :, None], rows[:, None, :]]).all()
    assert type(S4.mul(a, b)) is int
    assert S4.mul(a, S4.inv(a)) == S4.identity == 0
    assert (S4.mul(codes, S4.inv(codes)) == 0).all()
    # a transposition and a 4-cycle generate S_4
    ids = {tuple(r): i for i, r in enumerate(rows.tolist())}
    G = S4.subgroup((ids[(1, 0, 2, 3)], ids[(1, 2, 3, 0)]))
    assert len(G) == 24


def test_permutation_group_refusals():
    # rows that are no group: a 3-cycle without its square
    rows = _perm_rows([(0, 1, 2, 3), (1, 2, 0, 3)])
    X = permutation_group(rows, (1,))
    with pytest.raises(ValueError, match="leaves"):
        X.mul(1, 1)
    with pytest.raises(ValueError, match="leaves"):
        X.inv(1)
    with pytest.raises(ValueError, match="leaves"):
        X.mul(np.array([0, 1]), 1)
    with pytest.raises(ValueError, match="duplicate"):
        permutation_group(_perm_rows([(0, 1, 2), (1, 0, 2), (1, 0, 2)]), ())
    with pytest.raises(ValueError, match="identity"):
        permutation_group(_perm_rows([(1, 0, 2), (0, 1, 2)]), ())


def _config_group_i(p, n, i):
    """G_i = <translations, L^-i>, the regular group of the configurations
    with this i, built as enumeration._config_group builds G_1."""
    add = K.index_tables(p, n)[0]
    trans = [add[:, p ** (n - 1 - j)] for j in range(n)]
    Li = fpalg.matrix_to_perm(fpalg.mat_pow(fpalg.canonical_unipotent(n, p), p - i, p), p)
    gens = [trans[0], Li[trans[1]]] if n == 2 else [trans[1], trans[2], Li[trans[0]]]
    rows = K.power_rows(gens[0], 1)
    for g in gens:
        rows = en._then(rows, K.power_rows(g, p))
    return rows


def _extracted_seed(p, n, G_rows, M2):
    """The seed of one canonical configuration read off X = G<s>: X on
    the rows g then s^e, coded g * o + e with o the order of s, G closed
    inside X and extract_skew checking the rest of the factorization."""
    L = fpalg.canonical_unipotent(n, p)
    k = fpalg.matrix_order(M2, p)
    s = fpalg.matrix_to_perm(en._crt_sigma(L, M2, k, p), p)
    o = k * p
    g_codes = [p ** (n - 1 - j) * o for j in range(n)]
    X = permutation_group(en._then(G_rows, K.power_rows(s, o)), g_codes + [1])
    G = X.subgroup(g_codes)
    assert len(G) == p ** n
    return sc.extract_skew(X, G, 1, g_codes)


def _sigma2_list(p, n):
    return en._scalar_sigma2_list(p) if n == 2 else fpalg.omega_set(p)


@pytest.mark.parametrize("p, n", [(5, 2), (7, 2), (3, 3)])
def test_extracted_seeds_equal_orbit_map_seeds(p, n):
    sigma2_list = _sigma2_list(p, n)
    seeds = en._canonical_config_seeds(p, n, sigma2_list).images
    G_rows = en._config_group(p, n)
    assert np.array_equal(_config_group_i(p, n, 1), G_rows)  # the test-local G_1
    for M2, seed in zip(sigma2_list, seeds, strict=True):
        assert np.array_equal(_extracted_seed(p, n, G_rows, M2).images, seed)


@pytest.mark.parametrize("p, n", [(5, 2), (7, 2), (3, 3)])
def test_seeds_of_every_other_i_lie_in_the_i1_closure(p, n):
    # the enumeration seeds the configurations with i = 1 alone: the seed
    # of every (i, sigma_2) with i >= 2, read off X = G_i<s>, must be a
    # member of the GL closure of the i = 1 seeds
    sigma2_list = _sigma2_list(p, n)
    count, closure = en.aut_closure(p, n, en._canonical_config_seeds(p, n, sigma2_list))
    assert count == en.nonnormal_count(p, n)
    members = {row.tobytes() for row in closure.images}
    checked = 0
    for i in range(2, p):
        G_rows = _config_group_i(p, n, i)
        for M2 in sigma2_list:
            seed = _extracted_seed(p, n, G_rows, M2).images.astype(K.IDX_DTYPE)
            assert seed.tobytes() in members, (i, M2.tolist())
            checked += 1
    assert checked == (p - 2) * len(sigma2_list)


def test_closure_cap():
    with pytest.raises(ge.ClosureCapError):
        ge.FiniteGroup.from_generators(ge.cyclic_carrier(100), (1,), cap=50)


@pytest.mark.parametrize("name", ["e1", "Z_3^2"])
def test_generator_codes_outside_the_carrier_are_refused(e1_group, name):
    # the laws read their tables by .take, which wraps a negative code:
    # close_many refuses such a code before any law sees it
    X = e1_group if name == "e1" else ge.elementary_abelian_group(3, 2)
    for bad in (-1, len(X)):
        msg = "generator code %d is outside 0..%d" % (bad, len(X) - 1)
        with pytest.raises(ValueError, match=msg):
            ge.FiniteGroup.from_generators(X.carrier, (bad,))
        with pytest.raises(ValueError, match=msg):
            X.subgroup((X.generators[0], bad))
        with pytest.raises(ValueError, match=msg):
            ge.close_many(X, [[0, 1], [bad, 0]], len(X))


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
    # subgroup of G through C fails normality; sigma^k has the id k
    P = X.subgroup(X.generators[:2] + (six.k % six.order,))
    assert len(P) == 27
    assert ge.is_normal(P, X)


def test_centralizer(x54):
    _, X = x54
    G = X.subgroup(X.generators[:2])
    cent = ge.centralizer(X, G.generators)
    assert cent.mask[X.identity]
    assert all(X.mul(x, g) == X.mul(g, x) for x in cent.elements.tolist() for g in G.generators)


def _scalar_class(X, x):
    # reference: a scalar BFS over conjugation by the generators
    seen, queue = {x}, [x]
    while queue:
        y = queue.pop()
        for g in X.generators:
            c = X.conj(y, g)
            if c not in seen:
                seen.add(c)
                queue.append(c)
    return sorted(seen)


def test_conjugacy_class_matches_scalar_bfs(x54, e1_group):
    for X in (x54[1], e1_group, ge.example_e2()["X"]):
        seen = set()
        for x in X.elements[::5]:
            cl = X.conjugacy_class(x)
            assert cl.tolist() == _scalar_class(X, x)
            seen.add(len(cl))
        assert 1 in seen and len(seen) > 1


def test_core_and_centralizer_generating_sets():
    # each generator lies outside the span of the ones before it, so a
    # group of order p^r gets at most r of them
    d = ge.example_e1()
    X, G = d["X"], d["G"]
    for H, order in ((ge.core(G, X), 27), (ge.centralizer(X, d["A"].generators), 243)):
        assert len(H) == order
        assert 1 <= len(H.generators) <= round(np.log(order) / np.log(3))
        assert np.array_equal(X.subgroup(H.generators).mask, H.mask)
    assert ge.elementary_abelian_rank(ge.core(G, X), 3) == 3


def test_derived_subgroup_and_metabelian(x54):
    _, X = x54
    # X' is generated by the commutators of all pairs of elements
    e = X.elements
    D = X.subgroup(np.unique(X.commutator(e[:, None], e)).tolist())
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


def test_quotient_cmap_is_an_array_homomorphism(x54):
    _, X = x54
    C = ge.core(X.subgroup(X.generators[:2]), X)
    Q, cmap = ge.quotient_group(X, C)
    # cosets coded 0..17, in the order of their smallest elements
    assert np.array_equal(Q.elements, np.arange(18)) and Q.identity == 0
    assert cmap.dtype.kind == "i" and cmap.shape == (len(X),)
    assert np.array_equal(np.flatnonzero(cmap == 0), C.elements)
    assert np.bincount(cmap).tolist() == [len(C)] * 18
    firsts = [int(np.flatnonzero(cmap == q)[0]) for q in range(18)]
    assert firsts == sorted(firsts)
    # on every pair at once, and through Q's law on arrays
    x = np.arange(len(X))
    assert (cmap[X.mul(x[:, None], x)] == Q.mul(cmap[x][:, None], cmap[x])).all()
    assert (cmap[X.inv(x)] == Q.inv(cmap[x])).all()
    assert type(Q.mul(3, 5)) is int
    assert Q.generators == tuple(dict.fromkeys(
        int(cmap[g]) for g in X.generators if cmap[g] != 0))


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
    assert np.count_nonzero(K.mask & subs[0].mask) == 1


def test_build_extension_refusals():
    C9 = ge.cyclic_group(9)
    # 3 = 1 + 1 + 1 in the base, so 3 must go to 3 * alpha(1) = 6, not 3
    two_gens = ge.FiniteGroup.whole(C9.carrier, (1, 3))
    with pytest.raises(ValueError, match="not a homomorphism"):
        ge.build_extension(two_gens, 2, {1: 2, 3: 3})
    with pytest.raises(ValueError, match="action missing generator 3"):
        ge.build_extension(two_gens, 2, {1: 2})
    # an image outside the base is refused before any mask is indexed
    for image in (9, -1):
        with pytest.raises(ValueError, match="outside the base"):
            ge.build_extension(C9, 2, {1: image})
    # <3> is the subgroup of order 3, where 3 -> 6 is an automorphism
    with pytest.raises(ValueError, match="do not reach the whole base"):
        ge.build_extension(ge.FiniteGroup.whole(C9.carrier, (3,)), 2, {3: 6})
    # x -> 3x is a homomorphism of C9 with kernel <3>
    with pytest.raises(ValueError, match="not injective"):
        ge.build_extension(C9, 2, {1: 3})
    # alpha(x) = 2x has order 6 mod 9, so alpha^2 is not trivial conjugation
    with pytest.raises(ValueError, match="t-th power"):
        ge.build_extension(C9, 2, {1: 2})
    with pytest.raises(ValueError, match="fix the twist"):
        ge.build_extension(C9, 6, {1: 2}, twist=3)
    with pytest.raises(ValueError, match="top order must be positive"):
        ge.build_extension(C9, 0, {1: 2})
    with pytest.raises(ValueError, match="the base must be all of its carrier"):
        ge.build_extension(C9.subgroup((3,)), 2, {3: 6})
    for twist in (9, -1):
        with pytest.raises(ValueError, match="twist element is not in the base"):
            ge.build_extension(C9, 6, {1: 2}, twist=twist)
    # the same action with the fixed twist 0 and t = 6 is accepted
    assert len(ge.build_extension(C9, 6, {1: 2})) == 54
    # a twisted one: x^-1 b x = b^4 and x^3 = b^3, which 4x fixes
    X = ge.build_extension(C9, 3, {1: 4}, twist=3)
    b, x = X.generators
    assert len(X) == 27 and X.element_order(x) == 9
    assert X.power(x, 3) == X.power(b, 3) == 3 * 3
    assert X.conj(b, x) == X.power(b, 4)


# up to order 200 every triple is checked, above it 10^5 seeded triples
@pytest.mark.parametrize("n", [12, 300])
def test_extension_self_test_rejects_bad_law(n):
    # Z_n by its Cayley table, then row r permuted away from x -> r + x on
    # every column but those of the identity and of -r: identity and
    # inverses still hold, associativity does not
    T = np.add.outer(np.arange(n), np.arange(n)) % n
    ge.check_group_law(ge.FiniteGroup.whole(
        ge.Carrier(lambda a, b: T[a, b], lambda a: (-a) % n, n), (1,)))
    r = 5
    cols = np.array([x for x in range(1, n) if x != n - r])
    T[r, cols] = T[r, cols[::-1]]
    X = ge.FiniteGroup.whole(ge.Carrier(lambda a, b: T[a, b], lambda a: (-a) % n, n), (1,))
    with pytest.raises(AssertionError, match="associativity"):
        ge.check_group_law(X)


def _reference_triples(k, n):
    """Chunk k of check_group_law's sampled triples at n codes, as a
    (3, ASSOC_CHUNK) array: the multiply-high of the high halves of the
    scalar splitmix64 at counters 1 + 3 k ASSOC_CHUNK onward."""
    size = 3 * ge.ASSOC_CHUNK
    start = 1 + k * size
    codes = [(splitmix64_scalar(c) >> 32) * n >> 32 for c in range(start, start + size)]
    return np.array(codes).reshape(3, ge.ASSOC_CHUNK)


def test_assoc_draws_are_the_high_halves_of_splitmix64():
    draws = ge._assoc_draws()
    assert draws.dtype == np.uint32 and draws.shape == (10, 3, ge.ASSOC_CHUNK)
    assert not draws.flags.writeable
    for c in (1, 150_001, 300_000):
        assert draws.reshape(-1)[c - 1] == splitmix64_scalar(c) >> 32


@pytest.mark.parametrize("n", [201, 2352, 4374, 2 ** 32 - 1])
def test_assoc_triples_are_codes_of_the_law(n):
    codes = np.stack(list(ge._assoc_triples(n)))
    assert codes.shape == (10, 3, ge.ASSOC_CHUNK)
    assert codes.min() >= 0 and codes.max() < n
    if n == 201:
        assert (np.bincount(codes.ravel(), minlength=n) > 0).all()


def test_assoc_draws_are_built_once(monkeypatch):
    # a build makes one splitmix64 call per chunk; every later check
    # reads the cached draws
    splitmix64, counts = K.splitmix64, []

    def counted(start, count):
        counts.append(count)
        return splitmix64(start, count)

    ge._assoc_draws.cache_clear()
    monkeypatch.setattr(K, "splitmix64", counted)
    ge.check_group_law(ge.cyclic_group(300))
    assert counts == [3 * ge.ASSOC_CHUNK] * 10
    ge.check_group_law(ge.cyclic_group(301))
    assert len(counts) == 10


def test_group_law_check_multiplies_every_sampled_triple():
    # the associativity pass lies between the two identity products and
    # the two inverse ones; per chunk it calls mul on (x, y), (xy, z),
    # (y, z) and (x, yz)
    n = 2352
    C, calls = ge.cyclic_carrier(n), []

    def mul(a, b):
        calls.append(np.broadcast_arrays(a, b))
        return C.mul(a, b)

    ge.check_group_law(ge.Carrier(mul, C.inv, n))
    assoc = calls[2:-2]
    assert sum(a.size for a, _ in assoc) == 4 * 10 ** 5
    for k, (xy, xyz) in ((0, assoc[:2]), (9, assoc[-4:-2])):
        want = _reference_triples(k, n)
        assert (xy[0] == want[0]).all() and (xy[1] == want[1]).all()
        assert (xyz[1] == want[2]).all()


def test_reference_group_relations():
    # e2: a^s = a^2 b, b^s = b^2, s^6 = 1
    X = ge.example_e2()["X"]
    a, b, s = X.generators
    assert [X.element_order(x) for x in (a, b, s)] == [3, 3, 6]
    assert X.conj(a, s) == X.mul(X.mul(a, a), b)
    assert X.conj(b, s) == X.mul(b, b)
    groups = [X]

    # e1: a_1^s = a_1, a_2^s = a_1 a_2, a_3^s = a_2 a_3, s^9 = 1,
    # b fixes A and s^b = s^4 a_3
    X = ge.example_e1()["X"]
    a1, a2, a3, s, b = X.generators
    assert [X.element_order(x) for x in (a1, a2, a3, s, b)] == [3, 3, 3, 9, 3]
    assert X.conj(a1, s) == a1
    assert X.conj(a2, s) == X.mul(a1, a2)
    assert X.conj(a3, s) == X.mul(a2, a3)
    assert all(X.conj(x, b) == x for x in (a1, a2, a3))
    assert X.conj(s, b) == X.mul(X.power(s, 4), a3)
    groups.append(X)

    # e3: a1^s = a1 a2, a2^s = a2 a3, a3^s = a3, a4^s = a4, s^18 = 1,
    # a5 fixes a1..a4 and s^(a5) = s^13 a1 a2 a3
    X = ge.example_e3()["X"]
    a1, a2, a3, a4, s, a5 = X.generators
    assert X.element_order(s) == 18 and X.element_order(a5) == 3
    assert X.conj(a1, s) == X.mul(a1, a2)
    assert X.conj(a2, s) == X.mul(a2, a3)
    assert X.conj(a3, s) == a3 and X.conj(a4, s) == a4
    assert all(X.conj(x, a5) == x for x in (a1, a2, a3, a4))
    assert X.conj(s, a5) == X.mul(X.power(s, 13), X.mul(X.mul(a1, a2), a3))
    groups.append(X)

    # the law on index arrays is the scalar law elementwise, on ints
    for X in groups:
        u = np.arange(len(X))
        v = (7 * u + 3) % len(X)
        prod = X.mul(u, v)
        assert prod.tolist() == [X.mul(int(x), int(y)) for x, y in zip(u, v)]
        assert X.inv(u).tolist() == [X.inv(x) for x in X.elements.tolist()]
        assert all(type(X.mul(x, x)) is int for x in X.generators)


@pytest.fixture
def closures(monkeypatch):
    """The generator tuples given to FiniteGroup.from_generators, in order."""
    calls = []
    real = ge.FiniteGroup.from_generators.__func__

    def counted(cls, carrier, gens, cap=ge.CLOSURE_CAP):
        calls.append(tuple(gens))
        return real(cls, carrier, gens, cap)

    monkeypatch.setattr(ge.FiniteGroup, "from_generators", classmethod(counted))
    return calls


def _seeded_rows(rng, n, B, w):
    """B rows of w codes in 0..n-1, with identity padding and repeats."""
    rows = rng.integers(1, n, (B, w))
    rows[::3, -1] = 0                # padded with the identity
    rows[1::4, 1] = rows[1::4, 0]    # a generator given twice
    rows[2] = 0                      # the trivial subgroup
    return rows


def _scalar_closure(X, gens):
    # reference: a scalar BFS over the group law, one product at a time
    elems, queue = {0}, [0]
    while queue:
        x = queue.pop()
        for g in gens:
            y = X.mul(x, g)
            if y not in elems:
                elems.add(y)
                queue.append(y)
    return elems


@pytest.mark.parametrize("name, cap", [("e1", 27), ("e2", 9), ("C9", 3), ("x54", 9)])
def test_close_many_matches_from_generators(x54, e1_group, name, cap):
    X = {"e1": e1_group, "e2": ge.example_e2()["X"], "C9": ge.cyclic_group(9),
         "x54": x54[1]}[name]
    # every group here is all of its carrier, the skew product x54 too
    assert X.mask.all()
    rows = _seeded_rows(np.random.default_rng(len(X)), len(X), 16, 3)
    masks, over = ge.close_many(X, rows, cap)
    assert masks.shape == (16, len(X)) and over.shape == (16,)
    assert over.any() and not over.all()
    for row, mask, big in zip(rows, masks, over):
        gens = [int(g) for g in row if g != 0]
        H = ge.FiniteGroup.from_generators(X.carrier, gens)
        assert set(H.elements.tolist()) == _scalar_closure(X, gens)
        assert big == (len(H) > cap)
        if big:
            assert mask.sum() > cap and not (mask > H.mask).any()
        else:
            assert np.array_equal(mask, H.mask)


def _scalar_find_complement(X, N):
    # one scalar closure per candidate: cyclic K first, then pairs in
    # (i < j) order, the first accepted one wins
    m = len(X) // len(N)
    orders = {}
    for x in X.elements.tolist():
        if x == X.identity:
            continue
        o = X.element_order(x)
        if m % o:
            continue
        if any(N.mask[X.power(x, o // q)] for q in fpalg.prime_divisors(o)):
            continue
        orders[x] = o
    for x, o in orders.items():
        if o == m:
            K = X.subgroup((x,))
            if len(K) == m and np.count_nonzero(K.mask & N.mask) == 1:
                return K
    cands = list(orders)
    for i, x in enumerate(cands):
        for y in cands[i + 1:]:
            try:
                K = ge.FiniteGroup.from_generators(X.carrier, (x, y), cap=m)
            except ge.ClosureCapError:
                continue
            if len(K) == m and np.count_nonzero(K.mask & N.mask) == 1:
                return K
    return None


def test_find_complement_first_pair(x54, e1_group, closures):
    _, X = x54
    rank2 = ge.normal_elem_abelian_subgroups(X, 2, p=3)
    rank1 = ge.normal_elem_abelian_subgroups(X, 1, p=3)
    assert len(rank2) == 2 and len(rank1) >= 1
    found = []
    for N in rank2 + rank1:
        start = len(closures)
        K = ge.find_complement(X, N)
        # the candidates are closed in batches; only the K returned is
        # built as a FiniteGroup
        assert len(closures) - start == (K is not None)
        ref = _scalar_find_complement(X, N)
        found.append(K is not None)
        if ref is None:
            assert K is None
            continue
        assert np.array_equal(K.elements, ref.elements) and K.generators == ref.generators
        assert K.carrier is X.carrier
    assert found[:2] == [True, True]
    rank4 = ge.normal_elem_abelian_subgroups(e1_group, 4, p=3)
    assert len(rank4) == 1
    start = len(closures)
    assert ge.find_complement(e1_group, rank4[0]) is None
    assert len(closures) == start
    assert _scalar_find_complement(e1_group, rank4[0]) is None


def _scalar_normal_search(X, rank, p):
    # the join search with one scalar closure per join, as a reference
    target = p ** rank
    classes = []
    seen = set()
    for x in X.elements.tolist():
        if x not in seen and x != X.identity and X.power(x, p) == X.identity:
            cl = frozenset(X.conjugacy_class(x).tolist())
            seen |= cl
            classes.append(cl)

    def grow(gens, cl):
        try:
            H = ge.FiniteGroup.from_generators(
                X.carrier, gens + tuple(sorted(cl)), target)
        except ge.ClosureCapError:
            return None
        return H if ge.elementary_abelian_rank(H, p) is not None else None

    def elems(H):
        return frozenset(H.elements.tolist())

    found, nodes, queue = {}, {}, []
    for cl in classes:
        H = grow((), cl)
        if H is not None and elems(H) not in nodes:
            nodes[elems(H)] = H
            queue.append(H)
    while queue:
        H = queue.pop()
        if len(H) == target:
            found[elems(H)] = H
            continue
        for cl in classes:
            if not cl <= elems(H):
                J = grow(H.generators, cl - elems(H))
                if J is not None and elems(J) not in nodes:
                    nodes[elems(J)] = J
                    queue.append(J)
    return sorted(found.values(), key=lambda H: H.elements.tolist())


@pytest.mark.parametrize("name", ["x54", "e2"])
def test_normal_elem_abelian_subgroups_reference(x54, closures, name):
    X = x54[1] if name == "x54" else ge.example_e2()["X"]
    for rank in (1, 2):
        start = len(closures)
        subs = ge.normal_elem_abelian_subgroups(X, rank, p=3)
        # joins are closed in batches, and the subgroups returned are the
        # masks closed there: none is closed again
        assert len(closures) == start
        ref = _scalar_normal_search(X, rank, 3)
        assert len(subs) >= 1
        assert [(H.elements.tolist(), H.generators) for H in subs] == \
            [(H.elements.tolist(), H.generators) for H in ref]


def test_finite_group_is_its_close_many_mask(x54):
    _, X = x54
    gens = X.generators[:2]
    H = ge.FiniteGroup.from_generators(X.carrier, gens)
    masks, _ = ge.close_many(X.carrier, [gens], ge.CLOSURE_CAP)
    assert np.array_equal(H.mask, masks[0])
    assert np.array_equal(H.elements, np.flatnonzero(masks[0]))
    # neither the mask nor the elements can be written
    for arr in (H.mask, H.elements):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[1]
    assert H.mask[0] and len(H) == 9
    # code lists, int arrays and masks of the wrong length are refused:
    # range(24) read as a mask would drop the code 0
    C = ge.cyclic_carrier(24)
    for bad in (range(24), list(range(24)), np.arange(24), np.ones(23, dtype=bool),
                np.ones((1, 24), dtype=bool), [True] * 24):
        with pytest.raises(ValueError, match="bool mask of length 24"):
            ge.FiniteGroup(C, bad, (1,))
    assert len(ge.FiniteGroup(C, np.ones(24, dtype=bool), (1,))) == 24
