import itertools
import tracemalloc

import numpy as np
import pytest

from skewmorph import _kernels as K
from skewmorph import fpalg


def _inverse(M, p):
    return fpalg.mat_pow(M, fpalg.matrix_order(M, p) - 1, p)


def test_check_prime_rejects_composites():
    fpalg.check_prime(2)
    fpalg.check_prime(13)
    with pytest.raises(ValueError):
        fpalg.check_prime(4)
    with pytest.raises(ValueError):
        fpalg.check_prime(1)


def test_check_prime_refuses_a_huge_p_before_trial_division(monkeypatch):
    # a p past PRIME_MAX is refused by the bound alone: trial division of
    # 10^18 + 3 would run for minutes
    is_prime = fpalg.is_prime

    def bounded(m):
        assert m <= fpalg.PRIME_MAX, "is_prime called on %d" % m
        return is_prime(m)

    monkeypatch.setattr(fpalg, "is_prime", bounded)
    with pytest.raises(ValueError, match=r"^p must be a prime <= 251, got 1000000000000000003$"):
        fpalg.check_prime(10 ** 18 + 3)
    fpalg.check_prime(251)


def test_prime_divisors():
    assert fpalg.prime_divisors(1) == []
    assert fpalg.prime_divisors(2) == [2]
    assert fpalg.prime_divisors(360) == [2, 3, 5]
    assert fpalg.prime_divisors(4374) == [2, 3]
    assert fpalg.prime_divisors(97) == [97]
    assert [m for m in range(30) if fpalg.is_prime(m)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_vector_index_round_trip():
    for p, n in ((2, 3), (3, 2), (5, 3)):
        V = K.index_vectors(p, n)
        place = p ** np.arange(n - 1, -1, -1)
        assert (V @ place == np.arange(p ** n)).all()
        assert len({tuple(v) for v in V}) == p ** n
    # big-endian: first coordinate is the most significant digit
    V = K.index_vectors(3, 2)
    assert tuple(V[3]) == (1, 0)
    assert tuple(V[1]) == (0, 1)


def test_vector_arithmetic():
    # vectors are point indices; arithmetic goes through the index tables
    add, sub, neg = K.index_tables(5, 2)
    V = K.index_vectors(5, 2)
    a, b = 1 * 5 + 4, 3 * 5 + 3
    assert tuple(V[add[a, b]]) == (4, 2)
    assert tuple(V[sub[a, b]]) == (3, 1)
    assert tuple(V[neg[a]]) == (4, 1)
    assert tuple(V[add[add[a, a], a]]) == (3, 2)


def test_matrix_arithmetic_and_inverse():
    M = fpalg.matrix(((2, 1), (3, 4)), 7)
    I = np.eye(2, dtype=np.int64)
    Minv = _inverse(M, 7)
    assert (M @ Minv % 7 == I).all()
    assert (fpalg.mat_pow(M, 0, 7) == I).all()
    assert (fpalg.mat_pow(M, 3, 7) == M @ M @ M % 7).all()
    assert (fpalg.mat_pow(Minv, 2, 7) == _inverse(M @ M % 7, 7)).all()
    assert fpalg.mat_det(M, 7) == (2 * 4 - 1 * 3) % 7
    singular = fpalg.matrix(((1, 2), (2, 4)), 7)
    assert fpalg.mat_det(singular, 7) == 0
    # the batch forms agree with the single-matrix forms
    batch = np.stack([M, singular, Minv])
    assert (fpalg.mat_det(batch, 7) == [fpalg.mat_det(m, 7) for m in batch]).all()
    assert (fpalg.mat_pow(batch, 5, 7) ==
            np.stack([fpalg.mat_pow(m, 5, 7) for m in batch])).all()
    with pytest.raises(ValueError):
        fpalg.mat_det(np.eye(4, dtype=np.int64), 7)


def test_matrix_rejects_bad_input():
    assert fpalg.matrix(((1, 2), (0, 1)), 3).dtype == np.int64
    with pytest.raises(ValueError):
        fpalg.matrix(((1, 2, 0), (0, 1, 0)), 3)
    with pytest.raises(ValueError):
        fpalg.matrix(((1, 0), (0, 1)), 9)
    with pytest.raises(ValueError):
        fpalg.matrix(((3, 0), (0, 1)), 3)


def test_matrix_order_divides_gl_order():
    for p, n in ((3, 2), (5, 2), (3, 3)):
        rng = np.random.default_rng(0)
        found = 0
        gl = fpalg.gl_order(n, p)
        while found < 10:
            M = rng.integers(0, p, (n, n))
            if fpalg.mat_det(M, p) == 0:
                continue
            order = fpalg.matrix_order(M, p)
            assert (fpalg.mat_pow(M, order, p) == np.eye(n, dtype=np.int64)).all()
            assert gl % order == 0
            found += 1


def test_row_convention_apply():
    # x -> x M acts on row vectors; the (1,0) row picks out the first row
    M = fpalg.matrix(((1, 1), (0, 1)), 3)
    perm = fpalg.matrix_to_perm(M, 3)
    assert perm[1 * 3 + 0] == 1 * 3 + 1
    assert perm[0 * 3 + 1] == 0 * 3 + 1


def test_gl_order_against_direct_count():
    for p, n in ((2, 2), (3, 2), (2, 3)):
        count = 0
        for entries in itertools.product(range(p), repeat=n * n):
            a = np.array(entries).reshape(n, n)
            if fpalg.mat_det(a, p) != 0:
                count += 1
        assert count == fpalg.gl_order(n, p)


def test_gl_matrices_array_complete():
    for p, n in ((3, 2), (2, 3)):
        ms = fpalg.gl_matrices_array(n, p)
        assert ms.shape == (fpalg.gl_order(n, p), n, n)
        dets = fpalg.mat_det(ms, p)
        assert (dets != 0).all()
        seen = {bytes(m.astype(np.uint8).ravel()) for m in ms}
        assert len(seen) == ms.shape[0]


def test_gl_generators_generate():
    # three generators, two at p = 2 where the diagonal would be I
    cases = [(n, p) for n in (1, 2) for p in (2, 3, 5, 7, 11, 13)] + [(3, 2), (3, 3)]
    for n, p in cases:
        gens = fpalg.gl_generators(n, p)
        assert gens.shape == (2 if p == 2 else 3, n, n)
        assert (fpalg.mat_det(gens, p) != 0).all()
        ident = np.eye(n, dtype=np.int64)
        seen = {ident.tobytes()}
        frontier = [ident]
        while frontier:
            nxt = []
            for M in frontier:
                for c in M @ gens % p:
                    if c.tobytes() not in seen:
                        seen.add(c.tobytes())
                        nxt.append(c)
            frontier = nxt
        assert len(seen) == fpalg.gl_order(n, p)


def test_primitive_root():
    for p in (2, 3, 5, 7, 11, 13):
        r = fpalg.primitive_root(p)
        assert sorted(pow(r, e, p) for e in range(p - 1)) == list(range(1, p))


def _apply_index(rows, p, i):
    """Index of v*M for the point of index i, in plain Python."""
    n = len(rows)
    v = [(i // p ** (n - 1 - j)) % p for j in range(n)]
    out = 0
    for j in range(n):
        out = out * p + sum(v[t] * rows[t][j] for t in range(n)) % p
    return out


def test_matrix_to_perm_is_action():
    for p, n in ((3, 2), (2, 3)):
        ms = fpalg.gl_matrices_array(n, p)[::7]
        batch = fpalg.matrix_to_perm(ms, p)
        assert batch.shape == (len(ms), p ** n)
        for row, m in zip(batch, ms):
            rows = m.tolist()
            expected = [_apply_index(rows, p, i) for i in range(p ** n)]
            assert fpalg.matrix_to_perm(m, p).tolist() == expected
            assert row.tolist() == expected
    M = fpalg.canonical_unipotent(3, 5)
    assert fpalg.matrix_to_perm(M, 5).tolist() == [
        _apply_index(M.tolist(), 5, i) for i in range(125)]


def _perm_reference(ms, p):
    """matrix_to_perm by the int64 formula: V @ M, its remainder mod p,
    then the place values."""
    ms = np.asarray(ms, dtype=np.int64)
    n = ms.shape[-1]
    V = K.index_vectors(p, n)
    place = p ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return ((V @ ms % p) @ place).astype(K.IDX_DTYPE)


@pytest.mark.parametrize("n, p", [(2, 2), (2, 3), (2, 5), (2, 7), (2, 11), (2, 13),
                                  (3, 2), (3, 3)])
def test_matrix_to_perm_matches_int64_formula_on_gl(n, p):
    ms = fpalg.gl_matrices_array(n, p)
    perms = fpalg.matrix_to_perm(ms, p)
    assert perms.dtype == K.IDX_DTYPE
    assert np.array_equal(perms, _perm_reference(ms, p))


def test_matrix_to_perm_shapes_and_unreduced_entries():
    p, n = 5, 3
    # unreduced and negative entries, two chunks and a part of one
    step = fpalg._PERM_CHUNK // p ** n
    ms = np.random.default_rng(1).integers(-3 * p, 3 * p, size=(2 * step + 3, n, n))
    assert np.array_equal(fpalg.matrix_to_perm(ms, p), _perm_reference(ms, p))
    one = fpalg.matrix_to_perm(ms[0], p)
    assert one.shape == (p ** n,)
    assert np.array_equal(one, _perm_reference(ms[0], p))
    empty = fpalg.matrix_to_perm(ms[:0], p)
    assert empty.shape == (0, p ** n) and empty.dtype == K.IDX_DTYPE


def test_matrix_to_perm_at_the_edge_of_the_index_range():
    ms = np.random.default_rng(2).integers(0, 181, size=(4, 2, 2))
    assert np.array_equal(fpalg.matrix_to_perm(ms, 181), _perm_reference(ms, 181))
    gl1 = np.arange(1, 251).reshape(-1, 1, 1)
    assert np.array_equal(fpalg.matrix_to_perm(gl1, 251), _perm_reference(gl1, 251))
    # 37**3 and 191**2 points would wrap in int16
    for n, p in ((3, 37), (2, 191)):
        with pytest.raises(ValueError, match="index range"):
            fpalg.matrix_to_perm(np.eye(n, dtype=np.int64), p)


def test_matrix_to_perm_traced_peak_at_gl33():
    # the int64 formula traces 13.9 MiB here; the int16 result is 0.6 MB
    ms = fpalg.gl_matrices_array(3, 3)
    tracemalloc.start()
    try:
        fpalg.matrix_to_perm(ms, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 10 ** 6


def test_canonical_unipotent_orders():
    for p in (3, 5, 7):
        for n in (2, 3):
            M = fpalg.canonical_unipotent(n, p)
            assert fpalg.matrix_order(M, p) == p
            assert not (M == np.eye(n, dtype=np.int64)).all()


def test_conjugacy_class_of_transvection():
    # size |GL| / |centralizer|; for the n=2 transvection over F_3 that is 48/6
    p = 3
    M = fpalg.canonical_unipotent(2, p)
    gl = fpalg.gl_matrices_array(2, p)
    inv = np.stack([_inverse(g, p) for g in gl])
    cls = {c.tobytes(): c for c in inv @ M @ gl % p}
    cent = [g for g in gl if (g @ M % p == M @ g % p).all()]
    assert len(cls) == 8 and len(cent) == 6
    assert len(cls) * len(cent) == fpalg.gl_order(2, p)
    assert all(fpalg.matrix_order(c, p) == 3 for c in cls.values())


def test_omega_sizes_and_formulas():
    assert len(fpalg.omega_set(3)) == 10
    assert len(fpalg.omega_set(5)) == 228
    assert fpalg.omega_formula_derivation(3) == 10
    assert fpalg.omega_formula_derivation(5) == 228
    assert fpalg.omega_formula_derivation(7) == 1230
    # the factored closed form disagrees with the enumerated set
    assert fpalg.omega_formula_printed(3) == 14
    assert fpalg.omega_formula_printed(3) != 10


@pytest.mark.parametrize("p", [11, 13])
def test_omega_derivation_counts_the_set_past_7(p):
    assert len(fpalg.omega_set(p)) == fpalg.omega_formula_derivation(p)


def test_omega_set_is_a_lexicographic_array():
    om = fpalg.omega_set(3)
    assert isinstance(om, np.ndarray)
    assert om.shape == (10, 3, 3)
    flat = [tuple(m.ravel().tolist()) for m in om]
    assert flat == sorted(flat)
    assert len(set(flat)) == 10


def test_omega_members_move_every_line():
    om = fpalg.omega_set(3)
    assert fpalg.moves_every_line(om, 3).all()
    for M in om:
        assert fpalg.moves_every_line(M, 3)
        assert fpalg.matrix_order(M, 3) % 3 != 0
