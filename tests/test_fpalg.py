import itertools

import numpy as np
import pytest

from skewmorph import fpalg
from skewmorph.fpalg import FpMatrix, FpVector


def test_check_prime_rejects_composites():
    fpalg.check_prime(2)
    fpalg.check_prime(13)
    with pytest.raises(ValueError):
        fpalg.check_prime(4)
    with pytest.raises(ValueError):
        fpalg.check_prime(1)


def test_vector_index_round_trip():
    for p, n in ((2, 3), (3, 2), (5, 3)):
        for i in range(p ** n):
            v = fpalg.index_vec(i, p, n)
            assert fpalg.vec_index(v) == i
    # big-endian: first coordinate is the most significant digit
    assert fpalg.vec_index(FpVector(3, (1, 0))) == 3
    assert fpalg.vec_index(FpVector(3, (0, 1))) == 1


def test_vector_arithmetic():
    a = FpVector(5, (1, 4))
    b = FpVector(5, (3, 3))
    assert (a + b).coords == (4, 2)
    assert (a - b).coords == (3, 1)
    assert (-a).coords == (4, 1)
    assert a.scale(3).coords == (3, 2)
    with pytest.raises(ValueError):
        FpVector(5, (5, 0))


def test_matrix_arithmetic_and_inverse():
    M = FpMatrix(7, ((2, 1), (3, 4)))
    I = FpMatrix.identity(7, 2)
    assert (M * M.inverse()) == I
    assert M.pow(0) == I
    assert M.pow(3) == M * M * M
    assert M.pow(-2) == (M * M).inverse()
    assert M.det() == (2 * 4 - 1 * 3) % 7
    singular = FpMatrix(7, ((1, 2), (2, 4)))
    assert singular.det() == 0
    with pytest.raises(ValueError):
        singular.inverse()


def test_matrix_order_divides_gl_order():
    for p, n in ((3, 2), (5, 2), (3, 3)):
        rng = np.random.default_rng(0)
        found = 0
        gl = fpalg.gl_order(n, p)
        while found < 10:
            a = rng.integers(0, p, (n, n))
            M = FpMatrix.from_array(a, p)
            if M.det() == 0:
                continue
            assert M.pow(M.order()).is_identity()
            assert gl % M.order() == 0
            found += 1


def test_row_convention_apply():
    # x -> x M acts on row vectors; the (1,0) row picks out the first row
    M = FpMatrix(3, ((1, 1), (0, 1)))
    assert M.apply(FpVector(3, (1, 0))).coords == (1, 1)
    assert M.apply(FpVector(3, (0, 1))).coords == (0, 1)


def test_gl_order_against_direct_count():
    for p, n in ((2, 2), (3, 2), (2, 3)):
        count = 0
        for entries in itertools.product(range(p), repeat=n * n):
            a = np.array(entries).reshape(n, n)
            if fpalg.det_mod(a, p) != 0:
                count += 1
        assert count == fpalg.gl_order(n, p)


def test_gl_matrices_array_complete():
    for p, n in ((3, 2), (2, 3)):
        ms = fpalg.gl_matrices_array(n, p)
        assert ms.shape == (fpalg.gl_order(n, p), n, n)
        dets = fpalg._batch_det(ms, p)
        assert (dets != 0).all()
        seen = {bytes(m.astype(np.uint8).ravel()) for m in ms}
        assert len(seen) == ms.shape[0]


def test_gl_generators_generate():
    for p, n in ((3, 2), (5, 2), (3, 3)):
        gens = fpalg.gl_generators(n, p)
        seen = {FpMatrix.identity(p, n)}
        frontier = list(seen)
        while frontier:
            nxt = []
            for M in frontier:
                for g in gens:
                    c = M * g
                    if c not in seen:
                        seen.add(c)
                        nxt.append(c)
            frontier = nxt
        assert len(seen) == fpalg.gl_order(n, p)


def test_primitive_root():
    for p in (3, 5, 7, 11, 13):
        r = fpalg.primitive_root(p)
        assert sorted(pow(r, e, p) for e in range(p - 1)) == list(range(1, p))


def test_matrix_to_perm_is_action():
    p, n = 3, 2
    M = fpalg.canonical_unipotent(n, p)
    perm = fpalg.matrix_to_perm(M)
    for i in range(p ** n):
        v = fpalg.index_vec(i, p, n)
        assert perm[i] == fpalg.vec_index(M.apply(v))
    ms = fpalg.gl_matrices_array(n, p)
    batch = fpalg.matrices_to_perms(ms, p)
    for row, m in zip(batch[:20], ms[:20]):
        single = fpalg.matrix_to_perm(FpMatrix.from_array(m, p))
        assert (row == single).all()


def test_canonical_unipotent_orders():
    for p in (3, 5, 7):
        for n in (2, 3):
            M = fpalg.canonical_unipotent(n, p)
            assert M.order() == p
            assert not M.is_identity()


def test_conjugacy_class_of_transvection():
    # size |GL| / |centralizer|; for the n=2 transvection over F_3 that is 48/6
    M = fpalg.canonical_unipotent(2, 3)
    cls = fpalg.conjugacy_class(M)
    cent = fpalg.centralizer_in_gl(M)
    assert len(cls) * len(cent) == fpalg.gl_order(2, 3)
    assert all(c.order() == 3 for c in cls)


def test_omega_sizes_and_formulas():
    assert len(fpalg.omega_set(3)) == 10
    assert len(fpalg.omega_set(5)) == 228
    assert fpalg.omega_formula_derivation(3) == 10
    assert fpalg.omega_formula_derivation(5) == 228
    assert fpalg.omega_formula_derivation(7) == 1230
    # the factored closed form disagrees with the enumerated set
    assert fpalg.omega_formula_printed(3) == 14
    assert fpalg.omega_formula_printed(3) != 10


def test_omega_members_move_every_line():
    for M in fpalg.omega_set(3):
        assert fpalg.moves_every_line(M)
        assert M.order() % 3 != 0
