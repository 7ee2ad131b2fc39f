import numpy as np
import pytest

from skewmorph import _kernels as K
from skewmorph import fpalg


def test_index_tables_shapes():
    add, sub, neg = K.index_tables(3, 2)
    assert add.shape == sub.shape == (9, 9)
    assert neg.shape == (9,)
    assert add.dtype == K.IDX_DTYPE
    # 0 is the identity; sub inverts add
    assert (add[0] == np.arange(9)).all()
    idx = np.arange(9)
    assert (sub[add[idx, 4], 4] == idx).all()
    assert (add[idx, neg[idx]] == 0).all()
    # 37**3 points do not fit int16 indices: rejected before any table is built
    with pytest.raises(ValueError):
        K.index_tables(37, 3)


def test_perm_order_capped():
    assert K.perm_order_capped(np.arange(9, dtype=K.IDX_DTYPE), 8) == 1
    # 3-cycle and 5-cycle with 0 fixed: order 15
    images = np.array([0, 2, 3, 1, 5, 6, 7, 8, 4], dtype=K.IDX_DTYPE)
    assert K.perm_order_capped(images, 100) == 15
    assert K.perm_order_capped(images, 8) == -1


def test_validate_images_ok():
    arrs = K.brute_images(3, 2)
    for row in arrs:
        status, order, pi, witness = K.validate_images(3, 2, row)
        assert status == K.OK
        assert witness == -1
        assert 1 <= order <= 8
        assert pi[0] == (1 if order > 1 else 0)


def test_validate_images_rejections():
    # not a permutation
    bad = np.array([0, 1, 1, 3, 4, 5, 6, 7, 8], dtype=K.IDX_DTYPE)
    status, _, _, _ = K.validate_images(3, 2, bad)
    assert status == K.NOT_PERMUTATION
    # does not fix 0
    bad = np.array([1, 0, 2, 3, 4, 5, 6, 7, 8], dtype=K.IDX_DTYPE)
    status, _, _, _ = K.validate_images(3, 2, bad)
    assert status == K.NOT_PERMUTATION
    # order 15 > 8 can never be a skew-morphism order on 9 points
    bad = np.array([0, 2, 3, 1, 5, 6, 7, 8, 4], dtype=K.IDX_DTYPE)
    status, _, _, _ = K.validate_images(3, 2, bad)
    assert status in (K.ORDER_TOO_BIG, K.NO_POWER_MATCH)


def test_validate_images_no_power_match():
    # transposition (fixing 0) breaks the skew identity over F_3^2
    bad = np.arange(9, dtype=K.IDX_DTYPE)
    bad[1], bad[2] = 2, 1
    bad[3], bad[4] = 4, 3
    status, _, _, witness = K.validate_images(3, 2, bad)
    assert status == K.NO_POWER_MATCH
    assert witness >= 0


def test_conj_batch_round_trip():
    arrs = K.brute_images(3, 2)
    M = fpalg.canonical_unipotent(2, 3)
    a = fpalg.matrix_to_perm(M).astype(K.IDX_DTYPE)
    ainv = fpalg.matrix_to_perm(M.inverse()).astype(K.IDX_DTYPE)
    conj = K.conj_batch(arrs, a, ainv)
    # conjugating a complete set by an automorphism permutes it
    assert {bytes(r) for r in conj} == {bytes(r) for r in arrs}
    assert (K.validate_many(3, 2, conj) == K.OK).all()
    back = K.conj_batch(conj, ainv, a)
    assert (back == arrs).all()


def test_lex_sorted():
    a = np.array([[0, 2, 1], [0, 1, 2]], dtype=K.IDX_DTYPE)
    s = K.lex_sorted(a)
    assert (s[0] == [0, 1, 2]).all() and (s[1] == [0, 2, 1]).all()
