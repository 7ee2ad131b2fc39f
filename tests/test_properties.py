"""Randomized law checks that do not depend on any enumerated set."""

import numpy as np
from hypothesis import given, settings, strategies as st

from skewmorph import _kernels as K
from skewmorph import fpalg
from skewmorph import skew_core as sc

perms_9 = st.permutations(list(range(1, 9)))


@settings(max_examples=150, deadline=None)
@given(perms_9)
def test_validator_accepts_exactly_the_law(tail):
    images = np.array([0] + list(tail), dtype=np.int64)
    add, _, _ = K.index_tables(3, 2)
    try:
        sk = sc.validate(3, 2, images)
    except sc.SkewValidationError:
        # rejection must be justified: no power assignment can work, which
        # at minimum means the constant-1 assignment (automorphism) fails
        lhs = images[add]
        rhs = add[images[:, None], images[None, :]]
        assert not (lhs == rhs).all()
        return
    S = sk.power_table()
    lhs = sk.images[add]
    rhs = add[sk.images[:, None], S[np.asarray(sk.pi, dtype=np.int64)]]
    assert (lhs == rhs).all()
    assert sk.order <= 8


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 3 ** 4 - 1))
def test_random_matrix_skews(seed):
    entries = [(seed // 3 ** j) % 3 for j in range(4)]
    M = fpalg.matrix(((entries[0], entries[1]), (entries[2], entries[3])), 3)
    if fpalg.mat_det(M, 3) == 0:
        return
    sk = sc.validate(3, 2, fpalg.matrix_to_perm(M, 3))
    assert sk.is_automorphism()
    assert sk.order == fpalg.matrix_order(M, 3)
    sk2 = sc.validate(3, 2, sk.images)
    assert sk2 == sk and (np.asarray(sk2.pi) == np.asarray(sk.pi)).all()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_perm_order_is_minimal(seed):
    rng = np.random.default_rng(seed)
    tail = rng.permutation(np.arange(1, 9))
    images = np.concatenate([[0], tail]).astype(K.IDX_DTYPE)
    order = K._cycle_walk(images, 5000)[0]
    assert order >= 1

    def power(e):
        cur = np.arange(9)
        for _ in range(e):
            cur = images[cur]
        return cur

    assert (power(order) == np.arange(9)).all()
    for q in {d for d in (2, 3, 5, 7) if order % d == 0}:
        assert not (power(order // q) == np.arange(9)).all()
