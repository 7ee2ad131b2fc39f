import itertools
import math

import numpy as np
import pytest

from skewmorph import _kernels as K
from skewmorph import enumeration as en
from skewmorph import fpalg

from conftest import splitmix64_scalar


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
    assert K._cycle_walk(np.arange(9, dtype=K.IDX_DTYPE), 8)[0] == 1
    # 3-cycle and 5-cycle with 0 fixed: order 15
    images = np.array([0, 2, 3, 1, 5, 6, 7, 8, 4], dtype=K.IDX_DTYPE)
    assert K._cycle_walk(images, 100)[0] == 15
    assert K._cycle_walk(images, 8)[0] == -1
    # no permutation of range(9): 0, whatever the cap
    for bad in ([0, 1, 1, 3, 4, 5, 6, 7, 8], [1, 2, 0, 4, 3, 5, 6, 8, 8],
                [0, 2, 3, 1, 5, 6, 7, 8, 9], [0, 2, 3, 1, 5, 6, 7, 8, -1]):
        assert K._cycle_walk(np.array(bad, dtype=K.IDX_DTYPE), 100)[0] == 0


def _lcm_order(images, cap):
    # reference: lcm of the cycle lengths, -1 past the cap
    images = [int(v) for v in images]
    seen, order = set(), 1
    for start in range(len(images)):
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x = images[x]
            length += 1
        order = math.lcm(order, max(length, 1))
    return order if order <= cap else -1


@pytest.mark.parametrize("N", [9, 27, 49])
def test_perm_order_capped_matches_lcm_of_cycles(N):
    rng = np.random.default_rng(N)
    bails = 0
    for _ in range(200):
        images = np.concatenate([[0], 1 + rng.permutation(N - 1)]).astype(K.IDX_DTYPE)
        order = _lcm_order(images, 10 ** 9)
        for cap in (N - 1, order, order - 1, 1):
            want = _lcm_order(images, cap)
            assert K._cycle_walk(images, cap)[0] == want
            bails += want == -1
    assert bails > 0


def _unpruned_brute(p, n):
    # reference: every permutation fixing 0, each leaf validated in full
    N = p ** n
    found = []
    for tail in itertools.permutations(range(1, N)):
        images = np.array((0,) + tail, dtype=K.IDX_DTYPE)
        if K.validate_images(p, n, images)[0] == K.OK:
            found.append(images)
    # permutations come in lex order, the member order
    return np.array(found, dtype=K.IDX_DTYPE)


def _images(skews):
    return np.array([s.images for s in skews], dtype=K.IDX_DTYPE)


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2)])
def test_pruned_brute_equals_unpruned(small_brutes, p, n):
    assert (_images(small_brutes[(p, n)].skews) == _unpruned_brute(p, n)).all()


def test_validate_images_ok(brute32):
    arrs = _images(brute32.skews)
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
    # order 15 > 8 can never be a skew-morphism order on 9 points; its
    # cycles of 3 and 5 bring each point back within 8 steps, but never
    # all at once, so the order walk runs to its cap
    bad = np.array([[0, 2, 3, 1, 5, 6, 7, 8, 4]], dtype=K.IDX_DTYPE)
    assert (_assert_batch_matches_per_row(3, 2, bad) == K.ORDER_TOO_BIG).all()


def test_validate_images_no_power_match():
    # transposition (fixing 0) breaks the skew identity over F_3^2
    bad = np.arange(9, dtype=K.IDX_DTYPE)
    bad[1], bad[2] = 2, 1
    bad[3], bad[4] = 4, 3
    status, _, _, witness = K.validate_images(3, 2, bad)
    assert status == K.NO_POWER_MATCH
    assert witness >= 0


def _reference(p, n, row):
    # (status, order, pi, witness) from the definition, sharing only the
    # F_p tables with the kernel: sigma permutes F_p^n fixing 0, with order
    # at most N - 1, and for each x some e < order has
    # sigma(x + y) - sigma(x) = sigma^e(y) for all y
    N = p ** n
    add, sub, _ = K.index_tables(p, n)
    s = np.asarray(row, dtype=np.int64)
    pi = np.zeros(N, dtype=K.IDX_DTYPE)
    if sorted(s.tolist()) != list(range(N)) or s[0] != 0:
        # the witness: the first point not hit exactly once, 0 if none
        counts = np.bincount(np.clip(s, 0, N - 1), minlength=N)
        return K.NOT_PERMUTATION, 0, pi, int(np.argmax(counts != 1))
    powers, cur = {}, np.arange(N)  # the rows of sigma^e by composition, keyed by their bytes
    while cur.tobytes() not in powers and len(powers) < N:
        powers[cur.tobytes()] = len(powers)
        cur = s[cur]
    order = len(powers)
    if order > N - 1:
        return K.ORDER_TOO_BIG, 0, pi, 0
    F = sub[s[add], s[:, None]].astype(np.int64)  # F[x, y] = sigma(x + y) - sigma(x)
    for x in range(N):
        e = powers.get(F[x].tobytes())
        if e is None:
            return K.NO_POWER_MATCH, order, np.zeros(N, dtype=K.IDX_DTYPE), x
        pi[x] = e
    return K.OK, order, pi, -1


def _stack(results, N):
    status, order, pi, witness = zip(*results)
    return np.array(status), np.array(order), np.array(pi).reshape(-1, N), np.array(witness)


def _assert_batch_matches_per_row(p, n, batch):
    # validate_many, and validate_images row by row, against _reference
    want = _stack([_reference(p, n, row) for row in batch], p ** n)
    for name, got in (("validate_many", K.validate_many(p, n, batch)),
                      ("validate_images", _stack([K.validate_images(p, n, row) for row in batch],
                                                 p ** n))):
        for field, g, w in zip(("status", "order", "pi", "witness"), got, want):
            assert (g == w).all(), (name, field)
    return want[0]


def _near_misses(rows, rng, count):
    # two images other than 0 swapped in each row
    out = rows[rng.integers(0, len(rows), count)].copy()
    N = rows.shape[1]
    a = rng.integers(1, N, count)
    b = (a + rng.integers(1, N - 1, count) - 1) % (N - 1) + 1
    r = np.arange(count)
    out[r, a], out[r, b] = out[r, b], out[r, a]
    return out


def _perms_fixing_0(rng, N, count):
    return np.array([[0] + list(rng.permutation(np.arange(1, N))) for _ in range(count)],
                    dtype=K.IDX_DTYPE)


def _malformed(rng, N):
    rows = _perms_fixing_0(rng, N, 8)
    rows[0, 3] = rows[0, 5]           # repeated image
    rows[1, 2] = N                    # image out of range
    rows[2, 4] = -1                   # negative image
    rows[3, [0, 1]] = rows[3, [1, 0]]  # a permutation moving 0
    rows[4, 0] = 1                    # moves 0 and repeats 1
    rows[5] = np.roll(np.arange(N), 1)
    return rows[:6]


def _gl_perms(p, n):
    return fpalg.matrix_to_perm(fpalg.gl_matrices_array(n, p), p)


@pytest.mark.parametrize("p,n", [(3, 3), (7, 2)])
def test_validate_many_matches_per_row_on_gl(p, n):
    gl = _gl_perms(p, n)
    assert (_assert_batch_matches_per_row(p, n, gl) == K.OK).all()
    rng = np.random.default_rng(p * 10 + n)
    near = _near_misses(gl, rng, 400)
    assert (_assert_batch_matches_per_row(p, n, near) == K.NO_POWER_MATCH).any()
    status = _assert_batch_matches_per_row(p, n, _perms_fixing_0(rng, p ** n, 300))
    assert set(status.tolist()) <= {K.NO_POWER_MATCH, K.ORDER_TOO_BIG, K.OK}
    assert K.ORDER_TOO_BIG in status and K.NO_POWER_MATCH in status
    bad = _malformed(rng, p ** n)
    assert (_assert_batch_matches_per_row(p, n, bad) == K.NOT_PERMUTATION).all()
    # one mixed batch, shuffled, so every status meets every chunk position
    mixed = np.concatenate([gl[:200], near[:100], bad, _perms_fixing_0(rng, p ** n, 50)])
    _assert_batch_matches_per_row(p, n, mixed[rng.permutation(len(mixed))])


@pytest.mark.parametrize("members", ["set33", "set72"])
def test_validate_many_matches_per_row_on_members(request, members):
    res = request.getfixturevalue(members)
    batch = np.stack([s.images for s in res.skews])
    assert (_assert_batch_matches_per_row(res.p, res.n, batch) == K.OK).all()
    near = _near_misses(batch, np.random.default_rng(5), 1000)
    assert (_assert_batch_matches_per_row(res.p, res.n, near) != K.OK).all()


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (7, 2), (3, 3)])
def test_per_row_kernel_settles_every_gl_row(p, n):
    # every GL(n,p) row is an automorphism: OK, pi == 1 and the order of
    # its matrix, settled by the automorphism test
    ms = fpalg.gl_matrices_array(n, p)
    for M, row in zip(ms, fpalg.matrix_to_perm(ms, p)):
        status, order, pi, witness = K.validate_images(p, n, row)
        assert (status, order, witness) == (K.OK, fpalg.matrix_order(M, p), -1)
        assert (pi == (1 if order > 1 else 0)).all()


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (7, 2), (3, 3), (5, 3)])
def test_batch_kernel_settles_every_gl_row(p, n):
    # every GL(n,p) row (500 sampled ones at (5,3)) is an automorphism:
    # OK, pi == 1 and the order of its matrix, by the automorphism pass
    if (p, n) == (5, 3):
        ms = np.random.default_rng(0).integers(0, p, size=(1000, n, n))
        ms = ms[fpalg.mat_det(ms, p) != 0][:500]
    else:
        ms = fpalg.gl_matrices_array(n, p)
    status, order, pi, witness = K.validate_many(p, n, fpalg.matrix_to_perm(ms, p))
    assert (status == K.OK).all() and (witness == -1).all()
    assert order.tolist() == [fpalg.matrix_order(M, p) for M in ms]
    assert (pi == np.where(order > 1, 1, 0)[:, None]).all()


def _additive_but_along(p, n, i, j):
    # s(x) = x + x_j^2 e_i: a bijection fixing 0, additive along every
    # basis point but e_j, where s(x + e_j) - s(x) = e_j + (2 x_j + 1) e_i
    V = K.index_vectors(p, n)
    W = V.copy()
    W[:, i] = (W[:, i] + V[:, j] ** 2) % p
    return (W @ p ** np.arange(n - 1, -1, -1)).astype(K.IDX_DTYPE)


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (3, 3)])
def test_batch_kernel_checks_every_basis_point(p, n):
    # an automorphism test that skipped one basis point would pass these
    rows = np.stack([_additive_but_along(p, n, i, j)
                     for j in range(n) for i in range(n) if i != j])
    assert (np.sort(rows, axis=1) == np.arange(p ** n)).all() and (rows[:, 0] == 0).all()
    status = _assert_batch_matches_per_row(p, n, rows)
    assert (status == K.NO_POWER_MATCH).all()


def test_validate_many_matches_per_row_on_every_3x3_matrix_over_f3():
    # the singular maps are additive but no permutation: refused before
    # the automorphism test, as any other non-permutation is
    ms = np.array(list(itertools.product(range(3), repeat=9))).reshape(-1, 3, 3)
    status = _assert_batch_matches_per_row(3, 3, fpalg.matrix_to_perm(ms, 3))
    singular = fpalg.mat_det(ms, 3) == 0
    assert singular.sum() == 3 ** 9 - fpalg.gl_order(3, 3)
    assert (status[singular] == K.NOT_PERMUTATION).all() and (status[~singular] == K.OK).all()


@pytest.mark.parametrize("members", ["set33", "set72"])
def test_validate_many_matches_per_row_across_chunks(request, members):
    # longer than one chunk of the automorphism pass (rows of N * n); its
    # other permutations fixing 0 longer than one chunk of the order walk
    # (rows of N), and its largest group of one order o longer than one
    # chunk of power tables (rows of o * N); every kind of row mixed in
    res = request.getfixturevalue(members)
    p, n, N = res.p, res.n, res.p ** res.n
    rng = np.random.default_rng(11)
    skews = res.skews.images
    batch = np.concatenate([skews[~res.skews.aut], skews[rng.permutation(len(skews))[:1000]],
                            _gl_perms(p, n)[:300], _near_misses(skews, rng, 600),
                            _malformed(rng, N), _perms_fixing_0(rng, N, 50),
                            np.arange(N, dtype=K.IDX_DTYPE)[None]])
    batch = batch[rng.permutation(len(batch))]
    status = _assert_batch_matches_per_row(p, n, batch)
    assert {K.OK, K.NOT_PERMUTATION, K.NO_POWER_MATCH} <= set(status.tolist())
    perm = batch[status != K.NOT_PERMUTATION]
    rest = perm[~K._automorphisms(perm, K.index_tables(p, n)[0], K._basis(p, n)[1])]
    orders, sizes = np.unique([K._cycle_walk(s, N - 1)[0] for s in rest], return_counts=True)
    o = orders[np.argmax(np.where(orders > 0, sizes, 0))]
    assert len(batch) > K._CHUNK // (N * n) and len(rest) > K._CHUNK // N
    assert sizes[orders == o][0] > max(1, K._CHUNK // (o * N))


def test_hash_weights_are_splitmix64():
    # the scalar splitmix64 formula, outputs 1..4 of the stream seeded at 0
    want = [splitmix64_scalar(c) for c in range(1, 5)]
    assert want[0] == 0xE220A8397B1DCDAF
    assert K.splitmix64(1, 4).tolist() == want
    assert K.splitmix64(3, 2).tolist() == want[2:]


def _anchor(p, n, row):
    # the cycle walk's anchor of a permutation fixing 0: a point whose
    # cycle is as long as the order, or -1
    return K._cycle_walk(row, p ** n - 1)[1]


def test_both_drivers_match_the_reference_with_and_without_an_anchor(brute32, set72, set33):
    # rows that reach the general law with an anchor, where pi(x) is read
    # off the anchor's cycle, and without one, where each F[x] is compared
    # with every power row
    rng = np.random.default_rng(7)
    for res in (brute32, set72, set33):
        p, n = res.p, res.n
        gl = _gl_perms(p, n)
        gl = gl[rng.permutation(len(gl))[:300]]
        other = res.skews.images[~res.skews.aut]
        other = other[rng.permutation(len(other))[:100]]
        batch = np.concatenate([gl, other, _near_misses(gl, rng, 100),
                                _perms_fixing_0(rng, p ** n, 100), _malformed(rng, p ** n)])
        status = _assert_batch_matches_per_row(p, n, batch)
        assert (status[:len(gl) + len(other)] == K.OK).all()
        law = batch[np.isin(status, [K.OK, K.NO_POWER_MATCH])]
        law = law[~K._automorphisms(law, K.index_tables(p, n)[0], K._basis(p, n)[1])]
        assert {_anchor(p, n, row) >= 0 for row in law} == {True, False}, (p, n)


def _cycles_of_2_and_3(N):
    # a permutation fixing 0 whose other points lie on 2- and 3-cycles,
    # both kinds present: order 6, and no 6-cycle to anchor it
    twos = next(k for k in range(1, N) if (N - 1 - 2 * k) % 3 == 0)
    images = list(range(N))
    at = 1
    for length in [2] * twos + [3] * ((N - 1 - 2 * twos) // 3):
        cycle = list(range(at, at + length))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a] = b
        at += length
    return np.array(images, dtype=K.IDX_DTYPE)


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (7, 2), (3, 3)])
def test_row_of_order_6_without_a_6_cycle_is_refused(p, n):
    row = _cycles_of_2_and_3(p ** n)
    assert K._cycle_walk(row, p ** n - 1) == (6, -1)
    status = _assert_batch_matches_per_row(p, n, row[None])
    assert status.tolist() == [K.NO_POWER_MATCH]
    # the reference's witness lies past x = 0, where F[0] = s is a power
    assert _reference(p, n, row)[3] > 0


@pytest.mark.parametrize("members", ["set52", "set72", "set33"])
def test_every_enumerated_member_has_an_anchor(request, members):
    # every member that is no automorphism takes the anchor path, in the
    # cycle walk and in the power table alike
    res = request.getfixturevalue(members)
    p, n = res.p, res.n
    for row in res.skews.images[~res.skews.aut]:
        order, y = K._cycle_walk(row, p ** n - 1)
        assert y >= 0 and len(set(K.power_rows(row, order)[:, y].tolist())) == order


def test_every_53_seed_has_an_anchor():
    # the anchor is a conjugation invariant, so the seeds stand for every member
    seeds = en._canonical_config_seeds(5, 3, fpalg.omega_set(5))
    assert len(seeds) == 228
    assert all(_anchor(5, 3, row) >= 0 for row in seeds.images)


@pytest.mark.parametrize("members", ["set52", "set72"])
def test_small_chunks_split_the_x_range(monkeypatch, request, members):
    # with a chunk of 2 * N cells, the automorphism test and the power
    # tables take one row at a time, the order walk two rows and the
    # general law two x at a time, so each row's x range spans N / 2
    # chunks; the results stay those of the default chunks
    res = request.getfixturevalue(members)
    p, n, N = res.p, res.n, res.p ** res.n
    rng = np.random.default_rng(13)
    skews = res.skews.images
    batch = np.concatenate([skews[rng.permutation(len(skews))[:200]], _near_misses(skews, rng, 200),
                            _perms_fixing_0(rng, N, 30), _malformed(rng, N),
                            _additive_but_along(p, n, 1, 0)[None]])
    want = K.validate_many(p, n, batch)
    assert K._CHUNK // (N * N) > 1 and K._CHUNK // N > N
    monkeypatch.setattr(K, "_CHUNK", 2 * N)
    got = K.validate_many(p, n, batch)
    for field, g, w in zip(("status", "order", "pi", "witness"), got, want):
        assert (g == w).all(), field
    assert (_assert_batch_matches_per_row(p, n, batch) == want[0]).all()
    # the last row fails first at x = e_1, past the first chunk of x
    assert (want[0][-1], want[3][-1]) == (K.NO_POWER_MATCH, p)


def test_conj_batch_round_trip(brute32):
    arrs = _images(brute32.skews)
    M = fpalg.canonical_unipotent(2, 3)
    Minv = fpalg.mat_pow(M, fpalg.matrix_order(M, 3) - 1, 3)
    a = fpalg.matrix_to_perm(M, 3)
    ainv = fpalg.matrix_to_perm(Minv, 3)
    conj = K.conj_batch(arrs, a, ainv)
    # conjugating a complete set by an automorphism permutes it
    assert {bytes(r) for r in conj} == {bytes(r) for r in arrs}
    assert (K.validate_many(3, 2, conj)[0] == K.OK).all()
    back = K.conj_batch(conj, ainv, a)
    assert (back == arrs).all()

