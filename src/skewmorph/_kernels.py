"""Hot kernels on index arrays, in numpy.

Index convention: the vector (v_1, ..., v_n) over F_p is encoded as
i = sum v_j * p**(n-j), so index 0 is the identity and basis vectors come
first in each block.  All kernels work on these integer indices through
precomputed addition/subtraction tables.

Validation has a per-row kernel (validate_images) and a batch kernel
(validate_many) with the same results.  The batch kernel first settles
the automorphisms: a permutation fixing 0 that is additive along every
basis point is F_p-linear, so pi is 1 (0 for the identity) and its order
is read off the orbits of the basis.  Only the other rows pay for the
power table that the general law needs.
"""

import math
import functools

import numpy as np

IDX_DTYPE = np.int16


def current_backend():
    """Name of the kernel implementation; there is one, in numpy."""
    return "numpy"


def index_vectors(p, n):
    """All p**n vectors in index order, shape (p**n, n)."""
    N = p ** n
    idx = np.arange(N)
    cols = []
    for j in range(n):
        cols.append((idx // p ** (n - 1 - j)) % p)
    return np.stack(cols, axis=1).astype(np.int64)


def check_index_width(p, n):
    """Reject F_p^n when its point indices do not fit IDX_DTYPE."""
    if p ** n - 1 > np.iinfo(IDX_DTYPE).max:
        raise ValueError("p**n = %d points exceed the %s index range"
                         % (p ** n, np.dtype(IDX_DTYPE).name))


@functools.lru_cache(maxsize=64)
def index_tables(p, n):
    """(add, sub, neg) index tables for F_p^n; add[i,j] = index of v_i + v_j."""
    check_index_width(p, n)
    V = index_vectors(p, n)
    place = p ** np.arange(n - 1, -1, -1, dtype=np.int64)
    add = ((V[:, None, :] + V[None, :, :]) % p) @ place
    sub = ((V[:, None, :] - V[None, :, :]) % p) @ place
    neg = ((-V) % p) @ place
    return add.astype(IDX_DTYPE), sub.astype(IDX_DTYPE), neg.astype(IDX_DTYPE)


def perm_order_capped(images, cap):
    """Order of a permutation, or -1 if it exceeds cap (lcm bail)."""
    images = images.tolist()  # python ints walk faster than numpy scalars
    N = len(images)
    seen = [False] * N
    order = 1
    for start in range(N):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = images[x]
            length += 1
        order = order * length // math.gcd(order, length)
        if order > cap:
            return -1
    return order


# ---------------------------------------------------------------------------
# validation: recover the power function or report a witness

OK = 0
NOT_PERMUTATION = 1
NO_POWER_MATCH = 2
ORDER_TOO_BIG = 3


def power_rows(images, count):
    """The (count, N) rows s^0 .. s^(count-1) of the permutation s, by
    doubling: s^(m+j) = s^m . s^j for a block of j < m at a time."""
    N = images.shape[0]
    S = np.empty((count, N), dtype=images.dtype)
    S[0] = np.arange(N, dtype=images.dtype)
    if count > 1:
        S[1] = images
    m = 2
    while m < count:
        t = min(m, count - m)
        S[m:m + t] = S[m - 1].take(images).take(S[:t])
        m += t
    return S


def _validate_np(images, add, neg, pi):
    N = images.shape[0]
    if (np.sort(images) != np.arange(N)).any():
        bad = int(np.argmax(np.bincount(np.clip(images, 0, N - 1), minlength=N) != 1))
        return NOT_PERMUTATION, 0, bad
    if images[0] != 0:
        return NOT_PERMUTATION, 0, 0
    order = perm_order_capped(images, N - 1 if N > 1 else 1)
    if order < 0:
        return ORDER_TOO_BIG, 0, 0
    # F[x, y] = s(x + y) - s(x), by flat takes on add
    F = add.take(np.take(images, add) + (neg.take(images).astype(np.intp) * N)[:, None])
    if order > 1 and (F == images).all():
        # s is additive, an automorphism: s^1 is the one power equal to s
        pi[:] = 1
        return OK, order, -1
    powers = power_rows(images, order)
    match = (F[:, None, :] == powers[None, :, :]).all(axis=2)
    ok = match.any(axis=1)
    if not ok.all():
        return NO_POWER_MATCH, order, int(np.argmin(ok))
    pi[:] = np.argmax(match, axis=1).astype(pi.dtype)
    return OK, order, -1


def validate_images(p, n, images):
    """(status, order, pi, witness) for a candidate image array.

    A single array goes through the per-row kernel: at the sizes where
    single arrays are validated, (7,2) and (3,3), a batch of one through
    validate_many costs more per call.
    """
    add, _, neg = index_tables(p, n)
    images = np.ascontiguousarray(images, dtype=IDX_DTYPE)
    pi = np.zeros(len(images), dtype=IDX_DTYPE)
    status, order, witness = _validate_np(images, add, neg, pi)
    return int(status), int(order), pi, int(witness)


# elements in one chunk of the batch kernel: rows * N * n in the
# automorphism pass, which takes the n basis points one after the other,
# and rows * N * N for the other rows; larger chunks gain little speed
# and raise peak memory
_CHUNK = 1 << 16


def splitmix64(start, count):
    """Outputs start .. start+count-1 of splitmix64 seeded at 0, as uint64:
    the finalizer of 0x9E3779B97F4A7C15 * c for each counter c >= 1, with
    the uint64 products wrapping mod 2^64."""
    z = np.arange(start, start + count, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


@functools.lru_cache(maxsize=8)
def _hash_weights(N):
    """Fixed int64 weights of the row hash, splitmix64 of 1..N."""
    return splitmix64(1, N).view(np.int64)


def _additive_rows(im, add, basis):
    """Mask of the rows of a (b, N) chunk of points in [0, N) that fix 0
    and have s(x + e) = s(x) + s(e) for every x and every basis point e.

    Every point is a sum of basis points, so such a row is additive,
    hence F_p-linear.  No sort checks that it is a permutation: if s^e
    fixes a basis, s^e is the identity, so s is invertible; a singular
    row gets order 0 from _basis_orders and goes on to _validate_rows,
    which reports NOT_PERMUTATION.
    """
    N = im.shape[1]
    ok = (im[:, 0] == 0) & (im.min(axis=1) >= 0) & (im.max(axis=1) < N)
    live = np.nonzero(ok)[0]
    for e in basis:
        # s(x + e) against s(x) + s(e); most other rows fail at the first e
        s = im[live]
        shifted = np.take(s, add[:, e] + (np.arange(len(live)) * N)[:, None])
        sums = add.take(s.astype(np.intp) * N + s[:, e, None])
        live = live[(shifted == sums).all(axis=1)]
    ok[:] = False
    ok[live] = True
    return ok


def _basis_orders(batch, rows, basis):
    """For each listed row s of batch, the first e < N at which s^e fixes
    every basis point, or 0 if there is none.  For an automorphism this
    is its order, which is at most N - 1."""
    N = batch.shape[1]
    found = np.zeros(len(rows), dtype=np.int64)
    off = rows * N
    # (n, rows) images of the basis, so each test reduces over the short axis 0
    home = basis.astype(batch.dtype)[:, None]
    cur = batch[rows, home]
    for e in range(1, N):
        found[(cur == home).all(axis=0) & (found == 0)] = e
        if found.all():
            break
        cur = np.take(batch, cur + off)
    return found


def _validate_rows(im, add, neg, status, order, pi, witness):
    # the law of _validate_np on a (b, N) chunk of the rows that are no
    # automorphism (the rest of validate_many), results written in place
    N = im.shape[1]
    ident = np.arange(N, dtype=IDX_DTYPE)
    perm = (np.sort(im, axis=1) == ident).all(axis=1)
    if not perm.all():
        bad = np.nonzero(~perm)[0]
        flat = np.clip(im[bad], 0, N - 1) + N * np.arange(len(bad))[:, None]
        counts = np.bincount(flat.ravel(), minlength=len(bad) * N).reshape(len(bad), N)
        status[bad] = NOT_PERMUTATION
        witness[bad] = np.argmax(counts != 1, axis=1)
    status[perm & (im[:, 0] != 0)] = NOT_PERMUTATION
    live = np.nonzero(perm & (im[:, 0] == 0))[0]
    if not live.size:
        return
    s = im[live]
    off = (np.arange(len(live)) * N)[:, None, None]
    # P[r, e] = s^e by doubling, stopped once every row has met the identity
    P = np.empty((len(live), N, N), dtype=IDX_DTYPE)
    P[:, 0] = ident
    P[:, 1] = s
    ords = np.where((s == ident).all(axis=1), 1, 0)
    m = 2
    while m < N and not ords.all():
        t = min(m, N - m)
        sm = np.take(P[:, m - 1], s + off[:, 0])
        P[:, m:m + t] = np.take(sm, P[:, :t] + off)
        back = (P[:, m:m + t] == ident).all(axis=2)
        first = back.any(axis=1) & (ords == 0)
        ords[first] = m + np.argmax(back[first], axis=1)
        m += t
    status[live[ords == 0]] = ORDER_TOO_BIG
    keep = ords > 0
    if not keep.any():
        return
    live, s, ords = live[keep], s[keep], ords[keep]
    b, E = len(live), int(ords.max())
    P = P[keep, :E]
    off = off[:b]
    # F[r, x, y] = s(x + y) - s(x), which must be the row of s^pi(x)
    F = np.take(add, (neg[s].astype(np.intp) * N)[:, :, None] + np.take(s, add + off))
    # pi(x) proposed by the row hash, then confirmed on the whole row
    w = _hash_weights(N)
    hit = (F.astype(np.int64) @ w)[:, :, None] == (P.astype(np.int64) @ w)[:, None, :]
    cand = np.argmax(hit, axis=2)
    found = hit.any(axis=2)
    ok = found & (np.take(P.reshape(b * E, N), cand + (np.arange(b) * E)[:, None], axis=0)
                  == F).all(axis=2)
    # a hash hit that fails the comparison is a collision: search exactly
    for r, x in zip(*np.nonzero(found & ~ok)):
        same = (P[r] == F[r, x]).all(axis=1)
        if same.any():
            cand[r, x] = np.argmax(same)
            ok[r, x] = True
    good = ok.all(axis=1)
    order[live] = ords
    status[live[good]] = OK
    pi[live[good]] = cand[good]
    witness[live[good]] = -1
    status[live[~good]] = NO_POWER_MATCH
    witness[live[~good]] = np.argmin(ok[~good], axis=1)


def validate_many(p, n, batch):
    """(status, order, pi, witness) arrays over the rows of a (B, N) batch;
    row b holds what validate_images gives for batch[b]."""
    add, _, neg = index_tables(p, n)
    batch = np.ascontiguousarray(batch, dtype=IDX_DTYPE)
    B, N = batch.shape
    out = (np.zeros(B, dtype=np.int64), np.zeros(B, dtype=np.int64),
           np.zeros((B, N), dtype=IDX_DTYPE), np.zeros(B, dtype=np.int64))
    order, pi, witness = out[1:]
    # the automorphisms first; only the rows they leave build power tables
    basis = N // p ** np.arange(1, n + 1)
    aut = np.zeros(B, dtype=bool)
    step = max(1, _CHUNK // (N * n))
    for a in range(0, B, step):
        aut[a:a + step] = _additive_rows(batch[a:a + step], add, basis)
    rows = np.nonzero(aut)[0]
    order[rows] = _basis_orders(batch, rows, basis)
    aut = order > 0
    pi[aut] = (order[aut] > 1)[:, None]
    witness[aut] = -1
    rest = np.nonzero(~aut)[0]
    step = max(1, _CHUNK // (N * N))
    for a in range(0, len(rest), step):
        r = rest[a:a + step]
        part = tuple(o[r] for o in out)
        _validate_rows(batch[r], add, neg, *part)
        for o, q in zip(out, part):
            o[r] = q
    return out


# ---------------------------------------------------------------------------
# exhaustive search over image assignments (tiny N only)


def _prune_ok(images, add, sub, t):
    # f_x(y) = s(x + y) - s(x) is a power of s, so it commutes with s:
    # f_x(s(y)) = s(f_x(y)) wherever every value involved is assigned
    # (points are assigned in index order, so "assigned" is "<= t")
    N = len(images)
    for x in range(1, t + 1):
        sx = images[x]
        add_x = add[x]
        for y in range(1, N):
            u = add_x[y]
            if u > t:
                continue
            w = sub[images[u]][sx]
            if y <= t and w <= t:
                v = add_x[images[y]]
                if v <= t and sub[images[v]][sx] != images[w]:
                    return False
    return True


def brute_images(p, n):
    """The leaves of a DFS over the permutations of F_p^n fixing 0, pruned
    by _prune_ok, as a (leaves, p**n) array in lex order; unvalidated."""
    N = p ** n
    if N > 9:
        raise ValueError("exhaustive search capped at p**n <= 9, got %d" % N)
    add, sub, _ = index_tables(p, n)
    add_l, sub_l = add.tolist(), sub.tolist()
    images = [0] + [-1] * (N - 1)
    used = [True] + [False] * (N - 1)
    found = []

    def rec(t):
        if t == N:
            found.append(list(images))
            return
        for c in range(1, N):
            if not used[c]:
                images[t] = c
                if _prune_ok(images, add_l, sub_l, t):
                    used[c] = True
                    rec(t + 1)
                    used[c] = False
        images[t] = -1

    rec(1)
    return np.array(found, dtype=IDX_DTYPE).reshape(-1, N)


# ---------------------------------------------------------------------------
# conjugation batches for orbit closures


def conj_batch(batch, a, ainv):
    """Conjugate each image row s by the index permutation a: x -> ainv[s[a[x]]]."""
    batch = np.ascontiguousarray(batch, dtype=IDX_DTYPE)
    a = np.ascontiguousarray(a, dtype=IDX_DTYPE)
    ainv = np.ascontiguousarray(ainv, dtype=IDX_DTYPE)
    return ainv[batch[:, a]]
