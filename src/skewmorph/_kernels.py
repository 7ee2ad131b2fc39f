"""Hot kernels on index arrays, in numpy.

Index convention: the vector (v_1, ..., v_n) over F_p is encoded as
i = sum v_j * p**(n-j), so index 0 is the identity and basis vectors come
first in each block.  All kernels work on these integer indices through
precomputed addition/subtraction tables.

Validation checks the law s(x + y) = s(x) + s^pi(x)(y) with two drivers,
validate_images for one row and validate_many for blocks.  Both first
find the permutations fixing 0 and their orders (a cycle walk for one
row; for a block, a sort, then a walk of the basis points for an
automorphism and of every point for any other row), and both settle an
automorphism with _automorphisms: a permutation additive along the
basis is F_p-linear, so pi is 1.  Any other row s of order o must have
every F[x] = s(x + .) - s(x) among its power rows s^0 .. s^(o-1), from
power_rows.  An anchor y*, a point whose s-cycle has length o, names
the one candidate: with pos[s^e(y*)] = e and 0 off that cycle, F[x] can
only be row pos[F[x, y*]], and one exact compare settles x.  A row with
no anchor (so far only input that is no skew-morphism) compares each
F[x] with every power row instead.  validate_images takes its anchor
from its cycle walk and builds the (N, N) F of its row in one take;
validate_many's _power_match takes each anchor from the power table and
builds F for a chunk of rows and x at a time.
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


def _cycle_walk(images, cap):
    """(order, anchor): the order of a permutation of range(N), -1 if it
    exceeds cap or 0 if images is none, and the start of a longest cycle
    if that cycle is as long as the order, else -1.  A walk from an unseen
    point that ends on a seen point other than its start means some point
    has two preimages."""
    images = images.tolist()  # python ints walk faster than numpy scalars
    N = len(images)
    if not 0 <= min(images) <= max(images) < N:
        return 0, -1
    seen = [False] * N
    order, longest, anchor = 1, 0, 0
    for start in range(N):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = images[x]
            length += 1
        if x != start:
            return 0, -1
        order = math.lcm(order, length)
        if length > longest:
            longest, anchor = length, start
    if order > cap:
        return -1, -1
    return order, anchor if longest == order else -1


# ---------------------------------------------------------------------------
# validation: recover the power function or report a witness

OK = 0
NOT_PERMUTATION = 1
NO_POWER_MATCH = 2
ORDER_TOO_BIG = 3

# elements in one chunk: rows * n * N for the automorphism test, rows *
# points for the order walk, rows * order * N for the power tables of
# validate_many, rows * x * N for the F table of the general law; larger
# chunks gain little speed and raise peak memory
_CHUNK = 1 << 16


def power_rows(images, count):
    """The (count, N) rows s^0 .. s^(count-1) of the permutation s, by
    doubling: s^(m+j) = s^(m-1) . s^(j+1) for a block of j < m - 1 at a
    time, one take into the table.  Every index lies in range(N), so
    mode="clip" changes nothing; it lets take write into out unbuffered."""
    N = images.shape[0]
    S = np.empty((count, N), dtype=images.dtype)
    S[0] = np.arange(N, dtype=images.dtype)
    if count > 1:
        S[1] = images
    m = 2
    while m < count:
        t = min(m - 1, count - m)
        S[m - 1].take(S[1:t + 1], out=S[m:m + t], mode="clip")
        m += t
    return S


def splitmix64(start, count):
    """Outputs start .. start+count-1 of splitmix64 seeded at 0, as uint64:
    the finalizer of 0x9E3779B97F4A7C15 * c for each counter c >= 1, with
    the uint64 products wrapping mod 2^64."""
    z = np.arange(start, start + count, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


@functools.lru_cache(maxsize=64)
def _row_tables(p, n):
    """add as intp indices and -x * N by point x, as intp: the F table of
    validate_images is one flat take on add with these."""
    add, _, neg = index_tables(p, n)
    return add.astype(np.intp), neg.astype(np.intp) * p ** n


@functools.lru_cache(maxsize=64)
def _basis(p, n):
    """Indices of the basis points e_1 .. e_n of F_p^n, p**(n-1), ..., p, 1,
    and their rows add[e_i] of the addition table."""
    basis = p ** np.arange(n - 1, -1, -1)
    return basis, index_tables(p, n)[0][basis]


def _count_witness(im):
    """The NOT_PERMUTATION witness of each row of a (b, N) chunk: the first
    point of [0, N) that the row, clipped into [0, N), does not hit exactly
    once, which is 0 for a permutation that moves 0."""
    b, N = im.shape
    flat = np.clip(im, 0, N - 1) + N * np.arange(b)[:, None]
    return np.argmax(np.bincount(flat.ravel(), minlength=b * N).reshape(b, N) != 1, axis=1)


def _automorphisms(s, add, add_basis):
    """Mask of the rows of a (b, N) chunk of permutations with
    s(x + e) = s(x) + s(e) for every x and every basis point e; add_basis
    holds the rows add[e] of the addition table.

    Every point is a sum of basis points, so such a row is additive, hence
    F_p-linear: an automorphism, with pi 1 (0 for the identity).  At x = 0
    the test asks s(0) = 0.
    """
    # at[r, i, x] = s(x + e_i), so at[r, i, 0] = s(e_i); add is symmetric,
    # so s(e_i) + s(x) is add[s(e_i) * N + s(x)]
    at = s.take(add_basis, axis=1)
    sums = add.take(at[:, :, :1].astype(np.intp) * s.shape[1] + s[:, None, :])
    return (at == sums).all(axis=(1, 2))


def _power_match(s, P, add, neg):
    """The general law on a (b, N) chunk of permutations fixing 0 with
    P[r, e] = s_r^e, e < o: F[r, x] = s(x + .) - s(x) must be a row of
    P[r], the one named by the anchor of row r, a point y* with
    s^e(y*) != y* for 0 < e < o, and confirmed exactly.  Returns pi[r, x],
    that row's e, and witness[r], the first x with no row (pi 0 there),
    or -1."""
    b, E, N = P.shape
    r = np.arange(b)
    full = (P[:, 1:] != P[:, :1]).all(axis=1)
    anchor = np.argmax(full, axis=1)
    has = full.any(axis=1)
    # pos[r, s^e(y*)] = e on the anchor's cycle, 0 elsewhere and on rows
    # with no anchor
    pos = np.zeros((b, N), dtype=np.intp)
    pos[r[has, None], P[has, :, anchor[has]]] = np.arange(E)
    negs = neg.take(s).astype(np.intp) * N
    pi = np.zeros((b, N), dtype=IDX_DTYPE)
    ok = np.zeros((b, N), dtype=bool)
    step = max(1, _CHUNK // (b * N))
    for x in range(0, N, step):
        # F[r, j, y] = s(x + j + y) - s(x + j), by a flat take on add
        F = add.take(negs[:, x:x + step, None] + s.take(add[x:x + step], axis=1))
        cand = pos[r[:, None], F[r, :, anchor]]
        for j in np.flatnonzero(~has):
            # no anchor: the power row equal to each F[j, .], or row 0 if none is
            cand[j] = [np.argmax((P[j] == f).all(axis=1)) for f in F[j]]
        pi[:, x:x + step] = cand
        ok[:, x:x + step] = (P[r[:, None], cand] == F).all(axis=2)
    witness = np.where(ok.all(axis=1), -1, np.argmin(ok, axis=1))
    pi[witness >= 0] = 0
    return pi, witness


def validate_images(p, n, images):
    """(status, order, pi, witness) for a candidate image array.

    The one-row driver: one cycle walk (_cycle_walk) gives the
    permutation verdict, the order o and the anchor, the start of a
    longest cycle when it has length o.  _automorphisms settles a linear
    map.  Any other row s meets the general law on 2-D arrays:
    F[x, y] = s(x + y) - s(x) is one flat take on add, each F[x] names
    its candidate power row pos[F[x, anchor]] (or, with no anchor, is
    compared with every power row), and one exact compare settles it.
    """
    add = index_tables(p, n)[0]
    images = np.ascontiguousarray(images, dtype=IDX_DTYPE)
    N = len(images)
    order, anchor = _cycle_walk(images, max(N - 1, 1))
    if order == 0 or images[0] != 0:
        witness = int(_count_witness(images[None])[0])
        return NOT_PERMUTATION, 0, np.zeros(N, dtype=IDX_DTYPE), witness
    if order < 0:
        return ORDER_TOO_BIG, 0, np.zeros(N, dtype=IDX_DTYPE), 0
    if _automorphisms(images[None], add, _basis(p, n)[1])[0]:
        pi = np.empty(N, dtype=IDX_DTYPE)
        pi.fill(order > 1)  # np.full costs twice as much on a short row
        return OK, order, pi, -1
    P = power_rows(images, order)
    # F[x, y] = s(x + y) - s(x) = add[-s(x), s(x + y)], by a flat take on add
    add_i, neg_n = _row_tables(p, n)
    F = add.take(neg_n.take(images)[:, None] + images.take(add_i))
    if anchor >= 0:
        pos = np.zeros(N, dtype=np.intp)
        pos[P[:, anchor]] = np.arange(order)
        pi = pos.take(F[:, anchor])
    else:
        # no anchor: the power row equal to F[x], or row 0 if none is
        pi = np.array([np.argmax((P == f).all(axis=1)) for f in F])
    good = (P.take(pi, axis=0) == F).all(axis=1)
    if not good.all():
        return NO_POWER_MATCH, order, np.zeros(N, dtype=IDX_DTYPE), int(np.argmin(good))
    return OK, order, pi.astype(IDX_DTYPE), -1


def _orders(batch, rows, points):
    """For each listed row s of batch, the first e < N at which s^e fixes
    every listed point, or 0 if there is none: the order of a permutation
    when the points are all of F_p^n, or of an automorphism when they are
    the basis.  Walked in chunks of _CHUNK // len(points) rows, each row
    dropped from the walk once it is back."""
    N = batch.shape[1]
    found = np.zeros(len(rows), dtype=np.int64)
    # (points, rows) images, so each test reduces over axis 0
    home = points.astype(batch.dtype)[:, None]
    step = max(1, _CHUNK // len(points))
    for a in range(0, len(rows), step):
        at = np.arange(a, min(a + step, len(rows)))
        off, cur = rows[at] * N, batch[rows[at], home]
        for e in range(1, N):
            back = (cur == home).all(axis=0)
            if back.any():
                found[at[back]] = e
                at, off, cur = at[~back], off[~back], cur[:, ~back]
                if not len(at):
                    break
            cur = np.take(batch, cur + off)
    return found


def validate_many(p, n, batch):
    """(status, order, pi, witness) arrays over the rows of a (B, N) batch;
    row b holds what validate_images gives for batch[b]."""
    add, _, neg = index_tables(p, n)
    batch = np.ascontiguousarray(batch, dtype=IDX_DTYPE)
    B, N = batch.shape
    basis, add_basis = _basis(p, n)
    status, order, pi, witness = out = (
        np.zeros(B, dtype=np.int64), np.zeros(B, dtype=np.int64),
        np.zeros((B, N), dtype=IDX_DTYPE), np.zeros(B, dtype=np.int64))
    # the permutations fixing 0, and among them the automorphisms, which
    # need no power table
    ident = np.arange(N, dtype=IDX_DTYPE)
    aut = np.zeros(B, dtype=bool)
    step = max(1, _CHUNK // (N * n))
    for a in range(0, B, step):
        im = batch[a:a + step]
        perm = (np.sort(im, axis=1) == ident).all(axis=1) & (im[:, 0] == 0)
        bad = a + np.flatnonzero(~perm)
        status[bad] = NOT_PERMUTATION
        witness[bad] = _count_witness(batch[bad])
        live = a + np.flatnonzero(perm)
        aut[live] = _automorphisms(batch[live], add, add_basis)
    rows = np.flatnonzero(aut)
    order[rows] = _orders(batch, rows, basis)
    pi[rows] = (order[rows] > 1)[:, None]
    witness[rows] = -1
    # the other permutations fixing 0 go to the general law, grouped by
    # order; a chunk of one order o is one permutation of len(r) * N
    # points, row j on j * N .. j * N + N - 1, whose power_rows give the
    # power tables of all its rows.  The identity is an automorphism, so
    # o >= 2: len(r) * N <= _CHUNK / 2 keeps these offsets inside int16
    rest = np.flatnonzero((status == OK) & ~aut)
    order[rest] = _orders(batch, rest, ident)
    status[rest[order[rest] == 0]] = ORDER_TOO_BIG
    rest = rest[order[rest] > 0]
    rest = rest[np.argsort(order[rest], kind="stable")]
    for run in np.split(rest, np.flatnonzero(np.diff(order[rest])) + 1) if len(rest) else ():
        o = order[run[0]]
        step = max(1, _CHUNK // (o * N))
        for a in range(0, len(run), step):
            r = run[a:a + step]
            off = np.arange(0, len(r) * N, N, dtype=IDX_DTYPE)[:, None]
            P = power_rows((batch[r] + off).ravel(), o).reshape(o, len(r), N) - off
            pi[r], witness[r] = _power_match(batch[r], P.swapaxes(0, 1), add, neg)
            status[r] = np.where(witness[r] < 0, OK, NO_POWER_MATCH)
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
