"""Hot kernels on index arrays, in numpy.

Index convention: the vector (v_1, ..., v_n) over F_p is encoded as
i = sum v_j * p**(n-j), so index 0 is the identity and basis vectors come
first in each block.  All kernels work on these integer indices through
precomputed addition/subtraction tables.
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
    N = len(images)
    seen = np.zeros(N, dtype=bool)
    order = 1
    for start in range(N):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = int(images[x])
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


def _validate_np(images, add, sub, pi):
    N = images.shape[0]
    if images.min() < 0 or images.max() >= N or len(np.unique(images)) != N:
        bad = int(np.argmax(np.bincount(np.clip(images, 0, N - 1), minlength=N) != 1))
        return NOT_PERMUTATION, 0, bad
    if images[0] != 0:
        return NOT_PERMUTATION, 0, 0
    order = perm_order_capped(images, N - 1 if N > 1 else 1)
    if order < 0:
        return ORDER_TOO_BIG, 0, 0
    powers = np.empty((order, N), images.dtype)
    powers[0] = np.arange(N, dtype=images.dtype)
    for e in range(1, order):
        powers[e] = images[powers[e - 1]]
    F = sub[images[add], images[:, None]]
    match = (F[:, None, :] == powers[None, :, :]).all(axis=2)
    ok = match.any(axis=1)
    if not ok.all():
        return NO_POWER_MATCH, order, int(np.argmin(ok))
    pi[:] = np.argmax(match, axis=1).astype(pi.dtype)
    return OK, order, -1


def validate_images(p, n, images):
    """(status, order, pi, witness) for a candidate image array."""
    add, sub, _ = index_tables(p, n)
    images = np.ascontiguousarray(images, dtype=IDX_DTYPE)
    pi = np.zeros(len(images), dtype=IDX_DTYPE)
    status, order, witness = _validate_np(images, add, sub, pi)
    return int(status), int(order), pi, int(witness)


def validate_many(p, n, batch):
    """Status code per row; OK rows are valid skew-morphism image arrays."""
    add, sub, _ = index_tables(p, n)
    batch = np.ascontiguousarray(batch, dtype=IDX_DTYPE)
    out = np.zeros(batch.shape[0], dtype=np.int64)
    pi = np.zeros(batch.shape[1], dtype=IDX_DTYPE)
    for b in range(batch.shape[0]):
        out[b] = _validate_np(batch[b], add, sub, pi)[0]
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


def _brute_py(p, n, add, sub):
    # DFS over permutations fixing 0, pruned by _prune_ok; every leaf
    # that survives is validated in full
    N = p ** n
    add_l, sub_l = add.tolist(), sub.tolist()
    images = [0] + [-1] * (N - 1)
    used = [True] + [False] * (N - 1)
    found = []
    pi = np.zeros(N, dtype=IDX_DTYPE)

    def rec(t):
        if t == N:
            leaf = np.array(images, dtype=IDX_DTYPE)
            if _validate_np(leaf, add, sub, pi)[0] == OK:
                found.append(leaf)
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
    return found


def brute_images(p, n):
    """All valid image arrays on F_p^n by exhaustive search, lex sorted."""
    N = p ** n
    if N > 9:
        raise ValueError("exhaustive search capped at p**n <= 9, got %d" % N)
    add, sub, _ = index_tables(p, n)
    found = _brute_py(p, n, add, sub)
    arr = np.array(found, dtype=IDX_DTYPE).reshape(len(found), N)
    return lex_sorted(arr)


# ---------------------------------------------------------------------------
# conjugation batches for orbit closures


def conj_batch(batch, a, ainv):
    """Conjugate each image row s by the index permutation a: x -> ainv[s[a[x]]]."""
    batch = np.ascontiguousarray(batch, dtype=IDX_DTYPE)
    a = np.ascontiguousarray(a, dtype=IDX_DTYPE)
    ainv = np.ascontiguousarray(ainv, dtype=IDX_DTYPE)
    return ainv[batch[:, a]]


def lex_sorted(arr):
    """Rows sorted lexicographically (first column most significant)."""
    if arr.shape[0] <= 1:
        return arr
    order = np.lexsort(arr.T[::-1])
    return arr[order]
