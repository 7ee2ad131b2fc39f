"""Dense linear algebra over prime fields F_p.

Vectors are rows and matrices act on the right (x -> x*M), so
composition reads left to right everywhere.  A matrix is an (n, n)
int64 array of residues and a batch of matrices is a (K, n, n) array;
power, determinant and the matrix-to-permutation map take either shape.
Points of F_p^n appear only as indices, in the big-endian convention of
``_kernels``.

p <= 251 is accepted; only small p is exercised by the enumeration.
"""

import numpy as np

from ._kernels import IDX_DTYPE, check_index_width, index_vectors

PRIME_MAX = 251
ORDER_CAP = 10 ** 6
SPACE_CAP = 5 * 10 ** 6


def prime_divisors(m):
    """Distinct prime divisors of m >= 1 in ascending order, by trial division."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def is_prime(m):
    return m >= 2 and prime_divisors(m) == [m]


def check_prime(p):
    # the bound first: trial division of a p near 10^18 takes minutes
    if p > PRIME_MAX or not is_prime(p):
        raise ValueError("p must be a prime <= %d, got %r" % (PRIME_MAX, p))


def matrix(rows, p):
    """A square matrix of reduced residues mod p as an (n, n) int64 array."""
    check_prime(p)
    m = np.array(rows, dtype=np.int64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if ((m < 0) | (m >= p)).any():
        raise ValueError("entries must be reduced residues mod %d" % p)
    return m


def mat_pow(ms, e, p):
    """ms**e mod p for e >= 0, by repeated squaring."""
    ms = np.asarray(ms, dtype=np.int64)
    result = np.broadcast_to(np.eye(ms.shape[-1], dtype=np.int64), ms.shape).copy()
    base = ms % p
    while e:
        if e & 1:
            result = result @ base % p
        base = base @ base % p
        e >>= 1
    return result


def mat_det(ms, p):
    """Determinant mod p by the closed forms for n <= 3."""
    n = ms.shape[-1]
    if n == 1:
        return ms[..., 0, 0] % p
    if n == 2:
        return (ms[..., 0, 0] * ms[..., 1, 1] - ms[..., 0, 1] * ms[..., 1, 0]) % p
    if n == 3:
        a, b, c = ms[..., 0, 0], ms[..., 0, 1], ms[..., 0, 2]
        d, e, f = ms[..., 1, 0], ms[..., 1, 1], ms[..., 1, 2]
        g, h, i = ms[..., 2, 0], ms[..., 2, 1], ms[..., 2, 2]
        return (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % p
    raise ValueError("determinant implemented for n <= 3, got n = %d" % n)


def matrix_order(m, p):
    """Order of one invertible matrix by iterated multiplication."""
    eye = np.eye(m.shape[0], dtype=np.int64)
    acc = m % p
    for k in range(1, ORDER_CAP + 1):
        if (acc == eye).all():
            return k
        acc = acc @ m % p
    raise RuntimeError("order cap exceeded")


def nullspace_mod(a, p):
    """Row basis of {x : a @ x = 0} over F_p, shape (d, ncols)."""
    a = np.array(a, dtype=np.int64) % p
    nrows, ncols = a.shape
    pivots = []
    row = 0
    for col in range(ncols):
        piv = -1
        for r in range(row, nrows):
            if a[r, col] % p:
                piv = r
                break
        if piv < 0:
            continue
        if piv != row:
            a[[row, piv]] = a[[piv, row]]
        a[row] = a[row] * pow(int(a[row, col]), p - 2, p) % p
        for r in range(nrows):
            if r != row and a[r, col]:
                a[r] = (a[r] - a[r, col] * a[row]) % p
        pivots.append(col)
        row += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for r, pc in enumerate(pivots):
            basis[k, pc] = (-a[r, fc]) % p
    return basis


# ---------------------------------------------------------------------------
# GL(n, p): order, generators, batch enumeration


def gl_order(n, p):
    q = p ** n
    total = 1
    for i in range(n):
        total *= q - p ** i
    return total


def primitive_root(p):
    """The least g in 1 .. p-1 whose powers give all p - 1 nonzero residues;
    one exists because the multiplicative group of a finite field is cyclic."""
    return next(g for g in range(1, p) if len({pow(g, e, p) for e in range(p - 1)}) == p - 1)


def gl_generators(n, p):
    """I + E_12, the basis cycle e_i -> e_i+1 with the sign of its last
    entry that makes its determinant 1, and diag(w, 1, ..., 1) for a
    primitive root w, as a (3, n, n) array; the first two at p = 2, where
    the diagonal is I.  At n = 1 the first two are I.

    Conjugation by the cycle carries I + E_12 round to I + E_i,i+1 and
    I +- E_n1.  Their commutators [I + E_ij, I + E_jk] = I + E_ik give
    every I + E_ij, these generate SL(n,p), and the diagonal reaches
    every determinant, so the three generate GL(n,p).
    """
    check_prime(p)
    eye = np.eye(n, dtype=np.int64)
    trans, diag = eye.copy(), eye.copy()
    trans[0, 1:2] = 1
    diag[0, 0] = primitive_root(p)
    cycle = np.roll(eye, 1, axis=1)
    cycle[-1, 0] = (-1) ** (n - 1) % p
    return np.stack([trans, cycle, diag][:2 if p == 2 else 3])


def gl_matrices_array(n, p):
    """All invertible n x n matrices as an (K, n, n) array; small n*p only."""
    total = p ** (n * n)
    if total > SPACE_CAP:
        raise ValueError("GL enumeration too large: p**(n*n) = %d" % total)
    flat = index_vectors(p, n * n)
    ms = flat.reshape(total, n, n)
    return ms[mat_det(ms, p) != 0]


# matrices times p**n points in one chunk of matrix_to_perm: up to
# p**n = 2**14 its int32 temporaries, 64 KB, stay under glibc's default
# mmap threshold (128 KB)
_PERM_CHUNK = 1 << 14


def matrix_to_perm(ms, p):
    """Index permutation of F_p^n induced by v -> v*M: shape (p**n,) for
    one matrix, (K, p**n) for a batch; entries need not be reduced, and
    p**n past the index range raises ValueError.  Each chunk is reduced
    mod p and its indices summed one coordinate at a time in int32: a
    coordinate is at most n (p-1)**2 before its remainder."""
    n = ms.shape[-1]
    check_index_width(p, n)
    N = p ** n
    Vt = index_vectors(p, n).T.astype(np.int32)
    batch = ms.reshape(-1, n, n)
    out = np.empty((len(batch), N), dtype=IDX_DTYPE)
    step = max(1, _PERM_CHUNK // N)
    for a in range(0, len(batch), step):
        m = (batch[a:a + step] % p).astype(np.int32)
        idx = 0
        for j in range(n):
            idx = idx * p + m[:, :, j] @ Vt % p
        out[a:a + step] = idx
    return out.reshape(ms.shape[:-2] + (N,))


# ---------------------------------------------------------------------------
# the unipotent seed and the Omega set of the non-normal constructions


def canonical_unipotent(n, p):
    """Seed representative whose conjugacy class drives the constructions;
    for n = 3 it is the unipotent Jordan type (2, 1)."""
    if n == 2:
        return matrix(((1, 0), (1, 1)), p)
    if n == 3:
        return matrix(((1, 1, 0), (0, 1, 0), (0, 0, 1)), p)
    raise ValueError("canonical unipotent defined for n in {2, 3}")


def _commutant_arrays(M, p):
    """All matrices commuting with M, as an (K, n, n) int64 array."""
    n = M.shape[0]
    # linear system in the n*n unknowns of A: (A M - M A)[i, j] = 0
    coeff = np.zeros((n * n, n * n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            eq = i * n + j
            for k in range(n):
                coeff[eq, i * n + k] += M[k, j]
                coeff[eq, k * n + j] -= M[i, k]
    basis = nullspace_mod(coeff % p, p)
    d = basis.shape[0]
    if p ** d > SPACE_CAP:
        raise ValueError("commutant too large to enumerate: p**%d" % d)
    coeffs = index_vectors(p, d) if d else np.zeros((1, 0), dtype=np.int64)
    flat = coeffs @ basis % p
    return flat.reshape(-1, n, n)


def moves_every_line(ms, p):
    """True when x -> x*M sends every coset v + W, v not in W, to a
    different coset, W the plane fixed pointwise by the canonical
    unipotent; one flag per matrix of a batch."""
    ms = np.asarray(ms)
    if (ms[..., 1:, 0] % p).any():
        raise ValueError("matrix does not stabilize the reference plane")
    c = np.arange(1, p).reshape((-1,) + (1,) * (ms.ndim - 2))
    return ((c * ms[..., 0, 0] - c) % p != 0).all(axis=0)


def omega_set(p):
    """Non-identity centralizer elements of the canonical unipotent whose
    order divides p-1 and which move every affine line off the fixed plane,
    as a (K, 3, 3) array in lexicographic order of the entries.

    Computed by direct filtering; the two closed-form counts in
    omega_formula_derivation / omega_formula_printed disagree with each
    other, so the set itself is authoritative.
    """
    check_prime(p)
    if p == 2:
        raise ValueError("omega set is defined for odd p")
    ms = _commutant_arrays(canonical_unipotent(3, p), p)
    ms = ms[mat_det(ms, p) != 0]
    eye = np.eye(3, dtype=np.int64)
    semisimple = (mat_pow(ms, p - 1, p) == eye).all(axis=(1, 2))
    not_ident = ~(ms == eye).all(axis=(1, 2))
    ms = ms[semisimple & not_ident]
    ms = ms[moves_every_line(ms, p)]
    return ms[np.lexsort(ms.reshape(len(ms), -1).T[::-1])]


def omega_formula_derivation(p):
    """Count from the two-branch case split: scalars plus the x1 != x5 family."""
    return (p - 2) + p * p * (p - 2) ** 2


def omega_formula_printed(p):
    """The factored closed form as printed; inconsistent with the derivation."""
    return (p - 2) * (p - 1) * (p * p - p + 1)
