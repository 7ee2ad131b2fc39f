"""Dense linear and affine algebra over prime fields F_p.

Vectors are rows and matrices act on the right (x -> x*M + v), so
composition reads left to right everywhere.  Matrices are stored as
tuples of residue rows, which keeps them hashable and usable as group
elements; batch work converts to numpy internally.

p <= 251 is accepted; only small p is exercised by the enumeration.
"""

from dataclasses import dataclass
import functools

import numpy as np

from ._kernels import IDX_DTYPE, index_vectors

PRIME_MAX = 251
ORDER_CAP = 10 ** 6
SPACE_CAP = 5 * 10 ** 6


def is_prime(m):
    if m < 2:
        return False
    for d in range(2, int(m ** 0.5) + 1):
        if m % d == 0:
            return False
    return True


def check_prime(p):
    if not is_prime(p) or p > PRIME_MAX:
        raise ValueError("p must be a prime <= %d, got %r" % (PRIME_MAX, p))


@dataclass(frozen=True)
class FpVector:
    p: int
    coords: tuple

    def __post_init__(self):
        check_prime(self.p)
        if any(not (0 <= c < self.p) for c in self.coords):
            raise ValueError("coordinates must be reduced residues mod %d" % self.p)

    @property
    def n(self):
        return len(self.coords)

    def __add__(self, other):
        assert self.p == other.p and self.n == other.n
        return FpVector(self.p, tuple((a + b) % self.p for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return FpVector(self.p, tuple((-a) % self.p for a in self.coords))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return FpVector(self.p, tuple((c * a) % self.p for a in self.coords))

    def is_zero(self):
        return all(c == 0 for c in self.coords)


def vec_index(v):
    """Big-endian index of a vector: (v_1,...,v_n) -> sum v_j p**(n-j)."""
    i = 0
    for c in v.coords:
        i = i * v.p + c
    return i


def index_vec(i, p, n):
    coords = []
    for j in range(n - 1, -1, -1):
        coords.append((i // p ** j) % p)
    return FpVector(p, tuple(coords))


def zero_vector(p, n):
    return FpVector(p, (0,) * n)


def basis_vector(p, n, j):
    return FpVector(p, tuple(1 if t == j else 0 for t in range(n)))


@dataclass(frozen=True)
class FpMatrix:
    p: int
    rows: tuple

    def __post_init__(self):
        check_prime(self.p)
        n = len(self.rows)
        for row in self.rows:
            if len(row) != n:
                raise ValueError("matrix must be square")
            if any(not (0 <= c < self.p) for c in row):
                raise ValueError("entries must be reduced residues mod %d" % self.p)

    @property
    def n(self):
        return len(self.rows)

    @classmethod
    def from_array(cls, a, p):
        a = np.asarray(a) % p
        return cls(p, tuple(tuple(int(c) for c in row) for row in a))

    def array(self):
        return np.array(self.rows, dtype=np.int64)

    @classmethod
    def identity(cls, p, n):
        return cls(p, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def is_identity(self):
        return self == FpMatrix.identity(self.p, self.n)

    def __mul__(self, other):
        assert self.p == other.p
        prod = self.array() @ other.array() % self.p
        return FpMatrix.from_array(prod, self.p)

    def pow(self, e):
        n, p = self.n, self.p
        if e < 0:
            return self.inverse().pow(-e)
        result = FpMatrix.identity(p, n)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def det(self):
        return det_mod(self.array(), self.p)

    def inverse(self):
        inv = inv_mod(self.array(), self.p)
        if inv is None:
            raise ValueError("matrix is singular mod %d" % self.p)
        return FpMatrix.from_array(inv, self.p)

    def order(self):
        return element_order(self)

    def apply(self, v):
        coords = tuple(
            int(sum(v.coords[i] * self.rows[i][j] for i in range(self.n)) % self.p)
            for j in range(self.n)
        )
        return FpVector(self.p, coords)


@dataclass(frozen=True)
class AffineMap:
    linear: FpMatrix
    shift: FpVector

    def __post_init__(self):
        if self.linear.p != self.shift.p or self.linear.n != self.shift.n:
            raise ValueError("linear part and shift must share p and dimension")

    @property
    def p(self):
        return self.linear.p

    @property
    def n(self):
        return self.linear.n

    @classmethod
    def identity(cls, p, n):
        return cls(FpMatrix.identity(p, n), zero_vector(p, n))

    @classmethod
    def from_matrix(cls, M):
        return cls(M, zero_vector(M.p, M.n))

    @classmethod
    def translation(cls, v):
        return cls(FpMatrix.identity(v.p, v.n), v)

    def is_identity(self):
        return self.linear.is_identity() and self.shift.is_zero()

    def apply(self, v):
        return self.linear.apply(v) + self.shift

    def compose(self, other):
        """self then other: x -> (x*M1 + v1)*M2 + v2."""
        M = self.linear * other.linear
        v = other.linear.apply(self.shift) + other.shift
        return AffineMap(M, v)

    __mul__ = compose

    def inverse(self):
        Minv = self.linear.inverse()
        return AffineMap(Minv, -Minv.apply(self.shift))


def element_order(x, cap=ORDER_CAP):
    """Order of a matrix or affine map by iterated composition."""
    if isinstance(x, FpMatrix):
        ident = FpMatrix.identity(x.p, x.n)
    else:
        ident = AffineMap.identity(x.p, x.n)
    acc = x
    for k in range(1, cap + 1):
        if acc == ident:
            return k
        acc = acc * x
    raise RuntimeError("order cap exceeded")


# ---------------------------------------------------------------------------
# modular linear algebra helpers (numpy int64 arrays)


def det_mod(a, p):
    a = np.array(a, dtype=np.int64) % p
    n = a.shape[0]
    det = 1
    for col in range(n):
        piv = -1
        for r in range(col, n):
            if a[r, col] % p:
                piv = r
                break
        if piv < 0:
            return 0
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            det = -det % p
        det = det * a[col, col] % p
        inv = pow(int(a[col, col]), p - 2, p)
        for r in range(col + 1, n):
            if a[r, col]:
                a[r] = (a[r] - a[r, col] * inv * a[col]) % p
    return int(det % p)


def inv_mod(a, p):
    a = np.array(a, dtype=np.int64) % p
    n = a.shape[0]
    aug = np.concatenate([a, np.eye(n, dtype=np.int64)], axis=1)
    row = 0
    for col in range(n):
        piv = -1
        for r in range(row, n):
            if aug[r, col] % p:
                piv = r
                break
        if piv < 0:
            return None
        if piv != row:
            aug[[row, piv]] = aug[[piv, row]]
        aug[row] = aug[row] * pow(int(aug[row, col]), p - 2, p) % p
        for r in range(n):
            if r != row and aug[r, col]:
                aug[r] = (aug[r] - aug[r, col] * aug[row]) % p
        row += 1
    return aug[:, n:]


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


def rank_mod(vectors, p):
    a = np.array(vectors, dtype=np.int64).reshape(len(vectors), -1) % p
    return a.shape[0] - nullspace_mod(a.T, p).shape[0] if a.size else 0


# ---------------------------------------------------------------------------
# GL(n, p): order, generators, batch enumeration


def gl_order(n, p):
    q = p ** n
    total = 1
    for i in range(n):
        total *= q - p ** i
    return total


def primitive_root(p):
    if p == 2:
        return 1
    for g in range(2, p):
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        if len(seen) == p - 1:
            return g
    raise RuntimeError("no primitive root found")


def gl_generators(n, p):
    """Transvections plus one diagonal generator; generates all of GL(n,p)."""
    check_prime(p)
    gens = []
    eye = np.eye(n, dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if i != j:
                m = eye.copy()
                m[i, j] = 1
                gens.append(FpMatrix.from_array(m, p))
    if p > 2:
        m = eye.copy()
        m[0, 0] = primitive_root(p)
        gens.append(FpMatrix.from_array(m, p))
    if not gens:
        gens.append(FpMatrix.identity(p, n))
    return gens


def _batch_matmul(a, b, p):
    return np.einsum("kij,kjl->kil", a, b) % p


def _batch_det(ms, p):
    n = ms.shape[1]
    if n == 1:
        return ms[:, 0, 0] % p
    if n == 2:
        return (ms[:, 0, 0] * ms[:, 1, 1] - ms[:, 0, 1] * ms[:, 1, 0]) % p
    if n == 3:
        a, b, c = ms[:, 0, 0], ms[:, 0, 1], ms[:, 0, 2]
        d, e, f = ms[:, 1, 0], ms[:, 1, 1], ms[:, 1, 2]
        g, h, i = ms[:, 2, 0], ms[:, 2, 1], ms[:, 2, 2]
        return (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % p
    return np.array([det_mod(m, p) for m in ms], dtype=np.int64)


def _batch_pow(ms, e, p):
    result = np.broadcast_to(np.eye(ms.shape[1], dtype=np.int64), ms.shape).copy()
    base = ms % p
    while e:
        if e & 1:
            result = _batch_matmul(result, base, p)
        base = _batch_matmul(base, base, p)
        e >>= 1
    return result


def gl_matrices_array(n, p):
    """All invertible n x n matrices as an (K, n, n) array; small n*p only."""
    total = p ** (n * n)
    if total > SPACE_CAP:
        raise ValueError("GL enumeration too large: p**(n*n) = %d" % total)
    flat = index_vectors(p, n * n)
    ms = flat.reshape(total, n, n)
    keep = _batch_det(ms, p) != 0
    return ms[keep]


def matrix_to_perm(M):
    """Index permutation of F_p^n induced by v -> v*M."""
    V = index_vectors(M.p, M.n)
    place = M.p ** np.arange(M.n - 1, -1, -1, dtype=np.int64)
    return ((V @ M.array() % M.p) @ place).astype(IDX_DTYPE)


def matrices_to_perms(ms, p):
    """(K, p**n) index permutations for a batch of (K, n, n) matrices."""
    n = ms.shape[1]
    V = index_vectors(p, n)
    place = p ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return (np.einsum("vj,kjl->kvl", V, ms) % p @ place).astype(IDX_DTYPE)


# ---------------------------------------------------------------------------
# unipotent class machinery for the non-normal constructions


def unipotent_class_reps(p):
    """The two 3x3 unipotent Jordan representatives over F_p, p odd."""
    check_prime(p)
    if p == 2:
        raise ValueError("unipotent class representatives are used for odd p only")
    g1 = FpMatrix(p, ((1, 1, 0), (0, 1, 0), (0, 0, 1)))
    g2 = FpMatrix(p, ((1, 1, 0), (0, 1, 1), (0, 0, 1)))
    return g1, g2


def canonical_unipotent(n, p):
    """Seed representative whose conjugacy class drives the constructions."""
    if n == 2:
        return FpMatrix(p, ((1, 0), (1, 1)))
    if n == 3:
        return unipotent_class_reps(p)[0]
    raise ValueError("canonical unipotent defined for n in {2, 3}")


def conjugacy_class(M):
    """Full GL conjugacy class of M by orbit closure over GL generators."""
    gens = gl_generators(M.n, M.p)
    pairs = [(g, g.inverse()) for g in gens]
    seen = {M}
    frontier = [M]
    while frontier:
        nxt = []
        for x in frontier:
            for g, ginv in pairs:
                y = ginv * x * g
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


def _commutant_arrays(M):
    """All matrices commuting with M, as an (K, n, n) int64 array."""
    n, p = M.n, M.p
    a = M.array()
    # linear system in the n*n unknowns of A: (A M - M A)[i, j] = 0
    coeff = np.zeros((n * n, n * n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            eq = i * n + j
            for k in range(n):
                coeff[eq, i * n + k] += a[k, j]
                coeff[eq, k * n + j] -= a[i, k]
    basis = nullspace_mod(coeff % p, p)
    d = basis.shape[0]
    if p ** d > SPACE_CAP:
        raise ValueError("commutant too large to enumerate: p**%d" % d)
    coeffs = index_vectors(p, d) if d else np.zeros((1, 0), dtype=np.int64)
    flat = coeffs @ basis % p
    return flat.reshape(-1, n, n)


def centralizer_in_gl(M):
    """Invertible matrices commuting with M."""
    ms = _commutant_arrays(M)
    ms = ms[_batch_det(ms, M.p) != 0]
    return frozenset(FpMatrix.from_array(m, M.p) for m in ms)


def moves_every_line(M):
    """True when x -> x*M sends every coset v + W, v not in W, to a
    different coset, W the plane fixed pointwise by the first Jordan rep."""
    p = M.p
    arr = M.array()
    if arr[1, 0] % p or arr[2, 0] % p:
        raise ValueError("matrix does not stabilize the reference plane")
    for c in range(1, p):
        if (c * arr[0, 0] - c) % p == 0:
            return False
    return True


def omega_set(p):
    """Non-identity centralizer elements of the first Jordan rep whose order
    divides p-1 and which move every affine line off the fixed plane.

    Computed by direct filtering; the two closed-form counts in
    omega_formula_derivation / omega_formula_printed disagree with each
    other, so the set itself is authoritative.
    """
    check_prime(p)
    if p == 2:
        raise ValueError("omega set is defined for odd p")
    g1 = unipotent_class_reps(p)[0]
    ms = _commutant_arrays(g1)
    ms = ms[_batch_det(ms, p) != 0]
    powered = _batch_pow(ms, p - 1, p)
    eye = np.eye(3, dtype=np.int64)
    semisimple = (powered == eye).all(axis=(1, 2))
    not_ident = ~(ms == eye).all(axis=(1, 2))
    out = []
    for m in ms[semisimple & not_ident]:
        cand = FpMatrix.from_array(m, p)
        if moves_every_line(cand):
            out.append(cand)
    return frozenset(out)


def omega_formula_derivation(p):
    """Count from the two-branch case split: scalars plus the x1 != x5 family."""
    return (p - 2) + p * p * (p - 2) ** 2


def omega_formula_printed(p):
    """The factored closed form as printed; inconsistent with the derivation."""
    return (p - 2) * (p - 1) * (p * p - p + 1)
