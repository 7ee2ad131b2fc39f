"""Skew-morphisms of F_p^n as validated permutation arrays.

A skew-morphism is a permutation s of the group fixing 0 such that
s(x + y) = s(x) + s^pi(x)(y) for an integer power function pi.  The
validator recovers pi or reports a witness element where no power of s
works.  The skew product puts G and <s> back together into a group on
pairs (g, i) with the multiplication

    (a, i) * (b, j) = (a + s^i(b), sum_{t<i} pi(s^t(b)) + j)

which is the one place the power function really gets exercised.
"""

import json
import math

import numpy as np

from . import _kernels as K
from . import fpalg
from .fpalg import FpMatrix, check_prime

JSON_FIELDS = ("p", "n", "order", "k", "m", "sigma", "pi", "automorphism")


class SkewValidationError(ValueError):
    def __init__(self, message, status=None, witness=None):
        super().__init__(message)
        self.status = status
        self.witness = witness


def _split_order(order, p):
    m = 0
    rest = order
    while rest % p == 0:
        m += 1
        rest //= p
    return rest, m


class SkewMorphism:
    """Validated skew-morphism: images array, power function, order = k * p**m."""

    __slots__ = ("p", "n", "images", "pi", "order", "k", "m")

    def __init__(self, p, n, images, pi, order):
        self.p = p
        self.n = n
        self.images = np.ascontiguousarray(images, dtype=K.IDX_DTYPE)
        self.images.flags.writeable = False
        self.pi = np.ascontiguousarray(pi, dtype=K.IDX_DTYPE)
        self.pi.flags.writeable = False
        self.order = int(order)
        self.k, self.m = _split_order(self.order, p)

    @property
    def N(self):
        return self.p ** self.n

    def key(self):
        return self.images.tobytes()

    def __eq__(self, other):
        return (
            isinstance(other, SkewMorphism)
            and self.p == other.p
            and self.n == other.n
            and self.key() == other.key()
        )

    def __hash__(self):
        return hash((self.p, self.n, self.key()))

    def __reduce__(self):
        # rebuilt through __init__, so the arrays arrive read-only again
        return SkewMorphism, (self.p, self.n, self.images, self.pi, self.order)

    def __repr__(self):
        return "SkewMorphism(p=%d, n=%d, order=%d, k=%d, m=%d)" % (
            self.p, self.n, self.order, self.k, self.m)

    def is_automorphism(self):
        if self.order == 1:
            return True
        return bool((self.pi == 1).all())

    def power_table(self):
        S = np.empty((self.order, self.N), dtype=K.IDX_DTYPE)
        S[0] = np.arange(self.N, dtype=K.IDX_DTYPE)
        for e in range(1, self.order):
            S[e] = self.images[S[e - 1]]
        return S


def validate(p, n, images):
    """Check the skew-morphism law and return the validated object.

    Raises SkewValidationError carrying the witness element when some f_x
    is no power of the candidate permutation.
    """
    check_prime(p)
    if n < 1:
        raise ValueError("n must be positive")
    images = np.asarray(images)
    if images.shape != (p ** n,):
        raise SkewValidationError(
            "expected %d images, got shape %r" % (p ** n, images.shape))
    status, order, pi, witness = K.validate_images(p, n, images)
    if status == K.NOT_PERMUTATION:
        raise SkewValidationError(
            "images are not a permutation fixing 0 (index %d)" % witness,
            status=status, witness=witness)
    if status == K.ORDER_TOO_BIG:
        raise SkewValidationError(
            "permutation order exceeds p**n - 1, cannot be a skew-morphism",
            status=status, witness=witness)
    if status == K.NO_POWER_MATCH:
        raise SkewValidationError(
            "f_x is no power of sigma at x = %d" % witness,
            status=status, witness=witness)
    sk = SkewMorphism(p, n, images, pi, order)
    if sk.order > 1:
        assert sk.pi[0] == 1, "pi(0) must be 1 for order >= 2"
    return sk


def from_matrix(M):
    """Skew-morphism of an invertible matrix (power function constant 1)."""
    return validate(M.p, M.n, fpalg.matrix_to_perm(M))


def aut_conjugate(sk, alpha):
    """Conjugate by an automorphism alpha of G: alpha^-1 . sigma . alpha."""
    if isinstance(alpha, FpMatrix):
        a = fpalg.matrix_to_perm(alpha)
    else:
        a = np.ascontiguousarray(alpha, dtype=K.IDX_DTYPE)
    ainv = np.argsort(a).astype(K.IDX_DTYPE)
    out = K.conj_batch(sk.images.reshape(1, -1), a, ainv)[0]
    return validate(sk.p, sk.n, out)


def power_coprime(sk, j):
    """sigma^j for j coprime to the order; again a skew-morphism."""
    if math.gcd(j, sk.order) != 1:
        raise ValueError("exponent must be coprime to the order")
    S = sk.power_table()
    return validate(sk.p, sk.n, S[j % sk.order])


def inverse_closed_generating_orbits(sk):
    """<sigma>-orbits on nonzero vectors that span F_p^n and satisfy O = -O."""
    _, _, neg = K.index_tables(sk.p, sk.n)
    V = K.index_vectors(sk.p, sk.n)
    seen = np.zeros(sk.N, dtype=bool)
    seen[0] = True
    out = []
    for start in range(1, sk.N):
        if seen[start]:
            continue
        orbit = []
        x = start
        while not seen[x]:
            seen[x] = True
            orbit.append(x)
            x = int(sk.images[x])
        oset = set(orbit)
        if any(int(neg[i]) not in oset for i in orbit):
            continue
        if fpalg.rank_mod(V[orbit], sk.p) == sk.n:
            out.append(tuple(orbit))
    return out


# ---------------------------------------------------------------------------
# the skew product group X = G <sigma> on pairs (g, i)


class SkewProductGroup:
    """Concrete group on pairs (g, i), g an index in F_p^n, 0 <= i < order."""

    def __init__(self, sk, check=True):
        self.sk = sk
        self.N = sk.N
        self.order = sk.order
        self.M = self.N * self.order
        add, sub, neg = K.index_tables(sk.p, sk.n)
        self.add, self.sub, self.neg = add, sub, neg
        self.S = sk.power_table()
        PS = np.zeros((self.order + 1, self.N), dtype=np.int64)
        for i in range(self.order):
            PS[i + 1] = PS[i] + sk.pi[self.S[i]]
        self.PS = (PS[: self.order] % self.order).astype(K.IDX_DTYPE)
        self._table = None
        self._inv = None
        if check:
            self.self_test()

    # pair ids: id = g * order + i
    def pair_id(self, g, i):
        return g * self.order + i

    def id_pair(self, ident):
        return divmod(int(ident), self.order)

    def mult_pairs(self, a, b):
        ga, ia = a
        gb, ib = b
        g = int(self.add[ga, self.S[ia, gb]])
        i = (int(self.PS[ia, gb]) + ib) % self.order
        return (g, i)

    def inv_pair(self, a):
        ga, ia = a
        gb = int(self.S[(self.order - ia) % self.order, self.neg[ga]])
        ib = (-int(self.PS[ia, gb])) % self.order
        return (gb, ib)

    def table(self):
        """Full multiplication table on pair ids, built lazily."""
        if self._table is None:
            o, N = self.order, self.N
            A1 = self.add[np.arange(N)[:, None, None], self.S[None, :, :]]
            E1 = (self.PS[:, :, None].astype(np.int64) + np.arange(o)[None, None, :]) % o
            T = (A1[:, :, :, None].astype(np.int64) * o + E1[None, :, :, :])
            self._table = T.reshape(self.M, self.M).astype(np.int32)
        return self._table

    def inv_table(self):
        if self._inv is None:
            # identity has pair id 0, the row minimum, hit exactly once
            self._inv = np.argmin(self.table(), axis=1).astype(np.int32)
        return self._inv

    @property
    def identity(self):
        return (0, 0)

    def g_ids(self):
        return np.arange(self.N, dtype=np.int64) * self.order

    def sigma_ids(self):
        return np.arange(self.order, dtype=np.int64)

    def p_ids(self):
        """Ids of P = G <sigma^k>, the Sylow-p-carrying normal piece."""
        k = self.sk.k
        exps = np.arange(0, self.order, k, dtype=np.int64)
        return (np.arange(self.N, dtype=np.int64)[:, None] * self.order + exps[None, :]).ravel()

    def sigma_pair(self, e=1):
        return (0, e % self.order)

    def sigma1_pair(self):
        return (0, self.sk.k % self.order)

    def sigma2_pair(self):
        return (0, self.sk.p ** self.sk.m % self.order)

    def z_pair(self):
        if self.sk.m == 0:
            raise ValueError("z = sigma^(k p^(m-1)) needs m >= 1")
        return (0, self.sk.k * self.sk.p ** (self.sk.m - 1) % self.order)

    def self_test(self):
        """Group-law check: full associativity when small, sampled otherwise."""
        T = self.table()
        M = self.M
        ident = np.arange(M)
        assert (T[0] == ident).all() and (T[:, 0] == ident).all(), "identity fails"
        if M <= 200:
            # (xy)z indexed [x,y,z] against x(yz)
            ok = (T[T[:, :, None], ident[None, None, :]] ==
                  T[ident[:, None, None], T[None, :, :]]).all()
        else:
            rng = np.random.default_rng(0)
            x = rng.integers(0, M, 10 ** 5)
            y = rng.integers(0, M, 10 ** 5)
            z = rng.integers(0, M, 10 ** 5)
            ok = (T[T[x, y], z] == T[x, T[y, z]]).all()
        assert ok, "associativity fails"
        perm_rows = np.sort(T, axis=1)
        assert (perm_rows == ident[None, :]).all(), "rows are not permutations"

    def commutator_ids(self):
        """Distinct values of [x, y] = x^-1 y^-1 x y over all pairs, as ids."""
        T = self.table()
        inv = self.inv_table().astype(np.int64)
        heads = T[inv[:, None], inv[None, :]]
        return np.unique(T[heads, T])

    def derived_is_abelian(self):
        # pairwise-commuting generators span an abelian subgroup, so the
        # commutator set commuting elementwise settles X' without a closure
        C = self.commutator_ids()
        sub = self.table()[np.ix_(C, C)]
        return bool((sub == sub.T).all())

    def as_finite_group(self):
        from . import group_engine
        carrier = group_engine.Carrier(
            mul=self.mult_pairs, inv=self.inv_pair, identity=self.identity)
        elements = frozenset(
            (g, i) for g in range(self.N) for i in range(self.order))
        gens = tuple((fpalg.vec_index(fpalg.basis_vector(self.sk.p, self.sk.n, j)), 0)
                     for j in range(self.sk.n))
        if self.order > 1:
            gens += ((0, 1),)
        return group_engine.FiniteGroup(carrier, elements, gens)


def build_skew_product(sk):
    return SkewProductGroup(sk)


# ---------------------------------------------------------------------------
# extraction: a complementary factorization X = G <s> defines a skew-morphism


def extract_skew(X, G, s, generators):
    """Recover the skew-morphism defined by s g = g' s^i inside X.

    X and G are FiniteGroup instances sharing a carrier, s an element of X
    with X = G<s>, G ∩ <s> = 1 and <s> core-free; generators fixes the
    isomorphism G -> F_p^n (listed generator order maps to basis order).
    """
    from . import group_engine

    mul, inv = X.mul, X.inv
    order = X.element_order(s)
    p_pow = len(G.elements)
    p = smallest_prime_factor(p_pow)
    n = round(math.log(p_pow, p))
    if p ** n != p_pow:
        raise ValueError("|G| is not a prime power")
    if len(generators) != n:
        raise ValueError("need %d generators, got %d" % (n, len(generators)))

    s_pows = [X.carrier.identity]
    for _ in range(order - 1):
        s_pows.append(mul(s_pows[-1], s))
    s_set = set(s_pows)
    if len(s_set) != order:
        raise ValueError("element powers collapse early")
    if len(X.elements) != p_pow * order:
        raise ValueError("|X| != |G| * order(s), not a complementary factorization")
    if any(x in s_set and x != X.carrier.identity for x in G.elements):
        raise ValueError("G meets <s> nontrivially")
    _check_corefree(X, s_pows, order)

    # label G by generator exponents, big-endian like vec_index
    label = {}
    for idx in range(p_pow):
        exps = []
        r = idx
        for j in range(n - 1, -1, -1):
            exps.append((r // p ** j) % p)
            r %= p ** j
        elem = X.carrier.identity
        for g, e in zip(generators, exps):
            for _ in range(e):
                elem = mul(elem, g)
        if elem in label:
            raise ValueError("generators do not label G freely")
        label[elem] = idx
    if set(label) != set(G.elements):
        raise ValueError("generators do not generate G")

    s_inv_pows = [inv(x) for x in s_pows]
    images = np.zeros(p_pow, dtype=K.IDX_DTYPE)
    elems = sorted(label.items(), key=lambda kv: kv[1])
    for elem, idx in elems:
        t = mul(s, elem)
        for e in range(order):
            cand = mul(t, s_inv_pows[e])
            if cand in label:
                images[idx] = label[cand]
                break
        else:
            raise ValueError("no factorization g' s^e found; not complementary")
    return validate(p, n, images)


def _check_corefree(X, s_pows, order):
    # a nontrivial normal subgroup inside <s> would contain a prime-order
    # subgroup of <s>, itself normal, so minimal subgroups suffice
    for q in set(prime_factors(order)):
        d = order // q
        sub = {s_pows[(d * t) % order] for t in range(q)}
        normal = True
        for g in X.generators:
            gi = X.inv(g)
            for x in sub:
                if X.mul(X.mul(gi, x), g) not in sub:
                    normal = False
                    break
            if not normal:
                break
        if normal:
            raise ValueError("<s> is not core-free: order-%d subgroup is normal" % q)


def smallest_prime_factor(m):
    for d in range(2, int(m ** 0.5) + 1):
        if m % d == 0:
            return d
    return m


def prime_factors(m):
    out = []
    d = 2
    while d * d <= m:
        while m % d == 0:
            out.append(d)
            m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


# ---------------------------------------------------------------------------
# serialization


def skew_to_obj(sk):
    return {
        "p": sk.p,
        "n": sk.n,
        "order": sk.order,
        "k": sk.k,
        "m": sk.m,
        "sigma": [int(v) for v in sk.images],
        "pi": [int(v) for v in sk.pi],
        "automorphism": sk.is_automorphism(),
    }


def skew_to_json(sk):
    return json.dumps(skew_to_obj(sk), separators=(", ", ": "))


def parse_record(obj):
    """Validate one JSONL record dict back into a SkewMorphism."""
    for field in ("p", "n", "sigma"):
        if field not in obj:
            raise SkewValidationError("record missing field %r" % field)
    sk = validate(int(obj["p"]), int(obj["n"]), np.array(obj["sigma"], dtype=np.int64))
    for field, got in (("order", sk.order), ("k", sk.k), ("m", sk.m)):
        if field in obj and int(obj[field]) != got:
            raise SkewValidationError(
                "record field %r = %r disagrees with recomputed %d" % (field, obj[field], got))
    if "pi" in obj and [int(v) for v in obj["pi"]] != [int(v) for v in sk.pi]:
        raise SkewValidationError("record power function disagrees with recomputed one")
    return sk


def write_jsonl(skews, path):
    skews = sorted(skews, key=lambda s: tuple(s.images))
    with open(path, "w") as fh:
        for sk in skews:
            fh.write(skew_to_json(sk))
            fh.write("\n")
    return len(skews)


def read_jsonl(path):
    out = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SkewValidationError("line %d: bad JSON (%s)" % (line_no, exc))
            out.append(parse_record(obj))
    return out
