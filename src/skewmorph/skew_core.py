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
from .fpalg import check_prime

JSON_FIELDS = ("p", "n", "order", "k", "m", "sigma", "pi", "automorphism")


class SkewValidationError(ValueError):
    def __init__(self, message, status=None, witness=None, row=None):
        super().__init__(message)
        self.status = status
        self.witness = witness
        self.row = row  # the failing row of a batch, None for one array


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
    if status != K.OK:
        _raise_status(status, witness)
    sk = SkewMorphism(p, n, images, pi, order)
    if sk.order > 1:
        assert sk.pi[0] == 1, "pi(0) must be 1 for order >= 2"
    return sk


def validate_rows(p, n, batch):
    """validate for every row of a (B, p**n) batch, in one kernel call.

    The first failing row raises SkewValidationError, with its index in
    the error's row attribute.
    """
    check_prime(p)
    if n < 1:
        raise ValueError("n must be positive")
    batch = np.ascontiguousarray(batch, dtype=K.IDX_DTYPE)
    if batch.ndim != 2 or batch.shape[1] != p ** n:
        raise SkewValidationError(
            "expected rows of %d images, got shape %r" % (p ** n, batch.shape))
    status, order, pi, witness = K.validate_many(p, n, batch)
    bad = np.flatnonzero(status != K.OK)
    if bad.size:
        r = int(bad[0])
        _raise_status(int(status[r]), int(witness[r]), row=r)
    assert (pi[order > 1, 0] == 1).all(), "pi(0) must be 1 for order >= 2"
    # each member owns copies of its rows: views would keep the batch alive
    return [SkewMorphism(p, n, row.copy(), row_pi.copy(), o)
            for row, row_pi, o in zip(batch, pi, order.tolist())]


def _raise_status(status, witness, row=None):
    if status == K.NOT_PERMUTATION:
        message = "images are not a permutation fixing 0 (index %d)" % witness
    elif status == K.ORDER_TOO_BIG:
        message = "permutation order exceeds p**n - 1, cannot be a skew-morphism"
    else:
        message = "f_x is no power of sigma at x = %d" % witness
    raise SkewValidationError(message, status=status, witness=witness, row=row)


def aut_conjugate(sk, M):
    """Conjugate by the automorphism alpha: x -> x*M of G, M an invertible
    (n, n) matrix array: alpha^-1 . sigma . alpha."""
    a = fpalg.matrix_to_perm(np.asarray(M), sk.p)
    ainv = np.argsort(a).astype(K.IDX_DTYPE)
    out = K.conj_batch(sk.images.reshape(1, -1), a, ainv)[0]
    return validate(sk.p, sk.n, out)


def power_coprime(sk, j):
    """sigma^j for j coprime to the order; again a skew-morphism."""
    if math.gcd(j, sk.order) != 1:
        raise ValueError("exponent must be coprime to the order")
    S = sk.power_table()
    return validate(sk.p, sk.n, S[j % sk.order])


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
        # PS[i, g] = sum_{t<i} pi(sigma^t g), an exclusive running sum
        steps = sk.pi[self.S].astype(np.int64)
        self.PS = ((np.cumsum(steps, axis=0) - steps) % self.order).astype(K.IDX_DTYPE)
        self._table = None
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

    @property
    def identity(self):
        return (0, 0)

    def sigma_pair(self, e=1):
        return (0, e % self.order)

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

    def generator_ids(self):
        """Pair ids of the basis translations (e_j, 0), then sigma (0, 1)."""
        ids = [self.pair_id(self.sk.p ** (self.sk.n - 1 - j), 0) for j in range(self.sk.n)]
        if self.order > 1:
            ids.append(self.pair_id(0, 1))
        return np.array(ids, dtype=np.int64)

    def derived_is_abelian(self):
        return cayley_derived_is_abelian(self.table(), self.generator_ids())

    def as_finite_group(self):
        from . import group_engine
        carrier = group_engine.Carrier(
            mul=self.mult_pairs, inv=self.inv_pair, identity=self.identity)
        elements = frozenset(
            (g, i) for g in range(self.N) for i in range(self.order))
        gens = tuple(self.id_pair(i) for i in self.generator_ids())
        return group_engine.FiniteGroup(carrier, elements, gens)


def _subgroup_mask(T, gens):
    """Membership mask of the subgroup generated by gens in the group with
    Cayley table T (identity id 0), by breadth-first right multiplication."""
    mask = np.zeros(T.shape[0], dtype=bool)
    mask[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    gens = np.asarray(gens, dtype=np.int64)
    while frontier.size:
        step = np.unique(T[frontier[:, None], gens[None, :]])
        frontier = step[~mask[step]]
        mask[frontier] = True
    return mask


def cayley_derived_is_abelian(T, gens):
    """Whether the derived subgroup of the group <gens> is abelian.

    T is the Cayley table on ids with identity 0.  X' is the normal
    closure of the commutators of the generators: conjugates of its
    generators by the generators of X are added until they all lie in
    the subgroup, and X' is abelian exactly when its generators commute.
    """
    gens = np.asarray(gens, dtype=np.int64)
    ginv = np.argmin(T[gens], axis=1)  # the identity 0 is the row minimum
    heads = T[ginv[:, None], ginv[None, :]]
    comms = T[heads, T[gens[:, None], gens[None, :]]]
    dgens = sorted(set(comms.ravel().tolist()) - {0})
    mask = _subgroup_mask(T, dgens)
    i = 0
    while i < len(dgens):
        for c in T[T[ginv, dgens[i]], gens].tolist():
            if not mask[c]:
                dgens.append(c)
                mask = _subgroup_mask(T, dgens)
        i += 1
    sub = T[np.ix_(dgens, dgens)]
    return bool((sub == sub.T).all())


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
    p, n = group_engine.prime_power_split(p_pow)
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

    # label G by generator exponents, big-endian like the point indices
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
    for q in fpalg.prime_divisors(order):
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


# ---------------------------------------------------------------------------
# serialization


def skew_to_obj(sk):
    return {
        "p": sk.p,
        "n": sk.n,
        "order": sk.order,
        "k": sk.k,
        "m": sk.m,
        "sigma": sk.images.tolist(),
        "pi": sk.pi.tolist(),
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
    if "pi" in obj and [int(v) for v in obj["pi"]] != sk.pi.tolist():
        raise SkewValidationError("record power function disagrees with recomputed one")
    return sk


def write_jsonl(skews, path):
    skews = sorted(skews, key=lambda s: s.images.tolist())
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
