"""Skew-morphisms of F_p^n as validated permutation arrays.

A skew-morphism is a permutation s of the group fixing 0 such that
s(x + y) = s(x) + s^pi(x)(y) for an integer power function pi.  The
validator recovers pi or reports a witness element where no power of s
works.  The skew product puts G and <s> back together into a group on
pairs (g, i) with the multiplication

    (a, i) * (b, j) = (a + s^i(b), sum_{t<i} pi(s^t(b)) + j)

which is the one place the power function really gets exercised.  The
pair (g, i) has the id g * order + i, and SkewProductGroup.mul and .inv
compute the law on ids from the addition table of G, the powers of s and
the running sums of pi, for python ints and numpy id arrays alike, so no
Cayley table of the whole group is ever built: group_engine.check_group_law
checks the law as it is built, with no M^2 array above 200 ids, and the
derived subgroup is closed by group_engine.close_many.  as_finite_group
gives the same law as a group_engine group on the ids.

extract_skew reads a skew-morphism back off any complementary
factorization X = G<s> of an int-coded group, in array passes: powers by
doubling, G labelled by broadcast products of generator powers, and every
candidate factor looked up in one dense label array.
"""

import json
import math

import numpy as np

from . import _kernels as K
from . import fpalg
from . import group_engine as ge
from .fpalg import check_prime

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

    __slots__ = ("p", "n", "images", "pi", "order", "k", "m", "_aut")

    def __init__(self, p, n, images, pi, order):
        self.p = p
        self.n = n
        self.images = np.ascontiguousarray(images, dtype=K.IDX_DTYPE)
        self.images.flags.writeable = False
        self.pi = np.ascontiguousarray(pi, dtype=K.IDX_DTYPE)
        self.pi.flags.writeable = False
        self.order = int(order)
        self.k, self.m = _split_order(self.order, p)
        self._aut = None  # is_automorphism, worked out on the first call

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
        # the arrays are read-only, so the verdict never goes stale
        if self._aut is None:
            self._aut = self.order == 1 or bool((self.pi == 1).all())
        return self._aut

    def power_table(self):
        """S[e] = sigma^e for 0 <= e < order, built by doubling."""
        return K.power_rows(self.images, self.order)


def power_sums(sk, S):
    """PS[i, g] = sum_{t<i} pi(sigma^t g) mod order, an exclusive running
    sum over the power table S, as int32."""
    steps = sk.pi[S].astype(np.int64)
    return ((np.cumsum(steps, axis=0) - steps) % sk.order).astype(np.int32)


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
    return members(p, n, batch, order, pi)


def members(p, n, rows, order, pi):
    """SkewMorphisms of rows that validate_many passed, with its order and pi."""
    assert (pi[order > 1, 0] == 1).all(), "pi(0) must be 1 for order >= 2"
    # each member owns copies of its rows: views would keep the batch alive
    return [SkewMorphism(p, n, row.copy(), row_pi.copy(), o)
            for row, row_pi, o in zip(rows, pi, order.tolist())]


def lex_order(skews):
    """The member order: positions that sort skews by image row, first point
    most significant, ties kept in place, from one stacked int16 array."""
    if len(skews) < 2:
        return np.arange(len(skews))
    return np.lexsort(np.stack([s.images for s in skews]).T[::-1])


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
    """Concrete group on pairs (g, i), g an index in F_p^n, 0 <= i < order;
    mul and inv act on their ids, python ints or numpy arrays."""

    def __init__(self, sk, check=True):
        self.sk = sk
        self.N = sk.N
        self.order = sk.order
        self.M = self.N * self.order
        # int32 holds every id g * order + i of a group that fits in
        # memory, and the law's passes over int32 arrays run faster
        add, _, neg = K.index_tables(sk.p, sk.n)
        self.add, self.neg = add.astype(np.int32), neg.astype(np.int32)
        self.S = sk.power_table().astype(np.int32)
        self.PS = power_sums(sk, self.S)
        # for mul: add times order, and a table of x mod order for x < 2 order
        self._add_o = self.add * self.order
        self._mod = np.arange(2 * self.order, dtype=np.int32) % self.order
        if check:
            ge.check_group_law(self)

    def __len__(self):
        return self.M

    # pair ids: id = g * order + i
    def pair_id(self, g, i):
        return g * self.order + i

    def mul(self, a, b):
        o, N = self.order, self.N
        ga, ia = divmod(a, o)
        gb, ib = divmod(b, o)
        # flat takes: gathers from 1-d views run faster than 2-d fancy indexing
        k = ia * N + gb
        return ge._code(self._add_o.take(ga * N + self.S.take(k))
                        + self._mod.take(self.PS.take(k) + ib))

    def inv(self, a):
        o = self.order
        ga, ia = divmod(a, o)
        gb = self.S[-ia % o, self.neg[ga]]
        return ge._code(gb * o + -self.PS[ia, gb] % o)

    def sigma_pair(self, e=1):
        """The id of (0, e), sigma^e."""
        return e % self.order

    def generator_ids(self):
        """Pair ids of the basis translations (e_j, 0), then sigma (0, 1)."""
        ids = [self.pair_id(self.sk.p ** (self.sk.n - 1 - j), 0) for j in range(self.sk.n)]
        if self.order > 1:
            ids.append(self.pair_id(0, 1))
        return np.array(ids, dtype=np.int64)

    def derived_is_abelian(self):
        return ge.derived_is_abelian(self, self.generator_ids())

    def as_finite_group(self):
        """X as a group_engine group on the ids 0..M-1, with the ids law."""
        carrier = ge.Carrier(self.mul, self.inv, self.M, "skew product")
        return ge.FiniteGroup.whole(carrier, self.generator_ids().tolist())


def build_skew_product(sk):
    return SkewProductGroup(sk)


# ---------------------------------------------------------------------------
# extraction: a complementary factorization X = G <s> defines a skew-morphism


def extract_skew(X, G, s, generators):
    """Recover the skew-morphism defined by s g = g' s^i inside X.

    X and G are FiniteGroup instances sharing a carrier, s an element of X
    with X = G<s>, G ∩ <s> = 1 and <s> core-free; generators fixes the
    isomorphism G -> F_p^n (listed generator order maps to basis order).
    The label of g' is read for all g and all i at once, from a dense
    label array over the carrier's codes.
    """
    mul, inv = X.mul, X.inv
    s_pows = X.cycle(s)
    order = len(s_pows)
    p_pow = len(G)
    p, n = ge.prime_power_split(p_pow)
    if len(generators) != n:
        raise ValueError("need %d generators, got %d" % (n, len(generators)))
    if np.unique(s_pows).size != order:
        raise ValueError("element powers collapse early")
    if len(X) != p_pow * order:
        raise ValueError("|X| != |G| * order(s), not a complementary factorization")
    if G.mask[s_pows[1:]].any():
        raise ValueError("G meets <s> nontrivially")
    _check_corefree(X, s_pows, order)

    # label G by generator exponents, big-endian like the point indices:
    # elems[idx] = g_1^e_1 ... g_n^e_n for idx = sum e_j p^(n-j)
    elems = np.zeros(1, dtype=np.int64)
    for g in generators:
        elems = mul(elems[:, None], ge.powers(mul, g, p)).ravel()
    if elems.size != p_pow or np.unique(elems).size != p_pow:
        raise ValueError("generators do not label G freely")
    if not G.mask[elems].all():
        raise ValueError("generators do not generate G")
    label = np.full(len(X.carrier), -1, dtype=np.int64)
    label[elems] = np.arange(p_pow)

    # s g = g' s^e: g' = s g s^-e is the one candidate in G, per g
    cand = label[mul(mul(s, elems)[:, None], inv(s_pows))]
    found = cand >= 0
    if not found.any(axis=1).all():
        raise ValueError("no factorization g' s^e found; not complementary")
    images = cand[np.arange(p_pow), found.argmax(axis=1)].astype(K.IDX_DTYPE)
    return validate(p, n, images)


def _check_corefree(X, s_pows, order):
    # a nontrivial normal subgroup inside <s> would contain a prime-order
    # subgroup of <s>, itself normal, so minimal subgroups suffice
    gens = np.array(X.generators, dtype=np.int64)[:, None]
    for q in fpalg.prime_divisors(order):
        sub = s_pows[::order // q]
        if (X.conj(sub, gens)[..., None] == sub).any(axis=-1).all():
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


# skew_to_obj as one JSON line with ", " separators, in one format string:
# the repr of a list of python ints is its JSON text.  Further fields go
# in before the closing brace.
RECORD_LINE = ('{"p": %d, "n": %d, "order": %d, "k": %d, "m": %d, '
               '"sigma": %r, "pi": %r, "automorphism": %s%s}\n')


def json_bool(b):
    return "true" if b else "false"


def record_line(sk, more=""):
    return RECORD_LINE % (sk.p, sk.n, sk.order, sk.k, sk.m, sk.images.tolist(),
                          sk.pi.tolist(), json_bool(sk.is_automorphism()), more)


def parse_record(obj):
    """Validate one JSONL record dict back into a SkewMorphism."""
    if not isinstance(obj, dict):
        raise SkewValidationError("record is a JSON %s, not an object" % type(obj).__name__)
    for field in ("p", "n", "sigma"):
        if field not in obj:
            raise SkewValidationError("record missing field %r" % field)
    sk = validate(_field(obj, "p", int), _field(obj, "n", int),
                  _field(obj, "sigma", lambda v: np.array(v, dtype=np.int64)))
    for field, got in (("order", sk.order), ("k", sk.k), ("m", sk.m)):
        if field in obj and _field(obj, field, int) != got:
            raise SkewValidationError(
                "record field %r = %r disagrees with recomputed %d" % (field, obj[field], got))
    if "pi" in obj and _field(obj, "pi", lambda v: [int(x) for x in v]) != sk.pi.tolist():
        raise SkewValidationError("record power function disagrees with recomputed one")
    return sk


def _field(obj, field, convert):
    # a null or mistyped value is bad input, not a crash
    try:
        return convert(obj[field])
    except (TypeError, ValueError, OverflowError) as exc:
        raise SkewValidationError("record field %r is unusable (%s)" % (field, exc)) from None


def write_jsonl(skews, path):
    """One record line per member, in lex_order; returns the record count."""
    skews = list(skews)
    with open(path, "w") as fh:
        for i in lex_order(skews):
            fh.write(record_line(skews[i]))
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
            try:
                out.append(parse_record(obj))
            except SkewValidationError as exc:
                raise SkewValidationError("line %d: %s" % (line_no, exc), status=exc.status,
                                          witness=exc.witness) from None
    return out
