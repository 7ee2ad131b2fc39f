"""Skew-morphisms of F_p^n as validated permutation arrays.

A skew-morphism is a permutation s of the group fixing 0 such that
s(x + y) = s(x) + s^pi(x)(y) for an integer power function pi.  The
validator recovers pi or reports a witness element where no power of s
works.  The skew product puts G and <s> back together into a group on
pairs (g, i) with the multiplication

    (a, i) * (b, j) = (a + s^i(b), sum_{t<i} pi(s^t(b)) + j)

which is the one place the power function really gets exercised.  The
pair (g, i) has the id g * order + i, and SkewProductGroup.mul and .inv
compute the law on ids as flat takes from the addition table of G, the
powers of s and the running sums of pi, with ids split into (g, i) by
the split tables of group_engine.split_tables rather than a division,
for python ints and numpy id arrays alike, so no Cayley table of the
whole group is ever built: group_engine.check_group_law
checks the law as it is built, with no M^2 array above 200 ids, and the
derived subgroup is closed by group_engine.close_many.  as_finite_group
gives the same law as a group_engine group on the ids.

extract_skew reads a skew-morphism back off any complementary
factorization X = G<s> of an int-coded group, in array passes: powers by
doubling, G labelled by broadcast products of generator powers, and every
candidate factor looked up in one dense label array.
"""

import itertools
import json
import math

import numpy as np

from . import _kernels as K
from . import fpalg
from . import group_engine as ge
from .fpalg import check_prime

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

    __slots__ = ("p", "n", "images", "pi", "order", "k", "m", "_aut")

    def __init__(self, p, n, images, pi, order, aut=None):
        self.p = p
        self.n = n
        self.images = _read_only(images, K.IDX_DTYPE)
        self.pi = _read_only(pi, K.IDX_DTYPE)
        self.order = int(order)
        self.k, self.m = _split_order(self.order, p)
        # is_automorphism as a bool: given by a caller that has the verdict
        # already, else worked out on the first call
        self._aut = aut

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


def power_sums(pi, S, order):
    """PS[i, g] = sum_{t<i} pi(sigma^t g) mod order, an exclusive running
    sum of the power function pi down the power table S, as int32."""
    steps = pi.take(S)
    PS = np.cumsum(steps, axis=0, dtype=np.int32)
    PS -= steps
    PS %= order
    return PS


def validate(p, n, images):
    """Check the skew-morphism law and return the validated object.

    Raises SkewValidationError carrying the witness element when some f_x
    is no power of the candidate permutation.  A refused value is read
    from images itself when it is a list: the array of a list may have
    rounded it to a float.
    """
    check_prime(p)
    if n < 1:
        raise ValueError("n must be positive")
    given, images = images, np.asarray(images)
    if images.shape != (p ** n,):
        raise SkewValidationError(
            "expected %d images, got shape %r" % (p ** n, images.shape))
    at = _bad_point(images, p ** n)
    if at >= 0:
        raise _point_error(given[at] if type(given) is list else images.item(at), at, p ** n)
    images = np.ascontiguousarray(images, dtype=K.IDX_DTYPE)
    status, order, pi, witness = K.validate_images(p, n, images)
    if status != K.OK:
        raise SkewValidationError(status_message(status, witness), status=status,
                                  witness=witness)
    assert order < 2 or pi[0] == 1, "pi(0) must be 1 for order >= 2"
    return SkewMorphism(p, n, images, pi, order)


def _bad_point(images, N):
    """The flat index of the first value of images that the cast to
    IDX_DTYPE would change, one that is no integer (a bool among them) or
    lies outside [0, N); -1 when there is none."""
    kind = images.dtype.kind
    if kind in "iu":
        # through the unsigned view a negative value reads as a huge one
        bad = images.view(_UNSIGNED[images.itemsize])
        if bad.max(initial=0) < N:
            return -1
        bad = bad >= N
    elif kind == "f":
        bad = ~((images >= 0) & (images < N) & (images == np.floor(images)))
    elif kind == "O":  # python ints past int64, None, ...
        bad = np.array([type(v) is not int or not 0 <= v < N for v in images.flat], dtype=bool)
    else:  # bools, strings
        bad = np.ones(images.size, dtype=bool)
    return int(np.argmax(bad)) if bad.any() else -1


def _point_error(value, at, N):
    """The refusal of value, the image at index at."""
    return SkewValidationError(
        "image at index %d is %r, not an integer in [0, %d)" % (at, value, N),
        status=K.NOT_PERMUTATION, witness=at)


# the unsigned dtype of each integer width, for _bad_point
_UNSIGNED = {k: np.dtype("u%d" % k) for k in (1, 2, 4, 8)}


class SkewBlock:
    """A validated set of skew-morphisms of one F_p^n, held as columns:
    images and pi read-only (M, N) int16 arrays, order (M,) int64, and the
    automorphism mask aut, worked out once as (order == 1) | (pi == 1).all(1).

    It reads as a sequence of SkewMorphism: len, iteration and an integer
    index give members, each owning copies of its rows; a slice, or + with
    another sequence, gives a list of them.
    """

    __slots__ = ("p", "n", "images", "pi", "order", "aut")

    def __init__(self, p, n, images, pi, order):
        self.p = p
        self.n = n
        self.images = _read_only(images, K.IDX_DTYPE)
        self.pi = _read_only(pi, K.IDX_DTYPE)
        self.order = _read_only(order, np.int64)
        assert (self.pi[self.order > 1, :1] == 1).all(), "pi(0) must be 1 for order >= 2"
        self.aut = _read_only((self.order == 1) | (self.pi == 1).all(axis=1), bool)

    def __len__(self):
        return len(self.order)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i = range(len(self))[i]  # IndexError past either end
        # the member owns read-only copies of its rows, so they need no view
        images, pi = self.images[i].copy(), self.pi[i].copy()
        images.flags.writeable = pi.flags.writeable = False
        return SkewMorphism(self.p, self.n, images, pi, self.order[i], bool(self.aut[i]))

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __add__(self, other):
        return list(self) + list(other)

    def __radd__(self, other):
        return list(other) + list(self)

    def take(self, at):
        """The members at positions at, as a new block."""
        return SkewBlock(self.p, self.n, self.images[at], self.pi[at], self.order[at])


def _read_only(a, dtype):
    """a as a read-only contiguous array of dtype: itself when it is one
    already, else a read-only view, so the caller's own array keeps its
    flags."""
    a = np.ascontiguousarray(a, dtype=dtype)
    if a.flags.writeable:
        a = a.view()
        a.flags.writeable = False
    return a


def as_block(skews, p=None, n=None):
    """skews as a SkewBlock: a block as it is, a sequence of SkewMorphism
    members of one F_p^n gathered into one, validated already, so not again.
    p and n give the shape of an empty set, which otherwise has no points;
    members of different sizes raise ValueError."""
    if isinstance(skews, SkewBlock):
        return skews
    skews = list(skews)
    if skews:
        p, n = skews[0].p, skews[0].n
    N = 0 if p is None else p ** n
    rows = [np.array([getattr(s, f) for s in skews], dtype=K.IDX_DTYPE).reshape(len(skews), N)
            for f in ("images", "pi")]
    return SkewBlock(p, n, *rows, [s.order for s in skews])


def member_block(p, n, parts):
    """The members of parts (blocks or member lists of F_p^n) as one block
    in member order: one lex_order and one gather.  Nothing merges
    duplicates."""
    parts = [as_block(part, p, n) for part in parts]
    images, pi, order = (np.concatenate([getattr(b, f) for b in parts])
                         for f in ("images", "pi", "order"))
    at = lex_order(images)
    return SkewBlock(p, n, images[at], pi[at], order[at])


def lex_order(skews):
    """The member order: positions that sort skews (a block, a member list
    or an (M, N) image array) by image row, first point most significant,
    ties kept in place."""
    rows = skews if isinstance(skews, np.ndarray) else as_block(skews).images
    if len(rows) < 2:
        return np.arange(len(rows))
    return np.lexsort(rows.T[::-1])


def status_message(status, witness):
    """Why the kernel refused a row, from its status and witness."""
    if status == K.NOT_PERMUTATION:
        return "images are not a permutation fixing 0 (index %d)" % witness
    if status == K.ORDER_TOO_BIG:
        return "permutation order exceeds p**n - 1, cannot be a skew-morphism"
    return "f_x is no power of sigma at x = %d" % witness


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
        # int64 tables: the law's takes run faster on them than on int32
        self.add, _, self.neg = (t.astype(np.int64) for t in K.index_tables(sk.p, sk.n))
        self.S = sk.power_table().astype(np.int64)
        self.PS = power_sums(sk.pi, self.S, sk.order).astype(np.int64)
        # add times order, and the split tables of an id g * order + i into
        # (g, i) and of an x < 2 order into x mod order
        self._add_o = self.add * self.order
        self._g, self._i = ge.split_tables(self.M, self.order)
        _, self._mod = ge.split_tables(2 * self.order, self.order)
        if check:
            ge.check_group_law(self)

    def __len__(self):
        return self.M

    # pair ids: id = g * order + i
    def pair_id(self, g, i):
        return g * self.order + i

    # flat takes from 1-d tables: gathers that run faster than divmod and
    # 2-d fancy indexing
    def mul(self, a, b):
        N = self.N
        k = self._i.take(a) * N + self._g.take(b)
        return ge._code(self._add_o.take(self._g.take(a) * N + self.S.take(k))
                        + self._mod.take(self.PS.take(k) + self._i.take(b)))

    def inv(self, a):
        # (g, i)^-1 = (h, -PS[i, h]) with h = sigma^-i(-g)
        o, N = self.order, self.N
        ia = self._i.take(a)
        gb = self.S.take(self._mod.take(o - ia) * N + self.neg.take(self._g.take(a)))
        return ge._code(gb * o + self._mod.take(o - self.PS.take(ia * N + gb)))

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
    if ge._distinct(s_pows).size != order:
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
    if elems.size != p_pow or ge._distinct(elems).size != p_pow:
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


def json_bool(b):
    return "true" if b else "false"


def parse_record(obj):
    """Validate one JSONL record dict back into a SkewMorphism: the
    one-record case of read_jsonl's checks."""
    members, failure = _parse_chunk([obj])
    if failure:
        raise failure[1]
    return members[0]


def _parse_chunk(objs, pn=None):
    """Validate a chunk of decoded JSONL records into SkewMorphism members.

    Each check of a record runs as one pass over the records not refused
    yet, in this order: an object; p, n and sigma present; p and n JSON
    integers; sigma a list of them; p prime and n positive; sigma's
    length; (p, n) equal to pn, objs[0]'s when None; sigma's value range,
    through one 2-D _bad_point; the kernel, validate_images once per
    record; the order, k and m fields, the pi field and the automorphism
    flag, where present, against the recomputed ones.  A refused record
    leaves only the records before it to check, so the refusal kept is
    the first record's first failing check.

    Returns (members, None), or (None, (i, error)) with i the refused
    record's index and error the exception to raise: a ValueError for a p
    or n out of range, else a SkewValidationError.
    """
    end, failure = len(objs), None

    def refuse(i, error):
        nonlocal end, failure
        if i is not None:
            end, failure = i, (i, error(i))

    refuse(_first([not isinstance(o, dict) for o in objs]), lambda i: SkewValidationError(
        "record is a JSON %s, not an object" % type(objs[i]).__name__))
    for field in ("p", "n", "sigma"):
        refuse(_first([field not in o for o in objs[:end]]),
               lambda i: SkewValidationError("record missing field %r" % field))
    for field in ("p", "n"):
        refuse(_first([type(o[field]) is not int for o in objs[:end]]),
               lambda i: _type_error(field, objs[i][field]))
    sigmas = [o["sigma"] for o in objs[:end]]
    refuse(_first_bad_list(sigmas), lambda i: _type_error("sigma", sigmas[i], listed=True))
    ps, ns = [o["p"] for o in objs[:end]], [o["n"] for o in objs[:end]]
    not_prime = {}
    for p in set(ps):
        try:
            check_prime(p)
        except ValueError as exc:
            not_prime[p] = exc
    refuse(_first([p in not_prime for p in ps]), lambda i: not_prime[ps[i]])
    refuse(_first([n < 1 for n in ns[:end]]), lambda i: ValueError("n must be positive"))
    refuse(_first([len(v) != p ** n for v, p, n in zip(sigmas[:end], ps, ns)]),
           lambda i: SkewValidationError("expected %d images, got shape %r"
                                         % (ps[i] ** ns[i], (len(sigmas[i]),))))
    if not end:
        return None, failure
    pn = pn or (ps[0], ns[0])
    refuse(_first([(p, n) != pn for p, n in zip(ps[:end], ns)]),
           lambda i: SkewValidationError("record (p, n) = (%d, %d) differs from the first "
                                         "record's (%d, %d)" % ((ps[i], ns[i]) + pn)))
    p, n = pn
    N = p ** n
    images = np.array(sigmas[:end]).reshape(end, N)
    # the chunk's array may round a value past 2^63 to a float, so the
    # refused value is read from the record's own list
    at = _bad_point(images, N)
    refuse(at // N if at >= 0 else None, lambda i: _point_error(sigmas[i][at % N], at % N, N))
    images = np.ascontiguousarray(images[:end], dtype=K.IDX_DTYPE)
    orders, pis = [], []
    for row in images:
        status, order, pi, witness = K.validate_images(p, n, row)
        if status != K.OK:
            refuse(len(orders), lambda i: SkewValidationError(
                status_message(status, witness), status=status, witness=witness))
            break
        orders.append(order)
        pis.append(pi)
    if not end:
        return None, failure
    block = SkewBlock(p, n, images[:end], pis, orders)
    split = {o: _split_order(o, p) for o in set(orders)}
    for field, got in (("order", orders), ("k", [split[o][0] for o in orders]),
                       ("m", [split[o][1] for o in orders])):
        refuse(_first([field in o and type(o[field]) is not int for o in objs[:end]]),
               lambda i: _type_error(field, objs[i][field]))
        refuse(_first([field in o and o[field] != g for o, g in zip(objs[:end], got)]),
               lambda i: SkewValidationError("record field %r = %r disagrees with recomputed %d"
                                             % (field, objs[i][field], got[i])))
    refuse(_first_bad_list([o.get("pi", []) for o in objs[:end]]),
           lambda i: _type_error("pi", objs[i]["pi"], listed=True))
    refuse(_first(["pi" in o and o["pi"] != w for o, w in zip(objs[:end], block.pi.tolist())]),
           lambda i: SkewValidationError("record power function disagrees with recomputed one"))
    aut = block.aut.tolist()
    flags = [o.get("automorphism", a) for o, a in zip(objs[:end], aut)]
    refuse(_first([type(f) is not bool for f in flags]), lambda i: SkewValidationError(
        "record field 'automorphism' is %s, not a boolean" % json.dumps(flags[i])))
    refuse(_first([f != a for f, a in zip(flags[:end], aut)]), lambda i: SkewValidationError(
        "record field 'automorphism' = %s disagrees with recomputed %s"
        % (json_bool(flags[i]), json_bool(aut[i]))))
    if failure:
        return None, failure
    return [SkewMorphism(p, n, *row) for row in
            zip(block.images, block.pi, orders, aut)], None


def _first(flags):
    """The index of the first true flag, or None."""
    return flags.index(True) if True in flags else None


def _first_bad_list(values):
    """The index of the first of values that is no list of JSON integers,
    or None.  One set of element types clears a chunk of lists that holds
    nothing else."""
    if (all(type(v) is list for v in values)
            and set(map(type, itertools.chain.from_iterable(values))) <= {int}):
        return None
    return _first([type(v) is not list or not set(map(type, v)) <= {int} for v in values])


def _type_error(field, value, listed=False):
    """The refusal of a record field's value that is no JSON integer, or
    with listed no list of them.  A float, a bool, a string or null is
    bad input, refused rather than cast."""
    if listed and type(value) is list:
        i = next(i for i, v in enumerate(value) if type(v) is not int)
        return SkewValidationError("record field %r holds %s at index %d, not an integer"
                                   % (field, json.dumps(value[i]), i))
    return SkewValidationError("record field %r is %s, not %s"
                               % (field, json.dumps(value), "a list" if listed else "an integer"))


def write_jsonl(skews, path):
    """One record line per member of skews (a block or a member list), in
    lex_order; returns the record count."""
    block = as_block(skews)
    return write_records(path, block, lex_order(block))


def write_records(path, block, at, fields=("",), field_of=None):
    """Write the records of block's members at positions at, in that
    order, each as json.dumps writes skew_to_obj's dict with ", "
    separators, with the text fields[field_of[r]] (fields[0] when field_of
    is None) put in before the closing brace of member r.  Returns the
    record count.

    The one record formatter: a line is gathered from NUL-padded byte
    tables (the header of the member's order, "v, " per point of sigma and
    pi, the joint after each, and the tail by automorphism flag and field
    text), a chunk of lines at a time into a (rows, width) uint8 array,
    and one mask drops the padding.
    """
    with open(path, "wb") as fh:
        if not len(at):
            return 0
        p, n, N = block.p, block.n, block.images.shape[1]
        orders, order_of = np.unique(block.order, return_inverse=True)
        head, sigma_end, last, tail = _tables(
            [_HEAD % ((p, n, o) + _split_order(o, p)) for o in orders.tolist()],
            ['%d], "pi": [' % v for v in range(N)],
            ["%d" % v for v in range(N)],
            ['], "automorphism": %s%s}\n' % (json_bool(a), f)
             for f in fields for a in (False, True)])
        # "v, " as one 4- or 8-byte word per point: one flat take per row
        w = 4 if N <= 100 else 8
        point = np.array(["%d, " % v for v in range(N)], dtype="S%d" % w).view("u%d" % w)

        def points(rows):
            return point.take(rows).view(np.uint8).reshape(len(rows), -1)

        width = (head.shape[1] + (2 * N - 2) * w + sigma_end.shape[1] + last.shape[1]
                 + tail.shape[1])
        step = max(1, _WRITE_CHUNK // width)
        for a in range(0, len(at), step):
            r = at[a:a + step]
            images, pi = block.images[r], block.pi[r]
            kind = block.aut[r] + (0 if field_of is None else 2 * field_of[r])
            chunk = np.concatenate([
                head[order_of[r]], points(images[:, :-1]), sigma_end[images[:, -1]],
                points(pi[:, :-1]), last[pi[:, -1]], tail[kind]], axis=1)
            fh.write(chunk[chunk != 0].tobytes())
    return len(at)


_HEAD = '{"p": %d, "n": %d, "order": %d, "k": %d, "m": %d, "sigma": ['

# bytes in one chunk of write_records, glibc's default mmap threshold:
# a chunk's temporaries come and go without raising the threshold, which
# would leave more of the heap resident afterwards
_WRITE_CHUNK = 1 << 17


def _tables(*texts):
    """Each list of texts as a NUL-padded (len, width) uint8 table."""
    return [np.array(ts, dtype="S").view(np.uint8).reshape(len(ts), -1) for ts in texts]


# records in one chunk of read_jsonl: large enough that its passes cost
# little per record, small enough that a chunk's lists and arrays do not
# raise the peak RSS of a read
_READ_CHUNK = 1024


def read_jsonl(path):
    """The members of a JSONL file, one record a line, blank lines skipped.

    A chunk of _READ_CHUNK records at a time is decoded with one
    json.loads per line and checked by _parse_chunk.  The first refused
    line in file order is named, with its first failing check; a record
    whose (p, n) differs from the first record's is refused.
    """
    out = []
    with open(path) as fh:
        lines = ((no, line) for no, line in enumerate(map(str.strip, fh), 1) if line)
        while chunk := list(itertools.islice(lines, _READ_CHUNK)):
            objs, bad_json = [], None
            for line_no, line in chunk:
                try:
                    objs.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    bad_json = SkewValidationError("line %d: bad JSON (%s)" % (line_no, exc))
                    break
            members, failure = _parse_chunk(objs, (out[0].p, out[0].n) if out else None)
            if failure:
                i, exc = failure
                if not isinstance(exc, SkewValidationError):
                    raise exc
                raise SkewValidationError("line %d: %s" % (chunk[i][0], exc), status=exc.status,
                                          witness=exc.witness)
            if bad_json:
                raise bad_json
            out += members
    return out
