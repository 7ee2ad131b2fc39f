"""Small concrete finite groups: closures, characteristic subgroups, extensions.

Every group here is int-coded: a Carrier holds one multiplication and
inversion on the codes 0..size-1, with identity 0, that broadcast over
numpy index arrays and return python ints for python ints.  A
FiniteGroup is a subgroup of its carrier, held as its membership mask,
one read-only bool per carrier code, with its elements the sorted code
array read off that mask.  Groups are immutable once built and every
query here is pure.

The carriers built here are cyclic groups, F_p^n on its point indices
under the _kernels addition table, cyclic extensions of those and
quotients.  Each law is a chain of flat takes from tables built with
its carrier: split_tables splits a code b t + j into (b, j), and a sum
j1 + j2 < 2t into (q, r), and 2-D tables are read at row * width + col,
so no law divides.

Extensions by a cyclic group are given by the conjugation action of the
top generator on base generators, the way presentations state relations
like x^-1 b x = alpha(b) with x^t = c.  The element b t + j means b x^j,
and codes multiply by

    (b1, j1)(b2, j2) = (b1 . alpha^(-j1)(b2) . c^q, r),  j1+j2 = q t + r.

build_extension refuses data whose action fails to extend to an
automorphism or whose t-th power is not conjugation by c, and passes the
law it builds to check_group_law before returning the group.
check_group_law is the one group-law check for any int-coded law, the
skew products of skew_core among them: identity and two-sided inverses
on every code, and associativity on every triple up to 200 codes, on
10^5 triples above, drawn from splitmix64 once per process (1.2 MB,
read-only) and reduced to each law's codes by a multiply-high.

Every subgroup is closed by close_many, one array BFS over a batch of
generator rows, and is the mask it returns: FiniteGroup.from_generators
closes one row, the subgroup searches (normal elementary abelian
subgroups, complements) close their candidates in batches, normal
closures re-close one row until it is closed under conjugation, and the
action of an extension is extended from the generators by closing its
graph in base x base.
"""

import functools
import math

import numpy as np

from . import _kernels as K
from . import fpalg

CLOSURE_CAP = 10 ** 5


class ClosureCapError(RuntimeError):
    pass


class Carrier:
    """Multiplication and inversion of one int-coded group, on the codes
    0..size-1 with identity 0."""

    __slots__ = ("mul", "inv", "size", "name")

    def __init__(self, mul, inv, size, name="carrier"):
        self.mul = mul
        self.inv = inv
        self.size = size
        self.name = name

    def __len__(self):
        return self.size

    def __repr__(self):
        return "Carrier(%s)" % self.name


def cyclic_carrier(m):
    _, mod = split_tables(2 * m, m)
    return Carrier(lambda a, b: _code(mod.take(a + b)), lambda a: _code(mod.take(m - a)),
                   m, "Z_%d" % m)


def _code(x):
    # table lookups give numpy scalars for int keys; elements stay python ints
    return x if isinstance(x, np.ndarray) else int(x)


def _distinct(a):
    """The sorted distinct values of a, flattened, as np.unique gives them:
    a sort and the first of each run, since a plain 1-D np.unique call
    imports numpy.ma."""
    a = np.sort(a, axis=None)
    first = np.ones(a.size, dtype=bool)
    first[1:] = a[1:] != a[:-1]
    return a[first]


def split_tables(size, t):
    """(c // t, c % t) for every c < size, as int64 arrays: a law splits a
    code b t + j into (b, j), or a sum j1 + j2 < 2t into its (q, r), by
    .take from these instead of a division."""
    c = np.arange(size, dtype=np.int64)
    return c // t, c % t


def powers(mul, x, count):
    """x^0, x^1, ... as an int array, up to x^(count-1) or up to the last
    power before the identity, whichever comes first: by doubling, one
    product of all the powers so far per step."""
    pows, step = np.zeros(1, dtype=np.int64), x
    while len(pows) < count:
        new = mul(step, pows)
        back = np.flatnonzero(new == 0)
        if back.size:
            return np.concatenate([pows, new[:back[0]]])[:count]
        pows, step = np.concatenate([pows, new]), mul(step, step)
    return pows[:count]


class FiniteGroup:
    """A subgroup of an int-coded carrier: its read-only membership mask,
    one bool per carrier code, its elements as the sorted code array read
    off the mask, and its generators."""

    __slots__ = ("carrier", "mask", "elements", "generators")
    identity = 0

    def __init__(self, carrier, mask, generators):
        # a list of codes would be read as a mask, code 0 as False
        if not (isinstance(mask, np.ndarray) and mask.dtype == bool
                and mask.shape == (len(carrier),)):
            raise ValueError("a subgroup is a bool mask of length %d" % len(carrier))
        self.carrier = carrier
        self.mask = mask.view()
        self.mask.flags.writeable = False
        self.elements = np.flatnonzero(mask)
        self.elements.flags.writeable = False
        self.generators = tuple(generators)

    @classmethod
    def whole(cls, carrier, generators):
        """The group of all of the carrier's codes."""
        return cls(carrier, np.ones(len(carrier), dtype=bool), generators)

    @classmethod
    def from_generators(cls, carrier, gens, cap=CLOSURE_CAP):
        gens = tuple(gens)
        mask, over = close_many(carrier, [gens], cap)
        if over[0]:
            raise ClosureCapError("closure exceeds cap %d" % cap)
        return cls(carrier, mask[0], gens)

    def mul(self, a, b):
        return self.carrier.mul(a, b)

    def inv(self, a):
        return self.carrier.inv(a)

    def __len__(self):
        return len(self.elements)

    def __le__(self, other):
        """Whether every element lies in other, a group on the same carrier."""
        return not (self.mask > other.mask).any()

    def cycle(self, x):
        """x^0 .. x^(o-1), o the order of x, as an int array."""
        pows = powers(self.mul, x, len(self) + 1)
        if len(pows) > len(self):
            raise ValueError("element order exceeds group order; not closed?")
        return pows

    def element_order(self, x):
        return len(self.cycle(x))

    def power(self, x, e):
        """x^e by doubling, for a code or an array of codes."""
        if e < 0:
            x, e = self.inv(x), -e
        out = 0
        while e:
            if e & 1:
                out = self.mul(out, x)
            x = self.mul(x, x)
            e >>= 1
        return out

    def conj(self, x, g):
        # x^g = g^-1 x g
        return self.mul(self.mul(self.inv(g), x), g)

    def commutator(self, a, b):
        return self.mul(self.mul(self.inv(a), self.inv(b)), self.mul(a, b))

    def conjugacy_class(self, x):
        """The conjugates of x, as a sorted int array: one product over
        all of the group's elements."""
        return _distinct(self.conj(x, self.elements))

    def subgroup(self, gens):
        H = FiniteGroup.from_generators(self.carrier, gens)
        if not H <= self:
            raise ValueError("generators leave the group")
        return H

    def is_abelian(self):
        g = np.array(self.generators, dtype=np.int64)
        return bool((self.mul(g[:, None], g) == self.mul(g, g[:, None])).all())

    def __repr__(self):
        return "FiniteGroup(|G|=%d, %s)" % (len(self), self.carrier.name)


# mask cells per close_many call of the subgroup searches; larger chunks
# gain no speed on e1 and raise peak memory
CLOSE_CELLS = 1 << 18


def close_many(X, gens, cap):
    """Membership masks of the subgroups generated by the rows of gens.

    X is an int-coded law: a carrier, or any group on all of its codes,
    with len(X) codes, identity 0 and a mul that broadcasts.  gens is a
    (B, w) array of codes; a shorter row is padded with the identity,
    which leaves its subgroup as it is.  One BFS layer is one product of
    every row's frontier by that row's generators.  Returns the (B, |X|)
    masks and a (B,) flag for the rows whose subgroup has more than cap
    elements; such a row stops growing there, so its mask is partial.
    A code outside 0..len(X)-1 is refused with ValueError: the laws read
    their tables by .take, which would wrap a negative code.
    """
    gens = np.asarray(gens, dtype=np.int64)
    B, n = len(gens), len(X)
    outside = (gens < 0) | (gens >= n)
    if outside.any():
        raise ValueError("generator code %d is outside 0..%d" % (gens[outside][0], n - 1))
    mask = np.zeros((B, n), dtype=bool)
    mask[:, 0] = True
    flat = mask.reshape(-1)
    size = np.ones(B, dtype=np.int64)
    rows = np.arange(B)
    frontier = np.zeros(B, dtype=np.int64)
    while rows.size:
        codes = (rows[:, None] * n + X.mul(frontier[:, None], gens[rows])).ravel()
        codes = _distinct(codes[~flat[codes]])
        flat[codes] = True
        rows, frontier = np.divmod(codes, n)
        size += np.bincount(rows, minlength=B)
        live = size[rows] <= cap
        rows, frontier = rows[live], frontier[live]
    return mask, size > cap


def _close_chunks(X, rows, cap):
    """(offset, masks, over) of close_many over consecutive chunks of
    rows, each of at most CLOSE_CELLS mask cells."""
    step = max(1, CLOSE_CELLS // len(X))
    for a in range(0, len(rows), step):
        yield (a,) + close_many(X, rows[a:a + step], cap)


def _elementary_rows(X, rows, p):
    """Per row of codes: every entry has x^p = e and the entries commute
    pairwise, as elementary_abelian_rank asks of a group's generators."""
    power = rows
    for _ in range(p - 1):
        power = X.mul(power, rows)
    a, b = rows[:, :, None], rows[:, None, :]
    return (power == 0).all(axis=1) & (X.mul(a, b) == X.mul(b, a)).all(axis=(1, 2))


def _require_subgroup(H, X):
    if H.carrier is not X.carrier:
        raise ValueError("carrier mismatch")
    if not H <= X:
        raise ValueError("H is not contained in X")


def is_normal(H, X):
    """Whether the conjugates of H's generators by X's all lie in H: one
    product over every pair."""
    _require_subgroup(H, X)
    h = np.array(H.generators, dtype=np.int64)
    return bool(H.mask[X.conj(h[:, None], np.array(X.generators, dtype=np.int64))].all())


def _spanned(C, elems):
    """The subgroup of the carrier C spanned by the codes elems: each one
    that lies outside the span of those before it joins the generators."""
    gens, span = [], np.zeros(len(C), dtype=bool)
    span[0] = True
    for x in elems:
        if not span[x]:
            gens.append(int(x))
            span = close_many(C, [gens], len(C))[0][0]
    return FiniteGroup(C, span, gens)


def core(H, X):
    """Largest normal subgroup of X inside H, by shrinking to a fixpoint."""
    _require_subgroup(H, X)
    keep = H.mask.copy()
    gens = np.array(X.generators, dtype=np.int64)
    while True:
        ks = np.flatnonzero(keep)
        out = ~keep[X.conj(ks[:, None], gens)].all(axis=1)
        if not out.any():
            return _spanned(X.carrier, ks)
        keep[ks[out]] = False


def centralizer(X, S):
    e = X.elements
    s = np.array(tuple(S), dtype=np.int64)
    return _spanned(X.carrier, e[(X.mul(e[:, None], s) == X.mul(s, e[:, None])).all(axis=1)])


def derived_is_abelian(X, gens):
    """Whether the derived subgroup of the int-coded group <gens> is abelian.

    X' is the normal closure of the commutators of the generators: the
    conjugates of each of its generators by gens join them until they all
    lie in the subgroup, which close_many closes anew after each addition.
    It is abelian exactly when its generators commute.
    """
    gens = np.asarray(gens, dtype=np.int64)
    ginv = X.inv(gens)
    comms = X.mul(X.mul(ginv[:, None], ginv[None, :]), X.mul(gens[:, None], gens[None, :]))
    d = [c for c in sorted(set(comms.ravel().tolist())) if c != 0]
    mask = close_many(X, [d], len(X))[0][0]
    for x in d:  # the loop also visits the generators it appends
        for c in X.mul(X.mul(ginv, x), gens).tolist():
            if not mask[c]:
                d.append(c)
                mask = close_many(X, [d], len(X))[0][0]
    d = np.array(d, dtype=np.int64)
    return bool((X.mul(d[:, None], d[None, :]) == X.mul(d[None, :], d[:, None])).all())


def is_metabelian(X):
    return derived_is_abelian(X.carrier, X.generators)


def prime_power_split(m):
    """(p, e) with m = p**e, e >= 1."""
    if m == 1:
        raise ValueError("trivial group has no defining prime")
    divs = fpalg.prime_divisors(m)
    if len(divs) != 1:
        raise ValueError("%d is not a prime power" % m)
    p, e = divs[0], 1
    while p ** e < m:
        e += 1
    return p, e


def omega1_pgroup(P):
    """The subgroup generated by the elements of order p, spanned
    greedily in element order by _spanned."""
    p, _ = prime_power_split(len(P))
    e = P.elements
    return _spanned(P.carrier, e[P.power(e, p) == 0])


# ---------------------------------------------------------------------------
# commutator words


def left_normed_commutator(X, elems):
    elems = list(elems)
    if len(elems) < 2:
        raise ValueError("need at least two entries")
    c = X.commutator(elems[0], elems[1])
    for x in elems[2:]:
        c = X.commutator(c, x)
    return c


def iterated_commutator(X, a, b, i, j):
    """[ia, jb] = [a, b, a (i-1 times), b (j-1 times)], left-normed."""
    if i < 1 or j < 1:
        raise ValueError("i, j must be positive")
    word = [a, b] + [a] * (i - 1) + [b] * (j - 1)
    return left_normed_commutator(X, word)


def metabelian_identity_check(X, a, b, n, assume_metabelian=False):
    """(ab^-1)^n = a^n (prod_{i+j<=n} [ia,jb]^C(n,i+j)) b^-n, n >= 1.

    The factors all lie in the abelian derived subgroup, so their order
    does not matter.  Refuses groups that are not metabelian; callers
    looping many triples over one X can pass assume_metabelian after
    checking once.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not assume_metabelian and not is_metabelian(X):
        raise ValueError("group is not metabelian")
    lhs = X.power(X.mul(a, X.inv(b)), n)
    rhs = X.power(a, n)
    for i in range(1, n + 1):
        for j in range(1, n + 1 - i):
            c = iterated_commutator(X, a, b, i, j)
            rhs = X.mul(rhs, X.power(c, math.comb(n, i + j)))
    rhs = X.mul(rhs, X.power(X.inv(b), n))
    return lhs == rhs


# ---------------------------------------------------------------------------
# elementary abelian normal subgroups and complements


def elementary_abelian_rank(H, p=None):
    """Rank r when H is elementary abelian of order p^r, else None."""
    m = len(H)
    if m == 1:
        return 0
    try:
        q, r = prime_power_split(m)
    except ValueError:
        return None
    if p is not None and q != p:
        return None
    if not _elementary_rows(H.carrier, np.array([H.generators], dtype=np.int64), q)[0]:
        return None
    return r


def normal_elem_abelian_subgroups(X, rank, p):
    """All N normal in X with N elementary abelian of order p^rank.

    Search over joins of conjugacy classes of order-p elements; complete
    because such an N is generated by the classes of its own elements.
    A join is generated by the generators of its smaller part plus the
    new class elements.  The first level and each node's joins are closed
    in one close_many call, capped at p^rank, and tested elementary
    abelian on their generator rows; they are walked in class order, and
    each N found is returned as the mask it was closed to.
    """
    if len(X) > 5000:
        raise ValueError("group too large for the subgroup search")
    C = X.carrier
    target = p ** rank
    e = X.elements
    classes = []
    seen = np.zeros(len(C), dtype=bool)
    seen[0] = True
    for x in e[X.power(e, p) == 0].tolist():
        if not seen[x]:
            cl = X.conjugacy_class(x)
            seen[cl] = True
            classes.append(cl)
    sizes = p ** np.arange(rank + 1)

    nodes = set()
    queue = []

    def visit(joins):
        # short rows are padded with the identity 0
        rows = np.zeros((len(joins), max(map(len, joins), default=0)), dtype=np.int64)
        for r, gens in enumerate(joins):
            rows[r, :len(gens)] = gens
        for a, masks, over in _close_chunks(C, rows, target):
            size = masks.sum(axis=1)
            ok = ~over & np.isin(size, sizes) & _elementary_rows(C, rows[a:a + len(masks)], p)
            for i in np.flatnonzero(ok):
                key = masks[i].tobytes()
                if key not in nodes:
                    nodes.add(key)
                    queue.append((joins[a + i], masks[i].copy(), size[i]))

    found = []
    visit([tuple(cl.tolist()) for cl in classes])
    while queue:
        gens, mask, size = queue.pop()
        if size == target:
            found.append(FiniteGroup(C, mask, gens))
            continue
        visit([gens + tuple(cl[~mask[cl]].tolist()) for cl in classes if not mask[cl].all()])
    found.sort(key=lambda N: N.elements.tolist())
    for N in found:
        assert is_normal(N, X)
    return found


COMPLEMENT_PAIR_CAP = 10 ** 5


def find_complement(X, N):
    """A subgroup K with K ∩ N = 1 and |K||N| = |X|, or None.

    Tries cyclic K over all elements, then 2-generated K over elements
    whose orders divide |X|/|N|, pairs in (i < j) order.  Complements of
    larger generating rank are out of scope and trip the cap instead of
    silently missing.  The candidates are closed in chunks by close_many
    and only the first accepted K is built as a FiniteGroup.
    """
    _require_subgroup(N, X)
    m = len(X) // len(N)
    if len(N) * m != len(X):
        raise ValueError("|N| does not divide |X|")
    if m == 1:
        return FiniteGroup.from_generators(X.carrier, ())
    C = X.carrier
    e = X.elements[1:]
    n_codes = N.elements

    # any K through x needs <x> to miss N and its order to divide m
    cands = []
    for a, masks, over in _close_chunks(C, e[:, None], m):
        size = masks.sum(axis=1)
        keep = ~over & (m % size == 0) & (np.count_nonzero(masks[:, n_codes], axis=1) == 1)
        cands += e[a + np.flatnonzero(keep)].tolist()
        cyclic = np.flatnonzero(keep & (size == m))
        if cyclic.size:
            return X.subgroup((int(e[a + cyclic[0]]),))
    n_pairs = len(cands) * (len(cands) - 1) // 2
    if n_pairs > COMPLEMENT_PAIR_CAP:
        raise RuntimeError("complement pair search exceeds cap (%d pairs)" % n_pairs)
    rows = np.array(cands, dtype=np.int64)[np.stack(np.triu_indices(len(cands), 1), axis=1)]
    for a, masks, over in _close_chunks(C, rows, m):
        hit = ~over & (masks.sum(axis=1) == m) & (np.count_nonzero(masks[:, n_codes], axis=1) == 1)
        if hit.any():
            return FiniteGroup.from_generators(C, rows[a + np.argmax(hit)].tolist(), cap=m)
    return None


def has_complement(X, N):
    return find_complement(X, N) is not None


def quotient_group(X, N):
    """X/N for normal N; returns (group, cmap).

    The cosets are coded 0..|X/N|-1 in the order of their smallest
    elements, and cmap is an int array over the codes of X's carrier that
    maps each element of X to its coset (-1 outside X).  Multiplication
    picks the smallest element of each coset, which is sound exactly
    because N is normal.
    """
    if not is_normal(N, X):
        raise ValueError("N is not normal in X")
    e = X.elements
    low = X.mul(e[:, None], N.elements).min(axis=1)
    reps = _distinct(low)
    cmap = np.full(len(X.carrier), -1, dtype=np.int64)
    cmap[e] = np.searchsorted(reps, low)

    def mul(a, b):
        return _code(cmap.take(X.mul(reps.take(a), reps.take(b))))

    def inv(a):
        return _code(cmap.take(X.inv(reps.take(a))))

    carrier = Carrier(mul, inv, len(reps), "%s/N%d" % (X.carrier.name, len(N)))
    gens = tuple(dict.fromkeys(c for c in cmap[list(X.generators)].tolist() if c))
    return FiniteGroup.whole(carrier, gens), cmap


# ---------------------------------------------------------------------------
# cyclic extensions from presentation-style data


def _extend_action(base, action):
    """The generator action on all of the base, as an index array alpha.

    The graph of the action on the generators is closed in base x base,
    coded b1 w + b2 with w the least power of two >= |B|, by one
    close_many call capped at |B|.  It is the graph of a homomorphism
    exactly when no point has two images (over the cap some point has),
    and its pairs are then (b, alpha(b)) in order of b.  The law splits a
    code by shift and mask: split tables over |B| w codes would outweigh
    the graph's own mask.
    """
    n = len(base)
    for g in base.generators:
        if g not in action:
            raise ValueError("action missing generator %r" % (g,))
        if not 0 <= action[g] < n:
            raise ValueError("action sends %r outside the base" % (g,))
    s = (n - 1).bit_length()
    low = (1 << s) - 1

    def mul(u, v):
        return base.mul(u >> s, v >> s) << s | base.mul(u & low, v & low)

    graph = [[g << s | action[g] for g in base.generators]]
    pairs = np.flatnonzero(close_many(Carrier(mul, None, n << s, "graph"), graph, n)[0][0])
    first, alpha = pairs >> s, pairs & low
    twice = first[1:] == first[:-1]
    if twice.any():
        raise ValueError("action is not a homomorphism at %d" % first[np.argmax(twice)])
    if first.size < n:
        raise ValueError("generators do not reach the whole base")
    if _distinct(alpha).size != n:
        raise ValueError("action is not injective")
    return alpha


def build_extension(base, top_order, action, twist=None, name="extension"):
    """The cyclic extension of base by x of order top_order with
    x^-1 b x = action[b] on the base generators and x^top_order = twist
    (default the identity), checked by check_group_law before it is
    returned."""
    t = top_order
    if t < 1:
        raise ValueError("top order must be positive")
    nb = len(base)
    if not base.mask.all():
        raise ValueError("the base must be all of its carrier: elements 0..|B|-1")
    c = twist if twist is not None else 0
    if not 0 <= c < nb:
        raise ValueError("twist element is not in the base")
    alpha = _extend_action(base, action)
    if alpha[c] != c:
        raise ValueError("action must fix the twist element")

    # apow[j] = alpha^j and ipow[j] = alpha^-j, as index arrays
    apow = K.power_rows(alpha, t + 1)
    gens = np.array(base.generators, dtype=np.int64)
    conj_c = base.mul(base.mul(base.inv(c), gens), c)
    if (apow[t, gens] != conj_c).any():
        raise ValueError("t-th power of the action is not conjugation by the twist")
    apow = apow[:t]
    ipow = np.argsort(apow, axis=1)
    # twist[q] is y -> y c^q; wrap[j] is y -> alpha^j(y) c^-1 for j > 0
    # and the identity for j = 0, so neither law branches on its input;
    # the laws read these (rows, nb) tables flat, at row * nb + y
    twist = np.stack([apow[0], base.mul(apow[0], c)]).ravel()
    wrap = base.mul(apow, base.inv(c))
    wrap[0] = apow[0]
    wrap, ipow = wrap.ravel(), ipow.ravel()
    # a code b t + j splits into (hi, lo) = (b, j), and j1 + j2 into (q, r)
    hi, lo = split_tables(nb * t, t)
    q, r = split_tables(2 * t, t)

    def mul(u, v):
        j1 = lo.take(u)
        j = j1 + lo.take(v)
        y = base.mul(hi.take(u), ipow.take(j1 * nb + hi.take(v)))
        return _code(twist.take(q.take(j) * nb + y) * t + r.take(j))

    # (b x^j)^-1 = alpha^j(b^-1) c^-1 x^(t-j) for j > 0
    def inv(u):
        j = lo.take(u)
        return _code(wrap.take(j * nb + base.inv(hi.take(u))) * t + r.take(t - j))

    carrier = Carrier(mul, inv, nb * t, name)
    gens = tuple(g * t for g in base.generators) + (1 % t,)
    X = FiniteGroup.whole(carrier, gens)
    check_group_law(X)
    return X


# seeded triples per pass of check_group_law, and table products per pass
# of its every-triple check: 2^18 of those would no longer stay in cache
ASSOC_CHUNK = 10 ** 4
ASSOC_CELLS = 1 << 15


@functools.lru_cache(maxsize=1)
def _assoc_draws():
    """check_group_law's draws, built on first use for every later check:
    the high halves of splitmix64 outputs 1 .. 3 * 10^5 seeded at 0, one
    chunk at a time, as a read-only (10, 3, ASSOC_CHUNK) uint32 array of
    1.2 MB.  numpy.random is not used: its import adds about 5 MB RSS."""
    draws = np.empty((10 ** 5 // ASSOC_CHUNK, 3, ASSOC_CHUNK), dtype=np.uint32)
    for k, d in enumerate(draws):
        d[...] = (K.splitmix64(1 + k * d.size, d.size) >> np.uint64(32)).reshape(d.shape)
    draws.flags.writeable = False
    return draws


def _assoc_triples(n):
    """Per chunk, the codes x, y, z in [0, n) as a (3, ASSOC_CHUNK) int64
    array: each draw d gives d n >> 32, the multiply-high of Lemire (ACM
    TOMACS 2019), exact in uint64 and biased by at most n / 2^32 for any
    n < 2^32, which no carrier nears, since its check builds arange(n)."""
    for d in _assoc_draws():
        # in place on one uint64 copy: d * np.uint64(n) takes numpy's
        # casting loop, about four times slower
        codes = d.astype(np.uint64)
        codes *= np.uint64(n)
        codes >>= np.uint64(32)
        yield codes.view(np.int64)


def check_group_law(X):
    """Raise AssertionError unless the int-coded law X is a group.

    X has len(X) codes with identity 0 and a mul and inv that broadcast,
    the contract of close_many.  The check runs in this order: the
    identity on every code, both sides; associativity on every triple
    when len(X) <= 200, through the table T of mul, else on 10^5
    near-uniform triples, the draws of _assoc_draws that every law shares
    reduced to its codes by _assoc_triples, in chunks, so no len(X)^2
    array is built; two-sided inverses on every code.  Up to 200 codes
    these imply that every row of the law is a permutation.  Above 200
    that is not checked row by row, which would take len(X)^2 products.
    """
    n = len(X)
    ids = np.arange(n, dtype=np.int64)
    if (X.mul(0, ids) != ids).any() or (X.mul(ids, 0) != ids).any():
        raise AssertionError("identity fails")
    if n <= 200:
        # T[T[x, y], z] against T[x, T[y, z]], for a block of rows x at a time
        T = X.mul(ids[:, None], ids)
        step = max(1, ASSOC_CELLS // (n * n))
        for a in range(0, n, step):
            bad = T[T[a:a + step]] != np.take(T[a:a + step], T, axis=1)
            if bad.any():
                x, y, z = np.unravel_index(np.argmax(bad), bad.shape)
                raise AssertionError("associativity fails at (%d, %d, %d)" % (a + x, y, z))
    else:
        for x, y, z in _assoc_triples(n):
            bad = X.mul(X.mul(x, y), z) != X.mul(x, X.mul(y, z))
            if bad.any():
                i = np.argmax(bad)
                raise AssertionError("associativity fails at (%d, %d, %d)" % (x[i], y[i], z[i]))
    inv = X.inv(ids)
    bad = (X.mul(ids, inv) != 0) | (X.mul(inv, ids) != 0)
    if bad.any():
        raise AssertionError("inverse fails at %d" % np.argmax(bad))


def cyclic_group(m):
    return FiniteGroup.whole(cyclic_carrier(m), (1 % m,) if m > 1 else ())


def elementary_abelian_group(p, n):
    """F_p^n on its point indices, big-endian as in _kernels.index_vectors;
    the generators are the basis vectors."""
    N = p ** n
    add, _, neg = (tab.astype(np.int64).ravel() for tab in K.index_tables(p, n))
    carrier = Carrier(lambda a, b: _code(add.take(a * N + b)), lambda a: _code(neg.take(a)),
                      N, "Z_%d^%d" % (p, n))
    return FiniteGroup.whole(carrier, tuple(p ** (n - 1 - j) for j in range(n)))


def metacyclic_group(p, n):
    """Z_{p^n} ⋊ Z_p with a^b = a^(1+p^(n-1)), the standard metacyclic p-group."""
    base = cyclic_group(p ** n)
    return build_extension(base, p, {1: (1 + p ** (n - 1)) % p ** n},
                           name="Z_%d:Z_%d" % (p ** n, p))


# ---------------------------------------------------------------------------
# the three 729 / 54 / 4374 reference groups, built inner to outer; the
# generators of an extension are the base generators, then the top one


def example_e2():
    """X = <a,b,s | a^3=b^3=s^6=1, a^s=a^2 b, b^s=b^2>, with G = <a s^2, b>."""
    base = elementary_abelian_group(3, 2)
    a, b = base.generators
    action = {a: base.mul(base.mul(a, a), b), b: base.mul(b, b)}
    X = build_extension(base, 6, action, name="Z_3^2:Z_6")
    a_, b_, s = X.generators
    s2 = X.mul(s, s)
    g1 = X.mul(a_, s2)
    G = X.subgroup((g1, b_))
    P = X.subgroup((a_, b_, s2))
    return {"X": X, "G": G, "P": P, "sigma": s, "gens": (g1, b_),
            "A": base, "p": 3, "n": 2}


def example_e1():
    """(A ⋊ <s>) ⋊ <b> of order 729: A = Z_3^3, s^9 = 1 acting through
    a_1 -> a_1, a_2 -> a_1 a_2, a_3 -> a_2 a_3, and s^b = s^4 a_3."""
    A = elementary_abelian_group(3, 3)
    a1, a2, a3 = A.generators
    AC = build_extension(A, 9, {a1: a1, a2: A.mul(a1, a2), a3: A.mul(a2, a3)},
                         name="Z_3^3:Z_9")
    *a_in, s_in = AC.generators
    # b fixes A pointwise and sends s to s^4 a_3
    action = {a: a for a in a_in}
    action[s_in] = AC.mul(AC.power(s_in, 4), a_in[2])
    X = build_extension(AC, 3, action, name="(Z_3^3:Z_9):Z_3")
    a1_, a2_, a3_, s, b_ = X.generators
    G = X.subgroup((a1_, a2_, a3_, b_))
    z = X.power(s, 3)
    return {"X": X, "G": G, "P": X, "sigma": s, "gens": (a1_, a2_, a3_, b_),
            "A": X.subgroup((a1_, a2_, a3_)), "z": z, "p": 3, "n": 4}


def example_e3():
    """Order 4374: Z_3^5 extended by s of order 18, with a_5 twisting s.

    Relations: a1^s = a1 a2, a2^s = a2 a3, a3^s = a3, a4^s = a4,
    s^(a5) = s^13 a1 a2 a3.
    """
    A = elementary_abelian_group(3, 4)
    a1, a2, a3, a4 = A.generators
    AC = build_extension(A, 18, {a1: A.mul(a1, a2), a2: A.mul(a2, a3), a3: a3, a4: a4},
                         name="Z_3^4:Z_18")
    *a_in, s_in = AC.generators
    action = {a: a for a in a_in}
    a123 = AC.mul(AC.mul(a_in[0], a_in[1]), a_in[2])
    action[s_in] = AC.mul(AC.power(s_in, 13), a123)
    X = build_extension(AC, 3, action, name="(Z_3^4:Z_18):Z_3")
    *a_gens, s, a5_ = X.generators
    a_gens = tuple(a_gens)
    G = X.subgroup(a_gens + (a5_,))
    s2 = X.mul(s, s)
    P = X.subgroup(G.generators + (s2,))
    return {"X": X, "G": G, "P": P, "sigma": s, "gens": a_gens + (a5_,),
            "p": 3, "n": 5}
