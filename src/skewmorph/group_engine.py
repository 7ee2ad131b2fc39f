"""Small concrete finite groups: closures, characteristic subgroups, extensions.

Elements are hashable python values; a Carrier bundles the multiplication,
inversion and identity for one representation (permutation tuples, affine
maps, normal-form pairs of an extension tower, plain integers mod m).
Groups are immutable once built and every query here is pure, so all of
this is safe to sweep in parallel from the callers.

Extensions by a cyclic group are given by the conjugation action of the
top generator on base generators, the way presentations state relations
like x^-1 b x = alpha(b) with x^t = c.  Elements are normal forms (b, j)
meaning b x^j, multiplied by

    (b1, j1)(b2, j2) = (b1 . alpha^(-j1)(b2) . c^q, r),  j1+j2 = q t + r.

build_extension refuses specs whose action fails to extend to an
automorphism or whose t-th power is not conjugation by c.
"""

import itertools
import math
from dataclasses import dataclass, field

from . import fpalg
from .fpalg import AffineMap, FpMatrix, FpVector

CLOSURE_CAP = 10 ** 5


class ClosureCapError(RuntimeError):
    pass


class Carrier:
    """Multiplication oracle shared by the elements of one representation."""

    __slots__ = ("mul", "inv", "identity", "name")

    def __init__(self, mul, inv, identity, name="carrier"):
        self.mul = mul
        self.inv = inv
        self.identity = identity
        self.name = name

    def __repr__(self):
        return "Carrier(%s)" % self.name


def cyclic_carrier(m):
    return Carrier(lambda a, b: (a + b) % m, lambda a: (-a) % m, 0, "Z_%d" % m)


def vector_carrier(p, n):
    def mul(a, b):
        return tuple((x + y) % p for x, y in zip(a, b))
    def inv(a):
        return tuple((-x) % p for x in a)
    return Carrier(mul, inv, (0,) * n, "Z_%d^%d" % (p, n))


def affine_carrier(p, n):
    return Carrier(lambda a, b: a * b, lambda a: a.inverse(),
                   AffineMap.identity(p, n), "AGL(%d,%d)" % (n, p))


class FiniteGroup:
    """Element list (deterministic order), hash set, generators, carrier."""

    __slots__ = ("carrier", "elements", "element_set", "generators")

    def __init__(self, carrier, elements, generators):
        self.carrier = carrier
        if not isinstance(elements, (list, tuple)):
            elements = sorted(elements, key=repr)
        self.elements = tuple(elements)
        self.element_set = frozenset(self.elements)
        self.generators = tuple(generators)
        if len(self.element_set) != len(self.elements):
            raise ValueError("duplicate elements")

    @classmethod
    def from_generators(cls, carrier, gens, cap=CLOSURE_CAP):
        elems = _close(carrier, gens, cap)
        return cls(carrier, elems, tuple(gens))

    @property
    def identity(self):
        return self.carrier.identity

    def mul(self, a, b):
        return self.carrier.mul(a, b)

    def inv(self, a):
        return self.carrier.inv(a)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self.element_set

    def __iter__(self):
        return iter(self.elements)

    def element_order(self, x):
        e = self.carrier.identity
        y = x
        o = 1
        while y != e:
            y = self.mul(y, x)
            o += 1
            if o > len(self.elements):
                raise ValueError("element order exceeds group order; not closed?")
        return o

    def power(self, x, e):
        if e < 0:
            x, e = self.inv(x), -e
        out = self.carrier.identity
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
        seen = {x}
        queue = [x]
        while queue:
            y = queue.pop()
            for g in self.generators:
                c = self.conj(y, g)
                if c not in seen:
                    seen.add(c)
                    queue.append(c)
        return frozenset(seen)

    def subgroup(self, gens, cap=CLOSURE_CAP):
        H = FiniteGroup.from_generators(self.carrier, gens, cap)
        if not H.element_set <= self.element_set:
            raise ValueError("generators leave the group")
        return H

    def is_abelian(self):
        for a in self.generators:
            for b in self.generators:
                if self.mul(a, b) != self.mul(b, a):
                    return False
        return True

    def __repr__(self):
        return "FiniteGroup(|G|=%d, %s)" % (len(self.elements), self.carrier.name)


def _close(carrier, gens, cap):
    gens = list(gens)
    elems = [carrier.identity]
    seen = {carrier.identity}
    queue = list(elems)
    for g in gens:
        if g not in seen:
            seen.add(g)
            elems.append(g)
            queue.append(g)
    while queue:
        x = queue.pop(0)
        for g in gens:
            y = carrier.mul(x, g)
            if y not in seen:
                if len(seen) >= cap:
                    raise ClosureCapError("closure exceeds cap %d" % cap)
                seen.add(y)
                elems.append(y)
                queue.append(y)
    return elems


def closure(carrier, gens, cap=CLOSURE_CAP):
    return FiniteGroup.from_generators(carrier, gens, cap)


def _require_subgroup(H, X):
    if H.carrier is not X.carrier:
        raise ValueError("carrier mismatch")
    if not H.element_set <= X.element_set:
        raise ValueError("H is not contained in X")


def is_normal(H, X):
    _require_subgroup(H, X)
    for h in H.generators:
        for g in X.generators:
            if X.conj(h, g) not in H.element_set:
                return False
    return True


def core(H, X):
    """Largest normal subgroup of X inside H, by shrinking to a fixpoint."""
    _require_subgroup(H, X)
    K = set(H.element_set)
    while True:
        K2 = {x for x in K if all(X.conj(x, g) in K for g in X.generators)}
        if K2 == K:
            break
        K = K2
    elems = [x for x in H.elements if x in K] if len(H.elements) else []
    return FiniteGroup(X.carrier, elems, tuple(elems))


def center(X):
    elems = [x for x in X.elements
             if all(X.mul(x, g) == X.mul(g, x) for g in X.generators)]
    return FiniteGroup(X.carrier, elems, tuple(elems))


def centralizer(X, S):
    S = tuple(S)
    elems = [x for x in X.elements
             if all(X.mul(x, s) == X.mul(s, x) for s in S)]
    return FiniteGroup(X.carrier, elems, tuple(elems))


def normalizer(X, H):
    _require_subgroup(H, X)
    elems = [x for x in X.elements
             if all(X.conj(h, x) in H.element_set for h in H.generators)]
    return FiniteGroup(X.carrier, elems, tuple(elems))


def normal_closure(X, seeds, cap=CLOSURE_CAP):
    gens = []
    for s in seeds:
        if s != X.identity and s not in gens:
            gens.append(s)
    H = FiniteGroup.from_generators(X.carrier, gens, cap) if gens else \
        FiniteGroup(X.carrier, [X.identity], ())
    while True:
        new = []
        for s in list(gens):
            for g in X.generators:
                c = X.conj(s, g)
                if c not in H.element_set:
                    new.append(c)
        if not new:
            return H
        gens.extend(new)
        H = FiniteGroup.from_generators(X.carrier, gens, cap)


def derived_subgroup(X):
    seeds = [X.commutator(a, b) for a in X.generators for b in X.generators]
    return normal_closure(X, seeds)


def is_metabelian(X):
    return derived_subgroup(X).is_abelian()


def prime_power_split(m):
    if m == 1:
        raise ValueError("trivial group has no defining prime")
    p = m
    for d in range(2, int(m ** 0.5) + 1):
        if m % d == 0:
            p = d
            break
    e = 0
    rest = m
    while rest % p == 0:
        rest //= p
        e += 1
    if rest != 1:
        raise ValueError("%d is not a prime power" % m)
    return p, e


def omega1_pgroup(P):
    p, _ = prime_power_split(len(P))
    gens = [x for x in P.elements if P.power(x, p) == P.identity]
    return FiniteGroup.from_generators(P.carrier, gens)


def frattini_pgroup(P):
    p, _ = prime_power_split(len(P))
    gens = list(derived_subgroup(P).elements)
    gens.extend(P.power(x, p) for x in P.elements)
    gens = [g for g in dict.fromkeys(gens) if g != P.identity]
    if not gens:
        return FiniteGroup(P.carrier, [P.identity], ())
    return FiniteGroup.from_generators(P.carrier, gens)


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
    for x in H.generators:
        if H.power(x, q) != H.identity:
            return None
    pairs = itertools.combinations(H.generators, 2)
    if not all(H.mul(a, b) == H.mul(b, a) for a, b in pairs):
        return None
    return r


def _infer_p(X, rank):
    sizes = set()
    m = len(X)
    for q in range(2, m + 1):
        if fpalg.is_prime(q) and m % (q ** rank) == 0:
            sizes.add(q)
    if len(sizes) != 1:
        raise ValueError("ambiguous prime, pass p explicitly (candidates %r)" % sorted(sizes))
    return sizes.pop()


def normal_elem_abelian_subgroups(X, rank, p=None, cap=CLOSURE_CAP):
    """All N normal in X with N elementary abelian of order p^rank.

    Search over joins of conjugacy classes of order-p elements; complete
    because such an N is generated by the classes of its own elements.
    """
    if len(X) > 5000:
        raise ValueError("group too large for the subgroup search")
    if p is None:
        p = _infer_p(X, rank)
    target = p ** rank
    classes = []
    seen = set()
    for x in X.elements:
        if x in seen or x == X.identity:
            continue
        if X.power(x, p) != X.identity:
            continue
        cl = X.conjugacy_class(x)
        seen |= cl
        classes.append(cl)

    def grow(elem_frozen):
        sub = FiniteGroup.from_generators(X.carrier, sorted(elem_frozen, key=repr), cap)
        return sub

    found = {}
    nodes = {}
    queue = []
    for cl in classes:
        H = grow(cl)
        key = H.element_set
        if elementary_abelian_rank(H, p) is None or len(H) > target:
            continue
        if key not in nodes:
            nodes[key] = H
            queue.append(H)
    while queue:
        H = queue.pop()
        if len(H) == target:
            found[H.element_set] = H
            continue
        for cl in classes:
            if cl <= H.element_set:
                continue
            J = grow(H.element_set | cl)
            if len(J) > target or elementary_abelian_rank(J, p) is None:
                continue
            key = J.element_set
            if key not in nodes:
                nodes[key] = J
                queue.append(J)
    out = sorted(found.values(), key=lambda H: sorted(map(repr, H.elements)))
    for N in out:
        assert is_normal(N, X)
    return out


def find_complement(X, N, pair_cap=10 ** 5):
    """A subgroup K with K ∩ N = 1 and |K||N| = |X|, or None.

    Tries cyclic K over all elements, then 2-generated K over elements
    whose orders divide |X|/|N|.  Complements of larger generating rank
    are out of scope and trip the cap instead of silently missing.
    """
    _require_subgroup(N, X)
    m = len(X) // len(N)
    if len(N) * m != len(X):
        raise ValueError("|N| does not divide |X|")
    if m == 1:
        return FiniteGroup(X.carrier, [X.identity], ())
    orders = {}
    for x in X.elements:
        if x == X.identity:
            continue
        o = X.element_order(x)
        if m % o:
            continue
        # any K through x needs <x> to miss N; a nontrivial intersection
        # would contain some prime-order power of x
        if any(X.power(x, o // q) in N.element_set for q in _prime_divs(o)):
            continue
        orders[x] = o
    for x, o in orders.items():
        if o != m:
            continue
        K = X.subgroup((x,))
        if len(K) == m and len(K.element_set & N.element_set) == 1:
            return K
    cands = list(orders)
    n_pairs = len(cands) * (len(cands) - 1) // 2
    if n_pairs > pair_cap:
        raise RuntimeError("complement pair search exceeds cap (%d pairs)" % n_pairs)
    for i, x in enumerate(cands):
        for y in cands[i + 1:]:
            try:
                K = FiniteGroup.from_generators(X.carrier, (x, y), cap=m)
            except ClosureCapError:
                continue
            if len(K) == m and len(K.element_set & N.element_set) == 1:
                return K
    return None


def _prime_divs(o):
    out = []
    d = 2
    while d * d <= o:
        if o % d == 0:
            out.append(d)
            while o % d == 0:
                o //= d
        d += 1
    if o > 1:
        out.append(o)
    return out


def has_complement(X, N):
    return find_complement(X, N) is not None


def quotient_group(X, N):
    """X/N for normal N.  Cosets are frozensets; returns (group, coset map).

    Multiplication picks an arbitrary representative, which is sound
    exactly because N is normal.
    """
    if not is_normal(N, X):
        raise ValueError("N is not normal in X")
    coset_of = {}
    cosets = []
    for x in X.elements:
        if x in coset_of:
            continue
        cs = frozenset(X.mul(x, n) for n in N.elements)
        for y in cs:
            coset_of[y] = cs
        cosets.append(cs)

    def mul(a, b):
        return coset_of[X.mul(next(iter(a)), next(iter(b)))]

    def inv(a):
        return coset_of[X.inv(next(iter(a)))]

    ident = coset_of[X.identity]
    carrier = Carrier(mul, inv, ident, "%s/N%d" % (X.carrier.name, len(N)))
    gens = tuple(dict.fromkeys(
        coset_of[g] for g in X.generators if coset_of[g] != ident))
    return FiniteGroup(carrier, cosets, gens), coset_of


# ---------------------------------------------------------------------------
# cyclic extensions from presentation-style data


@dataclass
class ExtensionSpec:
    base: FiniteGroup
    top_order: int
    action: dict = field(default_factory=dict)
    twist: object = None
    name: str = "extension"


def _extend_action(base, action):
    """Grow the generator action to all of the base along BFS factorizations."""
    alpha = {base.identity: base.identity}
    layer = [base.identity]
    for g in base.generators:
        if g not in action:
            raise ValueError("action missing generator %r" % (g,))
    while layer:
        fresh = []
        for x in layer:
            for g in base.generators:
                y = base.mul(x, g)
                if y not in alpha:
                    alpha[y] = base.mul(alpha[x], action[g])
                    fresh.append(y)
        layer = fresh
    if len(alpha) != len(base):
        raise ValueError("generators do not reach the whole base")
    # hom check on (element, generator) pairs proves the full property
    for x in base.elements:
        for g in base.generators:
            if alpha[base.mul(x, g)] != base.mul(alpha[x], action[g]):
                raise ValueError("action is not a homomorphism at (%r, %r)" % (x, g))
    if len(set(alpha.values())) != len(base):
        raise ValueError("action is not injective")
    return alpha


def build_extension(spec, assoc_samples=10 ** 5):
    base = spec.base
    t = spec.top_order
    if t < 1:
        raise ValueError("top order must be positive")
    c = spec.twist if spec.twist is not None else base.identity
    if c not in base.element_set:
        raise ValueError("twist element is not in the base")
    alpha = _extend_action(base, spec.action)
    if alpha[c] != c:
        raise ValueError("action must fix the twist element")
    ainv = {v: k for k, v in alpha.items()}

    apow = [{x: x for x in base.elements}]
    ipow = [{x: x for x in base.elements}]
    for _ in range(t):
        apow.append({x: alpha[apow[-1][x]] for x in base.elements})
        ipow.append({x: ainv[ipow[-1][x]] for x in base.elements})
    conj_c = {g: base.mul(base.mul(base.inv(c), g), c) for g in base.generators}
    for g in base.generators:
        if apow[t][g] != conj_c[g]:
            raise ValueError("t-th power of the action is not conjugation by the twist")

    c_inv = base.inv(c)

    def mul(u, v):
        b1, j1 = u
        b2, j2 = v
        q, r = divmod(j1 + j2, t)
        y = base.mul(b1, ipow[j1][b2])
        if q:
            y = base.mul(y, c)
        return (y, r)

    def inv(u):
        b, j = u
        if j == 0:
            return (base.inv(b), 0)
        return (base.mul(apow[j][base.inv(b)], c_inv), t - j)

    ident = (base.identity, 0)
    carrier = Carrier(mul, inv, ident, spec.name)
    elements = [(b, j) for b in base.elements for j in range(t)]
    gens = tuple((g, 0) for g in base.generators) + ((base.identity, 1),)
    X = FiniteGroup(carrier, elements, gens)
    _self_test(X, assoc_samples)
    return X


def _self_test(X, assoc_samples):
    import random
    e = X.identity
    for g in X.generators:
        assert X.mul(e, g) == g and X.mul(g, e) == g, "identity fails"
    for x in X.elements:
        assert X.mul(x, X.inv(x)) == e, "inverse fails at %r" % (x,)
    n = len(X)
    if n <= 200:
        triples = itertools.product(X.elements, repeat=3)
    else:
        rng = random.Random(0)
        triples = ((rng.choice(X.elements), rng.choice(X.elements), rng.choice(X.elements))
                   for _ in range(assoc_samples))
    for a, b, cc in triples:
        if X.mul(X.mul(a, b), cc) != X.mul(a, X.mul(b, cc)):
            raise AssertionError("associativity fails at (%r, %r, %r)" % (a, b, cc))


def cyclic_group(m):
    return FiniteGroup(cyclic_carrier(m), list(range(m)), (1 % m,) if m > 1 else ())


def elementary_abelian_group(p, n):
    carrier = vector_carrier(p, n)
    elements = [tuple(v) for v in itertools.product(range(p), repeat=n)]
    gens = tuple(tuple(1 if i == j else 0 for i in range(n)) for j in range(n))
    return FiniteGroup(carrier, elements, gens)


def metacyclic_group(p, n):
    """Z_{p^n} ⋊ Z_p with a^b = a^(1+p^(n-1)), the standard metacyclic p-group."""
    base = cyclic_group(p ** n)
    spec = ExtensionSpec(base, p, {1: (1 + p ** (n - 1)) % p ** n},
                         name="Z_%d:Z_%d" % (p ** n, p))
    return build_extension(spec)


# ---------------------------------------------------------------------------
# the three 729 / 54 / 4374 reference groups, built inner to outer


def example_e2():
    """X = <a,b,s | a^3=b^3=s^6=1, a^s=a^2 b, b^s=b^2>, with G = <a s^2, b>."""
    base = elementary_abelian_group(3, 2)
    a, b = base.generators
    spec = ExtensionSpec(base, 6, {a: (2, 1), b: (0, 2)}, name="Z_3^2:Z_6")
    X = build_extension(spec)
    a_, b_ = (a, 0), (b, 0)
    s = (base.identity, 1)
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
    inner_spec = ExtensionSpec(A, 9, {a1: (1, 0, 0), a2: (1, 1, 0), a3: (0, 1, 1)},
                               name="Z_3^3:Z_9")
    AC = build_extension(inner_spec)
    s_in = (A.identity, 1)
    # b fixes A pointwise and sends s to s^4 a_3
    s4a3 = AC.mul(AC.power(s_in, 4), ((0, 0, 1), 0))
    action = {(a1, 0): (a1, 0), (a2, 0): (a2, 0), (a3, 0): (a3, 0), s_in: s4a3}
    outer_spec = ExtensionSpec(AC, 3, action, name="(Z_3^3:Z_9):Z_3")
    X = build_extension(outer_spec)
    lift = lambda x: (x, 0)
    a1_, a2_, a3_ = lift((a1, 0)), lift((a2, 0)), lift((a3, 0))
    b_ = (AC.identity, 1)
    s = lift(s_in)
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
    inner_spec = ExtensionSpec(
        A, 18,
        {a1: (1, 1, 0, 0), a2: (0, 1, 1, 0), a3: (0, 0, 1, 0), a4: (0, 0, 0, 1)},
        name="Z_3^4:Z_18")
    AC = build_extension(inner_spec)
    s_in = (A.identity, 1)
    tgt = AC.mul(AC.power(s_in, 13), ((1, 1, 1, 0), 0))
    action = {(g, 0): (g, 0) for g in A.generators}
    action[s_in] = tgt
    outer_spec = ExtensionSpec(AC, 3, action, name="(Z_3^4:Z_18):Z_3")
    X = build_extension(outer_spec)
    lift = lambda x: (x, 0)
    a_gens = tuple(lift((g, 0)) for g in A.generators)
    a5_ = (AC.identity, 1)
    s = lift(s_in)
    G = X.subgroup(a_gens + (a5_,))
    s2 = X.mul(s, s)
    P = X.subgroup(G.generators + (s2,))
    return {"X": X, "G": G, "P": P, "sigma": s, "gens": a_gens + (a5_,),
            "p": 3, "n": 5}
