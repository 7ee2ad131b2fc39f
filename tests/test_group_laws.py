"""The int-coded group laws against their division-based references.

Every law of group_engine and skew_core splits its codes by .take from
split tables built with the carrier.  The references here are the same
laws written with divmod and 2-D indexing, one table lookup per pair,
with their tables built again from the group's data.  Each law is
compared with its reference on every pair of codes when there are at
most PAIRS_ALL pairs, else on PAIRS_SEEDED seeded pairs, and inv on
every code.
"""

import numpy as np
import pytest

from skewmorph import _kernels as K
from skewmorph import group_engine as ge
from skewmorph import skew_core as sc

PAIRS_ALL = 10 ** 5
PAIRS_SEEDED = 10 ** 4


def _pairs(n, seed):
    if n * n <= PAIRS_ALL:
        u = np.arange(n)
        return np.repeat(u, n), np.tile(u, n)
    rng = np.random.default_rng(seed)
    return rng.integers(0, n, PAIRS_SEEDED), rng.integers(0, n, PAIRS_SEEDED)


def _assert_same_law(law, ref, n, seed=0):
    a, b = _pairs(n, seed)
    assert np.array_equal(law.mul(a, b), ref.mul(a, b))
    ids = np.arange(n)
    assert np.array_equal(law.inv(ids), ref.inv(ids))
    # python ints in, python ints out
    for x, y in zip(a[-4:].tolist(), b[-4:].tolist()):
        c, xi = law.mul(x, y), law.inv(x)
        assert type(c) is int and type(xi) is int
        assert c == ref.mul(x, y) and xi == ref.inv(x)


# ---------------------------------------------------------------------------
# references: the laws as divmod and 2-D indexing


def _ref_cyclic(m):
    return ge.Carrier(lambda a, b: (a + b) % m, lambda a: (-a) % m, m)


def _ref_elementary(p, n):
    add, _, neg = (t.astype(np.int64) for t in K.index_tables(p, n))
    return ge.Carrier(lambda a, b: add[a, b], lambda a: neg[a], p ** n)


def _ref_graph(ref_base, n):
    """The law of base x base on the codes b1 n + b2."""
    def mul(u, v):
        (u1, u2), (v1, v2) = divmod(u, n), divmod(v, n)
        return ref_base.mul(u1, v1) * n + ref_base.mul(u2, v2)
    return ge.Carrier(mul, None, n * n)


def _ref_extension(ref_base, base, t, action, twist):
    nb = len(base)
    graph = [[g * nb + action[g] for g in base.generators]]
    pairs = ge.close_many(_ref_graph(ref_base, nb), graph, nb)[0][0]
    first, alpha = divmod(np.flatnonzero(pairs), nb)
    assert np.array_equal(first, np.arange(nb))
    c = twist if twist is not None else 0
    apow = np.empty((t, nb), dtype=np.int64)
    apow[0] = np.arange(nb)
    for j in range(1, t):
        apow[j] = alpha[apow[j - 1]]
    ipow = np.argsort(apow, axis=1)
    tw = np.stack([apow[0], ref_base.mul(apow[0], c)])
    wrap = ref_base.mul(apow, ref_base.inv(c))
    wrap[0] = apow[0]

    def mul(u, v):
        b1, j1 = divmod(u, t)
        b2, j2 = divmod(v, t)
        q, r = divmod(j1 + j2, t)
        return tw[q, ref_base.mul(b1, ipow[j1, b2])] * t + r

    def inv(u):
        b, j = divmod(u, t)
        return wrap[j, ref_base.inv(b)] * t + (-j) % t

    return ge.Carrier(mul, inv, nb * t)


def _ref_quotient(X, N):
    e = X.elements
    low = X.mul(e[:, None], N.elements).min(axis=1)
    reps = np.unique(low)
    cmap = np.full(len(X.carrier), -1, dtype=np.int64)
    cmap[e] = np.searchsorted(reps, low)
    return ge.Carrier(lambda a, b: cmap[X.mul(reps[a], reps[b])],
                      lambda a: cmap[X.inv(reps[a])], len(reps))


def _ref_skew_product(sk):
    o = sk.order
    add, _, neg = (t.astype(np.int64) for t in K.index_tables(sk.p, sk.n))
    S = sk.power_table().astype(np.int64)
    PS = sc.power_sums(sk.pi, S, o).astype(np.int64)

    def mul(a, b):
        ga, ia = divmod(a, o)
        gb, ib = divmod(b, o)
        return add[ga, S[ia, gb]] * o + (PS[ia, gb] + ib) % o

    def inv(a):
        ga, ia = divmod(a, o)
        gb = S[-ia % o, neg[ga]]
        return gb * o + -PS[ia, gb] % o

    return ge.Carrier(mul, inv, sk.N * o)


# ---------------------------------------------------------------------------
# group_engine: every carrier built on the way to e1-e3 and metacyclic(3, 2)


@pytest.fixture
def built(monkeypatch):
    """Records each carrier the constructors build, with its reference law,
    and each extension's graph carrier with its base's reference law."""
    refs, graphs, closed = {}, [], []
    real_ea, real_cyc = ge.elementary_abelian_group, ge.cyclic_carrier
    real_ext, real_close = ge.build_extension, ge.close_many

    def elementary(p, n):
        G = real_ea(p, n)
        refs[G.carrier] = _ref_elementary(p, n)
        return G

    def cyclic(m):
        C = real_cyc(m)
        refs[C] = _ref_cyclic(m)
        return C

    def extension(base, top_order, action, twist=None, name="extension"):
        X = real_ext(base, top_order, action, twist, name)
        graphs.extend((g, refs[base.carrier], len(base)) for g in closed)
        closed.clear()
        refs[X.carrier] = _ref_extension(refs[base.carrier], base, top_order, action, twist)
        return X

    def close_many(X, gens, cap):
        if X.name == "graph":
            closed.append(X)
        return real_close(X, gens, cap)

    monkeypatch.setattr(ge, "elementary_abelian_group", elementary)
    monkeypatch.setattr(ge, "cyclic_carrier", cyclic)
    monkeypatch.setattr(ge, "build_extension", extension)
    monkeypatch.setattr(ge, "close_many", close_many)
    return refs, graphs


@pytest.mark.parametrize("name", ["e1", "e2", "e3", "metacyclic", "twisted"])
def test_carrier_laws_match_reference(built, name):
    refs, graphs = built
    make = {"e1": ge.example_e1, "e2": ge.example_e2, "e3": ge.example_e3,
            "metacyclic": lambda: ge.metacyclic_group(3, 2),
            # x^-1 b x = b^4 and x^3 = b^3: the one law here whose twist is not 0
            "twisted": lambda: ge.build_extension(ge.cyclic_group(9), 3, {1: 4}, twist=3)}[name]
    make()
    # the extensions and their bases, down to F_3^n or Z_9
    assert len(refs) == {"e1": 3, "e2": 2, "e3": 3, "metacyclic": 2, "twisted": 2}[name]
    for seed, (carrier, ref) in enumerate(refs.items()):
        assert len(ref) == len(carrier)
        _assert_same_law(carrier, ref, len(carrier), seed)
    # each graph law against base x base on the codes b1 n + b2: a graph
    # code b1 w + b2 takes the place of b1 n + b2
    assert len(graphs) == len(refs) - 1
    rng = np.random.default_rng(len(graphs))
    for graph, ref_base, n in graphs:
        ref, w = _ref_graph(ref_base, n), len(graph) // n
        assert w >= n and len(graph) == n * w
        u1, u2, v1, v2 = rng.integers(0, n, (4, PAIRS_SEEDED))
        got = graph.mul(u1 * w + u2, v1 * w + v2)
        want = ref.mul(u1 * n + u2, v1 * n + v2)
        assert np.array_equal(np.divmod(got, w), np.divmod(want, n))
        assert type(graph.mul(int(u1[0]) * w, int(v2[0]))) is int


def test_quotient_laws_match_reference():
    for X in (ge.example_e2()["X"], ge.example_e1()["X"]):
        N = ge.core(X.subgroup(X.generators[:2]), X)
        Q, _ = ge.quotient_group(X, N)
        assert 1 < len(Q) < len(X)
        _assert_same_law(Q.carrier, _ref_quotient(X, N), len(Q))


# ---------------------------------------------------------------------------
# skew_core: the pair law of SkewProductGroup


def _skew_members(struct32, set52, set72):
    rng = np.random.default_rng(7)
    sample72 = [set72.skews[int(i)] for i in rng.choice(len(set72.skews), 40, replace=False)]
    return list(struct32.skews) + list(set52.skews) + sample72


def test_skew_product_laws_match_reference(struct32, set52, set72):
    members = _skew_members(struct32, set52, set72)
    assert len(members) == 64 + len(set52.skews) + 40
    assert max(sk.N * sk.order for sk in members) ** 2 > PAIRS_ALL
    for seed, sk in enumerate(members):
        spg = sc.SkewProductGroup(sk, check=False)
        _assert_same_law(spg, _ref_skew_product(sk), spg.M, seed)
