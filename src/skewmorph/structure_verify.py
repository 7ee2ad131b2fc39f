"""Structural classification of skew-morphisms and the reference groups.

Everything here rests on three pointwise identities in the skew product
X = G<sigma>, each derived from the multiplication rule
(a,i)(b,j) = (a + sigma^i(b), sum_{t<i} pi(sigma^t b) + j):

  * G normal in X        iff  pi == 1 everywhere;
  * G normal in P        iff  PS_k == k (mod order) everywhere,
                              P = G<sigma^k> the p-part carrier;
  * P normal in X        iff  pi == 1 (mod k) everywhere.

The core of G in X is the set of g whose whole sigma-orbit lies in
ker pi = {g : pi(g) = 1}; ker pi is a subgroup automatically (the
defining identity forces pi(g+h) = pi(h) when pi(g) = 1), and the
orbit-restricted subset is again a subgroup, the largest one normal
in X.  All three checks and the core are plain array reductions, so a
full sweep never builds multiplication tables.  An automorphism (order 1
or pi == 1) needs none of them: classify reports it in closed form.

The affine search for T (find_affine_embedding) reads the law of X off
the same tables, one array pass per value of a over the members of one
(p, n, order).
"""

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import _kernels as K
from . import fpalg
from . import group_engine as ge
from . import skew_core as sc

CASE_1 = "thm1-1"
CASE_2_NORMAL = "thm1-2-normal"
CASE_2_SPLIT = "thm1-2-split"
CASE_3_NORMAL = "thm1-3-normal"
CASE_3_GP = "thm1-3-GnormalP"
CASE_3_GNP = "thm1-3-GnotnormalP"

ALL_CASES = (CASE_1, CASE_2_NORMAL, CASE_2_SPLIT,
             CASE_3_NORMAL, CASE_3_GP, CASE_3_GNP)


@dataclass
class ClassificationReport:
    p: int
    n: int
    order: int
    k: int
    m: int
    case: str
    automorphism: bool
    g_normal_in_x: bool
    g_normal_in_p: bool
    p_normal_in_x: bool
    core_rank: int
    core_size: int
    witness: dict = field(default_factory=dict)


def _case(p, m, k, g_normal_x, g_normal_p):
    if p == 2 or m == 0:
        return CASE_1
    if k == 1:
        return CASE_2_NORMAL if g_normal_x else CASE_2_SPLIT
    if g_normal_x:
        return CASE_3_NORMAL
    return CASE_3_GP if g_normal_p else CASE_3_GNP


def classify(sk):
    p, n, o, k, m = sk.p, sk.n, sk.order, sk.k, sk.m
    if sk.is_automorphism():
        # order < 2 or pi == 1: G is normal in X and is its own core, and
        # PS_k == k, so G is normal in P and P in X; no table is needed
        return ClassificationReport(
            p=p, n=n, order=o, k=k, m=m, case=_case(p, m, k, True, True),
            automorphism=True, g_normal_in_x=True, g_normal_in_p=True,
            p_normal_in_x=True, core_rank=n, core_size=sk.N)
    pi = np.asarray(sk.pi)
    add, _, _ = K.index_tables(p, n)
    S = sk.power_table()  # sigma^0 .. sigma^(o-1): every power, for PS_k and the orbit mask

    mask = pi == 1
    PSk = pi.take(S[:k]).sum(axis=0) % o  # PS_k(g) = sum_{t<k} pi(sigma^t g)
    g_normal_p = bool((PSk == k % o).all())
    p_normal_x = bool(((pi % k) == (1 % k)).all())

    in_core = mask.take(S).all(axis=0)
    core_idx = in_core.nonzero()[0]
    size = int(core_idx.size)
    rank = 0
    while p ** rank < size:
        rank += 1
    if p ** rank != size:
        raise AssertionError("core size %d is not a power of %d" % (size, p))
    if not in_core.take(add[core_idx].take(core_idx, axis=1)).all():
        raise AssertionError("core candidate is not additively closed")
    if not in_core.take(np.asarray(sk.images).take(core_idx)).all():
        raise AssertionError("core candidate is not sigma-invariant")

    witness = {"b_index": int(mask.argmin())}
    if not g_normal_p:
        witness["gp_index"] = int(np.argmax(PSk != k % o))

    return ClassificationReport(
        p=p, n=n, order=o, k=k, m=m, case=_case(p, m, k, False, g_normal_p),
        automorphism=False, g_normal_in_x=False, g_normal_in_p=g_normal_p,
        p_normal_in_x=p_normal_x,
        core_rank=rank, core_size=size, witness=witness)


def theorem1_violations(sk, rep):
    """Violation codes for the three-case structure theorem; empty is good."""
    out = []
    if sk.order != rep.k * sk.p ** rep.m:
        out.append("order-split")
    if not rep.p_normal_in_x:
        out.append("P-not-normal")
    if rep.case == CASE_1 and not rep.automorphism:
        out.append("case1-not-automorphism")
    if not rep.g_normal_in_x and (sk.p == 2 or rep.m == 0):
        out.append("nonnormal-at-m0-or-p2")
    if rep.case == CASE_2_SPLIT and sk.n <= 3:
        out.append("split-at-small-n")
    if rep.g_normal_in_x and not rep.g_normal_in_p:
        out.append("normal-in-x-not-in-p")
    expected_rank = sk.n if rep.g_normal_in_x else sk.n - 1
    if rep.core_rank != expected_rank:
        out.append("core-rank")
    return out


def verify_theorem1(skews):
    """Classify a whole set; collect case counts and violations."""
    counts = Counter()
    violations = []
    reports = []
    for idx, sk in enumerate(skews):
        rep = classify(sk)
        counts[rep.case] += 1
        bad = theorem1_violations(sk, rep)
        if bad:
            violations.append((idx, bad))
        reports.append(rep)
    return {"total": len(reports), "case_counts": dict(counts),
            "violations": violations, "reports": reports}


# ---------------------------------------------------------------------------
# affine realization: T normal, elementary abelian, X = T<sigma>, T cap <sigma> = 1


@dataclass
class AffineEmbedding:
    found: bool
    kind: str  # "G" for the normal case, "mixed" for the searched T
    zt_rank: int
    mixed_pair: tuple
    tried: int
    note: str = ""


# power-table elements per chunk of members in _search_chunk: at 2**15 a
# chunk's temporaries peak near 1.3 MB; larger chunks ran faster but left
# more heap behind each sweep
_AFFINE_CHUNK = 1 << 15


def find_affine_embedding(sk):
    """Search for T <= X with T normal, elementary abelian of rank n,
    T meeting <sigma> trivially (then X = T<sigma> realizes sigma as an
    affine map on T).

    kind "G" is G itself, for an automorphism; kind "mixed" is T spanned by
    the central translations of P and mixed_pair, with tried the number of
    candidates that met the normality test.  This is _affine_search on
    the one member; sweep_classify searches all its members at once.
    """
    return _affine_search([sk])[0]


def _affine_search(skews):
    """One AffineEmbedding per member of skews, in input order.

    An automorphism has G itself, normal, as T.  Otherwise T is assembled
    from the central translations of P plus one mixed element x = (a, i)
    of order p, the first in pair id order a * o + i that passes every
    test.  The members that share (p, n, order) are searched together, in
    chunks of about _AFFINE_CHUNK power-table elements (_search_chunk).
    """
    out = [None] * len(skews)
    groups = {}
    for j, sk in enumerate(skews):
        if sk.is_automorphism():
            out[j] = AffineEmbedding(True, "G", sk.n, None, 0)
        else:
            groups.setdefault((sk.p, sk.n, sk.order), []).append(j)
    for (p, n, o), at in groups.items():
        step = max(1, _AFFINE_CHUNK // (o * p ** n))
        for c in range(0, len(at), step):
            part = at[c:c + step]
            for j, aff in zip(part, _search_chunk(p, n, o, [skews[j] for j in part])):
                out[j] = aff
    return out


def _search_chunk(p, n, o, skews):
    """The affine search on the non-automorphisms of one (p, n, order), each
    test one array pass over the candidates of all of them.  The members
    are one permutation of M * N points, member r on r * N .. r * N + N - 1,
    so one power table S and its power sums PS give the law of every X.

    One pass per value of a, while some member has accepted no candidate,
    keeps the x = (a, i) with i != 0 that commute with the central
    translations, x^p = 1 and no x^t (0 < t < p) in <sigma>; these meet the
    normality test, y^-1 t y in T for the generators y of X and t of T.

    The members must be skew-morphisms: the passes rest on identities of X,
    so on other input they can disagree with a candidate-by-candidate search.
    """
    M, N = len(skews), p ** n
    MN = M * N
    add, sub, neg = K.index_tables(p, n)
    block = sc.as_block(skews)
    base = np.arange(0, MN, N, dtype=np.int32)  # r * N, the offset of member r
    S = K.power_rows((block.images + base[:, None]).ravel(), o)  # (o, M * N)
    PS = sc.power_sums(block.pi.ravel(), S, o)
    Sf, PSf = S.ravel(), PS.ravel()

    def mul(rN, g1, e1, g2, e2):
        # (g1, e1)(g2, e2) in the skew product of the member at offset rN
        f = e1 * MN + rN + g2
        return add[g1, Sf[f] - rN], (PSf[f] + e2) % o

    def conj(rN, t, yi, y):
        return mul(rN, *mul(rN, *yi, *t), *y)

    kk = skews[0].k % o
    zt = (S[kk] == np.arange(MN)) & (PS[kk] == kk)
    size = zt.reshape(M, N).sum(axis=1)
    rank = (p ** np.arange(n + 1)[:, None] < size).sum(axis=0)
    if (p ** rank != size).any():
        raise AssertionError("central translations do not form a p-power set")
    out = [None] * M
    for m in np.nonzero(rank + 1 != n)[0].tolist():
        out[m] = AffineEmbedding(False, "", int(rank[m]), None, 0,
                                 note="central translation rank %d, need %d" % (rank[m], n - 1))

    # independent basis of the central translations, greedy in index order
    basis, span = [], np.zeros((M, N), dtype=bool)
    span[:, 0] = True
    for _ in range(n - 1):
        if basis:
            back = sub[:, basis[-1]].T  # x - z
            for _ in range(p - 1):
                span |= np.take_along_axis(span, back, axis=1)
        basis.append(np.argmax(zt.reshape(M, N) & ~span, axis=1))

    # the exponents i that commute with every basis translation (z, 0)
    i_ok = np.ones((M, o), dtype=bool)
    i_ok[:, 0] = False
    for z in basis:
        rz = base + z
        i_ok &= (S[:, rz] == rz).T & (PS[:, rz].T == np.arange(o))

    # the generators y of X, the basis translations (e_j, 0) and sigma,
    # with y^-1.  The conjugates of T's translations are the same for every
    # candidate of a member, and only sigma's count: (e_j, 0) fixes every
    # (z, 0), as sigma^0 is the identity and PS_0 = 0
    gens = []
    for y in [(p ** (n - 1 - j), 0) for j in range(n)] + [(0, 1)]:
        g = Sf[-y[1] % o * MN + base + neg[y[0]]] - base
        gens.append(((g, -PSf[y[1] * MN + base + g] % o), y))
    fixed = [conj(base, (z, 0), *gens[-1]) for z in basis]

    tried = np.zeros(M, dtype=np.int64)
    todo = rank + 1 == n  # the members with no candidate accepted yet
    for a in range(N):
        if not todo.any():
            break
        r, i = np.nonzero(i_ok & todo[:, None])
        rN = base[r]
        # G-parts and exponents of x^0 .. x^p, one array pass per power
        xg, xe = [np.zeros_like(i)], [np.zeros_like(i)]
        for _ in range(p):
            g, e = mul(rN, xg[-1], xe[-1], a, i)
            xg.append(g)
            xe.append(e)
        xg, xe = np.array(xg), np.array(xe)
        # x^0 .. x^(p-1) have distinct exponents, as in_T below needs: equal
        # ones would put a power of x, so x itself (p prime), in G, and i != 0
        ok = np.nonzero((xg[p] == 0) & (xe[p] == 0) & ~zt[rN + xg[1:p]].any(axis=0))[0]
        r, i, rN, C = r[ok], i[ok], rN[ok], ok.size
        # the t of each exponent of x^0 .. x^(p-1), p for none, and minus
        # the G-part of x^t, 0 at t = p
        cols = np.arange(C)
        t_of = np.full(C * o, p, dtype=np.int32)
        t_of[cols * o + xe[:p, ok]] = np.arange(p)[:, None]
        back = np.concatenate([neg[xg[:p, ok]], np.zeros((1, C), dtype=neg.dtype)]).ravel()

        def in_T(g, e):
            # (g, e) = x^t (z, 0) for the t with x^t's exponent e, z in ZT
            t = t_of[cols * o + e]
            return (t < p) & zt[rN + add[g, back[t * C + cols]]]

        good = np.ones(r.size, dtype=bool)
        for g, e in fixed:
            good &= in_T(g[r], e[r])
        for (gi, ei), y in gens:
            good &= in_T(*conj(rN, (a, i), (gi[r], ei[r]), y))

        count = np.bincount(r, minlength=M)
        first = np.cumsum(count) - count  # each member's first candidate
        done, at = np.unique(r[good], return_index=True)
        for m, c in zip(done.tolist(), np.nonzero(good)[0][at].tolist()):
            out[m] = AffineEmbedding(True, "mixed", n - 1, (a, int(i[c])),
                                     int(tried[m] + c - first[m] + 1))
        tried += count
        todo[done] = False
    for m in np.nonzero(todo)[0].tolist():
        out[m] = AffineEmbedding(False, "", n - 1, None, int(tried[m]),
                                 note="no candidate accepted")
    return out


def sweep_classify(skews, affine="nonnormal", sample_rate=0.05, seed=0):
    """(report, embedding-or-None) per member.  affine: 'all', 'nonnormal'
    (plus a deterministic sample of the normal ones), or 'none'.  Every
    member is classified on its own; the wanted members then meet one
    _affine_search."""
    if affine not in ("all", "nonnormal", "none"):
        raise ValueError("unknown affine mode %r" % (affine,))
    rng = np.random.default_rng(seed)
    reports, wanted = [], []
    for sk in skews:
        rep = classify(sk)
        if affine == "all" or (affine == "nonnormal" and (
                not rep.g_normal_in_x or rng.random() < sample_rate)):
            wanted.append((len(reports), sk))
        reports.append(rep)
    out = [(rep, None) for rep in reports]
    for (j, _), aff in zip(wanted, _affine_search([sk for _, sk in wanted])):
        out[j] = (reports[j], aff)
    return out


# ---------------------------------------------------------------------------
# Omega_1 and the action-matrix conditions around the order-729 group


def metacyclic_omega1_control():
    """Control case: the metacyclic 3-group Z_9 ⋊ Z_3 has Omega_1 =
    Z_3 x Z_3 even though the group itself is 2-generated of exponent 9."""
    M = ge.metacyclic_group(3, 2)
    om = ge.omega1_pgroup(M)
    return {
        "group_order": len(M),
        "omega_order": len(om),
        "omega_rank": ge.elementary_abelian_rank(om, 3),
        "ok": len(om) == 9 and ge.elementary_abelian_rank(om, 3) == 2,
    }


E1_ACTION = ((1, 0, 0), (1, 1, 0), (0, 1, 1))
E1_ACTION_DEGENERATE = ((1, 0, 0), (1, 1, 0), (0, 0, 1))


def action_condition(rows, p, m):
    """(M - I)^(p^(m-1) - 1) != 0 for the action matrix on the abelian base."""
    M = fpalg.matrix(rows, p)
    d = (M - np.eye(len(M), dtype=np.int64)) % p
    return bool(fpalg.mat_pow(d, p ** (m - 1) - 1, p).any())


# ---------------------------------------------------------------------------
# the three reference groups, claim by claim


@dataclass
class Claim:
    label: str
    expected: object
    computed: object

    @property
    def ok(self):
        return self.expected == self.computed


@dataclass
class ExampleReport:
    name: str
    claims: list
    flags: list
    data: dict = field(default_factory=dict)

    @property
    def ok(self):
        return all(c.ok for c in self.claims)

    def lines(self):
        out = []
        for c in self.claims:
            mark = "ok " if c.ok else "FAIL"
            out.append("%s %-58s expected %-14r computed %r"
                       % (mark, c.label, c.expected, c.computed))
        for f in self.flags:
            out.append("flag: %s" % f)
        return out


def build_and_verify_example(name):
    if name == "e1":
        return _example_report_e1()
    if name == "e2":
        return _example_report_e2()
    if name == "e3":
        return _example_report_e3()
    raise ValueError("unknown example %r" % name)


def _product_claim(X, G, s, order):
    return Claim("X = G<sigma> with trivial intersection", True,
                 len(G) * order == len(X) and not G.mask[X.cycle(s)[1:]].any())


def _example_report_e1():
    d = ge.example_e1()
    X, G, s = d["X"], d["G"], d["sigma"]
    rank4 = ge.normal_elem_abelian_subgroups(X, 4, p=3)
    om = ge.omega1_pgroup(X)
    gz = ge.FiniteGroup.from_generators(X.carrier, tuple(G.generators) + (d["z"],))
    sk = sc.extract_skew(X, G, s, d["gens"])
    rep = classify(sk)
    claims = [
        Claim("|X|", 729, len(X)),
        Claim("G elementary abelian rank", 4, ge.elementary_abelian_rank(G, 3)),
        Claim("sigma order", 9, X.element_order(s)),
        Claim("G normal in X", False, ge.is_normal(G, X)),
        _product_claim(X, G, s, 9),
        Claim("core of <sigma> in X: order", 1, len(ge.core(X.subgroup((s,)), X))),
        Claim("core of G in X: rank", 3, ge.elementary_abelian_rank(ge.core(G, X), 3)),
        Claim("normal rank-4 elementary abelian subgroups", 1, len(rank4)),
        Claim("rank-4 normal subgroups contained in G", 0, sum(1 for H in rank4 if H <= G)),
        Claim("any rank-4 normal subgroup complemented", False,
              any(ge.has_complement(X, H) for H in rank4)),
        Claim("Omega_1(X) order", 243, len(om)),
        Claim("Omega_1(X) = <G, z>", True, np.array_equal(om.mask, gz.mask)),
        Claim("(M-I)^(p^(m-1)-1) nonzero", True, action_condition(E1_ACTION, 3, 2)),
        Claim("degenerate control vanishes", True,
              not action_condition(E1_ACTION_DEGENERATE, 3, 2)),
        Claim("C_X(A) = <G, z>", True,
              np.array_equal(ge.centralizer(X, d["A"].generators).mask, gz.mask)),
        Claim("extracted skew-morphism order", 9, sk.order),
        Claim("extracted (k, m)", (1, 2), (sk.k, sk.m)),
        Claim("extracted is automorphism", False, sk.is_automorphism()),
        Claim("classification case", CASE_2_SPLIT, rep.case),
        Claim("classified core rank", 3, rep.core_rank),
    ]
    flags = ["the documented core rank of 4 is impossible for a non-normal "
             "G of rank 4; the computed core has rank 3",
             "exactly one normal Z_3^4 exists, the core times <z>; it is "
             "not contained in G and has no complement, so no affine "
             "point stabilizer can pair with it"]
    return ExampleReport("e1", claims, flags,
                         {"skew": sk, "report": rep, "group": d})


def _example_report_e2():
    d = ge.example_e2()
    X, G, P, s = d["X"], d["G"], d["P"], d["sigma"]
    claims = [
        Claim("|X|", 54, len(X)),
        Claim("G elementary abelian rank", 2, ge.elementary_abelian_rank(G, 3)),
        Claim("sigma order", 6, X.element_order(s)),
        Claim("G normal in X", False, ge.is_normal(G, X)),
        Claim("G normal in P", True, ge.is_normal(G, P)),
        Claim("P normal in X", True, ge.is_normal(P, X)),
        Claim("core of G in X: order", 3, len(ge.core(G, X))),
    ]
    claims.append(_product_claim(X, G, s, 6))
    claims.append(Claim("core of <sigma> in X: order", 1,
                        len(ge.core(X.subgroup((s,)), X))))
    flags = []
    sk = sc.extract_skew(X, G, s, d["gens"])
    rep = classify(sk)
    claims.append(Claim("extracted skew-morphism order", 6, sk.order))
    claims.append(Claim("extracted (k, m)", (2, 1), (sk.k, sk.m)))
    claims.append(Claim("classification case", CASE_3_GP, rep.case))
    claims.append(Claim("classified core rank", 1, rep.core_rank))
    aff = find_affine_embedding(sk)
    claims.append(Claim("affine T found", True, aff.found))
    from . import enumeration
    full = enumeration.full_enum(3, 2)
    claims.append(Claim("extracted member of the full (3,2) set", True,
                        bool((full.skews.images == sk.images).all(axis=1).any())))

    # the realizing T, found generically in X itself
    spows = X.cycle(s)[1:]
    ts = [T for T in ge.normal_elem_abelian_subgroups(X, 2, p=3)
          if not T.mask[spows].any()]
    claims.append(Claim("normal rank-2 T with T cap <sigma> = 1 exists", True, len(ts) >= 1))
    return ExampleReport("e2", claims, flags,
                         {"skew": sk, "report": rep, "group": d, "T_count": len(ts)})


def _example_report_e3():
    d = ge.example_e3()
    X, G, P, s = d["X"], d["G"], d["P"], d["sigma"]
    claims = [
        Claim("|X|", 4374, len(X)),
        Claim("G elementary abelian rank", 5, ge.elementary_abelian_rank(G, 3)),
        Claim("sigma order", 18, X.element_order(s)),
        Claim("G normal in P", False, ge.is_normal(G, P)),
        Claim("core of G in P: rank", 4,
              ge.elementary_abelian_rank(ge.core(G, P), 3)),
        Claim("core of G in X: rank", 4,
              ge.elementary_abelian_rank(ge.core(G, X), 3)),
    ]
    claims.append(_product_claim(X, G, s, 18))
    flags = []
    s9 = X.power(s, 9)
    Z = X.subgroup((s9,))
    sigma_core = ge.core(X.subgroup((s,)), X)
    claims.append(Claim("core of <sigma> in X: order (1 is needed to extract)",
                        2, len(sigma_core)))
    flags.append("sigma^9 is central, so <sigma> has a core of order 2: the "
                 "documented data cannot induce an order-18 skew-morphism of "
                 "Z_3^5; the honest residue lives in X/<sigma^9>")
    raised = False
    try:
        sc.extract_skew(X, G, s, d["gens"])
    except ValueError:
        raised = True
    claims.append(Claim("direct extraction is rejected", True, raised))

    Q, cmap = ge.quotient_group(X, Z)
    gens_q = tuple(cmap[list(d["gens"])].tolist())
    Gq = Q.subgroup(gens_q)
    sk = sc.extract_skew(Q, Gq, int(cmap[s]), gens_q)
    rep = classify(sk)
    claims.append(Claim("residue skew-morphism order", 9, sk.order))
    claims.append(Claim("residue (k, m)", (1, 2), (sk.k, sk.m)))
    claims.append(Claim("residue is automorphism", False, sk.is_automorphism()))
    claims.append(Claim("residue classification case", CASE_2_SPLIT, rep.case))
    claims.append(Claim("residue core rank", 4, rep.core_rank))
    return ExampleReport("e3", claims, flags,
                         {"skew": sk, "report": rep, "group": d})


# ---------------------------------------------------------------------------
# classified records on disk


def classified_record(sk, rep=None, affine=None):
    obj = sc.skew_to_obj(sk)
    rep = rep if rep is not None else classify(sk)
    obj["case"] = rep.case
    obj["core_rank"] = rep.core_rank
    obj["g_normal_in_x"] = rep.g_normal_in_x
    obj["g_normal_in_p"] = rep.g_normal_in_p
    obj["affine_T_found"] = None if affine is None else bool(affine.found)
    return obj


# the fields classified_record adds, as JSON text after the skew's own
CLASSIFIED_FIELDS = (', "case": "%s", "core_rank": %d, "g_normal_in_x": %s, '
                     '"g_normal_in_p": %s, "affine_T_found": %s')


def write_classified_jsonl(path, rows):
    """rows: (skew, report-or-None, embedding-or-None) triples, written in
    the member order of skew_core.lex_order, as classified_record dicts
    would be by json.dumps with ", " separators, through
    skew_core.write_records with the distinct field texts looked up once."""
    rows = list(rows)
    texts, text_of = {}, []
    for sk, rep, aff in rows:
        rep = rep if rep is not None else classify(sk)
        key = (rep.case, rep.core_rank, rep.g_normal_in_x, rep.g_normal_in_p,
               None if aff is None else bool(aff.found))
        text_of.append(texts.setdefault(key, len(texts)))
    fields = [CLASSIFIED_FIELDS % (case, rank, sc.json_bool(gx), sc.json_bool(gp),
                                   "null" if found is None else sc.json_bool(found))
              for case, rank, gx, gp, found in texts]
    block = sc.as_block([r[0] for r in rows])
    return sc.write_records(path, block, sc.lex_order(block), fields,
                            np.array(text_of, dtype=np.int64))
