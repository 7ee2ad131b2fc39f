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


def _power_sum_row(sk, S, j):
    # PS_j(v) = sum_{t<j} pi(sigma^t v) mod order
    return np.asarray(sk.pi)[S[:j]].sum(axis=0) % sk.order


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
    N = sk.N
    pi = np.asarray(sk.pi)
    add, _, _ = K.index_tables(p, n)
    S = sk.power_table()

    mask = pi == 1
    PSk = _power_sum_row(sk, S, k)
    g_normal_p = bool((PSk == k % o).all())
    p_normal_x = bool(((pi % k) == (1 % k)).all())

    orbit_mask = mask[S].all(axis=0)
    core_idx = np.nonzero(orbit_mask)[0]
    size = int(core_idx.size)
    rank = 0
    while p ** rank < size:
        rank += 1
    if p ** rank != size:
        raise AssertionError("core size %d is not a power of %d" % (size, p))
    in_core = np.zeros(N, dtype=bool)
    in_core[core_idx] = True
    if not in_core[add[core_idx[:, None], core_idx]].all():
        raise AssertionError("core candidate is not additively closed")
    if not in_core[np.asarray(sk.images)[core_idx]].all():
        raise AssertionError("core candidate is not sigma-invariant")

    witness = {"b_index": int(np.argmax(~mask))}
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


def _vmult(add, S, PS, o, g1, e1, g2, e2):
    return add[g1, S[e1, g2]], (PS[e1, g2] + e2) % o


def find_affine_embedding(sk):
    """Search for T <= X with T normal, elementary abelian of rank n,
    T meeting <sigma> trivially (then X = T<sigma> realizes sigma as an
    affine map on T).

    Normal G serves directly.  Otherwise T is assembled from the central
    translations of P plus one mixed element x = (a, i) of order p, the
    first in pair id order that passes every test.  The law of X is read
    off the tables of G and sigma, without building X: array passes over
    all candidates keep the x with i != 0 that commute with the central
    translations, x^p = 1 and no x^t (0 < t < p) in <sigma>; only the
    normality test is a scalar loop, and tried counts the candidates that
    reach it.
    """
    p, n, o, k = sk.p, sk.n, sk.order, sk.k
    N = sk.N
    if o == 1 or (np.asarray(sk.pi) == 1).all():
        return AffineEmbedding(True, "G", n, None, 0)

    add, _, neg = K.index_tables(p, n)
    S = sk.power_table()
    PS = sc.power_sums(sk, S)

    idx = np.arange(N)
    kk = k % o
    zt_mask = (S[kk] == idx) & (PS[kk] == kk)
    zt_idx = np.nonzero(zt_mask)[0]
    r_z = 0
    while p ** r_z < zt_idx.size:
        r_z += 1
    if p ** r_z != zt_idx.size:
        raise AssertionError("central translations do not form a p-power set")
    if r_z + 1 != n:
        return AffineEmbedding(False, "", r_z, None, 0,
                               note="central translation rank %d, need %d" % (r_z, n - 1))

    # independent basis of the central translations
    basis = []
    span = {0}
    for v in zt_idx:
        v = int(v)
        if v in span:
            continue
        basis.append(v)
        mults = [0]
        for _ in range(p - 1):
            mults.append(int(add[mults[-1], v]))
        span = {int(add[x, w]) for x in span for w in mults}

    # candidates (a, i), i != 0, in pair id order a * o + i, that commute
    # with every basis translation (z, 0): a test on i alone
    i_ok = np.arange(1, o)
    for z in basis:
        i_ok = i_ok[(S[i_ok, z] == z) & (PS[i_ok, z] == i_ok)]
    ga = np.repeat(np.arange(N), i_ok.size)
    ia = np.tile(i_ok, N)
    # G-parts and exponents of x^0 .. x^p, one array pass per power
    xg = np.zeros((p + 1, ga.size), dtype=np.intp)
    xe = np.zeros((p + 1, ga.size), dtype=np.intp)
    for t in range(1, p + 1):
        xg[t], xe[t] = _vmult(add, S, PS, o, xg[t - 1], xe[t - 1], ga, ia)
    # x^0 .. x^(p-1) have distinct exponents, as exp_to_t below needs: equal
    # ones would put a power of x, so x itself (p prime), in G, and i != 0
    ok = (xg[p] == 0) & (xe[p] == 0) & ~zt_mask[xg[1:p]].any(axis=0)

    # normality: y^-1 t y in T for the generators y of X, the basis
    # translations (e_j, 0) and sigma, and the generators t of T; the
    # conjugates of T's translations are the same for every candidate
    def conj(t, yi, y):
        return _vmult(add, S, PS, o, *_vmult(add, S, PS, o, *yi, *t), *y)

    gens = []
    for y in [(p ** (n - 1 - j), 0) for j in range(n)] + [(0, 1)]:
        g = int(S[-y[1] % o, neg[y[0]]])
        gens.append(((g, -int(PS[y[1], g]) % o), y))
    fixed = [conj((v, 0), yi, y) for yi, y in gens for v in basis]
    zt_set = set(zt_idx.tolist())
    tried = 0
    for c in np.nonzero(ok)[0].tolist():
        tried += 1
        x = (int(ga[c]), int(ia[c]))
        x_g = xg[:p, c].tolist()
        exp_to_t = dict(zip(xe[:p, c].tolist(), range(p)))

        def in_T(g, e):
            t = exp_to_t.get(int(e))
            return t is not None and int(add[g, neg[x_g[t]]]) in zt_set

        if (all(in_T(*u) for u in fixed)
                and all(in_T(*conj(x, yi, y)) for yi, y in gens)):
            return AffineEmbedding(True, "mixed", r_z, x, tried)
    return AffineEmbedding(False, "", r_z, None, tried, note="no candidate accepted")


def sweep_classify(skews, affine="nonnormal", sample_rate=0.05, seed=0):
    """(report, embedding-or-None) per member.  affine: 'all', 'nonnormal'
    (plus a deterministic sample of the normal ones), or 'none'."""
    if affine not in ("all", "nonnormal", "none"):
        raise ValueError("unknown affine mode %r" % (affine,))
    rng = np.random.default_rng(seed)
    out = []
    for sk in skews:
        rep = classify(sk)
        want = affine == "all"
        if affine == "nonnormal":
            want = not rep.g_normal_in_x or rng.random() < sample_rate
        aff = find_affine_embedding(sk) if want else None
        out.append((rep, aff))
    return out


# ---------------------------------------------------------------------------
# Omega_1 and the action-matrix conditions around the order-729 group


def omega1_report(X, G, z, p, n):
    om = ge.omega1_pgroup(X)
    gz = ge.FiniteGroup.from_generators(X.carrier, tuple(G.generators) + (z,))
    return {
        "omega_order": len(om),
        "expected_order": p ** (n + 1),
        "equals_G_z": np.array_equal(om.mask, gz.mask),
        "ok": len(om) == p ** (n + 1) and np.array_equal(om.mask, gz.mask),
    }


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


def verify_nilpotency_condition(d):
    """The action-matrix condition and C_X(A) = <G, z> on the e1 data d."""
    cond = action_condition(E1_ACTION, 3, 2)
    neg = action_condition(E1_ACTION_DEGENERATE, 3, 2)
    cent = ge.centralizer(d["X"], d["A"].generators)
    gz = ge.FiniteGroup.from_generators(
        d["X"].carrier, tuple(d["G"].generators) + (d["z"],))
    fact1 = np.array_equal(cent.mask, gz.mask)
    return {
        "condition_holds": cond,
        "degenerate_control_fails": not neg,
        "centralizer_is_G_z": fact1,
        "ok": cond and (not neg) and fact1,
    }


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


def _product_claims(X, G, s, order):
    return [
        Claim("X = G<sigma> with trivial intersection", True,
              len(G) * order == len(X) and not G.mask[X.cycle(s)[1:]].any()),
    ]


def _example_report_e1():
    d = ge.example_e1()
    X, G, s = d["X"], d["G"], d["sigma"]
    claims = [
        Claim("|X|", 729, len(X)),
        Claim("G elementary abelian rank", 4, ge.elementary_abelian_rank(G, 3)),
        Claim("sigma order", 9, X.element_order(s)),
        Claim("G normal in X", False, ge.is_normal(G, X)),
    ]
    claims += _product_claims(X, G, s, 9)
    claims.append(Claim("core of <sigma> in X: order", 1,
                        len(ge.core(X.subgroup((s,)), X))))
    flags = []
    gx = ge.core(G, X)
    claims.append(Claim("core of G in X: rank", 3, ge.elementary_abelian_rank(gx, 3)))
    flags.append("the documented core rank of 4 is impossible for a non-normal "
                 "G of rank 4; the computed core has rank 3")
    rank4 = ge.normal_elem_abelian_subgroups(X, 4, p=3)
    claims.append(Claim("normal rank-4 elementary abelian subgroups", 1, len(rank4)))
    claims.append(Claim("rank-4 normal subgroups contained in G", 0,
                        sum(1 for H in rank4 if H <= G)))
    claims.append(Claim("any rank-4 normal subgroup complemented", False,
                        any(ge.has_complement(X, H) for H in rank4)))
    flags.append("exactly one normal Z_3^4 exists, the core times <z>; it is "
                 "not contained in G and has no complement, so no affine "
                 "point stabilizer can pair with it")
    om = omega1_report(X, G, d["z"], 3, 4)
    claims.append(Claim("Omega_1(X) order", 243, om["omega_order"]))
    claims.append(Claim("Omega_1(X) = <G, z>", True, om["equals_G_z"]))
    nil = verify_nilpotency_condition(d)
    claims.append(Claim("(M-I)^(p^(m-1)-1) nonzero", True, nil["condition_holds"]))
    claims.append(Claim("degenerate control vanishes", True, nil["degenerate_control_fails"]))
    claims.append(Claim("C_X(A) = <G, z>", True, nil["centralizer_is_G_z"]))

    sk = sc.extract_skew(X, G, s, d["gens"])
    rep = classify(sk)
    claims.append(Claim("extracted skew-morphism order", 9, sk.order))
    claims.append(Claim("extracted (k, m)", (1, 2), (sk.k, sk.m)))
    claims.append(Claim("extracted is automorphism", False, sk.is_automorphism()))
    claims.append(Claim("classification case", CASE_2_SPLIT, rep.case))
    claims.append(Claim("classified core rank", 3, rep.core_rank))
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
    claims += _product_claims(X, G, s, 6)
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
    claims += _product_claims(X, G, s, 18)
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
