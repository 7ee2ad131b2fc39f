import dataclasses
import json

import numpy as np
import pytest

from skewmorph import _kernels as K
from skewmorph import group_engine as ge
from skewmorph import skew_core as sc
from skewmorph import structure_verify as sv

from conftest import id_pair, inv_pair, is_abelian, mult_pairs

EXPECTED_CASES_32 = {
    "thm1-1": 32,
    "thm1-2-normal": 8,
    "thm1-3-normal": 8,
    "thm1-3-GnormalP": 16,
}


def test_classify_identity():
    sk = sc.validate(3, 2, np.arange(9))
    rep = sv.classify(sk)
    assert rep.case == sv.CASE_1
    assert rep.automorphism
    assert rep.g_normal_in_x and rep.g_normal_in_p and rep.p_normal_in_x
    assert rep.core_rank == 2
    assert rep.core_size == 9


def test_case_histogram_32(brute32):
    hist = {}
    for sk in brute32.skews:
        rep = sv.classify(sk)
        hist[rep.case] = hist.get(rep.case, 0) + 1
    assert hist == EXPECTED_CASES_32


def test_no_theorem1_violations_32(brute32):
    out = sv.verify_theorem1(brute32.skews)
    assert out["total"] == 64
    assert out["violations"] == []
    assert out["case_counts"] == EXPECTED_CASES_32


def test_core_rank_drop(brute32):
    for sk in brute32.skews:
        rep = sv.classify(sk)
        assert rep.g_normal_in_x == sk.is_automorphism()
        assert rep.core_rank == (2 if rep.g_normal_in_x else 1)
        if not rep.g_normal_in_x:
            assert rep.witness["b_index"] >= 0
            assert sk.pi[rep.witness["b_index"]] != 1


def test_sylow_fast_deep_agreement(brute32):
    # P = G<sigma^k> is normal in X pointwise (pi = 1 mod k) and as a
    # subgroup of the product group built generically
    for sk in brute32.skews[::11]:
        assert sv.classify(sk).p_normal_in_x
        spg = sc.SkewProductGroup(sk)
        X = spg.as_finite_group()
        trans = tuple(spg.pair_id(sk.p ** (sk.n - 1 - j), 0) for j in range(sk.n))
        P = X.subgroup(trans + (spg.sigma_pair(sk.k),))
        assert len(P) == sk.N * (sk.order // sk.k)
        assert ge.is_normal(P, X)


def test_affine_embedding_on_nonnormal(brute32):
    for sk in brute32.skews:
        rep = sv.classify(sk)
        aff = sv.find_affine_embedding(sk)
        assert aff.found
        if rep.g_normal_in_x:
            assert aff.kind == "G"
            assert aff.zt_rank == 2
        else:
            assert aff.kind == "mixed"
            assert aff.zt_rank == 1
            assert aff.mixed_pair is not None
            g, i = aff.mixed_pair
            assert i != 0


def _reference_classify(sk):
    """classify's general body for every member, automorphisms included:
    the power table, the power sums and the orbit mask of the core."""
    p, n, o, k, m = sk.p, sk.n, sk.order, sk.k, sk.m
    N = sk.N
    pi = np.asarray(sk.pi)
    add, _, _ = K.index_tables(p, n)
    S = sk.power_table()

    mask = (pi == 1) if o >= 2 else np.ones(N, dtype=bool)
    g_normal_x = bool(mask.all())
    PSk = np.asarray(sk.pi)[S[:k]].sum(axis=0) % o
    g_normal_p = bool((PSk == k % o).all())
    p_normal_x = bool(((pi % k) == (1 % k)).all())

    core_idx = np.nonzero(mask[S].all(axis=0))[0]
    size = int(core_idx.size)
    rank = 0
    while p ** rank < size:
        rank += 1
    assert p ** rank == size
    in_core = np.zeros(N, dtype=bool)
    in_core[core_idx] = True
    assert in_core[add[core_idx[:, None], core_idx]].all()
    assert in_core[np.asarray(sk.images)[core_idx]].all()

    if p == 2 or m == 0:
        case = sv.CASE_1
    elif k == 1:
        case = sv.CASE_2_NORMAL if g_normal_x else sv.CASE_2_SPLIT
    elif g_normal_x:
        case = sv.CASE_3_NORMAL
    else:
        case = sv.CASE_3_GP if g_normal_p else sv.CASE_3_GNP

    witness = {}
    if not g_normal_x and o >= 2:
        witness["b_index"] = int(np.argmax(pi != 1))
    if not g_normal_p:
        witness["gp_index"] = int(np.argmax(PSk != k % o))

    return sv.ClassificationReport(
        p=p, n=n, order=o, k=k, m=m, case=case,
        automorphism=sk.is_automorphism(),
        g_normal_in_x=g_normal_x, g_normal_in_p=g_normal_p,
        p_normal_in_x=p_normal_x,
        core_rank=rank, core_size=size, witness=witness)


def test_classify_matches_reference_on_every_member(set52, set33, set72):
    # the closed form for automorphisms and the general body for the rest
    for res in (set52, set33, set72):
        autos = 0
        for sk in res.skews:
            got, want = sv.classify(sk), _reference_classify(sk)
            assert got == want
            assert type(got.core_rank) is type(got.core_size) is int
            autos += got.automorphism
        assert 0 < autos < len(res.skews)


def _reference_affine_search(sk):
    """The scalar search on SkewProductGroup's pair law: every candidate
    of order p that commutes with the central translations, in pair id
    order, tested one at a time; tried counts the candidates that reach
    the normality test."""
    p, n, o, k = sk.p, sk.n, sk.order, sk.k
    N = sk.N
    if o == 1 or (np.asarray(sk.pi) == 1).all():
        return sv.AffineEmbedding(True, "G", n, None, 0)

    X = sc.SkewProductGroup(sk, check=False)
    add, S, PS = X.add, X.S, X.PS

    idx = np.arange(N)
    kk = k % o
    zt_idx = np.nonzero((S[kk] == idx) & (PS[kk] == kk))[0]
    r_z = 0
    while p ** r_z < zt_idx.size:
        r_z += 1
    assert p ** r_z == zt_idx.size
    if r_z + 1 != n:
        return sv.AffineEmbedding(False, "", r_z, None, 0,
                                  note="central translation rank %d, need %d" % (r_z, n - 1))

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
    zt_set = set(map(int, zt_idx))

    def vmult(g1, e1, g2, e2):
        return add[g1, S[e1, g2]], (PS[e1, g2] + e2) % o

    # x^p by doubling over all pairs (a, i)
    ga = np.repeat(np.arange(N), o)
    ia = np.tile(np.arange(o), N)
    rg, re = np.zeros_like(ga), np.zeros_like(ia)
    bg, be = ga, ia
    e = p
    while e:
        if e & 1:
            rg, re = vmult(rg, re, bg, be)
        e >>= 1
        if e:
            bg, be = vmult(bg, be, bg, be)
    cand = (rg == 0) & (re == 0) & (ia != 0)
    for z in basis:
        cand &= (S[ia, z] == z) & (PS[ia, z] == ia)

    gens = [id_pair(X, g) for g in X.generator_ids()]
    zt_pairs = [(v, 0) for v in basis]
    tried = 0
    for cid in np.nonzero(cand)[0]:
        a, i = divmod(int(cid), o)
        x_pows = [(0, 0)]
        for _ in range(p - 1):
            x_pows.append(mult_pairs(X, x_pows[-1], (a, i)))
        exp_to_t = {e_t: t for t, (_, e_t) in enumerate(x_pows)}
        if len(exp_to_t) != p:
            continue
        if any(g_t in zt_set for g_t, _ in x_pows[1:]):
            continue
        tried += 1

        def in_T(pair):
            t = exp_to_t.get(pair[1])
            return t is not None and int(add[pair[0], X.neg[x_pows[t][0]]]) in zt_set

        if all(in_T(mult_pairs(X, mult_pairs(X, inv_pair(X, y), t), y))
               for y in gens for t in zt_pairs + [(a, i)]):
            return sv.AffineEmbedding(True, "mixed", r_z, (a, i), tried)
    return sv.AffineEmbedding(False, "", r_z, None, tried, note="no candidate accepted")


def _outcome(aff):
    return aff.found, aff.kind, aff.zt_rank, aff.mixed_pair, aff.tried, aff.note


def _nonnormal_sample(skews, per_order, seed):
    """Up to per_order non-normal members of each order, seeded."""
    rng = np.random.default_rng(seed)
    by_order = {}
    for sk in skews:
        if not sk.is_automorphism():
            by_order.setdefault(sk.order, []).append(sk)
    out = []
    for o in sorted(by_order):
        group = by_order[o]
        out += [group[j] for j in sorted(rng.permutation(len(group))[:per_order])]
    return out


def test_affine_search_matches_reference_on_every_small_member(brute32, set52):
    for skews in (brute32.skews, set52.skews):
        for sk in skews:
            assert _outcome(sv.find_affine_embedding(sk)) == _outcome(_reference_affine_search(sk))


def test_affine_search_matches_reference_on_nonnormal_samples(set72, set33):
    for skews, seed in ((set72.skews, 72), (set33.skews, 33)):
        sample = _nonnormal_sample(skews, 40, seed)
        # every order of a non-normal member is represented
        assert {sk.order for sk in sample} == {
            sk.order for sk in skews if not sk.is_automorphism()}
        for sk in sample:
            aff = sv.find_affine_embedding(sk)
            assert aff.kind == "mixed" and 1 <= aff.tried
            assert _outcome(aff) == _outcome(_reference_affine_search(sk))


def test_affine_search_matches_reference_on_every_nonnormal_member(set72, set33):
    # one array search over each whole set, against the scalar reference
    for skews in (set72.skews, set33.skews):
        nonnormal = [sk for sk in skews if not sk.is_automorphism()]
        got = sv._affine_search(nonnormal)
        assert len(got) == len(nonnormal)
        for sk, aff in zip(nonnormal, got):
            assert _outcome(aff) == _outcome(_reference_affine_search(sk))


def _shuffled_mix(sets, seed, size=None):
    """The members of sets, shuffled; size keeps a seeded sample of them."""
    members = [sk for res in sets for sk in res.skews]
    at = np.random.default_rng(seed).permutation(len(members))[:size]
    return [members[j] for j in at]


def test_sweep_classify_matches_per_member_loop(brute32, set52, set72):
    # every (3,2) and (5,2) member and about a quarter of (7,2), shuffled;
    # the loop is sweep_classify member by member, with the same rng draws
    mix = _shuffled_mix((brute32, set52), 5) + _shuffled_mix((set72,), 7, 900)
    mix = [mix[j] for j in np.random.default_rng(8).permutation(len(mix))]
    reports = [sv.classify(sk) for sk in mix]
    embeddings = [sv.find_affine_embedding(sk) for sk in mix]
    for affine in ("all", "nonnormal", "none"):
        for seed in (0, 1):
            rng = np.random.default_rng(seed)
            want = []
            for rep, aff in zip(reports, embeddings):
                keep = affine == "all" or (affine == "nonnormal" and (
                    not rep.g_normal_in_x or rng.random() < 0.05))
                want.append((rep, aff if keep else None))
            assert sv.sweep_classify(mix, affine=affine, seed=seed) == want


@pytest.mark.parametrize("per_chunk", [1, 2, 7])
def test_affine_search_chunk_boundaries(monkeypatch, brute32, set52, set72, per_chunk):
    # 23 non-normal order-42 members of (7,2) in chunks of per_chunk, amid
    # members of other groups and automorphisms, give what one search each
    # gives
    group = [sk for sk in set72.skews if sk.order == 42 and not sk.is_automorphism()][:23]
    mix = _shuffled_mix((brute32, set52), 6)[:60] + group
    mix = [mix[j] for j in np.random.default_rng(per_chunk).permutation(len(mix))]
    want = [sv.find_affine_embedding(sk) for sk in mix]
    sizes = []
    search_chunk = sv._search_chunk

    def counted(p, n, o, skews):
        if (p, n, o) == (7, 2, 42):
            sizes.append(len(skews))
        return search_chunk(p, n, o, skews)

    monkeypatch.setattr(sv, "_search_chunk", counted)
    monkeypatch.setattr(sv, "_AFFINE_CHUNK", per_chunk * 42 * 49)
    assert sv._affine_search(mix) == want
    assert sizes == [per_chunk] * (23 // per_chunk) + [23 % per_chunk] * (23 % per_chunk > 0)


def test_affine_t_is_normal_elementary_abelian_and_meets_sigma_trivially(
        brute32, set52, set72, set33):
    # the group engine's view of T = <central translations, mixed pair>
    for skews, seed in ((brute32.skews, 1), (set52.skews, 2), (set72.skews, 3),
                        (set33.skews, 4)):
        for sk in _nonnormal_sample(skews, 1, seed)[:3]:
            aff = sv.find_affine_embedding(sk)
            assert aff.found and aff.kind == "mixed"
            spg = sc.build_skew_product(sk)
            X = spg.as_finite_group()
            kk = sk.k % sk.order
            zt = np.nonzero((spg.S[kk] == np.arange(sk.N)) & (spg.PS[kk] == kk))[0]
            T = X.subgroup([spg.pair_id(int(v), 0) for v in zt]
                           + [spg.pair_id(*aff.mixed_pair)])
            elems = T.elements
            assert len(T) == sk.p ** sk.n
            assert is_abelian(T)
            x = elems
            for _ in range(sk.p - 1):
                x = spg.mul(x, elems)
            assert (x == 0).all()  # exponent p
            assert ge.is_normal(T, X)
            assert not T.mask[X.cycle(spg.sigma_pair())[1:]].any()


def test_affine_search_without_t_on_the_reference_members(example_reports):
    # e1's member (Z_3^4) and e3's residue (Z_3^5), both of order 9, have
    # too few central translations for a T of rank n; e1 flags that no
    # affine point stabilizer exists
    for tag, rank in (("e1", 1), ("e3", 2)):
        sk = example_reports[tag].data["skew"]
        aff = sv.find_affine_embedding(sk)
        assert _outcome(aff) == (False, "", rank, None, 0,
                                 "central translation rank %d, need %d" % (rank, sk.n - 1))
        assert _outcome(aff) == _outcome(_reference_affine_search(sk))


# a non-normal member of (5,2) of order 10 (k = 2); its central
# translations, sigma^2(g) = g with PS_2(g) = pi(g) + pi(sigma g) = 2, are
# the five points 0, 8, 11, 19, 22, and sigma swaps 11 and 19
IMAGES_52 = [0, 21, 3, 16, 15, 20, 13, 12, 22, 18, 9, 19, 10, 17, 5, 7, 14, 2, 1, 11,
             24, 23, 8, 4, 6]
PI_52 = [1, 5, 9, 3, 7, 9, 3, 7, 1, 5, 7, 1, 5, 9, 3, 5, 9, 3, 7, 1, 3, 7, 1, 5, 9]


def test_central_translations_no_p_power_set_is_a_finding():
    sk = sc.validate(5, 2, IMAGES_52)
    assert sk.pi.tolist() == PI_52 and sk.order == 10
    assert sv.find_affine_embedding(sk).found
    # pi(11) = 9 makes PS_2 = 9 + 1 = 0 at 11 and at 19: both leave, and
    # three points remain, no power of 5
    pi = list(PI_52)
    pi[11] = 9
    bad = _fabricated(5, 2, IMAGES_52, pi, 10)
    with pytest.raises(AssertionError, match="central translations do not form a p-power set"):
        sv.find_affine_embedding(bad)
    with pytest.raises(AssertionError):
        _reference_affine_search(bad)


def test_sweep_classify_rejects_unknown_mode(brute32):
    with pytest.raises(ValueError, match="bogus"):
        sv.sweep_classify(brute32.skews[:2], affine="bogus")


def test_sweep_classify_modes(brute32):
    rows = sv.sweep_classify(brute32.skews, affine="none")
    assert all(aff is None for _, aff in rows)
    rows = sv.sweep_classify(brute32.skews, affine="all")
    assert all(aff is not None and aff.found for _, aff in rows)
    rows = sv.sweep_classify(brute32.skews, affine="nonnormal", sample_rate=0.0)
    for sk, (rep, aff) in zip(brute32.skews, rows):
        if rep.g_normal_in_x:
            assert aff is None
        else:
            assert aff is not None and aff.found


def test_classified_writer_lines_are_json_dumps(tmp_path, set52, set72, set33):
    # every member of (5,2), (7,2) and (3,3), each with its report and one
    # of the three affine fields, from the block's members and shuffled
    rng = np.random.default_rng(1)
    affine = (None, sv.AffineEmbedding(True, "G", 0, None, 1),
              sv.AffineEmbedding(False, "", 0, None, 1))
    for res in (set52, set72, set33):
        members = list(res.skews)
        rows = [(sk, sv.classify(sk), affine[i % 3]) for i, sk in enumerate(members)]
        want = [json.dumps(sv.classified_record(*r), separators=(", ", ": ")) for r in rows]
        path = tmp_path / "classified.jsonl"
        assert sv.write_classified_jsonl(path, [rows[i] for i in rng.permutation(len(rows))]) \
            == len(rows)
        # the block is in member order, so rows and want are too
        assert path.read_text().splitlines() == want
    assert sv.write_classified_jsonl(path, []) == 0
    assert path.read_bytes() == b""


def test_classified_record_and_jsonl(tmp_path, brute32):
    rows = sv.sweep_classify(brute32.skews, affine="all")
    triples = [(sk, rep, aff) for sk, (rep, aff) in zip(brute32.skews, rows)]
    obj = sv.classified_record(*triples[0])
    for key in ("case", "core_rank", "g_normal_in_x", "g_normal_in_p",
                "affine_T_found", "sigma", "pi", "order"):
        assert key in obj
    path = tmp_path / "classified.jsonl"
    sv.write_classified_jsonl(path, triples)
    lines = path.read_text().splitlines()
    assert len(lines) == 64
    parsed = [json.loads(line) for line in lines]
    assert all(r["affine_T_found"] for r in parsed)
    sigmas = [r["sigma"] for r in parsed]
    assert sigmas == sorted(sigmas)
    path2 = tmp_path / "classified2.jsonl"
    sv.write_classified_jsonl(path2, list(reversed(triples)))
    assert path.read_bytes() == path2.read_bytes()
    # each line is classified_record's dict as json.dumps writes it, also
    # with the report left to the writer and no affine search (null)
    bare = [(sk, None, None) for sk in brute32.skews]
    sv.write_classified_jsonl(path2, bare)
    for rows, out in ((triples, path), (bare, path2)):
        rows = sorted(rows, key=lambda r: r[0].images.tolist())
        assert out.read_text().splitlines() == [
            json.dumps(sv.classified_record(*r), separators=(", ", ": ")) for r in rows]


def test_action_condition():
    assert sv.action_condition(sv.E1_ACTION, 3, 2)
    assert not sv.action_condition(sv.E1_ACTION_DEGENERATE, 3, 2)


def test_metacyclic_control():
    out = sv.metacyclic_omega1_control()
    assert out["ok"]
    assert out["group_order"] == 27
    assert out["omega_order"] == 9
    assert out["omega_rank"] == 2


def test_example_reports(example_reports):
    e1, e2, e3 = (example_reports[t] for t in ("e1", "e2", "e3"))
    assert e2.ok and len(e2.claims) == 16 and len(e2.flags) == 0
    assert e1.ok and len(e1.claims) == 20 and len(e1.flags) == 2
    assert e3.ok and len(e3.claims) == 14 and len(e3.flags) == 1
    for rep in (e1, e2, e3):
        lines = rep.lines()
        assert len(lines) == len(rep.claims) + len(rep.flags)
        assert all(line.startswith("ok ") for line in lines[: len(rep.claims)])
        assert all(line.startswith("flag: ") for line in lines[len(rep.claims):])


def test_example_rejects_unknown():
    with pytest.raises(ValueError):
        sv.build_and_verify_example("e9")


def _member_32(brute32):
    # a non-normal member of (3,2): order 6, k = 2, m = 1, no violation
    return next(sk for sk in brute32.skews if not sk.is_automorphism() and sk.k == 2)


@pytest.mark.parametrize("code, change", [
    ("order-split", lambda rep: {"k": rep.k + 1}),
    ("P-not-normal", lambda rep: {"p_normal_in_x": False}),
    ("case1-not-automorphism", lambda rep: {"case": sv.CASE_1}),
    ("nonnormal-at-m0-or-p2", lambda rep: {"k": rep.order, "m": 0}),
    ("split-at-small-n", lambda rep: {"case": sv.CASE_2_SPLIT}),
    ("normal-in-x-not-in-p", lambda rep: {"g_normal_in_x": True, "g_normal_in_p": False,
                                          "core_rank": rep.n}),
    ("core-rank", lambda rep: {"core_rank": 0}),
])
def test_each_theorem1_code_fires_alone(brute32, monkeypatch, code, change):
    # a report built by hand that breaks one rule of the theorem
    sk = _member_32(brute32)
    rep = sv.classify(sk)
    assert sv.theorem1_violations(sk, rep) == []
    bad = dataclasses.replace(rep, **change(rep))
    assert sv.theorem1_violations(sk, bad) == [code]
    monkeypatch.setattr(sv, "classify", lambda s: bad)
    assert sv.verify_theorem1([sk])["violations"] == [(0, [code])]


def _fabricated(p, n, images, pi, order):
    # the constructor does not validate: pi breaks the identity under test
    return sc.SkewMorphism(p, n, np.array(images), np.array(pi), order)


def test_classify_reads_p_normality_and_ps_k_pointwise():
    # sigma the identity, order 6 (k = 2): PS_2 = 2 pi mod 6 and the core is {0}
    rep = sv.classify(_fabricated(3, 2, range(9), [1] + [4] * 8, 6))
    # pi = 4 is no 1 mod k, so P is not normal in X; PS_2 = 2 = k everywhere
    assert not rep.p_normal_in_x and rep.g_normal_in_p and rep.core_size == 1
    rep = sv.classify(_fabricated(3, 2, range(9), [1] + [3] * 8, 6))
    # PS_2 = k at 0 only: G is not normal in P, first witnessed at 1
    assert rep.p_normal_in_x and not rep.g_normal_in_p
    assert rep.witness["gp_index"] == 1


@pytest.mark.parametrize("p, n, images, kernel, order, message", [
    # {0, 1} as ker pi: two points in Z_3^2
    (3, 2, range(9), [0, 1], 6, "core size 2 is not a power of 3"),
    # {0, 1, 3}: 1 + 1 = 2 lies outside
    (3, 2, range(9), [0, 1, 3], 6, "not additively closed"),
    # sigma the 7-cycle 1 -> 2 -> ... -> 7 -> 1 with its order given as 2:
    # on the powers sigma^0, sigma^1 the core is {0, 1}, and 1 goes to 2
    (2, 3, [0, 2, 3, 4, 5, 6, 7, 1], [0, 1, 2], 2, "not sigma-invariant"),
], ids=["p-power", "closed", "invariant"])
def test_classify_checks_the_core(p, n, images, kernel, order, message):
    pi = np.zeros(p ** n, dtype=np.int64)
    pi[kernel] = 1
    with pytest.raises(AssertionError, match=message):
        sv.classify(_fabricated(p, n, images, pi, order))
