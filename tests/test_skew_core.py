import itertools
import json
import pickle
import re
import subprocess
import sys

import numpy as np
import pytest

from skewmorph import _kernels as K
from skewmorph import enumeration as en
from skewmorph import fpalg
from skewmorph import group_engine as ge
from skewmorph import skew_core as sc

from conftest import id_pair, inv_pair, mult_pairs


def _law_holds(sk):
    """Direct recheck of s(x+y) = s(x) + s^pi(x)(y), all pairs, via tables."""
    add, _, _ = K.index_tables(sk.p, sk.n)
    S = sk.power_table()
    lhs = sk.images[add]
    rhs = add[sk.images[:, None], S[np.asarray(sk.pi, dtype=np.int64)]]
    return (lhs == rhs).all()


def test_identity_validates():
    sk = sc.validate(3, 2, np.arange(9))
    assert sk.order == 1 and sk.k == 1 and sk.m == 0
    assert sk.is_automorphism()
    assert (sk.pi == 0).all()


def test_from_matrix_is_automorphism():
    M = fpalg.canonical_unipotent(2, 3)
    sk = sc.validate(3, 2, fpalg.matrix_to_perm(M, 3))
    assert sk.order == 3
    assert sk.is_automorphism()
    assert (sk.pi == 1).all()
    assert _law_holds(sk)


def test_cached_automorphism_verdict(struct32, set52, set72, set33):
    # the verdict is worked out once and kept; a pickled member gets it afresh
    for res in (struct32, set52, set72, set33):
        for sk in res.skews:
            want = sk.order == 1 or bool((sk.pi == 1).all())
            assert sk.is_automorphism() is want
            assert sk._aut is want and sk.is_automorphism() is want
            assert pickle.loads(pickle.dumps(sk)).is_automorphism() is want


def test_brute_set_satisfies_law_directly(brute32):
    # independent of the validator: replay the defining identity in numpy
    for sk in brute32.skews:
        assert _law_holds(sk)
        assert sk.order == K._cycle_walk(sk.images, sk.N)[0]


def test_power_table_matches_step_by_step(set72, set33):
    # one member of every order in the (7,2) and (3,3) sets, plus orders
    # 1 and 2 at (3,2): the identity and x -> -x
    members = [sc.validate(3, 2, np.arange(9)), sc.validate(3, 2, K.index_tables(3, 2)[2])]
    for skews in (set72.skews, set33.skews):
        by_order = {}
        for sk in skews:
            by_order.setdefault(sk.order, sk)
        members += list(by_order.values())
    assert {1, 2, 48, 26} <= {sk.order for sk in members}
    for sk in members:
        want = [np.arange(sk.N)]
        for _ in range(1, sk.order):
            want.append(sk.images[want[-1]])
        S = sk.power_table()
        assert S.shape == (sk.order, sk.N) and S.dtype == K.IDX_DTYPE
        assert (S == np.array(want)).all()


def test_validation_rejections():
    with pytest.raises(sc.SkewValidationError):
        sc.validate(3, 2, np.arange(8))
    bad = np.arange(9)
    bad[3] = 4
    with pytest.raises(sc.SkewValidationError) as ei:
        sc.validate(3, 2, bad)
    assert ei.value.status == K.NOT_PERMUTATION
    swap = np.arange(9)
    swap[[1, 2, 3, 4]] = [2, 1, 4, 3]
    with pytest.raises(sc.SkewValidationError) as ei:
        sc.validate(3, 2, swap)
    assert ei.value.status == K.NO_POWER_MATCH
    assert ei.value.witness >= 0


def test_pi_of_zero_is_one(brute32):
    for sk in brute32.skews:
        if sk.order > 1:
            assert sk.pi[0] == 1


def test_aut_conjugate_round_trip(brute32):
    M = fpalg.matrix(((1, 2), (1, 1)), 3)
    assert fpalg.mat_det(M, 3) != 0
    Minv = fpalg.mat_pow(M, fpalg.matrix_order(M, 3) - 1, 3)
    keys = {sk.key() for sk in brute32.skews}
    for sk in brute32.skews[:20]:
        c = sc.aut_conjugate(sk, M)
        assert c.key() in keys
        back = sc.aut_conjugate(c, Minv)
        assert back == sk


def test_power_coprime(brute32):
    keys = {sk.key() for sk in brute32.skews}
    for sk in brute32.skews:
        for j in range(1, sk.order):
            if np.gcd(j, sk.order) == 1:
                q = sc.power_coprime(sk, j)
                assert q.key() in keys
    six = next(s for s in brute32.skews if s.order == 6)
    with pytest.raises(ValueError):
        sc.power_coprime(six, 3)


def _cayley_table(spg):
    """Reference: the full M x M table of the pair law on ids, in one
    vectorised pass over the add, S and PS tables."""
    o, N = spg.order, spg.N
    A1 = spg.add[np.arange(N)[:, None, None], spg.S[None, :, :]]
    E1 = (spg.PS[:, :, None] + np.arange(o)[None, None, :]) % o
    T = A1[:, :, :, None] * o + E1[None, :, :, :]
    return T.reshape(spg.M, spg.M)


def test_skew_product_group_law(brute32):
    for sk in brute32.skews[::7]:
        spg = sc.SkewProductGroup(sk)  # checked on build, every triple
        assert spg.M == len(spg) == sk.N * sk.order
        T = _cayley_table(spg)
        ids = np.arange(spg.M)
        assert (spg.mul(ids[:, None], ids) == T).all()
        # closed-form inverse agrees with the table inverse
        inv = np.argmin(T, axis=1)  # the identity 0 is the row minimum
        for ident in range(0, spg.M, 5):
            pair = id_pair(spg, ident)
            gi = inv_pair(spg, pair)
            assert spg.pair_id(*gi) == inv[ident]
            assert mult_pairs(spg, pair, gi) == (0, 0)
        # P = G<sigma^k> ids form a subgroup of index k
        exps = np.arange(0, spg.order, sk.k)
        pids = (np.arange(sk.N)[:, None] * spg.order + exps[None, :]).ravel()
        assert len(pids) * sk.k == spg.M
        sub = T[np.ix_(pids, pids)]
        assert set(sub.ravel().tolist()) <= set(pids.tolist())


def test_mul_inv_match_pair_law(brute32, set72):
    # every id against a seeded partner, through mul/inv on python ints
    # and on id arrays, against mult_pairs/inv_pair on the pairs
    rng = np.random.default_rng(0)
    big = next(sk for sk in set72.skews if sk.order == 48)
    for sk in brute32.skews + [big]:
        spg = sc.SkewProductGroup(sk, check=False)
        ids = np.arange(spg.M)
        partner = rng.permutation(spg.M)
        prod = [spg.pair_id(*mult_pairs(spg, id_pair(spg, a), id_pair(spg, b)))
                for a, b in zip(ids, partner)]
        inv = [spg.pair_id(*inv_pair(spg, id_pair(spg, a))) for a in ids]
        assert spg.mul(ids, partner).tolist() == prod
        assert spg.inv(ids).tolist() == inv
        for a, b in zip(ids.tolist(), partner.tolist()):
            c, ai = spg.mul(a, b), spg.inv(a)
            assert type(c) is int and type(ai) is int
            assert c == prod[a] and ai == inv[a]


@pytest.mark.parametrize("order", [3, 48])
def test_self_test_catches_corrupt_power_sum(set72, monkeypatch, order):
    # order 3 (M = 147) checks every triple, order 48 (M = 2,352) samples
    sk = next(s for s in set72.skews if s.order == order)
    spg = sc.SkewProductGroup(sk)
    bad = spg.PS.copy()
    bad[1, 5] = (bad[1, 5] + 1) % sk.order
    a, b = spg.pair_id(0, 1), spg.pair_id(5, 0)
    clean = spg.mul(a, b)
    monkeypatch.setattr(spg, "PS", bad)
    assert spg.mul(a, b) != clean
    with pytest.raises(AssertionError, match="associativity"):
        ge.check_group_law(spg)


@pytest.mark.parametrize("order", [3, 48])
def test_group_law_check_catches_power_row_no_permutation(set72, monkeypatch, order):
    # one entry of a power table row copied onto another: sigma^1 is no
    # longer a permutation of G, while PS still holds the clean sums
    sk = next(s for s in set72.skews if s.order == order)
    spg = sc.SkewProductGroup(sk, check=False)
    bad = spg.S.copy()
    bad[1, 2] = bad[1, 3]
    assert np.unique(bad[1]).size < sk.N
    monkeypatch.setattr(spg, "S", bad)
    with pytest.raises(AssertionError, match="associativity|inverse"):
        ge.check_group_law(spg)


def test_group_law_check_catches_seeded_corruptions(set72):
    # 40 single-entry corruptions each of S (an entry of a row i >= 1 copied
    # from another column) and of PS (an entry shifted by r != 0) at
    # M = 2,352, where associativity is checked on sampled triples: an
    # entry at i = 0 or g = 0 breaks the identity, every other one must be
    # caught by the sampled triples, before the inverse check runs
    sk = next(s for s in set72.skews if s.order == 48)
    spg = sc.SkewProductGroup(sk, check=False)
    ge.check_group_law(spg)
    S, PS = spg.S, spg.PS
    rng = np.random.default_rng(48)
    for table in ("S", "PS") * 40:
        i, g = int(rng.integers(1 if table == "S" else 0, sk.order)), int(rng.integers(sk.N))
        spg.S, spg.PS = S.copy(), PS.copy()
        if table == "S":
            spg.S[i, g] = S[i, (g + int(rng.integers(1, sk.N))) % sk.N]
        else:
            spg.PS[i, g] = (PS[i, g] + int(rng.integers(1, sk.order))) % sk.order
        with pytest.raises(AssertionError, match="identity" if 0 in (i, g) else "associativity"):
            ge.check_group_law(spg)


@pytest.mark.parametrize("order", [3, 48])
def test_build_checks_the_inverse(set72, monkeypatch, order):
    # inv off by one at a single id, mul untouched: building the group
    # must call inv on every id to see it
    sk = next(s for s in set72.skews if s.order == order)
    clean = sc.SkewProductGroup.inv
    wrong = 5

    def inv(self, a):
        out = clean(self, a)
        return np.where(np.asarray(a) == wrong, (out + 1) % self.M, out)

    spg = sc.SkewProductGroup(sk)
    monkeypatch.setattr(spg, "inv", inv.__get__(spg))
    assert spg.inv(wrong) != clean(spg, wrong)
    with pytest.raises(AssertionError, match="inverse fails at %d" % wrong):
        ge.check_group_law(spg)
    monkeypatch.setattr(sc.SkewProductGroup, "inv", inv)
    with pytest.raises(AssertionError, match="inverse fails at %d" % wrong):
        sc.SkewProductGroup(sk)


def test_skew_product_memory_stays_small(set72):
    # the parent's M x M table took 64 MB at M = 2,352; mul works in
    # chunks, so neither the group-law check nor X' needs an M^2 array
    import tracemalloc

    sk = next(s for s in set72.skews if s.order == 48)
    K.index_tables(sk.p, sk.n)
    # the group-law check draws its triples from _kernels.splitmix64, so
    # nothing is imported while the peak is traced
    tracemalloc.start()
    try:
        assert sc.build_skew_product(sk).derived_is_abelian()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, "peak %.1f MB" % (peak / 2 ** 20)


def test_power_sum_zero_is_exponent(brute32):
    # PS_i(0) = i: multiplying (0,i) by (0,j) must add exponents
    for sk in brute32.skews:
        if sk.order == 1:
            continue
        spg = sc.SkewProductGroup(sk, check=False)
        assert (spg.PS[:, 0] == np.arange(sk.order)).all()
        # the running sum against a plain loop over pi(sigma^t g)
        S = sk.power_table()
        for i in range(sk.order):
            for g in range(sk.N):
                ref = sum(int(sk.pi[S[t, g]]) for t in range(i)) % sk.order
                assert spg.PS[i, g] == ref


def test_derived_is_abelian_matches_group_engine(brute32):
    # the group_engine view of X against the all-commutators reference
    for sk in brute32.skews[::9]:
        spg = sc.SkewProductGroup(sk, check=False)
        ref = _all_commutators_abelian(_cayley_table(spg))
        assert ge.is_metabelian(spg.as_finite_group()) == ref


def _all_commutators_abelian(T):
    # reference: the set of all commutators [x, y] commutes elementwise
    # exactly when the subgroup it generates, X', is abelian
    inv = np.argmin(T, axis=1)
    C = np.unique(T[T[inv[:, None], inv[None, :]], T])
    sub = T[np.ix_(C, C)]
    return bool((sub == sub.T).all())


def test_derived_is_abelian_matches_all_commutators(brute32, set52):
    for sk in brute32.skews[::3] + set52.skews[::40]:
        spg = sc.SkewProductGroup(sk, check=False)
        assert spg.derived_is_abelian() == _all_commutators_abelian(_cayley_table(spg))
    # every skew product is metabelian, so a negative case comes from
    # elsewhere: S_4, whose derived subgroup A_4 is not abelian, as an
    # int-coded group on the ids of its Cayley table
    perms = list(itertools.permutations(range(4)))
    ids = {q: i for i, q in enumerate(perms)}
    T = np.array([[ids[tuple(b[x] for x in a)] for b in perms] for a in perms])
    inv = np.argmin(T, axis=1)
    S4 = ge.FiniteGroup.whole(ge.Carrier(lambda a, b: T[a, b], lambda a: inv[a], len(perms)),
                              ())
    gens = [ids[(1, 0, 2, 3)], ids[(1, 2, 3, 0)]]
    assert not _all_commutators_abelian(T)
    assert not ge.derived_is_abelian(S4, gens)
    assert ge.derived_is_abelian(S4, gens[:1])


def test_build_extract_round_trip(brute32):
    for sk in brute32.skews[::5]:
        spg = sc.SkewProductGroup(sk, check=False)
        X = spg.as_finite_group()
        gens = X.generators[: sk.n]
        G = X.subgroup(gens)
        sk2 = sc.extract_skew(X, G, spg.sigma_pair(), gens)
        assert sk2 == sk
        assert (np.asarray(sk2.pi) == np.asarray(sk.pi)).all()


def test_as_finite_group_is_the_ids_law(brute32, set72):
    big = next(sk for sk in set72.skews if sk.order == 48)
    for sk in brute32.skews[::4] + [big]:
        spg = sc.SkewProductGroup(sk, check=False)
        X = spg.as_finite_group()
        assert np.array_equal(X.elements, np.arange(spg.M)) and X.identity == 0
        assert len(X.carrier) == spg.M
        assert X.generators == tuple(spg.generator_ids().tolist())
        ids = np.arange(spg.M)
        partner = (7 * ids + 3) % spg.M
        assert (X.mul(ids, partner) == spg.mul(ids, partner)).all()
        assert (X.inv(ids) == spg.inv(ids)).all()
        # sigma^e is the pair (0, e), whose id is e mod the order
        for e in (0, 1, sk.order + 1):
            assert spg.sigma_pair(e) == spg.pair_id(0, e % sk.order) == e % sk.order
            assert type(spg.sigma_pair(e)) is int
        s = spg.sigma_pair()
        assert X.element_order(s) == sk.order
        gens = X.generators[: sk.n]
        back = sc.extract_skew(X, X.subgroup(gens), s, gens)
        assert back == sk and (back.pi == sk.pi).all()


def test_extract_rejects_bad_factorizations(brute32):
    sk = next(s for s in brute32.skews if s.order == 6)
    spg = sc.SkewProductGroup(sk, check=False)
    X = spg.as_finite_group()
    gens = X.generators[:2]
    G = X.subgroup(gens)
    # s inside G, the pair (1, 0), of order 3: refused as |G| * order(s) < |X|
    with pytest.raises(ValueError):
        sc.extract_skew(X, G, spg.pair_id(1, 0), gens)
    # s of too small an order, the pair (0, 2): |G| * order(s) < |X|
    with pytest.raises(ValueError):
        sc.extract_skew(X, G, spg.pair_id(0, 2), gens)
    # e2's X and G, each with one fault
    d = ge.example_e2()
    X, G, s, (g1, b) = d["X"], d["G"], d["sigma"], d["gens"]
    a = X.generators[0]
    s2 = X.mul(s, s)
    for group, gens, message in (
            (G, (b,), "need 2 generators, got 1"),
            # <s^2, b> has order 9 and holds s^2
            (X.subgroup((s2, b)), (s2, b), "G meets <s> nontrivially"),
            (G, (b, b), "do not label G freely"),
            # a lies outside G = <a s^2, b>
            (G, (a, b), "do not generate G")):
        with pytest.raises(ValueError, match=message):
            sc.extract_skew(X, group, s, gens)
    assert sc.extract_skew(X, G, s, (g1, b)).order == 6


def test_jsonl_round_trip(tmp_path, brute32):
    path = tmp_path / "set.jsonl"
    wrote = sc.write_jsonl(brute32.skews, path)
    assert wrote == 64
    back = sc.read_jsonl(path)
    assert back == sorted(brute32.skews, key=lambda s: tuple(s.images))
    # each line is skew_to_obj's dict as json.dumps writes it
    assert path.read_text().splitlines() == [
        json.dumps(sc.skew_to_obj(sk), separators=(", ", ": ")) for sk in back]
    # byte determinism, input order irrelevant
    path2 = tmp_path / "set2.jsonl"
    sc.write_jsonl(list(reversed(brute32.skews)), path2)
    assert path.read_bytes() == path2.read_bytes()


def test_lex_order(brute32, set52, set72, set33):
    # every member of (3,2), (5,2), (7,2) and (3,3), from a shuffled list
    rng = np.random.default_rng(0)
    for res in (brute32, set52, set72, set33):
        shuffled = [res.skews[i] for i in rng.permutation(len(res.skews))]
        want = sorted(shuffled, key=lambda s: s.images.tolist())
        got = [shuffled[i] for i in sc.lex_order(shuffled)]
        assert [s.key() for s in got] == [s.key() for s in want]
    assert sc.lex_order([]).tolist() == []
    assert sc.lex_order(brute32.skews[:1]).tolist() == [0]


def _dumps(obj):
    return json.dumps(obj, separators=(", ", ": "))


def test_writer_lines_are_json_dumps(tmp_path, set52, set72, set33):
    # every member of (5,2), (7,2) and (3,3), from the result block and
    # from a shuffled member list, plus (5,3) rows of three-digit points
    rng = np.random.default_rng(0)
    seeds53 = en._canonical_config_seeds(5, 3, fpalg.omega_set(5)[:8])
    gl53 = en._validated_rows(5, 3, fpalg.matrix_to_perm(fpalg.gl_generators(3, 5), 5), "GL")
    for skews in (set52.skews, set72.skews, set33.skews, seeds53, gl53):
        want = [_dumps(sc.skew_to_obj(sk))
                for sk in sorted(skews, key=lambda s: s.images.tolist())]
        shuffled = [skews[i] for i in rng.permutation(len(skews))]
        for given in (skews, shuffled):
            path = tmp_path / "set.jsonl"
            assert sc.write_jsonl(given, path) == len(want)
            assert path.read_text().splitlines() == want
    path = tmp_path / "empty.jsonl"
    assert sc.write_jsonl([], path) == 0
    assert path.read_bytes() == b""


def test_block_reads_as_member_sequence(set72):
    block = set72.skews
    assert isinstance(block, sc.SkewBlock) and len(block) == 3456
    for a in (block.images, block.pi, block.order, block.aut):
        assert not a.flags.writeable
    assert block.images.dtype == block.pi.dtype == K.IDX_DTYPE
    members = list(block)
    assert [s.is_automorphism() for s in members] == block.aut.tolist()
    assert block[-1] == members[-1] and block[np.int64(5)] == members[5]
    # each member owns its rows, read-only
    sk = block[7]
    assert sk.images.base is None and not sk.images.flags.writeable
    assert (sk.images == block.images[7]).all() and (sk.pi == block.pi[7]).all()
    assert sk.order == block.order[7]
    with pytest.raises(IndexError):
        block[len(block)]
    assert block[2:5] == members[2:5] and isinstance(block[::1000], list)
    assert block + members[:1] == members + members[:1]
    assert members[:1] + block == members[:1] + members
    assert sc.as_block(members).images.tolist() == block.images.tolist()
    with pytest.raises(ValueError):
        sc.as_block(members[:1] + [sc.validate(3, 2, np.arange(9))])


@pytest.mark.parametrize("images, index", [
    ([0, 65538, 65537], 1),  # wraps to [0, 2, 1] in int16
    ([0, 2.7, 1], 1),        # truncates to [0, 2, 1]
    ([0, 2, -1], 2),
    ([0, 2, None], 2),
    ([0, 2 ** 70, 1], 1),
], ids=["wrap", "float", "negative", "none", "past-int64"])
def test_values_the_cast_would_change_are_refused(images, index):
    with pytest.raises(sc.SkewValidationError, match="image at index %d is" % index) as ei:
        sc.validate(3, 1, images)
    assert ei.value.witness == index
    # a bool array casts to the identity of Z_2
    with pytest.raises(sc.SkewValidationError, match="image at index 0 is False"):
        sc.validate(2, 1, np.array([False, True]))


@pytest.mark.parametrize("sigma, index", [
    ([0, 65538, 65537], 1), ([0, 2.7, 1], 1), ([0, 2, True], 2)],
    ids=["wrap", "float", "bool"])
def test_parse_record_refuses_values_the_cast_would_change(sigma, index):
    with pytest.raises(sc.SkewValidationError, match="index %d" % index):
        sc.parse_record({"p": 3, "n": 1, "sigma": sigma})
    # a float or a bool is no integer field either
    good = {"p": 3, "n": 1, "sigma": [0, 2, 1]}
    assert sc.parse_record(good).images.tolist() == [0, 2, 1]
    for field, value in (("p", 3.0), ("n", True), ("order", 2.0), ("pi", [0, 1.0, 1])):
        with pytest.raises(sc.SkewValidationError, match=repr(field)):
            sc.parse_record(dict(good, **{field: value}))


def test_parse_record_rejections(brute32):
    # the refusal texts are what verify prints after the line number
    sk = brute32.skews[1]
    obj = sc.skew_to_obj(sk)
    for missing in ("p", "n", "sigma"):
        broken = dict(obj)
        del broken[missing]
        with pytest.raises(sc.SkewValidationError, match="^record missing field '%s'$" % missing):
            sc.parse_record(broken)
    for field in ("order", "k", "m"):
        broken = dict(obj, **{field: obj[field] + 1})
        with pytest.raises(sc.SkewValidationError,
                           match="^record field '%s' = %d disagrees with recomputed %d$"
                           % (field, obj[field] + 1, obj[field])):
            sc.parse_record(broken)
    broken = dict(obj, pi=[0] * len(obj["pi"]))
    with pytest.raises(sc.SkewValidationError,
                       match="^record power function disagrees with recomputed one$"):
        sc.parse_record(broken)
    for sigma, text in ((5, "5"), (None, "null"), ("012", '"012"'), ({"0": 0}, '{"0": 0}')):
        with pytest.raises(sc.SkewValidationError,
                           match="^record field 'sigma' is %s, not a list$" % re.escape(text)):
            sc.parse_record(dict(obj, sigma=sigma))
    # a value in [2^63, 2^64) is printed as the record holds it, not as the
    # float its array would round it to, alone and after other records
    big = {"p": 3, "n": 1, "sigma": [0, 2 ** 63, 1]}
    text = "^image at index 1 is 9223372036854775808, not an integer in \\[0, 3\\)$"
    with pytest.raises(sc.SkewValidationError, match=text):
        sc.parse_record(big)
    with pytest.raises(sc.SkewValidationError, match=text):
        sc.validate(3, 1, big["sigma"])
    i, error = sc._parse_chunk([dict(big, sigma=[0, 2, 1]), big])[1]
    assert i == 1 and re.match(text, str(error))


def test_read_jsonl_equals_parse_record_per_line(tmp_path, brute32, set52, set72, set33):
    # the chunked read gives what one parse_record per line gives
    for res in (brute32, set52, set72, set33):
        path = tmp_path / "set.jsonl"
        sc.write_jsonl(res.skews, path)
        got = sc.read_jsonl(path)
        want = [sc.parse_record(json.loads(line)) for line in path.read_text().splitlines()]
        assert len(got) == len(want) == len(res.skews)
        for a, b in zip(got, want):
            assert a.images.tolist() == b.images.tolist() and a.pi.tolist() == b.pi.tolist()
            assert a.order == b.order and a.is_automorphism() is b.is_automorphism()
            assert not a.images.flags.writeable and not a.pi.flags.writeable


def _read_refusal(path, lines):
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(sc.SkewValidationError) as ei:
        sc.read_jsonl(path)
    return str(ei.value)


def test_read_jsonl_names_a_record_past_the_first_chunk(tmp_path, set33):
    path = tmp_path / "set.jsonl"
    sc.write_jsonl(set33.skews, path)
    lines = path.read_text().splitlines()
    pi_bad = json.dumps(dict(json.loads(lines[1]), pi=[0] * 27), separators=(", ", ": "))
    other = json.dumps(sc.skew_to_obj(sc.validate(3, 2, np.arange(9))), separators=(", ", ": "))
    for at in (sc._READ_CHUNK, 2 * sc._READ_CHUNK + 6, len(lines) - 1):
        for line, text in ((pi_bad, "record power function disagrees with recomputed one"),
                           (other, "record (p, n) = (3, 2) differs from the first "
                                   "record's (3, 3)")):
            broken = lines[:at] + [line] + lines[at + 1:]
            assert _read_refusal(path, broken) == "line %d: %s" % (at + 1, text)


@pytest.mark.parametrize("pi_first", [False, True])
def test_read_jsonl_names_the_first_bad_line_of_a_chunk(tmp_path, set72, pi_first):
    # a pi mismatch and a sigma refusal in one chunk, on lines 8 and 30:
    # the earlier line is named with its own text, whichever check comes
    # first in a record's order
    path = tmp_path / "set.jsonl"
    sc.write_jsonl(set72.skews, path)
    lines = path.read_text().splitlines()
    objs = [json.loads(line) for line in lines[:40]]
    pi_at, sigma_at = (7, 29) if pi_first else (29, 7)
    objs[pi_at]["pi"][-1] += 1
    objs[sigma_at]["sigma"] = 5
    broken = [json.dumps(o, separators=(", ", ": ")) for o in objs] + lines[40:]
    want = ("record power function disagrees with recomputed one" if pi_first
            else "record field 'sigma' is 5, not a list")
    assert _read_refusal(path, broken) == "line %d: %s" % (min(pi_at, sigma_at) + 1, want)


def test_read_jsonl_decodes_each_line_alone(tmp_path):
    # joined, the two lines would read as the JSON array [1, [2, 3]]
    text = _read_refusal(tmp_path / "two.jsonl", ["1, [2", "3]"])
    assert text.startswith("line 1: bad JSON (Extra data")


def test_read_jsonl_raises_p_and_n_refusals_as_they_are(tmp_path):
    # check_prime's and validate's ValueError, as validate raises them:
    # not a SkewValidationError, so with no line number
    first = json.dumps({"p": 3, "n": 1, "sigma": [0, 2, 1]})
    for record, text in (({"p": 4, "n": 1, "sigma": [0, 1, 2, 3]},
                          "p must be a prime <= 251, got 4"),
                         ({"p": 3, "n": 0, "sigma": [0]}, "n must be positive")):
        path = tmp_path / "bad.jsonl"
        path.write_text(first + "\n" + json.dumps(record) + "\n")
        with pytest.raises(ValueError) as ei:
            sc.read_jsonl(path)
        assert type(ei.value) is ValueError and str(ei.value) == text


def test_validate_leaves_the_callers_array_writable():
    # the member takes read-only views; the caller's own arrays keep their flags
    a = np.arange(9, dtype=K.IDX_DTYPE)
    sk = sc.validate(3, 2, a)
    assert a.flags.writeable
    assert not sk.images.flags.writeable and not sk.pi.flags.writeable
    pi = np.ones(9, dtype=K.IDX_DTYPE)
    sk = sc.SkewMorphism(3, 2, a, pi, 1)
    assert a.flags.writeable and pi.flags.writeable
    assert not sk.images.flags.writeable and not sk.pi.flags.writeable


def test_verify_and_groups_paths_leave_numpy_ma_unimported(tmp_path):
    # a plain 1-D np.unique imports numpy.ma (about 1 MB resident); the
    # read-back, classification, round trip and reference-group paths
    # call none
    script = """if True:
        import sys
        import skewmorph as sm
        path = sys.argv[1]
        sm.write_jsonl(sm.full_enum(3, 2).skews, path)
        skews = sm.read_jsonl(path)
        sm.sweep_classify(skews)
        for sk in skews:
            X = sm.build_skew_product(sk)
            FX = X.as_finite_group()
            gens = FX.generators[:sk.n]
            assert sm.extract_skew(FX, FX.subgroup(gens), X.sigma_pair(), gens) == sk
            X.derived_is_abelian()
        sm.build_and_verify_example("e1")
        print("numpy.ma" in sys.modules)
    """
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path / "s.jsonl")],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
