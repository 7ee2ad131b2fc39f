"""Acceptance gate: eight criteria, each one test, each one pass/fail line.

Every count is an exact integer, tolerance zero.  The heavy enumerations
come from session fixtures so the criteria share one computation of each
set; runtime-budgeted criteria time their own fresh runs instead.
"""

import time

import numpy as np

from skewmorph import _kernels as K
from skewmorph import cli
from skewmorph import enumeration as en
from skewmorph import fpalg
from skewmorph import group_engine as ge
from skewmorph import skew_core as sc
from skewmorph import structure_verify as sv


def _line(k, detail):
    print("criterion %d: PASS — %s" % (k, detail))


def _claim(report, label):
    matches = [c for c in report.claims if c.label == label]
    assert len(matches) == 1, "claim %r not found uniquely" % label
    return matches[0]


def test_criterion_1_brute_force_counts():
    expected = {(2, 1): 1, (2, 2): 6, (2, 3): 168,
                (3, 1): 2, (5, 1): 4, (7, 1): 6, (3, 2): 64}
    timings = {}
    for (p, n), want in expected.items():
        t0 = time.monotonic()
        res = en.brute_force_enum(p, n)
        timings[(p, n)] = time.monotonic() - t0
        assert res.count_total == want, (p, n, res.count_total)
        assert res.count_total == res.formula_value
        assert timings[(p, n)] < 60.0, "brute (%d,%d) took %.1fs" % (p, n, timings[(p, n)])
    _line(1, "brute counts %s, slowest %.2fs" % (
        sorted(expected.values()), max(timings.values())))


def test_criterion_2_structured_equals_brute_32(brute32):
    t0 = time.monotonic()
    res = en.full_enum(3, 2, method="structured")
    dt = time.monotonic() - t0
    assert dt < 60.0, "structured (3,2) took %.1fs" % dt
    report = en.compare_sets(res.skews, brute32.skews)
    assert report["equal"], report
    assert report["count_a"] == report["count_b"] == 64
    _line(2, "structured (3,2) = brute elementwise, 64 members in %.2fs" % dt)


def test_criterion_3_structured_counts(set52, set72, set33):
    assert set52.count_total == 768
    assert set72.count_total == 3456
    t0 = time.monotonic()
    res33 = en.full_enum(3, 3, method="structured")
    dt33 = time.monotonic() - t0
    assert dt33 < 300.0, "(3,3) took %.1fs" % dt33
    assert res33.count_total == 13312
    assert len(res33.skews) == 13312
    # every member individually validated, replayed here through the kernel
    batch = np.stack([s.images for s in res33.skews])
    assert (K.validate_many(3, 3, batch)[0] == K.OK).all()
    assert en.compare_sets(res33.skews, set33.skews)["equal"]

    t0 = time.monotonic()
    res53 = en.full_enum(5, 3, method="structured")
    dt53 = time.monotonic() - t0
    assert dt53 < 1800.0, "(5,3) took %.1fs" % dt53
    assert res53.count_total == 2166528
    assert res53.skews is None
    assert res53.sample_validated >= 2166528 // 100, res53.sample_validated
    _line(3, "(5,2)=768 (7,2)=3456 (3,3)=13312 in %.1fs all-validated, "
             "(5,3)=2166528 in %.1fs with %d sampled" % (
                 dt33, dt53, res53.sample_validated))


def test_criterion_4_automorphism_subcounts(struct32, set33, set52):
    assert struct32.count_aut == 48 == fpalg.gl_order(2, 3)
    assert set33.count_aut == 11232 == fpalg.gl_order(3, 3)
    assert set52.count_aut == 480 == fpalg.gl_order(2, 5)
    for res in (struct32, set33, set52):
        direct = sum(1 for s in res.skews if s.is_automorphism())
        assert direct == res.count_aut
    _line(4, "automorphism blocks 48 / 11232 / 480 match |GL(n,p)|")


def test_criterion_5_omega_sizes(capsys):
    assert len(fpalg.omega_set(3)) == 10
    assert len(fpalg.omega_set(5)) == 228
    assert fpalg.omega_formula_derivation(3) == 10
    assert fpalg.omega_formula_derivation(5) == 228
    # the factored closed form disagrees at p=3 and the report must say so
    assert fpalg.omega_formula_printed(3) == 14 != 10
    assert cli.main(["omega", "--p", "3"]) == 0
    out = capsys.readouterr().out
    assert "MISMATCH" in out and "two closed forms disagree" in out
    _line(5, "|Omega| = 10 (p=3), 228 (p=5); factored formula mismatch flagged")


def test_criterion_6_example_claims(example_reports):
    e1, e2, e3 = (example_reports[t] for t in ("e1", "e2", "e3"))
    for rep in (e1, e2, e3):
        assert rep.ok, "\n".join(rep.lines())

    assert _claim(e2, "|X|").computed == 54
    assert _claim(e2, "G elementary abelian rank").computed == 2
    assert _claim(e2, "G normal in P").computed is True
    assert _claim(e2, "G normal in X").computed is False
    assert _claim(e2, "core of G in X: order").computed == 3

    assert _claim(e3, "|X|").computed == 4374
    assert _claim(e3, "G elementary abelian rank").computed == 5
    assert _claim(e3, "G normal in P").computed is False
    assert _claim(e3, "core of G in P: rank").computed == 4

    assert _claim(e1, "|X|").computed == 729
    assert _claim(e1, "G normal in X").computed is False
    assert _claim(e1, "core of <sigma> in X: order").computed == 1
    assert _claim(e1, "any rank-4 normal subgroup complemented").computed is False
    assert _claim(e1, "core of G in X: rank").computed == 3
    assert any("core rank" in f for f in e1.flags)
    _line(6, "e1/e2/e3 claim tables all verified (%d/%d/%d claims), "
             "core-rank discrepancy flagged" % (len(e1.claims), len(e2.claims), len(e3.claims)))


def test_criterion_7_theorem1_sweep(small_brutes, struct32, set33, set52, set72):
    sets = list(small_brutes.values()) + [struct32, set33, set52, set72]
    total = 0
    violations = []
    for res in sets:
        out = sv.verify_theorem1(res.skews)
        total += out["total"]
        violations += out["violations"]
        for sk, rep in zip(res.skews, out["reports"]):
            assert rep.p_normal_in_x
            assert rep.core_rank in (res.n, res.n - 1)
            assert (rep.case == sv.CASE_1) == (sk.m == 0 or res.p == 2)
            if sk.order > 1:
                assert rep.g_normal_in_x == bool((np.asarray(sk.pi) == 1).all())
            else:
                assert rep.g_normal_in_x
    hist33 = {}
    for sk in set33.skews:
        case = sv.classify(sk).case
        hist33[case] = hist33.get(case, 0) + 1
    assert hist33 == {"thm1-1": 7904, "thm1-2-normal": 728,
                      "thm1-3-normal": 2600, "thm1-3-GnormalP": 2080}
    assert violations == []
    _line(7, "zero violations across %d instances in %d enumerations" % (total, len(sets)))


def test_criterion_8_property_suites(small_brutes, struct32, set33, set52, set72,
                                     example_reports):
    sets = {key: res for key, res in small_brutes.items()}
    sets[(3, 2, "s")] = struct32
    sets[(5, 2, "s")] = set52
    sets[(7, 2, "s")] = set72
    sets[(3, 3, "s")] = set33

    # build/extract round-trip and abelian derived subgroup on every member
    built = 0
    for res in sets.values():
        for sk in res.skews:
            spg = sc.SkewProductGroup(sk, check=False)
            X = spg.as_finite_group()
            gens = X.generators[: sk.n]
            G = X.subgroup(gens)
            sk2 = sc.extract_skew(X, G, spg.sigma_pair(), gens)
            assert sk2 == sk and (np.asarray(sk2.pi) == np.asarray(sk.pi)).all()
            assert spg.derived_is_abelian()
            built += 1

    # order bound and p-part bound
    for res in sets.values():
        pn = res.p ** res.n
        for sk in res.skews:
            assert sk.order <= pn - 1
            if res.p != 2 and res.n in (2, 3):
                assert sk.m <= 1  # p^2 never divides the order

    # metabelian commutator identity, 100 random triples per example group
    rng = np.random.default_rng(0)
    for tag in ("e1", "e2", "e3"):
        X = example_reports[tag].data["group"]["X"]
        assert ge.is_metabelian(X)
        elems = X.elements
        for _ in range(100):
            a = elems[rng.integers(len(elems))]
            b = elems[rng.integers(len(elems))]
            nexp = int(rng.integers(1, 5))
            assert ge.metabelian_identity_check(X, a, b, nexp, assume_metabelian=True)

    # Omega_1 shapes: e1's X and the metacyclic control
    e1 = example_reports["e1"]
    assert _claim(e1, "Omega_1(X) order").computed == 243
    assert _claim(e1, "Omega_1(X) = <G, z>").computed is True
    assert sv.metacyclic_omega1_control()["ok"]

    # closure under coprime powers and automorphism conjugation
    keys32 = {s.key() for s in struct32.skews}
    mats = [fpalg.matrix(rows, 3) for rows in (((1, 1), (0, 1)), ((2, 0), (0, 1)),
                                               ((0, 1), (1, 0)), ((1, 0), (2, 1)))]
    for sk in struct32.skews:
        for j in range(1, sk.order):
            if np.gcd(j, sk.order) == 1:
                assert sc.power_coprime(sk, j).key() in keys32
        for M in mats:
            assert sc.aut_conjugate(sk, M).key() in keys32
    keys33 = {s.key() for s in set33.skews}
    M3 = fpalg.canonical_unipotent(3, 3)
    for sk in set33.skews[::50]:
        for j in range(1, sk.order):
            if np.gcd(j, sk.order) == 1:
                assert sc.power_coprime(sk, j).key() in keys33
        assert sc.aut_conjugate(sk, M3).key() in keys33
    _line(8, "round-trip + metabelian products on %d built groups, identity on "
             "300 triples, order bounds, Omega_1 shapes, closure properties" % built)
