import hashlib

import numpy as np
import pytest

from skewmorph import _kernels as K
from skewmorph import enumeration as en
from skewmorph import fpalg
from skewmorph import skew_core as sc


def test_formula_count_values():
    assert en.formula_count(2, 1) == 1
    assert en.formula_count(2, 2) == 6
    assert en.formula_count(2, 3) == 168
    assert en.formula_count(3, 1) == 2
    assert en.formula_count(5, 1) == 4
    assert en.formula_count(7, 1) == 6
    assert en.formula_count(3, 2) == 64
    assert en.formula_count(5, 2) == 768
    assert en.formula_count(7, 2) == 3456
    assert en.formula_count(3, 3) == 13312
    assert en.formula_count(5, 3) == 2166528
    with pytest.raises(ValueError):
        en.formula_count(3, 4)
    with pytest.raises(ValueError):
        en.formula_count(6, 2)


def test_nonnormal_count_values():
    assert en.nonnormal_count(2, 2) == 0
    assert en.nonnormal_count(3, 1) == 0
    assert en.nonnormal_count(3, 2) == 16
    assert en.nonnormal_count(5, 2) == 288
    assert en.nonnormal_count(7, 2) == 1440
    assert en.nonnormal_count(3, 3) == 2080
    assert en.nonnormal_count(5, 3) == 678528
    # blocks add up: total = |GL| + non-normal
    for p, n in ((3, 2), (5, 2), (3, 3), (5, 3)):
        assert en.formula_count(p, n) == fpalg.gl_order(n, p) + en.nonnormal_count(p, n)


def test_small_brute_counts():
    assert en.brute_force_enum(2, 1).count_total == 1
    assert en.brute_force_enum(2, 2).count_total == 6
    assert en.brute_force_enum(3, 1).count_total == 2
    r = en.brute_force_enum(5, 1)
    assert r.count_total == 4
    assert r.count_aut == 4  # Z_p has only automorphisms


def test_enum_automorphisms():
    auts = en.enum_automorphisms(3, 2)
    assert len(auts) == fpalg.gl_order(2, 3) == 48
    assert all(a.is_automorphism() for a in auts)
    assert len({a.key() for a in auts}) == 48


def test_enum_nonnormal_n2():
    skews = en.enum_nonnormal_n2(3)
    assert len(skews) == 16
    assert all(not s.is_automorphism() for s in skews)
    assert all(s.k >= 2 and s.m == 1 for s in skews)


def test_structured_equals_brute(brute32, struct32):
    report = en.compare_sets(struct32.skews, brute32.skews)
    assert report["equal"]
    assert report["count_a"] == report["count_b"] == 64
    assert struct32.count_aut == brute32.count_aut == 48


def test_compare_sets_difference_witness(brute32):
    report = en.compare_sets(brute32.skews, brute32.skews[1:])
    assert not report["equal"]
    assert report["count_a"] == 64 and report["count_b"] == 63
    assert len(report["only_a"]) == 1
    assert report["only_b"] == []


def test_compare_sets_repeated_member_is_not_equal(brute32):
    once, twice = brute32.skews, brute32.skews + brute32.skews[:1]
    assert not en.compare_sets(once, twice)["equal"]
    assert not en.compare_sets(twice, once)["equal"]
    assert en.compare_sets(once, list(reversed(once)))["equal"]


@pytest.mark.parametrize("block", ["GL", "closure"])
def test_repeated_member_is_a_count_mismatch(monkeypatch, block):
    # nothing merges duplicates: a block that repeats one member overcounts
    enum_automorphisms, aut_closure = en.enum_automorphisms, en.aut_closure

    def gl(p, n):
        skews = enum_automorphisms(p, n)
        return skews + skews[:1]

    def closure(*args):
        count, skews = aut_closure(*args)
        return count, skews + skews[:1]

    if block == "GL":
        monkeypatch.setattr(en, "enum_automorphisms", gl)
    else:
        monkeypatch.setattr(en, "aut_closure", closure)
    res = en.full_enum(3, 2)
    assert not res.match and res.count_total == 65


def test_enum_path_builds_no_members(tmp_path, monkeypatch):
    # a set stays one block from the kernel to the JSONL file
    built = []
    init = sc.SkewMorphism.__init__

    def counting(self, *args):
        built.append(args[:2])
        init(self, *args)

    monkeypatch.setattr(sc.SkewMorphism, "__init__", counting)
    for p, n in ((7, 2), (3, 3)):
        res = en.full_enum(p, n)
        assert sc.write_jsonl(res.skews, tmp_path / "set.jsonl") == res.count_total
    assert built == []
    res.skews[0]
    assert built == [(3, 3)]


def test_aut_closure_fixes_complete_set(brute32):
    nonnormal = [s for s in brute32.skews if not s.is_automorphism()]
    count, closed = en.aut_closure(3, 2, nonnormal)
    assert count == len(closed) == 16
    assert {s.key() for s in closed} == {s.key() for s in nonnormal}
    # repeated seeds are one member each
    count, merged = en.aut_closure(3, 2, nonnormal[1:3] + nonnormal)
    assert count == len(merged) == 16
    assert merged.images.tobytes() == closed.images.tobytes()
    # a single seed already reaches its whole orbit inside the set
    count, orbit = en.aut_closure(3, 2, nonnormal[:1])
    assert {s.key() for s in orbit} <= {s.key() for s in nonnormal}
    assert count == len(orbit) > 1


def _seed_digest(seeds):
    h = hashlib.sha256()
    for s in seeds:
        h.update(np.asarray(s.images, dtype="<i2").tobytes())
    return h.hexdigest()


def _omega(p):
    return fpalg.omega_set(p)


def test_seed_digests():
    # sha256 of the concatenated seed images of the i = 1 configurations,
    # in sigma_2 order: the same rows as the i = 1 seeds extracted by the
    # affine-map code this enumeration started from
    seeds = {
        (5, 2): en._canonical_config_seeds(5, 2, en._scalar_sigma2_list(5)),
        (7, 2): en._canonical_config_seeds(7, 2, en._scalar_sigma2_list(7)),
        (3, 3): en._canonical_config_seeds(3, 3, _omega(3)),
        (5, 3): en._canonical_config_seeds(5, 3, _omega(5)),
    }
    assert {key: len(v) for key, v in seeds.items()} == {
        (5, 2): 3, (7, 2): 5, (3, 3): 10, (5, 3): 228}
    assert {key: _seed_digest(v) for key, v in seeds.items()} == {
        (5, 2): "32fc443632b8555d26a3eea49d7e19c6e716831903454764003c34c96b369d58",
        (7, 2): "6d0bf6ddb9b1d370afdedcc5a030320fa4de0da2997cc2a8e3f828617c638f5f",
        (3, 3): "e7701f294e74d8ddb77c026c279aa028c1feaa501b4be4129942a694924bb39b",
        (5, 3): "b63721378cb2d4328cebb172b13c44a14e892d784f46c9e09d29f46eb966e43c",
    }


def test_seed_needs_a_regular_group(monkeypatch):
    # every row the identity: all of G fixes 0, so psi is no bijection
    monkeypatch.setattr(en, "_config_group",
                        lambda p, n: np.tile(np.arange(p ** n), (p ** n, 1)))
    with pytest.raises(ValueError, match="not regular"):
        en._canonical_config_seeds(3, 2, en._scalar_sigma2_list(3))


def test_count_only_flag_is_honoured_or_refused():
    res = en.full_enum(3, 3, count_only=True)
    assert res.skews is None
    assert res.count_total == 13312 and res.count_nonaut == 2080
    assert res.sample_validated > 0
    for p, n, method in ((3, 2, "structured"), (2, 3, "structured"),
                         (3, 1, "structured"), (3, 3, "both"), (3, 3, "brute")):
        with pytest.raises(ValueError):
            en.full_enum(p, n, method=method, count_only=True)


def test_count_only_path_at_33(set33):
    nn, count, validated = en.enum_nonnormal_n3(3, count_only=True, sample_rate=0.05)
    assert nn is None
    assert count == 2080
    # the 10 seeds plus every 20th member in breadth-first closure order
    assert validated == 114
    full = {s.key() for s in set33.skews if not s.is_automorphism()}
    assert count == len(full)


def test_count_only_samples_fixed_closure_positions():
    # the seeds plus closure positions 20, 40, ...: the digest pins which
    # members the stride validates, not only how many
    seeds = en._canonical_config_seeds(3, 3, _omega(3))
    count, checked = en.aut_closure(3, 3, seeds, 20)
    assert (count, len(checked)) == (2080, 114)
    assert _seed_digest(checked) == \
        "f7e26c55ca22a98d824338e3b08aa03c5c1a92012cea52c527af8e4eb351e83c"


@pytest.fixture
def kernel_rows(monkeypatch):
    """The rows of every validation kernel call, one count per call."""
    rows = []
    validate_images, validate_many = K.validate_images, K.validate_many

    def one(p, n, images):
        rows.append(1)
        return validate_images(p, n, images)

    def many(p, n, batch):
        rows.append(len(batch))
        return validate_many(p, n, batch)

    monkeypatch.setattr(K, "validate_images", one)
    monkeypatch.setattr(K, "validate_many", many)
    return rows


def test_each_member_validated_once(monkeypatch, kernel_rows):
    seeds = []
    config_seeds = en._canonical_config_seeds

    def counted_seeds(*args, **kwargs):
        out = config_seeds(*args, **kwargs)
        seeds.extend(out)
        return out

    monkeypatch.setattr(en, "_canonical_config_seeds", counted_seeds)
    res = en.full_enum(3, 3)
    assert res.count_total == 13312 and len(seeds) == 10
    # the seeds are distinct, so every member goes through a kernel once
    assert sum(kernel_rows) == res.count_total


@pytest.mark.parametrize("p,n,leaves", [(3, 2, 100), (2, 3, 210)])
@pytest.mark.parametrize("method", ["brute", "both"])
def test_brute_routes_validate_each_leaf_once(kernel_rows, p, n, leaves, method):
    res = en.full_enum(p, n, method=method)
    assert res.match
    # the search leaves in one call, plus each structured member once
    assert sum(kernel_rows) == leaves + (res.count_total if method == "both" else 0)
    assert len(K.brute_images(p, n)) == leaves


def test_sampled_gl_validation():
    assert en._sampled_gl_validation(3, 2, 0.1) >= 4


def _sampled_gl_by_loop(p, n, rate):
    # the draw as a loop over the matrices, one dict entry each
    stride = max(1, int(round(1.0 / rate)))
    target = -(-fpalg.gl_order(n, p) // stride)
    rng = np.random.default_rng(0)
    picked = {}
    while len(picked) < target:
        ms = rng.integers(0, p, size=(max(64, target), n, n))
        ms = ms[fpalg.mat_det(ms, p) != 0]
        for m in ms:
            picked.setdefault(m.tobytes(), m)
            if len(picked) >= target:
                break
    return fpalg.matrix_to_perm(np.stack(list(picked.values())), p)


@pytest.mark.parametrize("p,n,rate", [(3, 2, 0.1), (5, 3, 0.01)])
def test_sampled_gl_matches_the_loop(monkeypatch, p, n, rate):
    # the same matrices in the same order as the draw one matrix at a time
    batches = []
    validate_many = K.validate_many

    def many(p, n, batch):
        batches.append(batch)
        return validate_many(p, n, batch)

    monkeypatch.setattr(K, "validate_many", many)
    assert en._sampled_gl_validation(p, n, rate) == len(batches[0])
    assert (batches[0] == _sampled_gl_by_loop(p, n, rate)).all()


def test_full_enum_rejects_bad_config():
    with pytest.raises(ValueError):
        en.full_enum(3, 4)
    with pytest.raises(ValueError):
        en.full_enum(9, 2)
    with pytest.raises(ValueError):
        en.full_enum(3, 2, method="magic")
    # a rate outside (0, 1] is refused up front, before the count-only run
    # that would divide by it
    for rate in (0, -0.5, 7, float("nan")):
        with pytest.raises(ValueError, match=r"sample rate must be in \(0, 1\]"):
            en.full_enum(3, 3, count_only=True, sample_rate=rate)


def test_result_row_and_csv(tmp_path, struct32):
    row = struct32.csv_row()
    assert row == [3, 2, "structured", 64, 48, 16, 64, True]
    path = tmp_path / "summary.csv"
    en.write_summary_csv([struct32], path)
    text = path.read_text()
    assert text.splitlines()[0] == ",".join(en.CSV_COLUMNS)
    assert "3,2,structured,64,48,16,64,True" in text


def test_orders_divide_structure(struct32, set33):
    for res in (struct32, set33):
        pn = res.p ** res.n
        for sk in res.skews:
            assert sk.order <= pn - 1
            assert sk.order == sk.k * res.p ** sk.m
            assert sk.k % res.p != 0


def test_sampled_gl_failing_row_is_a_finding(monkeypatch):
    # sampled row 3 with the images of points 1 and 2 swapped
    real = fpalg.matrix_to_perm
    bad = []

    def swapped(M, p):
        rows = real(M, p)
        rows[3, [1, 2]] = rows[3, [2, 1]]
        bad.append(rows[3])
        return rows

    monkeypatch.setattr(fpalg, "matrix_to_perm", swapped)
    with pytest.raises(AssertionError) as ei:
        en._sampled_gl_validation(3, 2, 0.1)
    status, _, _, witness = K.validate_images(3, 2, bad[0])
    assert str(ei.value) == ("p=3 n=2: sampled GL member 3 fails validation (status %d): %s"
                             % (status, sc.status_message(status, witness)))


@pytest.mark.parametrize("point, value, reason", [
    (4, -1, "images are not a permutation fixing 0"),
    (4, 9, "images are not a permutation fixing 0"),
    # the images of 1 and 2 swapped: a permutation fixing 0, no skew-morphism
    ([1, 2], [2, 1], "f_x is no power of sigma"),
], ids=["minus-one", "p**n", "power-law"])
def test_validated_rows_names_block_member_and_reason(point, value, reason):
    # computed rows skip the cast check of validate: the kernel refuses them
    rows = fpalg.matrix_to_perm(fpalg.gl_matrices_array(2, 3), 3)
    rows[7, point] = rows[7, value] if isinstance(value, list) else value
    with pytest.raises(AssertionError, match=r"p=3 n=2: GL member 17 fails validation "
                                             r"\(status \d\): " + reason):
        en._validated_rows(3, 2, rows, "GL", index=np.arange(10, 58))
