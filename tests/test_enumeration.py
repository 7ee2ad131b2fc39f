import numpy as np
import pytest

from skewmorph import _kernels as K
from skewmorph import enumeration as en
from skewmorph import fpalg


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


def test_aut_closure_fixes_complete_set(brute32):
    nonnormal = [s for s in brute32.skews if not s.is_automorphism()]
    closed = en.aut_closure(3, 2, nonnormal)
    assert len(closed) == 16
    assert {s.key() for s in closed} == {s.key() for s in nonnormal}
    # a single seed already reaches its whole orbit inside the set
    orbit = en.aut_closure(3, 2, nonnormal[:1])
    assert {s.key() for s in orbit} <= {s.key() for s in nonnormal}
    assert len(orbit) > 1


def test_count_only_path_at_33(set33):
    nn, count, validated = en.enum_nonnormal_n3(3, count_only=True, sample_rate=0.05)
    assert nn is None
    assert count == 2080
    # the 20 seeds plus every 20th member in breadth-first closure order
    assert validated == 123
    full = {s.key() for s in set33.skews if not s.is_automorphism()}
    assert count == len(full)


def test_each_member_validated_once(monkeypatch):
    kernel_rows = []
    seeds = []
    validate_images, validate_many = K.validate_images, K.validate_many
    config_seeds = en._canonical_config_seeds

    def one(p, n, images):
        kernel_rows.append(1)
        return validate_images(p, n, images)

    def many(p, n, batch):
        kernel_rows.append(len(batch))
        return validate_many(p, n, batch)

    def counted_seeds(*args, **kwargs):
        out = config_seeds(*args, **kwargs)
        seeds.extend(out)
        return out

    monkeypatch.setattr(K, "validate_images", one)
    monkeypatch.setattr(K, "validate_many", many)
    monkeypatch.setattr(en, "_canonical_config_seeds", counted_seeds)
    res = en.full_enum(3, 3)
    assert res.count_total == 13312 and len(seeds) == 20
    # a seed is validated when extracted, every other member once
    assert sum(kernel_rows) <= res.count_total + len(seeds)


def test_sampled_gl_validation():
    assert en._sampled_gl_validation(3, 2, 0.1) >= 4


def test_full_enum_rejects_bad_config():
    with pytest.raises(ValueError):
        en.full_enum(3, 4)
    with pytest.raises(ValueError):
        en.full_enum(9, 2)
    with pytest.raises(ValueError):
        en.full_enum(3, 2, method="magic")


def test_result_row_and_csv(tmp_path, struct32):
    row = struct32.csv_row()
    assert row == [3, 2, "structured", 64, 48, 16, 64, True]
    path = tmp_path / "summary.csv"
    en.write_summary_csv([struct32], path)
    text = path.read_text()
    assert text.splitlines()[0] == ",".join(en.CSV_COLUMNS)
    assert "3,2,structured,64,48,16,64,True" in text


def test_workers_agree_with_serial():
    serial = en.enum_nonnormal_n2(5, workers=1)
    parallel = en.enum_nonnormal_n2(5, workers=2)
    assert {s.key() for s in serial} == {s.key() for s in parallel}
    assert len(serial) == 288


def test_orders_divide_structure(struct32, set33):
    for res in (struct32, set33):
        pn = res.p ** res.n
        for sk in res.skews:
            assert sk.order <= pn - 1
            assert sk.order == sk.k * res.p ** sk.m
            assert sk.k % res.p != 0
