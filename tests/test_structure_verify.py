import json

import numpy as np
import pytest

from skewmorph import group_engine as ge
from skewmorph import skew_core as sc
from skewmorph import structure_verify as sv

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
