import dataclasses
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from skewmorph import _kernels as K
from skewmorph import cli
from skewmorph import enumeration as en
from skewmorph import skew_core as sc
from skewmorph import structure_verify as sv


def run_cli(argv):
    return cli.main(argv)


def test_enum_32_both(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli(["enum", "--p", "3", "--n", "2", "--method", "both",
                    "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "total 64 = 48 automorphisms + 16 non-normal" in text
    jsonl = out / "skews_p3_n2_both.jsonl"
    assert len(jsonl.read_text().splitlines()) == 64
    csv = (out / "summary_p3_n2_both.csv").read_text()
    assert "3,2,both,64,48,16,64,True" in csv


def test_enum_brute_23(tmp_path, capsys):
    code = run_cli(["enum", "--p", "2", "--n", "3", "--method", "brute",
                    "--out", str(tmp_path)])
    assert code == 0
    jsonl = tmp_path / "skews_p2_n3_brute.jsonl"
    assert len(jsonl.read_text().splitlines()) == 168


def test_enum_brute_past_its_cap_exits_2(tmp_path, capsys):
    assert run_cli(["enum", "--p", "5", "--n", "2", "--method", "brute",
                    "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: exhaustive search capped at p**n <= 9, got 25\n"
    assert list(tmp_path.iterdir()) == []


def test_enum_invalid_n():
    with pytest.raises(SystemExit) as ei:
        run_cli(["enum", "--p", "3", "--n", "4"])
    assert ei.value.code == 2


def test_enum_composite_p(capsys):
    assert run_cli(["enum", "--p", "4", "--n", "2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_enum_bad_sample_rate(tmp_path):
    for rate in ("0", "nan"):
        assert run_cli(["enum", "--p", "3", "--n", "2", "--out", str(tmp_path),
                        "--sample-rate", rate]) == 2


def test_enum_count_mismatch_exits_1(tmp_path, monkeypatch):
    def boom(*a, **kw):
        raise AssertionError("count off by one")
    monkeypatch.setattr(en, "full_enum", boom)
    assert run_cli(["enum", "--p", "3", "--n", "2", "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("argv, failing_call, failing_row, stream, message", [
    (["--p", "3", "--n", "2"], 1, 4, "err", "p=3 n=2: GL member 4 fails validation (status 2)"),
    # the GL block is the first batch and the one seed the second
    (["--p", "3", "--n", "2"], 2, 0, "err",
     "p=3 n=2: seed member 0 fails validation (status 2)"),
    # the seed comes first in the closure
    (["--p", "3", "--n", "2"], 3, 0, "err",
     "p=3 n=2: closure member 1 fails validation (status 2)"),
    # the brute route validates its search leaves in one batch: a rejected
    # leaf is no member, so the count falls short of the formula
    (["--p", "2", "--n", "2", "--method", "brute"], 1, 0, "out",
     "total 5 = 5 automorphisms + 0 non-normal; formula 6"),
], ids=["GL", "seed", "closure", "brute"])
def test_enum_member_failing_validation_is_a_finding(tmp_path, monkeypatch, capsys, argv,
                                                     failing_call, failing_row, stream, message):
    real = K.validate_many
    calls = []

    def flaky(p, n, batch):
        calls.append(1)
        status, order, pi, witness = real(p, n, batch)
        if len(calls) == failing_call:
            status[failing_row], witness[failing_row] = K.NO_POWER_MATCH, 1
        return status, order, pi, witness

    monkeypatch.setattr(K, "validate_many", flaky)
    assert run_cli(["enum"] + argv + ["--out", str(tmp_path)]) == 1
    assert message in getattr(capsys.readouterr(), stream)


def test_enum_count_only_run_reports_hashed_and_sampled(tmp_path, monkeypatch, capsys):
    # (3,3) made count-only: the same report line as a (5,3) run, at 0.04 s
    real = en.full_enum
    monkeypatch.setattr(cli.en, "full_enum",
                        lambda *a, **kw: real(*a, **dict(kw, count_only=True)))
    assert run_cli(["enum", "--p", "3", "--n", "3", "--out", str(tmp_path)]) == 0
    text = capsys.readouterr().out
    assert "count-only run: 13312 members hashed, 143 validated by sampling" in text
    assert "total 13312 = 11232 automorphisms + 2080 non-normal" in text
    assert (tmp_path / "summary_p3_n3_structured.csv").is_file()
    assert not list(tmp_path.glob("*.jsonl"))


def test_enum_unfinishable_config_exits_2_at_once(tmp_path, monkeypatch, capsys):
    # the figure of a 7 GB host, whatever this host has
    monkeypatch.setattr(en, "physical_memory_bytes", lambda: 7 * 10 ** 9)
    t0 = time.monotonic()
    assert run_cli(["enum", "--p", "7", "--n", "3", "--out", str(tmp_path)]) == 2
    assert "20191680 member keys of 686 bytes" in capsys.readouterr().err
    # 37**3 points overflow the int16 index tables
    assert run_cli(["enum", "--p", "37", "--n", "3", "--out", str(tmp_path)]) == 2
    assert "index range" in capsys.readouterr().err
    assert time.monotonic() - t0 < 5
    en._check_fits(5, 3, True)  # (5,3) needs 170 MB and still runs
    # materialized runs: the GL step of (29,2) and (5,3) would not fit
    with pytest.raises(ValueError, match=r"\(29,2\) would build GL through two int64 arrays "
                                         r"of 682080 x 841 x 2, 18.4 GB"):
        en._check_fits(29, 2, False)
    with pytest.raises(ValueError, match="1488000 x 125 x 3, 8.9 GB"):
        en._check_fits(5, 3, False)
    en._check_fits(23, 2, False)


def test_enum_materialized_run_that_cannot_fit_exits_2(tmp_path, monkeypatch, capsys):
    # a host of 1 MB: without the check this small run would pass
    monkeypatch.setattr(en, "physical_memory_bytes", lambda: 10 ** 6)
    assert run_cli(["enum", "--p", "7", "--n", "2", "--out", str(tmp_path)]) == 2
    assert "materialized (7,2) would build GL" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_verify_round(tmp_path, capsys):
    out = tmp_path / "run"
    run_cli(["enum", "--p", "3", "--n", "2", "--out", str(out)])
    capsys.readouterr()
    jsonl = out / "skews_p3_n2_structured.jsonl"
    code = run_cli(["verify", "--in", str(jsonl), "--affine", "all"])
    assert code == 0
    text = capsys.readouterr().out
    assert "thm1-1                     32" in text
    assert "violations 0" in text
    classified = jsonl.with_name(jsonl.name + ".classified")
    rows = [json.loads(line) for line in classified.read_text().splitlines()]
    assert len(rows) == 64
    assert all("case" in r and "affine_T_found" in r for r in rows)


def test_verify_explicit_out(tmp_path, capsys):
    out = tmp_path / "run"
    run_cli(["enum", "--p", "3", "--n", "2", "--out", str(out)])
    target = tmp_path / "classified.jsonl"
    code = run_cli(["verify", "--in", str(out / "skews_p3_n2_structured.jsonl"),
                    "--out", str(target), "--affine", "none"])
    assert code == 0
    assert target.exists()


def test_verify_corrupt_record(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"p": 3, "n": 2, "sigma": [0, 1, 1, 3, 4, 5, 6, 7, 8]}\n')
    assert run_cli(["verify", "--in", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    bad.write_text("{broken\n")
    assert run_cli(["verify", "--in", str(bad)]) == 2


IDENTITY_32 = '{"p": 3, "n": 2, "sigma": [0, 1, 2, 3, 4, 5, 6, 7, 8]}'


@pytest.mark.parametrize("line", [
    "5",
    "[0, 1, 2]",
    '{"p": null, "n": 2, "sigma": [0, 1, 2, 3, 4, 5, 6, 7, 8]}',
    '{"p": 3, "n": null, "sigma": [0, 1, 2, 3, 4, 5, 6, 7, 8]}',
    '{"p": 3, "n": 2, "sigma": null}',
    '{"p": 3, "n": 2, "sigma": [0, 1, 2, 3, 4, 5, 6, 7, 8], "pi": null}',
    '{"p": 3, "n": 2, "sigma": [0, 1, 2, 3, 4, 5, 6, 7, 8], "order": null}',
], ids=["int", "list", "null-p", "null-n", "null-sigma", "null-pi", "null-order"])
def test_verify_malformed_record_exits_2_naming_the_line(tmp_path, capsys, line):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(IDENTITY_32 + "\n\n" + line + "\n")
    assert run_cli(["verify", "--in", str(bad)]) == 2
    captured = capsys.readouterr()
    assert "error: line 3: " in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("sigma, index", [
    ("[0, 65538, 65537]", 1), ("[0, 2.7, 1]", 1), ("[0, 2, true]", 2)],
    ids=["wrap", "float", "bool"])
def test_verify_refuses_values_the_cast_would_change(tmp_path, capsys, sigma, index):
    # each would read as the valid [0, 2, 1] through an int16 cast
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"p": 3, "n": 1, "sigma": %s}\n' % sigma)
    assert run_cli(["verify", "--in", str(bad)]) == 2
    captured = capsys.readouterr()
    assert "error: line 1: " in captured.err and "index %d" % index in captured.err
    assert captured.out == ""
    assert not (tmp_path / "bad.jsonl.classified").exists()


def test_verify_refuses_a_wrong_automorphism_flag(tmp_path, capsys):
    # the flag of an order-8 automorphism flipped, or another's set to "yes"
    path = tmp_path / "set.jsonl"
    sc.write_jsonl(en.full_enum(3, 2).skews, path)
    lines = path.read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if '"order": 8,' in line
              and line.endswith('"automorphism": true}'))
    flipped = lines[at].replace('"automorphism": true', '"automorphism": false')
    other = lines[at - 1][:lines[at - 1].rindex(":")] + ': "yes"}'
    for i, line, message in ((at, flipped, "'automorphism' = false disagrees with "
                                            "recomputed true"),
                             (at - 1, other, "'automorphism' is \"yes\", not a boolean")):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines[:i] + [line] + lines[i + 1:]) + "\n")
        assert run_cli(["verify", "--in", str(bad)]) == 2
        captured = capsys.readouterr()
        assert "error: line %d: record field %s" % (i + 1, message) in captured.err
        assert captured.out == ""
        assert not (tmp_path / "bad.jsonl.classified").exists()


def test_verify_refuses_a_file_that_mixes_p_and_n(tmp_path, capsys):
    bad = tmp_path / "mixed.jsonl"
    bad.write_text(IDENTITY_32 + "\n\n" + '{"p": 3, "n": 1, "sigma": [0, 2, 1]}' + "\n")
    assert run_cli(["verify", "--in", str(bad)]) == 2
    captured = capsys.readouterr()
    assert ("error: line 3: record (p, n) = (3, 1) differs from the first record's (3, 2)"
            in captured.err)
    assert captured.out == ""
    assert not (tmp_path / "mixed.jsonl.classified").exists()
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert run_cli(["verify", "--in", str(empty)]) == 0
    assert "records 0, violations 0" in capsys.readouterr().out


@pytest.mark.parametrize("rate", ["-3", "7", "1.5", "nan"])
def test_verify_refuses_sample_rate_outside_unit_interval(tmp_path, capsys, rate):
    path = tmp_path / "one.jsonl"
    path.write_text(IDENTITY_32 + "\n")
    assert run_cli(["verify", "--in", str(path), "--sample-rate", rate]) == 2
    captured = capsys.readouterr()
    assert "--sample-rate" in captured.err and captured.out == ""
    assert not (tmp_path / "one.jsonl.classified").exists()
    for edge in ("0", "1"):
        assert run_cli(["verify", "--in", str(path), "--sample-rate", edge]) == 0


def test_example_commands(capsys):
    assert run_cli(["example", "e2"]) == 0
    text = capsys.readouterr().out
    assert "e2: 16 claims, all verified" in text
    assert "FAIL" not in text
    with pytest.raises(SystemExit) as ei:
        run_cli(["example", "e9"])
    assert ei.value.code == 2


def test_omega_commands(capsys):
    assert run_cli(["omega", "--p", "3"]) == 0
    text = capsys.readouterr().out
    assert "|Omega(3)| = 10" in text
    assert "MISMATCH" in text
    assert run_cli(["omega", "--p", "2"]) == 2
    assert run_cli(["omega", "--p", "17"]) == 2
    assert run_cli(["omega", "--p", "9"]) == 2


def test_bench(capsys):
    assert run_cli(["bench", "--p", "3", "--n", "2", "--repeat", "1"]) == 0
    text = capsys.readouterr().out
    for name in ("numpy", "validate_many", "validate_images"):
        assert name in text
    # each kernel timed on the 48 automorphisms and on the 16 other rows
    assert "48 automorphism rows" in text and "16 other rows" in text
    for name in ("validate_many", "validate_images"):
        assert text.count(name) == 2
    assert run_cli(["bench", "--p", "2", "--n", "2", "--repeat", "1"]) == 0
    assert "no other rows" in capsys.readouterr().out


@pytest.mark.parametrize("repeat", ["0", "-2"])
def test_bench_refuses_repeat_below_one(capsys, repeat):
    t0 = time.perf_counter()
    assert run_cli(["bench", "--p", "3", "--n", "2", "--repeat", repeat]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--repeat" in err
    assert time.perf_counter() - t0 < 1.0


def test_console_script_wired():
    out = subprocess.run([sys.executable, "-m", "skewmorph.cli", "--help"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "enum" in out.stdout and "verify" in out.stdout


def test_enum_byte_determinism(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_cli(["enum", "--p", "3", "--n", "2", "--out", str(a)])
    run_cli(["enum", "--p", "3", "--n", "2", "--out", str(b)])
    fa = a / "skews_p3_n2_structured.jsonl"
    fb = b / "skews_p3_n2_structured.jsonl"
    assert fa.read_bytes() == fb.read_bytes()
    assert (a / "summary_p3_n2_structured.csv").read_bytes() == \
           (b / "summary_p3_n2_structured.csv").read_bytes()


def test_enum_workers_flag_is_refused(tmp_path, capsys):
    # the flag is gone: argparse refuses it with exit 2 before any run
    with pytest.raises(SystemExit) as exc:
        run_cli(["enum", "--p", "5", "--n", "2", "--workers", "2", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def _closure_with(monkeypatch, change):
    # aut_closure with its (count, block) passed through change
    real = en.aut_closure
    monkeypatch.setattr(en, "aut_closure", lambda *a, **kw: change(*real(*a, **kw)))


def test_enum_nonnormal_count_off_is_a_finding(tmp_path, monkeypatch, capsys):
    _closure_with(monkeypatch, lambda count, block: (count - 1, block.take(np.s_[1:])))
    assert run_cli(["enum", "--p", "3", "--n", "2", "--out", str(tmp_path)]) == 1
    assert "non-normal closure gives 15 instances, formula says 16" in capsys.readouterr().err


def test_enum_leaked_automorphism_is_a_finding(tmp_path, monkeypatch, capsys):
    # one member swapped for a GL row: the count still matches the formula
    gl = en.enum_automorphisms(3, 2)
    _closure_with(monkeypatch, lambda count, block: (
        count, sc.member_block(3, 2, [block.take(np.s_[1:]), gl.take([5])])))
    assert run_cli(["enum", "--p", "3", "--n", "2", "--out", str(tmp_path)]) == 1
    assert "automorphism leaked into the non-normal set" in capsys.readouterr().err


def test_enum_both_with_a_brute_member_dropped_is_a_finding(tmp_path, monkeypatch, capsys):
    real = en.brute_force_enum

    def short(p, n):
        res = real(p, n)
        return dataclasses.replace(res, skews=res.skews.take(np.s_[1:]))

    monkeypatch.setattr(en, "brute_force_enum", short)
    assert run_cli(["enum", "--p", "3", "--n", "2", "--method", "both",
                    "--out", str(tmp_path)]) == 1
    assert "structured and brute sets differ" in capsys.readouterr().err


def test_verify_counts_violations_and_affine_misses(tmp_path, monkeypatch, capsys):
    run_cli(["enum", "--p", "3", "--n", "2", "--out", str(tmp_path)])
    capsys.readouterr()
    real_sweep, real_violations = sv.sweep_classify, sv.theorem1_violations

    def sweep(*a, **kw):
        # the first record whose affine search ran finds no T
        rows = real_sweep(*a, **kw)
        j = next(j for j, (_, aff) in enumerate(rows) if aff is not None)
        rows[j] = (rows[j][0], dataclasses.replace(rows[j][1], found=False))
        return rows

    calls = []

    def violations(sk, rep):
        # the first record checked breaks the core-rank rule
        calls.append(1)
        return ["core-rank"] if len(calls) == 1 else real_violations(sk, rep)

    monkeypatch.setattr(sv, "sweep_classify", sweep)
    monkeypatch.setattr(sv, "theorem1_violations", violations)
    assert run_cli(["verify", "--in", str(tmp_path / "skews_p3_n2_structured.jsonl")]) == 1
    assert "records 64, violations 1, affine searches without T 1" in capsys.readouterr().out


def test_verify_e1_member_has_no_affine_t(tmp_path, capsys, example_reports):
    # e1's skew-morphism of Z_3^4 breaks no rule of the theorem, and its
    # affine search stops at central translation rank 1, so no T exists
    path = tmp_path / "e1.jsonl"
    sc.write_jsonl([example_reports["e1"].data["skew"]], path)
    assert run_cli(["verify", "--in", str(path)]) == 1
    assert "records 1, violations 0, affine searches without T 1" in capsys.readouterr().out


@pytest.mark.parametrize("case", ["verify-missing", "verify-directory", "enum-out-file"])
def test_unusable_path_exits_2_without_traceback(tmp_path, case):
    taken = tmp_path / "taken"
    taken.write_text("")
    argv = {"verify-missing": ["verify", "--in", str(tmp_path / "absent.jsonl")],
            "verify-directory": ["verify", "--in", str(tmp_path)],
            "enum-out-file": ["enum", "--p", "3", "--n", "2", "--out", str(taken)]}[case]
    out = subprocess.run([sys.executable, "-m", "skewmorph.cli", *argv],
                         capture_output=True, text=True)
    assert out.returncode == 2
    assert out.stderr.startswith("error:")
    assert "Traceback" not in out.stderr


def test_enum_out_file_is_refused_before_enumerating(tmp_path, monkeypatch, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    monkeypatch.setattr(en, "full_enum", lambda *a, **kw: pytest.fail("enumerated"))
    assert run_cli(["enum", "--p", "7", "--n", "2", "--out", str(taken)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_bench_refuses_a_set_that_cannot_fit(monkeypatch, capsys):
    # the figure of a 7 GB host: the full set is admitted like any
    # materialized run, so the GL step of (5,3) and (29,2) is refused
    monkeypatch.setattr(en, "physical_memory_bytes", lambda: 7 * 10 ** 9)
    t0 = time.monotonic()
    for p, n, want in (("5", "3", "1488000 x 125 x 3, 8.9 GB"),
                       ("29", "2", "682080 x 841 x 2, 18.4 GB")):
        assert run_cli(["bench", "--p", p, "--n", n, "--repeat", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and want in err
    assert time.monotonic() - t0 < 5
