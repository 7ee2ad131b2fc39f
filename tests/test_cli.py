import json
import subprocess
import sys
import time

import pytest

from skewmorph import _kernels as K
from skewmorph import cli
from skewmorph import enumeration as en


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


def test_enum_invalid_n():
    with pytest.raises(SystemExit) as ei:
        run_cli(["enum", "--p", "3", "--n", "4"])
    assert ei.value.code == 2


def test_enum_composite_p(capsys):
    assert run_cli(["enum", "--p", "4", "--n", "2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_enum_bad_sample_rate(tmp_path):
    assert run_cli(["enum", "--p", "3", "--n", "2", "--out", str(tmp_path),
                    "--sample-rate", "0"]) == 2


def test_enum_count_mismatch_exits_1(tmp_path, monkeypatch):
    def boom(*a, **kw):
        raise AssertionError("count off by one")
    monkeypatch.setattr(en, "full_enum", boom)
    assert run_cli(["enum", "--p", "3", "--n", "2", "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("argv, failing_call, message", [
    (["--p", "3", "--n", "2"], 5, "p=3 n=2: GL member 4 fails validation (status 2)"),
    # 48 GL members and 2 seed extractions come first
    (["--p", "3", "--n", "2"], 51, "p=3 n=2: closure member 2 fails validation (status 2)"),
    (["--p", "2", "--n", "2", "--method", "brute"], 1,
     "p=2 n=2: brute member 0 fails validation (status 2)"),
], ids=["GL", "closure", "brute"])
def test_enum_member_failing_validation_is_a_finding(tmp_path, monkeypatch, capsys,
                                                     argv, failing_call, message):
    real = K.validate_images
    calls = []

    def flaky(p, n, images):
        calls.append(1)
        status, order, pi, witness = real(p, n, images)
        if len(calls) == failing_call:
            return K.NO_POWER_MATCH, order, pi, 1
        return status, order, pi, witness

    monkeypatch.setattr(K, "validate_images", flaky)
    assert run_cli(["enum"] + argv + ["--out", str(tmp_path)]) == 1
    assert message in capsys.readouterr().err


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
    en._check_key_set_fits(5, 3)  # (5,3) needs 170 MB and still runs


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
    for name in ("numpy",):
        assert name in text


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
