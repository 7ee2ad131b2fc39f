"""Quick tests of the benchmark itself, on the small (3,2) configuration.

    python3 -m pytest -q perfbench
"""

import os
import shutil
import subprocess
import sys

import pytest

import run
import tracer as tr
import workloads as wls

SM = run.import_package()
REF = wls.load_reference()


@pytest.fixture
def verify32(tmp_path):
    wl = wls.Verify(SM, REF, [(3, 2)])
    wl.setup(0, str(tmp_path))
    return wl


def test_enum_gate_passes_and_matches_digests(tmp_path):
    wl = wls.Enum(SM, REF, [(3, 2, "structured", ("jsonl", "csv")), (3, 2, "both", ())])
    wl.setup(0, str(tmp_path))
    wall, norm, bad = run.run_op(wl, run.Speedometer())
    assert bad == [] and wall > 0 and norm > 0


def test_traced_verify_reports_layers(verify32):
    tracer = tr.Tracer()
    r = run.measure(verify32, 0, tracer)
    sk = SM.read_jsonl(verify32.inputs[0])[-1]
    tracer.start()
    SM.classify(sk)  # through the package re-export
    direct = tracer.stop()
    assert (r["attempted"], r["failures"], len(r["walls"]), len(r["traced_walls"])) == (3, [], 1, 1)
    metrics, varies = run.layer_metrics(r["layer_ops"], r["walls"], r["traced_walls"])
    assert set(metrics) == set(tr.metric_units())
    assert varies == [] and tracer.absent == []
    assert metrics["skew_core.read_jsonl.calls"]["value"] == 1
    assert metrics["kernels.validate_images.calls"]["value"] == 64
    assert metrics["structure_verify.classify.calls"]["value"] == 64
    assert metrics["validation.per_member"]["value"] == 1.0
    assert direct["structure_verify.classify.calls"] == 1
    # stopped: the package holds the original functions again
    assert not hasattr(SM.classify, "__wrapped__")
    assert not hasattr(SM.structure_verify.classify, "__wrapped__")


def test_removed_name_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tr, "SPANS", tr.SPANS + [
        ("enumeration.gone", "enumeration", "no_such_function"),
        ("gone.module", "no_such_module", "f"),
    ])
    tracer = tr.Tracer()
    tracer.start()
    tracer.stop()
    assert tracer.absent == ["enumeration.no_such_function", "no_such_module.f"]


def test_corrupt_jsonl_byte_fails_the_op(verify32):
    path = verify32.inputs[0]
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    # a digit inside the first sigma array: the record is no longer valid
    at = data.index(b'"sigma": [0, ') + len(b'"sigma": [0, ')
    data[at] = ord("0") if data[at] != ord("0") else ord("1")
    with open(path, "wb") as fh:
        fh.write(bytes(data))
    r = run.measure(verify32, 0)
    assert r["attempted"] == 1 and len(r["failures"]) == 1
    assert r["walls"] == r["norms"] == []


def test_changed_but_valid_jsonl_fails_the_gate(verify32):
    path = verify32.inputs[0]
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text.replace(", ", ",", 1))  # same records, other bytes
    wall, _, bad = run.run_op(verify32)
    assert wall is not None
    assert bad == ["p3_n2: input sha256 differs from the reference"]


def test_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copytree(os.path.dirname(os.path.abspath(run.__file__)), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "enum", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
