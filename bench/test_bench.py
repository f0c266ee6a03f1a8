"""Smoke test of the benchmark itself: every workload at tiny sizes, both
modes, every named metric emitted, outputs checked.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layertrace
import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


@pytest.fixture(scope="module")
def op():
    return run._import_package()


def _run(op, tmp_path, workload, trace, tag=""):
    work = tmp_path / f"{workload}-{trace}{tag}"
    work.mkdir()
    return run.run_workload(op, workload, 3, 1.0, trace, workloads.SMOKE, work)


def test_benchmark_json_matches_run_py():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert END_TO_END == run.END_TO_END
    assert PER_LAYER == {k: v[0] for k, v in run.LAYER_UNITS.items()}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_and_outputs_pass(op, tmp_path, workload):
    metrics, units, detail = _run(op, tmp_path, workload, 0)
    assert units == END_TO_END and set(metrics) == set(END_TO_END)
    assert all(v > 0 for v in metrics.values())
    assert detail["failed"] == 0, detail["failures"]
    metrics, units, detail = _run(op, tmp_path, workload, 1)
    assert units == PER_LAYER and set(metrics) == set(PER_LAYER)
    assert detail["failed"] == 0, detail["failures"]
    if workload == "select-sweep":
        assert metrics["quadrature.rules_built"] == 2 * metrics["bounds.orders_scanned"] > 0
    if workload == "verify-cli":
        paths = workloads.SMOKE.verify_paths * metrics["trace.jobs"]
        assert metrics["process.rng_streams"] == paths
        assert metrics["cli.bytes_out"] > 0


def test_traced_counts_repeat_exactly(op, tmp_path):
    first, units, _ = _run(op, tmp_path, "select-sweep", 1, "a")
    second, _, _ = _run(op, tmp_path, "select-sweep", 1, "b")
    counts = [k for k, u in units.items() if u in ("count", "bytes")]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_installer_fails_loudly_on_a_missing_function(op, monkeypatch):
    monkeypatch.setitem(layertrace.LAYER_FUNCTIONS, "bounds", {"no_such_function": None})
    tracer = layertrace.Tracer()
    with pytest.raises(layertrace.TraceInstallError, match="no_such_function"):
        tracer.install(op)
    tracer.uninstall()


def test_installer_patches_every_binding_and_restores_them(op):
    original = op.quadrature.gauss_legendre_rule
    tracer = layertrace.Tracer()
    tracer.install(op)
    try:
        assert op.gauss_legendre_rule is op.quadrature.gauss_legendre_rule is not original
        assert op.bounds.gauss_legendre_rule is op.quadrature.gauss_legendre_rule
        assert op.cli._COMMANDS["verify"] is op.cli.cmd_verify
        op.quadrature.rule_for_family(op.legendre(), 8)
    finally:
        tracer.uninstall()
    assert op.quadrature.gauss_legendre_rule is original
    assert tracer.summary()["functions"]["quadrature.gauss_legendre_rule"]["calls"] == 1


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = SPEC["command"][1:] + ["--workload", "select-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run([sys.executable] + argv, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
