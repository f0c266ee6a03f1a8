"""End-to-end CLI checks driven through main(argv): exit codes, output
file formats, config validation, and byte-level reproducibility."""

import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import orthoproc
from orthoproc import cli
from orthoproc.cli import main

BASE = {
    "family": "legendre",
    "kernel": "exp-bounded",
    "horizon": 1.0,
    "tau": 1.0,
    "delta": 0.1,
    "alpha": 0.05,
}


def write_cfg(tmp_path, name="cfg.json", **extra):
    cfg = dict(BASE)
    cfg.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(tmp_path, command, cfg_path, *extra, sub=None):
    out = tmp_path / (sub or "out")
    code = main([command, "--config", cfg_path, "--out", str(out), *extra])
    return code, out


def test_bound_happy_path(tmp_path):
    cfg = write_cfg(tmp_path, n=1)
    code, out = run(tmp_path, "bound", cfg)
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["N"] == 1
    assert report["family"] == "legendre"
    assert report["pass_rel"] is True and report["pass_acc"] is True
    assert report["C_N"] == pytest.approx(0.002632057286, rel=1e-9)
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0] == (
        "family,N,C_N,threshold_rel,threshold_acc,pass_rel,pass_acc,"
        "clamped_fraction,gf_integral_value,gf_integral_oracle"
    )
    assert len(lines) == 2
    row = lines[1].split(",")
    assert float(row[2]) == report["C_N"]
    assert row[5] == "true"


def test_bound_condition_failure_exits_two(tmp_path):
    cfg = write_cfg(tmp_path, n=1, delta=1e-12)
    code, out = run(tmp_path, "bound", cfg)
    assert code == 2
    report = json.loads((out / "report.json").read_text())
    assert report["pass_rel"] is False


def test_invalid_w_exits_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path, n=1)
    code, _ = run(tmp_path, "bound", cfg, "--set", "w=1.5")
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and "w" in err


def test_missing_required_key(tmp_path, capsys):
    cfg = dict(BASE)
    del cfg["delta"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg | {"n": 1}))
    code, _ = run(tmp_path, "bound", str(path))
    assert code == 1
    err = capsys.readouterr().err
    assert "delta" in err and "bound" in err


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, n=1, bogus=3)
    code, _ = run(tmp_path, "bound", cfg)
    assert code == 1
    assert "bogus" in capsys.readouterr().err


def test_unknown_kernel_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, n=1, kernel="brownian")
    code, _ = run(tmp_path, "bound", cfg)
    assert code == 1
    assert "brownian" in capsys.readouterr().err


def test_config_file_errors(tmp_path, capsys):
    assert main(["bound", "--config", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["bound", "--config", str(bad)]) == 1
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    assert main(["bound", "--config", str(arr)]) == 1
    assert "JSON object" in capsys.readouterr().err


def test_select_n_finds_order(tmp_path):
    cfg = write_cfg(tmp_path)
    code, out = run(tmp_path, "select-n", cfg)
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["selected_N"] == 1
    assert report["N"] == 1
    assert (out / "report.csv").exists()


def test_select_n_exhausted(tmp_path, capsys):
    cfg = write_cfg(tmp_path, delta=1e-9)
    code, out = run(tmp_path, "select-n", cfg, "--n-max", "2")
    assert code == 2
    report = json.loads((out / "report.json").read_text())
    assert report["selected_N"] is None
    assert report["n_max"] == 2
    assert report["best_N"] in (0, 1, 2)
    assert "no N in [0, 2]" in capsys.readouterr().err


def test_simulate_reproducible(tmp_path):
    cfg = write_cfg(tmp_path, n=2, paths=5, time_grid_points=33)
    _, first = run(tmp_path, "simulate", cfg, sub="a")
    _, second = run(tmp_path, "simulate", cfg, sub="b")
    _, parallel = run(tmp_path, "simulate", cfg, "--set", "workers=3", sub="c")
    a = (first / "paths.csv").read_bytes()
    assert a == (second / "paths.csv").read_bytes()
    assert a == (parallel / "paths.csv").read_bytes()
    lines = a.decode().splitlines()
    assert lines[0] == "path_id,t,value"
    assert len(lines) == 1 + 5 * 33


def test_simulate_seed_changes_output(tmp_path):
    cfg = write_cfg(tmp_path, n=2, paths=3, time_grid_points=9)
    _, first = run(tmp_path, "simulate", cfg, sub="a")
    _, second = run(tmp_path, "simulate", cfg, "--seed", "999", sub="b")
    assert (first / "paths.csv").read_bytes() != (second / "paths.csv").read_bytes()


def test_verify_reproducible_across_workers(tmp_path):
    cfg = write_cfg(tmp_path, n=1, paths=200)
    code, first = run(tmp_path, "verify", cfg, sub="a")
    assert code == 0
    _, second = run(tmp_path, "verify", cfg, sub="b")
    _, parallel = run(tmp_path, "verify", cfg, "--set", "workers=3", sub="c")
    a_json = (first / "report.json").read_bytes()
    assert a_json == (second / "report.json").read_bytes()
    assert a_json == (parallel / "report.json").read_bytes()
    a_csv = (first / "report.csv").read_bytes()
    assert a_csv == (parallel / "report.csv").read_bytes()
    report = json.loads(a_json)
    assert report["paths"] == 200
    assert report["empirical_prob"] <= 0.05


def test_output_files_honour_umask(tmp_path):
    cfg = write_cfg(tmp_path, n=1, paths=3, time_grid_points=9)
    umask = 0o022
    previous = os.umask(umask)
    cli._file_mode.cache_clear()
    try:
        _, sim = run(tmp_path, "simulate", cfg, sub="s")
        _, ver = run(tmp_path, "verify", cfg, sub="v")
    finally:
        os.umask(previous)
        cli._file_mode.cache_clear()
    for path in (ver / "report.json", sim / "paths.csv"):
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask


def test_python_m_orthoproc_runs_without_warnings(tmp_path):
    cfg = write_cfg(tmp_path)
    src = str(Path(orthoproc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "orthoproc", "tables", "--config", cfg,
         "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert (tmp_path / "out" / "tables.csv").is_file()


def test_verify_selects_n_when_absent(tmp_path):
    cfg = write_cfg(tmp_path, paths=50)
    code, out = run(tmp_path, "verify", cfg)
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["model_N"] == 1
    assert report["reference_N"] == 36


def test_tables_output(tmp_path):
    cfg = write_cfg(tmp_path)
    code, out = run(tmp_path, "tables", cfg)
    assert code == 0
    lines = (out / "tables.csv").read_text().splitlines()
    assert lines[0] == "family,k,t,poly,orthonormal"
    assert len(lines) == 1 + 4 * 5  # table_k_max=3, table_points=5 defaults
    assert lines[1].startswith("legendre,0,")
    gf = (out / "gf.csv").read_text().splitlines()
    assert gf[0] == "family,t,w,generating_function,partial_sum"
    assert len(gf) == 1 + 5


def test_tables_gegenbauer_half_matches_legendre(tmp_path):
    leg_cfg = write_cfg(tmp_path, "leg.json")
    geg_cfg = write_cfg(tmp_path, "geg.json", family="gegenbauer", family_alpha=0.5)
    _, leg_out = run(tmp_path, "tables", leg_cfg, sub="leg")
    _, geg_out = run(tmp_path, "tables", geg_cfg, sub="geg")
    leg = (leg_out / "tables.csv").read_text().splitlines()[1:]
    geg = (geg_out / "tables.csv").read_text().splitlines()[1:]
    for a, b in zip(leg, geg):
        pa, pb = float(a.split(",")[3]), float(b.split(",")[3])
        assert pa == pytest.approx(pb, abs=1e-10)


def test_set_override_wins(tmp_path):
    cfg = write_cfg(tmp_path, n=1, delta=1e-12)
    code, _ = run(tmp_path, "bound", cfg, "--set", "delta=0.1")
    assert code == 0


def test_set_malformed(tmp_path, capsys):
    cfg = write_cfg(tmp_path, n=1)
    code, _ = run(tmp_path, "bound", cfg, "--set", "noequals")
    assert code == 1
    assert "KEY=VALUE" in capsys.readouterr().err


def test_bad_invocations(capsys):
    assert main(["frobnicate", "--config", "x.json"]) == 1
    assert main([]) == 1
    err = capsys.readouterr().err
    assert "config error" in err
