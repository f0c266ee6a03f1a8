"""End-to-end CLI checks driven through main(argv): exit codes, output
file formats, config validation, and byte-level reproducibility."""

import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import orthoproc
from orthoproc import cli, compute_coefficients, process
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
    # selected_N is appended to the JSON only; the CSV holds the bound fields
    assert list(report)[-1] == "selected_N"
    header = (out / "report.csv").read_text().splitlines()[0]
    assert header.split(",") == list(report)[:-1]


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


def test_write_atomic_failing_stream_leaves_nothing(tmp_path):
    def parts():
        yield "path_id,t,value\n"
        raise RuntimeError("engine failed")

    target = tmp_path / "out" / "paths.csv"
    with pytest.raises(RuntimeError, match="engine failed"):
        cli._write_atomic(target, parts())
    assert not target.exists()
    assert list(target.parent.glob(".paths.csv.*")) == []


def test_simulate_streams_chunks(tmp_path, monkeypatch):
    # several engine chunks, the last one partial
    monkeypatch.setattr(process, "_CHUNK_PATHS", 2)
    cfg = write_cfg(tmp_path, n=2, paths=5, time_grid_points=33)
    umask = 0o027
    previous = os.umask(umask)
    cli._file_mode.cache_clear()
    try:
        _, out = run(tmp_path, "simulate", cfg)
    finally:
        os.umask(previous)
        cli._file_mode.cache_clear()
    path = out / "paths.csv"
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask

    spec = cli._process_spec(cli.validate_config(json.loads(Path(cfg).read_text())), "simulate")
    grid = np.linspace(0.0, 1.0, 33)
    table = compute_coefficients(spec, 2, 256, grid)
    chunks = process._path_chunks(spec, table.values, 5, cli.DEFAULT_SEED)
    rows = np.concatenate(list(chunks))
    lines = ["path_id,t,value"] + [
        f"{i},{format(t, '.17g')},{format(x, '.17g')}"
        for i, values in enumerate(rows)
        for t, x in zip(grid, values)
    ]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def _run_module_without_warnings(tmp_path, module):
    cfg = write_cfg(tmp_path)
    src = str(Path(orthoproc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", module, "tables", "--config", cfg,
         "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert (tmp_path / "out" / "tables.csv").is_file()


def test_python_m_orthoproc_runs_without_warnings(tmp_path):
    _run_module_without_warnings(tmp_path, "orthoproc")


def test_python_m_orthoproc_cli_runs_without_warnings(tmp_path):
    # runpy warns when the module it runs was already imported by its
    # package's __init__, unless that module is itself a package
    _run_module_without_warnings(tmp_path, "orthoproc.cli")


def test_verify_refuses_gamma_below_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path, n=1, paths=20)
    code, out = run(tmp_path, "verify", cfg, "--set", "gamma=1.5")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "gamma < 2" in err and "1.5" in err
    assert not (out / "report.json").exists()
    # refused before selection, also when no order would pass
    unselected = write_cfg(tmp_path, name="unselected.json", paths=20, delta=1e-6)
    code, _ = run(tmp_path, "verify", unselected, "--set", "gamma=1.5", sub="unselected")
    assert code == 1
    assert "gamma < 2" in capsys.readouterr().err
    code, _ = run(tmp_path, "verify", cfg, "--set", "gamma=2", sub="gaussian")
    assert code == 0


def test_simulate_refuses_gamma_below_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path, n=1, paths=20, time_grid_points=9)
    code, out = run(tmp_path, "simulate", cfg, "--set", "gamma=1.5")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "gamma < 2" in err and "1.5" in err
    assert not (out / "paths.csv").exists()
    assert list(tmp_path.rglob(".paths.csv.*")) == []
    code, out = run(tmp_path, "simulate", cfg, "--set", "gamma=2", sub="gaussian")
    assert code == 0 and (out / "paths.csv").is_file()


def test_kernel_family_domain_mismatch_exits_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path, n=1, kernel="exp-decay")
    code, out = run(tmp_path, "bound", cfg)
    assert code == 1
    assert capsys.readouterr().err == (
        "config error: kernel: 'exp-decay' lives on (0.0, inf), "
        "family legendre on (-1.0, 1.0)\n"
    )
    assert not out.exists()


def test_unit_variance_xi_mode_is_refused(tmp_path, capsys):
    cfg = write_cfg(tmp_path, n=1, paths=20, xi_mode="unit-variance")
    code, out = run(tmp_path, "verify", cfg)
    assert code == 1
    assert capsys.readouterr().err == (
        "config error: xi_mode: must be one of norm-decaying, got 'unit-variance'\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "family, alpha, message",
    [
        ("legendre", 0.5, "legendre takes no alpha parameter"),
        ("laguerre", None, "laguerre requires alpha > -1, got None"),
        ("laguerre", -2, "laguerre requires alpha > -1, got -2.0"),
        ("gegenbauer", 0, "gegenbauer requires alpha > -1/2 and alpha != 0, got 0.0"),
        ("gegenbauer", -0.7, "gegenbauer requires alpha > -1/2 and alpha != 0, got -0.7"),
        ("gegenbauer", None, "gegenbauer requires alpha > -1/2 and alpha != 0, got None"),
    ],
)
def test_invalid_family_alpha_exits_one(tmp_path, capsys, family, alpha, message):
    extra = {"family_alpha": alpha} if alpha is not None else {}
    code, out = run(tmp_path, "tables", write_cfg(tmp_path, family=family, **extra))
    assert code == 1
    assert capsys.readouterr().err == f"config error: family_alpha: {message}\n"
    assert not out.exists()


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


# tables.csv and gf.csv at the defaults (table_k_max 3, table_points 5, w 0.5),
# pinned byte for byte, -0 cells at t = 0 included
TABLES_GOLDEN = {
    "legendre": (
        "family,k,t,poly,orthonormal\n"
        "legendre,0,-0.90000000000000002,1,0.70710678118654757\n"
        "legendre,0,-0.45000000000000001,1,0.70710678118654757\n"
        "legendre,0,0,1,0.70710678118654757\n"
        "legendre,0,0.45000000000000007,1,0.70710678118654757\n"
        "legendre,0,0.90000000000000002,1,0.70710678118654757\n"
        "legendre,1,-0.90000000000000002,-0.90000000000000002,-1.1022703842524302\n"
        "legendre,1,-0.45000000000000001,-0.45000000000000001,-0.55113519212621509\n"
        "legendre,1,0,0,0\n"
        "legendre,1,0.45000000000000007,0.45000000000000007,0.55113519212621509\n"
        "legendre,1,0.90000000000000002,0.90000000000000002,1.1022703842524302\n"
        "legendre,2,-0.90000000000000002,0.71500000000000008,1.1305142635101959\n"
        "legendre,2,-0.45000000000000001,-0.19624999999999998,-0.31029849540402221\n"
        "legendre,2,0,-0.5,-0.79056941504209488\n"
        "legendre,2,0.45000000000000007,-0.19624999999999992,-0.3102984954040221\n"
        "legendre,2,0.90000000000000002,0.71500000000000008,1.1305142635101959\n"
        "legendre,3,-0.90000000000000002,-0.47250000000000009,-0.88396655762534382\n"
        "legendre,3,-0.45000000000000001,0.44718750000000002,0.836611206323986\n"
        "legendre,3,0,-0,-0\n"
        "legendre,3,0.45000000000000007,-0.44718750000000002,-0.836611206323986\n"
        "legendre,3,0.90000000000000002,0.47250000000000009,0.88396655762534382\n",
        "family,t,w,generating_function,partial_sum\n"
        "legendre,-0.90000000000000002,0.5,0.6819943394704735,0.66968749999999999\n"
        "legendre,-0.45000000000000001,0.5,0.76696498884737041,0.78183593750000002\n"
        "legendre,0,0.5,0.89442719099991586,0.875\n"
        "legendre,0.45000000000000007,0.5,1.1180339887498949,1.1200390625000001\n"
        "legendre,0.90000000000000002,0.5,1.6903085094570331,1.6878124999999999\n",
    ),
    "gegenbauer(alpha=-0.3)": (
        "family,k,t,poly,orthonormal\n"
        "gegenbauer(alpha=-0.3),0,-0.90000000000000002,1,0.77608884320714155\n"
        "gegenbauer(alpha=-0.3),0,-0.45000000000000001,1,0.43724072314039919\n"
        "gegenbauer(alpha=-0.3),0,0,1,0.39940443280085086\n"
        "gegenbauer(alpha=-0.3),0,0.45000000000000007,1,0.43724072314039919\n"
        "gegenbauer(alpha=-0.3),0,0.90000000000000002,1,0.77608884320714155\n"
        "gegenbauer(alpha=-0.3),1,-0.90000000000000002,0.54000000000000004,0.82645263273364966\n"
        "gegenbauer(alpha=-0.3),1,-0.45000000000000001,0.27000000000000002,0.23280759022668976\n"
        "gegenbauer(alpha=-0.3),1,0,-0,-0\n"
        "gegenbauer(alpha=-0.3),1,0.45000000000000007,-0.27000000000000002,-0.23280759022668976\n"
        "gegenbauer(alpha=-0.3),1,0.90000000000000002,-0.54000000000000004,-0.82645263273364966\n"
        "gegenbauer(alpha=-0.3),2,-0.90000000000000002,-0.040200000000000014,-0.21439305045223361\n"
        "gegenbauer(alpha=-0.3),2,-0.45000000000000001,0.21494999999999997,0.64584940476922714\n"
        "gegenbauer(alpha=-0.3),2,0,0.29999999999999999,0.82339333188891017\n"
        "gegenbauer(alpha=-0.3),2,0.45000000000000007,0.21494999999999997,0.64584940476922714\n"
        "gegenbauer(alpha=-0.3),2,0.90000000000000002,-0.040200000000000014,-0.21439305045223361\n"
        "gegenbauer(alpha=-0.3),3,-0.90000000000000002,-0.030995999999999978,-0.30496102147871668\n"
        "gegenbauer(alpha=-0.3),3,-0.45000000000000001,-0.14562449999999999,-0.80720211721349033\n"
        "gegenbauer(alpha=-0.3),3,0,0,0\n"
        "gegenbauer(alpha=-0.3),3,0.45000000000000007,0.14562450000000002,0.80720211721349044\n"
        "gegenbauer(alpha=-0.3),3,0.90000000000000002,0.030995999999999978,0.30496102147871668\n",
        "family,t,w,generating_function,partial_sum\n"
        "gegenbauer(alpha=-0.3),-0.90000000000000002,0.5,1.258147439148787,1.2560754999999999\n"
        "gegenbauer(alpha=-0.3),-0.45000000000000001,0.5,1.172558924272542,1.1705344375\n"
        "gegenbauer(alpha=-0.3),0,0.5,1.0692345999911881,1.075\n"
        "gegenbauer(alpha=-0.3),0.45000000000000007,0.5,0.93524844782262129,0.93694056250000002\n"
        "gegenbauer(alpha=-0.3),0.90000000000000002,0.5,0.72982781877669967,0.72382449999999998\n",
    ),
}


def test_tables_golden_bytes(tmp_path):
    configs = {
        "legendre": {},
        "gegenbauer(alpha=-0.3)": {"family": "gegenbauer", "family_alpha": -0.3},
    }
    for label, extra in configs.items():
        cfg = write_cfg(tmp_path, f"{label}.json", **extra)
        code, out = run(tmp_path, "tables", cfg, sub=label)
        assert code == 0
        tables, gf = TABLES_GOLDEN[label]
        assert (out / "tables.csv").read_bytes() == tables.encode()
        assert (out / "gf.csv").read_bytes() == gf.encode()


def test_tables_k_max_above_max_degree_is_refused_before_any_work(tmp_path, capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("tables evaluated polynomials before validating table_k_max")

    monkeypatch.setattr(cli, "orthonormal_block", no_work)
    monkeypatch.setattr(cli, "_poly_block", no_work)
    cfg = write_cfg(tmp_path, table_k_max=20000)
    code, out = run(tmp_path, "tables", cfg)
    assert code == 1
    err = capsys.readouterr().err
    assert "table_k_max" in err and str(orthoproc.MAX_DEGREE) in err
    assert not out.exists()


def test_tables_k_max_at_max_degree_runs(tmp_path):
    cfg = write_cfg(tmp_path, table_k_max=orthoproc.MAX_DEGREE, table_points=2)
    code, out = run(tmp_path, "tables", cfg)
    assert code == 0
    lines = (out / "tables.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * (orthoproc.MAX_DEGREE + 1)
    assert lines[-1].startswith(f"legendre,{orthoproc.MAX_DEGREE},")


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


@pytest.mark.parametrize(
    "command, extra, message",
    [
        (
            "verify",
            ("--n", "2500"),
            "n: reference order 4n + 32 must be <= 10000, got 10032",
        ),
        (
            "verify",
            ("--n", "3", "--set", "reference_n=20000"),
            "reference_n: must be <= 10000, got 20000",
        ),
        ("select-n", ("--n-max", "20000"), "n_max: must be <= 10000, got 20000"),
    ],
)
def test_orders_above_max_degree_are_config_errors(
    tmp_path, capsys, monkeypatch, command, extra, message
):
    def no_work(*args, **kwargs):
        raise AssertionError("an order was refused only after work began")

    monkeypatch.setattr(cli, "verify_reliability", no_work)
    monkeypatch.setattr(cli, "select_N", no_work)
    code, out = run(tmp_path, command, write_cfg(tmp_path, paths=20), *extra)
    assert code == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()
