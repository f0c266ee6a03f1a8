"""Kernels, coefficient tables, path synthesis, xi generation, and the
Monte Carlo verifier's determinism contract."""

import math

import numpy as np
import pytest

from orthoproc import (
    XI_MODES,
    CoefficientTable,
    DomainError,
    OrliczSpec,
    ProcessSpec,
    TailBoundSpec,
    UnknownKernelError,
    builtin_kernel,
    compute_coefficients,
    dominance_fraction,
    draw_xi,
    gauss_legendre_rule,
    integrate,
    kernel_names,
    laguerre,
    legendre,
    lp_norm,
    path_rng,
    rule_for_family,
    semi_infinite_rule,
    synthesize_path,
    tail_weights,
    verify_reliability,
)
from orthoproc.cli import main
from orthoproc.process import _CHUNK_PATHS, _path_chunks

EPS = np.finfo(float).eps
TB = TailBoundSpec(1.0, 0.5)


def legendre_spec(kernel="exp-bounded", p=2.0, horizon=1.0):
    return ProcessSpec(
        kernel=builtin_kernel(kernel),
        family=legendre(),
        horizon=horizon,
        p=p,
        orlicz=OrliczSpec(2.0),
        tail=TB,
    )


def test_kernel_registry():
    assert kernel_names() == ["exp-bounded", "exp-decay", "poly-bounded"]
    with pytest.raises(UnknownKernelError) as err:
        builtin_kernel("brownian")
    assert "exp-bounded" in str(err.value)


def test_energy_spot_values():
    assert builtin_kernel("exp-bounded").energy_at(1.0) == pytest.approx(
        math.sinh(2.0), rel=1e-14
    )
    assert builtin_kernel("exp-bounded").energy_at(0.0) == 2.0
    assert builtin_kernel("exp-decay").energy_at(0.0) == 0.5
    assert builtin_kernel("exp-decay").energy_at(1.0) == 0.25
    assert builtin_kernel("poly-bounded").energy_at(0.0) == 2.0
    assert builtin_kernel("poly-bounded").energy_at(1.0) == pytest.approx(6.4, rel=1e-14)


def test_energy_against_quadrature():
    cases = (
        ("exp-bounded", gauss_legendre_rule(64)),
        ("poly-bounded", gauss_legendre_rule(64)),
        ("exp-decay", semi_infinite_rule(128)),
    )
    for name, rule in cases:
        kernel = builtin_kernel(name)
        for t in (0.0, 0.3, 1.0):
            row = kernel.evaluate(np.array([t]), rule.nodes)[0]
            oracle = float(np.dot(rule.weights, row * row))
            assert kernel.energy_at(t) == pytest.approx(oracle, rel=1e-10)


def test_spec_domain_mismatch():
    with pytest.raises(DomainError):
        ProcessSpec(
            kernel=builtin_kernel("exp-decay"),
            family=legendre(),
            horizon=1.0,
            p=2.0,
            orlicz=OrliczSpec(2.0),
            tail=TB,
        )


def test_spec_parameter_validation():
    for horizon, p in ((0.0, 2.0), (-1.0, 2.0), (1.0, 0.5)):
        with pytest.raises(DomainError):
            ProcessSpec(
                kernel=builtin_kernel("exp-bounded"),
                family=legendre(),
                horizon=horizon,
                p=p,
                orlicz=OrliczSpec(2.0),
                tail=TB,
            )


def test_first_coefficient_closed_form():
    # ahat_0(1) = integral of e^lambda / sqrt(2) = sqrt(2) sinh(1)
    spec = legendre_spec()
    table = compute_coefficients(spec, 0, 256, np.array([1.0]))
    assert table.values[0, 0] == pytest.approx(math.sqrt(2.0) * math.sinh(1.0), rel=1e-12)


def test_odd_coefficient_vanishes_at_zero():
    spec = legendre_spec()
    table = compute_coefficients(spec, 1, 256, np.array([0.0]))
    assert abs(table.values[1, 0]) < 1e-15


def test_coefficient_convergence_doubling():
    spec = legendre_spec()
    grid = np.array([0.5])
    reference = compute_coefficients(spec, 2, 512, grid).values[2, 0]
    errors = []
    for n in (2, 4, 8, 16):
        value = compute_coefficients(spec, 2, n, grid).values[2, 0]
        errors.append(abs(value - reference))
    for a, b in zip(errors, errors[1:]):
        assert b <= 0.5 * a or b < 1e-14


def test_bessel_inequality():
    for spec in (legendre_spec(), None):
        if spec is None:
            spec = ProcessSpec(
                kernel=builtin_kernel("exp-decay"),
                family=laguerre(0.0),
                horizon=1.0,
                p=2.0,
                orlicz=OrliczSpec(2.0),
                tail=TB,
            )
        grid = np.linspace(0.0, 1.0, 9)
        table = compute_coefficients(spec, 36, 512, grid)
        partial = np.sum(table.values**2, axis=0)
        energy = spec.kernel.energy_at(grid)
        assert np.all(partial <= energy + 1e-8)


def test_synthesize_path_linearity():
    spec = legendre_spec()
    grid = np.linspace(0.0, 1.0, 17)
    table = compute_coefficients(spec, 3, 64, grid)
    assert np.all(synthesize_path(table, np.zeros(4)) == 0.0)
    for m in range(4):
        e = np.zeros(4)
        e[m] = 1.0
        np.testing.assert_array_equal(synthesize_path(table, e), table.values[m])
    xi, eta = np.array([1.0, -2.0, 0.5, 3.0]), np.array([0.2, 0.1, -1.0, 0.7])
    lhs = synthesize_path(table, 2.0 * xi + 3.0 * eta)
    rhs = 2.0 * synthesize_path(table, xi) + 3.0 * synthesize_path(table, eta)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)
    with pytest.raises(DomainError):
        synthesize_path(table, np.zeros(5))


def test_draw_xi_modes():
    rng_a = path_rng(42, 0)
    rng_b = path_rng(42, 0)
    raw = draw_xi("unit-variance", 5, TB, legendre(), rng_a)
    scaled = draw_xi("norm-decaying", 5, TB, legendre(), rng_b)
    sigma = np.minimum(1.0, tail_weights(legendre(), TB, 4))
    np.testing.assert_allclose(scaled, raw * sigma, atol=1e-15)
    # sigma_4 = sqrt(2/9) / 16
    assert sigma[4] == pytest.approx(math.sqrt(2.0 / 9.0) / 16.0, rel=1e-13)
    assert sigma[0] == 1.0  # min(1, sqrt(2)) caps at 1
    with pytest.raises(DomainError):
        draw_xi("other", 5, TB, legendre(), path_rng(42, 0))
    with pytest.raises(DomainError):
        draw_xi("unit-variance", 0, TB, legendre(), path_rng(42, 0))


def test_unit_variance_statistics():
    draws = draw_xi("unit-variance", 100_000, TB, legendre(), path_rng(7, 0))
    assert abs(float(np.var(draws)) - 1.0) < 0.03


def test_path_rng_streams():
    a = path_rng(9, 3).standard_normal(8)
    b = path_rng(9, 3).standard_normal(8)
    c = path_rng(9, 4).standard_normal(8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(DomainError):
        path_rng(-1, 0)
    with pytest.raises(DomainError):
        path_rng(2**64, 0)
    with pytest.raises(DomainError):
        path_rng(1, -1)


def test_verify_reliability_trivial_cases():
    spec = legendre_spec()
    huge = verify_reliability(spec, 1, 1e6, 0.05, paths=50, seed=11)
    assert huge.exceedances == 0
    assert huge.empirical_prob == 0.0
    # identical model and reference: the difference is exactly zero
    null = verify_reliability(
        spec, 3, 1e-12, 0.05, paths=50, seed=11, reference_n=3, reference_nodes=256
    )
    assert null.exceedances == 0


def _dot_error(xi, table):
    # a K-term dot product is off by at most K eps sum_k |xi_k a_k(t)|; the
    # chunked engine and the per-path loop each make that error
    return 2.0 * xi.shape[-1] * EPS * (np.abs(xi) @ np.abs(table.values))


def _check_engine_against_loop(out_dir, xi_mode):
    spec = legendre_spec()
    paths, seed = 2 * _CHUNK_PATHS + 3, 321
    grid = np.linspace(0.0, 1.0, 257)
    model = compute_coefficients(spec, 1, 256, grid)
    reference = compute_coefficients(spec, 36, 512, grid)

    # verify norms: the per-path loop the engine replaced
    ref_norms, tol = np.empty(paths), np.empty(paths)
    for i in range(paths):
        xi = draw_xi(xi_mode, reference.n + 1, TB, spec.family, path_rng(seed, i))
        diff = synthesize_path(reference, xi) - synthesize_path(model, xi[:2])
        ref_norms[i] = lp_norm(diff, grid, spec.p)
        bound = _dot_error(xi, reference) + _dot_error(xi[:2], model) + 2.0 * EPS * np.abs(diff)
        # the power, the Simpson sum over G points and the root add at most
        # (G + 4) eps relative on each side
        tol[i] = lp_norm(bound, grid, spec.p) + 2.0 * (grid.size + 4) * EPS * ref_norms[i]
    chunks = list(_path_chunks(spec, (model, reference), paths, seed, xi_mode))
    assert [len(m) for m, _ in chunks] == [_CHUNK_PATHS, _CHUNK_PATHS, 3]
    norms = np.concatenate([lp_norm(r - m, grid, spec.p) for m, r in chunks])
    assert np.all(np.abs(norms - ref_norms) <= tol)

    delta = float(np.median(ref_norms))
    near = np.abs(ref_norms - delta) <= 1e-9 * delta
    np.testing.assert_array_equal((norms > delta)[~near], (ref_norms > delta)[~near])
    report = verify_reliability(spec, 1, delta, 0.5, paths=paths, seed=seed, xi_mode=xi_mode)
    assert abs(report.exceedances - int(np.sum(ref_norms > delta))) <= int(np.sum(near))
    assert report == verify_reliability(
        spec, 1, delta, 0.5, paths=paths, seed=seed, xi_mode=xi_mode
    )

    # simulate rows, through the CLI and its %.17g output
    cfg = out_dir / "cfg.json"
    cfg.write_text(
        '{"family": "legendre", "kernel": "exp-bounded", "horizon": 1.0, "tau": 1.0, '
        f'"n": 2, "paths": {paths}, "seed": {seed}, "xi_mode": "{xi_mode}", '
        '"time_grid_points": 33}'
    )
    assert main(["simulate", "--config", str(cfg), "--out", str(out_dir)]) == 0
    csv = np.loadtxt(out_dir / "paths.csv", delimiter=",", skiprows=1).reshape(paths, 33, 3)
    table = compute_coefficients(spec, 2, 256, np.linspace(0.0, 1.0, 33))
    np.testing.assert_array_equal(csv[:, :, 0], np.repeat(np.arange(paths)[:, None], 33, axis=1))
    np.testing.assert_array_equal(csv[:, :, 1], np.tile(table.time_grid, (paths, 1)))
    for i in range(paths):
        xi = draw_xi(xi_mode, 3, TB, spec.family, path_rng(seed, i))
        assert np.all(np.abs(csv[i, :, 2] - synthesize_path(table, xi)) <= _dot_error(xi, table))


def test_path_engine_matches_per_path_reference(tmp_path):
    # three chunks, the last one partial, in both xi modes
    for xi_mode in XI_MODES:
        out_dir = tmp_path / xi_mode
        out_dir.mkdir()
        _check_engine_against_loop(out_dir, xi_mode)


def test_verify_reliability_validation():
    spec = legendre_spec()
    with pytest.raises(DomainError):
        verify_reliability(spec, 5, 0.1, 0.05, paths=10, seed=1, reference_n=4)
    with pytest.raises(DomainError):
        verify_reliability(spec, 1, 0.1, 0.05, paths=0, seed=1)
    with pytest.raises(DomainError):
        verify_reliability(spec, 1, 0.1, 1.5, paths=10, seed=1)
    with pytest.raises(DomainError):
        verify_reliability(spec, 1, -0.1, 0.05, paths=10, seed=1)


def test_report_serialization():
    spec = legendre_spec()
    report = verify_reliability(spec, 1, 0.1, 0.05, paths=20, seed=5)
    payload = report.as_json_dict()
    assert payload["paths"] == 20
    assert payload["model_N"] == 1
    assert payload["reference_N"] == 36
    assert payload["empirical_prob"] == report.exceedances / 20
    row = report.csv_row().split(",")
    assert len(row) == len(report.CSV_HEADER.split(",")) == 9


def test_dominance_fraction():
    spec = legendre_spec()
    grid = np.linspace(0.0, 1.0, 9)
    coarse = compute_coefficients(spec, 4, 64, grid)
    assert dominance_fraction(coarse, coarse) == 1.0
    other = compute_coefficients(spec, 4, 64, np.linspace(0.0, 1.0, 11))
    with pytest.raises(DomainError):
        dominance_fraction(coarse, other)


def test_coefficient_table_validation():
    grid = np.linspace(0.0, 1.0, 5)
    with pytest.raises(DomainError):
        CoefficientTable(1, grid, np.ones((3, 5)))
    with pytest.raises(DomainError):
        CoefficientTable(1, grid, np.full((2, 5), np.nan))
    table = CoefficientTable(1, grid, np.ones((2, 5)), 16)
    assert table.as_json_dict()["quadrature_nodes_used"] == 16


def test_compute_coefficients_int_shorthand():
    spec = legendre_spec()
    grid = np.linspace(0.0, 1.0, 9)
    a = compute_coefficients(spec, 3, 64, grid)
    b = compute_coefficients(spec, 3, rule_for_family(spec.family, 64), grid)
    np.testing.assert_array_equal(a.values, b.values)
