"""Kernels, coefficient tables, path synthesis, xi generation, and the
Monte Carlo verifier's determinism contract."""

import json
import math
import tracemalloc
from dataclasses import replace

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
    UnsupportedRegimeError,
    builtin_kernel,
    compute_coefficients,
    draw_xi,
    gauss_legendre_rule,
    gegenbauer,
    integrate,
    kernel_names,
    laguerre,
    legendre,
    path_rng,
    rule_for_family,
    semi_infinite_rule,
    simpson_weights,
    synthesize_path,
    tail_weights,
    verify_reliability,
)
from orthoproc import process
from orthoproc.cli import main
from orthoproc.process import _CHUNK_PATHS, _path_chunks
from orthoproc.quadrature import _lp_norms_inplace

EPS = np.finfo(float).eps
TB = TailBoundSpec(1.0, 0.5)


def simpson_norm(x, grid, p):
    # the L_p norm along the trailing axis, independent of the engine's own
    return (np.abs(x) ** p @ simpson_weights(grid)) ** (1.0 / p)


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
    # a 0-d time gives a 0-d energy
    at_one = builtin_kernel("exp-bounded").energy_at(np.float64(1.0))
    assert np.shape(at_one) == () and at_one == pytest.approx(math.sinh(2.0), rel=1e-14)
    assert builtin_kernel("exp-bounded").energy_at(np.float64(0.0)) == 2.0
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
    raw = path_rng(42, 0).standard_normal(5)
    scaled = draw_xi(legendre_spec(), 5, path_rng(42, 0))
    sigma = np.minimum(1.0, tail_weights(legendre(), TB, 4))
    np.testing.assert_allclose(scaled, raw * sigma, atol=1e-15)
    # sigma_4 = sqrt(2/9) / 16
    assert sigma[4] == pytest.approx(math.sqrt(2.0 / 9.0) / 16.0, rel=1e-13)
    assert sigma[0] == 1.0  # min(1, sqrt(2)) caps at 1
    with pytest.raises(DomainError):
        draw_xi(legendre_spec(), 0, path_rng(42, 0))
    # a Gaussian is not phi-sub-Gaussian for gamma < 2
    with pytest.raises(UnsupportedRegimeError, match="gamma < 2"):
        draw_xi(replace(legendre_spec(), orlicz=OrliczSpec(1.5)), 5, path_rng(42, 0))


def _phi_inverse(y, gamma):
    # inverse on [0, inf) of phi(t) = t^2/gamma on [0, 1], t^gamma/gamma
    # beyond (for gamma = 2 both branches are t^2/2)
    return np.where(y <= 1.0 / gamma, np.sqrt(gamma * y), (gamma * y) ** (1.0 / gamma))


# the benchmark's family/kernel pairs
BENCH_PAIRS = (
    (legendre(), "exp-bounded"),
    (legendre(), "poly-bounded"),
    (laguerre(0.0), "exp-decay"),
    (laguerre(0.5), "exp-decay"),
    (gegenbauer(1.0), "exp-bounded"),
    (gegenbauer(1.5), "exp-bounded"),
)


def test_xi_norms_stay_inside_the_envelope():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(
        gamma=st.floats(2.0, 8.0),
        k_max=st.integers(0, 40),
        pair=st.sampled_from(BENCH_PAIRS),
        w=st.sampled_from((0.3, 0.5, 0.8)),
        tau=st.floats(0.25, 4.0),
    )
    def check(gamma, k_max, pair, w, tau):
        family, kernel = pair
        spec = ProcessSpec(
            kernel=builtin_kernel(kernel),
            family=family,
            horizon=1.0,
            p=2.0,
            orlicz=OrliczSpec(gamma),
            tail=TailBoundSpec(tau, w),
        )
        sigma = process._xi_sigma(k_max + 1, spec)
        envelope = tail_weights(family, spec.tail, k_max)
        # the phi-sub-Gaussian norm of N(0, sigma^2) is the supremum over
        # lambda > 0 of phi^{-1}(sigma^2 lambda^2 / 2) / lambda; the grid
        # spans both branches of phi around lambda = 1 / sigma
        lam = np.logspace(-6.0, 6.0, 2001)[:, None] / sigma
        norm = np.max(_phi_inverse(sigma**2 * lam**2 / 2.0, gamma) / lam, axis=0)
        assert np.all(norm <= envelope * (1.0 + 1e-12))
        np.testing.assert_allclose(norm, np.minimum(1.0, envelope), rtol=1e-12)

    check()


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


def _deviation_error(xi, model, reference):
    # the engine sums K = reference.n + 1 terms xi_k D_k, each D_k rounded
    # once from ahat^ref_k - ahat_k (rows k > N are exact): at most
    # (K + 1) eps S off the exact deviation, where
    # S = sum_k |xi_k| (|ahat^ref_k| + |ahat_k|) bounds sum_k |xi_k D_k|. The
    # loop's two dot products are at most K eps S off it before their
    # subtraction, which the caller bounds by eps |diff|; the sum of both
    # sides stays below 2 (K + 1) eps S
    m = model.n + 1
    scale = np.abs(xi) @ np.abs(reference.values) + np.abs(xi[:m]) @ np.abs(model.values)
    return 2.0 * (xi.shape[-1] + 1) * EPS * scale


def _check_engine_against_loop(out_dir):
    spec = legendre_spec()
    paths, seed = 2 * _CHUNK_PATHS + 3, 321
    grid = np.linspace(0.0, 1.0, 257)
    model = compute_coefficients(spec, 1, 256, grid)
    reference = compute_coefficients(spec, 36, 512, grid)
    deviation = reference.values.copy()
    deviation[:2] -= model.values

    # verify norms: the per-path two-table loop the engine replaced
    ref_norms, tol = np.empty(paths), np.empty(paths)
    for i in range(paths):
        xi = draw_xi(spec, reference.n + 1, path_rng(seed, i))
        diff = synthesize_path(reference, xi) - synthesize_path(model, xi[:2])
        ref_norms[i] = simpson_norm(diff, grid, spec.p)
        bound = _deviation_error(xi, model, reference) + 2.0 * EPS * np.abs(diff)
        # the power, the Simpson sum over G points and the root add at most
        # (G + 4) eps relative on each side
        tol[i] = simpson_norm(bound, grid, spec.p) + 2.0 * (grid.size + 4) * EPS * ref_norms[i]
    chunks = list(_path_chunks(spec, deviation, paths, seed))
    assert [len(chunk) for chunk in chunks] == [_CHUNK_PATHS, _CHUNK_PATHS, 3]
    norms = np.concatenate([simpson_norm(chunk, grid, spec.p) for chunk in chunks])
    assert np.all(np.abs(norms - ref_norms) <= tol)

    delta = float(np.median(ref_norms))
    near = np.abs(ref_norms - delta) <= 1e-9 * delta
    np.testing.assert_array_equal((norms > delta)[~near], (ref_norms > delta)[~near])
    report = verify_reliability(spec, 1, delta, 0.5, paths=paths, seed=seed)
    assert abs(report.exceedances - int(np.sum(ref_norms > delta))) <= int(np.sum(near))
    assert report == verify_reliability(spec, 1, delta, 0.5, paths=paths, seed=seed)

    # simulate rows, through the CLI and its %.17g output
    cfg = out_dir / "cfg.json"
    cfg.write_text(
        '{"family": "legendre", "kernel": "exp-bounded", "horizon": 1.0, "tau": 1.0, '
        f'"n": 2, "paths": {paths}, "seed": {seed}, '
        '"time_grid_points": 33}'
    )
    assert main(["simulate", "--config", str(cfg), "--out", str(out_dir)]) == 0
    csv = np.loadtxt(out_dir / "paths.csv", delimiter=",", skiprows=1).reshape(paths, 33, 3)
    table = compute_coefficients(spec, 2, 256, np.linspace(0.0, 1.0, 33))
    np.testing.assert_array_equal(csv[:, :, 0], np.repeat(np.arange(paths)[:, None], 33, axis=1))
    np.testing.assert_array_equal(csv[:, :, 1], np.tile(table.time_grid, (paths, 1)))
    for i in range(paths):
        xi = draw_xi(spec, 3, path_rng(seed, i))
        assert np.all(np.abs(csv[i, :, 2] - synthesize_path(table, xi)) <= _dot_error(xi, table))


def test_path_engine_matches_per_path_reference(tmp_path):
    # three chunks, the last one partial
    _check_engine_against_loop(tmp_path)


def _engine_xi(seed, paths, count=6, spec=None):
    # an identity makes each synthesized path its xi row exactly
    spec = spec or legendre_spec()
    return np.concatenate(list(_path_chunks(spec, np.eye(count), paths, seed)))


def test_engine_xi_rows_match_path_rng():
    paths, count = 2 * _CHUNK_PATHS + 3, 6
    for seed in (0, 2**64 - 1):
        for gamma in (2.0, 4.0):
            spec = replace(legendre_spec(), orlicz=OrliczSpec(gamma))
            expected = np.stack([draw_xi(spec, count, path_rng(seed, i)) for i in range(paths)])
            np.testing.assert_array_equal(_engine_xi(seed, paths, count, spec), expected)


@pytest.mark.parametrize("chunk", [1, 7])
def test_engine_xi_rows_independent_of_chunk_size(monkeypatch, chunk):
    expected = _engine_xi(2**64 - 1, 20)
    monkeypatch.setattr(process, "_CHUNK_PATHS", chunk)
    np.testing.assert_array_equal(_engine_xi(2**64 - 1, 20), expected)


def _gated_norms(spec, paths, seed):
    # verify's gated statistic per path, from the engine at its own chunk size
    grid = np.linspace(0.0, spec.horizon, 257)
    deviation = _deviation(spec, 1, grid)
    values, weights = process._gate_operands(deviation, simpson_weights(grid), spec.p)
    chunks = _path_chunks(spec, values, paths, seed)
    return np.concatenate([_lp_norms_inplace(chunk, weights, spec.p) for chunk in chunks])


def test_engine_is_independent_of_chunk_size():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    seed, max_paths = 17, 1600
    norms = {p: _gated_norms(legendre_spec(p=p), max_paths, seed) for p in (2.0, 3.0)}

    @hypothesis.settings(max_examples=30, deadline=None, database=None)
    @hypothesis.given(
        chunk=st.integers(1, 1500),
        paths=st.integers(1, max_paths),
        xi_seed=st.integers(0, 2**64 - 1),
    )
    def check(chunk, paths, xi_seed):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(process, "_CHUNK_PATHS", chunk)
            rows = _engine_xi(xi_seed, paths)
            counts = {}
            for p in norms:
                delta = float(np.median(norms[p][:paths]))
                spec = legendre_spec(p=p)
                report = verify_reliability(spec, 1, delta, 0.5, paths=paths, seed=seed)
                counts[p] = (delta, report.exceedances)
        expected = [draw_xi(legendre_spec(), 6, path_rng(xi_seed, i)) for i in range(paths)]
        np.testing.assert_array_equal(rows, np.stack(expected))
        for p, (delta, exceedances) in counts.items():
            # the default chunk's count, but for paths within 1e-9 of delta
            head = norms[p][:paths]
            near = np.abs(head - delta) <= 1e-9 * delta
            assert np.sum((head > delta) & ~near) <= exceedances <= np.sum((head > delta) | near)

    check()


# 2051 paths fill several chunks and end in a partial one
@pytest.mark.parametrize("paths", [1, 50, 2051])
def test_verify_builds_one_philox_per_call(monkeypatch, paths):
    built = []
    philox = np.random.Philox

    def counting_philox(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    verify_reliability(legendre_spec(), 1, 0.1, 0.05, paths=paths, seed=3)
    assert len(built) <= 1


@pytest.mark.parametrize("paths", [1, 50, 2051])
def test_verify_synthesizes_once_per_chunk(monkeypatch, paths):
    calls = []
    synthesize = process.synthesize_path

    def counting_synthesize(table, xi):
        calls.append(len(xi))
        return synthesize(table, xi)

    monkeypatch.setattr(process, "synthesize_path", counting_synthesize)
    verify_reliability(legendre_spec(), 1, 0.1, 0.05, paths=paths, seed=3)
    assert len(calls) == math.ceil(paths / _CHUNK_PATHS)
    assert sum(calls) == paths


def test_verify_memory_stays_near_one_chunk():
    # at p = 3 the engine synthesizes every path on the time grid
    spec, paths, grid_points, nodes = legendre_spec(p=3.0), 2 * 2 * _CHUNK_PATHS, 257, 128
    grid = np.linspace(0.0, spec.horizon, grid_points)
    model = compute_coefficients(spec, 1, nodes, grid)
    reference = compute_coefficients(spec, 36, nodes, grid)
    options = dict(seed=1, model_nodes=nodes, reference_nodes=nodes)
    verify_reliability(spec, 1, 0.1, 0.05, paths=8, **options)  # warm the rule cache
    tracemalloc.start()
    try:
        verify_reliability(spec, 1, 0.1, 0.05, paths=paths, **options)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one chunk of deviations is live at a time, next to the chunk's xi rows
    # and the tables; a per-chunk temporary (a second path stack, a
    # difference, an |x|^p copy, or the previous chunk kept alive) adds a
    # second chunk, which with the xi rows passes the bound. 128 nodes keep
    # the kernel matrix, basis and product of a table build below one chunk
    chunk_bytes = _CHUNK_PATHS * grid_points * 8
    assert peak <= 2 * chunk_bytes + model.values.nbytes + reference.values.nbytes


def test_verify_memory_at_p2_stays_near_one_factor_chunk():
    spec, paths, nodes = legendre_spec(), 2 * 2 * _CHUNK_PATHS, 16
    grid = np.linspace(0.0, spec.horizon, 257)
    model = compute_coefficients(spec, 1, nodes, grid)
    reference = compute_coefficients(spec, 36, nodes, grid)
    options = dict(seed=1, model_nodes=nodes, reference_nodes=nodes)
    verify_reliability(spec, 1, 0.1, 0.05, paths=8, **options)  # warm the rule cache
    tracemalloc.start()
    try:
        verify_reliability(spec, 1, 0.1, 0.05, paths=paths, **options)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # at p = 2 a chunk holds R xi, K + 1 values per path, next to the chunk's
    # xi rows. 16 nodes keep a table build, and scaling the deviation table
    # in place keeps the QR (one table-sized copy), below these two buffers;
    # a scaled copy of the table fails the bound. Synthesizing on the
    # 257-point grid again makes one chunk alone 7 times a factor chunk.
    chunk_bytes = _CHUNK_PATHS * (reference.n + 1) * 8
    assert peak <= 2 * chunk_bytes + model.values.nbytes + reference.values.nbytes


def test_table_build_memory_at_512_nodes():
    spec, grid, n, nodes = legendre_spec(), np.linspace(0.0, 1.0, 257), 36, 512
    compute_coefficients(spec, n, nodes, grid)  # warm the rule cache
    tracemalloc.start()
    try:
        values = compute_coefficients(spec, n, nodes, grid).values
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the kernel matrix, the weighted basis, the product and its contiguous
    # copy are live at once; the slack is one more basis and table, while a
    # second kernel-sized array (a copy before the exp, a weighted copy of the
    # kernel) adds 1 MB and fails the bound
    kernel_bytes, basis_bytes = grid.size * nodes * 8, (n + 1) * nodes * 8
    assert peak <= kernel_bytes + 2 * (basis_bytes + values.nbytes)


def test_simulate_memory_stays_near_one_chunk(tmp_path):
    paths, grid_points = 4 * _CHUNK_PATHS + 3, 129
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        '{"family": "legendre", "kernel": "exp-bounded", "horizon": 1.0, "tau": 1.0, '
        f'"n": 3, "paths": {paths}, "time_grid_points": {grid_points}, "spectral_nodes": 64}}'
    )
    argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path)]
    assert main(argv) == 0  # warm the rule cache
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one chunk of paths is live at a time, next to one path's values and
    # text; the previous chunk kept alive, or a whole chunk's values as
    # Python floats or as text (each about four times its bytes), passes
    # the bound
    chunk_bytes = _CHUNK_PATHS * grid_points * 8
    assert peak <= 2 * chunk_bytes


def _deviation(spec, model_n, grid):
    # verify's deviation table at its default orders and nodes
    model = compute_coefficients(spec, model_n, 256, grid).values
    deviation = compute_coefficients(spec, 4 * model_n + 32, 512, grid).values
    deviation[: model_n + 1] -= model
    return deviation


# name -> (spec, model order)
FACTOR_SPECS = {
    "legendre/exp-bounded": (legendre_spec(), 1),
    # a kernel of degree 2 in lambda: at N = 2 the deviation is roundoff
    "legendre/poly-bounded": (legendre_spec("poly-bounded"), 2),
    "laguerre(0.5)/exp-decay": (
        replace(legendre_spec(), kernel=builtin_kernel("exp-decay"), family=laguerre(0.5)),
        1,
    ),
    "gegenbauer(1.5)/exp-bounded": (replace(legendre_spec(), family=gegenbauer(1.5)), 1),
}


@pytest.mark.parametrize("xi_mode", XI_MODES)
@pytest.mark.parametrize("name", sorted(FACTOR_SPECS))
def test_p2_factor_norm_matches_grid_norm(name, xi_mode):
    (spec, model_n), paths, seed = FACTOR_SPECS[name], 2 * _CHUNK_PATHS + 3, 99
    grid = np.linspace(0.0, spec.horizon, 257)
    w = simpson_weights(grid)
    deviation = _deviation(spec, model_n, grid)
    values, weights = process._gate_operands(deviation.copy(), w, 2.0)
    count = deviation.shape[0]
    assert values.shape == (count, count)
    np.testing.assert_array_equal(weights, np.ones(count))

    def engine_norms(table, norm):
        chunks = _path_chunks(spec, table, paths, seed)
        return np.concatenate([norm(chunk) for chunk in chunks])

    factor = engine_norms(values, lambda chunk: _lp_norms_inplace(chunk, weights, 2.0))
    on_grid = engine_norms(deviation, lambda chunk: simpson_norm(chunk, grid, 2.0))
    xi_norms = engine_norms(np.eye(count), lambda chunk: np.linalg.norm(chunk, axis=1))
    # With A = D diag(sqrt(w)), Householder QR returns the exact R of
    # A^T + E with |E|_F <= c G (K + 1) eps |A|_F for a small constant c
    # (Higham, Accuracy and Stability, Thm 19.4), so |R xi| moves by at most
    # |E|_F |xi|. Synthesizing R xi or D^T xi adds (K + 1) eps |A|_F |xi| on
    # each side (Cauchy-Schwarz), and the grid's squares, Simpson sum and
    # root (G + 2) eps of its norm, itself at most |A|_F |xi|. With c = 4,
    # 4 (G + 2)(K + 3) eps |A|_F |xi| covers all of it.
    a_norm = np.linalg.norm(deviation * np.sqrt(w))
    tol = 4.0 * (grid.size + 2) * (count + 2) * EPS * a_norm * xi_norms
    assert np.all(np.abs(factor - on_grid) <= tol)

    delta = float(np.median(on_grid))
    report = verify_reliability(spec, model_n, delta, 0.5, paths=paths, seed=seed)
    assert report.as_json_dict()["xi_mode"] == xi_mode
    assert report.exceedances == int(np.sum(factor > delta))
    # the grid path's count, but for paths within the tolerance of delta
    near = np.abs(on_grid - delta) <= tol
    above = on_grid > delta
    assert np.sum(above & ~near) <= report.exceedances <= np.sum(above | near)


@pytest.mark.parametrize("p", (1.0, 1.5, 3.0))
def test_other_p_gate_the_grid_norm(p):
    spec, paths, seed = legendre_spec(p=p), 2 * _CHUNK_PATHS + 3, 5
    grid = np.linspace(0.0, spec.horizon, 257)
    w = simpson_weights(grid)
    deviation = _deviation(spec, 1, grid)
    values, weights = process._gate_operands(deviation, w, p)
    assert values is deviation and weights is w
    chunks = _path_chunks(spec, deviation, paths, seed)
    norms = np.concatenate([simpson_norm(chunk, grid, p) for chunk in chunks])
    delta = float(np.median(norms))
    report = verify_reliability(spec, 1, delta, 0.5, paths=paths, seed=seed)
    assert report.exceedances == int(np.sum(norms > delta))


def test_verify_refuses_gamma_below_two():
    spec = replace(legendre_spec(), orlicz=OrliczSpec(1.5))
    # a Gaussian's mgf outgrows exp(|tau lambda|^gamma / gamma) for gamma < 2
    with pytest.raises(UnsupportedRegimeError, match="gamma < 2"):
        verify_reliability(spec, 1, 0.1, 0.05, paths=10, seed=1)
    for gamma in (2.0, 3.0):
        report = verify_reliability(
            replace(spec, orlicz=OrliczSpec(gamma)), 1, 0.1, 0.05, paths=10, seed=1
        )
        assert report.paths == 10


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
    for seed in (-1, 2**64):
        with pytest.raises(DomainError):
            verify_reliability(spec, 1, 0.1, 0.05, paths=10, seed=seed)


def test_report_serialization(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        '{"family": "legendre", "kernel": "exp-bounded", "horizon": 1.0, "tau": 1.0, '
        '"delta": 0.1, "alpha": 0.05, "n": 1, "paths": 20, "seed": 5}'
    )
    report = verify_reliability(legendre_spec(), 1, 0.1, 0.05, paths=20, seed=5)
    code = main(["verify", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == (0 if report.empirical_prob <= 0.05 else 2)
    payload = report.as_json_dict()
    assert payload["paths"] == 20
    assert payload["model_N"] == 1
    assert payload["reference_N"] == 36
    assert payload["empirical_prob"] == report.exceedances / 20
    assert json.loads((tmp_path / "report.json").read_text()) == payload
    assert json.loads(capsys.readouterr().out) == payload

    # report.csv is the report.json fields in order, one row
    header, row = (line.split(",") for line in (tmp_path / "report.csv").read_text().splitlines())
    assert header == list(payload)
    assert len(row) == 9
    assert row[header.index("xi_mode")] == "norm-decaying"
    assert row[header.index("seed")] == "5"
    assert row[header.index("delta")] == "0.10000000000000001"  # %.17g, not repr
    assert float(row[header.index("empirical_prob")]) == report.empirical_prob


def test_coefficient_table_validation():
    grid = np.linspace(0.0, 1.0, 5)
    with pytest.raises(DomainError):
        CoefficientTable(1, grid, np.ones((3, 5)))
    with pytest.raises(DomainError):
        CoefficientTable(1, grid, np.full((2, 5), np.nan))
    CoefficientTable(1, grid, np.ones((2, 5)))


def test_compute_coefficients_int_shorthand():
    spec = legendre_spec()
    grid = np.linspace(0.0, 1.0, 9)
    a = compute_coefficients(spec, 3, 64, grid)
    b = compute_coefficients(spec, 3, rule_for_family(spec.family, 64), grid)
    np.testing.assert_array_equal(a.values, b.values)
