"""Quadrature rules against closed-form integrals and the numpy reference."""

import math

import numpy as np
import pytest

from orthoproc import (
    ConvergenceError,
    DomainError,
    OrliczSpec,
    ProcessSpec,
    QuadratureRule,
    Resolution,
    TailBoundSpec,
    adaptive_simpson,
    builtin_kernel,
    cosine_mapped_rule,
    gauss_legendre_rule,
    gegenbauer,
    integrate,
    laguerre,
    legendre,
    rule_for_family,
    select_N,
    semi_infinite_rule,
    simpson_weights,
)
from orthoproc import bounds, quadrature


def test_two_point_rule_is_exact():
    rule = gauss_legendre_rule(2)
    np.testing.assert_allclose(rule.nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-15)
    np.testing.assert_allclose(rule.weights, [1.0, 1.0], atol=1e-15)


def test_polynomial_exactness():
    # an n-point rule integrates degree 2n-1 exactly: t^10 needs n >= 6
    assert integrate(gauss_legendre_rule(6), lambda t: t**10) == pytest.approx(
        2.0 / 11.0, rel=1e-14
    )
    assert integrate(gauss_legendre_rule(40), lambda t: t**77) == pytest.approx(0.0, abs=1e-16)


def test_weights_sum_to_interval_length():
    for n in (1, 2, 7, 64, 257):
        assert gauss_legendre_rule(n).weights.sum() == pytest.approx(2.0, rel=1e-14)


def test_against_numpy_leggauss():
    for n in (8, 64, 256):
        rule = gauss_legendre_rule(n)
        x, w = np.polynomial.legendre.leggauss(n)
        np.testing.assert_allclose(rule.nodes, x, atol=2e-15)
        np.testing.assert_allclose(rule.weights, w, atol=2e-15)


@pytest.mark.parametrize("n", (2, 17, 256, 512))
def test_against_scipy_roots_legendre(n):
    special = pytest.importorskip("scipy.special")
    x, w = special.roots_legendre(n)
    rule = gauss_legendre_rule(n)
    np.testing.assert_allclose(rule.nodes, x, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(rule.weights, w, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("n", (1, 2, 3, 19, 20, 255, 256, 512, 4096))
def test_nodes_against_scipy_roots_legendre(n):
    special = pytest.importorskip("scipy.special")
    x, _ = special.roots_legendre(n)
    np.testing.assert_allclose(gauss_legendre_rule(n).nodes, x, rtol=0.0, atol=1e-13)


def _mp_rule_point(mpmath, n, x0):
    """Gauss-Legendre node and weight next to x0: Newton on the Legendre
    recurrence in mpmath's working precision."""
    x = mpmath.mpf(float(x0))
    while True:
        pkm1, pk = mpmath.mpf(1), x
        for j in range(1, n):
            pkm1, pk = pk, ((2 * j + 1) * x * pk - j * pkm1) / (j + 1)
        dpn = n * (pkm1 - x * pk) / (1 - x * x)
        dx = pk / dpn
        x -= dx
        if abs(dx) < mpmath.mpf(10) ** -30:
            return x, 2 / ((1 - x * x) * dpn * dpn)


@pytest.mark.parametrize("n", (256, 512))
def test_weights_against_mpmath_oracle(n):
    # scipy cannot be the weight oracle: against this one its endpoint
    # weights are off by 1.3e-10 (n = 256), 1.5e-9 (n = 512) and 2e-7
    # (n = 4096) relative. Those weights are 1e-4 to 4e-7, so the errors sit
    # below the atol = 1e-13 that the scipy comparison above can use.
    mpmath = pytest.importorskip("mpmath")
    rule = gauss_legendre_rule(n)
    outermost = (*range(8), *range(n - 8, n))
    with mpmath.workdps(40):
        for i in (*outermost, n // 4, n // 3, n // 2 - 1, n // 2):
            x, w = _mp_rule_point(mpmath, n, rule.nodes[i])
            assert abs(rule.nodes[i] - x) <= 1e-15
            assert abs(rule.weights[i] - w) <= 1e-11 * w


@pytest.mark.parametrize("n", (1, 2, 3, 19, 20, 21, 255, 256, 512, 4096))
def test_newton_takes_at_most_three_passes_over_half_the_nodes(monkeypatch, n):
    sizes = []
    original = quadrature.legendre_pair

    def counting(degree, x):
        sizes.append(len(x))
        return original(degree, x)

    monkeypatch.setattr(quadrature, "legendre_pair", counting)
    x, w = quadrature._gauss_legendre_raw.__wrapped__(n)  # bypass the cache
    assert 1 <= len(sizes) <= (3 if n >= 20 else 4)
    assert set(sizes) == {(n + 1) // 2}
    # mirrored halves, an exact middle root for odd n
    np.testing.assert_array_equal(x, -x[::-1])
    np.testing.assert_array_equal(w, w[::-1])
    if n % 2:
        assert x[n // 2] == 0.0


def test_newton_cap_still_raises(monkeypatch):
    monkeypatch.setattr(quadrature, "_NEWTON_MAX_ITER", 1)
    for n in (2, 20, 256):
        with pytest.raises(ConvergenceError):
            quadrature._gauss_legendre_raw.__wrapped__(n)


def test_cached_rule_arrays_are_read_only():
    rule = gauss_legendre_rule(12)
    assert gauss_legendre_rule(12).nodes is rule.nodes
    with pytest.raises(ValueError):
        rule.nodes[0] = 0.0
    with pytest.raises(ValueError):
        rule.weights[0] = 1.0


def test_select_n_reuses_the_newton_solve(monkeypatch):
    # Newton's only polynomial evaluation is legendre_pair, so counting its
    # calls from quadrature counts solves
    calls = []
    original = quadrature.legendre_pair

    def counting(n, x):
        calls.append(n)
        return original(n, x)

    monkeypatch.setattr(quadrature, "legendre_pair", counting)
    quadrature._gauss_legendre_raw.cache_clear()
    # a curve cached by an earlier test would skip the rules altogether
    bounds._curve_arrays.cache_clear()
    spec = ProcessSpec(
        kernel=builtin_kernel("exp-decay"),
        family=laguerre(0.5),
        horizon=1.0,
        p=2.0,
        orlicz=OrliczSpec(2.0),
        tail=TailBoundSpec(1.0, 0.5),
    )
    res = Resolution(spectral_nodes=96, oracle_nodes=96)
    first = select_N(spec, 1e-9, 0.05, 6, resolution=res)
    # the spectral rule and the gf-oracle rule map one shared solve
    assert calls and set(calls) == {96}
    assert quadrature._gauss_legendre_raw.cache_info().misses == 1
    calls.clear()
    second = select_N(spec, 1e-9, 0.05, 6, resolution=res)
    assert calls == []
    assert (second.best_n, second.best_c_n) == (first.best_n, first.best_c_n)


def test_semi_infinite_exponential_moments():
    rule = semi_infinite_rule(64)
    assert integrate(rule, lambda x: np.exp(-x)) == pytest.approx(1.0, abs=1e-9)
    assert integrate(rule, lambda x: x * np.exp(-x)) == pytest.approx(1.0, abs=1e-8)


def test_semi_infinite_fractional_weight():
    # plain map: good enough for the documented 1e-6 target
    plain = semi_infinite_rule(128)
    value = integrate(plain, lambda x: np.sqrt(x) * np.exp(-x))
    assert value == pytest.approx(math.gamma(1.5), abs=1e-6)
    # power map keyed to the singularity: orders of magnitude tighter
    mapped = semi_infinite_rule(128, singularity_power=0.5)
    value = integrate(mapped, lambda x: np.sqrt(x) * np.exp(-x))
    assert value == pytest.approx(math.gamma(1.5), abs=1e-12)


def test_semi_infinite_strong_singularity():
    rule = semi_infinite_rule(256, singularity_power=-0.5)
    value = integrate(rule, lambda x: np.exp(-x) / np.sqrt(x))
    assert value == pytest.approx(math.gamma(0.5), rel=1e-10)


def test_cosine_mapped_semicircle():
    rule = cosine_mapped_rule(64)
    assert integrate(rule, lambda t: np.sqrt(1 - t * t)) == pytest.approx(
        math.pi / 2, rel=1e-12
    )


def test_cosine_mapped_negative_power():
    # B(1/2, 3/4): integrable endpoint blow-up the plain rule cannot resolve
    rule = cosine_mapped_rule(512)
    expected = math.gamma(0.5) * math.gamma(0.75) / math.gamma(1.25)
    got = integrate(rule, lambda t: (1 - t * t) ** (-0.25))
    assert got == pytest.approx(expected, rel=1e-6)


def test_simpson_rule_cubic_exact():
    grid = np.linspace(0.0, 2.0, 5)
    assert simpson_weights(grid) @ grid**3 == pytest.approx(4.0, rel=1e-14)


def test_simpson_weights_shape_errors():
    with pytest.raises(DomainError):
        simpson_weights(np.linspace(0, 1, 4))
    with pytest.raises(DomainError):
        simpson_weights(np.array([0.0]))
    with pytest.raises(DomainError):
        simpson_weights(np.array([0.0, 0.5, 0.7]))
    with pytest.raises(DomainError):
        simpson_weights(np.array([0.0, -0.5, -1.0]))


def test_lp_norm_constant():
    grid = np.linspace(0.0, 2.0, 9)
    w = simpson_weights(grid)
    norm = quadrature._lp_norms_inplace(np.ones(9), w, 3.0)
    assert norm == pytest.approx(2.0 ** (1 / 3), rel=1e-14)
    # a row-stack gives one norm per row
    stacked = quadrature._lp_norms_inplace(np.array([np.ones(9), 2.0 * np.ones(9)]), w, 3.0)
    np.testing.assert_allclose(stacked, [2.0 ** (1 / 3), 2.0 ** (4 / 3)], rtol=1e-14)


def test_lp_norm_linear():
    grid = np.linspace(0.0, 1.0, 257)
    # Simpson is exact for t^2, so the norm is exactly 1/sqrt(3)
    norm = quadrature._lp_norms_inplace(grid.copy(), simpson_weights(grid), 2.0)
    assert norm == pytest.approx(1 / math.sqrt(3), rel=1e-14)


def test_adaptive_simpson():
    assert adaptive_simpson(math.sin, 0.0, math.pi, tol=1e-12) == pytest.approx(
        2.0, abs=1e-10
    )
    with pytest.raises(ConvergenceError):
        adaptive_simpson(lambda x: math.sin(40.0 * x), 0.0, 3.0, tol=1e-13, max_depth=3)


def test_integrate_shape_check():
    rule = gauss_legendre_rule(4)
    with pytest.raises(DomainError):
        integrate(rule, lambda t: np.ones(3))


def test_rule_for_family():
    assert rule_for_family(legendre(), 16).kind == "gauss-legendre"
    assert rule_for_family(gegenbauer(1.0), 16).kind == "cosine-mapped"
    rule = rule_for_family(laguerre(-0.5), 16)
    assert rule.kind == "semi-infinite"
    assert rule.target_domain == (0.0, math.inf)


def test_node_count_validation():
    for bad in (0, -1, 5000):
        with pytest.raises(DomainError):
            gauss_legendre_rule(bad)
        with pytest.raises(DomainError):
            semi_infinite_rule(bad)


def test_rule_construction_guards():
    nodes = np.array([0.0, 0.5])
    with pytest.raises(DomainError):
        QuadratureRule("x", nodes, np.array([1.0, -1.0]))
    with pytest.raises(DomainError):
        QuadratureRule("x", np.array([0.5, 0.0]), np.array([1.0, 1.0]))
    with pytest.raises(DomainError):
        QuadratureRule("x", np.array([0.0, 2.0]), np.array([1.0, 1.0]), (-1.0, 1.0))
    with pytest.raises(DomainError):
        QuadratureRule("x", nodes, np.array([1.0]))


def test_singularity_power_guard():
    with pytest.raises(DomainError):
        semi_infinite_rule(16, singularity_power=-1.0)
