"""Quadrature rules against closed-form integrals and the numpy reference."""

import math

import numpy as np
import pytest

from orthoproc import (
    ConvergenceError,
    DomainError,
    QuadratureRule,
    adaptive_simpson,
    cosine_mapped_rule,
    gauss_legendre_rule,
    gegenbauer,
    integrate,
    laguerre,
    legendre,
    lp_norm,
    rule_for_family,
    semi_infinite_rule,
    simpson_rule,
    simpson_weights,
)


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
    rule = simpson_rule(0.0, 2.0, 5)
    assert integrate(rule, lambda t: t**3) == pytest.approx(4.0, rel=1e-14)


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
    assert lp_norm(np.ones(9), grid, 3.0) == pytest.approx(2.0 ** (1 / 3), rel=1e-14)
    # a row-stack gives one norm per row
    stacked = lp_norm(np.array([np.ones(9), 2.0 * np.ones(9)]), grid, 3.0)
    np.testing.assert_allclose(stacked, [2.0 ** (1 / 3), 2.0 ** (4 / 3)], rtol=1e-14)


def test_lp_norm_linear():
    grid = np.linspace(0.0, 1.0, 257)
    # Simpson is exact for t^2, so the norm is exactly 1/sqrt(3)
    assert lp_norm(grid.copy(), grid, 2.0) == pytest.approx(1 / math.sqrt(3), rel=1e-14)


def test_lp_norm_validation():
    grid = np.linspace(0.0, 1.0, 5)
    with pytest.raises(DomainError):
        lp_norm(np.ones(5), grid, 0.5)
    with pytest.raises(DomainError):
        lp_norm(np.ones(4), grid, 2.0)
    with pytest.raises(DomainError):
        lp_norm(np.ones((3, 4)), grid, 2.0)


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
