"""Polynomial families: explicit low-order oracles, normalization spots,
generating-function identities, and domain guards."""

import math

import numpy as np
import pytest

from orthoproc import (
    MAX_DEGREE,
    DomainError,
    gegenbauer,
    gegenbauer_norm_squared,
    generating_function,
    laguerre,
    legendre,
    legendre_pair,
    orthonormal_block,
    partial_gf_sum,
)
from orthoproc.orthopoly import _poly_block

T_GRID = np.linspace(-0.95, 0.95, 9)


def legendre_oracle(k, t):
    return {
        0: lambda t: 1.0,
        1: lambda t: t,
        2: lambda t: (3 * t**2 - 1) / 2,
        3: lambda t: (5 * t**3 - 3 * t) / 2,
        4: lambda t: (35 * t**4 - 30 * t**2 + 3) / 8,
        5: lambda t: (63 * t**5 - 70 * t**3 + 15 * t) / 8,
    }[k](t)


def laguerre_oracle(alpha, k, t):
    return {
        0: lambda t: 1.0,
        1: lambda t: 1.0 + alpha - t,
        2: lambda t: t**2 / 2 - (alpha + 2) * t + (alpha + 1) * (alpha + 2) / 2,
    }[k](t)


def gegenbauer_oracle(alpha, k, t):
    return {
        0: lambda t: 1.0,
        1: lambda t: 2 * alpha * t,
        2: lambda t: 2 * alpha * (alpha + 1) * t**2 - alpha,
        3: lambda t: (4 / 3) * alpha * (alpha + 1) * (alpha + 2) * t**3
        - 2 * alpha * (alpha + 1) * t,
    }[k](t)


def test_legendre_low_orders():
    block = _poly_block(legendre(), 5, T_GRID)
    for k in range(6):
        for t, got in zip(T_GRID, block[k]):
            assert got == pytest.approx(legendre_oracle(k, t), abs=1e-14)


def test_laguerre_low_orders():
    t_points = np.array([0.2, 1.0, 3.5, 10.0])
    for alpha in (-0.5, 0.0, 1.7):
        block = _poly_block(laguerre(alpha), 2, t_points)
        for k in range(3):
            for t, got in zip(t_points, block[k]):
                assert got == pytest.approx(laguerre_oracle(alpha, k, t), rel=1e-13, abs=1e-13)


def test_gegenbauer_low_orders():
    for alpha in (-0.3, 0.5, 1.0, 2.3):
        block = _poly_block(gegenbauer(alpha), 3, T_GRID)
        for k in range(4):
            for t, got in zip(T_GRID, block[k]):
                assert got == pytest.approx(gegenbauer_oracle(alpha, k, t), rel=1e-13, abs=1e-13)


def test_spot_values():
    assert _poly_block(laguerre(0.5), 1, np.array([2.0]))[1, 0] == pytest.approx(-0.5, abs=1e-15)
    assert _poly_block(gegenbauer(0.45), 1, np.array([1.0]))[1, 0] == pytest.approx(
        0.9, abs=1e-15
    )
    # half-integer Gegenbauer reduces to Legendre
    assert _poly_block(gegenbauer(0.5), 3, np.array([0.4]))[3, 0] == pytest.approx(
        legendre_oracle(3, 0.4), abs=1e-14
    )
    # orthonormal Laguerre embeds e^{-t/2}: k=0, alpha=0 at t=2 gives e^{-1}
    assert orthonormal_block(laguerre(0.0), 0, 2.0)[0, 0] == pytest.approx(
        math.exp(-1.0), rel=1e-14
    )
    # orthonormal Legendre k=0 is 1/sqrt(2)
    assert orthonormal_block(legendre(), 0, 0.123)[0, 0] == pytest.approx(
        1 / math.sqrt(2), rel=1e-15
    )


def test_gegenbauer_half_reduces_to_legendre_everywhere():
    got = _poly_block(gegenbauer(0.5), 9, T_GRID)
    want = _poly_block(legendre(), 9, T_GRID)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


def test_orthonormal_block_matches_pointwise():
    # each row is the family polynomial times the embedded half weight over
    # its norm, evaluated point by point from the explicit low-order forms
    cases = (
        (
            legendre(),
            np.linspace(-0.8, 0.8, 5),
            lambda k, t: legendre_oracle(k, t) * math.sqrt(k + 0.5),
        ),
        (
            laguerre(1.7),
            np.linspace(0.3, 0.8, 5),
            lambda k, t: laguerre_oracle(1.7, k, t)
            * math.sqrt(t**1.7 * math.exp(-t) * math.factorial(k) / math.gamma(k + 2.7)),
        ),
        (
            gegenbauer(1.0),
            np.linspace(-0.8, 0.8, 5),
            lambda k, t: gegenbauer_oracle(1.0, k, t)
            * math.sqrt((1 - t * t) ** 0.5 / gegenbauer_norm_squared(1.0, k)),
        ),
    )
    for fam, t_points, oracle in cases:
        block = orthonormal_block(fam, 2, t_points)
        assert block.shape == (3, 5)
        for k in range(3):
            want = [oracle(k, t) for t in t_points]
            np.testing.assert_allclose(block[k], want, rtol=1e-13)


def test_legendre_pair():
    x = np.linspace(-0.9, 0.9, 7)
    pn, pnm1 = legendre_pair(5, x)
    block = _poly_block(legendre(), 5, x)
    np.testing.assert_allclose(pn, block[5], rtol=1e-13)
    np.testing.assert_allclose(pnm1, block[4], rtol=1e-13)


def gegenbauer_norm_oracle(alpha, k):
    """Exact route: expand the polynomial in monomials via the recurrence and
    integrate termwise against Beta-function moments of the weight. Handles
    the strongly singular weights (alpha < 1/2) that defeat quadrature."""
    coeffs = [np.array([1.0]), np.array([0.0, 2.0 * alpha])]
    for j in range(1, k):
        lifted = np.concatenate(([0.0], coeffs[j]))
        prev = np.concatenate((coeffs[j - 1], [0.0, 0.0]))
        coeffs.append((2.0 * (j + alpha) * lifted - (j + 2.0 * alpha - 1.0) * prev) / (j + 1.0))
    c = coeffs[k]
    square = np.convolve(c, c)

    def moment(m):
        return math.gamma(m + 0.5) * math.gamma(alpha + 0.5) / math.gamma(m + alpha + 1.0)

    return sum(square[2 * m] * moment(m) for m in range(k + 1))


def test_gegenbauer_norm_squared_against_moment_oracle():
    for alpha in (-0.3, 0.5, 1.0, 2.3):
        for k in (0, 1, 2, 5):
            assert gegenbauer_norm_squared(alpha, k) == pytest.approx(
                gegenbauer_norm_oracle(alpha, k), rel=1e-10
            )


def test_gegenbauer_norm_squared_half_is_legendre_norm():
    for k in range(8):
        assert gegenbauer_norm_squared(0.5, k) == pytest.approx(2.0 / (2 * k + 1), rel=1e-13)


def test_gf_closed_forms():
    # Legendre at t=1 collapses to the geometric sum 1/(1-w)
    assert generating_function(legendre(), 1.0, 0.5) == pytest.approx(2.0, rel=1e-14)
    # Gegenbauer closed form at t=0: (1+w^2)^{-alpha}
    assert generating_function(gegenbauer(1.0), 0.0, 0.5) == pytest.approx(0.8, rel=1e-14)
    # Laguerre closed form at t=0: (1-w)^{-(alpha+1)}
    assert generating_function(laguerre(0.0), 0.0, 0.5) == pytest.approx(2.0, rel=1e-14)


def test_gf_matches_partial_sums():
    for fam in (legendre(), gegenbauer(1.0), gegenbauer(-0.3), laguerre(0.0), laguerre(1.7)):
        grid = np.linspace(0.0, 1.5, 7) if fam.kind == "laguerre" else np.linspace(-0.9, 0.9, 7)
        for w in (0.2, 0.4, 0.6):
            for t in grid:
                closed = generating_function(fam, float(t), w)
                partial = partial_gf_sum(fam, float(t), w, 80)
                assert partial == pytest.approx(closed, rel=1e-6, abs=1e-9)


def test_partial_gf_spot():
    assert partial_gf_sum(gegenbauer(1.0), 0.0, 0.5, 80) == pytest.approx(0.8, rel=1e-10)


def test_high_degree_stays_finite():
    assert math.isfinite(orthonormal_block(legendre(), MAX_DEGREE, 0.3)[-1, 0])
    assert math.isfinite(orthonormal_block(laguerre(1.7), MAX_DEGREE, 5.0)[-1, 0])
    assert math.isfinite(orthonormal_block(gegenbauer(2.3), 2000, 0.2)[-1, 0])


def test_degree_and_domain_errors():
    with pytest.raises(DomainError):
        orthonormal_block(legendre(), -1, 0.0)
    with pytest.raises(DomainError):
        orthonormal_block(legendre(), MAX_DEGREE + 1, 0.0)
    with pytest.raises(DomainError):
        orthonormal_block(legendre(), 2, 1.5)
    with pytest.raises(DomainError):
        orthonormal_block(laguerre(0.0), 2, -0.1)
    with pytest.raises(DomainError):
        orthonormal_block(legendre(), 2, math.nan)


def test_weight_edge_errors():
    # negative-exponent weights blow up at the boundary points
    with pytest.raises(DomainError):
        orthonormal_block(laguerre(-0.5), 1, 0.0)
    with pytest.raises(DomainError):
        orthonormal_block(gegenbauer(-0.3), 1, 1.0)
    # but the plain polynomials are fine there
    assert np.all(np.isfinite(_poly_block(laguerre(-0.5), 1, np.array([0.0]))))
    assert np.all(np.isfinite(_poly_block(gegenbauer(-0.3), 1, np.array([1.0]))))


def test_family_parameter_validation():
    with pytest.raises(DomainError):
        gegenbauer(0.0)
    with pytest.raises(DomainError):
        gegenbauer(-0.5)
    with pytest.raises(DomainError):
        laguerre(-1.0)
    with pytest.raises(DomainError):
        legendre().__class__("legendre", 1.0)
    with pytest.raises(DomainError):
        legendre().__class__("hermite")


def test_gf_w_validation():
    for w in (0.0, 1.0, -0.2, 1.2):
        with pytest.raises(DomainError):
            generating_function(legendre(), 0.0, w)


def test_scalar_and_array_round_trip():
    fam = legendre()
    v = partial_gf_sum(fam, 0.25, 0.5, 3)
    assert isinstance(v, float)
    arr = partial_gf_sum(fam, np.array([0.25, 0.5]), 0.5, 3)
    assert arr.shape == (2,)
    assert arr[0] == v
