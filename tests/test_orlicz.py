"""Orlicz generator, inverse, norms, and the two decision thresholds."""

import math

import numpy as np
import pytest

from orthoproc import (
    DomainError,
    OrliczSpec,
    TailBoundSpec,
    UnsupportedRegimeError,
    phi,
    phi_inverse,
    tau_phi_gaussian,
    threshold_accuracy,
    threshold_reliability,
)


def test_threshold_reliability_example():
    # delta=1, alpha=0.05, gamma=2, p=2: beta=2, so 1/(2 ln 40)
    got = threshold_reliability(1.0, 0.05, OrliczSpec(2.0), 2.0)
    assert got == pytest.approx(1.0 / (2.0 * math.log(40.0)), abs=1e-12)


def test_threshold_accuracy_examples():
    assert threshold_accuracy(1.0, 2.0, OrliczSpec(2.0)) == 0.5
    # gamma=3: delta / p^{p(1-1/3)} = 3 / 2^{4/3}
    assert threshold_accuracy(3.0, 2.0, OrliczSpec(3.0)) == pytest.approx(
        3.0 / 2.0 ** (4.0 / 3.0), rel=1e-14
    )


def test_conjugate_exponent():
    for gamma in (1.1, 1.5, 2.0, 3.0, 7.5):
        beta = OrliczSpec(gamma).beta
        assert 1.0 / beta + 1.0 / gamma == pytest.approx(1.0, abs=1e-15)


def test_phi_shape():
    for gamma in (1.5, 2.0, 3.0):
        spec = OrliczSpec(gamma)
        assert phi(0.0, spec) == 0.0
        grid = np.linspace(-3.0, 3.0, 61)
        values = np.array([phi(float(t), spec) for t in grid])
        np.testing.assert_allclose(values, values[::-1], atol=1e-15)  # even
        mid = 0.5 * (values[:-2] + values[2:])
        assert np.all(mid - values[1:-1] >= -1e-12)  # midpoint convexity


def test_phi_piecewise_continuity_at_one():
    for gamma in (2.5, 3.0, 6.0):
        spec = OrliczSpec(gamma)
        inside = phi(1.0 - 1e-13, spec)
        outside = phi(1.0 + 1e-13, spec)
        assert abs(inside - 1.0 / gamma) < 1e-12
        assert abs(outside - inside) < 1e-12


def test_phi_inverse_round_trip():
    for gamma in (1.5, 2.0, 3.0, 4.5):
        spec = OrliczSpec(gamma)
        for y in np.logspace(-6.0, 6.0, 25):
            t = phi_inverse(float(y), spec)
            assert phi(t, spec) == pytest.approx(float(y), rel=1e-10)


def test_phi_inverse_branches():
    spec = OrliczSpec(3.0)
    # quadratic branch while sqrt(gamma y) < 1
    assert phi_inverse(0.1, spec) == pytest.approx(math.sqrt(0.3), rel=1e-14)
    # power branch beyond it
    assert phi_inverse(1.0, spec) == pytest.approx(3.0 ** (1.0 / 3.0), rel=1e-14)


def test_phi_inverse_rejects_negative():
    with pytest.raises(DomainError):
        phi_inverse(-0.1, OrliczSpec(2.0))


def test_tau_phi_gaussian():
    assert tau_phi_gaussian(0.7, OrliczSpec(2.0)) == 0.7
    with pytest.raises(UnsupportedRegimeError):
        tau_phi_gaussian(1.0, OrliczSpec(1.5))
    with pytest.raises(DomainError):
        tau_phi_gaussian(-1.0, OrliczSpec(2.0))


def tau_phi_gaussian_numeric(sigma, orlicz):
    """Numeric process-variable norm of a centered Gaussian from its
    log-moment-generating function sigma^2 lam^2 / 2: the supremum over lam
    of phi_inverse(log mgf) / lam, scanned on a logarithmic grid."""
    lam = np.logspace(-6.0, 6.0, 2001)
    return max(phi_inverse(0.5 * sigma * sigma * x * x, orlicz) / x for x in lam)


def test_tau_phi_gaussian_numeric_oracle():
    for sigma in (0.3, 0.7, 2.5):
        assert tau_phi_gaussian(sigma, OrliczSpec(2.0)) == pytest.approx(
            tau_phi_gaussian_numeric(sigma, OrliczSpec(2.0)), rel=1e-12
        )
    # gamma > 2: the supremum sits on the quadratic branch at sigma sqrt(gamma/2)
    for sigma, gamma in ((1.0, 3.0), (0.7, 4.0)):
        assert tau_phi_gaussian_numeric(sigma, OrliczSpec(gamma)) == pytest.approx(
            sigma * math.sqrt(gamma / 2.0), rel=1e-6
        )


def test_spec_validation():
    for gamma in (1.0, 0.5, -2.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            OrliczSpec(gamma)
    for tau, w in ((0.0, 0.5), (-1.0, 0.5), (1.0, 0.0), (1.0, 1.0), (1.0, -0.3)):
        with pytest.raises(DomainError):
            TailBoundSpec(tau, w)


def test_threshold_validation():
    spec = OrliczSpec(2.0)
    with pytest.raises(DomainError):
        threshold_reliability(0.0, 0.05, spec, 2.0)
    # alpha is a probability level: the same (0, 1) as verify and the CLI
    for alpha in (0.0, 1.0, 1.5, 2.0):
        with pytest.raises(DomainError):
            threshold_reliability(1.0, alpha, spec, 2.0)
    with pytest.raises(DomainError):
        threshold_reliability(1.0, 0.05, spec, 0.5)
    with pytest.raises(DomainError):
        threshold_accuracy(-1.0, 2.0, spec)


def test_threshold_monotonicity():
    spec = OrliczSpec(2.0)
    # stricter reliability (smaller alpha) shrinks the admissible constant
    a = threshold_reliability(1.0, 0.01, spec, 2.0)
    b = threshold_reliability(1.0, 0.10, spec, 2.0)
    assert a < b
    # looser accuracy (larger delta) grows both thresholds
    assert threshold_reliability(2.0, 0.05, spec, 2.0) == pytest.approx(
        2.0 * threshold_reliability(1.0, 0.05, spec, 2.0), rel=1e-14
    )
