"""Orlicz and envelope parameters, and the two decision thresholds."""

import math

import pytest

from orthoproc import (
    DomainError,
    OrliczSpec,
    TailBoundSpec,
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
