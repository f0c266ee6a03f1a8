"""Orlicz generator, the coefficient norm envelope, and the decision thresholds.

The generator is the power family: phi(t) = |t|^gamma / gamma for
1 < gamma <= 2, switching to the piecewise form (t^2/gamma inside the unit
interval, |t|^gamma/gamma outside) for gamma > 2 so phi stays quadratic near
the origin. Its convex conjugate has exponent beta = gamma/(gamma - 1); the
reliability threshold below is expressed through beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .orthopoly import MAX_DEGREE, PolynomialFamily


@dataclass(frozen=True)
class OrliczSpec:
    """Power-family generator parameter gamma > 1."""

    gamma: float = 2.0

    def __post_init__(self) -> None:
        if not (self.gamma > 1.0 and math.isfinite(self.gamma)):
            raise DomainError(f"gamma must be a finite number > 1, got {self.gamma}")

    @property
    def beta(self) -> float:
        """Conjugate exponent gamma/(gamma - 1)."""
        return self.gamma / (self.gamma - 1.0)


@dataclass(frozen=True)
class TailBoundSpec:
    """Geometric coefficient envelope: scale tau > 0, ratio 0 < w < 1."""

    tau: float
    w: float

    def __post_init__(self) -> None:
        if not (self.tau > 0.0 and math.isfinite(self.tau)):
            raise DomainError(f"tau must be a finite number > 0, got {self.tau}")
        if not (0.0 < self.w < 1.0):
            raise DomainError(f"w must lie strictly inside (0, 1), got {self.w}")


def _check_order(k: int, what: str = "k") -> int:
    if not isinstance(k, (int, np.integer)) or k < 0 or k > MAX_DEGREE:
        raise DomainError(f"{what} must be an integer in [0, {MAX_DEGREE}], got {k!r}")
    return int(k)


def tau_bound(family: PolynomialFamily, tb: TailBoundSpec, k: int) -> float:
    """Geometric envelope on the k-th coefficient's process-variable norm.

    Legendre: sqrt(2/(2k+1)) tau w^k. Laguerre: sqrt(Gamma(k+a+1)/k!) tau w^k.
    Gegenbauer: sqrt(k! (k+a) / Gamma(k+2a)) tau w^k; gamma ratios run in log
    space so high orders neither overflow nor lose the small w^k factor.
    """
    k = _check_order(k)
    geo = tb.tau * tb.w**k
    if family.kind == "legendre":
        return math.sqrt(2.0 / (2.0 * k + 1.0)) * geo
    a = family.alpha
    if family.kind == "laguerre":
        return math.exp(0.5 * (math.lgamma(k + a + 1.0) - math.lgamma(k + 1.0))) * geo
    if k == 0 and a < 0.0:
        # Gamma(2a) < 0 exactly cancels the sign of a; the log-space route
        # would lose that sign, so evaluate the ratio directly.
        return math.sqrt(a / math.gamma(2.0 * a)) * geo
    return math.exp(0.5 * (math.lgamma(k + 1.0) + math.log(k + a) - math.lgamma(k + 2.0 * a))) * geo


def tail_weights(family: PolynomialFamily, tb: TailBoundSpec, k_max: int) -> np.ndarray:
    """Vector of tau_bound(k) for k = 0..k_max."""
    k_max = _check_order(k_max, "k_max")
    return np.array([tau_bound(family, tb, k) for k in range(k_max + 1)])


def threshold_reliability(delta: float, alpha: float, spec: OrliczSpec, p: float) -> float:
    """Largest admissible tail constant for accuracy delta at level alpha.

    Computes delta / (beta * ln(2/alpha))^{p/beta}; the model's tail
    constant must not exceed this for the certified deviation probability
    to stay below alpha.

    Raises:
        DomainError: if delta <= 0, alpha outside (0, 1), or p < 1.
    """
    _check_delta_p(delta, p)
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    b = spec.beta
    return delta / (b * math.log(2.0 / alpha)) ** (p / b)


def threshold_accuracy(delta: float, p: float, spec: OrliczSpec) -> float:
    """Strict upper bound on the tail constant for mean L_p accuracy delta.

    Computes delta / p^{p (1 - 1/gamma)}.

    Raises:
        DomainError: if delta <= 0 or p < 1.
    """
    _check_delta_p(delta, p)
    return delta / p ** (p * (1.0 - 1.0 / spec.gamma))


def _check_delta_p(delta: float, p: float) -> None:
    if not (delta > 0.0 and math.isfinite(delta)):
        raise DomainError(f"delta must be a finite number > 0, got {delta}")
    if not (p >= 1.0 and math.isfinite(p)):
        raise DomainError(f"p must be a finite number >= 1, got {p}")
