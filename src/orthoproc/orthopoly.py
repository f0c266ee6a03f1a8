"""Orthogonal polynomial families and their weight-embedded orthonormal forms.

Three families on two spectral domains:

* ``legendre`` on [-1, 1], unit weight;
* ``laguerre`` (generalized, parameter alpha > -1) on [0, inf), weight
  t^alpha e^-t;
* ``gegenbauer`` (parameter alpha > -1/2, alpha != 0) on [-1, 1], weight
  (1 - t^2)^(alpha - 1/2).

The orthonormal form embeds half of the weight into the function itself, so
the embedded functions are orthonormal under the plain Lebesgue measure of
the domain. Normalization constants are evaluated through log-gamma
differences, which keeps degrees up to ``MAX_DEGREE`` finite in double
precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

MAX_DEGREE = 10_000

_KINDS = ("legendre", "laguerre", "gegenbauer")

# exp() argument above which a normalization constant can no longer be
# represented in double precision.
_LOG_HUGE = 705.0


@dataclass(frozen=True)
class PolynomialFamily:
    """A polynomial family selector: kind plus the family parameter.

    Attributes:
        kind: one of "legendre", "laguerre", "gegenbauer".
        alpha: family parameter; None for Legendre, alpha > -1 for Laguerre,
            alpha > -1/2 and alpha != 0 for Gegenbauer.
    """

    kind: str
    alpha: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise DomainError(f"unknown family kind {self.kind!r}; expected one of {_KINDS}")
        if self.kind == "legendre":
            if self.alpha is not None:
                raise DomainError("legendre takes no alpha parameter")
        elif self.kind == "laguerre":
            if self.alpha is None or not self.alpha > -1.0:
                raise DomainError(f"laguerre requires alpha > -1, got {self.alpha}")
        else:
            if self.alpha is None or not self.alpha > -0.5 or self.alpha == 0.0:
                raise DomainError(
                    f"gegenbauer requires alpha > -1/2 and alpha != 0, got {self.alpha}"
                )

    @property
    def domain(self) -> tuple[float, float]:
        """Closed spectral domain of the family."""
        return (0.0, math.inf) if self.kind == "laguerre" else (-1.0, 1.0)

    @property
    def label(self) -> str:
        """Readable identifier, e.g. "legendre" or "laguerre(alpha=0.5)"."""
        if self.alpha is None:
            return self.kind
        return f"{self.kind}(alpha={self.alpha:g})"


def legendre() -> PolynomialFamily:
    return PolynomialFamily("legendre")


def laguerre(alpha: float) -> PolynomialFamily:
    return PolynomialFamily("laguerre", float(alpha))


def gegenbauer(alpha: float) -> PolynomialFamily:
    return PolynomialFamily("gegenbauer", float(alpha))


def _check_degree(k: int, what: str) -> int:
    """k as an int, if it is an integer order in [0, MAX_DEGREE]."""
    if not isinstance(k, (int, np.integer)) or not (0 <= k <= MAX_DEGREE):
        raise DomainError(f"{what} must be an integer in [0, {MAX_DEGREE}], got {k!r}")
    return int(k)


def _check_points(family: PolynomialFamily, t: np.ndarray) -> None:
    if not np.all(np.isfinite(t)):
        raise DomainError("evaluation points must be finite")
    lo, hi = family.domain
    if np.any(t < lo) or np.any(t > hi):
        raise DomainError(f"evaluation points outside the {family.kind} domain [{lo}, {hi}]")


def _recurrence_step(family: PolynomialFamily, k: int, t, pk, pkm1):
    """One step of the three-term recurrence: value at degree k+1."""
    if family.kind == "legendre":
        return ((2 * k + 1) * t * pk - k * pkm1) / (k + 1.0)
    if family.kind == "laguerre":
        a = family.alpha
        return ((2 * k + 1 + a - t) * pk - (k + a) * pkm1) / (k + 1.0)
    a = family.alpha
    return (2.0 * (k + a) * t * pk - (k + 2.0 * a - 1.0) * pkm1) / (k + 1.0)


def _degree_one(family: PolynomialFamily, t):
    if family.kind == "legendre":
        return np.asarray(t, dtype=float).copy()
    if family.kind == "laguerre":
        return 1.0 + family.alpha - t
    return 2.0 * family.alpha * t


def _poly_block(family: PolynomialFamily, k_max: int, t: np.ndarray) -> np.ndarray:
    """All unnormalized polynomials of degree 0..k_max at points t, stacked."""
    out = np.empty((k_max + 1,) + t.shape, dtype=float)
    out[0] = 1.0
    if k_max >= 1:
        out[1] = _degree_one(family, t)
    for j in range(1, k_max):
        out[j + 1] = _recurrence_step(family, j, t, out[j], out[j - 1])
    return out


def legendre_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_n, P_{n-1}) at points x; the pair the Newton node solver needs.

    Runs the Legendre recurrence in place on three arrays, in the form
    P_{j+1} = x P_j + (j/(j + 1)) (x P_j - P_{j-1}), so each step allocates
    nothing.
    """
    n = _check_degree(n, "n")
    x = np.asarray(x, dtype=float)
    if n == 0:
        return np.ones_like(x), np.zeros_like(x)
    pkm1 = np.ones_like(x)
    pk = x.copy()
    term = np.empty_like(x)
    for j in range(1, n):
        np.multiply(x, pk, out=term)
        np.subtract(term, pkm1, out=pkm1)  # P_{j+1} is built in P_{j-1}'s array
        pkm1 *= j / (j + 1.0)
        pkm1 += term
        pkm1, pk = pk, pkm1
    return pk, pkm1


def _checked_exp(log_value: float, what: str) -> float:
    if abs(log_value) > _LOG_HUGE:
        raise OverflowError(f"{what} has log magnitude {log_value:.1f}, not representable")
    return math.exp(log_value)


def _legendre_scale(k: int) -> float:
    return math.sqrt((2 * k + 1) / 2.0)


def _laguerre_scale(alpha: float, k: int) -> float:
    return _checked_exp(
        0.5 * (math.lgamma(k + 1.0) - math.lgamma(k + alpha + 1.0)),
        "laguerre normalization",
    )


def gegenbauer_norm_squared(alpha: float, k: int) -> float:
    """Squared norm of the degree-k Gegenbauer polynomial under its weight.

    For alpha in (-1/2, 0) at k = 0 both Gamma(2 alpha) and alpha are
    negative and the ratio is positive, so that case runs in direct space;
    everything else uses log-gamma differences.
    """
    const = math.pi * 2.0 ** (1.0 - 2.0 * alpha)
    if k == 0 and alpha < 0.0:
        return const * math.gamma(2.0 * alpha) / (alpha * math.gamma(alpha) ** 2)
    # math.lgamma returns log|Gamma|, so this is sign-safe for alpha < 0 too
    # (Gamma(alpha) enters squared).
    log_ratio = (
        math.lgamma(k + 2.0 * alpha)
        - math.lgamma(k + 1.0)
        - 2.0 * math.lgamma(alpha)
        - math.log(k + alpha)
    )
    return const * _checked_exp(log_ratio, "gegenbauer norm")


def _gegenbauer_scale(alpha: float, k: int) -> float:
    return 1.0 / math.sqrt(gegenbauer_norm_squared(alpha, k))


def _half_weight(family: PolynomialFamily, t: np.ndarray, k_max: int) -> tuple:
    """Embedded half-weight factor and the lanes forced to zero.

    Returns (factor, zero_mask, t_safe) where t_safe replaces masked points
    by a harmless value so the recurrence cannot overflow on lanes whose
    final value underflows to an exact 0.
    """
    if family.kind == "legendre":
        return np.ones_like(t), None, t
    if family.kind == "laguerre":
        a = family.alpha
        if a < 0.0 and np.any(t == 0.0):
            raise DomainError("laguerre orthonormal form is singular at t = 0 for alpha < 0")
        # Lanes where even a generous bound on the polynomial growth cannot
        # lift the value above the double-precision underflow threshold.
        bound = -0.5 * t + 0.5 * a * np.log(np.maximum(t, 1.0)) + k_max * np.log1p(t)
        mask = bound < -790.0
        t_safe = np.where(mask, 1.0, t)
        with np.errstate(under="ignore"):
            factor = t_safe ** (0.5 * a) * np.exp(-0.5 * t_safe) if a != 0.0 else np.exp(-0.5 * t_safe)
        return factor, mask, t_safe
    e = 0.5 * (family.alpha - 0.5)
    if e == 0.0:
        return np.ones_like(t), None, t
    if e < 0.0 and np.any(np.abs(t) == 1.0):
        raise DomainError(
            "gegenbauer orthonormal form is singular at |t| = 1 for alpha < 1/2"
        )
    return (1.0 - t * t) ** e, None, t


def _scale(family: PolynomialFamily, k: int) -> float:
    if family.kind == "legendre":
        return _legendre_scale(k)
    if family.kind == "laguerre":
        return _laguerre_scale(family.alpha, k)
    return _gegenbauer_scale(family.alpha, k)


def orthonormal_block(family: PolynomialFamily, k_max: int, t: np.ndarray) -> np.ndarray:
    """Orthonormal functions of degree 0..k_max at points t, shape (k_max+1, n)."""
    k_max = _check_degree(k_max, "k_max")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    _check_points(family, t)
    factor, mask, t_safe = _half_weight(family, t, k_max)
    block = _poly_block(family, k_max, t_safe)
    block *= factor
    for k in range(k_max + 1):
        block[k] *= _scale(family, k)
    if mask is not None and np.any(mask):
        block[:, mask] = 0.0
    return block


def _check_w(w: float) -> float:
    if not (0.0 < w < 1.0):
        raise DomainError(f"generating-function argument w must be in (0, 1), got {w}")
    return float(w)


def generating_function(family: PolynomialFamily, t, w: float):
    """Closed-form generating function sum_k p_k(t) w^k of the raw polynomials."""
    _check_w(w)
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    _check_points(family, arr)
    if family.kind == "legendre":
        val = (1.0 - 2.0 * arr * w + w * w) ** -0.5
    elif family.kind == "laguerre":
        a = family.alpha
        val = (1.0 - w) ** -(a + 1.0) * np.exp(-w * arr / (1.0 - w))
    else:
        val = (1.0 - 2.0 * arr * w + w * w) ** -family.alpha
    return float(val[0]) if np.isscalar(t) or np.ndim(t) == 0 else val


def partial_gf_sum(family: PolynomialFamily, t, w: float, k_max: int):
    """Truncated generating-function sum sum_{k<=k_max} p_k(t) w^k."""
    _check_w(w)
    k_max = _check_degree(k_max, "k_max")
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    _check_points(family, arr)
    block = _poly_block(family, k_max, arr)
    total = block[0].copy()
    wk = 1.0
    for row in block[1:]:
        wk *= w
        total += wk * row
    return float(total[0]) if np.isscalar(t) or np.ndim(t) == 0 else total
