"""Quadrature rules and grid norms.

Finite-interval work runs on Gauss-Legendre nodes computed by Newton
iteration on the Legendre recurrence (no stored tables). Newton starts from
Tricomi's asymptotic guess and runs on the nonnegative half of the roots
only, so a rule of 20 or more nodes takes three recurrence passes (at most
four below that) over n/2 points, the weights included. Semi-infinite
integrals map Gauss-Legendre through the rational substitution
lambda = u/(1-u); an optional power composition handles integrands with an
algebraic lambda^s factor at the origin, which a plain rational map resolves
too slowly for tight tolerances. Interval integrands carrying Gegenbauer-type
(1-t^2)^e endpoint factors get a cosine-mapped rule.

Grid functionals (the L_p norm and the time integral of the bound) use
composite Simpson weights on uniform odd grids.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError
from .orthopoly import PolynomialFamily, legendre_pair

MAX_NODES = 4096
_NEWTON_TOL = 1e-14
_NEWTON_MAX_ITER = 100


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Fixed nodes and weights targeting one integration domain.

    Attributes:
        kind: rule identifier ("gauss-legendre", "semi-infinite" or
            "cosine-mapped").
        nodes: strictly increasing evaluation points inside target_domain.
        weights: positive weights, same length as nodes.
        target_domain: (lo, hi) the rule integrates over; hi may be inf.
    """

    kind: str
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    target_domain: tuple[float, float] = (-1.0, 1.0)

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise DomainError("nodes and weights must be 1-d arrays of equal length")
        if nodes.size == 0:
            raise DomainError("a rule needs at least one node")
        if np.any(weights <= 0.0):
            raise DomainError("quadrature weights must be positive")
        if np.any(np.diff(nodes) <= 0.0):
            raise DomainError("quadrature nodes must be strictly increasing")
        lo, hi = self.target_domain
        if nodes[0] < lo or nodes[-1] > hi:
            raise DomainError("quadrature nodes fall outside the target domain")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


def _check_node_count(n: int, what: str) -> None:
    if not isinstance(n, (int, np.integer)) or not (1 <= n <= MAX_NODES):
        raise DomainError(f"{what} must be an integer in [1, {MAX_NODES}], got {n!r}")


@functools.lru_cache(maxsize=16)
def _gauss_legendre_raw(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted Gauss-Legendre nodes and weights, one Newton solve per n.

    Cached per process (16 entries of at most 64 KB), so the spectral and
    oracle rules of a C_N evaluation share one solve; the arrays are
    read-only because every caller gets the same pair.

    Newton runs on the nonnegative roots only, from Tricomi's asymptotic
    guess, and the rule is mirrored; an odd n has its middle root at exactly
    0, where the recurrence gives P_n = 0 exactly. The last update also
    carries P_n' to the updated nodes through the Legendre ODE
    (1 - x^2) P_n'' = 2x P_n' - n(n+1) P_n, so the weights need no further
    evaluation of the recurrence.
    """
    half = (n + 1) // 2
    phi = math.pi * (np.arange(half) + 0.75) / (n + 0.5)
    x = (1.0 - (n - 1) / (8.0 * n**3) - (39.0 - 28.0 / np.sin(phi) ** 2) / (384.0 * n**4))
    x *= np.cos(phi)
    if n % 2:
        x[-1] = 0.0
    for _ in range(_NEWTON_MAX_ITER):
        pn, pnm1 = legendre_pair(n, x)
        # (1 - x)(1 + x) stays accurate to a few ulps next to x = 1, where
        # 1 - x * x cancels
        one_minus_x2 = (1.0 - x) * (1.0 + x)
        dpn = n * (pnm1 - x * pn) / one_minus_x2
        dx = pn / dpn
        dpn -= dx * (2.0 * x * dpn - n * (n + 1.0) * pn) / one_minus_x2
        x -= dx
        if np.max(np.abs(dx)) < _NEWTON_TOL:
            break
    else:
        raise ConvergenceError("Gauss-Legendre Newton iteration did not converge")
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dpn * dpn)
    # x decreases from the largest root; the n // 2 positive roots mirror
    nodes, weights = np.empty(n), np.empty(n)
    nodes[n - half :], weights[n - half :] = x[::-1], w[::-1]
    nodes[: n // 2], weights[: n // 2] = -x[: n // 2], w[: n // 2]
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gauss_legendre_rule(n: int) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [-1, 1], exact through degree 2n - 1.

    Nodes are the Legendre roots found by Newton iteration from Tricomi's
    asymptotic guesses, refined to 1e-14 on the nonnegative half and
    mirrored; n >= 20 takes three recurrence passes, fewer nodes at most
    four. The solve is cached per n, and the rule's arrays are shared and
    read-only.

    Raises:
        DomainError: if n is outside [1, MAX_NODES].
    """
    _check_node_count(n, "node count")
    x, w = _gauss_legendre_raw(n)
    return QuadratureRule("gauss-legendre", x, w)


def _power_map_order(singularity_power: float) -> int:
    if singularity_power <= -1.0:
        raise DomainError(
            f"singularity power must exceed -1 for an integrable endpoint, got {singularity_power}"
        )
    if singularity_power >= 0.0 and abs(singularity_power - round(singularity_power)) < 1e-12:
        return 1
    return max(1, math.ceil(2.0 / (1.0 + singularity_power)))


def semi_infinite_rule(n: int, singularity_power: float = 0.0) -> QuadratureRule:
    """n-point rule on [0, inf) by the rational map lambda = u/(1-u).

    With the default ``singularity_power = 0`` this is the plain mapped
    Gauss-Legendre rule. A non-integer power s describes an integrand factor
    lambda^s at the origin; the rule then composes lambda = q^m with
    m = ceil(2/(1+s)), which restores fast convergence for fractional
    weights (for example the Laguerre weight with alpha = -0.5).

    Raises:
        DomainError: if n is out of range or singularity_power <= -1.
    """
    _check_node_count(n, "node count")
    m = _power_map_order(singularity_power)
    x, w = _gauss_legendre_raw(n)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * w
    q = u / (1.0 - u)
    jac = 1.0 / (1.0 - u) ** 2
    lam = q**m
    wl = wu * jac * m * q ** (m - 1)
    return QuadratureRule("semi-infinite", lam, wl, (0.0, math.inf))


def cosine_mapped_rule(n: int) -> QuadratureRule:
    """n-point rule on [-1, 1] through t = cos(theta).

    The Jacobian sin(theta) absorbs one half power of (1 - t^2), so
    integrands carrying algebraic (1 - t^2)^e endpoint factors (embedded
    Gegenbauer weights) converge at high order where the plain rule stalls.
    """
    _check_node_count(n, "node count")
    x, w = _gauss_legendre_raw(n)
    theta = 0.5 * (x + 1.0) * math.pi
    t = np.cos(theta)
    wt = 0.5 * math.pi * w * np.sin(theta)
    order = np.argsort(t)
    return QuadratureRule("cosine-mapped", t[order], wt[order])


def _checked_odd(n_points: int) -> int:
    if not isinstance(n_points, (int, np.integer)) or n_points < 3 or n_points % 2 == 0:
        raise DomainError(f"composite Simpson needs an odd point count >= 3, got {n_points!r}")
    return int(n_points)


def simpson_weights(grid: np.ndarray) -> np.ndarray:
    """Composite Simpson weights for a uniform, increasing, odd-length grid.

    Raises:
        DomainError: if the grid is too short, even-length, non-increasing,
            or not uniform.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1:
        raise DomainError("grid must be one-dimensional")
    _checked_odd(grid.size)
    steps = np.diff(grid)
    if np.any(steps <= 0.0):
        raise DomainError("grid must be strictly increasing")
    h = (grid[-1] - grid[0]) / (grid.size - 1)
    if np.max(np.abs(steps - h)) > 1e-9 * max(abs(h), 1e-300):
        raise DomainError("grid must be uniform")
    w = np.ones(grid.size)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def integrate(rule: QuadratureRule, f) -> float:
    """Apply the rule to a vectorized callable."""
    values = np.asarray(f(rule.nodes), dtype=float)
    if values.shape != rule.nodes.shape:
        raise DomainError("integrand must return one value per node")
    return float(np.dot(rule.weights, values))


def _lp_norms_inplace(values: np.ndarray, w: np.ndarray, p: float) -> np.ndarray:
    """(sum_j w_j |values_j|^p)^(1/p) along the trailing axis, computed in
    the float64 array values, which it overwrites."""
    np.abs(values, out=values)
    np.power(values, p, out=values)
    return (values @ w) ** (1.0 / p)


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-11, max_depth: int = 48) -> float:
    """Recursive adaptive Simpson integration of a scalar callable.

    Utility for oracle-style checks; refuses to return on hitting the depth
    limit rather than degrade silently.
    """

    def simp(lo, flo, hi, fhi, mid, fmid):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, flo, mid, fmid, hi, fhi, whole, eps, depth):
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        flmid = f(lmid)
        frmid = f(rmid)
        left = simp(lo, flo, mid, fmid, lmid, flmid)
        right = simp(mid, fmid, hi, fhi, rmid, frmid)
        if depth <= 0:
            raise ConvergenceError("adaptive Simpson hit its depth limit")
        if abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return recurse(lo, flo, lmid, flmid, mid, fmid, left, 0.5 * eps, depth - 1) + recurse(
            mid, fmid, rmid, frmid, hi, fhi, right, 0.5 * eps, depth - 1
        )

    fa, fb = f(a), f(b)
    mid = 0.5 * (a + b)
    fmid = f(mid)
    whole = simp(a, fa, b, fb, mid, fmid)
    return recurse(a, fa, mid, fmid, b, fb, whole, tol, max_depth)


def rule_for_family(family: PolynomialFamily, n: int) -> QuadratureRule:
    """Spectral rule suited to integrating f(t, .) against the family's
    orthonormal functions (which embed half of the weight)."""
    if family.kind == "legendre":
        return gauss_legendre_rule(n)
    if family.kind == "gegenbauer":
        return cosine_mapped_rule(n)
    power = 0.5 * family.alpha
    return semi_infinite_rule(n, singularity_power=power if family.alpha != 0.0 else 0.0)
