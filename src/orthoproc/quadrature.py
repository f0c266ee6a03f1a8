"""Quadrature rules and grid norms.

Finite-interval work runs on Gauss-Legendre nodes computed by Newton
iteration on the Legendre recurrence (no stored tables). Semi-infinite
integrals map Gauss-Legendre through the rational substitution
lambda = u/(1-u); an optional power composition handles integrands with an
algebraic lambda^s factor at the origin, which a plain rational map resolves
too slowly for tight tolerances. Interval integrands carrying Gegenbauer-type
(1-t^2)^e endpoint factors get a cosine-mapped rule.

Grid functionals (the L_p norm and the time integral of the bound) use
composite Simpson weights on uniform odd grids.
"""

from __future__ import annotations

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
        kind: rule identifier ("gauss-legendre", "semi-infinite",
            "cosine-mapped", "simpson").
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


def _check_node_count(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or not (1 <= n <= MAX_NODES):
        raise DomainError(f"node count must be an integer in [1, {MAX_NODES}], got {n!r}")


def _gauss_legendre_raw(n: int) -> tuple[np.ndarray, np.ndarray]:
    k = np.arange(n, dtype=float)
    x = np.cos(math.pi * (k + 0.75) / (n + 0.5))
    for _ in range(_NEWTON_MAX_ITER):
        pn, pnm1 = legendre_pair(n, x)
        dpn = n * (x * pn - pnm1) / (x * x - 1.0)
        dx = pn / dpn
        x -= dx
        if np.max(np.abs(dx)) < _NEWTON_TOL:
            break
    else:
        raise ConvergenceError("Gauss-Legendre Newton iteration did not converge")
    pn, pnm1 = legendre_pair(n, x)
    dpn = n * (x * pn - pnm1) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dpn * dpn)
    order = np.argsort(x)
    return x[order], w[order]


def gauss_legendre_rule(n: int) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [-1, 1], exact through degree 2n - 1.

    Nodes are the Legendre roots found by Newton iteration from the
    asymptotic cosine initial guesses, refined to 1e-14.

    Raises:
        DomainError: if n is outside [1, MAX_NODES].
    """
    _check_node_count(n)
    if n == 1:
        return QuadratureRule("gauss-legendre", np.array([0.0]), np.array([2.0]))
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
    _check_node_count(n)
    m = _power_map_order(singularity_power)
    x, w = _gauss_legendre_raw(n) if n > 1 else (np.array([0.0]), np.array([2.0]))
    u = 0.5 * (x + 1.0)
    wu = 0.5 * w
    q = u / (1.0 - u)
    jac = 1.0 / (1.0 - u) ** 2
    if m == 1:
        lam = q
        wl = wu * jac
    else:
        lam = q**m
        wl = wu * jac * m * q ** (m - 1)
    return QuadratureRule("semi-infinite", lam, wl, (0.0, math.inf))


def cosine_mapped_rule(n: int) -> QuadratureRule:
    """n-point rule on [-1, 1] through t = cos(theta).

    The Jacobian sin(theta) absorbs one half power of (1 - t^2), so
    integrands carrying algebraic (1 - t^2)^e endpoint factors (embedded
    Gegenbauer weights) converge at high order where the plain rule stalls.
    """
    _check_node_count(n)
    x, w = _gauss_legendre_raw(n) if n > 1 else (np.array([0.0]), np.array([2.0]))
    theta = 0.5 * (x + 1.0) * math.pi
    t = np.cos(theta)
    wt = 0.5 * math.pi * w * np.sin(theta)
    order = np.argsort(t)
    return QuadratureRule("cosine-mapped", t[order], wt[order])


def simpson_rule(a: float, b: float, n_points: int) -> QuadratureRule:
    """Composite Simpson rule on [a, b] with an odd number of points."""
    if not (b > a):
        raise DomainError(f"simpson_rule needs b > a, got [{a}, {b}]")
    nodes = np.linspace(a, b, _checked_odd(n_points))
    return QuadratureRule("simpson", nodes, simpson_weights(nodes), (a, b))


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


def lp_norm(values_on_grid: np.ndarray, grid: np.ndarray, p: float) -> float | np.ndarray:
    """L_p norm of grid samples over [grid[0], grid[-1]], composite Simpson.

    The norm is taken along the trailing axis, so a stack of sampled
    functions (one per row) gives an array of norms; a single 1-d sample
    gives a float.

    Raises:
        DomainError: if p < 1, the trailing length differs from the grid's,
            or the grid fails the Simpson shape requirements.
    """
    if not (p >= 1.0):
        raise DomainError(f"lp_norm requires p >= 1, got {p}")
    values = np.asarray(values_on_grid, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if values.shape[-1:] != grid.shape:
        raise DomainError("values and grid must have matching length")
    w = simpson_weights(grid)
    norms = (np.abs(values) ** p @ w) ** (1.0 / p)
    return float(norms) if values.ndim == 1 else norms


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
