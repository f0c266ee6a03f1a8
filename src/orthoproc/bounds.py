"""Certified truncation-error bounds and minimal-order selection.

Everything here serves one estimate. For a process X(t) with spectral kernel
f(t, .) expanded in an orthonormal polynomial family, the deviation norm of
the discarded tail at time t is bounded by

    max(0, tau * sqrt(E(t)) * sqrt(I(w)) - sum_{k<=N} tau_bound(k) * ahat_k(t))

where E(t) is the kernel energy, I(w) the squared generating-function
integral of the family, and tau_bound(k) the geometric per-coefficient norm
envelope. Raising the clamped bracket to the p-th power and integrating over
the horizon gives the constant C_N; the model meets reliability 1 - alpha
with accuracy delta when C_N passes the two threshold inequalities from the
Orlicz layer.

The subtracted partial sum is signed, not absolute: the clamp at zero keeps
the bound valid when cancellation drives the bracket negative, and
clamped_fraction reports how often that happened. It is also a prefix sum
over k, so c_n_curve gets C_0..C_N for every order from one coefficient
table; c_n_bound and select_N both read that curve. Neither delta nor alpha
enters C_N, only the two thresholds, so the curve is memoised per (spec,
n_max, resolution, override) and repeated queries on one spec reuse it.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .orlicz import TailBoundSpec, tail_weights, threshold_accuracy, threshold_reliability
from .orthopoly import PolynomialFamily, _check_degree, _check_w
from .process import ProcessSpec, compute_coefficients
from .quadrature import (
    _check_node_count,
    _checked_odd,
    cosine_mapped_rule,
    gauss_legendre_rule,
    integrate,
    rule_for_family,
    semi_infinite_rule,
    simpson_weights,
)
from .specfun import hyp2f1_regularized

_GF_ORACLE_RTOL = 1e-6


@dataclass(frozen=True)
class Resolution:
    """Numerical fidelity knobs shared by the bound pipeline.

    Attributes:
        spectral_nodes: quadrature nodes for coefficient integrals.
        time_grid_points: odd uniform time-grid size on [0, T].
        oracle_nodes: nodes for the generating-function cross-check.
    """

    spectral_nodes: int = 256
    time_grid_points: int = 257
    oracle_nodes: int = 256

    def __post_init__(self) -> None:
        _check_node_count(self.spectral_nodes, "spectral_nodes")
        _check_node_count(self.oracle_nodes, "oracle_nodes")
        _checked_odd(self.time_grid_points)


def gf_square_integral(family: PolynomialFamily, w: float) -> float:
    """Integral of the squared generating function over the family domain.

    Closed forms: Legendre ln((1+w)/(1-w))/w; Laguerre
    Gamma(a+1) (1-w^2)^{-(a+1)}; Gegenbauer
    sqrt(pi) Gamma(a+1/2) (1+w^2)^{-2a} 2F1~(a, a+1/2; a+1; 4w^2/(1+w^2)^2)
    with 2F1~ the regularized Gauss hypergeometric function.
    """
    w = _check_w(w)
    if family.kind == "legendre":
        return math.log((1.0 + w) / (1.0 - w)) / w
    a = family.alpha
    if family.kind == "laguerre":
        return math.gamma(a + 1.0) * (1.0 - w * w) ** (-(a + 1.0))
    z = 4.0 * w * w / (1.0 + w * w) ** 2
    hyp = hyp2f1_regularized(a, a + 0.5, a + 1.0, z).value
    return math.sqrt(math.pi) * math.gamma(a + 0.5) * (1.0 + w * w) ** (-2.0 * a) * hyp


def gf_square_integral_oracle(family: PolynomialFamily, w: float, n_nodes: int = 256) -> float:
    """Direct quadrature of the squared-generating-function integrand.

    Independent route used to cross-check the closed forms: Legendre
    integrates (1 - 2*l*w + w^2)^{-1}; Laguerre integrates the weighted
    exponential on the mapped semi-infinite rule; Gegenbauer integrates
    (1 - l^2)^{a - 1/2} (1 - 2*l*w + w^2)^{-2a} on the cosine-mapped rule.
    """
    w = _check_w(w)
    if family.kind == "legendre":
        rule = gauss_legendre_rule(n_nodes)
        return integrate(rule, lambda lam: 1.0 / (1.0 - 2.0 * lam * w + w * w))
    a = family.alpha
    if family.kind == "laguerre":
        rule = semi_infinite_rule(n_nodes, singularity_power=a if a != 0.0 else 0.0)
        pref = (1.0 - w) ** (-2.0 * (a + 1.0))
        decay = 2.0 * w / (1.0 - w)

        def f(lam):
            with np.errstate(under="ignore"):
                return lam**a * np.exp(-lam) * pref * np.exp(-decay * lam)

        return integrate(rule, f)
    rule = cosine_mapped_rule(n_nodes)
    e = a - 0.5

    def g(lam):
        base = np.maximum(1.0 - lam * lam, 0.0)
        with np.errstate(under="ignore"):
            alg = np.ones_like(lam) if e == 0.0 else base**e
            return alg * (1.0 - 2.0 * lam * w + w * w) ** (-2.0 * a)

    return integrate(rule, g)


def _brackets(
    tb: TailBoundSpec, gf_value: float, energy, weights: np.ndarray, coeffs: np.ndarray
) -> np.ndarray:
    """Signed tail brackets of every retained order in one pass.

    Row n is tau sqrt(E) sqrt(I(w)) - sum_{k<=n} weights[k] coeffs[k]: the
    retained sum is a prefix sum over k, so one cumsum along the order axis
    of a (k, t) coefficient table gives every order at once.
    """
    budget = tb.tau * np.sqrt(energy) * math.sqrt(gf_value)
    return budget - np.cumsum(weights[:, np.newaxis] * coeffs, axis=0)


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one C_N evaluation with its gate thresholds.

    pass_rel gates the reliability inequality (C_N <= threshold_rel),
    pass_acc the accuracy inequality (C_N < threshold_acc); the model
    certificate needs both.
    """

    family: PolynomialFamily
    n: int
    c_n: float
    threshold_rel: float
    threshold_acc: float
    pass_rel: bool
    pass_acc: bool
    clamped_fraction: float
    gf_integral_value: float
    gf_integral_oracle: float

    def as_json_dict(self) -> dict:
        return {
            "family": self.family.label,
            "N": self.n,
            "C_N": self.c_n,
            "threshold_rel": self.threshold_rel,
            "threshold_acc": self.threshold_acc,
            "pass_rel": self.pass_rel,
            "pass_acc": self.pass_acc,
            "clamped_fraction": self.clamped_fraction,
            "gf_integral_value": self.gf_integral_value,
            "gf_integral_oracle": self.gf_integral_oracle,
        }


def _gate(c_n: float, thr_rel: float, thr_acc: float) -> tuple[bool, bool]:
    """(pass_rel, pass_acc); both also pass for every smaller C_N."""
    return c_n <= thr_rel, c_n < thr_acc


def _bound_report(family, n, c_n, clamped, thr_rel, thr_acc, gf, oracle) -> BoundReport:
    pass_rel, pass_acc = _gate(c_n, thr_rel, thr_acc)  # numpy bools for a numpy delta
    return BoundReport(
        family, n, c_n, thr_rel, thr_acc, bool(pass_rel), bool(pass_acc), clamped, gf, oracle
    )


@dataclass(frozen=True)
class CNCurve:
    """C_N for every order N = 0..n_max, with the shared gate thresholds.

    curve[n] is the BoundReport of order n. c_n and clamped_fraction are
    shared by every curve of the same (spec, n_max, resolution, override)
    and are read-only.
    """

    family: PolynomialFamily
    c_n: np.ndarray
    clamped_fraction: np.ndarray
    threshold_rel: float
    threshold_acc: float
    gf_integral_value: float
    gf_integral_oracle: float

    def __len__(self) -> int:
        return self.c_n.size

    def __getitem__(self, n: int) -> BoundReport:
        n = range(len(self))[n]
        c_n, clamped_fraction = float(self.c_n[n]), float(self.clamped_fraction[n])
        thresholds = self.threshold_rel, self.threshold_acc
        gf = self.gf_integral_value, self.gf_integral_oracle
        return _bound_report(self.family, n, c_n, clamped_fraction, *thresholds, *gf)


def c_n_curve(
    spec: ProcessSpec,
    n_max: int,
    delta: float,
    alpha: float,
    *,
    resolution: Resolution = Resolution(),
    tail_weight_override: np.ndarray | None = None,
) -> CNCurve:
    """Evaluate C_0..C_{n_max} and the gate thresholds from one coefficient table.

    Computes the model coefficients of orders 0..n_max on the time grid,
    forms the clamped pointwise bound of every order by one prefix sum,
    raises it to spec.p, and integrates over [0, T] by composite Simpson
    (C_N is the integral itself, not its p-th root; the thresholds carry the
    matching power scaling). The closed-form generating-function integral
    is cross-checked against direct quadrature and the run is rejected if
    they disagree beyond 1e-6 relative.

    delta and alpha only set the two thresholds, so the curve itself is
    computed, oracle check included, once per distinct (spec, n_max,
    resolution, override) per process and shared by later calls; a failed
    check is not stored and raises again on every call. spec is part of
    that key, so its kernel callables must be hashable and pure.

    tail_weight_override replaces the family's own tau_bound vector
    (length n_max+1) in the subtracted sum; the budget term keeps the
    family's gf integral. Used to compare two families on identical
    coefficient envelopes.

    Raises:
        ConvergenceError: if the gf closed form fails its oracle check.
        DomainError: on invalid n_max, delta, alpha, or override shape.
    """
    n_max = _check_degree(n_max, "n_max")
    thr_rel = threshold_reliability(delta, alpha, spec.orlicz, spec.p)
    thr_acc = threshold_accuracy(delta, spec.p, spec.orlicz)
    override_bytes = None
    if tail_weight_override is not None:
        tw = np.asarray(tail_weight_override, dtype=float)
        if tw.shape != (n_max + 1,):
            raise DomainError(
                f"tail_weight_override must have shape ({n_max + 1},), got {tw.shape}"
            )
        override_bytes = tw.tobytes()

    c_n, clamped_fraction, gf_value, gf_oracle, _, _ = _curve_arrays(
        spec, n_max, resolution, override_bytes
    )
    return CNCurve(
        family=spec.family,
        c_n=c_n,
        clamped_fraction=clamped_fraction,
        threshold_rel=thr_rel,
        threshold_acc=thr_acc,
        gf_integral_value=gf_value,
        gf_integral_oracle=gf_oracle,
    )


@functools.lru_cache(maxsize=64)
def _curve_arrays(
    spec: ProcessSpec, n_max: int, resolution: Resolution, override_bytes: bytes | None
) -> tuple[np.ndarray, np.ndarray, float, float, tuple[float, ...], tuple[int, ...]]:
    """The (delta, alpha)-free part of c_n_curve: C_N, clamped fractions, gf
    values, and for select_N the _running_min pair as plain floats and ints.

    Cached per process (64 entries of 4 (n_max+1) numbers each); the arrays
    are read-only because every caller gets the same pair. override_bytes is
    the float64 override vector as bytes, or None for the family's weights.
    """
    family = spec.family
    tb = spec.tail
    gf_value = gf_square_integral(family, tb.w)
    gf_oracle = gf_square_integral_oracle(family, tb.w, resolution.oracle_nodes)
    if abs(gf_value - gf_oracle) > max(_GF_ORACLE_RTOL, _GF_ORACLE_RTOL * abs(gf_oracle)):
        raise ConvergenceError(
            f"generating-function integral failed its oracle cross-check for {family.label}: "
            f"closed form {gf_value!r} vs quadrature {gf_oracle!r}"
        )

    if override_bytes is None:
        tw = tail_weights(family, tb, n_max)
    else:
        tw = np.frombuffer(override_bytes, dtype=float)

    time_grid = np.linspace(0.0, spec.horizon, resolution.time_grid_points)
    rule = rule_for_family(family, resolution.spectral_nodes)
    # OpenBLAS gives tables of at most 4 rows other last bits, so every curve
    # reads the leading rows of a table of at least 5
    table = compute_coefficients(spec, max(n_max, 4), rule, time_grid).values[: n_max + 1]
    brackets = _brackets(tb, gf_value, spec.kernel.energy_at(time_grid), tw, table)

    # a per-row sum, unlike a BLAS matrix-vector product, gives row n the same
    # bits whatever the table's height, so every curve agrees with each
    # order's own call wherever their coefficient rows agree
    c_n = (np.maximum(brackets, 0.0) ** spec.p * simpson_weights(time_grid)).sum(axis=1)
    clamped_fraction = np.mean(brackets < 0.0, axis=1)
    c_n.setflags(write=False)
    clamped_fraction.setflags(write=False)
    return c_n, clamped_fraction, gf_value, gf_oracle, *_running_min(c_n.tolist())


def _running_min(c_n: list[float]) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """min(C_0..C_n) and the first order reaching it, for every n."""
    firsts = tuple(itertools.accumulate(range(len(c_n)), lambda b, n: n if c_n[n] < c_n[b] else b))
    return tuple(c_n[n] for n in firsts), firsts


def _select_order(running_min, first_argmin, thr_rel, thr_acc) -> tuple[int | None, int, float]:
    """(first passing order or None, best_n, best_c_n): along the running minimum
    the gate reads False..False, True..True and first passes where C_N does."""
    stop = bisect.bisect_left(running_min, True, key=lambda c: all(_gate(c, thr_rel, thr_acc)))
    if stop == len(running_min):
        return None, first_argmin[-1], running_min[-1]
    return stop, stop, running_min[stop]


def c_n_bound(
    spec: ProcessSpec,
    n: int,
    delta: float,
    alpha: float,
    *,
    resolution: Resolution = Resolution(),
    tail_weight_override: np.ndarray | None = None,
) -> BoundReport:
    """Evaluate the truncation-error constant C_N and its gate thresholds.

    The last order of c_n_curve(spec, n, ...); see there for the method and
    for tail_weight_override (length n+1 here).

    Raises:
        ConvergenceError: if the gf closed form fails its oracle check.
        DomainError: on invalid n, delta, alpha, or override shape.
    """
    n = _check_degree(n, "N")
    curve = c_n_curve(
        spec, n, delta, alpha, resolution=resolution, tail_weight_override=tail_weight_override
    )
    return curve[n]


def check_conditions(report: BoundReport) -> bool:
    """True iff C_N <= threshold_rel and C_N < threshold_acc."""
    return all(_gate(report.c_n, report.threshold_rel, report.threshold_acc))


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of the minimal-order scan.

    selected_n / report are None when no order in [0, n_max] passed; best_n
    and best_c_n then identify the closest miss.
    """

    selected_n: int | None
    report: BoundReport | None
    best_n: int
    best_c_n: float


def select_N(
    spec: ProcessSpec,
    delta: float,
    alpha: float,
    n_max: int,
    *,
    resolution: Resolution = Resolution(),
) -> SelectionResult:
    """Smallest truncation order in [0, n_max] meeting both gate conditions.

    Reads the c_n_curve of (spec, n_max, resolution). C_N is not assumed
    monotone in N (retained coefficients enter the bracket with a minus
    sign), so the first passing order is found by bisecting the running
    minimum of C_N; best_n is the first argmin of C_N up to the selected
    order, or over all orders when none passes.
    """
    n_max = _check_degree(n_max, "n_max")
    thr_rel = threshold_reliability(delta, alpha, spec.orlicz, spec.p)
    thr_acc = threshold_accuracy(delta, spec.p, spec.orlicz)
    _, clamped, *gf, running_min, first_argmin = _curve_arrays(spec, n_max, resolution, None)
    n, best_n, best_c_n = _select_order(running_min, first_argmin, thr_rel, thr_acc)
    if n is None:
        return SelectionResult(None, None, best_n, best_c_n)
    report = _bound_report(spec.family, n, best_c_n, float(clamped[n]), thr_rel, thr_acc, *gf)
    return SelectionResult(n, report, best_n, best_c_n)
