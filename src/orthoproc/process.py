"""Process model construction and Monte Carlo verification.

A process is specified by a spectral kernel f(t, lambda) together with an
orthonormal polynomial family on the kernel's spectral domain. Expansion
coefficients ahat_k(t) are quadratures of f(t, .) against the orthonormal
functions; truncated sample paths are X_N(t) = sum_k xi_k ahat_k(t).

Verification stands the unobservable exact process in for by a
high-truncation, high-resolution reference expansion sharing the same xi
draws; the empirical exceedance rate of the L_p deviation over many paths is
compared against the certified level. Paths are produced on one thread in
fixed chunks of _CHUNK_PATHS; every path derives its randomness from a
counter-based stream keyed by (seed, path index), so results depend only on
the seed and the path count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bounds import tail_weights
from .errors import DomainError, UnknownKernelError
from .orlicz import OrliczSpec, TailBoundSpec
from .orthopoly import PolynomialFamily, orthonormal_block
from .quadrature import QuadratureRule, lp_norm, rule_for_family

XI_MODES = ("unit-variance", "norm-decaying")

# paths per engine chunk; a constant so that BLAS blocking, and with it every
# output bit, depends on nothing but (seed, paths)
_CHUNK_PATHS = 1024


@dataclass(frozen=True)
class Kernel:
    """Spectral kernel f(t, lambda) with its closed-form energy.

    Attributes:
        name: registry identifier.
        domain: spectral domain (must match the paired family's).
        evaluate: (time_grid, nodes) -> matrix of f values, one row per time.
        energy_at: t -> integral of f(t, .)^2 over the domain.
    """

    name: str
    domain: tuple[float, float]
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(repr=False)
    energy_at: Callable[[np.ndarray], np.ndarray] = field(repr=False)


def _scalar_aware(f):
    def wrapped(t):
        arr = np.asarray(t, dtype=float)
        out = f(arr)
        return float(out) if arr.ndim == 0 else out

    return wrapped


@_scalar_aware
def _exp_bounded_energy(t):
    small = np.abs(t) < 1e-12
    safe = np.where(small, 1.0, t)
    return np.where(small, 2.0, np.sinh(2.0 * safe) / safe)


_BUILTIN = {
    "exp-bounded": Kernel(
        "exp-bounded",
        (-1.0, 1.0),
        lambda t, lam: np.exp(np.multiply.outer(np.asarray(t, float), lam)),
        _exp_bounded_energy,
    ),
    "exp-decay": Kernel(
        "exp-decay",
        (0.0, math.inf),
        lambda t, lam: np.exp(-np.multiply.outer(1.0 + np.asarray(t, float), lam)),
        _scalar_aware(lambda t: 1.0 / (2.0 * (1.0 + t))),
    ),
    "poly-bounded": Kernel(
        "poly-bounded",
        (-1.0, 1.0),
        lambda t, lam: (1.0 + np.multiply.outer(np.asarray(t, float), lam)) ** 2,
        # exact expansion of ((1+t)^5 - (1-t)^5)/(5t); no removable singularity
        _scalar_aware(lambda t: 2.0 + 4.0 * t**2 + 0.4 * t**4),
    ),
}


def kernel_names() -> list[str]:
    return sorted(_BUILTIN)


def builtin_kernel(name: str) -> Kernel:
    """Look up a registered kernel.

    Raises:
        UnknownKernelError: naming the known kernels.
    """
    try:
        return _BUILTIN[name]
    except KeyError:
        raise UnknownKernelError(
            f"unknown kernel {name!r}; available: {', '.join(kernel_names())}"
        ) from None


@dataclass(frozen=True)
class ProcessSpec:
    """Full problem statement: kernel, basis family, horizon, and norms.

    Attributes:
        kernel: spectral kernel (domain must equal the family's).
        family: orthonormal polynomial family fixing the basis.
        horizon: time horizon T > 0 of the L_p[0, T] norm.
        p: norm exponent, p >= 1.
        orlicz: generator of the process-variable norm.
        tail: geometric envelope (tau, w) on the coefficient norms.
    """

    kernel: Kernel
    family: PolynomialFamily
    horizon: float
    p: float
    orlicz: OrliczSpec
    tail: TailBoundSpec

    def __post_init__(self) -> None:
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise DomainError(f"horizon must be a finite number > 0, got {self.horizon}")
        if not (self.p >= 1.0 and math.isfinite(self.p)):
            raise DomainError(f"p must be a finite number >= 1, got {self.p}")
        if self.kernel.domain != self.family.domain:
            raise DomainError(
                f"kernel {self.kernel.name!r} lives on {self.kernel.domain}, "
                f"family {self.family.label} on {self.family.domain}"
            )


@dataclass(frozen=True, eq=False)
class CoefficientTable:
    """Expansion coefficients ahat_k(t_j) tabulated on a time grid.

    values has one row per order k = 0..n and one column per grid point.
    """

    n: int
    time_grid: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    quadrature_nodes_used: int = 0

    def __post_init__(self) -> None:
        grid = np.asarray(self.time_grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or values.shape != (self.n + 1, grid.size):
            raise DomainError(
                f"values must have shape ({self.n + 1}, {grid.size}), got {values.shape}"
            )
        if not np.all(np.isfinite(grid)) or not np.all(np.isfinite(values)):
            raise DomainError("coefficient table contains non-finite entries")
        object.__setattr__(self, "time_grid", grid)
        object.__setattr__(self, "values", values)

    def as_json_dict(self) -> dict:
        return {
            "N": self.n,
            "time_grid": self.time_grid.tolist(),
            "values": self.values.tolist(),
            "quadrature_nodes_used": self.quadrature_nodes_used,
        }


def compute_coefficients(
    spec: ProcessSpec,
    n: int,
    rule: QuadratureRule | int,
    time_grid,
) -> CoefficientTable:
    """Tabulate ahat_k(t) = quadrature of f(t, .) times the k-th orthonormal
    function, for k = 0..n on the given grid.

    The rule's node count is the sole fidelity knob: more nodes move ahat_k
    toward the exact coefficient. An integer rule is shorthand for the
    family's natural rule with that many nodes.
    """
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise DomainError(f"N must be a non-negative integer, got {n!r}")
    if isinstance(rule, (int, np.integer)):
        rule = rule_for_family(spec.family, int(rule))
    time_grid = np.asarray(time_grid, dtype=float)
    if time_grid.ndim != 1 or time_grid.size == 0 or not np.all(np.isfinite(time_grid)):
        raise DomainError("time_grid must be a non-empty 1-d array of finite reals")
    basis = orthonormal_block(spec.family, int(n), rule.nodes)
    kernel_values = np.asarray(spec.kernel.evaluate(time_grid, rule.nodes), dtype=float)
    if kernel_values.shape != (time_grid.size, rule.nodes.size):
        raise DomainError("kernel.evaluate must return one row per time grid point")
    values = np.ascontiguousarray(((kernel_values * rule.weights) @ basis.T).T)
    return CoefficientTable(int(n), time_grid, values, rule.nodes.size)


def synthesize_path(table: CoefficientTable, xi) -> np.ndarray:
    """Sample path X_N(t_j) = sum_k xi_k ahat_k(t_j) on the table's grid.

    xi may also be a row-stack of coefficient vectors, one per path; the
    result then holds one path per row.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.ndim not in (1, 2) or xi.shape[-1] != table.n + 1:
        raise DomainError(
            f"xi must have shape ({table.n + 1},) or (paths, {table.n + 1}), got {xi.shape}"
        )
    return xi @ table.values


def _xi_sigma(mode: str, count: int, tb: TailBoundSpec, family: PolynomialFamily) -> np.ndarray:
    """Deviations sigma_0..sigma_{count-1} of the xi law in the given mode."""
    if mode not in XI_MODES:
        raise DomainError(f"unknown xi mode {mode!r}; expected one of {XI_MODES}")
    if mode == "unit-variance":
        return np.ones(count)
    return np.minimum(1.0, tail_weights(family, tb, count - 1))


def draw_xi(
    mode: str,
    count: int,
    tb: TailBoundSpec,
    family: PolynomialFamily,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw the coefficient variables xi_0..xi_{count-1}.

    "unit-variance" draws standard Gaussians (the uncorrelated-coefficients
    idealization). "norm-decaying" scales them to sigma_k =
    min(1, tau_bound(k)) so each variable actually satisfies the geometric
    norm envelope the certificate assumes. The two are mutually
    inconsistent for w < 1; both are exposed deliberately.
    """
    if not isinstance(count, (int, np.integer)) or count < 1:
        raise DomainError(f"count must be a positive integer, got {count!r}")
    sigma = _xi_sigma(mode, int(count), tb, family)
    return rng.standard_normal(int(count)) * sigma


def path_rng(seed: int, path_index: int) -> np.random.Generator:
    """Counter-based stream for one path, independent of all others."""
    if not isinstance(seed, (int, np.integer)) or not (0 <= int(seed) < 2**64):
        raise DomainError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    if not isinstance(path_index, (int, np.integer)) or path_index < 0:
        raise DomainError(f"path_index must be a non-negative integer, got {path_index!r}")
    key = np.array([int(seed), int(path_index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _path_chunks(
    spec: ProcessSpec,
    tables: tuple[CoefficientTable, ...],
    paths: int,
    seed: int,
    xi_mode: str,
):
    """Yield, for each chunk of _CHUNK_PATHS consecutive paths, one stack of
    paths per table, all synthesized from the same xi draws.

    Path i draws the xi vector of the largest table from path_rng(seed, i),
    exactly as draw_xi would; smaller tables use its leading entries.
    """
    count = max(table.n for table in tables) + 1
    sigma = _xi_sigma(xi_mode, count, spec.tail, spec.family)
    for start in range(0, paths, _CHUNK_PATHS):
        stop = min(start + _CHUNK_PATHS, paths)
        xi = np.stack([path_rng(seed, i).standard_normal(count) for i in range(start, stop)])
        xi *= sigma
        yield tuple(synthesize_path(table, xi[:, : table.n + 1]) for table in tables)


@dataclass(frozen=True)
class VerificationReport:
    """Monte Carlo exceedance count for the reliability statement."""

    paths: int
    exceedances: int
    empirical_prob: float
    alpha: float
    delta: float
    reference_n: int
    model_n: int
    xi_mode: str
    seed: int

    CSV_HEADER = "paths,exceedances,empirical_prob,alpha,delta,reference_N,model_N,xi_mode,seed"

    def as_json_dict(self) -> dict:
        return {
            "paths": self.paths,
            "exceedances": self.exceedances,
            "empirical_prob": self.empirical_prob,
            "alpha": self.alpha,
            "delta": self.delta,
            "reference_N": self.reference_n,
            "model_N": self.model_n,
            "xi_mode": self.xi_mode,
            "seed": self.seed,
        }

    def csv_row(self) -> str:
        return ",".join(
            [
                str(self.paths),
                str(self.exceedances),
                format(self.empirical_prob, ".17g"),
                format(self.alpha, ".17g"),
                format(self.delta, ".17g"),
                str(self.reference_n),
                str(self.model_n),
                self.xi_mode,
                str(self.seed),
            ]
        )


def verify_reliability(
    spec: ProcessSpec,
    model_n: int,
    delta: float,
    alpha: float,
    *,
    paths: int,
    seed: int,
    xi_mode: str = "norm-decaying",
    reference_n: int | None = None,
    model_nodes: int = 256,
    reference_nodes: int = 512,
    time_grid_points: int = 257,
) -> VerificationReport:
    """Estimate P{ L_p deviation of the truncated model > delta } by
    Monte Carlo against a high-truncation reference expansion.

    Each path draws one xi vector for the reference model and reuses its
    leading entries for the truncated model, so the difference isolates the
    truncation (plus coefficient-resolution) error. reference_n defaults to
    4 * model_n + 32; passing reference_n == model_n is allowed for
    null-difference diagnostics. Deterministic given (seed, paths).
    """
    if not isinstance(paths, (int, np.integer)) or paths < 1:
        raise DomainError(f"paths must be a positive integer, got {paths!r}")
    if not (delta > 0.0 and math.isfinite(delta)):
        raise DomainError(f"delta must be a finite number > 0, got {delta}")
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if reference_n is None:
        reference_n = 4 * int(model_n) + 32
    if reference_n < model_n:
        raise DomainError(f"reference_N must be >= model_N, got {reference_n} < {model_n}")

    time_grid = np.linspace(0.0, spec.horizon, time_grid_points)
    model_table = compute_coefficients(
        spec, int(model_n), rule_for_family(spec.family, model_nodes), time_grid
    )
    reference_table = compute_coefficients(
        spec, int(reference_n), rule_for_family(spec.family, reference_nodes), time_grid
    )
    exceedances = 0
    for model_paths, reference_paths in _path_chunks(
        spec, (model_table, reference_table), int(paths), int(seed), xi_mode
    ):
        norms = lp_norm(reference_paths - model_paths, time_grid, spec.p)
        exceedances += int(np.sum(norms > delta))
    return VerificationReport(
        paths=int(paths),
        exceedances=exceedances,
        empirical_prob=exceedances / int(paths),
        alpha=float(alpha),
        delta=float(delta),
        reference_n=int(reference_n),
        model_n=int(model_n),
        xi_mode=xi_mode,
        seed=int(seed),
    )


def dominance_fraction(
    approx_table: CoefficientTable, reference_table: CoefficientTable
) -> float:
    """Fraction of shared (k, t) entries where |ahat_k(t)| >= |a_k(t)|.

    Diagnostic for the assumption that approximate coefficients dominate the
    exact ones; reported, never enforced.
    """
    if approx_table.time_grid.shape != reference_table.time_grid.shape or not np.array_equal(
        approx_table.time_grid, reference_table.time_grid
    ):
        raise DomainError("tables must share one time grid")
    k = min(approx_table.n, reference_table.n) + 1
    a = np.abs(approx_table.values[:k])
    r = np.abs(reference_table.values[:k])
    return float(np.mean(a >= r))
