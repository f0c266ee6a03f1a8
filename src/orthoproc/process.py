"""Process model construction and Monte Carlo verification.

A process is specified by a spectral kernel f(t, lambda) together with an
orthonormal polynomial family on the kernel's spectral domain. Expansion
coefficients ahat_k(t) are quadratures of f(t, .) against the orthonormal
functions; truncated sample paths are X_N(t) = sum_k xi_k ahat_k(t).

The xi_k are independent Gaussians scaled into the norm envelope the
certificate assumes (_xi_sigma), the one law, named "norm-decaying".

Verification stands the unobservable exact process in for by a
high-truncation, high-resolution reference expansion sharing the same xi
draws; the empirical exceedance rate of the L_p deviation over many paths is
compared against the certified level. The deviation is linear in xi, so it is
synthesized directly from one deviation table D = ahat^ref - ahat padded with
zero rows: rows k <= N hold the coefficient-approximation error
ahat^ref_k - ahat_k, rows k > N the truncated tail ahat^ref_k. At p = 2 the
Simpson sum of dev^2 is a quadratic form in xi, so the engine synthesizes
R xi from the triangular factor R (at most (K + 1) x (K + 1)) of the
Simpson-weighted table instead of the paths on the time grid. Paths are
produced on one thread in fixed chunks of _CHUNK_PATHS. Path i's randomness
is the counter-based Philox stream keyed by (seed, i) that path_rng defines;
the engine re-keys one generator to that key per path instead of building a
generator per path. Results depend only on the seed and the path count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, UnknownKernelError, UnsupportedRegimeError
from .orlicz import OrliczSpec, TailBoundSpec, tail_weights
from .orthopoly import PolynomialFamily, orthonormal_block
from .quadrature import QuadratureRule, _lp_norms_inplace, rule_for_family, simpson_weights

# the one xi law; the config key and the report field keep its name
XI_MODES = ("norm-decaying",)

# paths per engine chunk; a constant so that BLAS blocking, and with it every
# output bit, depends on nothing but (seed, paths)
_CHUNK_PATHS = 256


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


# the built-in kernels fill one (times x nodes) array and finish it in place
def _exp_outer(rate, lam):
    values = np.multiply.outer(rate, lam)
    return np.exp(values, out=values)


def _poly_bounded(t, lam):
    values = np.multiply.outer(np.asarray(t, float), lam)
    values += 1.0
    return np.square(values, out=values)


_BUILTIN = {
    "exp-bounded": Kernel(
        "exp-bounded",
        (-1.0, 1.0),
        lambda t, lam: _exp_outer(np.asarray(t, float), lam),
        _exp_bounded_energy,
    ),
    "exp-decay": Kernel(
        "exp-decay",
        (0.0, math.inf),
        lambda t, lam: _exp_outer(-(1.0 + np.asarray(t, float)), lam),
        _scalar_aware(lambda t: 1.0 / (2.0 * (1.0 + t))),
    ),
    "poly-bounded": Kernel(
        "poly-bounded",
        (-1.0, 1.0),
        _poly_bounded,
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
    basis *= rule.weights
    values = np.ascontiguousarray((kernel_values @ basis.T).T)
    return CoefficientTable(int(n), time_grid, values)


def synthesize_path(table: CoefficientTable | np.ndarray, xi) -> np.ndarray:
    """Sample path X_N(t_j) = sum_k xi_k ahat_k(t_j) on the table's grid.

    xi may also be a row-stack of coefficient vectors, one per path; the
    result then holds one path per row. table may also be a plain 2-d array
    standing for a table's values, one row per order.
    """
    values = table.values if isinstance(table, CoefficientTable) else table
    count = values.shape[0]
    xi = np.asarray(xi, dtype=float)
    if xi.ndim not in (1, 2) or xi.shape[-1] != count:
        raise DomainError(f"xi must have shape ({count},) or (paths, {count}), got {xi.shape}")
    return xi @ values


def _xi_sigma(count: int, spec: ProcessSpec) -> np.ndarray:
    """Deviations of xi_0..xi_{count-1}: min(1, tau_bound(k)), times sqrt(2/gamma)
    for gamma > 2, where N(0, sigma^2) has phi-sub-Gaussian norm sigma sqrt(gamma/2)
    instead of sigma; xi_k then has norm min(1, tau_bound(k)). The cap at 1 stays
    because the benchmark's recount (bench/workloads.check_verify) draws
    min(1, tau_bound(k)); where tau_bound(k) > 1, xi_k is milder than the envelope.
    """
    sigma = np.minimum(1.0, tail_weights(spec.family, spec.tail, count - 1))
    if spec.orlicz.gamma > 2.0:
        sigma *= math.sqrt(2.0 / spec.orlicz.gamma)
    return sigma


def draw_xi(spec: ProcessSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw the coefficient variables xi_0..xi_{count-1}: independent
    Gaussians with the deviations _xi_sigma gives, one standard normal per
    order from rng."""
    if not isinstance(count, (int, np.integer)) or count < 1:
        raise DomainError(f"count must be a positive integer, got {count!r}")
    return rng.standard_normal(int(count)) * _xi_sigma(int(count), spec)


def path_rng(seed: int, path_index: int) -> np.random.Generator:
    """Counter-based stream for one path, independent of all others.

    This is the definition of path i's stream: a Philox generator keyed by
    (seed, i) at counter 0. The path engine does not construct one per path;
    it re-keys a single generator to the same state.
    """
    if not isinstance(seed, (int, np.integer)) or not (0 <= int(seed) < 2**64):
        raise DomainError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    if not isinstance(path_index, (int, np.integer)) or path_index < 0:
        raise DomainError(f"path_index must be a non-negative integer, got {path_index!r}")
    key = np.array([int(seed), int(path_index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _path_chunks(spec: ProcessSpec, values: np.ndarray, paths: int, seed: int):
    """Yield, for each chunk of _CHUNK_PATHS consecutive paths, the stack
    xi @ values, one path per row, for a (K + 1) x m array of values (a
    coefficient table's, or any linear image of them).

    Path i draws its xi vector from path_rng(seed, i), exactly as draw_xi
    would.
    """
    count = values.shape[0]
    sigma = _xi_sigma(count, spec)
    rng = path_rng(seed, 0)
    bit_generator = rng.bit_generator
    # the state of a fresh path_rng(seed, i): counter 0, key (seed, i), empty
    # buffer, no cached uint32; plain ints set it faster than uint64 arrays
    key = [int(seed), 0]
    fresh = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    xi = np.empty((min(paths, _CHUNK_PATHS), count))
    for start in range(0, paths, _CHUNK_PATHS):
        rows = xi[: min(_CHUNK_PATHS, paths - start)]
        for i, row in enumerate(rows, start):
            key[1] = i
            bit_generator.state = fresh
            rng.standard_normal(out=row)
        rows *= sigma
        yield synthesize_path(values, rows)


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
    seed: int

    def as_json_dict(self) -> dict:
        return {
            "paths": self.paths,
            "exceedances": self.exceedances,
            "empirical_prob": self.empirical_prob,
            "alpha": self.alpha,
            "delta": self.delta,
            "reference_N": self.reference_n,
            "model_N": self.model_n,
            "xi_mode": XI_MODES[0],
            "seed": self.seed,
        }


def _check_xi_law(spec: ProcessSpec) -> None:
    """Refuse a spec whose Orlicz generator the Gaussian xi law violates."""
    if spec.orlicz.gamma < 2.0:
        raise UnsupportedRegimeError(
            f"verify draws Gaussian xi, which are not phi-sub-Gaussian for "
            f"gamma < 2; got gamma = {spec.orlicz.gamma}"
        )


def _gate_operands(deviation: np.ndarray, w: np.ndarray, p: float):
    """(values, weights) such that _lp_norms_inplace(xi @ values, weights, p)
    is the Simpson L_p norm of the deviation xi @ deviation on the grid with
    weights w.

    For p != 2 that is the deviation table itself. For p = 2 the Simpson sum
    of dev^2 is xi^T A A^T xi with A = D diag(sqrt(w)); with A^T = QR it
    equals |R xi|^2, so the values are R^T ((K + 1) x min(grid, K + 1)) with
    unit weights, equal to the grid norm in exact arithmetic; the deviation
    table is then scaled in place.
    """
    if p != 2.0:
        return deviation, w
    deviation *= np.sqrt(w)
    r = np.linalg.qr(deviation.T, mode="r")
    return r.T, np.ones(r.shape[0])


def verify_reliability(
    spec: ProcessSpec,
    model_n: int,
    delta: float,
    alpha: float,
    *,
    paths: int,
    seed: int,
    reference_n: int | None = None,
    model_nodes: int = 256,
    reference_nodes: int = 512,
    time_grid_points: int = 257,
) -> VerificationReport:
    """Estimate P{ L_p deviation of the truncated model > delta } by
    Monte Carlo against a high-truncation reference expansion.

    Each path draws one xi vector for the reference model and reuses its
    leading entries for the truncated model, so the deviation
    sum_k xi_k (ahat^ref_k - ahat_k) carries both error sources: truncation
    (k > model_n) and coefficient approximation (k <= model_n). It is
    synthesized in one product per chunk against the deviation table, or at
    p = 2 against the QR factor R of the Simpson-weighted table, since
    |R xi| equals the Simpson L_2 norm in exact arithmetic. reference_n
    defaults to 4 * model_n + 32; passing reference_n == model_n is allowed
    for null-difference diagnostics. Deterministic given (seed, paths).

    Raises:
        UnsupportedRegimeError: if spec.orlicz.gamma < 2, where the Gaussian
            xi law is not phi-sub-Gaussian and the certificate does not apply.
    """
    if not isinstance(paths, (int, np.integer)) or paths < 1:
        raise DomainError(f"paths must be a positive integer, got {paths!r}")
    if not (delta > 0.0 and math.isfinite(delta)):
        raise DomainError(f"delta must be a finite number > 0, got {delta}")
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    _check_xi_law(spec)
    if reference_n is None:
        reference_n = 4 * int(model_n) + 32
    if reference_n < model_n:
        raise DomainError(f"reference_N must be >= model_N, got {reference_n} < {model_n}")

    time_grid = np.linspace(0.0, spec.horizon, time_grid_points)

    def table(n, nodes):
        return compute_coefficients(spec, n, rule_for_family(spec.family, nodes), time_grid)

    model = table(int(model_n), model_nodes).values
    deviation = table(int(reference_n), reference_nodes).values  # a fresh array, ours
    deviation[: len(model)] -= model
    deviation, w = _gate_operands(deviation, simpson_weights(time_grid), spec.p)
    exceedances = 0
    for dev in _path_chunks(spec, deviation, int(paths), int(seed)):
        exceedances += int(np.sum(_lp_norms_inplace(dev, w, spec.p) > delta))
        del dev  # free this chunk before the engine synthesizes the next
    return VerificationReport(
        paths=int(paths),
        exceedances=exceedances,
        empirical_prob=exceedances / int(paths),
        alpha=float(alpha),
        delta=float(delta),
        reference_n=int(reference_n),
        model_n=int(model_n),
        seed=int(seed),
    )
