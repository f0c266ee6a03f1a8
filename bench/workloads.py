"""Job generators and output checks for the benchmark workloads.

Every generator is an endless, seed-determined stream of job configs made of
plain JSON values; the library or the CLI receives nothing else. Jobs come in
rounds with a fixed composition and a shuffled order, so two seeds differ in
parameters but not in the mix of work, which keeps medians comparable across
seeds. Checks run outside the timed region and return None or a reason.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ALPHA = 0.05

# (floor, C_0, C_1) / min(threshold_rel, threshold_acc) at delta = 1,
# alpha = 0.05, p = gamma = 2, tau = 1, T = 1; floor is the minimum over
# N <= 32. The gates are linear in delta, so order N passes iff
# C_N / threshold <= delta: delta below the floor is infeasible and delta in
# (C_1, C_0) selects N = 1. These are properties of the inputs (doubling the
# spectral and oracle nodes moves them by < 1e-10 relative), not of the
# implementation.
CURVES = {
    ("legendre", None, "exp-bounded"): {
        0.3: (0.0237697, 0.242536, 0.0287801),
        0.5: (0.0118003, 0.44909, 0.0194187),
        0.8: (0.280839, 1.95063, 0.357639),
    },
    ("legendre", None, "poly-bounded"): {
        0.3: (0.447432, 1.71968, 0.487225),
        0.5: (0.171511, 2.31359, 0.244115),
        0.8: (0.308237, 5.55386, 0.52734),
    },
    ("laguerre", 0.0, "exp-decay"): {
        0.3: (0.00309264, 0.0801491, 0.0079417),
        0.5: (0.000194318, 0.202758, 0.0143033),
        0.8: (0.171207, 1.60213, 0.543172),
    },
    ("laguerre", 0.5, "exp-decay"): {
        0.3: (0.0399968, 0.29388, 0.0764273),
        0.5: (0.00617052, 0.626994, 0.118574),
        0.8: (0.101019, 4.66407, 2.06711),
    },
    ("gegenbauer", 1.0, "exp-bounded"): {
        0.3: (1.5297, 2.83432, 1.73315),
        0.5: (1.98104, 5.0785, 2.73644),
        0.8: (10.1459, 25.0534, 16.4821),
    },
    ("gegenbauer", 1.5, "exp-bounded"): {
        0.3: (3.20413, 4.30774, 3.42501),
        0.5: (6.51453, 9.68185, 7.51871),
        0.8: (66.9468, 88.7671, 78.0974),
    },
}
PAIRS = (
    (("legendre", None, "exp-bounded"),),
    (("legendre", None, "poly-bounded"),),
    (("laguerre", 0.0, "exp-decay"), ("laguerre", 0.5, "exp-decay")),
    (("gegenbauer", 1.0, "exp-bounded"), ("gegenbauer", 1.5, "exp-bounded")),
)
W_CHOICES = (0.3, 0.5, 0.8)

BASE = {"horizon": 1.0, "tau": 1.0, "p": 2.0, "gamma": 2.0}
GRID_POINTS = 257
MODEL_NODES = 256
REFERENCE_NODES = 512


@dataclass(frozen=True)
class Sizes:
    """Per-job sizes; FULL is the benchmark, SMOKE its quick self-test."""

    n_max: int = 32
    verify_paths: int = 10_000
    setup_probes: int = 16
    trace_rounds: int = 2


FULL = Sizes()
SMOKE = Sizes(n_max=4, verify_paths=300, setup_probes=2, trace_rounds=1)


def select_jobs(seed: int, sizes: Sizes):
    """select-sweep: rounds of twenty select_N requests.

    Eight requests (two per family/kernel pair) are infeasible and scan all
    n_max + 1 orders. Twelve are feasible and draw delta inside (C_1, C_0),
    so each stops at N = 1; one of them runs at doubled spectral/oracle
    nodes. Fixing the work per request puts the median deep inside the large
    cluster of equal-work feasible requests and the tail deep inside the
    cluster of full scans, so both move with the program's speed, not with
    which parameters a seed drew or how often a shared host ran fast.
    """
    rng = random.Random(f"select-sweep/{seed}")
    while True:
        infeasible = [rng.choice(pair) for pair in PAIRS + PAIRS]
        feasible = [rng.choice(pair) for pair in PAIRS + PAIRS + PAIRS[:3]]
        doubled = [rng.choice(rng.choice(PAIRS))]
        jobs = []
        for (family, alpha, kernel), feasible_n1, nodes in (
            [(p, False, 256) for p in infeasible] + [(p, True, 256) for p in feasible] + [(p, True, 512) for p in doubled]
        ):
            w = rng.choice(W_CHOICES)
            floor, c0, c1 = CURVES[(family, alpha, kernel)][w]
            if feasible_n1:
                delta = math.exp(rng.uniform(math.log(1.02 * c1), math.log(0.98 * c0)))
            else:
                delta = rng.uniform(0.3, 0.9) * floor
            job = dict(BASE, family=family, kernel=kernel, w=w, alpha=ALPHA, n_max=sizes.n_max)
            job.update(delta=delta, spectral_nodes=nodes, oracle_nodes=nodes)
            if alpha is not None:
                job["family_alpha"] = alpha
            jobs.append(job)
        rng.shuffle(jobs)
        yield from jobs


# one round of verify-cli; the Laguerre job runs twice, so the median and
# the tail fall inside its cluster of job times, not on the edge between the
# two configs (the Laguerre job is ~10% slower)
VERIFY_CONFIGS = (
    # ~0 exceedances per 10^4 paths
    dict(BASE, family="legendre", kernel="exp-bounded", w=0.5, n=4, delta=0.1),
    # ~350 exceedances per 10^4 paths against alpha * paths = 500
    dict(BASE, family="laguerre", family_alpha=0.5, kernel="exp-decay", w=0.5, n=3, delta=0.02),
    dict(BASE, family="laguerre", family_alpha=0.5, kernel="exp-decay", w=0.5, n=3, delta=0.02),
)

def _cli_common(rng):
    return {
        "seed": rng.getrandbits(63),
        "alpha": ALPHA,
        "xi_mode": "norm-decaying",
        "spectral_nodes": MODEL_NODES,
        "reference_spectral_nodes": REFERENCE_NODES,
        "time_grid_points": GRID_POINTS,
    }


def verify_jobs(seed: int, sizes: Sizes, workers: int):
    """verify-cli: VERIFY_CONFIGS once per round, fresh MC seed each."""
    rng = random.Random(f"verify-cli/{seed}")
    while True:
        round_ = [dict(c, paths=sizes.verify_paths, workers=workers, **_cli_common(rng)) for c in VERIFY_CONFIGS]
        rng.shuffle(round_)
        yield from round_


def _spec(op, job):
    return op.ProcessSpec(
        kernel=op.builtin_kernel(job["kernel"]),
        family=op.PolynomialFamily(job["family"], job.get("family_alpha")),
        horizon=job["horizon"],
        p=job["p"],
        orlicz=op.OrliczSpec(job["gamma"]),
        tail=op.TailBoundSpec(job["tau"], job["w"]),
    )


def _close(a, b, rtol=1e-9):
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def check_select(op, job, result):
    """The selected N passes and N-1 fails; a "none" result's best order
    fails and carries the C_N it reported."""
    if "error" in result:
        return f"select_N raised {result['error']}"
    spec = _spec(op, job)
    res = op.Resolution(spectral_nodes=job["spectral_nodes"], oracle_nodes=job["oracle_nodes"])

    def bound(n):
        return op.c_n_bound(spec, n, job["delta"], job["alpha"], resolution=res)

    n = result["selected_n"]
    if n is not None:
        if not 0 <= n <= job["n_max"]:
            return f"selected N {n} outside [0, {job['n_max']}]"
        report = bound(n)
        if not op.check_conditions(report):
            return f"selected N {n} fails its gates"
        if not _close(report.c_n, result["c_n"]):
            return f"C_N at N {n}: select reported {result['c_n']!r}, c_n_bound gives {report.c_n!r}"
        if n > 0 and op.check_conditions(bound(n - 1)):
            return f"N - 1 = {n - 1} already passes"
        return None
    best = result["best_n"]
    if not 0 <= best <= job["n_max"]:
        return f"best N {best} outside [0, {job['n_max']}]"
    report = bound(best)
    if op.check_conditions(report):
        return f"no N selected, yet best N {best} passes"
    if not _close(report.c_n, result["best_c_n"]):
        return f"best C_N: select reported {result['best_c_n']!r}, c_n_bound gives {report.c_n!r}"
    return None


def check_verify(op, job, rc, out_dir: Path):
    """report.json matches the job, the gate matches the exit code, and the
    exceedance count matches an independent vectorised recount."""
    try:
        report = json.loads((out_dir / "report.json").read_text())
    except (OSError, ValueError) as exc:
        return f"report.json unreadable: {exc}"
    n = job["n"]
    ref_n = 4 * n + 32
    expected = {
        "paths": job["paths"],
        "alpha": job["alpha"],
        "delta": job["delta"],
        "model_N": n,
        "reference_N": ref_n,
        "xi_mode": job["xi_mode"],
        "seed": job["seed"],
    }
    for key, value in expected.items():
        if report.get(key) != value:
            return f"report {key} = {report.get(key)!r}, job sent {value!r}"
    exceed = report["exceedances"]
    if report["empirical_prob"] != exceed / job["paths"]:
        return f"empirical_prob {report['empirical_prob']!r} != {exceed} / {job['paths']}"
    want_rc = 0 if report["empirical_prob"] <= job["alpha"] else 2
    if rc != want_rc:
        return f"exit code {rc}, gate says {want_rc}"

    spec = _spec(op, job)
    grid = np.linspace(0.0, job["horizon"], job["time_grid_points"])
    model = op.compute_coefficients(spec, n, op.rule_for_family(spec.family, job["spectral_nodes"]), grid)
    ref = op.compute_coefficients(
        spec, ref_n, op.rule_for_family(spec.family, job["reference_spectral_nodes"]), grid
    )
    sigma = np.minimum(1.0, op.tail_weights(spec.family, spec.tail, ref_n))
    z = np.stack([op.path_rng(job["seed"], i).standard_normal(ref_n + 1) for i in range(job["paths"])])
    xi = z * sigma
    diff = xi @ ref.values - xi[:, : n + 1] @ model.values
    norms = (np.abs(diff) ** spec.p @ op.simpson_weights(grid)) ** (1.0 / spec.p)
    lo = int(np.sum(norms > job["delta"] * (1.0 + 1e-9)))
    hi = int(np.sum(norms > job["delta"] * (1.0 - 1e-9)))
    if not lo <= exceed <= hi:
        return f"exceedances {exceed}, independent recount gives [{lo}, {hi}]"
    return None
