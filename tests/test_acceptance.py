"""Acceptance suite: one test per advertised guarantee, each printing a
single [criterion N] PASS/FAIL line (run with -s to see them inline).

Fixtures shared across criteria: the exp-bounded/Legendre process on
[0, 1] with p=2, gamma=2, tau=1, w=0.5.
"""

import json
import math
import time

import numpy as np

from orthoproc import (
    OrliczSpec,
    ProcessSpec,
    TailBoundSpec,
    adaptive_simpson,
    builtin_kernel,
    c_n_bound,
    check_conditions,
    cosine_mapped_rule,
    gauss_legendre_rule,
    gegenbauer,
    gf_square_integral,
    gf_square_integral_oracle,
    hyp2f1,
    hyp2f1_quadratic,
    hyp2f1_regularized,
    hyp2f1_series,
    laguerre,
    legendre,
    log_gamma,
    orthonormal_block,
    select_N,
    semi_infinite_rule,
    tail_weights,
    tau_bound,
    threshold_accuracy,
    threshold_reliability,
    upper_incomplete_gamma,
    verify_reliability,
)
from orthoproc.cli import DEFAULT_SEED, main

TB = TailBoundSpec(1.0, 0.5)

GRAM_CASES = (
    (legendre(), gauss_legendre_rule(512)),
    (laguerre(-0.5), semi_infinite_rule(512, singularity_power=-0.5)),
    (laguerre(0.0), semi_infinite_rule(512)),
    (laguerre(1.7), semi_infinite_rule(512, singularity_power=1.7)),
    (gegenbauer(0.5), cosine_mapped_rule(512)),
    (gegenbauer(1.0), cosine_mapped_rule(512)),
    (gegenbauer(2.3), cosine_mapped_rule(512)),
)

GF_FAMILIES = (
    legendre(),
    laguerre(-0.5),
    laguerre(0.0),
    laguerre(1.7),
    gegenbauer(0.5),
    gegenbauer(1.0),
    gegenbauer(2.3),
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _fixture_spec(kernel="exp-bounded", family=None) -> ProcessSpec:
    return ProcessSpec(
        kernel=builtin_kernel(kernel),
        family=family if family is not None else legendre(),
        horizon=1.0,
        p=2.0,
        orlicz=OrliczSpec(2.0),
        tail=TB,
    )


def test_criterion_1_orthonormality():
    start = time.perf_counter()
    worst = 0.0
    for family, rule in GRAM_CASES:
        basis = orthonormal_block(family, 20, rule.nodes)
        gram = (basis * rule.weights) @ basis.T
        worst = max(worst, float(np.max(np.abs(gram - np.eye(21)))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-7 and elapsed < 30.0
    _report(
        1,
        ok,
        f"max |Gram - I| = {worst:.3e} over {len(GRAM_CASES)} family instances "
        f"(tol 1e-7), {elapsed:.1f} s",
    )


def test_criterion_2_closed_form_vs_oracle():
    worst = 0.0
    for family in GF_FAMILIES:
        for w in (0.1, 0.3, 0.5, 0.7, 0.9):
            value = gf_square_integral(family, w)
            oracle = gf_square_integral_oracle(family, w, n_nodes=512)
            worst = max(worst, abs(value - oracle) / abs(oracle))
    ok = worst < 1e-6
    _report(
        2,
        ok,
        f"max relative gap closed-form vs quadrature = {worst:.3e} "
        f"over {len(GF_FAMILIES)} families x 5 w values (tol 1e-6)",
    )


def test_criterion_3_gegenbauer_half_reduces_to_legendre():
    geg, leg = gegenbauer(0.5), legendre()
    gf_gap = max(
        abs(gf_square_integral(geg, w) - gf_square_integral(leg, w))
        / gf_square_integral(leg, w)
        for w in (0.1, 0.3, 0.5, 0.7, 0.9)
    )
    ratio = tau_bound(geg, TB, 0) / tau_bound(leg, TB, 0)
    ratio_gap = abs(ratio - 0.5)

    leg_report = c_n_bound(_fixture_spec(), 4, 0.1, 0.05)
    matched = c_n_bound(
        _fixture_spec(family=geg),
        4,
        0.1,
        0.05,
        tail_weight_override=tail_weights(leg, TB, 4),
    )
    c_gap = abs(matched.c_n - leg_report.c_n) / leg_report.c_n
    raw = c_n_bound(_fixture_spec(family=geg), 4, 0.1, 0.05)
    print(
        f"[criterion 3] note: unmatched Gegenbauer(1/2) tail weights give "
        f"C_N = {raw.c_n:.6g} vs Legendre {leg_report.c_n:.6g} (informational)"
    )
    ok = gf_gap < 1e-8 and ratio_gap < 1e-8 and c_gap < 1e-8
    _report(
        3,
        ok,
        f"gf gap {gf_gap:.3e}, k=0 envelope ratio - 1/2 = {ratio_gap:.3e}, "
        f"matched-weight C_N gap {c_gap:.3e} (tol 1e-8)",
    )


def test_criterion_4_integral_spot_values():
    leg = abs(gf_square_integral(legendre(), 0.5) - 2.0 * math.log(3.0))
    lag = abs(gf_square_integral(laguerre(0.0), 0.5) - 4.0 / 3.0)
    geg = abs(gf_square_integral(gegenbauer(1.0), 0.5) - 2.0 * math.pi / 3.0)
    ok = leg < 1e-9 and lag < 1e-9 and geg < 1e-7
    _report(
        4,
        ok,
        f"|I_leg(0.5) - 2 ln 3| = {leg:.2e}, |I_lag(0.5) - 4/3| = {lag:.2e}, "
        f"|I_geg(0.5) - 2 pi/3| = {geg:.2e}",
    )


def test_criterion_5_threshold_arithmetic():
    rel = threshold_reliability(1.0, 0.05, OrliczSpec(2.0), 2.0)
    acc = threshold_accuracy(1.0, 2.0, OrliczSpec(2.0))
    rel_gap = abs(rel - 1.0 / (2.0 * math.log(40.0)))
    ok = rel_gap < 1e-12 and acc == 0.5
    _report(
        5,
        ok,
        f"|threshold_rel - 1/(2 ln 40)| = {rel_gap:.2e} (tol 1e-12), "
        f"threshold_acc = {acc} (exact 0.5)",
    )


def test_criterion_6_monte_carlo_gate():
    spec = _fixture_spec()
    delta, alpha = 0.1, 0.05
    start = time.perf_counter()
    selection = select_N(spec, delta, alpha, 32)
    assert selection.selected_n is not None
    report = verify_reliability(
        spec,
        selection.selected_n,
        delta,
        alpha,
        paths=10_000,
        seed=DEFAULT_SEED,
    )
    elapsed = time.perf_counter() - start
    ok = report.empirical_prob <= alpha and elapsed < 120.0
    informational = verify_reliability(
        spec,
        selection.selected_n,
        delta / 2.0,
        alpha,
        paths=10_000,
        seed=DEFAULT_SEED,
    )
    print(
        f"[criterion 6] note: at delta/2 = {delta / 2} the empirical probability "
        f"is {informational.empirical_prob:.4g} (one-sided bound, informational)"
    )
    _report(
        6,
        ok,
        f"N = {selection.selected_n}, empirical_prob = {report.empirical_prob:.4g} "
        f"<= {alpha} over 10^4 paths, {elapsed:.1f} s",
    )


def test_criterion_7_selection_contract():
    fixtures = (
        (_fixture_spec(), 0.018),
        (_fixture_spec("exp-decay", laguerre(0.0)), 0.01),
        (_fixture_spec("poly-bounded", gegenbauer(1.0)), 3.3),
    )
    details = []
    ok = True
    for spec, delta in fixtures:
        result = select_N(spec, delta, 0.05, 8)
        n = result.selected_n
        passes = n is not None and check_conditions(c_n_bound(spec, n, delta, 0.05))
        prev_fails = n == 0 or not check_conditions(c_n_bound(spec, n - 1, delta, 0.05))
        ok = ok and passes and prev_fails
        details.append(f"{spec.family.label}: N={n} passes, N-1 fails={prev_fails}")
    _report(7, ok, "; ".join(details))


def test_criterion_8_cli_determinism(tmp_path):
    cfg = {
        "family": "legendre",
        "kernel": "exp-bounded",
        "horizon": 1.0,
        "tau": 1.0,
        "delta": 0.1,
        "alpha": 0.05,
        "n": 1,
        "paths": 50,
        "time_grid_points": 33,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    def run(command, sub, *extra):
        out = tmp_path / sub
        code = main([command, "--config", str(cfg_path), "--out", str(out), *extra])
        assert code == 0
        return out

    sim = [
        (run("simulate", f"sim{i}", *extra) / "paths.csv").read_bytes()
        for i, extra in enumerate(((), (), ("--set", "workers=3")))
    ]
    sim_ok = sim[0] == sim[1] == sim[2]

    cfg["paths"] = 2000
    cfg_path.write_text(json.dumps(cfg))
    ver = []
    for i, extra in enumerate(((), (), ("--set", "workers=3"))):
        out = run("verify", f"ver{i}", *extra)
        ver.append(
            (out / "report.json").read_bytes() + (out / "report.csv").read_bytes()
        )
    ver_ok = ver[0] == ver[1] == ver[2]
    _report(
        8,
        sim_ok and ver_ok,
        f"simulate byte-identical across reruns and 1 vs 3 workers: {sim_ok}; "
        f"verify likewise over 2000 paths: {ver_ok}",
    )


def test_criterion_9_special_functions():
    checks = [
        ("log_gamma(1)", abs(log_gamma(1.0).value), 1e-13),
        (
            "log_gamma(0.5)",
            abs(log_gamma(0.5).value - math.log(math.sqrt(math.pi))),
            1e-13,
        ),
        ("log_gamma(5)", abs(log_gamma(5.0).value - math.log(24.0)), 1e-12),
        (
            "Gamma(1,2)",
            abs(upper_incomplete_gamma(1.0, 2.0).value / math.exp(-2.0) - 1.0),
            1e-10,
        ),
        ("Gamma(3,0)", abs(upper_incomplete_gamma(3.0, 0.0).value / 2.0 - 1.0), 1e-10),
        ("2F1(.,0)", abs(hyp2f1(0.3, 2.0, 1.1, 0.0).value - 1.0), 1e-15),
        (
            "2F1(1,1;2;.5)",
            abs(hyp2f1(1.0, 1.0, 2.0, 0.5).value / (2.0 * math.log(2.0)) - 1.0),
            1e-10,
        ),
        (
            "2F1(.5,1;1.5;.25)",
            abs(hyp2f1(0.5, 1.0, 1.5, 0.25).value / (math.atanh(0.5) / 0.5) - 1.0),
            1e-10,
        ),
        (
            "reg 2F1 c=1 z=0",
            abs(hyp2f1_regularized(0.7, 0.7, 1.0, 0.0).value - 1.0),
            1e-12,
        ),
        (
            "reg 2F1(.5,1;1.5;0)",
            abs(hyp2f1_regularized(0.5, 1.0, 1.5, 0.0).value * math.gamma(1.5) - 1.0),
            1e-12,
        ),
        (
            "reg 2F1(1,1;2;.5)",
            abs(
                hyp2f1_regularized(1.0, 1.0, 2.0, 0.5).value / (2.0 * math.log(2.0))
                - 1.0
            ),
            1e-10,
        ),
    ]
    quad_oracle = adaptive_simpson(
        lambda u: math.sqrt(u) * math.exp(-u), 1.0, 81.0, tol=1e-12
    )
    checks.append(
        (
            "Gamma(1.5,1)",
            abs(upper_incomplete_gamma(1.5, 1.0).value / quad_oracle - 1.0),
            1e-10,
        )
    )
    examples_ok = all(gap <= tol for _, gap, tol in checks)

    cross_worst = 0.0
    for alpha in (0.5, 1.0, 2.3):
        a, b, c = alpha, alpha + 0.5, alpha + 1.0
        for z in np.linspace(0.45, 0.89, 12):
            series = hyp2f1_series(a, b, c, float(z)).value
            transformed = hyp2f1_quadratic(a, b, c, float(z)).value
            cross_worst = max(cross_worst, abs(series / transformed - 1.0))
    cross_ok = cross_worst < 1e-9

    failed = [name for name, gap, tol in checks if gap > tol]
    _report(
        9,
        examples_ok and cross_ok,
        f"{len(checks)} reference examples hold"
        + (f" (failing: {failed})" if failed else "")
        + f"; series vs transformed 2F1 max relative gap {cross_worst:.3e} "
        f"on z in [0.45, 0.89] (tol 1e-9)",
    )
