"""Bound pipeline: envelope weights, generating-function integrals with
independent series oracles, the clamped tail bound, C_N regression values
frozen from the first validated run, and the selection contract."""

import json
import math

import numpy as np
import pytest

from orthoproc import (
    BoundReport,
    ConvergenceError,
    DomainError,
    Kernel,
    OrliczSpec,
    ProcessSpec,
    Resolution,
    TailBoundSpec,
    builtin_kernel,
    c_n_bound,
    c_n_curve,
    check_conditions,
    gegenbauer,
    gegenbauer_norm_squared,
    gf_square_integral,
    gf_square_integral_oracle,
    laguerre,
    legendre,
    select_N,
    simpson_weights,
    tail_weights,
    tau_bound,
    threshold_accuracy,
    threshold_reliability,
)
from orthoproc import bounds, cli

TB = TailBoundSpec(1.0, 0.5)


def make_spec(kernel_name, family, p=2.0, horizon=1.0, tb=TB):
    return ProcessSpec(
        kernel=builtin_kernel(kernel_name),
        family=family,
        horizon=horizon,
        p=p,
        orlicz=OrliczSpec(2.0),
        tail=tb,
    )


def gamma_by_reflection(x):
    """Gamma at negative non-integer x without calling math.gamma there."""
    return math.pi / (math.sin(math.pi * x) * math.gamma(1.0 - x))


def test_tau_bound_examples():
    assert tau_bound(legendre(), TB, 0) == pytest.approx(math.sqrt(2.0), rel=1e-14)
    # Gamma(3)/2! = 1, so only the geometric factor remains
    assert tau_bound(laguerre(0.0), TB, 2) == pytest.approx(0.25, rel=1e-14)
    assert tau_bound(laguerre(1.0), TailBoundSpec(1.0, 0.9), 2) == pytest.approx(
        math.sqrt(3.0) * 0.81, rel=1e-13
    )
    assert tau_bound(gegenbauer(0.5), TailBoundSpec(2.0, 0.9), 0) == pytest.approx(
        math.sqrt(2.0), rel=1e-13
    )


def test_tau_bound_negative_alpha_origin():
    # k=0, alpha<0: sqrt(alpha / Gamma(2 alpha)), both factors negative
    alpha = -0.3
    expected = math.sqrt(alpha / gamma_by_reflection(2.0 * alpha))
    assert tau_bound(gegenbauer(alpha), TB, 0) == pytest.approx(expected, rel=1e-13)
    assert tau_bound(gegenbauer(alpha), TB, 0) > 0.0


def test_tau_bound_survives_high_order():
    v = tau_bound(laguerre(1.7), TailBoundSpec(1.0, 0.99), 5000)
    assert math.isfinite(v) and v > 0.0
    v = tau_bound(gegenbauer(2.3), TailBoundSpec(1.0, 0.99), 5000)
    assert math.isfinite(v) and v > 0.0
    # deep geometric decay underflows gracefully to zero
    assert tau_bound(legendre(), TB, 5000) == 0.0


def test_tail_weights_consistency():
    tw = tail_weights(laguerre(1.7), TB, 6)
    assert tw.shape == (7,)
    for k in range(7):
        assert tw[k] == tau_bound(laguerre(1.7), TB, k)


def series_gf_integral(family, w, terms=500):
    """Independent oracle: sum of squared-norm-weighted powers w^{2k}."""
    if family.kind == "legendre":
        return sum(2.0 / (2 * k + 1) * w ** (2 * k) for k in range(terms))
    if family.kind == "laguerre":
        a = family.alpha
        return sum(
            math.exp(math.lgamma(k + a + 1.0) - math.lgamma(k + 1.0) - math.lgamma(a + 1.0))
            * math.gamma(a + 1.0)
            * w ** (2 * k)
            for k in range(terms)
        )
    return sum(gegenbauer_norm_squared(family.alpha, k) * w ** (2 * k) for k in range(terms))


def test_gf_square_integral_spot_values():
    assert gf_square_integral(legendre(), 0.5) == pytest.approx(2.0 * math.log(3.0), abs=1e-12)
    assert gf_square_integral(laguerre(0.0), 0.5) == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert gf_square_integral(gegenbauer(1.0), 0.5) == pytest.approx(
        2.0 * math.pi / 3.0, abs=1e-9
    )


def test_gf_square_integral_atanh_identity():
    for w in (0.1, 0.4, 0.8):
        assert gf_square_integral(legendre(), w) == pytest.approx(
            2.0 * math.atanh(w) / w, rel=1e-14
        )


def test_gf_square_integral_against_series_oracle():
    for family in (legendre(), laguerre(0.0), laguerre(1.7), gegenbauer(1.0), gegenbauer(2.3)):
        for w in (0.3, 0.6):
            assert gf_square_integral(family, w) == pytest.approx(
                series_gf_integral(family, w), rel=1e-10
            )


def test_gf_square_integral_against_quadrature_oracle():
    for family in (legendre(), laguerre(-0.5), laguerre(1.7), gegenbauer(0.5), gegenbauer(2.3)):
        for w in (0.2, 0.7):
            closed = gf_square_integral(family, w)
            oracle = gf_square_integral_oracle(family, w, 384)
            assert closed == pytest.approx(oracle, rel=1e-8)


def test_gf_square_integral_w_guard():
    for w in (0.0, 1.0, 1.3, -0.1):
        with pytest.raises(DomainError):
            gf_square_integral(legendre(), w)


def legendre_brackets(coeffs, energy=1.0, tb=TB):
    """Signed tail brackets of a (k, t) coefficient table on the Legendre envelope."""
    coeffs = np.asarray(coeffs, dtype=float)
    weights = tail_weights(legendre(), tb, coeffs.shape[0] - 1)
    return bounds._brackets(tb, gf_square_integral(legendre(), tb.w), energy, weights, coeffs)


def test_tail_norm_bound_budget_only():
    # zero coefficients leave the full budget at every order: sqrt(2 ln 3) at unit energy
    got = legendre_brackets(np.zeros((3, 2)))
    np.testing.assert_allclose(got, math.sqrt(2.0 * math.log(3.0)), rtol=1e-12)
    # the budget scales with sqrt(E(t)), one energy per time column
    got = legendre_brackets(np.zeros((1, 2)), energy=np.array([0.0, 4.0]))
    assert got[0, 0] == 0.0
    assert got[0, 1] == pytest.approx(2.0 * math.sqrt(2.0 * math.log(3.0)), rel=1e-12)


def test_tail_norm_bound_clamp_and_zero():
    # spending beyond the budget drives the bracket negative ...
    assert legendre_brackets([[100.0]])[0, 0] < 0.0
    # ... and C_N clamps it to zero, counting it in clamped_fraction; ahat_0 > 0
    # everywhere for exp-bounded, so a huge first weight overspends at every t
    spec = make_spec("exp-bounded", legendre())
    overspent = c_n_curve(spec, 2, 0.1, 0.05, tail_weight_override=np.array([1e6, 0.0, 0.0]))
    np.testing.assert_array_equal(overspent.c_n, 0.0)
    np.testing.assert_array_equal(overspent.clamped_fraction, 1.0)
    unspent = c_n_curve(spec, 2, 0.1, 0.05, tail_weight_override=np.zeros(3))
    np.testing.assert_array_equal(unspent.clamped_fraction, 0.0)
    assert unspent.c_n[0] > 0.0
    np.testing.assert_array_equal(unspent.c_n, unspent.c_n[0])


def test_tail_norm_bound_subtracts_weighted_sum():
    budget = math.sqrt(2.0 * math.log(3.0))
    got = legendre_brackets([[0.3], [0.1]])[:, 0]
    # row n subtracts the prefix sum of tau_bound(k) ahat_k over k <= n
    assert got[0] == pytest.approx(budget - math.sqrt(2.0) * 0.3, rel=1e-12)
    spent = math.sqrt(2.0) * 0.3 + math.sqrt(2.0 / 3.0) * 0.5 * 0.1
    assert got[1] == pytest.approx(budget - spent, rel=1e-12)


def test_tail_norm_bound_matches_direct_sum():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(
        coeffs=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=12),
        energy=st.floats(0.0, 4.0),
        w=st.floats(0.05, 0.95),
    )
    def check(coeffs, energy, w):
        tb = TailBoundSpec(1.3, w)
        budget = 1.3 * math.sqrt(energy) * math.sqrt(gf_square_integral(legendre(), w))
        got = legendre_brackets(np.array(coeffs)[:, np.newaxis], energy, tb)[:, 0]
        for n in range(len(coeffs)):
            spent = sum(tau_bound(legendre(), tb, k) * c for k, c in enumerate(coeffs[: n + 1]))
            assert got[n] == pytest.approx(budget - spent, rel=1e-12, abs=1e-12)

    check()


def test_c_n_regression_frozen():
    spec = make_spec("exp-bounded", legendre())
    assert c_n_bound(spec, 4, 0.1, 0.05).c_n == pytest.approx(
        0.0015995231371510796, abs=1e-12
    )
    assert c_n_bound(spec, 0, 0.1, 0.05).c_n == pytest.approx(
        0.060870801363565839, abs=1e-12
    )
    spec = make_spec("exp-decay", laguerre(0.0))
    assert c_n_bound(spec, 2, 0.01, 0.05).c_n == pytest.approx(
        0.0001967394951826293, abs=1e-12
    )
    spec = make_spec("poly-bounded", gegenbauer(1.0))
    assert c_n_bound(spec, 2, 3.3, 0.05).c_n == pytest.approx(
        0.39014946848376192, abs=1e-10
    )


def zero_kernel(energy_value):
    return Kernel(
        "zero",
        (-1.0, 1.0),
        lambda t, lam: np.zeros((np.asarray(t).size, np.asarray(lam).size)),
        lambda t: np.full(np.asarray(t).shape, energy_value),
    )


def test_c_n_constant_energy_closed_form():
    # all coefficients zero, energy 1, p=1: C_N = T tau sqrt(I(w))
    spec = ProcessSpec(
        kernel=zero_kernel(1.0),
        family=legendre(),
        horizon=2.0,
        p=1.0,
        orlicz=OrliczSpec(2.0),
        tail=TB,
    )
    report = c_n_bound(spec, 3, 0.1, 0.05)
    expected = 2.0 * math.sqrt(2.0 * math.log(3.0))
    assert report.c_n == pytest.approx(expected, rel=1e-12)
    assert report.clamped_fraction == 0.0


def test_c_n_zero_energy_passes_everything():
    spec = ProcessSpec(
        kernel=zero_kernel(0.0),
        family=legendre(),
        horizon=1.0,
        p=2.0,
        orlicz=OrliczSpec(2.0),
        tail=TB,
    )
    report = c_n_bound(spec, 1, 1e-9, 0.05)
    assert report.c_n == 0.0
    assert check_conditions(report)


def test_check_conditions_boundary_semantics():
    base = dict(
        family=legendre(),
        n=1,
        clamped_fraction=0.0,
        gf_integral_value=1.0,
        gf_integral_oracle=1.0,
    )
    at_rel = BoundReport(
        c_n=0.5, threshold_rel=0.5, threshold_acc=0.6, pass_rel=True, pass_acc=True, **base
    )
    assert check_conditions(at_rel)  # <= is inclusive
    at_acc = BoundReport(
        c_n=0.6, threshold_rel=0.7, threshold_acc=0.6, pass_rel=True, pass_acc=False, **base
    )
    assert not check_conditions(at_acc)  # < is strict


def test_gate_consistency():
    spec = make_spec("exp-bounded", legendre())
    for n in (0, 2, 4):
        report = c_n_bound(spec, n, 0.018, 0.05)
        assert check_conditions(report) == (report.pass_rel and report.pass_acc)
        assert report.pass_rel == (report.c_n <= report.threshold_rel)
        assert report.pass_acc == (report.c_n < report.threshold_acc)


def test_gf_oracle_cross_check_invariant():
    for name, fam, delta in (
        ("exp-bounded", legendre(), 0.1),
        ("exp-decay", laguerre(0.0), 0.01),
        ("poly-bounded", gegenbauer(1.0), 3.3),
    ):
        r = c_n_bound(make_spec(name, fam), 2, delta, 0.05)
        assert abs(r.gf_integral_value - r.gf_integral_oracle) <= max(
            1e-6, 1e-6 * abs(r.gf_integral_oracle)
        )


def test_gf_oracle_disagreement_rejects_run():
    # starving the oracle of nodes forces a detectable mismatch
    spec = make_spec("exp-bounded", legendre(), tb=TailBoundSpec(1.0, 0.9))
    with pytest.raises(ConvergenceError):
        c_n_bound(spec, 1, 0.1, 0.05, resolution=Resolution(oracle_nodes=2))


def test_select_n_contract():
    spec = make_spec("exp-bounded", legendre())
    result = select_N(spec, 0.018, 0.05, 8)
    assert result.selected_n == 2
    assert check_conditions(result.report)
    below = c_n_bound(spec, result.selected_n - 1, 0.018, 0.05)
    assert not check_conditions(below)


def test_select_n_huge_delta_picks_zero():
    result = select_N(make_spec("exp-bounded", legendre()), 1e6, 0.05, 4)
    assert result.selected_n == 0


def test_select_n_not_found():
    result = select_N(make_spec("exp-bounded", legendre()), 1e-12, 0.05, 0)
    assert result.selected_n is None
    assert result.report is None
    assert result.best_n == 0
    assert result.best_c_n > 0.0


CURVE_FIXTURES = (
    ("exp-bounded", legendre()),
    ("exp-decay", laguerre(0.5)),
    ("exp-bounded", gegenbauer(1.5)),
)


@pytest.mark.parametrize("w", (0.3, 0.5, 0.8))
@pytest.mark.parametrize(
    "kernel_name,family",
    # with the fixtures, the kernel and family pairs of the benchmark's curves
    CURVE_FIXTURES
    + (
        ("poly-bounded", legendre()),
        ("exp-decay", laguerre(0.0)),
        ("exp-bounded", gegenbauer(1.0)),
    ),
)
def test_c_n_curve_matches_per_order_bound(kernel_name, family, w):
    # OpenBLAS gives coefficient tables of at most 4 rows other last bits (up
    # to 5e-15 relative); every curve reads at least 5 rows, so an order's
    # C_N is one float whichever call or curve height reads it
    spec = make_spec(kernel_name, family, tb=TailBoundSpec(1.0, w))
    curve = c_n_curve(spec, 32, 0.1, 0.05)
    assert len(curve) == 33
    for n_max in range(4):
        short = c_n_curve(spec, n_max, 0.1, 0.05)
        np.testing.assert_array_equal(short.c_n, curve.c_n[: n_max + 1])
    for n in range(33):
        report = c_n_bound(spec, n, 0.1, 0.05)
        assert (report.c_n, report.clamped_fraction) == (curve.c_n[n], curve.clamped_fraction[n])
        from_curve = curve[n]
        assert from_curve.n == n
        assert (from_curve.threshold_rel, from_curve.threshold_acc) == (
            report.threshold_rel,
            report.threshold_acc,
        )
        assert (from_curve.gf_integral_value, from_curve.gf_integral_oracle) == (
            report.gf_integral_value,
            report.gf_integral_oracle,
        )
    assert curve[-1].n == 32
    with pytest.raises(IndexError):
        curve[33]


def brute_force_select(spec, delta, alpha, n_max):
    """The per-order scan select_N replaced: one c_n_bound call per order."""
    best_n, best_c_n = 0, math.inf
    for n in range(n_max + 1):
        report = c_n_bound(spec, n, delta, alpha)
        if report.c_n < best_c_n:
            best_n, best_c_n = n, report.c_n
        if check_conditions(report):
            return n, best_n, best_c_n
    return None, best_n, best_c_n


@pytest.mark.parametrize(
    "kernel_name,family,delta,n_max",
    (
        ("exp-bounded", legendre(), 0.018, 8),
        ("exp-decay", laguerre(0.0), 0.01, 8),
        ("poly-bounded", gegenbauer(1.0), 3.3, 8),
        ("exp-bounded", legendre(), 1e-9, 32),
    ),
)
def test_select_n_matches_brute_force_scan(kernel_name, family, delta, n_max):
    spec = make_spec(kernel_name, family)
    result = select_N(spec, delta, 0.05, n_max)
    selected, best_n, best_c_n = brute_force_select(spec, delta, 0.05, n_max)
    assert result.selected_n == selected
    assert result.best_n == best_n
    assert result.best_c_n == best_c_n
    if selected is None:
        assert result.report is None
    else:
        assert result.report.n == selected and check_conditions(result.report)


def test_tail_weight_override_through_c_n_bound():
    spec = make_spec("exp-bounded", legendre())
    own = c_n_bound(spec, 3, 0.1, 0.05)
    same = c_n_bound(spec, 3, 0.1, 0.05, tail_weight_override=tail_weights(legendre(), TB, 3))
    assert same.c_n == own.c_n
    # zero weights leave the budget alone: C_N = tau^2 I(w) int E dt at p = 2
    zero = c_n_bound(spec, 3, 0.1, 0.05, tail_weight_override=np.zeros(4))
    grid = np.linspace(0.0, 1.0, 257)
    budget_only = TB.tau**2 * gf_square_integral(legendre(), TB.w) * (
        simpson_weights(grid) @ spec.kernel.energy_at(grid)
    )
    assert zero.c_n == pytest.approx(budget_only, rel=1e-13)
    assert zero.c_n > own.c_n and zero.clamped_fraction == 0.0


def test_tail_weight_override_shape_guard():
    spec = make_spec("exp-bounded", legendre())
    with pytest.raises(DomainError):
        c_n_bound(spec, 3, 0.1, 0.05, tail_weight_override=np.ones(2))


@pytest.mark.parametrize("override", (False, True))
@pytest.mark.parametrize("nodes", (256, 512))
@pytest.mark.parametrize("kernel_name,family", CURVE_FIXTURES)
def test_cached_curve_is_bit_identical(kernel_name, family, nodes, override):
    spec = make_spec(kernel_name, family)
    res = Resolution(spectral_nodes=nodes, oracle_nodes=nodes)
    tw = np.linspace(1.0, 0.1, 9) if override else None
    kwargs = dict(resolution=res, tail_weight_override=tw)
    # the undecorated body is the uncached reference
    ref_c_n, ref_clamped, ref_gf, ref_oracle = bounds._curve_arrays.__wrapped__(
        spec, 8, res, None if tw is None else tw.tobytes()
    )
    bounds._curve_arrays.cache_clear()
    cold = c_n_curve(spec, 8, 0.1, 0.05, **kwargs)
    hit = c_n_curve(spec, 8, 0.1, 0.05, **kwargs)
    other = c_n_curve(spec, 8, 0.7, 0.2, **kwargs)
    assert bounds._curve_arrays.cache_info().misses == 1
    for curve in (cold, hit, other):
        assert np.array_equal(curve.c_n, ref_c_n)
        assert np.array_equal(curve.clamped_fraction, ref_clamped)
        assert (curve.gf_integral_value, curve.gf_integral_oracle) == (ref_gf, ref_oracle)
    for curve, (delta, alpha) in ((cold, (0.1, 0.05)), (hit, (0.1, 0.05)), (other, (0.7, 0.2))):
        assert curve.threshold_rel == threshold_reliability(delta, alpha, spec.orlicz, spec.p)
        assert curve.threshold_acc == threshold_accuracy(delta, spec.p, spec.orlicz)


@pytest.fixture
def curve_work(monkeypatch):
    """Counts of coefficient tables built and gf oracle checks run, from a cold cache."""
    counts = {"tables": 0, "oracles": 0}
    build, oracle = bounds.compute_coefficients, bounds.gf_square_integral_oracle

    def counting_build(*args, **kwargs):
        counts["tables"] += 1
        return build(*args, **kwargs)

    def counting_oracle(*args, **kwargs):
        counts["oracles"] += 1
        return oracle(*args, **kwargs)

    monkeypatch.setattr(bounds, "compute_coefficients", counting_build)
    monkeypatch.setattr(bounds, "gf_square_integral_oracle", counting_oracle)
    bounds._curve_arrays.cache_clear()
    return counts


def test_curve_cache_key_separation(curve_work):
    spec = make_spec("exp-bounded", legendre())
    res = Resolution(spectral_nodes=64, time_grid_points=65, oracle_nodes=64)
    for delta in (1e-9, 0.01, 0.018, 0.5, 1e6):
        for alpha in (0.05, 0.2):
            select_N(spec, delta, alpha, 8, resolution=res)
    assert curve_work == {"tables": 1, "oracles": 1}

    variants = (
        (make_spec("exp-bounded", legendre(), tb=TailBoundSpec(1.0, 0.3)), 8, res, None),
        (spec, 9, res, None),
        (spec, 8, Resolution(spectral_nodes=96, time_grid_points=65, oracle_nodes=64), None),
        (spec, 8, Resolution(spectral_nodes=64, time_grid_points=65, oracle_nodes=96), None),
        (spec, 8, Resolution(spectral_nodes=64, time_grid_points=33, oracle_nodes=64), None),
        (spec, 8, res, np.ones(9)),
        (spec, 8, res, np.full(9, 0.5)),
    )
    for i, (s, n_max, r, tw) in enumerate(variants, start=2):
        c_n_curve(s, n_max, 0.1, 0.05, resolution=r, tail_weight_override=tw)
        assert curve_work["tables"] == i
    assert curve_work["oracles"] == len(variants) + 1


def test_cached_curve_arrays_are_read_only():
    curve = c_n_curve(make_spec("exp-bounded", legendre()), 4, 0.1, 0.05)
    with pytest.raises(ValueError):
        curve.c_n[0] = 0.0
    with pytest.raises(ValueError):
        curve.clamped_fraction[0] = 0.0


def test_curve_cache_keeps_every_error(curve_work):
    spec = make_spec("exp-bounded", legendre(), tb=TailBoundSpec(1.0, 0.9))
    starved = Resolution(oracle_nodes=2)
    for _ in range(2):
        with pytest.raises(ConvergenceError):
            c_n_curve(spec, 1, 0.1, 0.05, resolution=starved)
    # a failed check is not stored: both calls ran the oracle
    assert curve_work["oracles"] == 2

    tw = np.ones(5)
    c_n_curve(spec, 4, 0.1, 0.05)
    c_n_curve(spec, 4, 0.1, 0.05, tail_weight_override=tw)
    for delta, alpha in (
        (0.0, 0.05),
        (-1.0, 0.05),
        (0.1, 0.0),
        (0.1, 1.0),
        (0.1, 1.5),
        (0.1, 2.0),
        (0.1, -0.1),
    ):
        with pytest.raises(DomainError):
            c_n_curve(spec, 4, delta, alpha)
        with pytest.raises(DomainError):
            select_N(spec, delta, alpha, 4)
    for bad in (np.ones(4), np.ones(6), np.ones((5, 1))):
        with pytest.raises(DomainError):
            c_n_curve(spec, 4, 0.1, 0.05, tail_weight_override=bad)
    assert curve_work["tables"] == 2


def test_report_serialization_round_trip(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        '{"family": "legendre", "kernel": "exp-bounded", "horizon": 1.0, "tau": 1.0, '
        '"delta": 0.1, "alpha": 0.05, "n": 2}'
    )
    assert cli.main(["bound", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = c_n_bound(make_spec("exp-bounded", legendre()), 2, 0.1, 0.05)
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload == json.loads(capsys.readouterr().out)
    assert list(payload) == [
        "family",
        "N",
        "C_N",
        "threshold_rel",
        "threshold_acc",
        "pass_rel",
        "pass_acc",
        "clamped_fraction",
        "gf_integral_value",
        "gf_integral_oracle",
    ]
    assert payload == report.as_json_dict()

    # report.csv is the report.json fields in order, one row
    header, row = (line.split(",") for line in (tmp_path / "report.csv").read_text().splitlines())
    assert header == list(payload)
    # 17 significant digits round-trip exactly
    assert row[header.index("C_N")] == format(report.c_n, ".17g")
    assert float(row[header.index("C_N")]) == report.c_n
    assert row[header.index("N")] == "2"
    assert row[header.index("pass_rel")] == "true"


def test_resolution_validation():
    with pytest.raises(DomainError):
        Resolution(spectral_nodes=0)
    with pytest.raises(DomainError):
        Resolution(spectral_nodes=5000)
    with pytest.raises(DomainError):
        Resolution(time_grid_points=256)
    with pytest.raises(DomainError):
        Resolution(time_grid_points=1)
    with pytest.raises(DomainError):
        Resolution(oracle_nodes=-1)


def test_order_validation():
    spec = make_spec("exp-bounded", legendre())
    with pytest.raises(DomainError):
        c_n_bound(spec, -1, 0.1, 0.05)
    with pytest.raises(DomainError):
        tau_bound(legendre(), TB, -2)
