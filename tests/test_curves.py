import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from legendre_curves import (CurvaturePair, LegendreCurve, ScalarFun,
                             check_closed, check_legendre,
                             derive_nu, dump_curve, gallery, is_immersion,
                             load_curve, sample_curve, type_nm_curve)
from legendre_curves.cli import run
from legendre_curves.errors import CurveError

TWO_PI = 2 * math.pi


@pytest.fixture(scope="module")
def circle():
    return gallery("circle").curve


def test_moving_frame_quarter_rotation(circle):
    # ell = nu' . mu and beta = gamma' . mu with mu = J(nu) = (-nu_y, nu_x),
    # the anticlockwise quarter rotation; the circle's nu is (cos t, sin t)
    ts = np.array([0.0, math.pi / 2, 0.3])
    (nx, ny), (gx, gy) = circle.nu_jets(ts, 1), circle.gamma_jets(ts, 1)
    mu_x, mu_y = -ny[0], nx[0]
    assert np.allclose(mu_x, [0.0, -1.0, -math.sin(0.3)], atol=1e-15)
    assert np.allclose(mu_y, [1.0, 0.0, math.cos(0.3)], atol=1e-15)
    pair = circle.curvature_pair()
    assert np.allclose(nx[1] * mu_x + ny[1] * mu_y, pair.ell.values(ts))
    assert np.allclose(gx[1] * mu_x + gy[1] * mu_y, pair.beta.values(ts))


def test_check_legendre_circle(circle):
    rep = check_legendre(circle, samples=512, tol=1e-9)
    assert rep.ok
    assert rep.max_defect <= 1e-12
    assert rep.max_norm_defect <= 1e-12


def test_check_legendre_gamma_ab():
    rep = check_legendre(gallery("gamma_ab", {"a": 1, "b": 2}).curve, tol=1e-9)
    assert rep.ok


def test_check_legendre_violation():
    bad = LegendreCurve.from_exprs("t", "t", nu=("1", "0*t"), domain=(0, 1))
    rep = check_legendre(bad, samples=128, tol=1e-9)
    assert not rep.ok
    assert rep.max_defect == pytest.approx(1.0)


def test_check_legendre_validates_samples(circle):
    for samples in (1, 0, -5, 1000.0, np.float64(64), "64", True, None):
        with pytest.raises(ValueError, match="samples must be an integer of at least 2"):
            check_legendre(circle, samples=samples)
    assert check_legendre(circle, samples=np.int32(2)).ok


def test_check_legendre_runs_one_tape_at_order_1(circle, tape_runs):
    # gamma' and nu come from one run of one tape over the four components
    check_legendre(circle, samples=300)
    assert [(run.order, run.outputs) for run in tape_runs.runs] == [(1, 4)]


def test_curvature_circle(circle):
    for t in (0.0, 1.0, 4.5):
        assert circle.curvature_pair()(t) == pytest.approx((1.0, 1.0))


def test_curvature_gamma_n3():
    curve = gallery("gamma_n", {"n": 3}).curve
    ell, beta = curve.curvature_pair()(math.pi / 2)
    assert (ell, beta) == pytest.approx((2.0, 6.0))
    ell, beta = curve.curvature_pair()(0.7)
    assert (ell, beta) == pytest.approx((2.0, 6 * math.sin(0.7)))


def test_curvature_cusp_at_origin():
    cusp = type_nm_curve(2, 3)
    assert cusp.curvature_pair()(0.0) == pytest.approx((1.5, 0.0))


def test_derive_nu_circle():
    nux, nuy = derive_nu("cos(t)", "sin(t)", (0, TWO_PI))
    for t in np.linspace(0, TWO_PI, 7):
        assert nux(t) == pytest.approx(-math.cos(t))
        assert nuy(t) == pytest.approx(-math.sin(t))


def test_derive_nu_horizontal_line():
    nux, nuy = derive_nu("t", "0*t", (0, 1))
    assert (nux(0.5), nuy(0.5)) == pytest.approx((0.0, 1.0))


def test_derive_nu_rejects_singular_curve():
    with pytest.raises(CurveError, match="singular point"):
        derive_nu("t^2", "t^3", (-1, 1))


@given(st.integers(-12, 12))
def test_derive_nu_decides_at_every_scale(k):
    # the singular-point decision reads the zero search on (x', y'), whose
    # tolerances are relative to the scale of each component
    s = 10.0 ** k
    nux, nuy = derive_nu(f"{s!r}*cos(t)", f"{s!r}*sin(t)", (0, TWO_PI))
    assert np.allclose(nux.values(np.array([0.0, 1.0])), -np.cos([0.0, 1.0]), atol=1e-12)
    with pytest.raises(CurveError, match="singular point"):
        derive_nu(f"{s!r}*t^2", f"{s!r}*t^3", (-1, 1))


def test_derive_nu_reads_a_component_without_zeros_as_no_common_zero():
    # y' = 0.6 cos(600 t) has 1200 zeros, more than the search takes from
    # one component, but x' = 1 has none, so there is no common zero
    curve = LegendreCurve.from_exprs("t", "0.001*sin(600*t)", nu=None, domain=(0, TWO_PI))
    assert check_legendre(curve).ok


def test_infinite_domain_width_is_refused_without_a_warning(tmp_path, capsys):
    # b - a overflows to infinity: the domain message, before any grid
    # is spread over the interval
    spec = {"x": "cos(t)", "y": "sin(t)", "nu": ["cos(t)", "sin(t)"],
            "domain": [-1e308, 1e308]}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(spec))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CurveError, match="finite interval"):
            load_curve(spec)
        assert run(["signature", "--curve", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: domain must be a finite interval")


def test_derive_nu_beta_is_negative_speed():
    nux, nuy = derive_nu("cos(t)", "sin(2*t)", (0.2, 1.2))
    x = ScalarFun.from_text("cos(t)")
    y = ScalarFun.from_text("sin(2*t)")
    curve = LegendreCurve(x, y, nux, nuy, (0.2, 1.2))
    pair = curve.curvature_pair()
    ts = np.linspace(0.3, 1.1, 9)
    speed = np.hypot(np.sin(ts), 2 * np.cos(2 * ts))
    assert np.allclose(pair.beta.values(ts), -speed, atol=1e-12)


def test_is_immersion_cases(circle):
    assert is_immersion(circle).ok
    assert is_immersion(type_nm_curve(2, 3)).ok  # front: ell(0) != 0
    rep = is_immersion(type_nm_curve(3, 5))
    assert not rep.ok
    assert rep.witnesses == pytest.approx((0.0,), abs=1e-9)
    # without zeros min_combined is the minimum on the 4096-step grid
    curve = gallery("gamma_ab", {"a": 1, "b": 2}).curve
    ts = np.linspace(*curve.domain, 4097)
    ell, beta = (jet[0] for jet in curve.curvature_pair().jets(ts, 0))
    assert is_immersion(curve).min_combined == np.min(np.maximum(np.abs(ell), np.abs(beta)))


def test_is_immersion_one_component_and_degenerate_cases():
    rep = is_immersion(LegendreCurve.from_exprs("t^3", "0", nu=("0", "1"), domain=(-1, 2)))
    assert not rep.ok  # ell vanishes identically, beta = 3 t^2 at t = 0
    assert rep.witnesses == pytest.approx((0.0,), abs=1e-9)
    assert rep.min_combined == 0.0  # read at the witness, not on the grid
    assert is_immersion(LegendreCurve.from_exprs("t", "0", nu=("0", "1"), domain=(-1, 2))).ok
    rep = is_immersion(LegendreCurve.from_exprs("0", "0", nu=("0", "1"), domain=(-1, 2)))
    assert not rep.ok and rep.min_combined == 0.0
    assert rep.witnesses == pytest.approx(np.linspace(-1, 2, 9))


def test_is_immersion_evaluates_ell_and_beta_together(tape_runs):
    # The scan and each Newton run (whose last jets the residual check
    # reads) run the one tape of the (ell, beta) ASTs once for both
    # components; the ASTs hold one level of derivative nodes.
    for name, params in (("gamma_n", {"n": 3}), ("gamma_m", {"m": 1})):
        curve = gallery(name, params).curve
        tape_runs.clear()
        is_immersion(curve)
        runs, compiles = tape_runs.runs, tape_runs.compiles
        assert len(runs) <= 11 and compiles == [(2, 1)], (name, runs, compiles)


def test_check_closed_gallery(circle):
    assert check_closed(circle, max_order=8).closed_to_checked_order
    assert check_closed(gallery("gamma_n", {"n": 3}).curve, max_order=8).closed_to_checked_order
    open_curve = LegendreCurve.from_exprs("t", "t^2", nu=None, domain=(0, 1))
    rep = check_closed(open_curve)
    assert rep.closed_order == -1
    assert rep.describe() == "not C0-closed"


def test_check_closed_reports_the_first_order_that_differs():
    # x'' is -1 at t = 0 and 1 at t = 1; lower orders agree
    curve = LegendreCurve.from_exprs("t^2*(t-1)^2*(t-0.5)", "0", nu=("0", "1"),
                                     domain=(0, 1))
    rep = check_closed(curve)
    assert rep.closed_order == 1
    assert rep.describe() == "C^1-closed but not C^2"


def test_checks_refuse_non_finite_values():
    # inf - inf is NaN and NaN > tol is false: without the refusal every
    # comparison would pass
    curve = LegendreCurve.from_exprs("exp(800*t)", "0", nu=("0", "1"), domain=(0, 1))
    with pytest.raises(CurveError, match=r"endpoint derivative is not finite at t=1\.0"):
        check_closed(curve)
    with pytest.raises(CurveError, match="tangency defect is not finite at t="):
        check_legendre(curve)
    # x'' overflows at t = 1, but the values already differ there, so the
    # verdict needs no order past 0
    curve = LegendreCurve.from_exprs("exp(700*t)", "0", nu=("0", "1"), domain=(0, 1))
    assert check_legendre(curve).max_defect == 0.0
    assert check_closed(curve).describe() == "not C0-closed"


def test_check_closed_detects_anti_periodic_frame():
    # even-index member: the curve itself is periodic but the frame flips sign
    entry = gallery("gamma_m", {"m": 2})
    assert not entry.curve.closed
    forced = LegendreCurve(entry.curve.x, entry.curve.y, entry.curve.nu_x,
                           entry.curve.nu_y, entry.curve.domain, closed=False)
    assert check_closed(forced).closed_order == -1


def test_closed_flag_validation():
    with pytest.raises(CurveError, match="not C"):
        LegendreCurve.from_exprs("t", "t^2", nu=None, domain=(0, 1), closed=True)


def test_beta_vanishes_exactly_at_singular_points(roster):
    from legendre_curves import find_zeros
    checked = 0
    for entry in roster:
        curve = entry.curve
        pair = curve.curvature_pair()
        ts = np.linspace(curve.domain[0], curve.domain[1], 1025)
        if float(np.max(np.abs(pair.beta.values(ts)))) <= 1e-12:
            continue
        for root in find_zeros(pair.beta, curve.domain, half_open=curve.closed):
            gx, gy = curve.gamma_jets(float(root), 1)
            speed = math.hypot(float(gx[1]), float(gy[1]))
            assert speed <= 1e-7, (entry.name, root, speed)
            checked += 1
    assert checked >= 10


def test_nu_negation_flips_beta(circle):
    pair = circle.curvature_pair()
    flipped = LegendreCurve(circle.x, circle.y, -circle.nu_x, -circle.nu_y,
                            circle.domain, circle.closed)
    fpair = flipped.curvature_pair()
    ts = np.linspace(0, TWO_PI, 33)
    assert np.allclose(fpair.ell.values(ts), pair.ell.values(ts), atol=1e-12)
    assert np.allclose(fpair.beta.values(ts), -pair.beta.values(ts), atol=1e-12)


def test_spec_file_round_trip(tmp_path):
    entry = gallery("gamma_ab", {"a": 2, "b": 3})
    text = dump_curve(entry.curve)
    reloaded = load_curve(text)
    ts = np.linspace(0, TWO_PI, 50)
    assert np.allclose(reloaded.gamma(ts), entry.curve.gamma(ts), atol=1e-15)
    assert np.allclose(sample_curve(reloaded, ts).nus, sample_curve(entry.curve, ts).nus,
                       atol=1e-15)
    assert reloaded.closed == entry.curve.closed

    path = tmp_path / "curve.json"
    path.write_text(text)
    from_file = load_curve(path)
    assert np.allclose(from_file.gamma(ts), entry.curve.gamma(ts), atol=1e-15)


def test_spec_file_with_params_and_derived_frame(tmp_path):
    spec = {"x": "cos(w*t)", "y": "sin(w*t)", "domain": [0.0, TWO_PI],
            "closed": True, "params": {"w": 1}}
    curve = load_curve(spec)
    rep = check_legendre(curve, samples=256)
    assert rep.ok
    pair = curve.curvature_pair()
    assert pair.beta(1.0) == pytest.approx(-1.0)  # derived frame: beta = -speed


def test_spec_file_missing_field():
    with pytest.raises(CurveError, match="missing field"):
        load_curve({"x": "t", "domain": [0, 1]})


def test_curvature_pair_from_exprs():
    pair = CurvaturePair.from_exprs("1", "1", (0, TWO_PI), closed=True)
    assert pair(0.3) == (1.0, 1.0)


@pytest.mark.parametrize("domain", [(TWO_PI, 0.0), (1.0, 1.0), (0.0, math.nan),
                                    (-math.inf, 0.0), (-1e308, 1e308)])
def test_domain_must_be_finite_and_increasing(circle, domain):
    with pytest.raises(CurveError, match="a < b"):
        LegendreCurve(circle.x, circle.y, circle.nu_x, circle.nu_y, domain)
    with pytest.raises(CurveError, match="a < b"):
        LegendreCurve.from_exprs("cos(t)", "sin(t)", nu=("cos(t)", "sin(t)"),
                                 domain=domain)
    with pytest.raises(CurveError, match="a < b"):
        CurvaturePair.from_exprs("1", "1", domain)
