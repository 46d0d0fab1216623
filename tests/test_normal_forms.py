import itertools
import math

import numpy as np
import pytest

from legendre_curves import (GERM_CASES, GermData, GermSignature, ZERO_FUNCTION,
                             check_legendre, gallery, germ_signature,
                             germ_signature_of_curve, local_normal_form,
                             signature, type_nm_curvature, type_nm_curve)
from legendre_curves.curves import LegendreCurve
from legendre_curves.errors import CurveError, LegendreError
from legendre_curves.exprs import ScalarFun


def test_cusp_construction():
    cusp = type_nm_curve(2, 3)
    assert check_legendre(cusp, samples=512, tol=1e-9).ok
    assert cusp.curvature_pair()(0.0) == pytest.approx((1.5, 0.0))
    # nu = (-3t, 2)/sqrt(9t^2+4)
    for t in (-0.7, 0.0, 0.4):
        r = math.sqrt(9 * t * t + 4)
        assert cusp.nu_x(t) == pytest.approx(-3 * t / r)
        assert cusp.nu_y(t) == pytest.approx(2 / r)


def test_type_35_has_degenerate_singular_point():
    germ = type_nm_curve(3, 5)
    ell, beta = germ.curvature_pair()(0.0)
    assert ell == pytest.approx(0.0)
    assert beta == pytest.approx(0.0)
    assert germ_signature_of_curve(germ) == GermSignature(1, 2)


def test_type_12_is_regular():
    r = type_nm_curve(1, 2)
    ell, beta = r.curvature_pair()(0.0)
    assert beta == pytest.approx(-1.0)  # beta = -sqrt(4 t^2 f^2 + 1) at 0
    for t in (-0.5, 0.25):
        assert r.curvature_pair().beta(t) == pytest.approx(-math.sqrt(4 * t * t + 1))


def test_type_nm_rejects_vanishing_factor():
    with pytest.raises(CurveError, match="must not vanish"):
        type_nm_curve(2, 3, "t")
    with pytest.raises(CurveError):
        type_nm_curve(3, 2)


def test_closed_form_curvature_matches_frame_computation():
    ts = np.linspace(-1, 1, 201)
    for n, m, f in [(2, 3, None), (3, 4, "1+t"), (3, 5, None), (2, 5, "2-t")]:
        curve = type_nm_curve(n, m, f)
        pair = curve.curvature_pair()
        ell_ast, beta_ast = type_nm_curvature(n, m, f)
        assert np.max(np.abs(pair.ell.values(ts)
                             - ScalarFun.from_ast(ell_ast).values(ts))) <= 1e-12
        assert np.max(np.abs(pair.beta.values(ts)
                             - ScalarFun.from_ast(beta_ast).values(ts))) <= 1e-12


def test_negative_branch_sign():
    curve = type_nm_curve(2, 3, sign=-1)
    assert check_legendre(curve, samples=256, tol=1e-9).ok
    assert curve.x(0.5) == pytest.approx(-0.25)
    assert curve.curvature_pair()(0.0)[0] == pytest.approx(-1.5)


@pytest.mark.parametrize("germ, expected", [
    (GermData("below-diagonal", 2, 3), GermSignature(0, 1)),
    (GermData("below-diagonal", 3, 5), GermSignature(1, 2)),
    (GermData("diagonal-plain", 2, 2), GermSignature(ZERO_FUNCTION, 1)),
    (GermData("diagonal-perturbed", 2, 2, p=3), GermSignature(2, 1)),
    (GermData("diagonal-perturbed", 3, 3, p=2), GermSignature(1, 2)),
    (GermData("above-diagonal", 5, 3), GermSignature(1, 2)),
])
def test_declared_germ_signatures(germ, expected):
    assert germ_signature(germ) == expected


@pytest.mark.parametrize("germ", [
    GermData("below-diagonal", 2, 3),
    GermData("below-diagonal", 2, 5),
    GermData("diagonal-plain", 2, 2),
    GermData("diagonal-plain", 3, 3),
    GermData("diagonal-perturbed", 2, 2, p=3),
    GermData("diagonal-perturbed", 4, 4, p=1),
    GermData("above-diagonal", 5, 3),
    GermData("above-diagonal", 3, 2),
])
def test_normal_forms_realize_their_signature(germ):
    curve = local_normal_form(germ)
    assert check_legendre(curve, samples=512, tol=1e-9).ok
    assert germ_signature_of_curve(curve) == germ_signature(germ)


def _germ_roster():
    """Every GermData with n, m <= 7 and p <= 4."""
    for case in GERM_CASES:
        for n, m, p in itertools.product(range(1, 8), range(1, 8), range(1, 5)):
            if case != "diagonal-perturbed" and p > 1:
                continue
            try:
                yield GermData(case, n, m, p if case == "diagonal-perturbed" else None)
            except CurveError:
                pass


def test_every_small_normal_form_realizes_its_signature():
    germs = list(_germ_roster())
    assert len(germs) == 77
    for germ in germs:
        want = germ_signature(germ)
        curve = local_normal_form(germ)
        assert germ_signature_of_curve(curve) == want, germ
        # the zero at 0 carries the nonzero orders; with none there is no zero
        z = signature(curve).zero_at(0.0)
        got = (z.ord_ell, z.ord_beta) if z else (None, None)
        assert got == (want.ord_ell if want.ord_ell not in (0, ZERO_FUNCTION) else None,
                       want.ord_beta or None), germ


@pytest.mark.parametrize("germ, orders", [
    (GermData("below-diagonal", 2, 4), [1, 2]),
    (GermData("diagonal-plain", 2, 2), [1, 2]),
], ids=["below-diagonal", "diagonal-plain"])
def test_germ_signature_reads_one_curvature_pass(germ, orders, tape_runs):
    # The germ signature is read from signature(curve): its tape runs are
    # exactly the signature's, and no more: the grid scan and the seed run,
    # whose jets settle the zero at the grid point 0 with no Newton run.
    # Each runs one order higher: the ASTs hold one level of derivative
    # nodes.
    curve = local_normal_form(germ)
    tape_runs.clear()
    signature(curve)
    assert [r.tape_order for r in tape_runs.runs] == orders
    tape_runs.clear()
    assert germ_signature_of_curve(curve) == germ_signature(germ)
    assert [r.tape_order for r in tape_runs.runs] == orders


def test_germ_signature_reads_the_seam_zero_at_either_end():
    curve = gallery("gamma_n", {"n": 3}).curve
    at_zero = germ_signature_of_curve(curve, 0.0)
    assert at_zero == GermSignature(0, 1)
    assert germ_signature_of_curve(curve, 2 * math.pi) == at_zero
    assert germ_signature_of_curve(curve, math.pi) == at_zero
    assert germ_signature_of_curve(curve, 1.0) == GermSignature(0, 0)


def test_zero_at_on_open_and_closed_signatures():
    sig = signature(local_normal_form(GermData("below-diagonal", 3, 5)))
    (zero,) = sig.zeros
    assert sig.zero_at(0.0) is zero
    assert sig.zero_at(zero.t + 5e-9) is zero
    assert sig.zero_at(zero.t + 1e-7) is None
    assert sig.zero_at(1.0) is None

    closed = signature(gallery("gamma_n", {"n": 3}).curve)
    seam = closed.zero_at(0.0)
    assert seam is closed.zeros[0] and seam.t == pytest.approx(0.0, abs=1e-9)
    assert closed.zero_at(2 * math.pi) is seam
    assert closed.zero_at(2 * math.pi - 5e-9) is seam
    assert closed.zero_at(2 * math.pi - 1e-7) is None
    assert closed.zero_at(closed.zeros[1].t) is closed.zeros[1]


def test_germ_beyond_the_jet_order_is_refused():
    # beta vanishes to order 13 at 0, past the jet order 12
    curve = local_normal_form(GermData("below-diagonal", 14, 15))
    with pytest.raises(LegendreError, match="exceeds jet order"):
        germ_signature_of_curve(curve)


def test_germ_signature_seeds_the_contact_order_rule_with_the_scale():
    # beta = -1e3 (3 t^2 + 1e-10): its constant term sits below VANISH_REL
    # times the scale, so beta vanishes to order 2 at 0 for both readers
    curve = LegendreCurve.from_exprs("1e3*(t^3 + 1e-10*t)", "0", nu=("0", "1"),
                                     domain=(-1, 1))
    (zero,) = signature(curve).zeros
    assert (zero.kind, zero.ord_beta) == ("singular", 2)
    assert germ_signature_of_curve(curve) == GermSignature(ZERO_FUNCTION, 2)


@pytest.mark.parametrize("t0", [5.0, -1.5, math.nan, math.inf])
def test_germ_signature_refuses_a_point_off_the_domain(t0):
    # past the domain the expressions continue, and would be read as a germ
    curve = local_normal_form(GermData("below-diagonal", 2, 5))
    with pytest.raises(CurveError, match="point of the domain"):
        germ_signature_of_curve(curve, t0)


def test_normal_form_signature_via_signature_module():
    # the zero-signature machinery sees the same germ data at the origin
    curve = local_normal_form(GermData("below-diagonal", 3, 5))
    sig = signature(curve)
    assert len(sig.zeros) == 1
    z = sig.zeros[0]
    assert (z.kind, z.ord_ell, z.ord_beta) == ("both", 1, 2)

    curve = local_normal_form(GermData("diagonal-plain", 2, 2))
    sig = signature(curve)
    assert sig.ell_identically_zero
    assert [(z.kind, z.ord_beta) for z in sig.zeros] == [("singular", 1)]


def test_type_nm_matches_below_diagonal_normal_form():
    for n, m in [(2, 3), (3, 5), (2, 5), (3, 4)]:
        want = germ_signature(GermData("below-diagonal", n, m))
        for f in (None, "1+t", "2-t"):
            got = germ_signature_of_curve(type_nm_curve(n, m, f))
            assert got == want, (n, m, f)


def test_above_diagonal_mirrors_below_diagonal():
    for n, m in [(5, 3), (3, 2), (7, 4)]:
        above = germ_signature(GermData("above-diagonal", n, m))
        below = germ_signature(GermData("below-diagonal", m, n))
        assert above == below


def test_germ_data_validation():
    with pytest.raises(CurveError):
        GermData("below-diagonal", 3, 3)
    with pytest.raises(CurveError):
        GermData("above-diagonal", 2, 3)
    with pytest.raises(CurveError):
        GermData("diagonal-perturbed", 2, 2)  # missing p
    with pytest.raises(CurveError):
        GermData("sideways", 2, 3)
    # a non-integer order would print one curve and evaluate another
    for bad in (lambda: GermData("below-diagonal", 1.5, 3),
                lambda: GermData("below-diagonal", True, 3),
                lambda: GermData("diagonal-perturbed", 2, 2, p=1.5),
                lambda: type_nm_curve(2.5, 3),
                lambda: type_nm_curve(2, 3.0)):
        with pytest.raises(CurveError, match="integer"):
            bad()
    assert GermData("below-diagonal", np.int64(2), 3).k == 1
    # only diagonal-perturbed germs read p; any other case refuses one
    for case, n, m in (("below-diagonal", 2, 3), ("diagonal-plain", 2, 2),
                       ("above-diagonal", 3, 2)):
        with pytest.raises(CurveError, match="take no p"):
            GermData(case, n, m, p=2)
