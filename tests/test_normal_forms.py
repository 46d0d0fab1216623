import math

import numpy as np
import pytest

from legendre_curves import (GermData, GermSignature, ZERO_FUNCTION,
                             check_legendre, germ_signature,
                             germ_signature_of_curve, local_normal_form,
                             signature, type_nm_curvature, type_nm_curve)
from legendre_curves.errors import CurveError
from legendre_curves import exprs
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
    with pytest.raises(ValueError):
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


@pytest.mark.parametrize("germ, orders", [
    (GermData("below-diagonal", 2, 4), [13]),
    (GermData("diagonal-plain", 2, 2), [13, 1]),
], ids=["below-diagonal", "diagonal-plain"])
def test_germ_signature_reads_one_curvature_pass(germ, orders, monkeypatch):
    # Both jets at t0 come from one (x, y, nu) pass at order 12 + 1; the
    # zero-function test reads ell and beta on its grid from one more.
    curve = local_normal_form(germ)
    runs = []
    run = exprs._Tape.run

    def counted_run(self, t0, order):
        runs.append(order)
        return run(self, t0, order)

    monkeypatch.setattr(exprs._Tape, "run", counted_run)
    assert germ_signature_of_curve(curve) == germ_signature(germ)
    assert runs == orders


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
    with pytest.raises(ValueError):
        GermData("below-diagonal", 3, 3)
    with pytest.raises(ValueError):
        GermData("above-diagonal", 2, 3)
    with pytest.raises(ValueError):
        GermData("diagonal-perturbed", 2, 2)  # missing p
    with pytest.raises(ValueError):
        GermData("sideways", 2, 3)
