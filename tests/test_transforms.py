import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from legendre_curves import (AffineMap, DiffeoSpec, check_closed, check_legendre,
                             derive_nu, gallery, is_immersion, negate,
                             pushforward_affine, pushforward_diffeo_curve,
                             pushforward_swap, reparametrize, signature,
                             type_nm_curve)
from legendre_curves.curves import LegendreCurve
from legendre_curves.errors import TransformError
from legendre_curves.exprs import ScalarFun
from legendre_curves.transforms import pushforward_diffeo

TWO_PI = 2 * math.pi


@pytest.fixture(scope="module")
def circle():
    return gallery("circle").curve


def law_matches_frenet(result, samples=500, tol=1e-8):
    curve = result.curve
    ts = np.linspace(curve.domain[0], curve.domain[1], samples)
    pair = curve.curvature_pair()
    assert np.max(np.abs(pair.ell.values(ts) - result.law.ell.values(ts))) <= tol
    assert np.max(np.abs(pair.beta.values(ts) - result.law.beta.values(ts))) <= tol


def test_reparametrize_doubling(circle):
    res = reparametrize(circle, "2*t", (0, math.pi))
    assert (res.law.ell(0.4), res.law.beta(0.4)) == pytest.approx((2.0, 2.0))
    law_matches_frenet(res)
    assert check_legendre(res.curve, samples=500, tol=1e-8).ok
    assert res.curve.closed


def test_reparametrize_identity(circle):
    res = reparametrize(circle, "t", circle.domain)
    assert (res.law.ell(1.0), res.law.beta(1.0)) == pytest.approx((1.0, 1.0))


def test_reparametrize_reversal(circle):
    res = reparametrize(circle, "-t", (-TWO_PI, 0.0))
    assert (res.law.ell(-1.0), res.law.beta(-1.0)) == pytest.approx((-1.0, -1.0))
    law_matches_frenet(res)


def test_reparametrize_rejects_critical_points(circle):
    with pytest.raises(TransformError, match="not a parameter change"):
        reparametrize(circle, "t^2", (-1.0, 1.0))
    with pytest.raises(TransformError, match="domain"):
        reparametrize(circle, "t + 10", (0.0, 1.0))
    # t' cancels to -5.55e-17, the zero function only against the slope
    # (b - a) / (d - c) that maps the new domain onto the curve's
    with pytest.raises(TransformError, match="not a parameter change"):
        reparametrize(circle, "0.3*t - 0.1*3*t", (0.0, 1.0))
    # t = u maps (0, d) onto a sliver of the circle's domain, at most 1e-10
    # of it, also where the slope 2 pi / d overflows
    for d in (1e-300, 1e-310):
        with pytest.raises(TransformError, match="not a parameter change"):
            reparametrize(circle, "t", (0.0, d))


@given(st.integers(-12, 12))
def test_reparametrize_decides_at_every_scale(circle, k):
    # t' = 10^k has no zero whatever its size, and t maps the new domain
    # onto the circle's
    res = reparametrize(circle, f"{10 ** k!r}*t", (0.0, TWO_PI / 10 ** k))
    assert res.curve.closed
    assert signature(res.curve).key() == signature(circle).key()


@pytest.mark.parametrize("c", [-0.999, -0.9, -0.3, 0.0, 0.3, 0.7, 0.999, 1.5, -1.5, 3.0])
def test_fold_is_refused_where_det_j_has_a_zero(circle, c):
    # (x, (y - c)^2) has det J = 2 (sin t - c) on the circle, with a sign
    # change for |c| < 1 that a sample of points can step over
    fold = DiffeoSpec.from_texts("x", f"(y - ({c!r}))^2")
    if abs(c) < 1:
        with pytest.raises(TransformError, match="degenerates along the curve"):
            pushforward_diffeo_curve(circle, fold)
    else:
        assert check_legendre(pushforward_diffeo_curve(circle, fold).curve).ok


def test_pointwise_diffeo_checks_the_whole_domain(circle):
    # det J vanishes at t = asin(0.3) and pi - asin(0.3), not at t = 2
    fold = DiffeoSpec.from_texts("x", "(y - 0.3)^2")
    with pytest.raises(TransformError, match="degenerates along the curve"):
        pushforward_diffeo(circle, fold, 2.0)


def test_affine_diagonal_example(circle):
    res = pushforward_affine(circle, AffineMap(2, 0, 0, 1))
    assert (res.law.ell(0.0), res.law.beta(0.0)) == pytest.approx((2.0, 1.0))
    law_matches_frenet(res)
    assert check_legendre(res.curve, samples=500, tol=1e-8).ok


def test_affine_identity(circle):
    res = pushforward_affine(circle, AffineMap(1, 0, 0, 1))
    ts = np.linspace(0, TWO_PI, 100)
    assert np.allclose(res.law.ell.values(ts), 1.0, atol=1e-12)
    assert np.allclose(res.law.beta.values(ts), 1.0, atol=1e-12)


def test_affine_reflection(circle):
    # det = -1 flips the sign of ell but not beta at t = 0
    res = pushforward_affine(circle, AffineMap(1, 0, 0, -1))
    assert (res.law.ell(0.0), res.law.beta(0.0)) == pytest.approx((-1.0, 1.0))
    law_matches_frenet(res)


def test_affine_requires_invertibility():
    with pytest.raises(TransformError, match="determinant"):
        AffineMap(1, 2, 2, 4)
    with pytest.raises(TransformError, match="finite"):
        AffineMap(1, 0, 0, math.nan)
    with pytest.raises(TransformError, match="numbers"):
        AffineMap.from_string("1,2,3,x")
    for entries in ((1e200, 0, 0, 1e200), (1, 1e200, -1e-200, 1)):
        with pytest.raises(TransformError, match="overflows"):
            AffineMap(*entries)


def test_swap_circle(circle):
    res = pushforward_swap(circle)
    ts = np.linspace(0, TWO_PI, 64)
    assert np.allclose(res.law.ell.values(ts), -1.0, atol=1e-12)
    assert np.allclose(res.law.beta.values(ts), 1.0, atol=1e-12)
    law_matches_frenet(res)
    assert check_legendre(res.curve, samples=256, tol=1e-8).ok


def test_swap_is_involution(circle):
    twice = pushforward_swap(pushforward_swap(circle).curve)
    ts = np.linspace(0, TWO_PI, 64)
    pair = twice.curve.curvature_pair()
    assert np.allclose(pair.ell.values(ts), 1.0, atol=1e-12)
    assert np.allclose(pair.beta.values(ts), 1.0, atol=1e-12)


def test_swap_cusp_curvature():
    res = pushforward_swap(type_nm_curve(2, 3))
    for t in (-0.5, 0.0, 0.7):
        want_ell = -6.0 / (9 * t * t + 4)
        want_beta = -t * math.sqrt(9 * t * t + 4)
        assert res.law.ell(t) == pytest.approx(want_ell)
        assert res.law.beta(t) == pytest.approx(want_beta)
    law_matches_frenet(res)


def test_negate_nu(circle):
    res = negate(circle, "nu")
    assert (res.law.ell(0.2), res.law.beta(0.2)) == pytest.approx((1.0, -1.0))
    law_matches_frenet(res)
    assert check_legendre(res.curve, samples=256, tol=1e-8).ok


def test_negate_twice_restores(circle):
    twice = negate(negate(circle, "nu").curve, "nu")
    assert (twice.law.ell(0.2), twice.law.beta(0.2)) == pytest.approx((1.0, 1.0))


def test_negate_gamma():
    entry = gallery("gamma_n", {"n": 3})
    res = negate(entry.curve, "gamma")
    t = 0.9
    assert res.law.ell(t) == pytest.approx(2.0)
    assert res.law.beta(t) == pytest.approx(-6 * math.sin(t))
    law_matches_frenet(res)


def test_negate_rejects_unknown():
    with pytest.raises(ValueError):
        negate(gallery("circle").curve, "mu")


def test_diffeo_identity(circle):
    ell, beta, nu = pushforward_diffeo(circle, DiffeoSpec.from_texts("x", "y"), 0.7)
    assert ell == pytest.approx(1.0)
    assert beta == pytest.approx(1.0)
    assert (float(nu[0]), float(nu[1])) == pytest.approx(
        (math.cos(0.7), math.sin(0.7)))


def test_diffeo_shear_on_line_matches_parabola_oracle():
    # Phi(x, y) = (x, y + x^2) maps the framed x-axis onto the parabola
    line = LegendreCurve.from_exprs("t", "0*t", nu=("0*t", "1"), domain=(-1, 1))
    shear = DiffeoSpec.from_texts("x", "y + x^2")
    ell0, beta0, nu0 = pushforward_diffeo(line, shear, 0.0)
    assert beta0 == pytest.approx(-1.0)
    assert (float(nu0[0]), float(nu0[1])) == pytest.approx((0.0, 1.0))

    nux, nuy = derive_nu("t", "t^2", (-1, 1))
    parabola = LegendreCurve(ScalarFun.from_text("t"), ScalarFun.from_text("t^2"),
                             nux, nuy, (-1, 1))
    for t in (0.0, 0.3, -0.6):
        ell_t, beta_t, nu_t = pushforward_diffeo(line, shear, t)
        want = parabola.curvature_pair()(t)
        assert ell_t == pytest.approx(want[0], rel=1e-12, abs=1e-12)
        assert beta_t == pytest.approx(want[1], rel=1e-12, abs=1e-12)
        assert nu_t[0] == pytest.approx(-2 * t / math.sqrt(4 * t * t + 1))


def test_diffeo_law_matches_frame_recomputation(circle):
    res = pushforward_diffeo_curve(circle, DiffeoSpec.from_texts(
        "x + 0.05*y^2", "y + 0.05*x^2"))
    assert check_legendre(res.curve, samples=400, tol=1e-8).ok
    ts = np.linspace(0, TWO_PI, 400)
    pair = res.curve.curvature_pair()
    assert np.max(np.abs(pair.ell.values(ts) - res.law.ell.values(ts))) <= 1e-8
    assert np.max(np.abs(pair.beta.values(ts) - res.law.beta.values(ts))) <= 1e-8


def test_diffeo_specializes_to_affine(circle):
    rng = np.random.default_rng(3)
    m = AffineMap(1.3, -0.4, 0.7, 0.9)
    diffeo = DiffeoSpec.from_texts("1.3*x - 0.4*y", "0.7*x + 0.9*y")
    law = pushforward_affine(circle, m).law
    ts = rng.uniform(0, TWO_PI, 100)
    ell_d, beta_d, _ = pushforward_diffeo(circle, diffeo, ts)
    assert np.max(np.abs(law.ell.values(ts) - ell_d)) <= 1e-10
    assert np.max(np.abs(law.beta.values(ts) - beta_d)) <= 1e-10


def test_diffeo_degenerate_jacobian(circle):
    # rank-one maps; the second has det J = -5.55e-17, the zero function
    # only against the products d1phi1 d2phi2 and d1phi2 d2phi1
    for texts in (("x", "x"), ("x + 3*y", "0.1*x + 0.3*y")):
        squash = DiffeoSpec.from_texts(*texts)
        with pytest.raises(TransformError, match="degenerates"):
            pushforward_diffeo(circle, squash, 0.3)
        # the image is refused when it is built, not on its first evaluation
        with pytest.raises(TransformError, match="degenerates along the curve"):
            pushforward_diffeo_curve(circle, squash)


def test_diffeo_image_carries_jets_of_every_order():
    # The image is an expression curve, so the checks that read jets past
    # order 1 run on it: check_closed at its default order 8, the immersion
    # check's derivative brackets, the signature's contact orders.
    curve = gallery("gamma_n", {"n": 3}).curve
    image = pushforward_diffeo_curve(curve, DiffeoSpec.from_texts("x + 0.1*y^2", "y")).curve
    assert isinstance(image, LegendreCurve)
    assert signature(image).key() == signature(curve).key()
    assert is_immersion(image).ok
    assert check_closed(image).closed_to_checked_order
    ts = np.linspace(*image.domain, 5)
    for order in range(13):
        for jet in (image.gamma_jets(ts, order) + image.nu_jets(ts, order)
                    + image.curvature_pair().jets(ts, order)):
            assert type(jet) is np.ndarray and jet.shape == (order + 1, 5)


_LAW_MAPS = (("x + 0.01*y^2", "y"), ("x + 0.02*sin(y)", "y - 0.01*sin(x)"),
             ("x + 0.1*atan(x*y)", "y - 0.05*sqrt(2 + x^2)/(1+y^2)"))


@pytest.mark.parametrize("texts", _LAW_MAPS)
def test_diffeo_law_is_an_expression_with_jets_of_every_order(roster, texts):
    # the law is built from the map's partials along the curve, so it has
    # a signature, and its jets past order 0 are those of the image's frame
    diffeo = DiffeoSpec.from_texts(*texts)
    for entry in roster:
        res = pushforward_diffeo_curve(entry.curve, diffeo)
        assert signature(res.law).key() == signature(res.curve).key(), entry.name
        ts = np.linspace(*entry.curve.domain, 200)
        for law, frame in zip(res.law.jets(ts, 3), res.curve.curvature_pair().jets(ts, 3)):
            for k in range(4):
                scale = max(float(np.max(np.abs(frame[k]))), 1.0)
                assert np.max(np.abs(law[k] - frame[k])) <= 1e-12 * scale, (entry.name, k)


_SMALL = st.floats(-0.02, 0.02, allow_nan=False)


@settings(max_examples=30)
@given(index=st.integers(0, 7), trig=st.booleans(), e1=_SMALL, e2=_SMALL)
def test_diffeo_image_keeps_singular_points(roster, index, trig, e1, e2):
    # beta of the image is |nbar| beta, so each zero of beta keeps its
    # position and its order; inflection points may move
    curve = roster[index].curve
    texts = ((f"x + {e1!r}*sin(y)", f"y + {e2!r}*sin(x)") if trig
             else (f"x + {e1!r}*y^2", f"y + {e2!r}*x^2"))
    image = pushforward_diffeo_curve(curve, DiffeoSpec.from_texts(*texts)).curve

    def singular(sig):
        return [(z.t, z.ord_beta) for z in sig.zeros if z.ord_beta is not None]

    want, got = singular(signature(curve)), singular(signature(image))
    assert [order for _, order in got] == [order for _, order in want]
    assert np.allclose([t for t, _ in got], [t for t, _ in want], rtol=0, atol=1e-6)


def test_transforms_preserve_signature(circle):
    from legendre_curves import signature
    entry = gallery("gamma_n", {"n": 3})
    base = signature(entry.curve).key()
    affine = pushforward_affine(entry.curve, AffineMap(0.8, 0.3, -0.2, 1.1))
    assert signature(affine.curve).key() == base
    reparam = reparametrize(entry.curve, "t + 0.3*sin(t)", entry.curve.domain)
    assert signature(reparam.curve).key() == base


def test_reversing_parameter_change_keeps_increasing_domain(circle):
    res = reparametrize(circle, "-t", (-TWO_PI, 0.0))
    assert res.curve.domain == (-TWO_PI, 0.0)
    assert check_legendre(res.curve, samples=256).ok
    assert res.law(-1.0) == pytest.approx((-1.0, -1.0))


def test_affine_image_runs_one_tape_per_function(roster, tape_runs):
    # an image component is one AST, so its values take one tape run; so
    # does a law component, the base curvature AST times frame-norm ASTs,
    # and so does each component of a diffeomorphism's image and law
    runs = tape_runs.runs
    ts = np.linspace(0.0, TWO_PI, 1000)
    diffeo = DiffeoSpec.from_texts("x + 0.02*sin(y)", "y + 0.01*x^2")
    for entry in roster:
        for res in (pushforward_affine(entry.curve, AffineMap(0.8, 0.3, -0.2, 1.1)),
                    pushforward_diffeo_curve(entry.curve, diffeo)):
            for fun in (res.curve.nu_x, res.law.ell, res.law.beta):
                runs.clear()
                fun.values(ts)
                assert len(runs) == 1, (entry.name, fun)


def test_diffeo_law_runs_every_tape_at_order_0(roster, tape_runs):
    # values of the law take one order-0 run of its tape, which runs the
    # d nodes of the base curvature a row higher inside: no run for a slope
    diffeo = DiffeoSpec.from_texts("x + 0.01*y^2", "y")
    for entry in roster:
        law = pushforward_diffeo_curve(entry.curve, diffeo).law
        tape_runs.clear()
        law.ell.values(np.linspace(*entry.curve.domain, 100))
        orders = [r.order for r in tape_runs.runs]
        assert orders and set(orders) == {0}, (entry.name, orders)


def test_laws_are_built_on_first_read(circle, monkeypatch):
    # Building a law costs AST work that a caller wanting only the image
    # never needs: the two compositions of reparametrize, and for every
    # transform the CurvaturePair of the law.
    from legendre_curves import transforms

    substituted, laws = [], []
    substitute, pair = transforms.substitute_var, transforms.CurvaturePair
    monkeypatch.setattr(transforms, "substitute_var",
                        lambda *a: substituted.append(1) or substitute(*a))
    monkeypatch.setattr(transforms, "CurvaturePair",
                        lambda *a: laws.append(1) or pair(*a))
    result = reparametrize(circle, "t + 0.3*sin(t)", circle.domain)
    assert len(substituted) == 4 and not laws
    law = result.law
    assert len(substituted) == 6 and len(laws) == 1
    assert result.law is law
    for transform in (lambda c: pushforward_affine(c, AffineMap(0.8, 0.3, -0.2, 1.1)),
                      pushforward_swap, lambda c: negate(c, "nu"),
                      lambda c: negate(c, "gamma"),
                      lambda c: pushforward_diffeo_curve(
                          c, DiffeoSpec.from_texts("x + 0.01*y^2", "y"))):
        laws.clear()
        result = transform(circle)
        assert not laws
        assert result.law is result.law and len(laws) == 1
