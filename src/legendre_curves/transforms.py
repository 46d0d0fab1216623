"""Transformation laws for framed curves and their curvature pairs.

Each operation returns the transformed curve together with the curvature
law stated for it, so callers can cross-check the law against a direct
frame computation on the transformed curve:

  - parameter change t(u):            (ell o t) t',  (beta o t) t'
  - affine target map with matrix A:  det(A) ell / |nbar|^2,  |nbar| beta
  - coordinate swap (x, y) -> (y, x): -ell, beta
  - general target diffeomorphism:    (det(J) ell - (Q1 nbar_x + Q2 nbar_y) beta)
                                      / |nbar|^2,  |nbar| beta
  - sign flips of nu or gamma:        ell, -beta

Every image is an expression curve, a diffeomorphism's too: its
components are the map composed with gamma, and its frame spells out the
map's partials with ``ast_derivative``.  Every law is an expression (J,
the Jacobian of Phi; Qk, the Hessian of phik on (nu_y, -nu_x)).
The law is built on the first read of ``TransformResult.law``, since a
caller that wants only the image never reads it.  Every check on the
transformation itself runs before the result is returned.  Jets are float
arrays of shape ``(order + 1,) + np.shape(t)``, as the tape returns them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .curves import CurvaturePair, LegendreCurve, _check_domain
from .errors import TransformError
from .exprs import ExprAst, Number, ScalarFun, ast_derivative, parse_expr, substitute_var


@dataclass(frozen=True)
class AffineMap:
    a11: float
    a12: float
    a21: float
    a22: float

    def __post_init__(self):
        entries = (self.a11, self.a12, self.a21, self.a22)
        if not all(map(math.isfinite, entries)):
            raise TransformError("affine map entries must be finite numbers")
        if not (math.isfinite(self.det) and math.isfinite(sum(a * a for a in entries))):
            raise TransformError("affine map overflows: its determinant or squared "
                                 "entries are not finite")
        if self.det == 0.0:
            raise TransformError("affine map must have nonzero determinant")

    @property
    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a21

    @classmethod
    def from_string(cls, text: str) -> "AffineMap":
        try:
            parts = [float(p) for p in text.split(",")]
        except ValueError:
            raise TransformError(f"affine map entries must be numbers, got {text!r}") from None
        if len(parts) != 4:
            raise TransformError("affine map needs four comma-separated entries")
        return cls(*parts)


@dataclass
class DiffeoSpec:
    """A target diffeomorphism (phi1(x, y), phi2(x, y)) as two-variable ASTs."""

    phi1: ExprAst
    phi2: ExprAst

    @classmethod
    def from_texts(cls, phi1: str, phi2: str) -> "DiffeoSpec":
        return cls(parse_expr(phi1, "two-var"), parse_expr(phi2, "two-var"))


@dataclass
class TransformResult:
    """The transformed curve, and the curvature law that ``make_law``
    builds on the first read of ``law``."""

    curve: LegendreCurve
    make_law: Callable[[], CurvaturePair]

    @cached_property
    def law(self) -> CurvaturePair:
        return self.make_law()


# -- parameter change ---------------------------------------------------------


def reparametrize(curve: LegendreCurve, t_of_u, new_domain) -> TransformResult:
    """Compose the curve with a parameter change t(u).

    ``t'`` must have no zero on the new domain, as the signature's zero
    search decides (``signatures._common_zeros``), and must not be the
    zero function against (b - a) / (d - c), the slope that maps the new
    domain [c, d] onto the curve's [a, b].  So t is monotone and maps the
    new domain onto the interval between t(c) and t(d), which must lie in
    the curve's domain.  The returned law is ((ell o t) t', (beta o t) t').
    """
    from .signatures import _common_zeros  # deferred: affine maps need not load it
    c, d = _check_domain(new_domain)
    tfun = ScalarFun.wrap(t_of_u)
    tprime = ScalarFun.from_ast(ast_derivative(tfun.ast))
    a, b = curve.domain
    slope = Number(min((b - a) / (d - c), np.finfo(float).max))  # d - c may be subnormal
    if not _common_zeros((tprime.ast, slope), (c, d), refs=1).ok:
        raise TransformError("not a parameter change")
    jc, jd = tfun.jet(np.array([c, d]), 6).T.tolist()
    pad = 1e-9 * (1.0 + abs(b - a))
    if min(jc[0], jd[0]) < a - pad or max(jc[0], jd[0]) > b + pad:
        raise TransformError("parameter change leaves the curve's domain")

    def compose(f: ScalarFun) -> ScalarFun:
        return ScalarFun.from_ast(substitute_var(f.ast, "t", tfun.ast))

    new_curve = LegendreCurve(*map(compose, (curve.x, curve.y, curve.nu_x, curve.nu_y)),
                              (c, d), _composition_closed(curve, jc, jd))
    return TransformResult(new_curve, lambda: CurvaturePair(
        compose(curve.ell()) * tprime, compose(curve.beta()) * tprime,
        (c, d), new_curve.closed))


def _composition_closed(curve: LegendreCurve, jc: list, jd: list) -> bool:
    """Does gamma o t close up smoothly at the new endpoints?

    True when the curve is closed and ``jc`` and ``jd``, the order-6 jets
    of t at the new endpoints, agree up to the period identification
    t(d) - t(c) in {0, +/-(b - a)}.
    """
    if not curve.closed:
        return False
    a, b = curve.domain
    gap = abs(jc[0] - jd[0])
    period = abs(b - a)
    if min(gap, abs(gap - period)) > 1e-9 * (1.0 + period):
        return False
    for ck, dk in zip(jc[1:], jd[1:]):
        if abs(ck - dk) > 1e-9 * (1.0 + max(abs(ck), abs(dk))):
            return False
    return True


# -- affine maps and the swap --------------------------------------------------


def pushforward_affine(curve: LegendreCurve, m: AffineMap) -> TransformResult:
    """Image curve under (x, y) -> (a11 x + a12 y, a21 x + a22 y).

    The frame is nbar/|nbar| with nbar = (a22 a - a21 b, -a12 a + a11 b),
    and the curvature law is (det(A) ell / |nbar|^2, |nbar| beta).
    """
    gx = m.a11 * curve.x + m.a12 * curve.y
    gy = m.a21 * curve.x + m.a22 * curve.y
    nbx = m.a22 * curve.nu_x - m.a21 * curve.nu_y
    nby = -m.a12 * curve.nu_x + m.a11 * curve.nu_y
    norm = (nbx * nbx + nby * nby).sqrt()
    new_curve = LegendreCurve(gx, gy, nbx / norm, nby / norm,
                              curve.domain, curve.closed)
    return TransformResult(new_curve, lambda: CurvaturePair(
        m.det * curve.ell() / (norm * norm), norm * curve.beta(),
        curve.domain, curve.closed))


def pushforward_swap(curve: LegendreCurve) -> TransformResult:
    """Image under (x, y) -> (y, x); frame (-b, -a), curvature (-ell, beta)."""
    new_curve = LegendreCurve(curve.y, curve.x, -curve.nu_y, -curve.nu_x,
                              curve.domain, curve.closed)
    return TransformResult(new_curve, lambda: CurvaturePair(
        -curve.ell(), curve.beta(), curve.domain, curve.closed))


def negate(curve: LegendreCurve, which: str) -> TransformResult:
    """Flip the sign of the frame or of the curve; either way (ell, -beta)."""
    if which == "nu":
        new_curve = LegendreCurve(curve.x, curve.y, -curve.nu_x, -curve.nu_y,
                                  curve.domain, curve.closed)
    elif which == "gamma":
        new_curve = LegendreCurve(-curve.x, -curve.y, curve.nu_x, curve.nu_y,
                                  curve.domain, curve.closed)
    else:
        raise ValueError("which must be 'nu' or 'gamma'")
    return TransformResult(new_curve, lambda: CurvaturePair(
        curve.ell(), -curve.beta(), curve.domain, curve.closed))


# -- general target diffeomorphisms ---------------------------------------------


def pushforward_diffeo(curve: LegendreCurve, diffeo: DiffeoSpec, t):
    """Curvature and frame of the image curve under Phi at parameter t.

    Builds the image with :func:`pushforward_diffeo_curve`, which refuses
    a map whose Jacobian determinant has a zero anywhere along the curve,
    and evaluates its law and frame at ``t``, a scalar or an ndarray.
    Returns (ell, beta, (nu_x, nu_y)).
    """
    result = pushforward_diffeo_curve(curve, diffeo)
    ell, beta = result.law.jets(t, 0)
    nx, ny = result.curve.nu_jets(t, 0)
    return ell[0], beta[0], (nx[0], ny[0])


class DiffeoCurve(LegendreCurve):
    """Image of a framed curve under a target diffeomorphism, built by
    :func:`pushforward_diffeo_curve` as an ordinary expression curve.

    The class adds no behaviour.  It gives the image a class of its own,
    with its own bindings of the four methods below, which
    ``bench/tracer.py`` wraps from the class ``__dict__``.
    """

    gamma_jets = LegendreCurve.gamma_jets
    nu_jets = LegendreCurve.nu_jets
    ell = LegendreCurve.ell
    beta = LegendreCurve.beta


def pushforward_diffeo_curve(curve: LegendreCurve, diffeo: DiffeoSpec) -> TransformResult:
    """Image curve plus the curvature law of the transformation formula.

    The image is (phi1 o gamma, phi2 o gamma) with the frame nbar/|nbar|,
    nbar = (d2phi2 nu_x - d1phi2 nu_y, -d2phi1 nu_x + d1phi1 nu_y) along
    the curve (dk: the partial in the k-th variable), all expressions, so
    it carries jets of every order.  A map whose Jacobian determinant
    det J o gamma has a zero on the curve's domain, as the signature's
    zero search decides (``signatures._common_zeros``), or is the zero
    function against its products d1phi1 d2phi2 and d1phi2 d2phi1 (a
    rank-one map), is refused here, since a printed image is never
    evaluated.  The law spells out Phi's first and second partials along
    the curve in the same way.
    """
    from .signatures import _common_zeros  # deferred: affine maps need not load it

    def along(phi: ExprAst) -> ScalarFun:  # phi o gamma
        return ScalarFun.from_ast(substitute_var(
            substitute_var(phi, "x", curve.x.ast), "y", curve.y.ast))

    partials = [[ast_derivative(phi, var) for var in ("x", "y")]
                for phi in (diffeo.phi1, diffeo.phi2)]
    (d1phi1, d2phi1), (d1phi2, d2phi2) = ([along(d) for d in row] for row in partials)
    p, q = d1phi1 * d2phi2, d1phi2 * d2phi1  # det J cancelling to noise is zero against p, q
    jac = p - q
    if not _common_zeros((jac.ast, p.ast, q.ast), curve.domain, refs=2).ok:
        raise TransformError("diffeomorphism degenerates along the curve")
    a, b = curve.nu_x, curve.nu_y
    nbx = d2phi2 * a - d1phi2 * b
    nby = -d2phi1 * a + d1phi1 * b
    r2 = nbx * nbx + nby * nby
    norm = r2.sqrt()
    image = DiffeoCurve(along(diffeo.phi1), along(diffeo.phi2), nbx / norm, nby / norm,
                        curve.domain, curve.closed)

    def law() -> CurvaturePair:
        def quad(d1phi, d2phi):  # d11phi b^2 - 2 d12phi a b + d22phi a^2
            d11, d12, d22 = (along(ast_derivative(d, var)) for d, var in
                             ((d1phi, "x"), (d1phi, "y"), (d2phi, "y")))
            return d11 * b * b - 2.0 * d12 * a * b + d22 * a * a

        bend = quad(*partials[0]) * nbx + quad(*partials[1]) * nby
        return CurvaturePair((jac * curve.ell() - bend * curve.beta()) / r2,
                             norm * curve.beta(), curve.domain, curve.closed)

    return TransformResult(image, law)
