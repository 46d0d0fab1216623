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

from .curves import CurvaturePair, LegendreCurve
from .errors import TransformError
from .exprs import (ExprAst, ScalarFun, ast_derivative, eval_jet_many, parse_expr,
                    substitute_var)
from .signatures import refined_min_abs


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

    ``t`` must have nowhere-zero derivative on the new domain and map it
    into the curve's domain.  The returned law is ((ell o t) t',
    (beta o t) t').
    """
    tfun = ScalarFun.wrap(t_of_u)
    tprime = ScalarFun.from_ast(ast_derivative(tfun.ast))
    c, d = float(new_domain[0]), float(new_domain[1])
    if refined_min_abs(tprime, (c, d)) <= 1e-12:
        raise TransformError("not a parameter change")
    us = np.linspace(c, d, 1025)
    tv = tfun.values(us)
    a, b = curve.domain
    pad = 1e-9 * (1.0 + abs(b - a))
    if float(np.min(tv)) < a - pad or float(np.max(tv)) > b + pad:
        raise TransformError("parameter change leaves the curve's domain")

    def compose(f: ScalarFun) -> ScalarFun:
        return ScalarFun.from_ast(substitute_var(f.ast, "t", tfun.ast))

    new_curve = LegendreCurve(*map(compose, (curve.x, curve.y, curve.nu_x, curve.nu_y)),
                              (c, d), _composition_closed(curve, tfun, (c, d)))
    return TransformResult(new_curve, lambda: CurvaturePair(
        compose(curve.ell()) * tprime, compose(curve.beta()) * tprime,
        (c, d), new_curve.closed))


def _composition_closed(curve: LegendreCurve, tfun: ScalarFun,
                        new_domain: tuple[float, float]) -> bool:
    """Does gamma o t close up smoothly at the new endpoints?

    True when the curve is closed and the order-6 endpoint jets of t agree
    up to the period identification t(d) - t(c) in {0, +/-(b - a)}.
    """
    if not curve.closed:
        return False
    a, b = curve.domain
    jc, jd = tfun.jet(np.array(new_domain), 6).T.tolist()
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

    Evaluates the law and the frame of :func:`pushforward_diffeo_curve`
    at ``t``, a scalar or an ndarray, and refuses a map whose Jacobian
    degenerates at one of those points.  Returns (ell, beta, (nu_x, nu_y)).
    """
    result = _pushforward_diffeo(curve, diffeo, t)
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
    it carries jets of every order.  A map whose Jacobian degenerates at
    one of 1025 points of the curve is refused here, since a printed
    image is never evaluated.  The law spells out Phi's first and second
    partials along the curve in the same way.
    """
    return _pushforward_diffeo(curve, diffeo, np.linspace(*curve.domain, 1025))


def _pushforward_diffeo(curve: LegendreCurve, diffeo: DiffeoSpec, ts) -> TransformResult:
    """The image and law of :func:`pushforward_diffeo_curve`, refusing a
    map whose Jacobian degenerates at one of the parameters ``ts``."""

    def along(phi: ExprAst) -> ScalarFun:  # phi o gamma
        return ScalarFun.from_ast(substitute_var(
            substitute_var(phi, "x", curve.x.ast), "y", curve.y.ast))

    partials = [[ast_derivative(phi, var) for var in ("x", "y")]
                for phi in (diffeo.phi1, diffeo.phi2)]
    (d1phi1, d2phi1), (d1phi2, d2phi2) = ([along(d) for d in row] for row in partials)
    # the Jacobian must not vanish relative to its entries at any of ts
    j11, j12, j21, j22 = (jet[0] for jet in eval_jet_many(
        [f.ast for f in (d1phi1, d2phi1, d1phi2, d2phi2)], ts, 0))
    size = (np.abs(j11) + np.abs(j12)) * (np.abs(j21) + np.abs(j22))
    if np.any(np.abs(j11 * j22 - j21 * j12) <= 1e-12 * np.maximum(size, 1.0)):
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

        jac = d1phi1 * d2phi2 - d1phi2 * d2phi1
        bend = quad(*partials[0]) * nbx + quad(*partials[1]) * nby
        return CurvaturePair((jac * curve.ell() - bend * curve.beta()) / r2,
                             norm * curve.beta(), curve.domain, curve.closed)

    return TransformResult(image, law)
