"""Transformation laws for framed curves and their curvature pairs.

Each operation returns the transformed curve together with the curvature
law stated for it, so callers can cross-check the law against a direct
frame computation on the transformed curve:

  - parameter change t(u):            (ell o t) t',  (beta o t) t'
  - affine target map with matrix A:  det(A) ell / |nbar|^2,  |nbar| beta
  - coordinate swap (x, y) -> (y, x): -ell, beta
  - general target diffeomorphism:    second-order formula via BiJet2
  - sign flips of nu or gamma:        ell, -beta

The law is built on the first read of ``TransformResult.law``, since a
caller that wants only the image never reads it.  Every check on the
transformation itself runs before the result is returned.  Jets are float
arrays of shape ``(order + 1,) + np.shape(t)``, as the tape returns them;
a diffeomorphism image and its law build theirs row by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .curves import CurvaturePair, LegendreCurve
from .errors import TransformError
from .exprs import (ExprAst, ScalarFun, ast_derivative, eval_bijet, parse_expr,
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

    curve: object  # LegendreCurve or DiffeoCurve
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
                        new_domain: tuple[float, float], order: int = 6) -> bool:
    """Does gamma o t close up smoothly at the new endpoints?

    True when the curve is closed and the endpoint jets of t agree up to the
    period identification t(d) - t(c) in {0, +/-(b - a)}.
    """
    if not curve.closed:
        return False
    a, b = curve.domain
    jc, jd = tfun.jet(np.array(new_domain), order).T.tolist()
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

    Evaluates the second-order transformation formula pointwise using the
    value/gradient/Hessian of (phi1, phi2) along the curve.  ``t`` may be a
    scalar or an ndarray.  Returns (ell, beta, (nu_x, nu_y)).
    """
    gx, gy = curve.gamma_jets(t, 1)
    nxj, nyj = curve.nu_jets(t, 0)
    x, y = gx[0], gy[0]
    a, b = nxj[0], nyj[0]
    ell, beta = (j[0] for j in curve.curvature_pair().jets(t, 0))

    p1 = eval_bijet(diffeo.phi1, x, y)
    p2 = eval_bijet(diffeo.phi2, x, y)
    _require_local_diffeo(p1, p2)
    nbx = p2.dy * a - p2.dx * b
    nby = -p1.dy * a + p1.dx * b
    r2 = nbx * nbx + nby * nby
    if np.any(np.asarray(r2) <= 1e-24):
        raise TransformError("diffeomorphism degenerates along the curve")
    r = np.sqrt(r2)
    quad2 = p2.dxx * b * b - 2.0 * p2.dxy * a * b + p2.dyy * a * a
    quad1 = p1.dxx * b * b - 2.0 * p1.dxy * a * b + p1.dyy * a * a
    jac = p1.dx * p2.dy - p2.dx * p1.dy
    ell_t = (
        (quad2 * (-p1.dx * b + p1.dy * a) - quad1 * (-p2.dx * b + p2.dy * a)) * beta
        + jac * ell
    ) / r2
    beta_t = r * beta
    return ell_t, beta_t, (nbx / r, nby / r)


def _require_local_diffeo(p1, p2) -> None:
    """The Jacobian must not vanish at any evaluated curve point."""
    jac = p1.dx * p2.dy - p2.dx * p1.dy
    size = ((np.abs(p1.dx) + np.abs(p1.dy)) * (np.abs(p2.dx) + np.abs(p2.dy)))
    if np.any(np.abs(np.asarray(jac)) <= 1e-12 * np.maximum(np.asarray(size), 1.0)):
        raise TransformError("diffeomorphism degenerates along the curve")


class DiffeoCurve:
    """Image of a framed curve under a target diffeomorphism.

    The frame involves |nbar|, which is not expressible in the DSL, so this
    curve is jet-limited: it supplies values and first derivatives (enough
    for the tangency check and the curvature pair) but no higher orders.
    """

    def __init__(self, base: LegendreCurve, diffeo: DiffeoSpec):
        self.base = base
        self.diffeo = diffeo
        self.domain = base.domain
        self.closed = base.closed

    def _chain(self, t):
        gx, gy = self.base.gamma_jets(t, 1)
        nx, ny = self.base.nu_jets(t, 1)
        x, y = gx[0], gy[0]
        dx, dy = gx[1], gy[1]
        a, b = nx[0], ny[0]
        da, db = nx[1], ny[1]
        p1 = eval_bijet(self.diffeo.phi1, x, y)
        p2 = eval_bijet(self.diffeo.phi2, x, y)
        _require_local_diffeo(p1, p2)
        return p1, p2, dx, dy, a, b, da, db

    def gamma_jets(self, t, order: int):
        if order > 1:
            raise TransformError("diffeomorphism images carry first-order jets only")
        p1, p2, dx, dy, *_ = self._chain(t)
        jx = np.stack([p1.value, p1.dx * dx + p1.dy * dy][: order + 1])
        jy = np.stack([p2.value, p2.dx * dx + p2.dy * dy][: order + 1])
        return jx, jy

    def nu_jets(self, t, order: int):
        if order > 1:
            raise TransformError("diffeomorphism images carry first-order jets only")
        p1, p2, dx, dy, a, b, da, db = self._chain(t)
        nbx = p2.dy * a - p2.dx * b
        nby = -p1.dy * a + p1.dx * b
        # d/dt of the partials along the curve, then the product rule
        d_p2y = p2.dxy * dx + p2.dyy * dy
        d_p2x = p2.dxx * dx + p2.dxy * dy
        d_p1y = p1.dxy * dx + p1.dyy * dy
        d_p1x = p1.dxx * dx + p1.dxy * dy
        dnbx = d_p2y * a + p2.dy * da - d_p2x * b - p2.dx * db
        dnby = -d_p1y * a - p1.dy * da + d_p1x * b + p1.dx * db
        r2 = nbx * nbx + nby * nby
        if np.any(np.asarray(r2) <= 1e-24):
            raise TransformError("diffeomorphism degenerates along the curve")
        r = np.sqrt(r2)
        dr = (nbx * dnbx + nby * dnby) / r
        jx = np.stack([nbx / r, dnbx / r - nbx * dr / r2][: order + 1])
        jy = np.stack([nby / r, dnby / r - nby * dr / r2][: order + 1])
        return jx, jy

    def gamma(self, ts):
        jx, jy = self.gamma_jets(np.asarray(ts, dtype=float), 0)
        return np.stack([jx[0], jy[0]], axis=-1)

    def nu(self, ts):
        jx, jy = self.nu_jets(np.asarray(ts, dtype=float), 0)
        return np.stack([jx[0], jy[0]], axis=-1)

    def ell(self) -> ScalarFun:
        def jet_fn(t0, order):
            if order > 0:
                raise TransformError("diffeomorphism images carry first-order jets only")
            nx, ny = self.nu_jets(t0, 1)
            return np.stack([ny[1] * nx[0] - nx[1] * ny[0]])

        return ScalarFun(jet_fn, name="ell")

    def beta(self) -> ScalarFun:
        def jet_fn(t0, order):
            if order > 0:
                raise TransformError("diffeomorphism images carry first-order jets only")
            gx, gy = self.gamma_jets(t0, 1)
            nx, ny = self.nu_jets(t0, 0)
            return np.stack([gy[1] * nx[0] - gx[1] * ny[0]])

        return ScalarFun(jet_fn, name="beta")

    def curvature_pair(self) -> CurvaturePair:
        return CurvaturePair(self.ell(), self.beta(), self.domain, self.closed)


def pushforward_diffeo_curve(curve: LegendreCurve, diffeo: DiffeoSpec) -> TransformResult:
    """Image curve plus the curvature law of the transformation formula."""
    image = DiffeoCurve(curve, diffeo)

    def law_component(index: int) -> ScalarFun:
        def jet_fn(t0, order):
            if order > 0:
                raise TransformError("diffeomorphism images carry first-order jets only")
            return np.stack([pushforward_diffeo(curve, diffeo, t0)[index]])

        return ScalarFun(jet_fn)

    return TransformResult(image, lambda: CurvaturePair(
        law_component(0), law_component(1), curve.domain, curve.closed))
