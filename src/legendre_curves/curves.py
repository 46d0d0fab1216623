"""Plane curves with a unit normal frame and their curvature pair.

A frame pair ``(gamma, nu)`` consists of a parametrized plane curve and a
unit vector field along it with ``gamma'(t) . nu(t) = 0`` everywhere.  The
moving frame is completed by ``mu = J(nu)``, the quarter rotation of ``nu``,
and the curvature pair is

    ell(t)  = nu'(t) . mu(t)
    beta(t) = gamma'(t) . mu(t)

``beta`` vanishes exactly at the singular points of ``gamma``; ``ell``
vanishes at inflection points.  The pair determines the curve up to a
rotation and a translation, which is what the reconstruction and signature
modules build on.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import CurveError, LegendreError
from .exprs import ScalarFun, ast_derivative, eval_jet_many, pretty_print
from .jets import TaylorJet, derivative, mul, sub

TWO_PI = 2.0 * math.pi


def moving_frame(nu_value):
    """Quarter anticlockwise rotation: mu = J(nu) = (-nu_2, nu_1)."""
    return (-nu_value[1], nu_value[0])


def _along_mu(vx, vy, nx, ny):
    """Coefficients of v' . mu with mu = J(nu) = (-nu_y, nu_x).

    ``vx, vy`` are coefficient arrays of v one order above those of nu;
    v = nu gives ell, v = gamma gives beta.
    """
    return sub(mul(derivative(vy), nx), mul(derivative(vx), ny))


def _check_domain(domain) -> tuple[float, float]:
    a, b = (float(v) for v in domain)
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise CurveError(f"domain must be a finite interval [a, b] with a < b, "
                         f"got [{a!r}, {b!r}]")
    return a, b


@dataclass
class LegendreCurve:
    """Curve plus unit frame, each component an expression-backed function."""

    x: ScalarFun
    y: ScalarFun
    nu_x: ScalarFun
    nu_y: ScalarFun
    domain: tuple[float, float]
    closed: bool = False

    def __post_init__(self):
        if any(f.ast is None for f in (self.x, self.y, self.nu_x, self.nu_y)):
            raise CurveError("curve components must be expressions")
        self.domain = _check_domain(self.domain)

    @classmethod
    def from_exprs(cls, x: str, y: str, nu: Optional[tuple[str, str]] = None,
                   domain: tuple[float, float] = (0.0, TWO_PI),
                   closed: bool = False,
                   params: Optional[dict[str, float]] = None) -> "LegendreCurve":
        """Build a curve from expression text, deriving the frame if omitted.

        Omitting ``nu`` is only valid for regular curves; a curve with a
        singular point must supply its frame explicitly.
        """
        domain = _check_domain(domain)
        xf = ScalarFun.from_text(x, params)
        yf = ScalarFun.from_text(y, params)
        if nu is not None:
            nxf = ScalarFun.from_text(nu[0], params)
            nyf = ScalarFun.from_text(nu[1], params)
        else:
            nxf, nyf = derive_nu(xf, yf, domain)
        curve = cls(xf, yf, nxf, nyf, domain, bool(closed))
        if curve.closed:
            rep = check_closed(curve, max_order=1, tol=1e-9)
            if rep.closed_order < 1:
                raise CurveError("curve is flagged closed but is not C^1-closed "
                                 "at the endpoints")
        return curve

    # -- evaluation -----------------------------------------------------

    def gamma_jets(self, t0, order: int) -> tuple[TaylorJet, TaylorJet]:
        jx, jy = eval_jet_many([self.x.ast, self.y.ast], t0, order)
        return jx, jy

    def nu_jets(self, t0, order: int) -> tuple[TaylorJet, TaylorJet]:
        jx, jy = eval_jet_many([self.nu_x.ast, self.nu_y.ast], t0, order)
        return jx, jy

    def gamma(self, ts) -> np.ndarray:
        """Curve points, shape (..., 2)."""
        ts = np.asarray(ts, dtype=float)
        return np.stack([self.x.values(ts), self.y.values(ts)], axis=-1)

    def nu(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        return np.stack([self.nu_x.values(ts), self.nu_y.values(ts)], axis=-1)

    # -- curvature ------------------------------------------------------

    def ell(self) -> ScalarFun:
        def jet_fn(t0, order):
            nx, ny = self.nu_jets(t0, order + 1)
            return TaylorJet(_along_mu(nx.array, ny.array, nx.array[:-1], ny.array[:-1]))

        return ScalarFun(jet_fn, name="ell")

    def beta(self) -> ScalarFun:
        def jet_fn(t0, order):
            gx, gy = self.gamma_jets(t0, order + 1)
            nx, ny = self.nu_jets(t0, order)
            return TaylorJet(_along_mu(gx.array, gy.array, nx.array, ny.array))

        return ScalarFun(jet_fn, name="beta")

    def curvature_jets(self, t0, order: int) -> tuple[TaylorJet, TaylorJet]:
        """Jets of (ell, beta) at t0 from one jet pass over (x, y, nu).

        The four components are evaluated together at ``order + 1``, so
        their shared subtrees are computed once and nu serves both parts.
        """
        asts = [f.ast for f in (self.x, self.y, self.nu_x, self.nu_y)]
        gx, gy, nx, ny = (j.array for j in eval_jet_many(asts, t0, order + 1))
        nx0, ny0 = nx[:-1], ny[:-1]
        return (TaylorJet(_along_mu(nx, ny, nx0, ny0)),
                TaylorJet(_along_mu(gx, gy, nx0, ny0)))

    def curvature_pair(self) -> "CurvaturePair":
        return CurvaturePair(self.ell(), self.beta(), self.domain, self.closed)

    def spec_dict(self) -> dict:
        """Curve spec file content (JSON syntax)."""
        return {
            "x": pretty_print(self.x.ast),
            "y": pretty_print(self.y.ast),
            "nu": [pretty_print(self.nu_x.ast), pretty_print(self.nu_y.ast)],
            "domain": [self.domain[0], self.domain[1]],
            "closed": self.closed,
        }


@dataclass
class CurvaturePair:
    """The evaluable pair (ell, beta), from a curve or from raw expressions."""

    ell: ScalarFun
    beta: ScalarFun
    domain: tuple[float, float]
    closed: bool = False

    def __post_init__(self):
        self.domain = _check_domain(self.domain)

    @classmethod
    def from_exprs(cls, ell: str, beta: str, domain: tuple[float, float],
                   closed: bool = False,
                   params: Optional[dict[str, float]] = None) -> "CurvaturePair":
        return cls(ScalarFun.from_text(ell, params), ScalarFun.from_text(beta, params),
                   domain, bool(closed))

    def __call__(self, t: float) -> tuple[float, float]:
        return self.ell(t), self.beta(t)


# -- checks -----------------------------------------------------------------


@dataclass(frozen=True)
class LegendreReport:
    ok: bool
    max_defect: float
    max_norm_defect: float


def check_legendre(curve, samples: int = 2048, tol: float = 1e-9) -> LegendreReport:
    """Verify gamma' . nu = 0 and |nu| = 1 on a uniform grid."""
    if samples < 2:
        raise ValueError("samples must be at least 2")
    a, b = curve.domain
    ts = np.linspace(a, b, samples)
    try:
        gx, gy = curve.gamma_jets(ts, 1)
        nx, ny = curve.nu_jets(ts, 0)
    except LegendreError as err:
        t_bad = _locate_failure(curve, ts)
        raise CurveError(f"expression evaluation failed at t={t_bad!r}: {err}") from err
    dgx = np.broadcast_to(np.asarray(gx.coeffs[1], dtype=float), ts.shape)
    dgy = np.broadcast_to(np.asarray(gy.coeffs[1], dtype=float), ts.shape)
    nxv = np.broadcast_to(np.asarray(nx.coeffs[0], dtype=float), ts.shape)
    nyv = np.broadcast_to(np.asarray(ny.coeffs[0], dtype=float), ts.shape)
    tangency = np.abs(dgx * nxv + dgy * nyv)
    norm_defect = np.abs(np.hypot(nxv, nyv) - 1.0)
    max_defect = float(np.max(tangency))
    max_norm = float(np.max(norm_defect))
    return LegendreReport(ok=(max_defect <= tol and max_norm <= tol),
                          max_defect=max_defect, max_norm_defect=max_norm)


def _locate_failure(curve, ts):
    for t in ts:
        try:
            curve.gamma_jets(float(t), 1)
            curve.nu_jets(float(t), 0)
        except LegendreError:
            return float(t)
    return None


def derive_nu(x, y, domain: tuple[float, float],
              grid_n: int = 2048, tol: float = 1e-9) -> tuple[ScalarFun, ScalarFun]:
    """Frame of a regular curve: nu = J(gamma') / |gamma'|, so beta = -|gamma'|.

    The frame is an expression, (-y', x') / sqrt(x'^2 + y'^2) with the
    derivatives spelled out by ``ast_derivative``.  The squared speed
    under the root is swept on a grid and its interior minima are
    polished, so a singular point between grid nodes is still caught; a
    singular curve must supply its frame as data.
    """
    dx, dy = (ScalarFun.from_ast(ast_derivative(ScalarFun.wrap(f).ast)) for f in (x, y))
    speed2 = dx * dx + dy * dy
    from .signatures import _refined_min_sq  # deferred: avoids a module cycle
    if _refined_min_sq(speed2, domain, grid_n) <= tol * tol:
        raise CurveError("curve has a singular point; supply ν explicitly")
    speed = speed2.sqrt()
    return -dy / speed, dx / speed


@dataclass(frozen=True)
class ImmersionReport:
    ok: bool
    witnesses: tuple[float, ...]
    min_combined: float


def is_immersion(curve, samples: int = 2048) -> ImmersionReport:
    """Check (ell, beta) != (0, 0) everywhere; witnesses are common zeros.

    Both components come from one order-0 ``curvature_jets`` scan on a
    grid of ``samples`` steps and their zeros from one joint search.
    """
    from .signatures import _grid_values, _source, _zeros  # avoids a module cycle

    evaluate = _source(curve.curvature_jets)
    a, b = curve.domain
    ts = np.linspace(a, b, samples + 1)
    ev, bv = values = _grid_values(evaluate, ts)
    min_combined = float(np.min(np.maximum(np.abs(ev), np.abs(bv))))
    scale_e = float(np.max(np.abs(ev)))
    scale_b = float(np.max(np.abs(bv)))

    if scale_e <= 1e-10 * max(scale_b, 1e-300) and scale_b <= 1e-10 * max(scale_e, 1e-300):
        # both identically zero on the grid: every point degenerate
        return ImmersionReport(False, tuple(float(t) for t in ts[:: max(1, samples // 8)]),
                               min_combined)
    # Where one component vanishes on the grid the zeros of the other are
    # witnesses; otherwise the witnesses are the common zeros.
    comps = [c for c, (s, other) in enumerate(((scale_e, scale_b), (scale_b, scale_e)))
             if s > 1e-10 * other]
    ell_zeros, beta_zeros = _zeros(evaluate, ts, values, comps, 1e-9, False)
    if len(comps) == 2:
        witnesses = [r for r in ell_zeros if any(abs(r - s) <= 1e-8 for s in beta_zeros)]
    else:
        witnesses = ell_zeros + beta_zeros
    witnesses = sorted(set(witnesses))
    return ImmersionReport(ok=(not witnesses), witnesses=tuple(witnesses),
                           min_combined=min_combined)


@dataclass(frozen=True)
class ClosedReport:
    closed_order: int           # -1 when not even C^0-closed
    checked_order: int
    closed_to_checked_order: bool

    def describe(self) -> str:
        if self.closed_order < 0:
            return "not C0-closed"
        if self.closed_to_checked_order:
            return f"closed to checked order (C^{self.checked_order})"
        return f"C^{self.closed_order}-closed but not C^{self.closed_order + 1}"


def check_closed(curve, max_order: int = 8, tol: float = 1e-8) -> ClosedReport:
    """Compare one-sided derivatives of (gamma, nu) at the two endpoints.

    Each order is compared with a mixed absolute/relative tolerance, since
    high-order derivatives of oscillatory components grow like n^k and an
    absolute comparison would drown in float rounding.
    """
    a, b = curve.domain
    ja = list(curve.gamma_jets(a, max_order)) + list(curve.nu_jets(a, max_order))
    jb = list(curve.gamma_jets(b, max_order)) + list(curve.nu_jets(b, max_order))
    closed_order = -1
    for k in range(max_order + 1):
        ok = True
        for ca, cb in zip(ja, jb):
            da = float(ca.derivative_value(k))
            db = float(cb.derivative_value(k))
            if abs(da - db) > tol * (1.0 + max(abs(da), abs(db))):
                ok = False
                break
        if not ok:
            break
        closed_order = k
    return ClosedReport(closed_order, max_order, closed_order == max_order)


# -- curve spec files --------------------------------------------------------


def load_curve(source) -> LegendreCurve:
    """Load a curve spec: a dict, JSON text, or a path to a JSON file.

    Format: {"x": str, "y": str, "nu": [str, str] (optional),
             "domain": [a, b], "closed": bool, "params": {name: number}}

    An unreadable file, malformed JSON, fields of the wrong type or length,
    non-finite numbers, a domain with a >= b and invalid parameter names
    raise CurveError.
    """
    try:
        if isinstance(source, (str, Path)) and not str(source).lstrip().startswith("{"):
            data = json.loads(Path(source).read_text())
        elif isinstance(source, str):
            data = json.loads(source)
        else:
            data = dict(source)
    except OSError as err:
        raise CurveError(f"cannot read curve spec {str(source)!r}: "
                         f"{err.strerror or err}") from None
    except json.JSONDecodeError as err:
        raise CurveError(f"curve spec is not valid JSON: {err}") from None
    if not isinstance(data, dict):
        raise CurveError("curve spec must be a JSON object")
    try:
        x = data["x"]
        y = data["y"]
        domain = data["domain"]
    except KeyError as missing:
        raise CurveError(f"curve spec is missing field {missing}") from None
    if not (isinstance(x, str) and isinstance(y, str)):
        raise CurveError("curve spec fields 'x' and 'y' must be expressions")
    nu = data.get("nu")
    if nu is not None:
        if not isinstance(nu, (list, tuple)) or len(nu) != 2:
            raise CurveError("curve spec field 'nu' must hold two expressions")
        nu = (str(nu[0]), str(nu[1]))
    try:
        domain = tuple(float(v) for v in domain)
        params = {str(k): float(v) for k, v in (data.get("params") or {}).items()}
    except (TypeError, ValueError, AttributeError):
        raise CurveError("curve spec fields 'domain' and 'params' must hold "
                         "numbers") from None
    if len(domain) != 2:
        raise CurveError("curve spec field 'domain' must hold two numbers")
    if not all(map(math.isfinite, params.values())):
        raise CurveError("curve spec field 'params' must hold finite numbers")
    try:
        return LegendreCurve.from_exprs(x, y, nu=nu, domain=domain,
                                        closed=bool(data.get("closed", False)),
                                        params=params or None)
    except ValueError as err:  # substitute_params rejects a reserved or malformed name
        raise CurveError(f"invalid curve spec: {err}") from None


def dump_curve(curve: LegendreCurve) -> str:
    return json.dumps(curve.spec_dict(), indent=2)
