"""Plane curves with a unit normal frame and their curvature pair.

A frame pair ``(gamma, nu)`` consists of a parametrized plane curve and a
unit vector field along it with ``gamma'(t) . nu(t) = 0`` everywhere.  The
moving frame is completed by ``mu = J(nu)``, the quarter rotation of ``nu``,
and the curvature pair is

    ell(t)  = nu'(t) . mu(t)
    beta(t) = gamma'(t) . mu(t)

Each curve builds both once as expressions with the derivative node of
:mod:`exprs`.  ``beta`` vanishes exactly at the singular points of
``gamma``; ``ell`` at inflection points.  The pair determines the curve up
to a rotation and a translation, which is what the reconstruction and
signature modules build on.

Every jet method returns the tape's float arrays, one per component, each
of shape ``(order + 1,) + np.shape(t0)``; row k holds f^(k)(t0) / k!.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import _TOO_DEEP, CurveError, LegendreError
from .exprs import (ScalarFun, Unary, ast_derivative, eval_jet_many, mul,
                    pretty_print, sub)

TWO_PI = 2.0 * math.pi


def _along_mu(vx, vy, nx, ny):
    """AST of v' . mu with mu = J(nu) = (-nu_y, nu_x); v = nu gives ell,
    v = gamma gives beta."""
    return sub(mul(Unary("d", vy), nx), mul(Unary("d", vx), ny))


def _require_finite(ts, what: str, *arrays, error=LegendreError) -> None:
    """Raise ``error`` naming the first t at which a row of ``arrays`` (each
    of len(ts) rows) is not finite; the per-t pass runs only on a failure."""
    if all(np.isfinite(a).all() for a in arrays):
        return
    ok = np.logical_and.reduce([np.isfinite(a).reshape(len(ts), -1).all(axis=1)
                                for a in arrays])
    if not ok.all():
        raise error(f"{what} is not finite at t={float(ts[np.argmin(ok)])!r}")


def _integers(*values) -> bool:
    """Whether every value is a Python or numpy integer; a bool is no
    order or size."""
    return all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in values)


def _reals(*values) -> bool:
    """Whether every value is a real number; a bool is no number."""
    return all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in values)


def _finite(*values) -> bool:
    """Whether every number is a finite float; an int beyond the float
    range is not."""
    try:
        return all(map(math.isfinite, values))
    except OverflowError:
        return False


def _check_domain(domain) -> tuple[float, float]:
    a, b = (float(v) for v in domain)
    if not (math.isfinite(b - a) and a < b):
        raise CurveError(f"domain must be a finite interval [a, b] with a < b, "
                         f"got [{a!r}, {b!r}]")
    return a, b


_MERGE_TOL = 1e-8  # same-point tolerance, in parameter units


def _param_unit(domain) -> float:
    """(b - a) / 2 pi, 1 on the gallery's [0, 2 pi]: every decision in t
    reads its tolerance in this unit of [a, b], so it holds under t -> s t."""
    return (domain[1] - domain[0]) / TWO_PI


def _same_point_tol(domain) -> float:
    """How close two parameters of [a, b] must be to count as one point."""
    return _MERGE_TOL * _param_unit(domain)


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
        self.domain = _check_domain(self.domain)
        nx, ny = self.nu_x.ast, self.nu_y.ast
        self._ell = _along_mu(nx, ny, nx, ny)
        self._beta = _along_mu(self.x.ast, self.y.ast, nx, ny)

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
        if curve.closed and not _closes(curve):
            raise CurveError("curve is flagged closed but is not C^1-closed at the endpoints")
        return curve

    # -- evaluation -----------------------------------------------------

    def gamma_jets(self, t0, order: int) -> tuple[np.ndarray, np.ndarray]:
        jx, jy = eval_jet_many([self.x.ast, self.y.ast], t0, order)
        return jx, jy

    def nu_jets(self, t0, order: int) -> tuple[np.ndarray, np.ndarray]:
        jx, jy = eval_jet_many([self.nu_x.ast, self.nu_y.ast], t0, order)
        return jx, jy

    def gamma(self, ts) -> np.ndarray:
        """Curve points, shape (..., 2), from one pass over both components."""
        jx, jy = self.gamma_jets(np.asarray(ts, dtype=float), 0)
        return np.stack([jx[0], jy[0]], axis=-1)

    # -- curvature ------------------------------------------------------

    def ell(self) -> ScalarFun:
        return ScalarFun.from_ast(self._ell)

    def beta(self) -> ScalarFun:
        return ScalarFun.from_ast(self._beta)

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

    def jets(self, t0, order: int) -> tuple[np.ndarray, np.ndarray]:
        """Jets of (ell, beta) at t0: one tape pass over both ASTs, for a
        curve's pair and for every transformation law alike."""
        return tuple(eval_jet_many([self.ell.ast, self.beta.ast], t0, order))


# -- checks -----------------------------------------------------------------


@dataclass(frozen=True)
class LegendreReport:
    ok: bool
    max_defect: float
    max_norm_defect: float


def _frame_jets(curve, t0, order: int) -> list[np.ndarray]:
    """Jets of x, y, nu_x and nu_y at t0, from one run of one tape over
    the four components."""
    return eval_jet_many([curve.x.ast, curve.y.ast, curve.nu_x.ast, curve.nu_y.ast],
                         t0, order)


def check_legendre(curve, samples: int = 2048, tol: float = 1e-9) -> LegendreReport:
    """Verify gamma' . nu = 0 and |nu| = 1 on a uniform grid of ``samples``
    points, an integer of at least 2 (``ValueError`` otherwise).  One tape
    run at order 1 gives gamma' and nu.  A defect that is not finite
    raises ``CurveError`` naming its t."""
    if not _integers(samples) or samples < 2:
        raise ValueError(f"samples must be an integer of at least 2, got {samples!r}")
    a, b = curve.domain
    ts = np.linspace(a, b, samples)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            gx, gy, nx, ny = _frame_jets(curve, ts, 1)
        except LegendreError as err:
            t_bad = _locate_failure(curve, ts)
            raise CurveError(f"expression evaluation failed at t={t_bad!r}: {err}") from err
        tangency = np.abs(gx[1] * nx[0] + gy[1] * ny[0])
        norm_defect = np.abs(np.hypot(nx[0], ny[0]) - 1.0)
    _require_finite(ts, "tangency defect", tangency, norm_defect, error=CurveError)
    max_defect = float(np.max(tangency))
    max_norm = float(np.max(norm_defect))
    return LegendreReport(ok=(max_defect <= tol and max_norm <= tol),
                          max_defect=max_defect, max_norm_defect=max_norm)


def _locate_failure(curve, ts):
    for t in ts:
        try:
            _frame_jets(curve, float(t), 1)
        except LegendreError:
            return float(t)
    return None


def derive_nu(x, y, domain: tuple[float, float]) -> tuple[ScalarFun, ScalarFun]:
    """Frame of a regular curve: nu = J(gamma') / |gamma'|, so beta = -|gamma'|.

    The frame is an expression, (-y', x') / sqrt(x'^2 + y'^2) with the
    derivatives spelled out by ``ast_derivative``.  The curve is singular
    where x' and y' have a common zero, found by the signature's zero
    search on both in one tape (``signatures._common_zeros``), so the
    decision does not depend on the curve's scale.  A singular curve
    must supply its frame as data.
    """
    dx, dy = (ScalarFun.from_ast(ast_derivative(ScalarFun.wrap(f).ast)) for f in (x, y))
    from .signatures import _common_zeros  # deferred: avoids a module cycle
    if not _common_zeros((dx.ast, dy.ast), domain).ok:
        raise CurveError("curve has a singular point; supply ν explicitly")
    speed = (dx * dx + dy * dy).sqrt()
    return -dy / speed, dx / speed


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
    """Compare one-sided derivatives of (gamma, nu) at the two endpoints,
    read from one run of the four-component frame tape, one order past
    ``max_order``.

    Order k of a component differs when |d_k(a) - d_k(b)| >
    tol * (1 + max |d_k| + (b - a) max |d_{k+1}|), maxima over both ends.
    The middle term absorbs the rounding of high derivatives, which grow
    like n^k; the last is how far order k moves when an end shifts by
    tol * (b - a), as rounding 2 pi or 1e7 * u shifts it, so the verdict
    holds at every scale.  A derivative that is not finite, up to one order
    past the first that differs, raises ``CurveError`` naming its endpoint.
    """
    ends = np.array(curve.domain)
    factorials = np.array([float(math.factorial(k)) for k in range(max_order + 2)])
    with np.errstate(over="ignore", invalid="ignore"):
        derivs = np.moveaxis(_frame_jets(curve, ends, max_order + 1), -1, 0) * factorials
        size = np.abs(derivs).max(axis=0)
        da, db = derivs[..., :-1]
        differ = np.abs(da - db) > tol * (1.0 + size[:, :-1] + (ends[1] - ends[0]) * size[:, 1:])
    finite = np.isfinite(derivs).all(axis=0)
    flagged = (differ | ~finite[:, :-1] | ~finite[:, 1:]).any(axis=0)
    first = int(np.argmax(flagged)) if flagged.any() else max_order + 1
    _require_finite(ends, "endpoint derivative", derivs[..., :first + 2], error=CurveError)
    closed_order = first - 1
    return ClosedReport(closed_order, max_order, closed_order == max_order)


def _closes(curve) -> bool:
    """The closedness rule of ``from_exprs`` and ``reparametrize``: the
    frame pair is C^1-closed at tolerance 1e-9."""
    return check_closed(curve, max_order=1, tol=1e-9).closed_order >= 1


# -- curve spec files --------------------------------------------------------


def load_curve(source) -> LegendreCurve:
    """Load a curve spec: a dict, JSON text, or a path to a JSON file.

    Format: {"x": str, "y": str, "nu": [str, str] (optional),
             "domain": [a, b], "closed": bool, "params": {name: number}}

    A file that cannot be read or is not UTF-8, malformed JSON, fields of
    the wrong type or length, non-finite numbers (an integer beyond the
    float range included), a domain with a >= b and invalid parameter names
    raise CurveError.  ``domain`` must be an array of two numbers,
    ``closed`` a boolean and each ``params`` value a number; a boolean is
    not a number.  JSON or expressions that nest too deeply
    to read, or to write back as a spec (a 1000-term sum), raise
    LegendreError.
    """
    try:
        if isinstance(source, (str, Path)) and not str(source).lstrip().startswith("{"):
            data = json.loads(Path(source).read_text(encoding="utf-8"))
        elif isinstance(source, str):
            data = json.loads(source)
        else:
            data = dict(source)
    except (OSError, UnicodeDecodeError) as err:
        raise CurveError(f"cannot read curve spec {str(source)!r}: "
                         f"{getattr(err, 'strerror', None) or err}") from None
    except json.JSONDecodeError as err:
        raise CurveError(f"curve spec is not valid JSON: {err}") from None
    except RecursionError:
        raise LegendreError(_TOO_DEEP) from None
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
        if not (isinstance(nu, (list, tuple)) and len(nu) == 2
                and all(isinstance(v, str) for v in nu)):
            raise CurveError("curve spec field 'nu' must hold two expressions")
    if not isinstance(domain, (list, tuple)) or len(domain) != 2:
        raise CurveError("curve spec field 'domain' must hold two numbers")
    params = data.get("params") or {}
    if not isinstance(params, dict):
        raise CurveError("curve spec field 'params' must map names to numbers")
    for field, values in (("domain", domain), ("params", params.values())):
        if not _reals(*values):
            raise CurveError(f"curve spec field {field!r} must hold numbers")
        if not _finite(*values):
            raise CurveError(f"curve spec field {field!r} must hold finite numbers")
    closed = data.get("closed", False)
    if not isinstance(closed, bool):
        raise CurveError("curve spec field 'closed' must be true or false")
    params = {str(k): float(v) for k, v in params.items()}
    try:
        curve = LegendreCurve.from_exprs(x, y, nu=nu, domain=tuple(map(float, domain)),
                                         closed=closed, params=params or None)
        curve.spec_dict()  # refuse a curve too deep to write back
    except ValueError as err:  # substitute_params rejects a reserved or malformed name
        raise CurveError(f"invalid curve spec: {err}") from None
    except RecursionError:
        raise LegendreError(_TOO_DEEP) from None
    return curve


def dump_curve(curve: LegendreCurve) -> str:
    return json.dumps(curve.spec_dict(), indent=2)
