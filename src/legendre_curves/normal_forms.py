"""Representative germs for the local classification of framed curves.

A curve germ whose components vanish to orders n and m at the origin falls
into one of four classes, each with an explicit representative on [-1, 1]:

  - below-diagonal (n < m):        (t^n, t^m) with frame (-m t^k, n)/sqrt(.)
  - diagonal-plain (n = m, g = 0): (t^n, t^n) with constant frame
  - diagonal-perturbed (n = m):    (t^n, t^n (1 + t^p))
  - above-diagonal (n > m):        (t^n, t^m) with frame (m, -n t^k)/sqrt(.)

The germ signature records the vanishing orders of (ell, beta) at 0 with
the convention that order 0 means "does not vanish"; the diagonal-plain
case has ell identically zero, flagged separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .curves import LegendreCurve
from .errors import CurveError
from .exprs import (Binary, ExprAst, Number, PowInt, ScalarFun, Unary, Var,
                    ast_derivative)
from .jets import DEFAULT_ORDER
from .signatures import _first_significant, _scan, _vanishing

#: ord_ell value for a germ whose ell vanishes identically.
ZERO_FUNCTION = "zero-function"

GERM_CASES = ("below-diagonal", "diagonal-plain", "diagonal-perturbed", "above-diagonal")

_T = Var("t")


def _num(v: float) -> Number:
    return Number(float(v))


def _mul(*factors: ExprAst) -> ExprAst:
    out = factors[0]
    for f in factors[1:]:
        out = Binary("mul", out, f)
    return out


def _add(a: ExprAst, b: ExprAst) -> ExprAst:
    return Binary("add", a, b)


def _tpow(k: int) -> ExprAst:
    return PowInt(_T, k)


@dataclass(frozen=True)
class GermData:
    """Data selecting one local normal form."""

    case: str
    n: int
    m: int
    p: Optional[int] = None       # perturbation order, diagonal-perturbed only

    def __post_init__(self):
        if self.case not in GERM_CASES:
            raise CurveError(f"unknown germ case {self.case!r}")
        if self.n < 1 or self.m < 1:
            raise CurveError("orders n, m must be positive integers")
        if self.case == "below-diagonal" and not self.n < self.m:
            raise CurveError("below-diagonal germs need n < m")
        if self.case == "above-diagonal" and not self.n > self.m:
            raise CurveError("above-diagonal germs need n > m")
        if self.case.startswith("diagonal") and self.n != self.m:
            raise CurveError("diagonal germs need n = m")
        if self.case == "diagonal-perturbed" and (self.p is None or self.p < 1):
            raise CurveError("diagonal-perturbed germs need a positive p")

    @property
    def k(self) -> int:
        return abs(self.m - self.n)


@dataclass(frozen=True)
class GermSignature:
    """Vanishing orders of (ell, beta) at 0; 0 means nonvanishing."""

    ord_ell: Union[int, str]  # int or ZERO_FUNCTION
    ord_beta: int


def type_nm_curve(n: int, m: int, f_expr=None, sign: int = 1) -> LegendreCurve:
    """Germ (sign * t^n, t^m f(t)) with its tangency frame, on [-1, 1].

    ``f`` is expression text or an AST with f(0) != 0 (default 1).  The
    frame spells out the derivative of f structurally, so the curve stays
    fully expression-backed.
    """
    if not (1 <= n < m):
        raise CurveError("type (n, m) needs 1 <= n < m")
    if sign not in (1, -1):
        raise CurveError("sign must be +1 or -1")
    f_ast = _as_f_ast(f_expr)
    if abs(ScalarFun.from_ast(f_ast)(0.0)) <= 1e-12:
        raise CurveError("f must not vanish at 0")
    k = m - n
    df = ast_derivative(f_ast)
    # w = m t^k f + t^(k+1) f'
    w = _add(_mul(_num(m), _tpow(k), f_ast), _mul(_tpow(k + 1), df))
    radicand = _add(PowInt(w, 2), _num(n * n))
    root = Unary("sqrt", radicand)
    x_ast = _tpow(n) if sign == 1 else Unary("neg", _tpow(n))
    y_ast = _mul(_tpow(m), f_ast)
    nu_x = Binary("div", Unary("neg", w), root)
    nu_y = Binary("div", _num(sign * n), root)
    return LegendreCurve(ScalarFun.from_ast(x_ast), ScalarFun.from_ast(y_ast),
                         ScalarFun.from_ast(nu_x), ScalarFun.from_ast(nu_y),
                         domain=(-1.0, 1.0), closed=False)


def type_nm_curvature(n: int, m: int, f_expr=None, sign: int = 1):
    """Closed-form (ell, beta) of the type (n, m) germ, as ASTs.

    ell = sign * n t^(k-1) (m k f + (m+k+1) t f' + t^2 f'') / (w^2 + n^2),
    beta = -t^(n-1) sqrt(w^2 + n^2).
    """
    f_ast = _as_f_ast(f_expr)
    k = m - n
    df = ast_derivative(f_ast)
    ddf = ast_derivative(df)
    w = _add(_mul(_num(m), _tpow(k), f_ast), _mul(_tpow(k + 1), df))
    radicand = _add(PowInt(w, 2), _num(n * n))
    bracket = _add(_add(_mul(_num(m * k), f_ast),
                        _mul(_num(m + k + 1), _T, df)),
                   _mul(_tpow(2), ddf))
    ell = Binary("div", _mul(_num(sign * n), _tpow(k - 1), bracket), radicand)
    beta = Unary("neg", _mul(_tpow(n - 1), Unary("sqrt", radicand)))
    return ell, beta


def _as_f_ast(f_expr) -> ExprAst:
    ast = ScalarFun.wrap(1.0 if f_expr is None else f_expr).ast
    if ast is None:
        raise CurveError("f must be expression-backed")
    return ast


def local_normal_form(germ: GermData) -> LegendreCurve:
    """The representative curve of a germ class, on [-1, 1].

    The diagonal-plain frame is conventionally written (-1, 1), which is
    not unit; it is normalized by sqrt(2) here, leaving the curvature class
    untouched.
    """
    n, m = germ.n, germ.m
    if germ.case == "below-diagonal":
        k = germ.k
        radicand = _add(_mul(_num(m * m), _tpow(2 * k)), _num(n * n))
        root = Unary("sqrt", radicand)
        nu_x = Binary("div", Unary("neg", _mul(_num(m), _tpow(k))), root)
        nu_y = Binary("div", _num(n), root)
        x_ast, y_ast = _tpow(n), _tpow(m)
    elif germ.case == "diagonal-plain":
        sqrt2 = Unary("sqrt", _num(2.0))
        nu_x = Binary("div", _num(-1.0), sqrt2)
        nu_y = Binary("div", _num(1.0), sqrt2)
        x_ast, y_ast = _tpow(n), _tpow(n)
    elif germ.case == "diagonal-perturbed":
        p = germ.p
        # y = t^n (1 + t^p); w = n (1 + t^p) + p t^p
        w = _add(_mul(_num(n), _add(_num(1.0), _tpow(p))), _mul(_num(p), _tpow(p)))
        radicand = _add(PowInt(w, 2), _num(n * n))
        root = Unary("sqrt", radicand)
        nu_x = Binary("div", Unary("neg", w), root)
        nu_y = Binary("div", _num(n), root)
        x_ast = _tpow(n)
        y_ast = _mul(_tpow(n), _add(_num(1.0), _tpow(p)))
    else:  # above-diagonal
        k = germ.k
        radicand = _add(_num(m * m), _mul(_num(n * n), _tpow(2 * k)))
        root = Unary("sqrt", radicand)
        nu_x = Binary("div", _num(m), root)
        nu_y = Binary("div", Unary("neg", _mul(_num(n), _tpow(k))), root)
        x_ast, y_ast = _tpow(n), _tpow(m)
    return LegendreCurve(ScalarFun.from_ast(x_ast), ScalarFun.from_ast(y_ast),
                         ScalarFun.from_ast(nu_x), ScalarFun.from_ast(nu_y),
                         domain=(-1.0, 1.0), closed=False)


def germ_signature(germ: GermData) -> GermSignature:
    """Vanishing orders of the germ's curvature at 0, by class:

    below-diagonal: (k-1, n-1);  diagonal-plain: (zero-function, n-1);
    diagonal-perturbed: (p-1, n-1);  above-diagonal: (k-1, m-1).
    """
    if germ.case == "below-diagonal":
        return GermSignature(germ.k - 1, germ.n - 1)
    if germ.case == "diagonal-plain":
        return GermSignature(ZERO_FUNCTION, germ.n - 1)
    if germ.case == "diagonal-perturbed":
        return GermSignature(germ.p - 1, germ.n - 1)
    return GermSignature(germ.k - 1, germ.m - 1)


def germ_signature_of_curve(curve, t0: float = 0.0) -> GermSignature:
    """Measure the germ signature of an actual curve at a point.

    Orders are read off the jets of (ell, beta) at ``DEFAULT_ORDER``, from
    one tape pass, by the contact-order rule of ``signatures`` (order 0:
    not a zero), seeded like ``signature`` with the scales on a 512-point
    grid of the interval.  An ell whose jet vanishes and which passes the
    zero-function test on that grid is flagged as the zero function.
    """
    pair = curve.curvature_pair()
    _, _, scales = _scan(pair.jets, pair.domain, 511)
    e_idx, b_idx = (int(i) for i in _first_significant(
        np.abs(pair.jets(float(t0), DEFAULT_ORDER)), scales))
    if b_idx < 0:
        raise CurveError("beta vanishes to high order; not a germ of finite type")
    if e_idx < 0:
        if _vanishing(scales)[0]:
            return GermSignature(ZERO_FUNCTION, b_idx)
        raise CurveError("ell vanishes to high order at 0 but not identically")
    return GermSignature(e_idx, b_idx)
