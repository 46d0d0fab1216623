"""Representative germs for the local classification of framed curves.

A curve germ whose components vanish to orders n and m at the origin falls
into one of four classes, each with an explicit representative on [-1, 1]:

  - below-diagonal (n < m):        (t^n, t^m) with frame (-m t^k, n)/sqrt(.)
  - diagonal-plain (n = m, g = 0): (t^n, t^n) with constant frame
  - diagonal-perturbed (n = m):    (t^n, t^n (1 + t^p))
  - above-diagonal (n > m):        (t^n, t^m) with frame (m, -n t^k)/sqrt(.)

One builder, the type (n, m) germ (t^n, t^m f) with its tangency frame,
makes :func:`type_nm_curve` and three of the representatives:
below-diagonal is the type (n, m) germ with f = 1, diagonal-perturbed the
type (n, n) germ with f = 1 + t^p, and above-diagonal the type (m, n) germ
with x and y, and nu_x and nu_y, exchanged.  Diagonal-plain keeps its
constant frame.

The germ signature records the vanishing orders of (ell, beta) at 0 with
the convention that order 0 means "does not vanish"; the diagonal-plain
case has ell identically zero, flagged separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .curves import LegendreCurve, _integers
from .errors import CurveError
from .exprs import (ExprAst, Number, ScalarFun, Unary, Var, add, ast_derivative,
                    div, mul, neg, power)

#: ord_ell value for a germ whose ell vanishes identically.
ZERO_FUNCTION = "zero-function"

GERM_CASES = ("below-diagonal", "diagonal-plain", "diagonal-perturbed", "above-diagonal")

_T = Var("t")


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
        if not _integers(self.n, self.m) or self.n < 1 or self.m < 1:
            raise CurveError("orders n, m must be positive integers")
        if self.case == "below-diagonal" and not self.n < self.m:
            raise CurveError("below-diagonal germs need n < m")
        if self.case == "above-diagonal" and not self.n > self.m:
            raise CurveError("above-diagonal germs need n > m")
        if self.case.startswith("diagonal") and self.n != self.m:
            raise CurveError("diagonal germs need n = m")
        if self.case == "diagonal-perturbed" and not (_integers(self.p) and self.p >= 1):
            raise CurveError("diagonal-perturbed germs need a positive p, an integer")
        if self.case != "diagonal-perturbed" and self.p is not None:
            raise CurveError(f"{self.case} germs take no p")

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
    if not (_integers(n, m) and 1 <= n < m):
        raise CurveError("type (n, m) needs 1 <= n < m, both integers")
    if sign not in (1, -1):
        raise CurveError("sign must be +1 or -1")
    f_ast = _as_f_ast(f_expr)
    if abs(ScalarFun.from_ast(f_ast)(0.0)) <= 1e-12:
        raise CurveError("f must not vanish at 0")
    return _germ(n, m, f_ast, sign)


def _frame_terms(n: int, m: int, f_ast: ExprAst):
    """f', w = m t^k f + t^(k+1) f' and the radicand w^2 + n^2 of the type
    (n, m) germ, k = m - n."""
    k = m - n
    df = ast_derivative(f_ast)
    w = add(mul(Number(m), power(_T, k), f_ast), mul(power(_T, k + 1), df))
    return df, w, add(power(w, 2), Number(n * n))


def _germ(n: int, m: int, f_ast: ExprAst, sign: int = 1,
          swap: bool = False) -> LegendreCurve:
    """(sign t^n, t^m f) with the frame (-w, sign n) / sqrt(w^2 + n^2), on
    [-1, 1]; ``swap`` exchanges x with y and nu_x with nu_y."""
    _, w, radicand = _frame_terms(n, m, f_ast)
    root = Unary("sqrt", radicand)
    x, y = power(_T, n) if sign == 1 else neg(power(_T, n)), mul(power(_T, m), f_ast)
    nu_x, nu_y = div(neg(w), root), div(Number(sign * n), root)
    return _curve(y, x, nu_y, nu_x) if swap else _curve(x, y, nu_x, nu_y)


def _curve(x_ast, y_ast, nu_x, nu_y) -> LegendreCurve:
    return LegendreCurve(*map(ScalarFun.from_ast, (x_ast, y_ast, nu_x, nu_y)),
                         domain=(-1.0, 1.0), closed=False)


def type_nm_curvature(n: int, m: int, f_expr=None, sign: int = 1):
    """Closed-form (ell, beta) of the type (n, m) germ, as ASTs.

    ell = sign * n t^(k-1) (m k f + (m+k+1) t f' + t^2 f'') / (w^2 + n^2),
    beta = -t^(n-1) sqrt(w^2 + n^2).
    """
    f_ast = _as_f_ast(f_expr)
    k = m - n
    df, _, radicand = _frame_terms(n, m, f_ast)
    bracket = add(add(mul(Number(m * k), f_ast), mul(Number(m + k + 1), _T, df)),
                  mul(power(_T, 2), ast_derivative(df)))
    ell = div(mul(Number(sign * n), power(_T, k - 1), bracket), radicand)
    beta = neg(mul(power(_T, n - 1), Unary("sqrt", radicand)))
    return ell, beta


def _as_f_ast(f_expr) -> ExprAst:
    return ScalarFun.wrap(1.0 if f_expr is None else f_expr).ast


def local_normal_form(germ: GermData) -> LegendreCurve:
    """The representative curve of a germ class, on [-1, 1].

    The diagonal-plain frame is conventionally written (-1, 1), which is
    not unit; it is normalized by sqrt(2) here, leaving the curvature class
    untouched.
    """
    n, m, one = germ.n, germ.m, Number(1.0)
    if germ.case == "below-diagonal":
        return _germ(n, m, one)
    if germ.case == "diagonal-perturbed":
        return _germ(n, n, add(one, power(_T, germ.p)))
    if germ.case == "above-diagonal":
        return _germ(m, n, one, swap=True)
    sqrt2 = Unary("sqrt", Number(2.0))
    return _curve(power(_T, n), power(_T, n), div(Number(-1.0), sqrt2), div(one, sqrt2))


def germ_signature(germ: GermData) -> GermSignature:
    """Vanishing orders of the germ's curvature at 0, by class:

    below-diagonal: (k-1, n-1);  diagonal-plain: (zero-function, n-1);
    diagonal-perturbed: (p-1, n-1);  above-diagonal: (k-1, m-1).
    """
    ord_beta = min(germ.n, germ.m) - 1
    if germ.case == "diagonal-plain":
        return GermSignature(ZERO_FUNCTION, ord_beta)
    ord_ell = germ.p - 1 if germ.case == "diagonal-perturbed" else germ.k - 1
    return GermSignature(ord_ell, ord_beta)


def germ_signature_of_curve(curve, t0: float = 0.0) -> GermSignature:
    """The germ signature of a curve at ``t0``: ell's zero-function flag
    and the orders of the zero ``signature`` records there, read through
    ``Signature.zero_at``, or (0, 0).  A ``t0`` off the domain or not
    finite is refused, as are the curves ``signature`` refuses."""
    t0, (a, b) = float(t0), curve.domain
    if not a <= t0 <= b:
        raise CurveError(f"t0 must be a point of the domain [{a!r}, {b!r}], got {t0!r}")
    from .signatures import signature  # deferred: other readers need not load it
    sig = signature(curve)
    z = sig.zero_at(t0)
    ord_ell, ord_beta = (z.ord_ell or 0, z.ord_beta or 0) if z else (0, 0)
    return GermSignature(ZERO_FUNCTION if sig.ell_identically_zero else ord_ell, ord_beta)
