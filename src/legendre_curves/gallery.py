"""Built-in curve families with known closed-form curvature.

These serve as golden references for the curvature computation, the
reconstruction round trip, and the equivalence decision:

  - circle:   gamma = (cos t, sin t) with radial frame, curvature (1, 1)
  - gamma_ab: gamma = (sin at, sin bt), a Lissajous-type frontal
  - gamma_n:  gamma = (n cos t - cos nt, n sin t - sin nt), epicycloid-like
  - gamma_m:  gamma = (m sin t - sin mt, m cos t + cos mt)
  - type_nm:  the (n, m) germ of the normal-forms module

The trigonometric families live on [0, 2pi].  Note the frame of gamma_n /
gamma_m is anti-periodic when the index is even (nu flips sign across the
seam), so those members are closed framed curves only for odd index; the
flag is set accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, pi
from typing import Optional

from .curves import CurvaturePair, LegendreCurve
from .errors import CurveError
from .exprs import ScalarFun, substitute_params
from .normal_forms import type_nm_curvature, type_nm_curve

#: The parameters each family reads; ``gallery`` refuses any other.
_FAMILY_PARAMS = {"circle": (), "gamma_ab": ("a", "b"), "gamma_n": ("n",),
                  "gamma_m": ("m",), "type_nm": ("n", "m", "f", "sign")}
GALLERY_NAMES = tuple(_FAMILY_PARAMS)
_TRIG_DOMAIN = (0.0, 2.0 * pi)


@dataclass
class GalleryEntry:
    name: str
    curve: LegendreCurve
    curvature_closed_form: Optional[CurvaturePair]
    spec: dict


def check_ab_assumption(a: int, b: int) -> bool:
    """No common zero of cos(at) and cos(bt) on [0, 2pi).

    Equivalent to: no integers n, m with 0 <= 1+2n < 4a, 0 <= 1+2m < 4b and
    b(1+2n) = a(1+2m).  With g = gcd(a, b), such n, m exist exactly when
    a/g and b/g are both odd: then 1+2n = a/g and 1+2m = b/g solve it, and
    otherwise one side of b(1+2n) = a(1+2m) is even and the other odd.
    """
    if a == b:
        raise CurveError("requires a ≠ b")
    g = gcd(a, b)
    return (a // g) % 2 == 0 or (b // g) % 2 == 0


def _int_param(params: dict, name: str, default: int) -> int:
    value = params.get(name, default)
    try:
        if float(value).is_integer():
            return int(float(value))
    except (TypeError, ValueError):
        pass
    raise CurveError(f"gallery parameter {name!r} must be an integer, got {value!r}")


def _entry_from_template(name: str, x: str, y: str, nu: tuple[str, str],
                         ell: str, beta: str, params: dict, closed: bool) -> GalleryEntry:
    spec = {
        "x": substitute_params(x, params),
        "y": substitute_params(y, params),
        "nu": [substitute_params(nu[0], params), substitute_params(nu[1], params)],
        "domain": list(_TRIG_DOMAIN),
        "closed": closed,
    }
    curve = LegendreCurve.from_exprs(spec["x"], spec["y"],
                                     nu=(spec["nu"][0], spec["nu"][1]),
                                     domain=_TRIG_DOMAIN, closed=closed)
    pair = CurvaturePair.from_exprs(substitute_params(ell, params),
                                    substitute_params(beta, params),
                                    _TRIG_DOMAIN, closed)
    return GalleryEntry(name=name, curve=curve, curvature_closed_form=pair, spec=spec)


def gallery(name: str, params: Optional[dict] = None) -> GalleryEntry:
    """Instantiate a gallery family member; see GALLERY_NAMES.  A parameter
    the family does not read is refused."""
    params = dict(params or {})
    if name not in _FAMILY_PARAMS:
        raise CurveError(f"unknown gallery name {name!r}; choose from {GALLERY_NAMES}")
    extra = sorted(set(params) - set(_FAMILY_PARAMS[name]))
    if extra:
        takes = ", ".join(_FAMILY_PARAMS[name]) or "none"
        raise CurveError(f"{name} takes no parameter {extra[0]!r} (its parameters: {takes})")
    if name == "circle":
        return _entry_from_template(
            "circle", "cos(t)", "sin(t)", ("cos(t)", "sin(t)"), "1", "1",
            {}, closed=True)
    if name == "gamma_ab":
        a = _int_param(params, "a", 1)
        b = _int_param(params, "b", 2)
        if a < 1 or b < 1:
            raise CurveError("gamma_ab needs positive integers a, b")
        if not check_ab_assumption(a, b):
            raise CurveError(f"gamma_ab assumption fails for (a, b) = ({a}, {b}): "
                             "cos(at) and cos(bt) share a zero")
        sub = {"a": a, "b": b}
        radic = "a^2*cos(a*t)^2 + b^2*cos(b*t)^2"
        return _entry_from_template(
            f"gamma_ab[{a},{b}]",
            "sin(a*t)", "sin(b*t)",
            (f"-b*cos(b*t)/sqrt({radic})", f"a*cos(a*t)/sqrt({radic})"),
            f"-a*b*(b*cos(a*t)*sin(b*t) - a*sin(a*t)*cos(b*t))/({radic})",
            f"-sqrt({radic})",
            sub, closed=True)
    if name == "gamma_n":
        n = _int_param(params, "n", 3)
        if n < 2:
            raise CurveError("gamma_n needs an integer n >= 2")
        return _entry_from_template(
            f"gamma_n[{n}]",
            "n*cos(t) - cos(n*t)", "n*sin(t) - sin(n*t)",
            ("sin((n+1)/2*t)", "-cos((n+1)/2*t)"),
            "(n+1)/2", "2*n*sin((n-1)/2*t)",
            {"n": n}, closed=(n % 2 == 1))
    if name == "gamma_m":
        m = _int_param(params, "m", 3)
        if m < 1:
            raise CurveError("gamma_m needs an integer m >= 1")
        return _entry_from_template(
            f"gamma_m[{m}]",
            "m*sin(t) - sin(m*t)", "m*cos(t) + cos(m*t)",
            ("-cos((m-1)/2*t)", "-sin((m-1)/2*t)"),
            "(m-1)/2", "2*m*sin((m+1)/2*t)",
            {"m": m}, closed=(m % 2 == 1))
    # name == "type_nm"
    n = _int_param(params, "n", 2)
    m = _int_param(params, "m", 3)
    f = params.get("f", "1")
    sign = _int_param(params, "sign", 1)
    curve = type_nm_curve(n, m, f, sign)
    ell_ast, beta_ast = type_nm_curvature(n, m, f, sign)
    pair = CurvaturePair(ScalarFun.from_ast(ell_ast), ScalarFun.from_ast(beta_ast),
                         curve.domain, curve.closed)
    return GalleryEntry(
        name=f"type_nm[{n},{m}]", curve=curve, curvature_closed_form=pair,
        spec=curve.spec_dict())


def default_gallery() -> list[GalleryEntry]:
    """The reference roster used by the golden and round-trip suites."""
    return [
        gallery("circle"),
        gallery("gamma_ab", {"a": 1, "b": 2}),
        gallery("gamma_ab", {"a": 2, "b": 3}),
        gallery("gamma_n", {"n": 3}),
        gallery("gamma_n", {"n": 5}),
        gallery("gamma_m", {"m": 1}),
        gallery("gamma_m", {"m": 2}),
        gallery("gamma_m", {"m": 3}),
    ]
