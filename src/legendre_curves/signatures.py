"""Zero signatures of curvature pairs and the equivalence decision.

The signature of a curve collects the zeros of ``ell`` (inflection points)
and ``beta`` (singular points) together with the contact order of each zero
(the index of the first non-vanishing derivative) and their interleaving
along the parameter interval.  Two curves have equivalent curvature exactly
when these signatures can be matched: by the identity or a reversal for
curves on an interval, and additionally by any cyclic shift for closed
curves.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .curves import CurvaturePair, LegendreCurve
from .errors import (CofactorError, DegenerateCurveError, RootScanError,
                     SignatureError)
from .exprs import ScalarFun
from .jets import (DEFAULT_ORDER, VANISH_ABS, VANISH_REL, first_nonvanishing)


# -- data types ---------------------------------------------------------------


@dataclass(frozen=True)
class ZeroPoint:
    t: float
    kind: str  # "inflection" | "singular" | "both"
    ord_ell: Optional[int] = None
    ord_beta: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("inflection", "singular", "both"):
            raise ValueError(f"bad zero kind {self.kind!r}")
        if (self.kind in ("inflection", "both")) != (self.ord_ell is not None):
            raise ValueError("ord_ell must be present exactly for inflection/both")
        if (self.kind in ("singular", "both")) != (self.ord_beta is not None):
            raise ValueError("ord_beta must be present exactly for singular/both")


@dataclass(frozen=True)
class Signature:
    domain: tuple[float, float]
    closed: bool
    ell_identically_zero: bool
    zeros: tuple[ZeroPoint, ...]

    @property
    def inflection_count(self) -> int:
        return sum(1 for z in self.zeros if z.kind in ("inflection", "both"))

    @property
    def singular_count(self) -> int:
        return sum(1 for z in self.zeros if z.kind in ("singular", "both"))

    def key(self):
        """The part of the signature invariant under reparametrization."""
        return (self.closed, self.ell_identically_zero,
                tuple((z.kind, z.ord_ell, z.ord_beta) for z in self.zeros))


@dataclass(frozen=True)
class EquivalenceVerdict:
    equivalent: bool
    matching: str  # identity | reversal | cyclic-shift(l) | cyclic-shift-with-reversal(l) | none
    reason: str = ""


@dataclass(frozen=True)
class SignatureConfig:
    grid_n: int = 4096        # sweep resolution for roots and the zero-function test
    root_tol: float = 1e-9    # acceptance threshold |f| <= root_tol * scale
    merge_tol: float = 1e-8   # coincidence tolerance for kind="both"
    zero_fun_rel: float = 1e-10
    jet_order: int = DEFAULT_ORDER


DEFAULT_CONFIG = SignatureConfig()


# -- root isolation -----------------------------------------------------------


def find_zeros(f, domain: tuple[float, float], grid_n: int = 2048,
               tol: float = 1e-9, half_open: bool = False,
               samples=None) -> list[float]:
    """Locate the zeros of an evaluable scalar function on an interval.

    Combines (i) sign-change brackets of f, refined by nested grid zooming
    plus a guarded Newton polish, (ii) sign-change roots of f' at which |f|
    is below tol * scale (even-order touch zeros), and the interval
    endpoints as explicit candidates.  Roots are deduplicated within 1e-9.
    With ``half_open`` the right endpoint is excluded, which is how closed
    curves record a seam zero once.

    ``samples`` can carry a precomputed uniform sweep (ts, f(ts), f'(ts))
    so a caller that already scanned the function does not pay twice.
    """
    if grid_n < 64:
        raise ValueError("grid_n must be at least 64")
    fun = ScalarFun.wrap(f)
    a, b = float(domain[0]), float(domain[1])
    if samples is not None:
        ts, v, dv = samples
        grid_n = len(ts) - 1
    else:
        ts = np.linspace(a, b, grid_n + 1)
        v, dv = fun.dvalues(ts)
    scale = float(np.max(np.abs(v)))
    if scale == 0.0:
        raise RootScanError("zero set appears non-finite; refine or reject")

    sign_changes = np.nonzero(v[:-1] * v[1:] < 0.0)[0]
    exact_hits = np.nonzero(v == 0.0)[0]
    if len(sign_changes) + len(exact_hits) > max(1, grid_n // 4):
        raise RootScanError("zero set appears non-finite; refine or reject")

    # Critical points are touch-zero candidates only where |f| is already
    # small; the pre-filter keeps the derivative scan from chasing noise-level
    # sign changes of f' (a constant f has f' at rounding level everywhere).
    pre_tol = max(tol, 400.0 / grid_n ** 2) * scale
    near = np.minimum(np.abs(v[:-1]), np.abs(v[1:])) <= pre_tol
    dsign_changes = np.nonzero((dv[:-1] * dv[1:] < 0.0) & near)[0]
    exact_crit = np.nonzero((dv == 0.0) & (np.abs(v) <= pre_tol))[0]
    if len(dsign_changes) + len(exact_crit) > max(1, grid_n // 4):
        raise RootScanError("zero set appears non-finite; refine or reject")

    roots: list[float] = []

    if len(sign_changes):
        lo = ts[sign_changes]
        hi = ts[sign_changes + 1]
        roots.extend(_refine_brackets(fun, lo, hi))
    # Grid samples that are exactly zero never produce a strict sign change.
    roots.extend(float(t) for t in ts[exact_hits])

    crit: list[float] = [float(t) for t in ts[exact_crit]]
    if len(dsign_changes):
        lo = ts[dsign_changes]
        hi = ts[dsign_changes + 1]
        crit.extend(_refine_brackets(fun, lo, hi, on_derivative=True))
    if crit:
        fv = np.abs(fun.values(np.asarray(crit)))
        roots.extend(float(c) for c, m in zip(crit, fv) if m <= tol * scale)

    # Endpoints never produce a strict sign change, so test them directly.
    h = (b - a) / grid_n
    ends = _polish_newton(fun, np.array([a, b]), np.array([a, b - h]),
                          np.array([a + h, b]))
    end_vals = np.abs(fun.values(ends))
    roots.extend(float(c) for c, m in zip(ends, end_vals) if m <= tol * scale)

    roots = _dedup(sorted(roots), 1e-9)
    if half_open:
        roots = [r for r in roots if abs(r - b) > 1e-9]
    if len(roots) > max(1, grid_n // 4):
        raise RootScanError("zero set appears non-finite; refine or reject")
    return roots


def _refine_brackets(fun: ScalarFun, lo: np.ndarray, hi: np.ndarray,
                     on_derivative: bool = False) -> list[float]:
    """Shrink sign-change brackets by nested grid zooming, then Newton.

    Each round samples every bracket on a 17-point subgrid in one evaluation
    sweep and keeps the subinterval where the sign change lives, so eight
    rounds shrink the width by 16^8 (well below 1e-12 of the original grid
    step) at a fraction of the tree walks a scalar bisection would cost.
    """

    def fval(x):
        if on_derivative:
            return fun.dvalues(x)[1]
        return fun.values(x)

    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    n = len(lo)
    offsets = np.linspace(0.0, 1.0, 17)
    rows = np.arange(n)
    for _ in range(8):
        pts = lo[:, None] + (hi - lo)[:, None] * offsets[None, :]
        vals = fval(pts.ravel()).reshape(pts.shape)
        nonpos = vals[:, :-1] * vals[:, 1:] <= 0.0
        idx = np.argmax(nonpos, axis=1)
        idx = np.where(nonpos.any(axis=1), idx, 0)
        lo = pts[rows, idx]
        hi = pts[rows, idx + 1]
    x = 0.5 * (lo + hi)
    x = _polish_newton(fun, x, lo, hi, on_derivative=on_derivative)
    return [float(t) for t in x]


def _polish_newton(fun: ScalarFun, x: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                   on_derivative: bool = False, steps: int = 3) -> np.ndarray:
    """Guarded vectorized Newton; iterates that leave [lo, hi] are dropped."""
    for _ in range(steps):
        j = fun.jet(x, 2 if on_derivative else 1)
        if on_derivative:
            fv = np.broadcast_to(np.asarray(j.coeffs[1], float), x.shape)
            dfv = np.broadcast_to(np.asarray(j.coeffs[2], float) * 2.0, x.shape)
        else:
            fv = np.broadcast_to(np.asarray(j.coeffs[0], float), x.shape)
            dfv = np.broadcast_to(np.asarray(j.coeffs[1], float), x.shape)
        safe = np.abs(dfv) > 0.0
        step = np.where(safe, fv / np.where(safe, dfv, 1.0), 0.0)
        xn = x - step
        ok = (xn >= lo) & (xn <= hi) & np.isfinite(xn)
        x = np.where(ok, xn, x)
    return x


def refined_min_abs(fun, domain: tuple[float, float], grid_n: int = 1024) -> float:
    """Minimum of |f| on an interval, with interior dips polished.

    Scans f^2 on a uniform grid and runs a few Newton steps on its critical
    points, so a pinch between grid nodes (the typical way a putative
    parameter change fails) is not missed.
    """
    fun = ScalarFun.wrap(fun)
    return math.sqrt(max(_refined_min_sq(fun * fun, domain, grid_n), 0.0))


def _refined_min_sq(sq: ScalarFun, domain: tuple[float, float], grid_n: int) -> float:
    """Minimum of a smooth non-negative function via polished critical dips."""
    ts = np.linspace(float(domain[0]), float(domain[1]), grid_n + 1)
    v, dv = sq.dvalues(ts)
    lowest = float(np.min(v))
    dips = np.nonzero((dv[:-1] > 0.0) != (dv[1:] > 0.0))[0]
    if len(dips):
        lo, hi = ts[dips], ts[dips + 1]
        crit = _polish_newton(sq, 0.5 * (lo + hi), lo, hi, on_derivative=True, steps=8)
        lowest = min(lowest, float(np.min(sq.values(crit))))
    return lowest


def _dedup(sorted_roots: Sequence[float], tol: float) -> list[float]:
    out: list[float] = []
    cluster: list[float] = []
    for r in sorted_roots:
        if cluster and r - cluster[-1] > tol:
            out.append(float(np.mean(cluster)))
            cluster = []
        cluster.append(r)
    if cluster:
        out.append(float(np.mean(cluster)))
    return out


# -- contact orders -----------------------------------------------------------


def contact_order(f, t0: float, max_order: int = DEFAULT_ORDER,
                  scale: float = 0.0) -> Optional[int]:
    """Smallest r >= 1 with a non-vanishing r-th jet coefficient at a zero.

    ``scale`` is an optional magnitude of f on its interval; passing it
    makes the vanishing test robust for functions with large prefactors.
    Returns None when every coefficient up to max_order vanishes, which the
    signature machinery reports as "contact order exceeds jet order".
    """
    fun = ScalarFun.wrap(f)
    jet = fun.jet(float(t0), max_order)
    mags = [abs(float(c)) for c in jet.coeffs]
    if mags[0] > max(VANISH_REL * max(max(mags), scale), VANISH_ABS):
        raise SignatureError("not a zero point")
    idx = first_nonvanishing(jet, scale=scale)
    if idx == 0:
        raise SignatureError("not a zero point")
    return idx


# -- signatures ---------------------------------------------------------------


def signature(source, config: SignatureConfig | None = None) -> Signature:
    """Signature of a curve or of a curvature pair.

    Zeros of ell and beta are located, contact orders attached, and zeros
    of the two components that coincide within the merge tolerance are
    recorded as a single point of kind "both".  For a closed curve a zero
    sitting at both endpoints is recorded once.
    """
    cfg = config or DEFAULT_CONFIG
    pair = source if isinstance(source, CurvaturePair) else source.curvature_pair()
    a, b = pair.domain
    scan = np.linspace(a, b, cfg.grid_n + 1)
    if isinstance(source, LegendreCurve):
        jets = source.curvature_jets(scan, 1)
    else:
        jets = (pair.ell.jet(scan, 1), pair.beta.jet(scan, 1))
    (ev, dev), (bv, dbv) = (np.broadcast_to(j.array, (2,) + scan.shape) for j in jets)
    scale = max(float(np.max(np.abs(ev))), float(np.max(np.abs(bv))))
    if scale == 0.0 or float(np.max(np.abs(bv))) <= cfg.zero_fun_rel * scale:
        raise DegenerateCurveError("degenerate: constant curve")
    ell_identically_zero = float(np.max(np.abs(ev))) <= cfg.zero_fun_rel * scale

    beta_roots = find_zeros(pair.beta, pair.domain, tol=cfg.root_tol,
                            half_open=pair.closed, samples=(scan, bv, dbv))
    if ell_identically_zero:
        ell_roots = []
    else:
        ell_roots = find_zeros(pair.ell, pair.domain, tol=cfg.root_tol,
                               half_open=pair.closed, samples=(scan, ev, dev))

    ell_orders = _orders_at(pair.ell, ell_roots, cfg.jet_order,
                            scale=float(np.max(np.abs(ev))))
    beta_orders = _orders_at(pair.beta, beta_roots, cfg.jet_order,
                             scale=float(np.max(np.abs(bv))))

    zeros = _merge_zeros(ell_roots, ell_orders, beta_roots, beta_orders, cfg.merge_tol)
    return Signature(domain=(a, b), closed=pair.closed,
                     ell_identically_zero=ell_identically_zero, zeros=tuple(zeros))


def _orders_at(fun: ScalarFun, roots: list[float], max_order: int,
               scale: float = 0.0) -> list[int]:
    """Contact orders at several zeros from one vectorized jet sweep."""
    if not roots:
        return []
    jet = fun.jet(np.asarray(roots, dtype=float), max_order)
    mags = np.abs(np.broadcast_to(jet.array, (max_order + 1, len(roots))))
    running = np.maximum.accumulate(np.maximum(mags, scale), axis=0)
    above = mags > np.maximum(VANISH_REL * running, VANISH_ABS)
    orders: list[int] = []
    for col in range(len(roots)):
        hits = np.nonzero(above[:, col])[0]
        if len(hits) == 0:
            raise SignatureError("contact order exceeds jet order")
        if hits[0] == 0:
            raise SignatureError("not a zero point")
        orders.append(int(hits[0]))
    return orders


def _merge_zeros(ell_roots, ell_orders, beta_roots, beta_orders, merge_tol):
    zeros: list[ZeroPoint] = []
    i = j = 0
    while i < len(ell_roots) or j < len(beta_roots):
        take_ell = i < len(ell_roots)
        take_beta = j < len(beta_roots)
        if take_ell and take_beta and abs(ell_roots[i] - beta_roots[j]) <= merge_tol:
            t = 0.5 * (ell_roots[i] + beta_roots[j])
            zeros.append(ZeroPoint(t, "both", ord_ell=ell_orders[i],
                                   ord_beta=beta_orders[j]))
            i += 1
            j += 1
        elif take_ell and (not take_beta or ell_roots[i] < beta_roots[j]):
            zeros.append(ZeroPoint(ell_roots[i], "inflection", ord_ell=ell_orders[i]))
            i += 1
        else:
            zeros.append(ZeroPoint(beta_roots[j], "singular", ord_beta=beta_orders[j]))
            j += 1
    return zeros


# -- the equivalence decision --------------------------------------------------


def decide_equivalence(sig1: Signature, sig2: Signature) -> EquivalenceVerdict:
    """Decide curvature equivalence from two signatures.

    Open intervals admit the identity or a reversal as matchings; closed
    curves additionally admit every cyclic shift, optionally composed with
    a reversal.  Matched positions must agree in kind and in both contact
    orders.
    """
    if sig1.closed != sig2.closed:
        return EquivalenceVerdict(False, "none", "closed flags differ")
    if sig1.ell_identically_zero != sig2.ell_identically_zero:
        return EquivalenceVerdict(False, "none", "ell zero-function flags differ")
    if (sig1.inflection_count != sig2.inflection_count
            or sig1.singular_count != sig2.singular_count):
        return EquivalenceVerdict(False, "none", "zero counts differ")

    key1 = [(z.kind, z.ord_ell, z.ord_beta) for z in sig1.zeros]
    key2 = [(z.kind, z.ord_ell, z.ord_beta) for z in sig2.zeros]
    if len(key1) != len(key2):
        return EquivalenceVerdict(False, "none", "zero coincidence patterns differ")

    if key1 == key2:
        return EquivalenceVerdict(True, "identity")
    rev2 = list(reversed(key2))
    if key1 == rev2:
        return EquivalenceVerdict(True, "reversal")
    n = len(key1)
    if sig1.closed and n > 0:
        for shift in range(1, n):
            if key1 == key2[shift:] + key2[:shift]:
                return EquivalenceVerdict(True, f"cyclic-shift({shift})")
        for shift in range(1, n):
            if key1 == rev2[shift:] + rev2[:shift]:
                return EquivalenceVerdict(True, f"cyclic-shift-with-reversal({shift})")
    return EquivalenceVerdict(False, "none", _first_mismatch(key1, key2))


def _first_mismatch(key1, key2) -> str:
    for pos, (z1, z2) in enumerate(zip(key1, key2), start=1):
        if z1[0] != z2[0]:
            return f"kind mismatch at position {pos} ({z1[0]} vs {z2[0]})"
        if z1[1:] != z2[1:]:
            return f"contact order mismatch at position {pos}"
    return "no admissible matching"


# -- parity --------------------------------------------------------------------


@dataclass(frozen=True)
class ParityReport:
    ell_odd_count: int
    beta_odd_count: int
    ok: bool


def parity_check(sig: Signature) -> ParityReport:
    """Closed curves carry an even number of odd-order zeros per component."""
    if not sig.closed:
        raise SignatureError("parity check requires a closed curve")
    ell_odd = sum(1 for z in sig.zeros if z.ord_ell is not None and z.ord_ell % 2 == 1)
    beta_odd = sum(1 for z in sig.zeros if z.ord_beta is not None and z.ord_beta % 2 == 1)
    return ParityReport(ell_odd, beta_odd, ok=(ell_odd % 2 == 0 and beta_odd % 2 == 0))


# -- cofactor ------------------------------------------------------------------


@dataclass(frozen=True)
class CofactorSample:
    ts: np.ndarray
    values: np.ndarray
    min_abs: float


def cofactor(f, g, domain: tuple[float, float],
             shared_zeros: Sequence[tuple[float, int]],
             grid_n: int = 1024, max_order: int = DEFAULT_ORDER) -> CofactorSample:
    """Sample the nowhere-zero ratio lambda with f = lambda * g.

    ``shared_zeros`` lists (t, order) pairs where both functions vanish to
    the same order; at those points the ratio is taken between the leading
    jet coefficients, elsewhere it is the plain quotient.
    """
    ff = ScalarFun.wrap(f)
    gg = ScalarFun.wrap(g)
    ratio_at: dict[float, float] = {}
    for t0, order in shared_zeros:
        of = contact_order(ff, t0, max_order)
        og = contact_order(gg, t0, max_order)
        if of != order or og != order:
            raise CofactorError("cofactor hypothesis violated")
        cf = float(ff.jet(float(t0), order).coeffs[order])
        cg = float(gg.jet(float(t0), order).coeffs[order])
        ratio_at[float(t0)] = cf / cg

    ts = np.linspace(domain[0], domain[1], grid_n + 1)
    fv = ff.values(ts)
    gv = gg.values(ts)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = fv / gv
    for t0, r in ratio_at.items():
        mask = np.abs(ts - t0) <= 1e-9
        lam[mask] = r
    if not np.all(np.isfinite(lam)):
        raise CofactorError("cofactor hypothesis violated")
    min_abs = float(np.min(np.abs(lam)))
    if min_abs == 0.0 or (float(np.min(lam)) < 0.0 < float(np.max(lam))):
        raise CofactorError("cofactor hypothesis violated")
    return CofactorSample(ts=ts, values=lam, min_abs=min_abs)


# -- signature files -----------------------------------------------------------


def signature_to_dict(sig: Signature) -> dict:
    return {
        "domain": [sig.domain[0], sig.domain[1]],
        "closed": sig.closed,
        "ell_identically_zero": sig.ell_identically_zero,
        "zeros": [
            {"t": z.t, "kind": z.kind, "ord_ell": z.ord_ell, "ord_beta": z.ord_beta}
            for z in sig.zeros
        ],
    }


def signature_from_dict(data: dict) -> Signature:
    zeros = tuple(
        ZeroPoint(float(z["t"]), str(z["kind"]),
                  ord_ell=(None if z.get("ord_ell") is None else int(z["ord_ell"])),
                  ord_beta=(None if z.get("ord_beta") is None else int(z["ord_beta"])))
        for z in data["zeros"]
    )
    return Signature(domain=tuple(float(v) for v in data["domain"]),
                     closed=bool(data["closed"]),
                     ell_identically_zero=bool(data["ell_identically_zero"]),
                     zeros=zeros)


def dump_signature(sig: Signature) -> str:
    return json.dumps(signature_to_dict(sig), indent=2)
