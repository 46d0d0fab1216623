"""Zero signatures of curvature pairs and the equivalence decision.

The signature of a curve collects the zeros of ``ell`` (inflection points)
and ``beta`` (singular points) together with the contact order of each zero
(the index of the first non-vanishing derivative) and their interleaving
along the parameter interval.  Two curves have equivalent curvature exactly
when these signatures can be matched: by the identity or a reversal for
curves on an interval, and additionally by any cyclic shift for closed
curves.

Both components are searched together.  One scan on a uniform grid gathers
the candidates of ell and beta (sign-change brackets, derivative brackets
of touch zeros, exact grid zeros, endpoints), each tagged with its
component and the jet row it drives to zero; every zoom round, Newton step
and contact-order sweep is then one evaluation of both, one pass of the
tape of the two ASTs (``CurvaturePair.jets``).  The residual check is no
evaluation of its own: it reads the jets of Newton's final iterates.

Each evaluation carries only the Taylor orders its decision reads.  Taylor
recurrences are causal (coefficient k depends on coefficients 0..k only),
so a lower truncation changes no coefficient it keeps.  The grid scan reads
values only; f' comes from one more evaluation at the ends of the cells
where |f| is small, the only place the touch-zero tests look.  The contact
order of a zero that is one of Newton's final iterates is read from
Newton's jets when they reach it.  The zeros they leave open go to a
low-order sweep, and only the zeros it leaves open are evaluated again at
the full jet order.

Each zero decision has one rule here, shared by ``signature``,
``is_immersion``, ``find_zeros``, ``contact_order`` and the germ
signature: a component is the zero function when its scale (max |f| on
the grid) is <= ``_ZERO_FUN_REL`` times the largest scale; a candidate is
a root when |f| <= ``_ROOT_TOL`` * scale; the contact order is the first
coefficient above ``VANISH_REL`` * running prefix maximum (seeded with the
scale) and ``VANISH_ABS``; zeros of ell and beta within ``_MERGE_TOL``
coincide.  The signature grid has ``_GRID_N`` steps.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .curves import CurvaturePair, _require_finite
from .errors import (CofactorError, DegenerateCurveError, RootScanError,
                     SignatureError)
from .exprs import ScalarFun
from .jets import DEFAULT_ORDER

#: Scale-free coefficient vanishing test of the contact-order rule.
VANISH_REL = 1e-9
VANISH_ABS = 1e-12


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
class ImmersionReport:
    ok: bool
    witnesses: tuple[float, ...]
    min_combined: float


# -- root isolation -----------------------------------------------------------
#
# A source maps a 1-D point array and an order to the jets of its
# components, a tuple of (order + 1, len(pts)) arrays.

_NON_FINITE = "zero set appears non-finite; refine or reject"
_ZOOM_BITS = 32        # a zoomed bracket shrinks by 2^32 = 16^8
_ZOOM_BUDGET = 512     # about this many zoom points a round, over all brackets
_FIRST_SWEEP = 4       # contact orders read first; gallery zeros have orders 1-3
_GRID_N = 4096         # grid steps of the signature scan
_ROOT_TOL = 1e-9       # a zero has |f| <= _ROOT_TOL * scale
_MERGE_TOL = 1e-8      # zeros of ell and beta this close coincide
_ZERO_FUN_REL = 1e-10  # a component this small against the largest is zero


def _source(jets):
    """Wrap ``jets(pts, order)``, a tuple of component jets, as a source."""
    def evaluate(pts, order):
        shape = (order + 1, len(pts))
        return tuple(j.array if j.array.shape == shape
                     else np.broadcast_to(j.array.reshape(order + 1, -1), shape)
                     for j in jets(pts, order))
    return evaluate


def _fun_source(fun: ScalarFun):
    return _source(lambda pts, order: (fun.jet(pts, order),))


def _pick(arrays, comp, row, cols) -> np.ndarray:
    """Entry (row[i], cols[i]) of the jet array of component comp[i]."""
    out = np.empty(len(cols))
    for c, array in enumerate(arrays):
        at = comp == c
        out[at] = array[row[at], cols[at]]
    return out


def find_zeros(f, domain: tuple[float, float], grid_n: int = 2048,
               tol: float = _ROOT_TOL, half_open: bool = False) -> list[float]:
    """Locate the zeros of an evaluable scalar function on an interval.

    The one-component case of the joint search ``signature`` runs on
    (ell, beta), see ``_zeros``: an order-0 scan of the grid gathers the
    candidates, with f' read only near small |f|, each zoom round and
    Newton step is one evaluation, and the residual check reads Newton's
    final jets.  Roots are deduplicated within 1e-9.  With ``half_open``
    the right endpoint is excluded, which is how closed curves record a
    seam zero once.
    """
    if grid_n < 64:
        raise ValueError("grid_n must be at least 64")
    evaluate = _fun_source(ScalarFun.wrap(f))
    ts, values, scales = _scan(evaluate, domain, grid_n)
    return _zeros(evaluate, ts, values, scales, (0,), tol, half_open)[0][0]


def _scan(evaluate, domain: tuple[float, float], grid_n: int):
    """The uniform grid of ``grid_n`` steps, the component values on it
    from one order-0 evaluation, and each component's scale (max |f|).
    A value that is not finite raises ``RootScanError`` naming its t."""
    ts = np.linspace(float(domain[0]), float(domain[1]), grid_n + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        values = [jet[0] for jet in evaluate(ts, 0)]
    _require_finite(ts, "function value", *values, error=RootScanError)
    return ts, values, np.array([np.max(np.abs(v)) for v in values])


def _vanishing(scales: np.ndarray) -> np.ndarray:
    """The zero-function test: which components are identically zero."""
    return scales <= _ZERO_FUN_REL * np.max(scales)


def _zeros(evaluate, ts: np.ndarray, values, scales: np.ndarray,
           comps: Sequence[int], tol: float, half_open: bool):
    """Zeros of the components ``comps`` of a source, refined together.

    ``values`` and ``scales`` come from ``_scan`` on the grid ``ts``.  A
    candidate other than a zoomed sign-change bracket of f counts as a
    zero only when |f| <= tol * scale, read from Newton's final jets.
    Returns one sorted root list per component, empty for the components
    not in ``comps``, and Newton's final iterates, their components and
    their jets.
    """
    b = float(ts[-1])
    cap = max(1, (len(ts) - 1) // 4)
    lo, hi, x, comp, row = _candidates(evaluate, ts, values, scales, comps, tol)
    zoom = np.isnan(x)
    lo[zoom], hi[zoom] = _zoom(evaluate, lo[zoom], hi[zoom], comp[zoom], row[zoom])
    x, jets = _newton(evaluate, np.where(zoom, 0.5 * (lo + hi), x), lo, hi, comp, row)
    fx = _pick(jets, comp, 0 * row, np.arange(len(x)))
    keep = (zoom & (row == 0)) | (np.abs(fx) <= tol * scales[comp])

    roots: list[list[float]] = [[] for _ in values]
    for c in comps:
        found = _dedup(sorted(x[keep & (comp == c)].tolist()), 1e-9)
        if half_open:
            found = [r for r in found if abs(r - b) > 1e-9]
        if len(found) > cap:
            raise RootScanError(_NON_FINITE)
        roots[c] = found
    return roots, (x, comp, jets)


def _candidates(evaluate, ts: np.ndarray, values, scales: np.ndarray,
                comps: Sequence[int], tol: float):
    """Starting points of the joint search, from the grid values.

    Sign-change brackets of f, derivative brackets of touch zeros, exact
    grid zeros and the endpoints, each tagged with its component and the
    jet row it drives to zero.  f' is read only at the ends of the cells
    where min |f| is below the pre-filter tolerance, the one place the
    derivative tests look, by one order-1 evaluation over all components,
    or none when no cell qualifies.  Returns the arrays lo, hi, start (NaN: zoom the bracket
    first), component and row.
    """
    grid_n = len(ts) - 1
    a, b = float(ts[0]), float(ts[-1])
    h = (b - a) / grid_n
    cap = max(1, grid_n // 4)
    if any(scales[c] == 0.0 for c in comps):
        raise RootScanError(_NON_FINITE)
    # Critical points are touch-zero candidates only where |f| is already
    # small; the pre-filter keeps the derivative scan from chasing
    # noise-level sign changes of f' (a constant f has f' at rounding
    # level everywhere).
    pre_tols = max(tol, 400.0 / grid_n ** 2) * scales
    near = {c: np.minimum(np.abs(values[c][:-1]), np.abs(values[c][1:])) <= pre_tols[c]
            for c in comps}
    cells = np.logical_or.reduce(list(near.values()))
    at = np.nonzero(np.append(cells, False) | np.insert(cells, 0, False))[0]
    slopes = np.zeros((len(values), len(ts)))
    if len(at):
        slopes[:, at] = [jet[1] for jet in evaluate(ts[at], 1)]
    groups = []
    for c in comps:
        v, dv = values[c], slopes[c]
        sign_changes = np.nonzero(v[:-1] * v[1:] < 0.0)[0]
        exact_hits = np.nonzero(v == 0.0)[0]
        if len(sign_changes) + len(exact_hits) > cap:
            raise RootScanError(_NON_FINITE)
        dsign_changes = np.nonzero((dv[:-1] * dv[1:] < 0.0) & near[c])[0]
        exact_crit = np.nonzero((dv == 0.0) & (np.abs(v) <= pre_tols[c]))[0]
        if len(dsign_changes) + len(exact_crit) > cap:
            raise RootScanError(_NON_FINITE)
        # Exact grid zeros and the endpoints never produce a strict sign
        # change; they start Newton where they are, inside [t, t] for the
        # grid points and inside their grid cell for the endpoints.
        exact = ts[np.concatenate([exact_hits, exact_crit])]
        groups += [np.broadcast_arrays(*g) for g in (
            (ts[sign_changes], ts[sign_changes + 1], np.nan, c, 0),
            (ts[dsign_changes], ts[dsign_changes + 1], np.nan, c, 1),
            (exact, exact, exact, c, 0),
            (np.array([a, b - h]), np.array([a + h, b]), np.array([a, b]), c, 0))]
    return tuple(np.concatenate(col) for col in zip(*groups))


def _zoom(evaluate, lo, hi, comp, row):
    """Shrink sign-change brackets by nested grid zooming.

    Each round samples every bracket on a 2^k + 1 point subgrid in one
    evaluation and keeps the cell where the sign changes, until the width
    has shrunk by 2^32 = 16^8.  A run costs a fixed overhead plus a share
    per point; on the gallery tapes the overhead is worth 600-1000 points.
    So k is chosen from the bracket count to keep a round near
    ``_ZOOM_BUDGET`` points: one or two brackets take four rounds of 257
    points (k = 8), and 17 or more take eight rounds of 17 (k = 4), 136
    points per bracket.
    """
    if not len(lo):
        return lo, hi
    bits = min(8, max(4, (_ZOOM_BUDGET // len(lo)).bit_length() - 1))
    offsets = np.linspace(0.0, 1.0, 2 ** bits + 1)
    cols = np.arange(len(lo) * len(offsets))
    at = (np.repeat(comp, len(offsets)), np.repeat(row, len(offsets)), cols)
    rows = np.arange(len(lo))
    for _ in range(-(-_ZOOM_BITS // bits)):
        pts = lo[:, None] + (hi - lo)[:, None] * offsets[None, :]
        vals = _pick(evaluate(pts.ravel(), int(row.max())), *at).reshape(pts.shape)
        nonpos = vals[:, :-1] * vals[:, 1:] <= 0.0
        idx = np.argmax(nonpos, axis=1)
        idx = np.where(nonpos.any(axis=1), idx, 0)
        lo = pts[rows, idx]
        hi = pts[rows, idx + 1]
    return lo, hi


def _newton(evaluate, x, lo, hi, comp, row, steps: int = 3):
    """Guarded vectorized Newton on jet row ``row`` of component ``comp``;
    iterates that leave [lo, hi] are dropped.

    Returns the final iterates and the jets of every component at them,
    at Newton's order ``row.max() + 1``.  A step that leaves every iterate
    unchanged bit for bit ends the loop, since each later step would
    repeat it, and the evaluation it made is those jets; when the steps
    run out, one more evaluation at the last iterates gives them.
    """
    order = int(row.max()) + 1
    cols = np.arange(len(x))
    for _ in range(steps):
        j = evaluate(x, order)
        fv = _pick(j, comp, row, cols)
        dfv = _pick(j, comp, row + 1, cols) * (row + 1)
        safe = np.abs(dfv) > 0.0
        step = np.where(safe, fv / np.where(safe, dfv, 1.0), 0.0)
        xn = x - step
        ok = (xn >= lo) & (xn <= hi) & np.isfinite(xn)
        xn = np.where(ok, xn, x)
        if xn.tobytes() == x.tobytes():
            return x, j
        x = xn
    return x, evaluate(x, order)


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
        comp = np.zeros(len(dips), dtype=int)
        _, jets = _newton(_fun_source(sq), 0.5 * (lo + hi), lo, hi, comp, comp + 1,
                          steps=8)
        lowest = min(lowest, float(np.min(jets[0][0])))
    return lowest


def _dedup(sorted_roots: Sequence[float], tol: float) -> list[float]:
    """Means of the runs of sorted roots that lie within tol of a neighbour."""
    r = np.asarray(sorted_roots, dtype=float)
    starts = np.flatnonzero(np.diff(r, prepend=-np.inf) > tol)
    return (np.add.reduceat(r, starts) / np.diff(starts, append=len(r))).tolist()


# -- contact orders -----------------------------------------------------------


def _first_significant(mags: np.ndarray, scales) -> np.ndarray:
    """The contact-order rule: per row of |jet coefficients|, the first
    index above max(VANISH_REL * running, VANISH_ABS), -1 if none.

    ``running`` is the prefix maximum seeded with the row's scale, not the
    whole-jet maximum: coefficients of frame quotients can grow
    geometrically, and rounding noise at index k stems from indices <= k.
    """
    running = np.maximum.accumulate(np.maximum(mags, np.reshape(scales, (-1, 1))), axis=1)
    above = mags > np.maximum(VANISH_REL * running, VANISH_ABS)
    return np.where(above.any(axis=1), np.argmax(above, axis=1), -1)


def contact_order(f, t0: float, max_order: int = DEFAULT_ORDER,
                  scale: float = 0.0) -> Optional[int]:
    """Smallest r >= 1 with a non-vanishing r-th jet coefficient at a zero.

    ``scale`` is an optional magnitude of f on its interval; passing it
    makes the vanishing test robust for functions with large prefactors.
    Returns None when every coefficient up to max_order vanishes, which the
    signature machinery reports as "contact order exceeds jet order".
    """
    jet = ScalarFun.wrap(f).jet(float(t0), max_order)
    idx = int(_first_significant(np.abs(jet.array.reshape(1, -1)), scale)[0])
    if idx == 0:
        raise SignatureError("not a zero point")
    return None if idx < 0 else idx


# -- signatures ---------------------------------------------------------------


def signature(source) -> Signature:
    """Signature of a curve or of a curvature pair.

    Zeros of ell and beta are located together and their contact orders
    read from one jet sweep; zeros of the two components that coincide
    within the merge tolerance are recorded as a single point of kind
    "both".  For a closed curve a zero sitting at both endpoints is
    recorded once.
    """
    pair = source if isinstance(source, CurvaturePair) else source.curvature_pair()
    evaluate = _source(pair.jets)
    ts, values, scales = _scan(evaluate, pair.domain, _GRID_N)
    vanishing = _vanishing(scales)
    if vanishing[1]:
        raise DegenerateCurveError("degenerate: constant curve")
    ell_identically_zero = bool(vanishing[0])

    comps = (1,) if ell_identically_zero else (0, 1)
    roots, newton = _zeros(evaluate, ts, values, scales, comps, _ROOT_TOL, pair.closed)
    orders = _contact_orders(evaluate, roots, scales, DEFAULT_ORDER, newton)
    zeros = _merge_zeros(roots[0], orders[0], roots[1], orders[1], _MERGE_TOL)
    return Signature(domain=pair.domain, closed=pair.closed,
                     ell_identically_zero=ell_identically_zero, zeros=tuple(zeros))


def is_immersion(curve, samples: int = 2048) -> ImmersionReport:
    """Check (ell, beta) != (0, 0) everywhere; witnesses are common zeros.

    Both components come from one order-0 ``CurvaturePair.jets`` scan on
    a grid of ``samples`` steps and their zeros from one joint search, with
    the zero-function test, root and coincidence tolerances of
    ``signature``.
    """
    evaluate = _source(curve.curvature_pair().jets)
    ts, (ev, bv), scales = _scan(evaluate, curve.domain, samples)
    min_combined = float(np.min(np.maximum(np.abs(ev), np.abs(bv))))
    vanishing = _vanishing(scales)
    if vanishing.all():  # every point degenerate
        return ImmersionReport(False, tuple(float(t) for t in ts[:: max(1, samples // 8)]),
                               min_combined)
    # Where one component is the zero function the zeros of the other are
    # witnesses; otherwise the witnesses are the common zeros.
    comps = [c for c in (0, 1) if not vanishing[c]]
    (ell_zeros, beta_zeros), _ = _zeros(evaluate, ts, [ev, bv], scales, comps, _ROOT_TOL,
                                        False)
    if len(comps) == 2:
        witnesses = [r for r in ell_zeros
                     if any(abs(r - s) <= _MERGE_TOL for s in beta_zeros)]
    else:
        witnesses = ell_zeros + beta_zeros
    witnesses = sorted(set(witnesses))
    return ImmersionReport(ok=(not witnesses), witnesses=tuple(witnesses),
                           min_combined=min_combined)


def _contact_orders(evaluate, roots: list[list[float]], scales: np.ndarray,
                    max_order: int, newton) -> list[list[int]]:
    """Contact orders at the zeros of every component.

    The order of a zero is given by ``_first_significant`` against the
    component's scale.  Its answer for coefficient k does not depend on
    the truncation order.  So ``newton``, the final iterates of
    ``_zeros`` with their components and jets, settles every zero that is
    bitwise one of those iterates of its component and whose order those
    jets reach.  A sweep at ``_FIRST_SWEEP`` settles the rest of lower
    order, and only the zeros it leaves open are evaluated again at
    ``max_order``.  A read of order 0 is left to the sweeps, which report
    it.
    """
    comp = np.repeat(np.arange(len(roots)), [len(r) for r in roots])
    orders: list[list[int]] = [[] for _ in roots]
    if not len(comp):
        return orders
    pts = np.concatenate(roots)
    x, x_comp, jets = newton
    same = (pts.view(np.int64)[:, None] == x.view(np.int64)) & (comp[:, None] == x_comp)
    known = np.nonzero(same.any(axis=1))[0]
    first = np.full(len(comp), -1)
    if len(known):
        read = _read_orders(jets, comp[known], np.argmax(same[known], axis=1), scales)
        first[known] = np.where(read > 0, read, -1)
    for order in sorted({min(_FIRST_SWEEP, max_order), max_order}):
        at = np.nonzero(first < 0)[0]
        if not len(at):
            break
        first[at] = _read_orders(evaluate(pts[at], order), comp[at], range(len(at)), scales)
    for c, r in zip(comp, first):
        if r < 0:
            raise SignatureError("contact order exceeds jet order")
        if r == 0:
            raise SignatureError("not a zero point")
        orders[c].append(int(r))
    return orders


def _read_orders(arrays, comp, cols, scales: np.ndarray) -> np.ndarray:
    """``_first_significant`` of column cols[i] of the jets of comp[i]."""
    mags = np.abs([arrays[c][:, i] for c, i in zip(comp, cols)])
    return _first_significant(mags, scales[comp])


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
