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
component and the jet row it drives to zero; every Newton run and
contact-order sweep is then one evaluation of both, one run of the tape
of the AST tuple (ell, beta) by ``eval_jet_many``, whose jets are the
tape's ``(order + 1, len(pts))`` arrays.  Newton starts each sign-change
bracket at its false-position point, built from the two grid values the
scan holds, and keeps the bracket by the grid sign at its left end.  The
residual check is no evaluation of its own: it reads the jets of Newton's
final iterates.

Each evaluation carries only the Taylor orders its decision reads.  Taylor
recurrences are causal (coefficient k depends on coefficients 0..k only),
so a lower truncation changes no coefficient it keeps.  The grid scan reads
values only.  One order-1 evaluation, the seed run, follows it: it reads f'
at the ends of the cells where |f| is small, the only place the touch-zero
tests look, and f and f' at every start, which Newton's first step reads;
no run evaluates the two grid ends of a sign bracket.  Only a touch
bracket, whose Newton reads f'', costs one more run, at the starts.  The
contact order of a zero that is one of Newton's final iterates is read
from Newton's jets when they reach it.  The zeros they leave open go to a
low-order sweep, and only the zeros it leaves open are evaluated again at
the full jet order.

Each zero decision has one rule here, shared by ``signature`` (which the
germ signature reads), ``find_zeros`` and ``_common_zeros``: a component
is the zero function when its scale (max |f| on the grid) is <=
``_ZERO_FUN_REL`` times the largest scale, a reference's included, but
ell in ``signature``, a turning rate with units other than beta's, is
the zero function when its total turning, scale * (b - a), is <=
``_ZERO_FUN_REL`` rad; a candidate is a root when |f| <= ``_ROOT_TOL`` *
scale; the contact order is the first coefficient above ``VANISH_REL`` *
running prefix maximum (seeded with the scale) and ``VANISH_ABS``; zeros
within ``_MERGE_TOL`` coincide.  All three run one search on one grid of ``_GRID_N`` steps.
``_common_zeros`` alone answers "does it vanish somewhere on the domain":
``is_immersion`` asks it of (ell, beta), ``derive_nu`` of (x', y'),
``reparametrize`` of t' against the domains' slope and
``pushforward_diffeo_curve`` of det J o gamma against its products.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .curves import CurvaturePair, _check_domain, _require_finite
from .errors import DegenerateCurveError, RootScanError, SignatureError
from .exprs import ScalarFun, eval_jet_many
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

    def zero_at(self, t: float) -> Optional[ZeroPoint]:
        """The recorded zero within ``_MERGE_TOL`` of ``t``, or None; on a
        closed signature the right end reads the seam zero, kept at the left."""
        t = self.domain[0] if self.closed and abs(t - self.domain[1]) <= _MERGE_TOL else t
        return next((z for z in self.zeros if abs(z.t - t) <= _MERGE_TOL), None)

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
# The functions below search a tuple of univariate ASTs, one component
# each, evaluated by one tape run of ``eval_jet_many``.

_NON_FINITE = "zero set appears non-finite; refine or reject"
_NEWTON_RUNS = 8       # at most this many tape runs in one Newton loop
_FIRST_SWEEP = 4       # contact orders read first; gallery zeros have orders 1-3
_GRID_N = 4096         # grid steps of the signature scan
_ROOT_TOL = 1e-9       # a zero has |f| <= _ROOT_TOL * scale
_MERGE_TOL = 1e-8      # zeros of ell and beta this close coincide
_ZERO_FUN_REL = 1e-10  # zero function: scale vs the largest; ell: total turning, rad


def _pick(arrays, comp, row, cols) -> np.ndarray:
    """Entry (row[i], cols[i]) of the jet array of component comp[i]."""
    out = np.empty(len(cols))
    for c, array in enumerate(arrays):
        at = comp == c
        out[at] = array[row[at], cols[at]]
    return out


def find_zeros(f, domain: tuple[float, float], half_open: bool = False) -> list[float]:
    """Locate the zeros of an evaluable scalar function on an interval.

    The one-component case of the joint search ``signature`` runs on
    (ell, beta), see ``_zeros``, on the same grid and with the same root
    tolerance: an order-0 scan of the grid gathers the candidates, one
    order-1 seed run reads f' near small |f| and the jets at Newton's
    starts, each later Newton run is one evaluation, and the residual
    check reads Newton's final jets.  Roots are deduplicated
    within 1e-9.  With ``half_open`` the right endpoint is excluded, which
    is how closed curves record a seam zero once.
    """
    domain = _check_domain(domain)
    asts = (ScalarFun.wrap(f).ast,)
    ts, values, scales = _scan(asts, domain)
    return _zeros(asts, ts, values, scales, (0,), half_open)[0][0]


def _scan(asts, domain: tuple[float, float]):
    """The uniform grid of ``_GRID_N`` steps, the values of the ASTs on it
    from one order-0 evaluation, and each component's scale (max |f|).
    A value that is not finite raises ``RootScanError`` naming its t."""
    ts = np.linspace(float(domain[0]), float(domain[1]), _GRID_N + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        values = [jet[0] for jet in eval_jet_many(asts, ts, 0)]
    scales = np.array([np.max(np.abs(v)) for v in values])
    if not np.isfinite(scales).all():  # max |f| is finite exactly when every f is
        _require_finite(ts, "function value", *values, error=RootScanError)
    return ts, values, scales


def _vanishing(scales: np.ndarray) -> np.ndarray:
    """The zero-function test: which components are identically zero."""
    return scales <= _ZERO_FUN_REL * np.max(scales)


def _zeros(asts, ts: np.ndarray, values, scales: np.ndarray,
           comps: Sequence[int], half_open: bool):
    """Zeros of the components ``comps`` of an AST tuple, refined together.

    ``values`` and ``scales`` come from ``_scan`` on the grid ``ts``.  A
    candidate other than a sign-change bracket of f, inside which Newton
    keeps its iterate, counts as a zero only when |f| <= _ROOT_TOL * scale,
    read from Newton's final jets.
    Returns one sorted root list per component, empty for the components
    not in ``comps``, and the final iterates Newton kept as zeros, their
    components and their jets.
    """
    b = float(ts[-1])
    cap = max(1, (len(ts) - 1) // 4)
    (lo, hi, x, sign, comp, row), jets = _candidates(asts, ts, values, scales, comps)
    x, jets = _newton(asts, x, jets, lo, hi, sign, comp, row)
    fx = _pick(jets, comp, 0 * row, np.arange(len(x)))
    keep = ((sign != 0) & (row == 0)) | (np.abs(fx) <= _ROOT_TOL * scales[comp])

    roots: list[list[float]] = [[] for _ in values]
    for c in comps:
        found = _dedup(sorted(x[keep & (comp == c)].tolist()))
        if half_open:
            found = [r for r in found if abs(r - b) > 1e-9]
        if len(found) > cap:
            raise RootScanError(_NON_FINITE)
        roots[c] = found
    return roots, (x[keep], comp[keep], [array[:, keep] for array in jets])


def _candidates(asts, ts: np.ndarray, values, scales: np.ndarray,
                comps: Sequence[int]):
    """Starting points of the joint search, from the grid values, and the
    jets Newton's first step reads at them.

    Sign-change brackets of f, derivative brackets of touch zeros, exact
    grid zeros and the endpoints, each tagged with its component and the
    jet row it drives to zero.  A sign bracket starts at its false-position
    point, built from the grid values at its ends and clipped to the cell,
    ends included.  f' is read only at the ends
    of the cells where min |f| is below the pre-filter tolerance, the one
    place the derivative tests look.  One order-1 evaluation over all
    components, the seed run, reads those ends, the false-position points
    and the endpoints; the exact grid zeros are among the ends.  A touch
    bracket starts at its end with the smaller |f'|; when one exists, an
    order-2 evaluation at the starts replaces the seed run's jets, since
    Newton on f' reads f''.  Returns the arrays lo, hi, start, sign (of the
    bracketed row at lo from the grid; 0 for a start that is no bracket),
    component and row, and the jets of every component at the starts.
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
    pre_tols = _pre_tols(scales, grid_n)
    near = {c: np.minimum(np.abs(values[c][:-1]), np.abs(values[c][1:])) <= pre_tols[c]
            for c in comps}
    cells = np.logical_or.reduce(list(near.values()))
    at = np.nonzero(np.append(cells, False) | np.insert(cells, 0, False))[0]
    brackets, starts = [], [ts[at]]
    for c in comps:
        v = values[c]
        i = _sign_changes(v)
        if len(i) + np.count_nonzero(v == 0.0) > cap:
            raise RootScanError(_NON_FINITE)
        # The false-position point.  f(lo) and f(hi) have opposite signs, so
        # the weight is in [0, 1], and 0 when f(lo) - f(hi) overflows.
        with np.errstate(over="ignore"):
            w = v[i] / (v[i] - v[i + 1])
        first = sum(map(len, starts))
        brackets.append((i, np.arange(first, first + len(i))))
        starts.append(np.clip(ts[i] + (ts[i + 1] - ts[i]) * w, ts[i], ts[i + 1]))
    pts = np.concatenate(starts + [[a, b]])
    seed = eval_jet_many(asts, pts, 1)
    endpoint_cols = [len(pts) - 2, len(pts) - 1]
    groups = []
    for c, (i, fp_cols) in zip(comps, brackets):
        # Every grid zero and every end of a near cell is an entry of at,
        # and the two ends of a near cell are consecutive entries.
        v, dv = values[c][at], seed[c][1, :len(at)]
        touch = _sign_changes(dv)
        touch = touch[near[c][at[touch]]]
        crit = np.nonzero((dv == 0.0) & (np.abs(v) <= pre_tols[c]))[0]
        if len(touch) + len(crit) > cap:
            raise RootScanError(_NON_FINITE)
        exact = np.concatenate([np.nonzero(v == 0.0)[0], crit])
        # Exact grid zeros and the endpoints never produce a strict sign
        # change; they start where they are, inside [t, t] for the grid
        # points and inside their grid cell for the endpoints.  A touch
        # bracket starts at its end with the smaller |f'|.
        groups.append((
            np.concatenate([ts[i], ts[at[touch]], ts[at[exact]], [a, b - h]]),
            np.concatenate([ts[i + 1], ts[at[touch + 1]], ts[at[exact]], [a + h, b]]),
            np.concatenate([fp_cols, touch + (np.abs(dv[touch + 1]) < np.abs(dv[touch])),
                            exact, endpoint_cols]),
            np.concatenate([np.sign(values[c][i]), np.sign(dv[touch]),
                            np.zeros(len(exact) + 2)]),
            np.full(len(i) + len(touch) + len(exact) + 2, c),
            np.repeat([0, 1, 0], [len(i), len(touch), len(exact) + 2])))
    lo, hi, cols, sign, comp, row = (np.concatenate(col) for col in zip(*groups))
    x = pts[cols]
    # Newton on f' reads f''
    jets = eval_jet_many(asts, x, 2) if row.max() == 1 else [array[:, cols] for array in seed]
    return (lo, hi, x, sign, comp, row), jets


def _sign_changes(v: np.ndarray) -> np.ndarray:
    """The i with v[i] and v[i + 1] of strictly opposite signs, compared
    by sign so that no product overflows or underflows."""
    s = np.sign(v)
    return np.nonzero(s[:-1] * s[1:] < 0.0)[0]


def _pre_tols(scales: np.ndarray, grid_n: int) -> np.ndarray:
    """The pre-filter: per component, the |f| at or below which a grid
    cell is searched for a touch zero."""
    return max(_ROOT_TOL, 400.0 / grid_n ** 2) * scales


def _newton(asts, x, jets, lo, hi, sign, comp, row):
    """Safeguarded vectorized Newton on jet row ``row`` of component ``comp``.

    ``x`` are the starts from ``_candidates`` and ``jets`` the jets of
    every component at them; the order of those jets is Newton's order.
    A nonzero ``sign`` marks a bracket [lo, hi] of the row whose lo end has
    that sign: each iterate replaces the end of its sign.  Any other start
    lies in its guard [lo, hi].  A step is m f/f', with m >= 1 the secant
    slope of x against f/f' over the last two iterates, rounded: f/f' has
    a simple zero at a zero of any order, so m is that order and the steps
    converge quadratically where plain Newton would crawl.  A step that
    leaves a bracket goes to its midpoint instead; one that leaves a guard
    is dropped.  An iterate is final once its step is within 2^-32 of its
    cell, or after ``_NEWTON_RUNS`` runs, the one at the starts included.

    Returns the final iterates and the jets of every component at them,
    each from the run at the iterate.
    """
    order = len(jets[0]) - 1
    n = len(x)
    cols = np.arange(n)
    bracket = sign != 0
    tol = 2.0 ** -32 * (hi - lo)
    x_prev = u_prev = np.full(n, np.nan)
    live = np.ones(n, dtype=bool)
    for _ in range(_NEWTON_RUNS - 1):
        f = _pick(jets, comp, row, cols)
        with np.errstate(all="ignore"):  # a step that is not finite is dropped below
            u = np.where(f == 0.0, 0.0, f / (_pick(jets, comp, row + 1, cols) * (row + 1)))
            m = np.rint((x - x_prev) / (u - u_prev))
            xn = x - np.where(m >= 1.0, m, 1.0) * u
        left = np.sign(f) == sign
        lo = np.where(bracket & left, x, lo)
        hi = np.where(bracket & ~left, x, hi)
        xn = np.where((lo <= xn) & (xn <= hi), xn, np.where(bracket, 0.5 * (lo + hi), x))
        live &= np.abs(xn - x) > tol
        if not live.any():
            break
        x_prev, u_prev, x = x, u, np.where(live, xn, x)
        at = np.nonzero(live)[0]
        for array, new in zip(jets, eval_jet_many(asts, x[at], order)):
            array[:, at] = new
    return x, jets


def _dedup(sorted_roots: Sequence[float]) -> list[float]:
    """Means of the runs of sorted roots that lie within 1e-9 of a neighbour."""
    runs: list[list[float]] = []
    for r in sorted_roots:
        if runs and r - runs[-1][-1] <= 1e-9:
            runs[-1].append(r)
        else:
            runs.append([r])
    return [sum(run) / len(run) for run in runs]


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
    asts = (pair.ell.ast, pair.beta.ast)
    ts, values, scales = _scan(asts, pair.domain)
    if _vanishing(scales)[1]:
        raise DegenerateCurveError("degenerate: constant curve")
    a, b = pair.domain  # ell's total turning; scales[0] * (b - a) may overflow
    ell_identically_zero = bool(scales[0] <= _ZERO_FUN_REL / (b - a))

    comps = (1,) if ell_identically_zero else (0, 1)
    roots, newton = _zeros(asts, ts, values, scales, comps, pair.closed)
    orders = _contact_orders(asts, roots, scales, newton)
    zeros = _merge_zeros(roots[0], orders[0], roots[1], orders[1])
    return Signature(domain=pair.domain, closed=pair.closed,
                     ell_identically_zero=ell_identically_zero, zeros=tuple(zeros))


def is_immersion(curve) -> ImmersionReport:
    """Check (ell, beta) != (0, 0) everywhere, by ``_common_zeros``: the
    witnesses are the common zeros, ``min_combined`` the least max(|ell|, |beta|)."""
    pair = curve.curvature_pair()
    return _common_zeros((pair.ell.ast, pair.beta.ast), curve.domain)


def _common_zeros(asts, domain: tuple[float, float], refs: int = 0) -> ImmersionReport:
    """Where all searched components of an AST tuple vanish together.

    One ``_scan``, the zero-function test, one joint ``_zeros`` search and
    the ``_MERGE_TOL`` coincidence.  The last ``refs`` components are not
    searched, only joined to the scales of the zero-function test.  The
    witnesses are nine grid points when every searched component is the
    zero function; none, without a search, when one keeps its sign above
    the pre-filter, so that the search has no candidate of it; otherwise
    the common zeros.  ``min_combined`` is the least max |f| of the
    searched components on the grid and at the zeros Newton kept.
    """
    ts, values, scales = _scan(asts, domain)
    n = len(values) - refs
    min_combined = float(np.min(np.max(np.abs(values[:n]), axis=0)))
    vanishing = _vanishing(scales)[:n]
    if vanishing.all():  # every point degenerate
        return ImmersionReport(False, tuple(float(t) for t in ts[::_GRID_N // 8]), min_combined)
    comps = [c for c in range(n) if not vanishing[c]]
    pre_tols = _pre_tols(scales, _GRID_N)
    if any(np.min(values[c] * np.sign(values[c][0])) > pre_tols[c] for c in comps):
        return ImmersionReport(True, (), min_combined)
    roots, (_, _, jets) = _zeros(asts, ts, values, scales, comps, False)
    min_combined = float(np.min(np.abs([j[0] for j in jets[:n]]).max(axis=0),
                                initial=min_combined))
    first, *others = (roots[c] for c in comps)
    witnesses = sorted({r for r in first
                        if all(any(abs(r - s) <= _MERGE_TOL for s in other) for other in others)})
    return ImmersionReport(ok=(not witnesses), witnesses=tuple(witnesses),
                           min_combined=min_combined)


def _contact_orders(asts, roots: list[list[float]], scales: np.ndarray,
                    newton) -> list[list[int]]:
    """Contact orders at the zeros of every component.

    The order of a zero is given by ``_first_significant`` against the
    component's scale.  Its answer for coefficient k does not depend on
    the truncation order.  So ``newton``, the final iterates ``_zeros``
    kept, with their components and jets, settles every zero that is
    bitwise one of those iterates of its component and whose order those
    jets reach.  A sweep at ``_FIRST_SWEEP`` settles the rest of lower
    order, and only the zeros it leaves open are evaluated again at
    ``DEFAULT_ORDER``.  A read of order 0 is left to the sweeps, which
    report it.
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
    for order in (_FIRST_SWEEP, DEFAULT_ORDER):
        at = np.nonzero(first < 0)[0]
        if not len(at):
            break
        first[at] = _read_orders(eval_jet_many(asts, pts[at], order), comp[at],
                                 range(len(at)), scales)
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


def _merge_zeros(ell_roots, ell_orders, beta_roots, beta_orders):
    zeros: list[ZeroPoint] = []
    i = j = 0
    while i < len(ell_roots) or j < len(beta_roots):
        take_ell = i < len(ell_roots)
        take_beta = j < len(beta_roots)
        if take_ell and take_beta and abs(ell_roots[i] - beta_roots[j]) <= _MERGE_TOL:
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
    closed1, flat1, key1 = sig1.key()
    closed2, flat2, key2 = sig2.key()
    if closed1 != closed2:
        return EquivalenceVerdict(False, "none", "closed flags differ")
    if flat1 != flat2:
        return EquivalenceVerdict(False, "none", "ell zero-function flags differ")
    if (sig1.inflection_count != sig2.inflection_count
            or sig1.singular_count != sig2.singular_count):
        return EquivalenceVerdict(False, "none", "zero counts differ")
    if len(key1) != len(key2):
        return EquivalenceVerdict(False, "none", "zero coincidence patterns differ")

    if key1 == key2:
        return EquivalenceVerdict(True, "identity")
    rev2 = key2[::-1]
    if key1 == rev2:
        return EquivalenceVerdict(True, "reversal")
    n = len(key1)
    if closed1 and n > 0:
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
