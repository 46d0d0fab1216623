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
of the AST tuple (ell, beta) by ``eval_jet_many``, whose jets are stacked
into one ``(components, order + 1, len(pts))`` array: ``jets[comp, row,
cols]`` is the row each candidate drives to zero.  Newton starts each
sign-change bracket at its false-position point, built from the two grid
values the scan holds, and keeps the bracket by the grid sign at its left
end.  The residual check is no evaluation of its own: it reads the jets of
Newton's final iterates.

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
germ signature reads), ``find_zeros`` and ``_common_zeros``: a component is
the zero function when its scale (max |f| on the grid) is <=
``_ZERO_FUN_REL`` times its reference, the larger of the scale of the two
terms of its outermost sum or difference (its own if it is neither), read
from the scan's tape run, and a floor in its own unit: 1 / (b - a) for ell,
a total turning; 0 for beta; the caller's for the others.  No component is
judged against another.  A candidate is a root when |f| <= ``_ROOT_TOL`` *
scale.  Decisions in t read the parameter unit L = (b - a) / 2 pi, so they
hold under t -> s t: the contact order is the first k with |c_k| L^k above
``VANISH_REL`` * running prefix maximum (seeded with the scale); points
within ``curves._same_point_tol``, ``_MERGE_TOL`` * L, are one point
(roots, the seam, zeros of ell and beta).
Every tape run refuses a jet that is not finite, naming its t.  All three
run one search on one grid of ``_GRID_N`` steps.
``_common_zeros`` alone answers "does it vanish somewhere on the domain":
``is_immersion`` asks it of (ell, beta), ``derive_nu`` of (x', y'),
``reparametrize`` of t' with the domains' slope as its floor and
``pushforward_diffeo_curve`` of det J o gamma.

``signature`` is memoized per question: the structure key of the
compiled tape of (ell, beta) (its instructions, the repr of each constant
and its output slots, pickled), the domain and the closed flag.  The
key is exact and compared in full, and it is built only when
``signature`` asks, from the tape it compiles or finds anyway.  Equal
pairs share an entry however they were built: a curve and each of its
``curvature_pair()``, a spec loaded twice, a normal form built again.  So
equivalence questions over a set of curves, germ signatures at several
points of one curve, or the classes of the local classification run one
zero search per distinct question.  The memo keeps the ``_MEMO_SIZE``
most recently asked, least recently used out first; only a result is
stored, and a refusal is searched, and raised, again.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .curves import (CurvaturePair, _check_domain, _finite, _integers, _param_unit,
                     _reals, _require_finite, _same_point_tol)
from .errors import CurveError, DegenerateCurveError, RootScanError, SignatureError
from .exprs import _TAPES, ScalarFun, _Tape, eval_jet_many
from .jets import DEFAULT_ORDER

#: Scale-free coefficient vanishing test of the contact-order rule.
VANISH_REL = 1e-9


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
        """The recorded zero at the same point as ``t``, or None; on a closed
        signature the two ends are one point, so either end reads the seam zero."""
        tol = _same_point_tol(self.domain)
        period = self.domain[1] - self.domain[0] if self.closed else 0.0
        return next((z for z in self.zeros
                     if min(abs(z.t - t), abs(abs(z.t - t) - period)) <= tol), None)

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
_ZERO_FUN_REL = 1e-10  # zero function: scale vs the reference


def find_zeros(f, domain: tuple[float, float], half_open: bool = False) -> list[float]:
    """Locate the zeros of an evaluable scalar function on an interval.

    The one-component case of the joint search ``signature`` runs on
    (ell, beta), see ``_zeros``, on the same grid and with the same root
    tolerance: an order-0 scan of the grid gathers the candidates, one
    order-1 seed run reads f' near small |f| and the jets at Newton's
    starts, each later Newton run is one evaluation, and the residual
    check reads Newton's final jets.  Roots at the same point
    (``curves._same_point_tol``) are one.  With ``half_open`` a root at the
    right endpoint is left out when one at the left endpoint is kept, which
    is how closed curves record a seam zero once.
    """
    domain = _check_domain(domain)
    asts = (ScalarFun.wrap(f).ast,)
    ts, values, scales, terms = _scan(asts, domain)
    if _vanishing(scales, terms)[0]:
        raise RootScanError(_NON_FINITE)
    return _zeros(asts, ts, values, scales, (0,), half_open)[0][0]


def _scan(asts, domain: tuple[float, float]):
    """The uniform grid of ``_GRID_N`` steps, the values of the ASTs on it,
    each one's scale (max |f|) and the larger scale of its two
    ``_Tape.terms``, all from one order-0 tape run.  A value that is not
    finite raises ``RootScanError`` naming its t; a finite sum has finite
    terms."""
    ts = np.linspace(float(domain[0]), float(domain[1]), _GRID_N + 1)
    n = len(asts)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = [jet[0] for jet in _TAPES.get(tuple(asts), _Tape).run(ts, 0, terms=True)]
    scales = np.array([np.abs(row).max() for row in rows])  # the components', then their terms'
    if not np.isfinite(scales[:n]).all():  # max |f| is finite exactly when every f is
        _require_finite(ts, "function value", *rows[:n], error=RootScanError)
    return ts, rows[:n], scales[:n], scales[n:].reshape(n, 2).max(axis=1)


def _vanishing(scales: np.ndarray, terms: np.ndarray, floors=0.0) -> np.ndarray:
    """The zero-function test: which components are identically zero, with
    scales at most ``_ZERO_FUN_REL`` times the larger of their terms' scale
    and their floors, the rounding bound of a sum."""
    return scales <= _ZERO_FUN_REL * np.maximum(terms, floors)


def _zeros(asts, ts: np.ndarray, values, scales: np.ndarray,
           comps: Sequence[int], half_open: bool):
    """Zeros of the components ``comps`` of an AST tuple, refined together.

    ``values`` and ``scales`` come from ``_scan`` on the grid ``ts``.  A
    candidate other than a sign-change bracket of f, inside which Newton
    keeps its iterate, counts as a zero only when |f| <= _ROOT_TOL * scale,
    read from Newton's final jets.
    Returns one sorted root list per component, empty for the components
    not in ``comps``, and the final iterates Newton kept as zeros, their
    components and the ``(components, order + 1, kept)`` array of their jets.
    """
    a, b = float(ts[0]), float(ts[-1])
    tol = _same_point_tol((a, b))
    (lo, hi, x, sign, comp, row), jets = _candidates(asts, ts, values, scales, comps)
    x, jets = _newton(asts, x, jets, lo, hi, sign, comp, row)
    fx = jets[comp, 0, np.arange(len(x))]
    keep = ((sign != 0) & (row == 0)) | (np.abs(fx) <= _ROOT_TOL * scales[comp])

    roots: list[list[float]] = [[] for _ in values]
    for c in comps:
        found = _dedup(sorted(x[keep & (comp == c)].tolist()), tol)
        if half_open and len(found) > 1 and found[0] - a <= tol and b - found[-1] <= tol:
            found.pop()  # the seam zero, kept at a
        _refuse_past_cap(len(found), len(ts) - 1)
        roots[c] = found
    return roots, (x[keep], comp[keep], jets[:, :, keep])


def _refuse_past_cap(count: int, grid_n: int) -> None:
    """Refuse more kept zeros, sign changes or touch brackets of one
    component than a quarter of the grid steps: the grid cannot resolve them."""
    cap = max(1, grid_n // 4)
    if count > cap:
        raise RootScanError(f"more than {cap} zeros of one component on the {grid_n}-step "
                            "grid: zero set appears non-finite or unresolved; refine or reject")


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
    component and row, and the jets of every component at the starts,
    one ``(components, order + 1, starts)`` array.
    """
    grid_n = len(ts) - 1
    a, b = float(ts[0]), float(ts[-1])
    h = (b - a) / grid_n
    # Critical points are touch-zero candidates only where |f| is already
    # small; the pre-filter keeps the derivative scan from chasing
    # noise-level sign changes of f' (a constant f has f' at rounding
    # level everywhere).
    pre_tols = _pre_tols(scales, grid_n)
    mags = {c: np.abs(values[c]) for c in comps}
    near = {c: np.minimum(mags[c][:-1], mags[c][1:]) <= pre_tols[c] for c in comps}
    ends = np.zeros(grid_n + 1, dtype=bool)  # the ends of the near cells
    for cells in near.values():
        ends[:-1] |= cells
        ends[1:] |= cells
    at = ends.nonzero()[0]
    brackets, starts = [], [ts[at]]
    for c in comps:
        v = values[c]
        i = _sign_changes(v)
        _refuse_past_cap(len(i) + np.count_nonzero(v == 0.0), grid_n)
        # The false-position point.  f(lo) and f(hi) have opposite signs, so
        # the weight is in [0, 1], and 0 when f(lo) - f(hi) overflows.
        with np.errstate(over="ignore"):
            w = v[i] / (v[i] - v[i + 1])
        first = sum(map(len, starts))
        brackets.append((i, np.arange(first, first + len(i))))
        starts.append(np.minimum(np.maximum(ts[i] + (ts[i + 1] - ts[i]) * w, ts[i]), ts[i + 1]))
    pts = np.concatenate(starts + [[a, b]])
    seed = _jets(asts, pts, 1)
    endpoint_cols = [len(pts) - 2, len(pts) - 1]
    groups = []
    for c, (i, fp_cols) in zip(comps, brackets):
        # Every grid zero and every end of a near cell is an entry of at,
        # and the two ends of a near cell are consecutive entries.
        v, dv = values[c][at], seed[c, 1, :len(at)]
        touch = _sign_changes(dv)
        touch = touch[near[c][at[touch]]]
        crit = ((dv == 0.0) & (mags[c][at] <= pre_tols[c])).nonzero()[0]
        _refuse_past_cap(len(touch) + len(crit), grid_n)
        exact = np.concatenate([(v == 0.0).nonzero()[0], crit])
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
    jets = _jets(asts, x, 2) if row.max() == 1 else seed[:, :, cols]
    return (lo, hi, x, sign, comp, row), jets


def _jets(asts, pts: np.ndarray, order: int) -> np.ndarray:
    """One tape run of the search: the jets of every component at ``pts``,
    one ``(components, order + 1, len(pts))`` array.  A jet that is not
    finite raises ``RootScanError`` naming its t."""
    with np.errstate(over="ignore", invalid="ignore"):
        jets = np.stack(eval_jet_many(asts, pts, order))
    _require_finite(pts, "jet", jets.T, error=RootScanError)
    return jets


def _sign_changes(v: np.ndarray) -> np.ndarray:
    """The i with v[i] and v[i + 1] of strictly opposite signs, compared
    by sign so that no product overflows or underflows."""
    s = np.sign(v)
    return (s[:-1] * s[1:] < 0.0).nonzero()[0]


def _pre_tols(scales: np.ndarray, grid_n: int) -> np.ndarray:
    """The pre-filter: per component, the |f| at or below which a grid
    cell is searched for a touch zero."""
    return max(_ROOT_TOL, 400.0 / grid_n ** 2) * scales


def _newton(asts, x, jets, lo, hi, sign, comp, row):
    """Safeguarded vectorized Newton on jet row ``row`` of component ``comp``.

    ``x`` are the starts from ``_candidates`` and ``jets`` every component's
    jets at them, one ``(components, order + 1, len(x))`` array whose order
    is Newton's; each run overwrites the columns of the iterates it moved.
    A nonzero ``sign`` marks a bracket [lo, hi] of the row whose lo end has
    that sign: each iterate replaces the end of its sign.  Any other start
    lies in its guard [lo, hi].  A step is m f/f', with m >= 1 the secant
    slope of x against f/f' over the last two iterates, rounded: f/f' has
    a simple zero at a zero of any order, so m is that order and the steps
    converge quadratically where plain Newton would crawl.  A step that
    leaves a bracket goes to its midpoint instead; one that leaves a guard
    is dropped.  An iterate is final once its step is within 2^-32 of its
    cell, or after ``_NEWTON_RUNS`` runs, the one at the starts included.

    Returns the final iterates and that array, each column from the run at
    its iterate.
    """
    order = jets.shape[1] - 1
    n = len(x)
    cols = np.arange(n)
    bracket = sign != 0
    tol = 2.0 ** -32 * (hi - lo)
    x_prev = u_prev = np.full(n, np.nan)
    live = np.ones(n, dtype=bool)
    for _ in range(_NEWTON_RUNS - 1):
        f = jets[comp, row, cols]
        with np.errstate(all="ignore"):  # a step that is not finite is dropped below
            u = np.where(f == 0.0, 0.0, f / (jets[comp, row + 1, cols] * (row + 1)))
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
        at = live.nonzero()[0]
        jets[:, :, at] = _jets(asts, x[at], order)
    return x, jets


def _dedup(sorted_roots: Sequence[float], tol: float) -> list[float]:
    """Means of the runs of sorted roots that lie within ``tol`` of a neighbour."""
    runs: list[list[float]] = []
    for r in sorted_roots:
        if runs and r - runs[-1][-1] <= tol:
            runs[-1].append(r)
        else:
            runs.append([r])
    return [sum(run) / len(run) for run in runs]


# -- contact orders -----------------------------------------------------------


def _first_significant(coeffs: np.ndarray, scales: np.ndarray, unit: float) -> np.ndarray:
    """The contact-order rule: per row of jet coefficients c_k, the first k
    with |c_k| unit^k above VANISH_REL * running, -1 if none.

    ``running`` is the prefix maximum of |c_j| unit^j, j < k, seeded with
    the row's scale, not the whole-jet maximum: coefficients of frame
    quotients can grow geometrically, and rounding noise at index k stems
    from indices <= k.
    """
    # unit^k is clipped to the float range, so a zero c_k reads 0; a product
    # past the range reads inf, which passes
    with np.errstate(over="ignore"):
        powers = np.minimum(unit ** np.arange(coeffs.shape[1]), np.finfo(float).max)
        mags = np.abs(coeffs) * powers
    running = np.maximum.accumulate(np.column_stack([scales, mags[:, :-1]]), axis=1)
    above = mags > VANISH_REL * running
    return np.where(above.any(axis=1), above.argmax(axis=1), -1)


# -- signatures ---------------------------------------------------------------


#: The signature memo holds at most this many signatures, least recently
#: used first, so the 36 normal forms of the local classification with
#: orders up to 5 stay in while one-off images pass through.  The key of a
#: gallery curve's image and its signature take about 0.45 kB and 0.65 kB,
#: so a full memo holds about 1.1 MB.
_MEMO_SIZE = 1024

#: The memo: each signature under its question, the structure key of the
#: tape of (ell, beta) plus the repr of (a, b, closed), least recently used
#: first; and the lock that keeps it whole.
_SIGNATURES: dict = {}
_SIGNATURES_LOCK = threading.Lock()


def signature(source) -> Signature:
    """Signature of a curve or of a curvature pair.

    Zeros of ell and beta are located together and their contact orders
    read from one jet sweep; zeros of the two components that coincide
    within the merge tolerance are recorded as a single point of kind
    "both".  For a closed curve a zero sitting at both endpoints is
    recorded once.

    The signature is memoized per question: the structure of the compiled
    tape of (ell, beta), the domain and the closed flag.  Equal pairs share
    one search however they were built (a curve and its
    ``curvature_pair()``, a spec loaded twice, a normal form built again),
    and a repeated question returns the same ``Signature`` object while it
    is among the ``_MEMO_SIZE`` most recently asked.  A refusal is not
    stored.
    """
    pair = source if isinstance(source, CurvaturePair) else source.curvature_pair()
    key = _memo_key(pair)
    with _SIGNATURES_LOCK:
        sig = _SIGNATURES.pop(key, None)
        if sig is not None:
            _SIGNATURES[key] = sig
            return sig
    sig = _search((pair.ell.ast, pair.beta.ast), pair.domain, pair.closed)
    with _SIGNATURES_LOCK:
        _SIGNATURES[key] = sig
        while len(_SIGNATURES) > _MEMO_SIZE:
            del _SIGNATURES[next(iter(_SIGNATURES))]
    return sig


def _memo_key(pair: CurvaturePair) -> bytes:
    """The question ``signature`` asks of a pair: the structure key of the
    tape of (ell, beta), compiled here or found in the tape memo, and the
    repr of (a, b, closed), which tells -0.0 from 0.0 and True from 1 as the
    signature's JSON does."""
    tape = _TAPES.get((pair.ell.ast, pair.beta.ast), _Tape)
    return tape.key() + repr((*pair.domain, pair.closed)).encode()


def _search(asts, domain: tuple[float, float], closed: bool) -> Signature:
    """The zero search of ``signature`` on the AST pair (ell, beta)."""
    ts, values, scales, terms = _scan(asts, domain)
    floors = (1.0 / (domain[1] - domain[0]), 0.0)  # ell's total turning, in rad
    ell_identically_zero, degenerate = _vanishing(scales, terms, floors).tolist()
    if degenerate:
        raise DegenerateCurveError("degenerate: constant curve")

    comps = (1,) if ell_identically_zero else (0, 1)
    roots, newton = _zeros(asts, ts, values, scales, comps, closed)
    orders = _contact_orders(asts, roots, scales, _param_unit(domain), newton)
    zeros = _merge_zeros(roots[0], orders[0], roots[1], orders[1], _same_point_tol(domain))
    return Signature(domain=domain, closed=closed,
                     ell_identically_zero=ell_identically_zero, zeros=tuple(zeros))


def is_immersion(curve) -> ImmersionReport:
    """Check (ell, beta) != (0, 0) everywhere, by ``_common_zeros``: the
    witnesses are the common zeros, ``min_combined`` the least max(|ell|, |beta|)."""
    pair, (a, b) = curve.curvature_pair(), curve.domain
    return _common_zeros((pair.ell.ast, pair.beta.ast), curve.domain, (1.0 / (b - a), 0.0))


def _common_zeros(asts, domain: tuple[float, float], floors=0.0) -> ImmersionReport:
    """Where all components of an AST tuple vanish together.

    One ``_scan``, the zero-function test against ``floors``, one joint
    ``_zeros`` search and the same-point coincidence.  The witnesses are
    nine grid points when every component is the zero function; none,
    without a search, when one keeps its sign above the pre-filter, so that
    the search has no candidate of it; otherwise the common zeros.
    ``min_combined`` is the least max |f| of the components on the grid
    and at the zeros Newton kept.
    """
    ts, values, scales, terms = _scan(asts, domain)
    min_combined = float(np.min(np.max(np.abs(values), axis=0)))
    vanishing = _vanishing(scales, terms, floors)
    if vanishing.all():  # every point degenerate
        return ImmersionReport(False, tuple(float(t) for t in ts[::_GRID_N // 8]), min_combined)
    comps = [c for c in range(len(asts)) if not vanishing[c]]
    pre_tols = _pre_tols(scales, _GRID_N)
    if any(np.min(values[c] * np.sign(values[c][0])) > pre_tols[c] for c in comps):
        return ImmersionReport(True, (), min_combined)
    roots, (_, _, jets) = _zeros(asts, ts, values, scales, comps, False)
    min_combined = float(np.min(np.abs(jets[:, 0]).max(axis=0), initial=min_combined))
    first, *others = (roots[c] for c in comps)
    tol = _same_point_tol(domain)
    witnesses = sorted({r for r in first
                        if all(any(abs(r - s) <= tol for s in other) for other in others)})
    return ImmersionReport(ok=(not witnesses), witnesses=tuple(witnesses),
                           min_combined=min_combined)


def _contact_orders(asts, roots: list[list[float]], scales: np.ndarray, unit: float,
                    newton) -> list[list[int]]:
    """Contact orders at the zeros of every component.

    The order of a zero is given by ``_first_significant`` against the
    component's scale and the parameter unit.  Its answer for coefficient k
    does not depend on the truncation order.  So ``newton``, the final
    iterates ``_zeros`` kept, with their components and jets, settles every
    zero that is bitwise one of those iterates of its component and whose
    order those jets reach.  A sweep at ``_FIRST_SWEEP`` settles the rest of
    lower order, and only the zeros it leaves open are evaluated again at
    ``DEFAULT_ORDER``.  Each read indexes Newton's or a sweep's jet array by
    zero, ``jets[comp, :, cols]``.  A read of order 0 is left to the sweeps,
    which report it.
    """
    comp = np.repeat(np.arange(len(roots)), [len(r) for r in roots])
    orders: list[list[int]] = [[] for _ in roots]
    if not len(comp):
        return orders
    pts = np.concatenate(roots)
    x, x_comp, jets = newton
    same = (pts.view(np.int64)[:, None] == x.view(np.int64)) & (comp[:, None] == x_comp)
    known = same.any(axis=1).nonzero()[0]
    first = np.full(len(comp), -1)
    coeffs = jets[comp[known], :, same[known].argmax(axis=1)]
    read = _first_significant(coeffs, scales[comp[known]], unit)
    first[known] = np.where(read > 0, read, -1)
    for order in (_FIRST_SWEEP, DEFAULT_ORDER):
        at = (first < 0).nonzero()[0]
        if not len(at):
            break
        coeffs = _jets(asts, pts[at], order)[comp[at], :, np.arange(len(at))]
        first[at] = _first_significant(coeffs, scales[comp[at]], unit)
    for c, r in zip(comp, first):
        if r < 0:
            raise SignatureError("contact order exceeds jet order")
        if r == 0:
            raise SignatureError("not a zero point")
        orders[c].append(int(r))
    return orders


def _merge_zeros(ell_roots, ell_orders, beta_roots, beta_orders, tol):
    zeros: list[ZeroPoint] = []
    i = j = 0
    while i < len(ell_roots) or j < len(beta_roots):
        take_ell = i < len(ell_roots)
        take_beta = j < len(beta_roots)
        if take_ell and take_beta and abs(ell_roots[i] - beta_roots[j]) <= tol:
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
    """The signature that ``signature_to_dict`` wrote, checked field by field.

    A valid signature has a finite domain [a, b] with a < b, JSON booleans
    for ``closed`` and ``ell_identically_zero``, and a list of zeros
    strictly increasing inside [a, b], each a finite ``t``, a kind and
    integer contact orders >= 1 present exactly as ``ZeroPoint`` requires.
    Anything else, a missing field included, raises SignatureError.
    """
    if not isinstance(data, dict):
        raise SignatureError("signature must be a JSON object")
    try:
        domain, closed, flat, zeros = (data[k] for k in (
            "domain", "closed", "ell_identically_zero", "zeros"))
    except KeyError as missing:
        raise SignatureError(f"signature is missing field {missing}") from None
    if not (isinstance(domain, (list, tuple)) and len(domain) == 2
            and _reals(*domain) and _finite(*domain)):
        raise SignatureError("signature field 'domain' must hold two finite numbers")
    try:
        a, b = _check_domain(domain)
    except CurveError as err:
        raise SignatureError(str(err)) from None
    if not (isinstance(closed, bool) and isinstance(flat, bool)):
        raise SignatureError("signature fields 'closed' and 'ell_identically_zero' "
                             "must be true or false")
    if not isinstance(zeros, (list, tuple)):
        raise SignatureError("signature field 'zeros' must be a list")
    zeros = tuple(map(_zero_from_dict, zeros))
    ts = [z.t for z in zeros]
    if not (all(a <= t <= b for t in ts) and all(s < t for s, t in zip(ts, ts[1:]))):
        raise SignatureError("signature zeros must increase strictly inside the domain")
    return Signature(domain=(a, b), closed=closed, ell_identically_zero=flat, zeros=zeros)


def _zero_from_dict(z) -> ZeroPoint:
    if not (isinstance(z, dict) and "t" in z and "kind" in z):
        raise SignatureError(f"a signature zero must hold 't' and 'kind', got {z!r}")
    t, orders = z["t"], (z.get("ord_ell"), z.get("ord_beta"))
    if not (_reals(t) and _finite(t)):
        raise SignatureError(f"zero position {t!r} is not a finite number")
    if not all(o is None or (_integers(o) and o >= 1) for o in orders):
        raise SignatureError(f"contact orders {orders!r} must be integers >= 1")
    try:
        return ZeroPoint(float(t), z["kind"], *orders)
    except ValueError as err:  # an unknown kind, or orders that do not fit it
        raise SignatureError(f"invalid signature zero: {err}") from None


def dump_signature(sig: Signature) -> str:
    return json.dumps(signature_to_dict(sig), indent=2)
