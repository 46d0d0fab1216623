import contextlib
import json
import math
from unittest import mock

import numpy as np
import pytest

from hypothesis import example, given, settings, strategies as st

from legendre_curves import (DEFAULT_ORDER, AffineMap, CurvaturePair,
                             LegendreCurve, ScalarFun, Signature, ZeroPoint,
                             contact_order, decide_equivalence, dump_curve,
                             find_zeros, gallery, negate,
                             parity_check, pushforward_affine, pushforward_swap,
                             reparametrize, signature, signature_from_dict,
                             signature_to_dict)
from legendre_curves import exprs, signatures
from legendre_curves.errors import (DegenerateCurveError, RootScanError,
                                    SignatureError)

TWO_PI = 2 * math.pi

from conftest import brute_force_zeros


def test_find_zeros_sine_half_open():
    roots = find_zeros("6*sin(t)", (0, TWO_PI), half_open=True)
    assert roots == pytest.approx([0.0, math.pi], abs=1e-12)


def test_find_zeros_lissajous_numerator():
    roots = find_zeros("2*cos(t)*sin(2*t)-sin(t)*cos(2*t)", (0, TWO_PI), half_open=True)
    assert roots == pytest.approx([0.0, math.pi], abs=1e-12)


def test_find_zeros_touch_zero():
    assert find_zeros("t^2", (-1, 1)) == pytest.approx([0.0], abs=1e-12)
    assert find_zeros("(t-0.3712345)^2", (-1, 1)) == pytest.approx([0.3712345], abs=1e-9)
    # A dip short of zero is a touch candidate, but no root: the residual
    # check reads f, row 0 of Newton's jets, not the f' Newton drove to 0.
    assert find_zeros("(t-1.0123)^2 + 1e-6", (0, 2)) == []
    assert signature(CurvaturePair.from_exprs("1", "(t-1.0123)^2 + 1e-7", (0, 2))).zeros == ()


def test_find_zeros_against_brute_force():
    for text, domain, half_open in [
        ("6*sin(t)", (0.0, TWO_PI), True),
        ("2*cos(t)*sin(2*t)-sin(t)*cos(2*t)", (0.0, TWO_PI), True),
        ("sin(3*t)*exp(-t/2) + 0.001", (0.0, TWO_PI), False),
    ]:
        found = find_zeros(text, domain, half_open=half_open)
        oracle = brute_force_zeros(text, domain, n=200_000, half_open=half_open)
        assert len(found) == len(oracle)
        assert np.max(np.abs(np.array(found) - np.array(oracle))) <= 1e-8


def _record_runs(monkeypatch):
    """Patch the tape so every run logs its points and the order it runs
    at, one above the request for a curve's (ell, beta), whose ASTs hold
    one level of derivative nodes."""
    runs = []
    run = exprs._Tape.run

    def counted_run(self, t0, order):
        runs.append((np.array(t0, dtype=float), order + self.depth))
        return run(self, t0, order)

    monkeypatch.setattr(exprs._Tape, "run", counted_run)
    return runs


def _record_newton(monkeypatch, runs):
    """Patch ``_newton`` so every call logs the iterates it returns, their
    components, its order and the slice of ``runs`` its tape runs fill."""
    calls = []
    newton = signatures._newton

    def recorded(evaluate, x, lo, hi, comp, row, *args, **kwargs):
        start = len(runs)
        x, jets = newton(evaluate, x, lo, hi, comp, row, *args, **kwargs)
        calls.append({"x": x, "comp": comp, "order": int(row.max()) + 1,
                      "runs": slice(start, len(runs))})
        return x, jets

    monkeypatch.setattr(signatures, "_newton", recorded)
    return calls


def _newton_steps(runs, call):
    """Newton's tape runs: at its order, each at new points, the last at
    the iterates it returns.  Three steps, and one more run at the last
    iterates when no step stops the loop."""
    steps = runs[call["runs"]]
    assert 1 <= len(steps) <= 4
    assert all(order == call["order"] for _, order in steps)
    assert not any(np.array_equal(a, b) for (a, _), (b, _) in zip(steps, steps[1:]))
    assert np.array_equal(steps[-1][0], call["x"])
    return steps


@contextlib.contextmanager
def _fresh_newton_jets():
    """Oracle for the answers read off Newton's final jets (residuals and
    contact orders): hand them out as a fresh evaluation at the same
    points at ``DEFAULT_ORDER``, the truncation of a full read."""
    newton = signatures._newton

    def fresh(evaluate, *args, **kwargs):
        x, _ = newton(evaluate, *args, **kwargs)
        return x, evaluate(x, DEFAULT_ORDER)

    with mock.patch.object(signatures, "_newton", fresh):
        yield


def test_find_zeros_many_brackets_zoom_in_narrow_rounds(monkeypatch):
    # A run costs a fixed overhead plus a share per point, so few brackets
    # zoom in a few wide rounds; with 400 brackets every round stays at 17
    # points a bracket, eight rounds shrinking each by 16^8.  The runs are
    # the order-0 scan, f' near the small values, the order-0 zoom rounds
    # and Newton's order-1 runs.  The residual check reads Newton's last
    # run, so no run follows it.
    runs = _record_runs(monkeypatch)
    newton = _record_newton(monkeypatch, runs)

    def zoom_sizes():
        (scan, scan_order), (slopes, slope_order) = runs[:2]
        assert (len(scan), scan_order) == (2049, 0)
        assert slope_order == 1 and len(slopes) < len(scan)
        (call,) = newton
        assert call["order"] == 1 and call["runs"].stop == len(runs)
        steps = _newton_steps(runs, call)
        zoom = runs[2:call["runs"].start]
        assert all(order == 0 for _, order in zoom)
        return [len(pts) for pts, _ in zoom], [len(pts) for pts, _ in steps]

    roots = find_zeros("sin(200*t)", (0, TWO_PI))
    assert roots == pytest.approx([k * math.pi / 200 for k in range(401)], abs=1e-12)
    zoom, rest = zoom_sizes()
    assert len(zoom) == 8 and max(zoom) <= 17 * len(roots)
    assert max(rest) <= len(roots) + 2
    runs.clear()
    newton.clear()
    assert len(find_zeros("sin(t)", (0, TWO_PI))) == 3
    assert zoom_sizes()[0] == [257] * 4


def test_dedup_matches_loop_reference():
    from legendre_curves.signatures import _dedup

    def reference(sorted_roots, tol):
        out, cluster = [], []
        for r in sorted_roots:
            if cluster and r - cluster[-1] > tol:
                out.append(float(np.mean(cluster)))
                cluster = []
            cluster.append(r)
        if cluster:
            out.append(float(np.mean(cluster)))
        return out

    rng = np.random.default_rng(3)
    assert _dedup([], 1e-9) == []
    for _ in range(50):
        centres = np.sort(rng.uniform(-10.0, 10.0, rng.integers(1, 30)))
        sizes = rng.integers(1, 12, len(centres))
        roots = sorted(np.concatenate(
            [c + rng.uniform(0.0, 3e-9, k) for c, k in zip(centres, sizes)]).tolist())
        # Summation order differs from np.mean only for runs of 8 or more.
        assert _dedup(roots, 1e-9) == pytest.approx(reference(roots, 1e-9),
                                                     rel=1e-14, abs=1e-14)


def test_newton_step_that_overflows_is_dropped_without_a_warning():
    # at the endpoint candidates f' is subnormal, so f / f' overflows; the
    # step is dropped as one that leaves its bracket
    pair = CurvaturePair.from_exprs("1 + 1e-315*t", "2 + sin(t)", (0.0, TWO_PI))
    assert signature(pair).zeros == ()


def test_find_zeros_rejects_zero_function():
    with pytest.raises(RootScanError, match="non-finite"):
        find_zeros("0*t", (0, 1))


def test_contact_order_examples():
    assert contact_order("sin(t)", math.pi) == 1
    # curvature of the (3, 5) germ at its zero
    assert contact_order("30*t/(25*t^4+9)", 0.0) == 1
    assert contact_order("-t^2*sqrt(25*t^4+9)", 0.0) == 2


def test_contact_order_rejects_nonzero_point():
    with pytest.raises(SignatureError, match="not a zero point"):
        contact_order("sin(t)", 0.5)


def test_contact_order_beyond_jet_order_is_none():
    assert contact_order("t^13", 0.0, max_order=12) is None
    assert contact_order("t^13", 0.0, max_order=13) == 13


def test_signature_gamma_n3():
    sig = signature(gallery("gamma_n", {"n": 3}).curve)
    assert not sig.ell_identically_zero
    assert sig.closed
    assert [z.kind for z in sig.zeros] == ["singular", "singular"]
    assert [z.ord_beta for z in sig.zeros] == [1, 1]
    assert [z.t for z in sig.zeros] == pytest.approx([0.0, math.pi], abs=1e-9)


def test_signature_type_35_merges_to_both():
    pair = CurvaturePair.from_exprs("30*t/(25*t^4+9)", "-t^2*sqrt(25*t^4+9)", (-1, 1))
    sig = signature(pair)
    assert len(sig.zeros) == 1
    z = sig.zeros[0]
    assert (z.kind, z.ord_ell, z.ord_beta) == ("both", 1, 2)
    assert z.t == pytest.approx(0.0, abs=1e-9)


def test_signature_ell_identically_zero():
    sig = signature(gallery("gamma_m", {"m": 1}).curve)
    assert sig.ell_identically_zero
    assert [z.kind for z in sig.zeros] == ["singular", "singular"]
    assert all(z.ord_ell is None for z in sig.zeros)


def test_signature_order_exceeds_jet_order():
    pair = CurvaturePair.from_exprs("t^13", "1 + 0*t", (-1, 1))
    with pytest.raises(SignatureError, match="contact order exceeds jet order"):
        signature(pair)


def test_signature_degenerate_constant_curve():
    pair = CurvaturePair.from_exprs("1 + 0*t", "0*t", (0, 1))
    with pytest.raises(DegenerateCurveError, match="degenerate: constant curve"):
        signature(pair)


def test_decide_equivalence_self_identity():
    sig = signature(gallery("gamma_n", {"n": 3}).curve)
    v = decide_equivalence(sig, sig)
    assert v.equivalent and v.matching == "identity"


def test_decide_equivalence_gallery_pairs():
    sig5 = signature(gallery("gamma_n", {"n": 5}).curve)
    sigm3 = signature(gallery("gamma_m", {"m": 3}).curve)
    v = decide_equivalence(sig5, sigm3)
    assert v.equivalent

    sig3 = signature(gallery("gamma_n", {"n": 3}).curve)
    v = decide_equivalence(sig3, sig5)
    assert not v.equivalent
    assert v.reason == "zero counts differ"


def _sig(kinds_orders, closed, ell_zero=False, spacing=1.0):
    zeros = []
    for i, (kind, oe, ob) in enumerate(kinds_orders):
        zeros.append(ZeroPoint(i * spacing, kind, ord_ell=oe, ord_beta=ob))
    return Signature(domain=(0.0, len(kinds_orders) * spacing), closed=closed,
                     ell_identically_zero=ell_zero, zeros=tuple(zeros))


I, S = ("inflection", 2, None), ("singular", None, 1)


def test_decide_equivalence_reversal():
    a = _sig([I, S], closed=False)
    b = _sig([S, I], closed=False)
    v = decide_equivalence(a, b)
    assert v.equivalent and v.matching == "reversal"


def test_decide_equivalence_cyclic_shift():
    a = _sig([I, S, S], closed=True)
    b = _sig([S, I, S], closed=True)
    v = decide_equivalence(a, b)
    assert v.equivalent and v.matching.startswith("cyclic-shift")
    # same pattern on open curves is not matchable
    v_open = decide_equivalence(_sig([I, S, S], closed=False),
                                _sig([S, I, S], closed=False))
    assert not v_open.equivalent


def test_decide_equivalence_cyclic_with_reversal():
    # reversed(b) rotated by one position reproduces a
    S3 = ("singular", None, 3)
    a = _sig([I, S, S, S3], closed=True)
    b = _sig([S, S, I, S3], closed=True)
    v = decide_equivalence(a, b)
    assert v.equivalent
    assert v.matching == "cyclic-shift-with-reversal(1)"


def test_decide_equivalence_flag_mismatches():
    a = _sig([S, S], closed=True)
    b = _sig([S, S], closed=False)
    assert decide_equivalence(a, b).reason == "closed flags differ"

    c = _sig([S, S], closed=True, ell_zero=True)
    assert decide_equivalence(a, c).reason == "ell zero-function flags differ"


def test_decide_equivalence_coincidence_pattern():
    merged = _sig([("both", 1, 2)], closed=False)
    split = _sig([I, S], closed=False)
    v = decide_equivalence(merged, split)
    assert not v.equivalent
    # one inflection and one singular zero on each side, but interleaved
    # differently: the counts agree, the pattern does not
    assert v.reason == "zero coincidence patterns differ"


def test_decide_equivalence_order_mismatch():
    a = _sig([("singular", None, 1)], closed=False)
    b = _sig([("singular", None, 3)], closed=False)
    v = decide_equivalence(a, b)
    assert not v.equivalent
    assert "contact order mismatch" in v.reason


def test_equivalence_relation_properties(roster):
    sigs = []
    for entry in roster:
        sigs.append(signature(entry.curve))
    for s in sigs:
        assert decide_equivalence(s, s).equivalent
    for s1 in sigs:
        for s2 in sigs:
            assert decide_equivalence(s1, s2).equivalent == \
                decide_equivalence(s2, s1).equivalent
    for s1 in sigs:
        for s2 in sigs:
            for s3 in sigs:
                if (decide_equivalence(s1, s2).equivalent
                        and decide_equivalence(s2, s3).equivalent):
                    assert decide_equivalence(s1, s3).equivalent


def test_parity_gallery():
    rep = parity_check(signature(gallery("gamma_n", {"n": 3}).curve))
    assert (rep.ell_odd_count, rep.beta_odd_count, rep.ok) == (0, 2, True)
    rep = parity_check(signature(gallery("gamma_m", {"m": 3}).curve))
    assert (rep.ell_odd_count, rep.beta_odd_count, rep.ok) == (0, 4, True)
    rep = parity_check(signature(gallery("circle").curve))
    assert (rep.ell_odd_count, rep.beta_odd_count, rep.ok) == (0, 0, True)


def test_parity_requires_closed():
    sig = _sig([S], closed=False)
    with pytest.raises(SignatureError, match="requires a closed curve"):
        parity_check(sig)


def test_sign_pattern_around_zeros():
    # odd contact order: sign change; even: no sign change
    for text, domain in [("6*sin(t)", (0.0, TWO_PI)), ("t^2*(2-t)", (-1.0, 1.0)),
                         ("t^3", (-1.0, 1.0))]:
        f = ScalarFun.wrap(text)
        for root in find_zeros(text, domain, half_open=True):
            if root - 1e-3 < domain[0] or root + 1e-3 > domain[1]:
                continue
            order = contact_order(f, root)
            left, right = f(root - 1e-3), f(root + 1e-3)
            if order % 2 == 1:
                assert left * right < 0
            else:
                assert left * right > 0


def test_sk_multiplication_leaves_signature_unchanged(roster):
    # multiplying either component by a nowhere-zero factor is invisible
    for entry in roster:
        pair = entry.curve.curvature_pair()
        base = signature(pair).key()
        factor = ScalarFun.from_text("2 + atan(t)^2")
        scaled = CurvaturePair(pair.ell * factor, pair.beta * (-factor),
                               pair.domain, pair.closed)
        assert signature(scaled).key() == base


def test_signature_json_round_trip():
    sig = signature(gallery("gamma_n", {"n": 5}).curve)
    data = json.loads(json.dumps(signature_to_dict(sig)))
    back = signature_from_dict(data)
    assert back == sig


def test_find_zeros_randomized_against_brute_force():
    # random low-frequency trig polynomials with offsets, seeded
    rng = np.random.default_rng(123)
    for _ in range(20):
        k1, k2 = (int(k) for k in rng.integers(1, 4, 2))
        a1, a2 = (float(a) for a in rng.uniform(-2, 2, 2))
        c = float(rng.uniform(-1.5, 1.5))
        text = f"{a1!r}*sin({k1}*t) + {a2!r}*cos({k2}*t) + {c!r}"
        found = find_zeros(text, (0.0, TWO_PI))
        oracle = brute_force_zeros(text, (0.0, TWO_PI), n=400_000)
        assert len(found) == len(oracle), text
        if found:
            assert np.max(np.abs(np.array(found) - np.array(oracle))) <= 1e-7, text


def test_signature_compiles_one_tape_and_runs_it_few_times(roster, monkeypatch):
    # Every zoom round, Newton step, residual check and the contact-order
    # sweep evaluate ell and beta together from the one tape of their ASTs,
    # which hold one level of derivative nodes.
    runs, compiles = [], []
    run, init = exprs._Tape.run, exprs._Tape.__init__

    def counted_run(self, t0, order):
        runs.append(order)
        return run(self, t0, order)

    def counted_init(self, asts):
        init(self, asts)
        compiles.append((len(asts), self.depth))

    monkeypatch.setattr(exprs._Tape, "run", counted_run)
    monkeypatch.setattr(exprs._Tape, "__init__", counted_init)
    m = AffineMap(1.3, -0.4, 0.7, 0.9)
    for entry in roster:
        image = pushforward_affine(entry.curve, m).curve
        runs.clear()
        compiles.clear()
        signature(image)
        assert len(runs) <= 12, (entry.name, runs)
        assert compiles == [(2, 1)], entry.name


def test_signature_reads_only_the_orders_its_decisions_need(roster, monkeypatch):
    # One order-0 scan of (ell, beta), a tape run at order 1 on the grid;
    # f' (tape order 2) only at the ends of cells where min |f| is small;
    # residuals and contact orders from Newton's final jets, and a sweep
    # below the full jet order only at the zeros those leave open.
    grid_n, root_tol = signatures._GRID_N, signatures._ROOT_TOL
    m = AffineMap(1.3, -0.4, 0.7, 0.9)
    runs = _record_runs(monkeypatch)
    newton = _record_newton(monkeypatch, runs)
    read = []
    contact_orders = signatures._contact_orders

    def recorded_orders(evaluate, roots, *args):
        orders = contact_orders(evaluate, roots, *args)
        read.append((roots, orders))
        return orders

    monkeypatch.setattr(signatures, "_contact_orders", recorded_orders)
    swept = settled = 0
    germs = [gallery("type_nm", {"n": n, "m": 5}) for n in (1, 3)]
    for entry in roster + germs:
        newton.clear()
        read.clear()
        image = pushforward_affine(entry.curve, m).curve
        ts = np.linspace(*image.domain, grid_n + 1)
        values = [jet[0] for jet in image.curvature_pair().jets(ts, 0)]
        runs.clear()
        sig = signature(image)
        comps = (1,) if sig.ell_identically_zero else (0, 1)
        near = np.zeros(grid_n, dtype=bool)
        for c in comps:
            v = np.abs(values[c])
            pre_tol = max(root_tol, 400.0 / grid_n ** 2) * np.max(v)
            near |= np.minimum(v[:-1], v[1:]) <= pre_tol
        ends = ts[np.union1d(np.nonzero(near)[0], np.nonzero(near)[0] + 1)]

        grid_runs = [order for pts, order in runs if len(pts) == len(ts)]
        assert grid_runs == [1], entry.name
        assert np.array_equal(runs[0][0], ts)
        if len(ends):
            pts, order = runs[1]
            assert order == 2 and np.array_equal(pts, ends), entry.name
            assert len(ends) < len(ts) // 20, entry.name
        else:  # no f' run at all: no interior grid point is evaluated again
            assert not any(np.isin(pts, ts[1:-1]).any() for pts, _ in runs[1:])
        assert max(order for _, order in runs) < DEFAULT_ORDER + 1, entry.name

        # Newton's jets (tape order one above its own) settle each zero
        # that is bitwise one of its iterates of that component and whose
        # order they reach; only the others are swept, after Newton's runs.
        (call,), ((roots, orders),) = newton, read
        call = dict(call, order=call["order"] + 1)
        _newton_steps(runs, call)
        open_pts = [t for c in (0, 1) for t, r in zip(roots[c], orders[c])
                    if r >= call["order"] or not np.isin(
                        np.array([t]).view(np.int64),
                        call["x"][call["comp"] == c].view(np.int64))[0]]
        after = runs[call["runs"].stop:]
        if open_pts:
            assert len(after) == 1, entry.name
            assert after[0][1] == signatures._FIRST_SWEEP + 1, entry.name
            assert np.array_equal(after[0][0], open_pts), entry.name
        else:
            assert after == [], entry.name
        swept += len(open_pts)
        settled += sum(map(len, orders)) - len(open_pts)
    assert swept and settled > swept


@pytest.mark.parametrize("source, orders", [
    (CurvaturePair.from_exprs("1", "(t-1)^6", (0, 2)), [(None, 6)]),
    (CurvaturePair.from_exprs("t^5", "t^3", (-1, 1)), [(5, 3)]),
    (CurvaturePair.from_exprs("sin(t)", "(t-2)^12", (0, 4)),
     [(1, None), (None, 12), (1, None)]),
    (gallery("type_nm", {"n": 1, "m": 5}).curve, [(3, None)]),
    (gallery("type_nm", {"n": 1, "m": 7}).curve, [(5, None)]),
    (gallery("type_nm", {"n": 6, "m": 7}).curve, [(None, 5)]),
], ids=["pair-order-6", "pair-orders-5-3", "pair-order-12", "type_nm-1-5",
        "type_nm-1-7", "type_nm-6-7"])
def test_contact_orders_above_the_first_sweep_match_a_full_read(
        source, orders, monkeypatch):
    runs = _record_runs(monkeypatch)
    sig = signature(source)
    assert [(z.ord_ell, z.ord_beta) for z in sig.zeros] == orders
    # A zero of order above the first sweep is read again at the jet order.
    tape_order = DEFAULT_ORDER + isinstance(source, LegendreCurve)
    high = max(max(o for o in pair if o is not None) for pair in orders)
    assert (runs[-1][1] == tape_order) == (high > signatures._FIRST_SWEEP)
    with _fresh_newton_jets():
        assert signature(source) == sig
    monkeypatch.setattr(signatures, "_FIRST_SWEEP", DEFAULT_ORDER)
    assert signature(source) == sig


def test_fresh_jets_in_place_of_newtons_give_the_same_signature(roster):
    m = AffineMap(1.3, -0.4, 0.7, 0.9)
    curves = []
    for entry in roster:
        curves += [entry.curve, pushforward_affine(entry.curve, m).curve,
                   reparametrize(entry.curve, "t + 0.3*sin(2*t)", entry.curve.domain).curve]
    sigs = [signature(curve) for curve in curves]
    assert sum(len(sig.zeros) for sig in sigs) >= 40
    with _fresh_newton_jets():
        assert [signature(curve) for curve in curves] == sigs


def _full_scan_candidates(evaluate, ts, comps, tol):
    """Candidates from f and f' on the whole grid, one order-1 evaluation."""
    scan = evaluate(ts, 1)
    grid_n = len(ts) - 1
    a, b, h = ts[0], ts[-1], (ts[-1] - ts[0]) / grid_n
    groups = []
    for c in comps:
        v, dv = scan[c]
        pre_tol = max(tol, 400.0 / grid_n ** 2) * np.max(np.abs(v))
        near = np.minimum(np.abs(v[:-1]), np.abs(v[1:])) <= pre_tol
        sign = np.nonzero(v[:-1] * v[1:] < 0.0)[0]
        dsign = np.nonzero((dv[:-1] * dv[1:] < 0.0) & near)[0]
        exact = ts[np.concatenate([np.nonzero(v == 0.0)[0],
                                   np.nonzero((dv == 0.0) & (np.abs(v) <= pre_tol))[0]])]
        groups += [np.broadcast_arrays(*g) for g in (
            (ts[sign], ts[sign + 1], np.nan, c, 0),
            (ts[dsign], ts[dsign + 1], np.nan, c, 1),
            (exact, exact, exact, c, 0),
            (np.array([a, b - h]), np.array([a + h, b]), np.array([a, b]), c, 0))]
    return [np.concatenate(col) for col in zip(*groups)]


def test_candidates_match_a_full_grid_order_1_scan(roster):
    m = AffineMap(-0.8, 1.1, 0.6, 1.5)
    sources = [(curve.curvature_pair().jets, curve.domain, 4096)
               for curve in [e.curve for e in roster]
               + [pushforward_affine(e.curve, m).curve for e in roster]
               + [gallery("type_nm", {"n": 3, "m": 5}).curve]]
    for text, domain in [("sin(200*t)", (0, TWO_PI)), ("t^2", (-1, 1)),
                         ("(t-0.3712345)^2*(t+0.61)^2", (-1, 1)),
                         ("t^3*(t-0.5)^2", (-1, 1)), ("cos(t)^2", (0, 7)),
                         ("sin(3*t)*exp(-t/2) + 0.001", (0, TWO_PI)),
                         ("1 + 0*t", (0, 1))]:
        sources.append((signatures._fun_source(ScalarFun.wrap(text)), domain, 2048))
    touch_brackets = 0
    for evaluate, domain, grid_n in sources:
        ts, values, scales = signatures._scan(evaluate, domain, grid_n)
        comps = [c for c in range(len(values)) if scales[c] > 1e-10 * np.max(scales)]
        got = signatures._candidates(evaluate, ts, values, scales, comps, 1e-9)
        want = _full_scan_candidates(evaluate, ts, comps, 1e-9)
        for g, w in zip(got, want):
            assert np.array_equal(g, w, equal_nan=True)
        touch_brackets += int(np.sum(got[4] == 1))
    assert touch_brackets >= 4


def test_signature_of_curve_matches_its_curvature_pair(roster):
    m = AffineMap(-0.8, 1.1, 0.6, 1.5)
    curves = [entry.curve for entry in roster]
    curves += [pushforward_affine(c, m).curve for c in curves]
    curves.append(gallery("type_nm", {"n": 3, "m": 5}).curve)
    for curve in curves:
        by_curve = signature(curve)
        by_pair = signature(curve.curvature_pair())
        assert by_pair.key() == by_curve.key()
        assert [z.t for z in by_pair.zeros] == pytest.approx(
            [z.t for z in by_curve.zeros], abs=1e-12)


def _affine_step():
    entries = st.floats(-2.0, 2.0, allow_nan=False)
    return st.tuples(entries, entries, entries, entries).filter(
        lambda m: abs(m[0] * m[3] - m[1] * m[2]) >= 0.1).map(
        lambda m: lambda curve: pushforward_affine(curve, AffineMap(*m)))


def _reparam_step():
    # t + c sin(k t) with |c k| < 1 fixes 0 and 2 pi and keeps t' > 0
    return st.tuples(st.integers(1, 3), st.floats(-0.85, 0.85)).map(
        lambda kc: lambda curve: reparametrize(
            curve, f"t + {kc[1] / kc[0]!r}*sin({kc[0]}*t)", curve.domain))


_TRANSFORM_STEPS = st.one_of(
    _affine_step(), _reparam_step(), st.just(pushforward_swap),
    st.sampled_from(["nu", "gamma"]).map(
        lambda which: lambda curve: negate(curve, which)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(index=st.integers(0, 7), steps=st.lists(_TRANSFORM_STEPS, min_size=1, max_size=3))
def test_signature_key_invariant_under_transform_compositions(roster, index, steps):
    curve = roster[index].curve
    base = signature(curve).key()
    for step in steps:
        curve = step(curve).curve
    sig = signature(curve)
    assert sig.key() == base
    with _fresh_newton_jets():
        assert signature(curve) == sig


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(index=st.integers(0, 7), steps=st.lists(_TRANSFORM_STEPS, min_size=1, max_size=3))
def test_transform_laws_are_expressions_that_match_their_images(roster, index, steps):
    # Each law is an AST over the previous curve's curvature ASTs; its
    # zeros and values are those of the image's own frame computation.
    curve = roster[index].curve
    ts = np.linspace(*curve.domain, 1000)
    for step in steps:
        result = step(curve)
        curve, law = result.curve, result.law
        assert law.ell.ast is not None and law.beta.ast is not None
        assert signature(law).key() == signature(curve).key()
        for frame_values, law_values in zip(curve.curvature_pair().jets(ts, 0),
                                            law.jets(ts, 0)):
            assert np.max(np.abs(frame_values[0] - law_values[0])) <= 1e-8


_SIGNATURES: dict = {}  # one signature per curve spec, across examples


def _cached_signature(curve):
    key = dump_curve(curve)
    if key not in _SIGNATURES:
        _SIGNATURES[key] = signature(curve)
    return _SIGNATURES[key]


def _reverse(curve):
    a, b = curve.domain
    return reparametrize(curve, f"{a + b!r} - t", curve.domain)


@pytest.fixture(scope="module")
def pool(roster):
    # An open graph whose flat point (ell of order 2) precedes an
    # inflection: its key is no palindrome, so its reversed images need the
    # reversal matching, while the gallery keys match themselves reversed.
    # Then gamma_ab[1,2] ~ gamma_ab[2,3], gamma_n[3], gamma_n[5] ~ gamma_m[3].
    flat = LegendreCurve.from_exprs("t", "t^5/20 - t^4/2 + 1.5*t^3 - 2*t^2",
                                    domain=(0, TWO_PI))
    return [flat] + [roster[i].curve for i in (1, 2, 3, 4, 7)]


_IMAGES = st.tuples(st.integers(0, 5), st.booleans(),
                    st.lists(_TRANSFORM_STEPS, max_size=2))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(images=st.lists(_IMAGES, min_size=3, max_size=3))
# The explicit examples hold a reversed flat graph, a chain across two
# curves and a non-equivalent member whatever the derandomized draw is.
@example(images=[(0, False, []), (0, True, [pushforward_swap]), (5, True, [])])
@example(images=[(1, False, []), (2, True, []), (4, True, [])])
@example(images=[(4, True, []), (5, False, [pushforward_swap]), (3, False, [])])
def test_equivalence_is_symmetric_and_transitive_on_transformed_triples(pool, images):
    indices, sigs = [], []
    for index, reverse, steps in images:
        curve = _reverse(pool[index]).curve if reverse else pool[index]
        for step in steps:
            curve = step(curve).curve
        indices.append(index)
        sigs.append(_cached_signature(curve))
    equivalent = {}
    for i in range(3):
        for j in range(3):
            equivalent[i, j] = decide_equivalence(sigs[i], sigs[j]).equivalent
            # the transforms keep the class of the curve they act on
            base = decide_equivalence(_cached_signature(pool[indices[i]]),
                                      _cached_signature(pool[indices[j]]))
            assert equivalent[i, j] == base.equivalent, (indices[i], indices[j])
    for i in range(3):
        assert equivalent[i, i]
        for j in range(3):
            assert equivalent[i, j] == equivalent[j, i]
            for k in range(3):
                if equivalent[i, j] and equivalent[j, k]:
                    assert equivalent[i, k]
