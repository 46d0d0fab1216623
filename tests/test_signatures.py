import contextlib
import gc
import json
import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest

from hypothesis import HealthCheck, example, given, settings, strategies as st

from legendre_curves import (DEFAULT_ORDER, AffineMap, CurvaturePair, GermData,
                             LegendreCurve, ScalarFun, Signature, ZeroPoint,
                             decide_equivalence, dump_curve, dump_signature,
                             find_zeros, gallery, germ_signature_of_curve,
                             is_immersion, load_curve, local_normal_form, negate,
                             parity_check, pushforward_affine, pushforward_swap,
                             reparametrize, signature, signature_from_dict,
                             signature_to_dict, type_nm_curve)
from legendre_curves import GermSignature, cli, exprs, jets, signatures
from legendre_curves.errors import (CurveError, DegenerateCurveError, JetDomainError,
                                    LegendreError, RootScanError, SignatureError)

TWO_PI = 2 * math.pi

from conftest import brute_force_zeros


def test_find_zeros_sine_half_open():
    roots = find_zeros("6*sin(t)", (0, TWO_PI), half_open=True)
    assert roots == pytest.approx([0.0, math.pi], abs=1e-12)


@pytest.mark.parametrize("d", [2e-9, 5e-9, 9e-9])
def test_a_seam_zero_just_before_the_right_end_is_kept(d):
    # gamma_n[3] shifted by d: beta = 6 sin(t + d) vanishes at 2 pi - d,
    # within the same-point tolerance of b, while |beta(a)| = 6 sin(d) is
    # past the root tolerance, so no root at a stands for the seam zero
    u = f"(t + {d!r})"
    curve = LegendreCurve.from_exprs(f"3*cos{u} - cos(3*{u})", f"3*sin{u} - sin(3*{u})",
                                     (f"sin(2*{u})", f"-cos(2*{u})"), (0.0, TWO_PI), closed=True)
    sig = signature(curve)
    assert sig.key() == signature(gallery("gamma_n", {"n": 3}).curve).key()
    assert sig.zeros[-1].t == pytest.approx(TWO_PI - d, abs=1e-12)
    assert sig.zero_at(0.0) is sig.zero_at(TWO_PI) is sig.zeros[-1]
    roots = find_zeros(f"6*sin{u}", (0, TWO_PI), half_open=True)
    assert roots == pytest.approx([math.pi - d, TWO_PI - d], abs=1e-12)


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


def _checked_newton(replacement):
    """Replacements for ``_newton`` and ``_zeros``: every call of
    ``_newton`` goes through ``replacement(newton, *args)``, and every zero
    search must call it exactly once, so a test that patches ``_newton``
    fails rather than passes when the search no longer runs it.  Returns
    the two replacements and the list of calls, one entry per call."""
    newton, zeros = signatures._newton, signatures._zeros
    calls = []

    def patched(*args):
        calls.append(None)
        return replacement(newton, *args)

    def checked(*args):
        before = len(calls)
        found = zeros(*args)
        assert len(calls) == before + 1, "the zero search did not run _newton once"
        return found

    return patched, checked, calls


def _record_newton(monkeypatch, runs):
    """Patch ``_newton`` so every call logs the starts it gets, their
    brackets, signs, components and rows, the iterates it returns, its
    order and the slice of ``runs``, a ``TapeLog``'s run list, that its
    tape runs fill."""
    calls = []

    def recorded(newton, asts, x, jets, lo, hi, sign, comp, row):
        start, order = len(runs), len(jets[0]) - 1
        final, out = newton(asts, x, jets, lo, hi, sign, comp, row)
        calls.append({"start": x, "lo": lo, "hi": hi, "sign": sign, "comp": comp,
                      "row": row, "x": final, "order": order,
                      "runs": slice(start, len(runs))})
        return final, out

    patched, checked, _ = _checked_newton(recorded)
    monkeypatch.setattr(signatures, "_newton", patched)
    monkeypatch.setattr(signatures, "_zeros", checked)
    return calls


def _false_position(ts, v):
    """Per sign change of the grid values v: the cell ends, f(lo) and the
    false-position point lo - f(lo) (hi - lo) / (f(hi) - f(lo))."""
    i = np.nonzero(v[:-1] * v[1:] < 0.0)[0]
    lo, hi = ts[i], ts[i + 1]
    return lo, hi, v[i], lo - v[i] * (hi - lo) / (v[i + 1] - v[i])


def _search_runs(runs, call, ts, values, comps, depth):
    """The runs of one zero search before Newton's: the grid scan at
    order 0; the seed run at order 1 at the ends of the near cells (where
    min |f| is below the pre-filter), the false-position starts of the
    sign brackets and the endpoints; and an order-2 run at the starts only
    when a touch bracket exists.  Each sign bracket starts at its
    false-position point, and no run reads a grid end of a sign bracket
    that is neither a near-cell end nor an endpoint.  Tape orders are
    ``depth`` above the request."""
    grid_n = len(ts) - 1
    near = np.zeros(grid_n, dtype=bool)
    fp, grid_ends = [], []
    for c in comps:
        v = values[c]
        pre_tol = max(signatures._ROOT_TOL, 400.0 / grid_n ** 2) * np.max(np.abs(v))
        near |= np.minimum(np.abs(v[:-1]), np.abs(v[1:])) <= pre_tol
        lo, hi, _, start = _false_position(ts, v)
        fp.append(start)
        grid_ends += [lo, hi]
    ends = ts[np.union1d(np.nonzero(near)[0], np.nonzero(near)[0] + 1)]
    sign = (call["sign"] != 0) & (call["row"] == 0)
    np.testing.assert_allclose(call["start"][sign], np.concatenate(fp),
                               rtol=0, atol=4e-16 * np.max(np.abs(ts)))
    touch = call["row"] == 1
    scan, seed, *rest = runs[:call["runs"].start]
    assert np.array_equal(scan.points, ts) and scan.tape_order == depth
    assert np.array_equal(seed.points,
                          np.concatenate([ends, call["start"][sign], ts[[0, -1]]]))
    assert seed.tape_order == 1 + depth
    if touch.any():
        assert len(rest) == 1 and rest[0].tape_order == 2 + depth
        assert np.array_equal(rest[0].points, call["start"])
    else:
        assert rest == []
    unread = np.setdiff1d(np.concatenate(grid_ends), np.concatenate([ends, ts[[0, -1]]]))
    assert not any(np.isin(unread, run.points).any() for run in runs[1:])


def _newton_runs(runs, call):
    """Newton's own tape runs, all at its order: each at the iterates still
    moving, no more of them than the run before, and at most
    ``_NEWTON_RUNS`` with the run at the starts.  Every final iterate is a
    start or one of their points."""
    steps = runs[call["runs"]]
    assert len(steps) <= signatures._NEWTON_RUNS - 1
    assert all(run.tape_order == call["order"] for run in steps)
    sizes = [len(run.points) for run in steps]
    assert sizes == sorted(sizes, reverse=True) and all(sizes)
    reached = np.concatenate([call["start"]] + [run.points for run in steps])
    assert np.isin(call["x"], reached).all()
    return steps


@contextlib.contextmanager
def _fresh_newton_jets():
    """Oracle for the answers read off Newton's final jets (residuals and
    contact orders): hand them out as a fresh evaluation at the same
    points at ``DEFAULT_ORDER``, the truncation of a full read."""

    def fresh(newton, asts, *args):
        x, _ = newton(asts, *args)
        return x, np.stack(exprs.eval_jet_many(asts, x, DEFAULT_ORDER))

    patched, checked, calls = _checked_newton(fresh)
    with mock.patch.multiple(signatures, _newton=patched, _zeros=checked):
        yield
    assert calls, "no zero search ran"


def test_find_zeros_many_brackets_take_few_newton_runs(monkeypatch, tape_runs):
    # The runs are the order-0 scan, the order-1 seed run (f' at the ends
    # of the few near cells, f and f' at the false-position starts of the
    # 400-odd sign brackets and at the endpoints) and Newton's order-1 runs
    # at the iterates still moving.  Each simple zero converges
    # quadratically from its start, so one run settles them all; the
    # residual check reads Newton's last runs, so no run follows them.
    runs = tape_runs.runs
    newton = _record_newton(monkeypatch, runs)

    def newton_sizes(text, domain=(0.0, TWO_PI)):
        ts = np.linspace(*domain, signatures._GRID_N + 1)
        values = [ScalarFun.wrap(text).jet(ts, 0)[0]]
        runs.clear()
        newton.clear()
        roots = find_zeros(text, domain)
        (call,) = newton
        assert call["order"] == 1 + np.any(call["row"] == 1)
        assert call["runs"].stop == len(runs)
        _search_runs(runs, call, ts, values, (0,), 0)
        return roots, call, [len(run.points) for run in _newton_runs(runs, call)]

    roots, _, sizes = newton_sizes("sin(200*t)")
    assert roots == pytest.approx([k * math.pi / 200 for k in range(401)], abs=1e-12)
    assert len(runs) <= 3 and sizes[0] <= len(roots) + 2
    # the zeros of sin t are grid points: no Newton run at all
    roots, _, sizes = newton_sizes("sin(t)")
    assert len(roots) == 3 and len(runs) <= 2
    # touch brackets add one order-2 run at the starts, not at their ends
    roots, call, sizes = newton_sizes("(t-0.3712345)^2*(t+0.61)^2", (-1.0, 1.0))
    assert roots == pytest.approx([-0.61, 0.3712345], abs=1e-9)
    assert np.sum(call["row"] == 1) == 2 and len(runs) <= 3 + len(sizes)


def test_sign_bracket_starts_newton_at_its_false_position_point(monkeypatch, tape_runs):
    # Newton's first step reads the jets of the seed run at the
    # false-position point of each sign bracket, built from the two grid
    # values; the bracket's grid ends are never evaluated.
    text, domain = "exp(t) - 2", (0.0, 2.0)
    ts = np.linspace(*domain, signatures._GRID_N + 1)
    fun = ScalarFun.wrap(text)
    lo, hi, f_lo, want = _false_position(ts, fun.jet(ts, 0)[0])
    assert len(want) == 1 and lo < want < hi
    tape_runs.clear()
    runs = tape_runs.runs
    newton = _record_newton(monkeypatch, runs)
    (root,) = find_zeros(fun, domain)
    (call,) = newton
    (start,) = call["start"][call["sign"] != 0]
    assert start == pytest.approx(want[0], rel=0, abs=4e-16)
    assert call["sign"][call["sign"] != 0] == np.sign(f_lo)
    # the seed run, the last before Newton's, holds the start and its jets
    # are those Newton reads first
    seed = runs[call["runs"].start - 1]
    assert seed.tape_order == 1 and np.array_equal(seed.points, [start, *domain])
    assert not np.isin([lo[0], hi[0]], np.concatenate([run.points for run in runs[1:]])).any()
    first = runs[call["runs"]][0].points
    assert first == pytest.approx([start - (math.exp(start) - 2) / math.exp(start)], abs=1e-15)
    assert abs(root - start) < 1e-6 and root == pytest.approx(math.log(2), abs=1e-15)


@pytest.mark.parametrize("m", range(1, 8))
@pytest.mark.parametrize("r", [1.0, 1.2345678])
def test_zero_of_any_order_between_grid_points_is_found_exactly(m, r):
    # Plain Newton converges only linearly at a zero of order m >= 2; the
    # multiplicity it reads off its own steps makes it quadratic again, so
    # the zero is located to rounding and its order read in full.  Neither
    # r is a grid point of the signature scan on [0, 3].
    pair = CurvaturePair.from_exprs("2 + cos(t)", f"(t - {r!r})^{m}*(2 + sin(t))", (0, 3))
    (zero,) = signature(pair).zeros
    assert (zero.kind, zero.ord_beta) == ("singular", m)
    assert abs(zero.t - r) <= 1e-13


def test_many_zeros_take_few_tape_runs(tape_runs, cold_signatures):
    # The many-zeros shape: dozens of zeros cost the scan, the seed run and
    # at most one Newton run (find_zeros of sin(200 t), with 401 zeros, is
    # counted above).
    for n, closed in ((33, True), (60, False)):
        curve = gallery("gamma_n", {"n": n}).curve
        tape_runs.clear()
        sig = signature(curve)
        assert len(tape_runs.runs) <= 3, n
        count = n - 1 + (not closed)
        assert sig.key() == (closed, False, (("singular", None, 1),) * count)
        assert [z.t for z in sig.zeros] == pytest.approx(
            [k * TWO_PI / (n - 1) for k in range(count)], abs=1e-12)


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
        assert _dedup(roots, 1e-9) == pytest.approx(reference(roots, 1e-9), rel=1e-14, abs=1e-14)


def test_newton_step_that_overflows_is_dropped_without_a_warning():
    # at the endpoint candidates f' is subnormal, so f / f' overflows; the
    # step is dropped as one that leaves its bracket
    pair = CurvaturePair.from_exprs("1 + 1e-315*t", "2 + sin(t)", (0.0, TWO_PI))
    assert signature(pair).zeros == ()


def test_find_zeros_is_the_one_component_search_of_signature(roster):
    # find_zeros scans the signature grid with the signature's tolerances,
    # so each component's roots are bitwise the positions signature reports
    curves = [entry.curve for entry in roster]
    curves += [gallery("gamma_n", {"n": n}).curve for n in (7, 9, 17)]
    curves.append(gallery("type_nm", {"n": 2, "m": 5}).curve)
    compared = 0
    for curve in curves:
        sig, pair = signature(curve), curve.curvature_pair()
        for fun, kind in ((pair.ell, "inflection"), (pair.beta, "singular")):
            if kind == "inflection" and sig.ell_identically_zero:
                continue
            want = [z.t for z in sig.zeros if z.kind in (kind, "both")]
            assert find_zeros(fun, curve.domain, half_open=curve.closed) == want
            compared += 1
    assert compared == 23


def test_find_zeros_rejects_zero_function():
    with pytest.raises(RootScanError, match="non-finite"):
        find_zeros("0*t", (0, 1))


def test_find_zeros_rejects_a_rounding_level_difference():
    # 0.3 t - (0.1 * 3) t is about 5.6e-17 t: rounding noise of its two
    # terms, not a function with zeros, also under a negation or a constant
    # factor or divisor, which scales the difference and its terms alike
    for text in ("0.3*t - 0.1*3*t", "(0.3*t - 0.1*3*t)*2", "-(0.3*t - 0.1*3*t)",
                 "(0.3*t - 0.1*3*t)/1", "1e20*(0.3*t - 0.1*3*t)"):
        with pytest.raises(RootScanError, match="non-finite"):
            find_zeros(text, (-1, 1))
    with pytest.raises(JetDomainError, match="division by zero"):
        find_zeros("(t-1)/0", (-1, 2))


def test_an_aliased_beta_is_refused_by_the_cap_not_as_constant():
    # beta = sin(4096 t) reads 0 up to rounding at every grid point of
    # [0, 2 pi], but its terms are not small: the scan counts its sign
    # changes past the cap
    pair = CurvaturePair.from_exprs("2+cos(t)", "sin(4096*t)", (0, 6.283185307179586))
    with pytest.raises(RootScanError, match="more than 1024 zeros of one component"):
        signature(pair)


def test_a_zero_set_past_the_cap_is_refused_naming_the_cap(tmp_path, capsys):
    # beta = sin(600 t) has 1201 zeros on [0, 2 pi], more than the scan
    # resolves on its grid; the refusal names the cap and the grid
    pair = CurvaturePair.from_exprs("2+cos(t)", "sin(600*t)", (0, 6.283185307179586))
    message = ("more than 1024 zeros of one component on the 4096-step grid: "
               "zero set appears non-finite")
    with pytest.raises(RootScanError, match=message):
        signature(pair)
    # a frame pair with beta = -600 sin(600 t), refused by the CLI with exit 1
    spec = tmp_path / "flat.json"
    spec.write_text(json.dumps({"x": "cos(600*t)", "y": "0", "nu": ["0", "1"],
                                "domain": [0, 6.283185307179586]}))
    assert cli.run(["signature", "--curve", str(spec)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("domain", [(1, 0), (0.5, 0.5), (0, math.inf), (math.nan, 1)],
                         ids=["reversed", "empty", "infinite", "nan"])
def test_find_zeros_rejects_a_bad_domain_before_any_scan(domain):
    with pytest.raises(CurveError, match="finite interval"):
        find_zeros("t - 0.25", domain)


def _beta_orders(text, domain):
    """(t, order) of the zeros of beta = text, with ell = 1."""
    sig = signature(CurvaturePair.from_exprs("1", text, domain))
    return [(z.t, z.ord_beta) for z in sig.zeros]


def test_contact_order_examples():
    assert _beta_orders("sin(t)", (2, 4)) == [(pytest.approx(math.pi, abs=1e-12), 1)]
    # curvature of the (3, 5) germ at its zero
    assert _beta_orders("30*t/(25*t^4+9)", (-1, 1)) == [(0.0, 1)]
    assert _beta_orders("-t^2*sqrt(25*t^4+9)", (-1, 1)) == [(0.0, 2)]


def test_contact_order_beyond_jet_order_is_none():
    # order DEFAULT_ORDER is the highest the jets read; one more has no order
    assert _beta_orders(f"t^{DEFAULT_ORDER}", (-1, 1)) == [(0.0, DEFAULT_ORDER)]
    with pytest.raises(SignatureError, match="contact order exceeds jet order"):
        _beta_orders(f"t^{DEFAULT_ORDER + 1}", (-1, 1))


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
        for root, order in _beta_orders(text, domain):
            if root - 1e-3 < domain[0] or root + 1e-3 > domain[1]:
                continue
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


def test_signature_json_round_trip(roster):
    sig = signature(gallery("gamma_n", {"n": 5}).curve)
    data = json.loads(json.dumps(signature_to_dict(sig)))
    back = signature_from_dict(data)
    assert back == sig
    for entry in roster:
        sig = signature(entry.curve)
        assert signature_from_dict(signature_to_dict(sig)) == sig
        assert signature_from_dict(json.loads(dump_signature(sig))) == sig
    # the table's base dict is valid: each of its rows changes one field
    assert signature_from_dict(_sig_dict()).zeros[1] == ZeroPoint(2.0, "both", 2, 3)


def _sig_dict(**fields):
    data = {"domain": [0.0, 4.0], "closed": False, "ell_identically_zero": False,
            "zeros": [{"t": 1.0, "kind": "inflection", "ord_ell": 1, "ord_beta": None},
                      {"t": 2.0, "kind": "both", "ord_ell": 2, "ord_beta": 3}]}
    data.update(fields)
    return {k: v for k, v in data.items() if v is not _MISSING}


_MISSING = object()
_ZERO = {"t": 1.0, "kind": "singular", "ord_ell": None, "ord_beta": 1}


@pytest.mark.parametrize("data, message", [
    (_sig_dict(domain=[1, 0]), "a < b"),
    (_sig_dict(domain=[0, math.inf]), "two finite numbers"),
    (_sig_dict(domain=[0, 10 ** 400]), "two finite numbers"),
    (_sig_dict(domain=[-1e308, 1e308]), "finite interval"),
    (_sig_dict(domain=[0, 1, 2]), "two finite numbers"),
    (_sig_dict(domain=["0", 1]), "two finite numbers"),
    (_sig_dict(domain=[False, 1]), "two finite numbers"),
    (_sig_dict(closed="no"), "true or false"),
    (_sig_dict(closed=1), "true or false"),
    (_sig_dict(ell_identically_zero=None), "true or false"),
    (_sig_dict(domain=_MISSING), "missing field 'domain'"),
    (_sig_dict(zeros=_MISSING), "missing field 'zeros'"),
    (_sig_dict(zeros={"t": 1.0}), "must be a list"),
    (_sig_dict(zeros=[{"kind": "singular", "ord_beta": 1}]), "'t' and 'kind'"),
    (_sig_dict(zeros=[1.0]), "'t' and 'kind'"),
    (_sig_dict(zeros=[dict(_ZERO, t="1.0")]), "not a finite number"),
    (_sig_dict(zeros=[dict(_ZERO, t=math.nan)]), "not a finite number"),
    (_sig_dict(zeros=[dict(_ZERO, t=10 ** 400)]), "not a finite number"),
    (_sig_dict(zeros=[dict(_ZERO, kind="cusp")]), "bad zero kind"),
    (_sig_dict(zeros=[dict(_ZERO, ord_ell=2)]), "ord_ell must be present"),
    (_sig_dict(zeros=[dict(_ZERO, ord_beta=None)]), "ord_beta must be present"),
    (_sig_dict(zeros=[dict(_ZERO, ord_beta=0)]), "integers >= 1"),
    (_sig_dict(zeros=[dict(_ZERO, ord_beta=1.5)]), "integers >= 1"),
    (_sig_dict(zeros=[dict(_ZERO, ord_beta=True)]), "integers >= 1"),
    (_sig_dict(zeros=[dict(_ZERO, t=2.0), dict(_ZERO, t=1.0)]), "increase strictly"),
    (_sig_dict(zeros=[_ZERO, _ZERO]), "increase strictly"),
    (_sig_dict(zeros=[dict(_ZERO, t=4.5)]), "inside the domain"),
    (_sig_dict(zeros=[dict(_ZERO, t=-0.5)]), "inside the domain"),
    ([], "JSON object"),
], ids=["reversed-domain", "infinite-domain", "huge-int-domain", "overflowing-width",
        "three-ends", "string-end", "bool-end",
        "closed-string", "closed-int", "flat-null", "no-domain", "no-zeros", "zeros-dict",
        "zero-without-t", "zero-not-dict", "t-string", "t-nan", "t-huge-int", "unknown-kind",
        "extra-order", "missing-order", "order-0", "order-float", "order-bool",
        "out-of-order", "repeated", "past-b", "before-a", "not-a-dict"])
def test_signature_from_dict_refuses_an_invalid_signature(data, message):
    with pytest.raises(SignatureError, match=message):
        signature_from_dict(data)


# -- the signature memo ------------------------------------------------------


@pytest.fixture
def signature_memo(monkeypatch):
    """An empty signature memo in place of the process's, returned: it
    holds exactly the entries the test's own calls store."""
    entries = {}
    monkeypatch.setattr(signatures, "_SIGNATURES", entries)
    return entries


def _key(source):
    pair = source if isinstance(source, CurvaturePair) else source.curvature_pair()
    return signatures._memo_key(pair)


def test_a_curve_and_its_curvature_pair_share_one_signature(tape_runs, signature_memo):
    curve = gallery("gamma_n", {"n": 4}).curve
    sig = signature(curve)
    assert signature_memo == {_key(curve): sig}
    tape_runs.clear()
    assert signature(curve) is sig
    assert signature(curve.curvature_pair()) is sig
    assert tape_runs.runs == []  # a repeated question runs no tape


def test_germ_signatures_at_several_zeros_run_one_search(signature_memo):
    curve = gallery("gamma_n", {"n": 5}).curve
    with mock.patch.object(signatures, "_search", wraps=signatures._search) as search:
        germs = [germ_signature_of_curve(curve, z.t) for z in signature(curve).zeros[:3]]
    assert germs == [GermSignature(0, 1)] * 3 and search.call_count == 1
    assert list(signature_memo) == [_key(curve)]


def test_equal_curves_built_apart_share_one_search(signature_memo):
    # a spec loaded twice and a normal form built again are the same
    # questions: distinct AST objects, one tape structure
    curve = gallery("gamma_n", {"n": 3}).curve
    twin = load_curve(dump_curve(curve))
    assert twin.curvature_pair().ell.ast is not curve.curvature_pair().ell.ast
    germ = GermData("below-diagonal", 2, 3)
    with mock.patch.object(signatures, "_search", wraps=signatures._search) as search:
        sig = signature(curve)
        assert signature(twin) is sig
        assert signature(load_curve(dump_curve(curve))) is sig
        germ_sig = signature(local_normal_form(germ))
        assert signature(local_normal_form(germ)) is germ_sig
    assert search.call_count == 2
    assert list(signature_memo) == [_key(curve), _key(local_normal_form(germ))]


def test_the_signature_memo_keys_on_structure_domain_and_closed_flag(signature_memo):
    curve = gallery("gamma_n", {"n": 3}).curve
    sig = signature(curve)
    pair = curve.curvature_pair()
    # the same ASTs on another domain, or open, are other questions
    half = CurvaturePair(pair.ell, pair.beta, (0.0, math.pi))
    assert signature(half) is not sig and signature(half) is signature(half)
    assert signature(half).domain == (0.0, math.pi)
    opened = CurvaturePair(pair.ell, pair.beta, pair.domain, closed=False)
    assert signature(opened) is not sig and not signature(opened).closed
    # -0.0 and 0.0 are equal numbers but print differently
    zero = CurvaturePair(pair.ell, pair.beta, (0.0, 1.0))
    negative_zero = CurvaturePair(pair.ell, pair.beta, (-0.0, 1.0))
    assert dump_signature(signature(negative_zero)) != dump_signature(signature(zero))
    # a constant that differs in its last bit is another tape
    plain = CurvaturePair.from_exprs("1", "cos(t) + 0.1", (0.0, 1.0))
    nudged = CurvaturePair.from_exprs("1", "cos(t) + 0.10000000000000002", (0.0, 1.0))
    assert _key(nudged) != _key(plain)
    assert _key(CurvaturePair.from_exprs("1", "cos(t) + 0.1", (0.0, 1.0))) == _key(plain)
    assert list(signature_memo) == [_key(s) for s in (
        curve, half, opened, negative_zero, zero)]
    assert signature(curve) is sig


def test_a_refused_curve_is_refused_on_every_call(signature_memo):
    pair = CurvaturePair.from_exprs("1", "0", (0.0, 1.0))
    with mock.patch.object(signatures, "_search", wraps=signatures._search) as search:
        for _ in range(3):
            with pytest.raises(DegenerateCurveError):
                signature(pair)
    assert search.call_count == 3 and signature_memo == {}


def test_a_signature_leaves_the_memo_at_its_bound_not_with_its_curve(signature_memo,
                                                                     monkeypatch):
    monkeypatch.setattr(signatures, "_MEMO_SIZE", 2)
    curves = [gallery("gamma_n", {"n": n}).curve for n in (2, 3, 4)]
    keys = [_key(curve) for curve in curves]
    sigs = [signature(curve) for curve in curves[:2]]
    del curves[0]
    gc.collect()
    assert list(signature_memo) == keys[:2]  # the entry outlives its curve
    assert signature(gallery("gamma_n", {"n": 2}).curve) is sigs[0]  # a hit refreshes it
    assert list(signature_memo) == [keys[1], keys[0]]
    signature(curves[1])  # gamma_n[4]: the least recently used, gamma_n[3], leaves
    assert list(signature_memo) == [keys[0], keys[2]]
    assert signature(curves[0]) is not sigs[1]


def test_the_signature_memo_under_threads(signature_memo, monkeypatch):
    # more questions than the bound, so threads evict as they go; a stub
    # search keeps them in the memo's own code
    monkeypatch.setattr(signatures, "_MEMO_SIZE", 3)
    monkeypatch.setattr(signatures, "_search",
                        lambda asts, domain, closed: Signature(domain, closed, False, ()))
    pair = CurvaturePair.from_exprs("1", "cos(t)", (0.0, 1.0))
    questions = [CurvaturePair(pair.ell, pair.beta, (0.0, 1.0 + k)) for k in range(8)]
    errors = []

    def work(seed):
        pick = np.random.default_rng(seed)
        try:
            for i in pick.integers(len(questions), size=2000):
                q = questions[i]
                assert signature(q).domain == q.domain
        except Exception as err:  # reported to the main thread
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert 0 < len(signature_memo) <= 3


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


def test_signature_compiles_one_tape_and_runs_it_few_times(roster, tape_runs,
                                                         cold_signatures):
    # Every Newton run, residual check and the contact-order sweep
    # evaluate ell and beta together from the one tape of their ASTs,
    # which hold one level of derivative nodes.
    m = AffineMap(1.3, -0.4, 0.7, 0.9)
    for entry in roster:
        image = pushforward_affine(entry.curve, m).curve
        tape_runs.clear()
        signature(image)
        runs = [run.order for run in tape_runs.runs]
        assert len(runs) <= 3, (entry.name, runs)
        assert tape_runs.compiles == [(2, 1)], entry.name


def test_signature_reads_only_the_orders_its_decisions_need(roster, monkeypatch, tape_runs,
                                                           cold_signatures):
    # One order-0 scan of (ell, beta), a tape run at order 1 on the grid;
    # one seed run (tape order 2) at the ends of cells where min |f| is
    # small and at the starts; residuals and contact orders from Newton's
    # final jets, and a sweep below the full jet order only at the zeros
    # those leave open.
    m = AffineMap(1.3, -0.4, 0.7, 0.9)
    runs = tape_runs.runs
    newton = _record_newton(monkeypatch, runs)
    read = []
    contact_orders = signatures._contact_orders

    def recorded_orders(asts, roots, *args):
        orders = contact_orders(asts, roots, *args)
        read.append((roots, orders))
        return orders

    monkeypatch.setattr(signatures, "_contact_orders", recorded_orders)
    swept = settled = 0
    germs = [gallery("type_nm", {"n": n, "m": 5}) for n in (1, 3)]
    for entry in roster + germs:
        newton.clear()
        read.clear()
        image = pushforward_affine(entry.curve, m).curve
        ts = np.linspace(*image.domain, signatures._GRID_N + 1)
        values = [jet[0] for jet in image.curvature_pair().jets(ts, 0)]
        runs.clear()
        sig = signature(image)
        comps = (1,) if sig.ell_identically_zero else (0, 1)

        grid_runs = [run.tape_order for run in runs if len(run.points) == len(ts)]
        assert grid_runs == [1], entry.name
        (call,) = newton
        _search_runs(runs, call, ts, values, comps, 1)
        assert all(len(run.points) < len(ts) // 20 for run in runs[1:]), entry.name
        assert max(run.tape_order for run in runs) < DEFAULT_ORDER + 1, entry.name

        # Newton's jets (tape order one above its own) settle each zero
        # that is bitwise one of its iterates of that component and whose
        # order they reach; only the others are swept, after Newton's runs.
        ((roots, orders),) = read
        call = dict(call, order=call["order"] + 1)
        _newton_runs(runs, call)
        open_pts = [t for c in (0, 1) for t, r in zip(roots[c], orders[c])
                    if r >= call["order"] or not np.isin(
                        np.array([t]).view(np.int64),
                        call["x"][call["comp"] == c].view(np.int64))[0]]
        after = runs[call["runs"].stop:]
        if open_pts:
            assert len(after) == 1, entry.name
            assert after[0].tape_order == signatures._FIRST_SWEEP + 1, entry.name
            assert np.array_equal(after[0].points, open_pts), entry.name
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
        source, orders, monkeypatch, tape_runs, cold_signatures):
    tape_runs.clear()
    sig = signature(source)
    assert [(z.ord_ell, z.ord_beta) for z in sig.zeros] == orders
    # A zero of order above the first sweep is read again at the jet order.
    tape_order = DEFAULT_ORDER + isinstance(source, LegendreCurve)
    high = max(max(o for o in pair if o is not None) for pair in orders)
    assert (tape_runs.runs[-1].tape_order == tape_order) == (high > signatures._FIRST_SWEEP)
    with _fresh_newton_jets():
        assert signature(source) == sig
    monkeypatch.setattr(signatures, "_FIRST_SWEEP", DEFAULT_ORDER)
    assert signature(source) == sig


def test_fresh_jets_in_place_of_newtons_give_the_same_signature(roster, cold_signatures):
    m = AffineMap(1.3, -0.4, 0.7, 0.9)
    curves = []
    for entry in roster:
        curves += [entry.curve, pushforward_affine(entry.curve, m).curve,
                   reparametrize(entry.curve, "t + 0.3*sin(2*t)", entry.curve.domain).curve]
    sigs = [signature(curve) for curve in curves]
    assert sum(len(sig.zeros) for sig in sigs) >= 40
    with _fresh_newton_jets():
        assert [signature(curve) for curve in curves] == sigs


def test_signature_is_the_same_with_the_trig_memo_cold_and_warm(roster, trig_calls,
                                                                cold_signatures):
    m = AffineMap(0.9, 0.5, -0.3, 1.2)
    curves = []
    for entry in roster:
        curves += [entry.curve, pushforward_affine(entry.curve, m).curve,
                   reparametrize(entry.curve, "t + 0.3*sin(2*t)", entry.curve.domain).curve]
    cold = []
    for curve in curves:
        jets._TRIG_MEMO.clear()
        cold.append(json.dumps(signature_to_dict(signature(curve))))
        # the scan stores its rows, and a second call computes none of them again
        assert any(entry[0].size == signatures._GRID_N + 1
                   for entry in jets._TRIG_MEMO.values())
        computed = dict(trig_calls)
        assert json.dumps(signature_to_dict(signature(curve))) == cold[-1]
        assert trig_calls == computed
    assert [json.dumps(signature_to_dict(signature(curve))) for curve in curves] == cold


def _full_scan_candidates(asts, ts, comps, tol):
    """Candidates from f and f' on the whole grid, one order-1 evaluation:
    lo, hi, start, sign at lo (0: no bracket), component and row."""
    scan = exprs.eval_jet_many(asts, ts, 1)
    grid_n = len(ts) - 1
    a, b, h = ts[0], ts[-1], (ts[-1] - ts[0]) / grid_n
    groups = []
    for c in comps:
        v, dv = scan[c]
        pre_tol = max(tol, 400.0 / grid_n ** 2) * np.max(np.abs(v))
        near = np.minimum(np.abs(v[:-1]), np.abs(v[1:])) <= pre_tol
        sign = np.nonzero(v[:-1] * v[1:] < 0.0)[0]
        dsign = np.nonzero((dv[:-1] * dv[1:] < 0.0) & near)[0]
        fp_lo, fp_hi, _, fp = _false_position(ts, v)
        touch_start = np.where(np.abs(dv[dsign + 1]) < np.abs(dv[dsign]), ts[dsign + 1], ts[dsign])
        exact = ts[np.concatenate([np.nonzero(v == 0.0)[0],
                                   np.nonzero((dv == 0.0) & (np.abs(v) <= pre_tol))[0]])]
        groups += [np.broadcast_arrays(*g) for g in (
            (fp_lo, fp_hi, fp, np.sign(v[sign]), c, 0),
            (ts[dsign], ts[dsign + 1], touch_start, np.sign(dv[dsign]), c, 1),
            (exact, exact, exact, 0.0, c, 0),
            (np.array([a, b - h]), np.array([a + h, b]), np.array([a, b]), 0.0, c, 0))]
    return [np.concatenate(col) for col in zip(*groups)]


def test_candidates_match_a_full_grid_order_1_scan(roster, monkeypatch):
    m = AffineMap(-0.8, 1.1, 0.6, 1.5)
    # the reparametrized closed curves' scan rows share their first and
    # last bits with their base's rows, which the trig-row memo holds
    sources = [((curve.ell().ast, curve.beta().ast), curve.domain, 4096)
               for curve in [e.curve for e in roster]
               + [pushforward_affine(e.curve, m).curve for e in roster]
               + [reparametrize(e.curve, "t + 0.2*sin(t)", e.curve.domain).curve
                  for e in roster if e.curve.closed]
               + [gallery("type_nm", {"n": 3, "m": 5}).curve]]
    for text, domain in [("sin(200*t)", (0, TWO_PI)), ("t^2", (-1, 1)),
                         ("(t-0.3712345)^2*(t+0.61)^2", (-1, 1)),
                         ("t^3*(t-0.5)^2", (-1, 1)), ("cos(t)^2", (0, 7)),
                         ("sin(3*t)*exp(-t/2) + 0.001", (0, TWO_PI)),
                         ("1 + 0*t", (0, 1))]:
        sources.append(((ScalarFun.wrap(text).ast,), domain, 2048))
    touch_brackets = 0
    for asts, domain, grid_n in sources:
        monkeypatch.setattr(signatures, "_GRID_N", grid_n)
        ts, values, scales, _ = signatures._scan(asts, domain)
        comps = [c for c in range(len(values)) if scales[c] > 1e-10 * np.max(scales)]
        got, start_jets = signatures._candidates(asts, ts, values, scales, comps)
        with monkeypatch.context() as off:  # the reference computes every trig row afresh
            off.setattr(jets, "_MEMO_MAX_POINTS", 0)
            lo, hi, start, sign, comp, row = _full_scan_candidates(asts, ts, comps, 1e-9)
        for g, w in zip(got[:2] + got[3:], (lo, hi, sign, comp, row)):
            assert np.array_equal(g, w)
        # the starts: a sign bracket's false-position point, clipped to its
        # cell; every other start exactly as the reference has it
        fp = (sign != 0) & (row == 0)
        assert np.array_equal(got[2][~fp], start[~fp])
        assert np.all((lo <= got[2]) & (got[2] <= hi))
        np.testing.assert_allclose(got[2][fp], start[fp], rtol=0, atol=4e-16 * np.max(np.abs(ts)))
        # the jets Newton reads first: every component at the starts, at
        # order 2 when a touch bracket needs f''
        fresh = exprs.eval_jet_many(asts, got[2], 1 + np.any(row == 1))
        assert [j.shape for j in start_jets] == [f.shape for f in fresh]
        for j, f in zip(start_jets, fresh):
            assert np.array_equal(j, f)
        touch_brackets += int(np.sum(got[5] == 1))
    assert touch_brackets >= 4


def test_signature_key_is_invariant_under_homotheties(roster):
    # A homothety by s keeps ell, a turning rate, and scales beta, a speed,
    # and both its terms by s: ell's zero-function test reads its terms and
    # its total turning, beta's its terms, so no s makes either of them the
    # zero function.
    for entry in roster:
        key = signature(entry.curve).key()
        for k in range(-15, 13):
            image = pushforward_affine(entry.curve, AffineMap(10.0 ** k, 0, 0, 10.0 ** k)).curve
            # the printed image reloads with the flag it was built with
            assert load_curve(dump_curve(image)).closed == image.closed, (entry.name, k)
            assert signature(image).key() == key, (entry.name, k)


def test_signature_key_is_invariant_under_parameter_scalings(roster):
    # t = s u scales the domain by 1/s and the jet coefficient c_k by
    # s^(k+1); every decision in t reads the parameter unit (b - a) / 2 pi,
    # so none moves.  Past the float range of the jets the image or its
    # search is refused.
    germs = [type_nm_curve(n, m, f) for n, m, f in ((2, 3, "1"), (3, 5, "1+t"), (2, 5, "2-t"))]
    for curve in [entry.curve for entry in roster] + germs:
        key, (a, b) = signature(curve).key(), curve.domain
        for k in [*range(-12, 13), *range(-300, 301, 50)]:
            s = 10.0 ** k
            try:
                image = reparametrize(curve, f"{s!r}*t", (a / s, b / s)).curve
                got = signature(image).key()
            except LegendreError:
                assert abs(k) > 12, k
                continue
            assert got == key and image.closed == curve.closed, k


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


# cold_signatures holds for every example: each signature call searches.
# The homothety by 10^k comes last; it stays out of _TRANSFORM_STEPS, since
# the law-versus-image test reads its values to an absolute 1e-8.
@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(index=st.integers(0, 7), steps=st.lists(_TRANSFORM_STEPS, min_size=1, max_size=3),
       k=st.integers(-15, 12))
@example(index=0, steps=[pushforward_swap], k=-12)
def test_signature_key_invariant_under_transform_compositions(roster, index, steps, k,
                                                              cold_signatures):
    curve = roster[index].curve
    base, immersion = signature(curve).key(), is_immersion(curve)
    for step in steps:
        curve = step(curve).curve
    curve = pushforward_affine(curve, AffineMap(10.0 ** k, 0, 0, 10.0 ** k)).curve
    got = is_immersion(curve)
    assert (got.ok, len(got.witnesses)) == (immersion.ok, len(immersion.witnesses))
    sig = signature(curve)
    assert sig.key() == base
    with _fresh_newton_jets():
        assert signature(curve) == sig
    # the printed image reloads with its flag and its key
    reloaded = load_curve(dump_curve(curve))
    assert reloaded.closed == curve.closed
    assert signature(reloaded).key() == base


@settings(max_examples=40)
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


@settings(max_examples=40)
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
