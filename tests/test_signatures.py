import json
import math

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from legendre_curves import (AffineMap, CurvaturePair, ScalarFun, Signature,
                             ZeroPoint, cofactor, contact_order,
                             decide_equivalence, find_zeros, gallery, negate,
                             parity_check, pushforward_affine, pushforward_swap,
                             reparametrize, signature, signature_from_dict,
                             signature_to_dict)
from legendre_curves import exprs
from legendre_curves.errors import (CofactorError, DegenerateCurveError,
                                    RootScanError, SignatureError)

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


def test_find_zeros_many_brackets_zoom_in_narrow_rounds(monkeypatch):
    # A run costs a fixed overhead plus a share per point, so few brackets
    # zoom in a few wide rounds; with 400 brackets every round stays at 17
    # points a bracket, eight rounds shrinking each by 16^8.
    sizes = []
    run = exprs._Tape.run

    def counted_run(self, t0, order):
        sizes.append(np.size(t0))
        return run(self, t0, order)

    monkeypatch.setattr(exprs._Tape, "run", counted_run)
    roots = find_zeros("sin(200*t)", (0, TWO_PI))
    assert roots == pytest.approx([k * math.pi / 200 for k in range(401)], abs=1e-12)
    scan, zoom, rest = sizes[0], sizes[1:-4], sizes[-4:]
    assert scan == 2049
    assert len(zoom) == 8 and max(zoom) <= 17 * len(roots)
    assert max(rest) <= len(roots) + 2
    sizes.clear()
    assert len(find_zeros("sin(t)", (0, TWO_PI))) == 3
    assert sizes[1:-4] == [257] * 4


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


def test_find_zeros_rejects_zero_function():
    with pytest.raises(RootScanError, match="non-finite"):
        find_zeros("0*t", (0, 1))


def test_find_zeros_grid_validation():
    with pytest.raises(ValueError):
        find_zeros("sin(t)", (0, 1), grid_n=32)


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


def test_cofactor_constant_ratio():
    sample = cofactor("2*sin(t)", "sin(t)", (-1, 4), [(0.0, 1), (math.pi, 1)])
    assert np.allclose(sample.values, 2.0, atol=1e-9)
    assert sample.min_abs == pytest.approx(2.0)


def test_cofactor_removable_ratio():
    sample = cofactor("t^2", "t^2*(1+t^2)", (-1, 1), [(0.0, 2)])
    mid = len(sample.ts) // 2
    assert sample.ts[mid] == pytest.approx(0.0)
    assert sample.values[mid] == pytest.approx(1.0)
    assert np.allclose(sample.values, 1.0 / (1.0 + sample.ts ** 2), atol=1e-9)


def test_cofactor_between_gallery_constants():
    ell5 = gallery("gamma_n", {"n": 5}).curve.curvature_pair().ell
    ell_m3 = gallery("gamma_m", {"m": 3}).curve.curvature_pair().ell
    sample = cofactor(ell5, ell_m3, (0, TWO_PI), [])
    assert np.allclose(sample.values, 3.0, atol=1e-9)


def test_cofactor_hypothesis_violations():
    with pytest.raises(CofactorError):
        cofactor("t", "t^2", (-1, 1), [(0.0, 1)])       # orders differ
    with pytest.raises(CofactorError):
        cofactor("sin(t)", "1 + 0*t", (0, TWO_PI), [])  # f vanishes, g does not


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
    # sweep evaluate ell and beta together from the one (x, y, nu) tape.
    runs, compiles = [], []
    run, init = exprs._Tape.run, exprs._Tape.__init__

    def counted_run(self, t0, order):
        runs.append(order)
        return run(self, t0, order)

    def counted_init(self, asts):
        compiles.append(len(asts))
        init(self, asts)

    monkeypatch.setattr(exprs._Tape, "run", counted_run)
    monkeypatch.setattr(exprs._Tape, "__init__", counted_init)
    m = AffineMap(1.3, -0.4, 0.7, 0.9)
    for entry in roster:
        image = pushforward_affine(entry.curve, m).curve
        runs.clear()
        compiles.clear()
        signature(image)
        assert len(runs) <= 12, (entry.name, runs)
        assert compiles == [4], entry.name


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
    assert signature(curve).key() == base
