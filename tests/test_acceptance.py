"""Acceptance gate: one test per criterion, at its stated tolerance.

Each test prints a PASS line once its assertions hold, so running
``pytest tests/test_acceptance.py -s`` gives a one-line summary per
criterion.
"""

import math
import random

import numpy as np
import pytest

from legendre_curves import (AffineMap, DiffeoSpec, GermData, GermSignature,
                             ZERO_FUNCTION, align_congruence, check_legendre,
                             decide_equivalence, default_gallery, find_zeros,
                             gallery, germ_signature, germ_signature_of_curve,
                             local_normal_form, negate, parity_check,
                             parse_expr, pretty_print, pushforward_affine,
                             pushforward_diffeo_curve, pushforward_swap,
                             reconstruct, reparametrize, sampled_curvature,
                             signature, type_nm_curve)
from legendre_curves.cli import run
from legendre_curves.errors import ExprSyntaxError
from legendre_curves.transforms import pushforward_diffeo

from conftest import brute_force_zeros, random_ast

TWO_PI = 2 * math.pi


def _report(n, text):
    print(f"\n[acceptance] criterion {n}: PASS — {text}")


def test_criterion_1_golden_curvature(roster):
    """Frame-computed (ell, beta) matches the printed closed forms, 1e-9."""
    worst = 0.0
    for entry in roster:
        a, b = entry.curve.domain
        ts = np.linspace(a, b, 1000)
        pair = entry.curve.curvature_pair()
        cf = entry.curvature_closed_form
        err = max(float(np.max(np.abs(pair.ell.values(ts) - cf.ell.values(ts)))),
                  float(np.max(np.abs(pair.beta.values(ts) - cf.beta.values(ts)))))
        assert err <= 1e-9, (entry.name, err)
        worst = max(worst, err)
    _report(1, f"golden curvature on {len(roster)} gallery members, "
               f"worst error {worst:.2e} <= 1e-9")


def test_criterion_2_existence_uniqueness_round_trip(roster):
    """Rebuild every closed member from its curvature; residual <= 1e-6."""
    closed = [e for e in roster if e.curve.closed]
    assert len(closed) >= 6
    worst_res = worst_curv = 0.0
    for entry in closed:
        pair = entry.curve.curvature_pair()
        sc = reconstruct(pair.ell, pair.beta, entry.curve.domain, steps=8192)
        res = align_congruence(sc, entry.curve)
        assert res.residual <= 1e-6, (entry.name, res.residual)
        ell_re, beta_re = sampled_curvature(sc)
        err = max(float(np.max(np.abs(ell_re - pair.ell.values(sc.ts)))),
                  float(np.max(np.abs(beta_re - pair.beta.values(sc.ts)))))
        assert err <= 1e-6, (entry.name, err)
        worst_res = max(worst_res, res.residual)
        worst_curv = max(worst_curv, err)
    _report(2, f"round trip on {len(closed)} closed members: congruence residual "
               f"{worst_res:.2e}, re-extracted curvature error {worst_curv:.2e} <= 1e-6")


def test_criterion_3_global_classification():
    """The two epicycloid families are equivalent when indices differ by 2."""
    for m in (2, 3, 4):
        sig_n = signature(gallery("gamma_n", {"n": m + 2}).curve)
        sig_m = signature(gallery("gamma_m", {"m": m}).curve)
        verdict = decide_equivalence(sig_n, sig_m)
        assert verdict.equivalent, (m, verdict)
    sig3 = signature(gallery("gamma_n", {"n": 3}).curve)
    sig5 = signature(gallery("gamma_n", {"n": 5}).curve)
    verdict = decide_equivalence(sig3, sig5)
    assert not verdict.equivalent
    assert verdict.reason == "zero counts differ"
    _report(3, "index pairs (4,2), (5,3), (6,4) equivalent; "
               "indices 3 vs 5 rejected with 'zero counts differ'")


def test_criterion_4_signature_invariance(roster):
    """100 affine maps and 20 reparametrizations never change a signature."""
    rng = np.random.default_rng(20240917)
    affines = []
    while len(affines) < 100:
        m = rng.uniform(-2.0, 2.0, 4)
        if abs(m[0] * m[3] - m[1] * m[2]) >= 0.1:
            affines.append(AffineMap(*m))
    reparams = []
    while len(reparams) < 20:
        k = int(rng.integers(1, 4))
        c = float(rng.uniform(-0.85, 0.85)) / k
        if abs(c * k) > 1e-3:
            reparams.append(f"t + {c!r}*sin({k}*t)")

    checked = 0
    for entry in roster:
        base = signature(entry.curve).key()
        for m in affines:
            res = pushforward_affine(entry.curve, m)
            assert signature(res.curve).key() == base, (entry.name, m)
            checked += 1
        for expr in reparams:
            res = reparametrize(entry.curve, expr, entry.curve.domain)
            assert signature(res.curve).key() == base, (entry.name, expr)
            checked += 1
    _report(4, f"{checked} transformed signatures identical to their originals")


def test_criterion_5_local_classification():
    """Germ signatures match the normal-form representatives."""
    for n, m in [(2, 3), (3, 4), (3, 5), (2, 5)]:
        k = m - n
        want = GermSignature(k - 1, n - 1)
        for f in ("1", "1+t", "2-t"):
            got = germ_signature_of_curve(type_nm_curve(n, m, f))
            assert got == want, (n, m, f, got)

    for germ in [GermData("diagonal-plain", 2, 2), GermData("diagonal-plain", 3, 3)]:
        got = germ_signature_of_curve(local_normal_form(germ))
        assert got == GermSignature(ZERO_FUNCTION, germ.n - 1)
    for germ in [GermData("diagonal-perturbed", 2, 2, p=3),
                 GermData("diagonal-perturbed", 3, 3, p=1),
                 GermData("diagonal-perturbed", 4, 4, p=2)]:
        got = germ_signature_of_curve(local_normal_form(germ))
        assert got == GermSignature(germ.p - 1, germ.n - 1)
    for germ in [GermData("above-diagonal", 5, 3), GermData("above-diagonal", 3, 2),
                 GermData("above-diagonal", 4, 1)]:
        got = germ_signature_of_curve(local_normal_form(germ))
        assert got == GermSignature(germ.k - 1, germ.m - 1)
    _report(5, "12 finite-type germs and 8 normal forms realize their "
               "declared (ord_ell, ord_beta)")


def test_criterion_6_parity(roster):
    """Closed members carry evenly many odd-order zeros per component."""
    names = []
    for entry in roster:
        if not entry.curve.closed:
            continue
        rep = parity_check(signature(entry.curve))
        assert rep.ok, (entry.name, rep)
        names.append(entry.name)
    assert len(names) >= 6
    _report(6, f"parity holds on all {len(names)} closed members")


def test_criterion_7_transformation_laws(roster):
    """Law-computed curvature always matches a direct frame recomputation."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for entry in roster:
        curve = entry.curve
        ts = np.linspace(curve.domain[0], curve.domain[1], 1000)
        results = [
            pushforward_affine(curve, AffineMap(1.5, 0.25, -0.5, 0.75)),
            pushforward_swap(curve),
            negate(curve, "nu"),
            negate(curve, "gamma"),
            pushforward_diffeo_curve(curve, DiffeoSpec.from_texts(
                "x + 0.01*y^2", "y + 0.01*x^2")),
        ]
        for res in results:
            assert check_legendre(res.curve, samples=1000, tol=1e-8).ok
            pair = res.curve.curvature_pair()
            err = max(float(np.max(np.abs(pair.ell.values(ts) - res.law.ell.values(ts)))),
                      float(np.max(np.abs(pair.beta.values(ts) - res.law.beta.values(ts)))))
            assert err <= 1e-8, (entry.name, err)
            worst = max(worst, err)

    # the general transformation formula specializes to the affine law
    circle = gallery("circle").curve
    m = AffineMap(1.3, -0.4, 0.7, 0.9)
    diffeo = DiffeoSpec.from_texts("1.3*x - 0.4*y", "0.7*x + 0.9*y")
    law = pushforward_affine(circle, m).law
    pts = rng.uniform(0, TWO_PI, 100)
    ell_d, beta_d, _ = pushforward_diffeo(circle, diffeo, pts)
    err = max(float(np.max(np.abs(law.ell.values(pts) - ell_d))),
              float(np.max(np.abs(law.beta.values(pts) - beta_d))))
    assert err <= 1e-10
    _report(7, f"law vs frame recomputation on {5 * len(roster)} transforms, worst "
               f"{worst:.2e} <= 1e-8; affine specialization at 100 points {err:.2e} <= 1e-10")


def test_criterion_8_numerics_oracles(roster):
    """Root finder vs a 1e6-point brute scan; jets vs finite differences."""
    compared = 0
    for entry in roster:
        pair = entry.curve.curvature_pair()
        half_open = entry.curve.closed
        for fun in (pair.ell, pair.beta):
            ts = np.linspace(entry.curve.domain[0], entry.curve.domain[1], 4097)
            if float(np.max(np.abs(fun.values(ts)))) <= 1e-12:
                continue  # the identically-zero component has no finite zero set
            found = find_zeros(fun, entry.curve.domain, half_open=half_open)
            oracle = brute_force_zeros(fun, entry.curve.domain, n=1_000_000,
                                       half_open=half_open)
            assert len(found) == len(oracle), (entry.name, found, oracle)
            if found:
                gap = float(np.max(np.abs(np.array(found) - np.array(oracle))))
                assert gap <= 1e-8, (entry.name, gap)
            compared += 1

    rng = np.random.default_rng(11)
    h = 1e-6
    checked = 0
    for entry in roster:
        a, b = entry.curve.domain
        for fun in (entry.curve.x, entry.curve.y, entry.curve.nu_x, entry.curve.nu_y):
            for t in rng.uniform(a + 10 * h, b - 10 * h, 100):
                d = float(fun.jet(float(t), 1)[1])
                fd = (fun(t + h) - fun(t - h)) / (2 * h)
                assert abs(d - fd) <= 1e-6 * max(abs(fd), 1e-2)
                checked += 1
    _report(8, f"{compared} components agree with the brute-force scan; "
               f"{checked} jet derivatives within 1e-6 of finite differences")


def test_criterion_9_parser(roster, capsys):
    """Print/parse identity; malformed input gives positioned errors, exit 2."""
    rng = random.Random(20240918)
    for arity in ("one-var", "two-var"):
        for _ in range(250):
            ast = random_ast(rng, depth=rng.randrange(0, 5), arity=arity)
            assert parse_expr(pretty_print(ast), arity) == ast
    for entry in roster:
        for fun in (entry.curve.x, entry.curve.y, entry.curve.nu_x, entry.curve.nu_y):
            assert parse_expr(pretty_print(fun.ast)) == fun.ast

    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("cos(t")
    assert err.value.offset == 5

    code = run(["reconstruct", "--ell", "1 + $", "--beta", "1", "--domain", "0:1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "offset 4" in captured.err
    _report(9, "500 random ASTs and all gallery expressions round-trip; "
               "malformed input exits 2 with a position")
