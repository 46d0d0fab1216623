import dataclasses
import math

import numpy as np
import pytest

from legendre_curves import (AffineMap, Congruence, LegendreCurve,
                             align_congruence, check_legendre, gallery,
                             pushforward_affine, reconstruct, reparametrize,
                             sample_curve, sampled_curvature, type_nm_curve)
from legendre_curves import jets
from legendre_curves.errors import GridMismatchError, ReconstructionError
from legendre_curves.reconstruction import cumulative_simpson

TWO_PI = 2 * math.pi


def test_constant_pair_gives_circle():
    sc = reconstruct("1", "1", (0, TWO_PI), steps=8192)
    exact = np.stack([np.cos(sc.ts) - 1.0, np.sin(sc.ts)], axis=-1)
    assert np.max(np.abs(sc.gammas - exact)) <= 1e-6
    assert np.max(np.abs(sc.nus - np.stack([np.cos(sc.ts), np.sin(sc.ts)], -1))) <= 1e-6


def test_zero_ell_gives_line():
    sc = reconstruct("0", "1", (0, 1), steps=64)
    assert np.max(np.abs(sc.gammas[:, 0])) <= 1e-12
    assert np.max(np.abs(sc.gammas[:, 1] - sc.ts)) <= 1e-12
    assert np.allclose(sc.nus, [1.0, 0.0])


def test_cusp_reconstruction_is_congruent_to_explicit_cusp():
    sc = reconstruct("6/(9*t^2+4)", "-t*sqrt(9*t^2+4)", (-1, 1), steps=8192)
    res = align_congruence(sc, type_nm_curve(2, 3))
    assert res.residual <= 1e-6


def test_align_self_identity():
    curve = gallery("circle").curve
    sc = sample_curve(curve, np.linspace(0, TWO_PI, 129))
    res = align_congruence(sc, sc)
    assert res.residual == 0.0
    assert res.congruence.rotation_angle == pytest.approx(0.0)
    assert res.congruence.translation == pytest.approx((0.0, 0.0))


def test_align_recovers_known_motion():
    curve = gallery("circle").curve
    s1 = sample_curve(curve, np.linspace(0, TWO_PI, 257))
    motion = Congruence(math.pi / 3, (1.0, 2.0))
    s2 = dataclasses.replace(s1, gammas=motion.apply(s1.gammas),
                             nus=motion.rotate(s1.nus))
    res = align_congruence(s1, s2)
    assert res.congruence.rotation_angle == pytest.approx(math.pi / 3)
    assert res.congruence.translation == pytest.approx((1.0, 2.0))
    assert res.residual <= 1e-9


def test_round_trip_gamma_n3():
    curve = gallery("gamma_n", {"n": 3}).curve
    pair = curve.curvature_pair()
    sc = reconstruct(pair.ell, pair.beta, curve.domain, steps=8192)
    res = align_congruence(sc, curve)
    assert res.residual <= 1e-6
    ell_re, beta_re = sampled_curvature(sc)
    assert np.max(np.abs(ell_re - pair.ell.values(sc.ts))) <= 1e-6
    assert np.max(np.abs(beta_re - pair.beta.values(sc.ts))) <= 1e-6


def test_flipping_beta_negates_gamma():
    ell, beta = "1 + sin(t)/2", "cos(2*t)"
    plus = reconstruct(ell, beta, (0, 3), steps=256)
    minus = reconstruct(ell, f"-({beta})", (0, 3), steps=256)
    assert np.max(np.abs(minus.gammas + plus.gammas)) <= 1e-13
    assert np.max(np.abs(minus.nus - plus.nus)) <= 1e-13


def test_distinct_curvatures_are_not_congruent():
    # different curvature pairs must leave a visible residual
    sc1 = reconstruct("1", "1", (0, TWO_PI), steps=512)
    sc2 = reconstruct("1", "1 + sin(t)/2", (0, TWO_PI), steps=512)
    assert align_congruence(sc1, sc2).residual > 1e-2


def test_grid_mismatch():
    curve = gallery("circle").curve
    s1 = sample_curve(curve, np.linspace(0, TWO_PI, 65))
    s2 = sample_curve(curve, np.linspace(0, TWO_PI, 129))
    with pytest.raises(GridMismatchError, match="grid mismatch"):
        align_congruence(s1, s2)
    s3 = sample_curve(curve, np.linspace(0.1, TWO_PI, 65))
    with pytest.raises(GridMismatchError):
        align_congruence(s1, s3)


def test_reconstruct_validates_steps():
    with pytest.raises(ReconstructionError, match="at least 16"):
        reconstruct("1", "1", (0, 1), steps=8)
    with pytest.raises(ReconstructionError, match="even"):
        reconstruct("1", "1", (0, 1), steps=17)
    for steps in (2048.0, np.float64(64), "64", True, None):
        with pytest.raises(ReconstructionError, match="must be an integer"):
            reconstruct("1", "1", (0, 1), steps=steps)
    assert len(reconstruct("1", "1", (0, 1), steps=np.int64(16)).ts) == 17


def test_cumulative_simpson_exact_for_cubics():
    # Simpson integrates cubics exactly; the odd-point rule shares the parabola
    ts = np.linspace(0, 2, 65)
    h = ts[1] - ts[0]
    vals = 3 * ts ** 2
    out = cumulative_simpson(vals, h)
    assert np.max(np.abs(out - ts ** 3)) <= 1e-12


def test_cumulative_simpson_fourth_order():
    def defect(n):
        ts = np.linspace(0, 1, n + 1)
        out = cumulative_simpson(np.exp(ts), ts[1] - ts[0])
        return np.max(np.abs(out - (np.exp(ts) - 1.0)))

    d1, d2 = defect(64), defect(128)
    assert d1 / d2 > 12  # ~16 for a fourth-order rule


def test_richardson_defect_small_for_smooth_data():
    # the half grid shares every other node with the full grid
    full = reconstruct("1 + sin(t)/3", "cos(t)", (0, TWO_PI), 8192)
    half = reconstruct("1 + sin(t)/3", "cos(t)", (0, TWO_PI), 4096)
    assert np.max(np.abs(full.gammas[::2] - half.gammas)) <= 1e-9
    assert np.max(np.abs(full.nus[::2] - half.nus)) <= 1e-9


def test_csv_output_shape():
    sc = reconstruct("1", "1", (0, 1), steps=16)
    lines = sc.to_csv().strip().split("\n")
    assert lines[0] == "t,gx,gy,nx,ny"
    assert len(lines) == 18
    assert len(lines[1].split(",")) == 5


def _frame_sources(roster):
    """The gallery, an affine and a reparametrized image of each member,
    and a curve with constant components."""
    curves = []
    for entry in roster:
        curve = entry.curve
        a, b = curve.domain
        curves += [curve, pushforward_affine(curve, AffineMap(1.3, 0.4, -0.2, 0.9)).curve,
                   reparametrize(curve, f"{a!r} + {b - a!r}*(t + 0.1*t*(1 - t))",
                                 (0.0, 1.0)).curve]
    return curves + [LegendreCurve.from_exprs("t", "0", nu=("0", "1"), domain=(0, 1))]


def test_frame_pairs_match_per_component_values_bitwise(roster):
    # gamma and nu read row 0 of one joint tape run; the reference is the
    # per-component ``values`` path, one tape per component
    for curve in _frame_sources(roster):
        a, b = curve.domain
        for ts in (np.array(0.3 * a + 0.7 * b), np.array([a]), np.linspace(a, b, 32769)):
            want_gamma = np.stack([curve.x.values(ts), curve.y.values(ts)], axis=-1)
            want_nu = np.stack([curve.nu_x.values(ts), curve.nu_y.values(ts)], axis=-1)
            got = curve.gamma(ts)
            assert got.shape == want_gamma.shape and got.dtype == want_gamma.dtype
            assert got.tobytes() == want_gamma.tobytes()
            sc = sample_curve(curve, np.atleast_1d(ts))
            assert sc.gammas.tobytes() == np.atleast_2d(want_gamma).tobytes()
            assert sc.nus.shape == np.atleast_2d(want_nu).shape
            assert sc.nus.dtype == want_nu.dtype
            assert sc.nus.tobytes() == np.atleast_2d(want_nu).tobytes()


def test_sample_curve_runs_one_tape_once(tape_runs):
    # gamma and nu come from one run of one tape over x, y, nu_x and nu_y
    curve = gallery("gamma_n", {"n": 3}).curve
    tape_runs.clear()  # building the gallery curve checks it
    sample_curve(curve, np.linspace(0, TWO_PI, 257))
    assert [(run.order, run.outputs) for run in tape_runs.runs] == [(0, 4)]


def test_alignment_residual_matches_linalg_norm_bitwise(roster):
    for entry in roster:
        curve = entry.curve
        pair = curve.curvature_pair()
        sc = reconstruct(pair.ell, pair.beta, curve.domain, steps=2048)
        exact = sample_curve(curve, sc.ts)
        res = align_congruence(sc, exact)
        motion = res.congruence
        want = float(max(
            np.max(np.linalg.norm(exact.gammas - motion.apply(sc.gammas), axis=1)),
            np.max(np.linalg.norm(exact.nus - motion.rotate(sc.nus), axis=1))))
        assert res.residual == want


@pytest.mark.parametrize("ell, beta, domain, message", [
    ("exp(1000*t)", "1", (0, 1), "curvature is not finite at t=0.75"),
    ("1", "exp(800*t)", (0, 1), "curvature is not finite at t=0.9375"),
    ("0", "1e308", (0, 16), "integral of the curvature is not finite at t=1.0"),
])
def test_reconstruct_refuses_non_finite_curvature(ell, beta, domain, message):
    # the first grid point where a sample or a running integral overflows
    with pytest.raises(ReconstructionError) as err:
        reconstruct(ell, beta, domain, steps=16)
    assert str(err.value) == message


# -- the memo of long sin/cos rows (jets._TRIG_MEMO) --------------------------------

def _memo_sensitive_outputs(entry):
    """Thunks for what the memo serves: the round trip of both curvature
    sources at 32768 steps (the samples that ``to_csv`` prints, and the
    residual), and the curvature, an affine law, its image's curvature and
    the frame check on 8193 points."""
    curve = entry.curve
    ts = np.linspace(*curve.domain, 8193)
    law = pushforward_affine(curve, AffineMap(1.3, 0.4, -0.2, 0.9))
    image = law.curve.curvature_pair()
    thunks = []
    for pair in (curve.curvature_pair(), entry.curvature_closed_form):
        def round_trip(pair=pair):
            sc = reconstruct(pair.ell, pair.beta, curve.domain, steps=32768)
            return (sc.ts.tobytes(), sc.gammas.tobytes(), sc.nus.tobytes(),
                    align_congruence(sc, curve).residual)
        thunks.append(round_trip)
    for fun in (pair.ell, pair.beta, law.law.ell, law.law.beta, image.ell, image.beta):
        thunks.append(lambda fun=fun: fun.values(ts).tobytes())
    thunks.append(lambda: dataclasses.astuple(check_legendre(law.curve, samples=8193)))
    return thunks


def test_memo_cold_and_warm_give_the_same_bytes(roster):
    for entry in roster:
        thunks = _memo_sensitive_outputs(entry)
        cold = []
        for thunk in thunks:
            jets._TRIG_MEMO.clear()
            cold.append(thunk())
        warm = [thunk() for thunk in thunks]
        warmer = [thunk() for thunk in thunks]
        assert warm == cold, entry.name
        assert warmer == cold, entry.name


def test_frame_round_trip_computes_each_long_trig_row_once(trig_calls):
    jets._TRIG_MEMO.clear()
    curve = gallery("gamma_n", {"n": 5}).curve
    pair = curve.curvature_pair()
    align_congruence(reconstruct(pair.ell, pair.beta, curve.domain, steps=32768), curve)
    # without the memo, 6 of the 8 rows were computed twice
    assert len(trig_calls) == 8 and set(trig_calls.values()) == {1}
