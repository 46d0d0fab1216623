import dataclasses
import math

import numpy as np
import pytest

from legendre_curves import (AffineMap, Congruence, LegendreCurve,
                             align_congruence, check_legendre, gallery,
                             pushforward_affine, reconstruct, reparametrize,
                             sample_curve, type_nm_curve)
from legendre_curves import jets
from legendre_curves.curves import _require_finite
from legendre_curves.errors import GridMismatchError, ReconstructionError
from legendre_curves.reconstruction import cumulative_simpson

from conftest import sampled_curvature

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


def test_grid_check_follows_the_parameter_unit():
    # on [0, 1e-12] the grids ts and 1.5 ts differ by half the domain
    curve = gallery("circle").curve
    ts = np.linspace(0.0, 1e-12, 65)
    with pytest.raises(GridMismatchError, match="grid mismatch"):
        align_congruence(sample_curve(curve, ts), sample_curve(curve, 1.5 * ts))


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


# -- bit identity with the reference expressions of the buffered code -------------

def _simpson_reference(values, h):
    """cumulative_simpson as the two textbook sums, each a fresh temporary."""
    values = np.asarray(values, dtype=float)
    out = np.empty_like(values)
    out[..., 0] = 0.0
    f0, f1, f2 = values[..., 0:-1:2], values[..., 1::2], values[..., 2::2]
    np.cumsum((h / 3.0) * (f0 + 4.0 * f1 + f2), axis=-1, out=out[..., 2::2])
    out[..., 1::2] = out[..., 0:-1:2] + (h / 12.0) * (5.0 * f0 + 8.0 * f1 - f2)
    return out


def _reconstruct_reference(pair, steps):
    a, b = pair.domain
    ts = np.linspace(a, b, steps + 1)
    h = (b - a) / steps
    ell_vals, beta_vals = (j[0] for j in pair.jets(ts, 0))
    theta = _simpson_reference(ell_vals, h)
    cos, sin = np.cos(theta), np.sin(theta)
    sin_int, cos_int = _simpson_reference(beta_vals * np.stack([sin, cos]), h)
    return ts, np.stack([-sin_int, cos_int], -1), np.stack([cos, sin], -1)


def _turn(angle, x, y):
    c, s = np.cos(angle), np.sin(angle)
    return c * x - s * y, s * x + c * y


def _max_square(points, columns):
    dx, dy = points[:, 0] - columns[0], points[:, 1] - columns[1]
    return float(np.max(dx * dx + dy * dy))


def _residual_reference(s1, s2):
    n1, n2 = s1.nus[0], s2.nus[0]
    angle = float(np.arctan2(n1[0] * n2[1] - n1[1] * n2[0], n1[0] * n2[0] + n1[1] * n2[1]))
    x0, y0 = _turn(angle, *s1.gammas[0])
    a1, a2 = float(s2.gammas[0, 0] - x0), float(s2.gammas[0, 1] - y0)
    x, y = _turn(angle, s1.gammas[:, 0], s1.gammas[:, 1])
    return math.sqrt(max(_max_square(s2.gammas, (x + a1, y + a2)),
                         _max_square(s2.nus, _turn(angle, s1.nus[:, 0], s1.nus[:, 1]))))


def _same_bits(got, want):
    """Equal values, and equal bits: -0.0 is not 0.0 here."""
    return np.array_equal(got, want) and got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("steps", [16, 2048, 32768])
def test_round_trip_matches_the_reference_expressions_bitwise(roster, steps):
    for entry in roster:
        curve = entry.curve
        for pair in (curve.curvature_pair(), entry.curvature_closed_form):
            sc = reconstruct(pair.ell, pair.beta, curve.domain, steps=steps)
            ts, gammas, nus = _reconstruct_reference(pair, steps)
            assert _same_bits(sc.ts, ts), entry.name
            assert _same_bits(sc.gammas, gammas), entry.name
            assert _same_bits(sc.nus, nus), entry.name
            exact = sample_curve(curve, sc.ts)
            assert align_congruence(sc, curve).residual == _residual_reference(sc, exact)
            assert align_congruence(exact, sc).residual == _residual_reference(exact, sc)


@pytest.mark.parametrize("shape", [(16 + 1,), (2, 2048 + 1), (3, 64 + 1)])
def test_cumulative_simpson_matches_the_textbook_sums_bitwise(shape):
    rng = np.random.default_rng(sum(shape))
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 301, shape)
    flat = values.reshape(-1)
    picks = rng.permutation(flat.size)
    flat[picks[:5]] = -0.0
    flat[picks[5:10]] = rng.standard_normal(5) * 5e-324 * 2 ** 40  # subnormal
    flat[picks[10:15]] = rng.uniform(-1.0, 1.0, 5) * 1e300
    for h in (1.0 / (shape[-1] - 1), 5e-324, 3.7):
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            got, want = cumulative_simpson(values, h), _simpson_reference(values, h)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), h


def _require_finite_reference(ts, what, *arrays):
    ok = np.logical_and.reduce([np.isfinite(a).reshape(len(ts), -1).all(axis=1)
                                for a in arrays])
    return None if ok.all() else f"{what} is not finite at t={float(ts[np.argmin(ok)])!r}"


def test_require_finite_names_the_first_bad_t_as_the_per_t_pass_does():
    ts = np.linspace(0.0, 1.0, 9)
    clean = [np.ones(9), np.ones((9, 2))]
    last_nan = np.ones(9)
    last_nan[[6, 3]] = np.nan
    last_inf = np.ones((9, 2))
    last_inf[8, 1] = -np.inf
    for arrays in ([*clean, last_nan], [*clean, last_inf], [last_inf, *clean],
                   [last_nan, last_inf, clean[0]], clean):
        want = _require_finite_reference(ts, "x", *arrays)
        if want is None:
            _require_finite(ts, "x", *arrays, error=ReconstructionError)
            continue
        with pytest.raises(ReconstructionError) as err:
            _require_finite(ts, "x", *arrays, error=ReconstructionError)
        assert str(err.value) == want


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
