import dataclasses
import math

import numpy as np
import pytest

from legendre_curves import (Congruence, align_congruence, gallery,
                             reconstruct, richardson_defect, sample_curve,
                             sampled_curvature, type_nm_curve)
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
    assert richardson_defect("1 + sin(t)/3", "cos(t)", (0, TWO_PI), 8192) <= 1e-9


def test_csv_output_shape():
    sc = reconstruct("1", "1", (0, 1), steps=16)
    lines = sc.to_csv().strip().split("\n")
    assert lines[0] == "t,gx,gy,nx,ny"
    assert len(lines) == 18
    assert len(lines[1].split(",")) == 5
