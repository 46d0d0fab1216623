import math

import numpy as np
import pytest

from legendre_curves import (check_ab_assumption, check_closed, check_legendre,
                             find_zeros, gallery)
from legendre_curves.errors import CurveError

TWO_PI = 2 * math.pi


def _ab_assumption_by_search(a, b):
    """The definition: no n, m with 0 <= 1+2n < 4a, 0 <= 1+2m < 4b and
    b(1+2n) = a(1+2m), searched over the finite ranges."""
    return not any(b * (1 + 2 * n) == a * (1 + 2 * m)
                   for n in range(2 * a) for m in range(2 * b))


def test_ab_assumption():
    assert check_ab_assumption(1, 2) is True
    assert check_ab_assumption(1, 3) is False  # 3*(1+0) == 1*(1+2)
    assert check_ab_assumption(2, 3) is True
    for a in range(1, 40):
        for b in range(1, 40):
            if a != b:
                assert check_ab_assumption(a, b) is _ab_assumption_by_search(a, b), (a, b)
    # the closed form answers at once where the search would take years
    assert check_ab_assumption(999_999_937, 2 * 999_999_937) is True
    assert check_ab_assumption(999_999_999, 3 * 999_999_999) is False


def test_ab_assumption_requires_distinct():
    with pytest.raises(CurveError):
        check_ab_assumption(2, 2)


def test_gallery_golden_curvature(roster):
    for entry in roster:
        a, b = entry.curve.domain
        ts = np.linspace(a, b, 1000)
        pair = entry.curve.curvature_pair()
        closed_form = entry.curvature_closed_form
        assert np.max(np.abs(pair.ell.values(ts) - closed_form.ell.values(ts))) <= 1e-9
        assert np.max(np.abs(pair.beta.values(ts) - closed_form.beta.values(ts))) <= 1e-9


def test_gallery_passes_legendre_check(roster):
    for entry in roster:
        assert check_legendre(entry.curve, samples=512, tol=1e-9).ok, entry.name


def test_gamma_n_curvature_values():
    entry = gallery("gamma_n", {"n": 3})
    pair = entry.curve.curvature_pair()
    for t in (0.3, 2.0):
        assert pair.ell(t) == pytest.approx(2.0)
        assert pair.beta(t) == pytest.approx(6 * math.sin(t))


def test_gamma_m_curvature_values():
    entry = gallery("gamma_m", {"m": 3})
    pair = entry.curve.curvature_pair()
    for t in (0.3, 2.0):
        assert pair.ell(t) == pytest.approx(1.0)
        assert pair.beta(t) == pytest.approx(6 * math.sin(2 * t))


def test_gamma_ab_12_is_regular_with_two_inflections():
    entry = gallery("gamma_ab", {"a": 1, "b": 2})
    pair = entry.curve.curvature_pair()
    ts = np.linspace(0, TWO_PI, 2000)
    assert np.max(pair.beta.values(ts)) < 0  # regular everywhere
    roots = find_zeros(pair.ell, entry.curve.domain, half_open=True)
    assert roots == pytest.approx([0.0, math.pi], abs=1e-9)


def test_closed_flags_match_frame_periodicity():
    # the frame of the even-index members flips sign across the seam
    assert gallery("gamma_n", {"n": 3}).curve.closed
    assert not gallery("gamma_n", {"n": 4}).curve.closed
    assert gallery("gamma_m", {"m": 1}).curve.closed
    assert not gallery("gamma_m", {"m": 2}).curve.closed
    rep = check_closed(gallery("gamma_n", {"n": 5}).curve, max_order=6)
    assert rep.closed_to_checked_order


def test_gallery_validation():
    with pytest.raises(CurveError, match="unknown gallery name"):
        gallery("spiral")
    with pytest.raises(CurveError, match="assumption fails"):
        gallery("gamma_ab", {"a": 1, "b": 3})
    with pytest.raises(CurveError):
        gallery("gamma_n", {"n": 1})
    # a parameter the family does not read is named, not ignored
    with pytest.raises(CurveError, match="gamma_n takes no parameter 'm'"):
        gallery("gamma_n", {"n": 3, "m": 7})
    with pytest.raises(CurveError, match=r"circle takes no parameter 'q' \(its parameters: none\)"):
        gallery("circle", {"q": 1})


def test_gallery_specs_reload(roster):
    from legendre_curves import load_curve
    for entry in roster:
        curve = load_curve(entry.spec)
        ts = np.linspace(curve.domain[0], curve.domain[1], 64)
        assert np.allclose(curve.gamma(ts), entry.curve.gamma(ts), atol=1e-15)


def test_type_nm_gallery_entry():
    entry = gallery("type_nm", {"n": 2, "m": 3})
    assert entry.curve.domain == (-1.0, 1.0)
    pair = entry.curve.curvature_pair()
    ts = np.linspace(-1, 1, 101)
    cf = entry.curvature_closed_form
    assert np.max(np.abs(pair.ell.values(ts) - cf.ell.values(ts))) <= 1e-12
