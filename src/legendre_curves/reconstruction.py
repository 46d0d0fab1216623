"""Rebuild a curve from a prescribed curvature pair, and congruence alignment.

Given evaluable ``(ell, beta)`` on an interval, the curve with that
curvature is obtained by integrating the turning angle and then the
displacement:

    theta(t) = integral of ell,    nu = (cos theta, sin theta),
    gamma(t) = (-integral of beta*sin(theta), integral of beta*cos(theta)).

The integration constants are fixed to theta(a) = 0 and gamma(a) = (0, 0);
any other choice differs by a rotation plus a translation, and the
uniqueness theorem says that is the full ambiguity.  ``align_congruence``
recovers that rotation/translation between two curves and reports the
worst-case residual, which is how round trips are validated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import CurvaturePair, _require_finite
from .errors import GridMismatchError, ReconstructionError
from .exprs import ScalarFun


@dataclass
class SampledCurve:
    """Uniform samples of a curve and its frame."""

    ts: np.ndarray
    gammas: np.ndarray  # shape (N, 2)
    nus: np.ndarray     # shape (N, 2)

    @property
    def step(self) -> float:
        return float(self.ts[1] - self.ts[0])

    def to_csv(self) -> str:
        lines = ["t,gx,gy,nx,ny"]
        for t, g, n in zip(self.ts, self.gammas, self.nus):
            lines.append("%.17g,%.17g,%.17g,%.17g,%.17g" % (t, g[0], g[1], n[0], n[1]))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Congruence:
    """Orientation-preserving rigid motion: p -> R(angle) p + translation."""

    rotation_angle: float
    translation: tuple[float, float]

    def matrix(self) -> np.ndarray:
        c, s = np.cos(self.rotation_angle), np.sin(self.rotation_angle)
        return np.array([[c, -s], [s, c]])

    def apply(self, points: np.ndarray) -> np.ndarray:
        return points @ self.matrix().T + np.asarray(self.translation)

    def rotate(self, vectors: np.ndarray) -> np.ndarray:
        return vectors @ self.matrix().T


@dataclass(frozen=True)
class AlignResult:
    congruence: Congruence
    residual: float


def cumulative_simpson(values: np.ndarray, h: float) -> np.ndarray:
    """Running integral of uniform samples by Simpson pairs.

    Needs an even number of subintervals.  Even grid points accumulate the
    classic composite rule; odd points add the partial integral of the
    same interpolating parabola, so the whole prefix stays fourth order.
    """
    values = np.asarray(values, dtype=float)
    n = len(values) - 1
    if n < 2 or n % 2 != 0:
        raise ValueError("cumulative Simpson needs an even number of subintervals")
    out = np.empty_like(values)
    out[0] = 0.0
    f0 = values[0:-1:2]
    f1 = values[1::2]
    f2 = values[2::2]
    pair_integrals = (h / 3.0) * (f0 + 4.0 * f1 + f2)
    even_cum = np.concatenate([[0.0], np.cumsum(pair_integrals)])
    out[0::2] = even_cum
    out[1::2] = even_cum[:-1] + (h / 12.0) * (5.0 * f0 + 8.0 * f1 - f2)
    return out


def reconstruct(ell, beta, domain: tuple[float, float], steps: int = 8192) -> SampledCurve:
    """Curve with prescribed curvature, sampled on a uniform grid.

    ``steps`` counts subintervals and must be even (the quadrature works on
    Simpson pairs); fourth-order accurate in the step size.  The domain
    must be a finite interval with a < b (``CurveError`` otherwise).  A
    curvature sample or running integral that is not finite raises
    ``ReconstructionError`` naming the first t where it occurs.
    """
    if steps < 16:
        raise ReconstructionError("steps must be at least 16")
    if steps % 2 != 0:
        raise ReconstructionError("steps must be even (Simpson pairs)")
    pair = CurvaturePair(ScalarFun.wrap(ell), ScalarFun.wrap(beta), domain)
    a, b = pair.domain
    ts = np.linspace(a, b, steps + 1)
    h = (b - a) / steps
    with np.errstate(over="ignore", invalid="ignore"):
        ell_vals, beta_vals = (np.broadcast_to(j.array[0], ts.shape)
                               for j in pair.jets(ts, 0))
        _require_finite(ts, "curvature", ell_vals, beta_vals, error=ReconstructionError)
        theta = cumulative_simpson(ell_vals, h)
        cos, sin = np.cos(theta), np.sin(theta)
        gx = -cumulative_simpson(beta_vals * sin, h)
        gy = cumulative_simpson(beta_vals * cos, h)
    _require_finite(ts, "integral of the curvature", theta, gx, gy,
                    error=ReconstructionError)
    return SampledCurve(ts=ts, gammas=np.stack([gx, gy], axis=-1),
                        nus=np.stack([cos, sin], axis=-1))


def sample_curve(curve, ts) -> SampledCurve:
    """Sample an exact curve and its frame on a given grid."""
    ts = np.asarray(ts, dtype=float)
    return SampledCurve(ts=ts, gammas=curve.gamma(ts), nus=curve.nu(ts))


def align_congruence(curve1, curve2) -> AlignResult:
    """Find the rotation A and translation a with gamma2 = A gamma1 + a.

    The rotation is pinned by the frames at the first grid point (a unit
    frame determines an element of SO(2) uniquely); the residual then
    measures how well the motion matches everywhere, covering both the
    curve and the frame.
    """
    s1, s2 = _as_sampled_pair(curve1, curve2)
    if len(s1.ts) != len(s2.ts):
        raise GridMismatchError("grid mismatch")
    if float(np.max(np.abs(s1.ts - s2.ts))) > 1e-9:
        raise GridMismatchError("grid mismatch")
    n1 = s1.nus[0]
    n2 = s2.nus[0]
    angle = float(np.arctan2(n1[0] * n2[1] - n1[1] * n2[0], n1[0] * n2[0] + n1[1] * n2[1]))
    rot = Congruence(angle, (0.0, 0.0))
    translation = s2.gammas[0] - rot.rotate(s1.gammas[0][None, :])[0]
    motion = Congruence(angle, (float(translation[0]), float(translation[1])))
    residual = max(_max_row_length(s2.gammas - motion.apply(s1.gammas)),
                   _max_row_length(s2.nus - motion.rotate(s1.nus)))
    return AlignResult(congruence=motion, residual=residual)


def _max_row_length(d: np.ndarray) -> float:
    """max |row| of an (N, 2) array; the same sum of squares and sqrt as
    ``np.linalg.norm(d, axis=1)``, without its general-axis reduction."""
    return float(np.max(np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])))


def _as_sampled_pair(curve1, curve2):
    sampled1 = isinstance(curve1, SampledCurve)
    sampled2 = isinstance(curve2, SampledCurve)
    if sampled1 and sampled2:
        return curve1, curve2
    if sampled1:
        return curve1, sample_curve(curve2, curve1.ts)
    if sampled2:
        return sample_curve(curve1, curve2.ts), curve2
    raise GridMismatchError("grid mismatch: provide at least one sampled curve")


def sampled_curvature(sc: SampledCurve) -> tuple[np.ndarray, np.ndarray]:
    """Re-extract (ell, beta) from samples by finite differences.

    Uses fourth-order five-point stencils (one-sided at the edges), so the
    result is independent of the jet machinery and serves as an oracle for
    reconstruction round trips.
    """
    h = sc.step
    dnu = np.stack([_derivative_5pt(sc.nus[:, 0], h),
                    _derivative_5pt(sc.nus[:, 1], h)], axis=-1)
    dgamma = np.stack([_derivative_5pt(sc.gammas[:, 0], h),
                       _derivative_5pt(sc.gammas[:, 1], h)], axis=-1)
    mu = np.stack([-sc.nus[:, 1], sc.nus[:, 0]], axis=-1)
    ell = np.sum(dnu * mu, axis=1)
    beta = np.sum(dgamma * mu, axis=1)
    return ell, beta


def _derivative_5pt(f: np.ndarray, h: float) -> np.ndarray:
    n = len(f)
    if n < 5:
        raise ValueError("need at least 5 samples")
    d = np.empty_like(f)
    d[2:-2] = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)
    d[0] = (-25.0 * f[0] + 48.0 * f[1] - 36.0 * f[2] + 16.0 * f[3] - 3.0 * f[4]) / (12.0 * h)
    d[1] = (-3.0 * f[0] - 10.0 * f[1] + 18.0 * f[2] - 6.0 * f[3] + f[4]) / (12.0 * h)
    d[-2] = (3.0 * f[-1] + 10.0 * f[-2] - 18.0 * f[-3] + 6.0 * f[-4] - f[-5]) / (12.0 * h)
    d[-1] = (25.0 * f[-1] - 48.0 * f[-2] + 36.0 * f[-3] - 16.0 * f[-4] + 3.0 * f[-5]) / (12.0 * h)
    return d
