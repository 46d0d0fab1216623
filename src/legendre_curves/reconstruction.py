"""Rebuild a curve from a prescribed curvature pair, and congruence alignment.

Given evaluable ``(ell, beta)`` on an interval, the curve with that
curvature is obtained by integrating the turning angle and then the
displacement:

    theta(t) = integral of ell,    nu = (cos theta, sin theta),
    gamma(t) = (-integral of beta*sin(theta), integral of beta*cos(theta)).

The integration constants are fixed to theta(a) = 0 and gamma(a) = (0, 0);
any other choice differs by a rotation plus a translation, and the
uniqueness theorem says that is the full ambiguity.  nu is stacked from
one (2, N) block of sin(theta) and cos(theta), which, scaled by beta in
place, gives both coordinates of gamma in one cumulative Simpson pass.
``align_congruence`` recovers that rotation/translation between two
curves and reports the worst-case residual, which is how round trips are
validated; the motion acts on the x and y columns with the cosine and
sine of its angle.  Long rows go to a few reused buffers, each operation
with the operand order of the plain expression, so the bits are the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import CurvaturePair, _frame_jets, _integers, _require_finite, _same_point_tol
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
    """Orientation-preserving rigid motion: p -> R(angle) p + translation.

    ``apply`` and ``rotate`` take points or vectors of shape (..., 2) and
    work on the x and y columns, (c x - s y, s x + c y) with c and s the
    cosine and sine of the angle.
    """

    rotation_angle: float
    translation: tuple[float, float]

    def _moved(self, points):
        """The two columns of ``apply(points)``."""
        x, y = _turn(self.rotation_angle, points[..., 0], points[..., 1])
        return x + self.translation[0], y + self.translation[1]

    def apply(self, points: np.ndarray) -> np.ndarray:
        return np.stack(self._moved(np.asarray(points)), axis=-1)

    def rotate(self, vectors: np.ndarray) -> np.ndarray:
        vectors = np.asarray(vectors)
        return np.stack(_turn(self.rotation_angle, vectors[..., 0], vectors[..., 1]), axis=-1)


def _turn(angle: float, x, y):
    """The columns x and y rotated by ``angle``."""
    c, s = np.cos(angle), np.sin(angle)
    return c * x - s * y, s * x + c * y


@dataclass(frozen=True)
class AlignResult:
    congruence: Congruence
    residual: float


def cumulative_simpson(values: np.ndarray, h: float) -> np.ndarray:
    """Running integral of uniform samples by Simpson pairs, along the
    last axis, so one call integrates every row of a block.

    Needs an even number of subintervals.  Even grid points accumulate the
    classic composite rule; odd points add the partial integral of the
    same interpolating parabola, so the whole prefix stays fourth order.
    Both sums are formed in one half-length buffer, with the odd points of
    the output as scratch until they are written.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[-1] - 1
    if n < 2 or n % 2 != 0:
        raise ValueError("cumulative Simpson needs an even number of subintervals")
    out = np.empty_like(values)
    out[..., 0] = 0.0
    f0, f1, f2 = values[..., 0:-1:2], values[..., 1::2], values[..., 2::2]
    odd = out[..., 1::2]
    acc = np.multiply(f1, 4.0)
    acc += f0
    acc += f2
    acc *= h / 3.0
    np.cumsum(acc, axis=-1, out=out[..., 2::2])
    np.multiply(f0, 5.0, out=acc)
    acc += np.multiply(f1, 8.0, out=odd)
    acc -= f2
    acc *= h / 12.0
    np.add(out[..., 0:-1:2], acc, out=odd)
    return out


def reconstruct(ell, beta, domain: tuple[float, float], steps: int = 8192) -> SampledCurve:
    """Curve with prescribed curvature, sampled on a uniform grid.

    ``steps`` counts subintervals and must be an even integer of at least
    16 (the quadrature works on Simpson pairs; ``ReconstructionError``
    otherwise); fourth-order accurate in the step size.  theta and then
    both coordinates of gamma, as one (2, N) block, take one cumulative
    Simpson pass each.  The domain must be a finite interval with a < b
    (``CurveError`` otherwise).  A curvature sample or running integral
    that is not finite raises ``ReconstructionError`` naming the first t
    where it occurs.
    """
    if not _integers(steps) or steps < 16:
        raise ReconstructionError(f"steps must be an integer of at least 16, got {steps!r}")
    if steps % 2 != 0:
        raise ReconstructionError("steps must be even (Simpson pairs)")
    pair = CurvaturePair(ScalarFun.wrap(ell), ScalarFun.wrap(beta), domain)
    a, b = pair.domain
    ts = np.linspace(a, b, steps + 1)
    h = (b - a) / steps
    with np.errstate(over="ignore", invalid="ignore"):
        ell_vals, beta_vals = (j[0] for j in pair.jets(ts, 0))
        _require_finite(ts, "curvature", ell_vals, beta_vals, error=ReconstructionError)
        theta = cumulative_simpson(ell_vals, h)
        trig = np.empty((2, len(ts)))
        np.sin(theta, out=trig[0])
        np.cos(theta, out=trig[1])
        nus = np.stack([trig[1], trig[0]], axis=-1)
        trig *= beta_vals
        sin_int, cos_int = cumulative_simpson(trig, h)
    _require_finite(ts, "integral of the curvature", theta, sin_int, cos_int,
                    error=ReconstructionError)
    gammas = np.stack([sin_int, cos_int], axis=-1)
    np.negative(gammas[:, 0], out=gammas[:, 0])
    return SampledCurve(ts=ts, gammas=gammas, nus=nus)


def sample_curve(curve, ts) -> SampledCurve:
    """Sample an exact curve and its frame on a given grid: gamma and nu
    read row 0 of one tape run over the four components."""
    ts = np.asarray(ts, dtype=float)
    x, y, nx, ny = (jet[0] for jet in _frame_jets(curve, ts, 0))
    return SampledCurve(ts=ts, gammas=np.stack([x, y], axis=-1),
                        nus=np.stack([nx, ny], axis=-1))


def align_congruence(curve1, curve2) -> AlignResult:
    """Find the rotation A and translation a with gamma2 = A gamma1 + a.

    The rotation is pinned by the frames at the first grid point (a unit
    frame determines an element of SO(2) uniquely); the residual then
    measures how well the motion matches everywhere, covering both the
    curve and the frame.  Both residuals are computed in three reused
    rows; the grids are compared only when they are distinct arrays, and
    must agree to ``curves._same_point_tol`` of the first.
    """
    s1, s2 = _as_sampled_pair(curve1, curve2)
    if len(s1.ts) != len(s2.ts):
        raise GridMismatchError("grid mismatch")
    if s1.ts is not s2.ts and (float(np.max(np.abs(s1.ts - s2.ts)))
                               > _same_point_tol((s1.ts[0], s1.ts[-1]))):
        raise GridMismatchError("grid mismatch")
    n1 = s1.nus[0]
    n2 = s2.nus[0]
    angle = float(np.arctan2(n1[0] * n2[1] - n1[1] * n2[0], n1[0] * n2[0] + n1[1] * n2[1]))
    x0, y0 = _turn(angle, *s1.gammas[0])
    motion = Congruence(angle, (float(s2.gammas[0, 0] - x0), float(s2.gammas[0, 1] - y0)))
    # |row|^2 as np.linalg.norm sums it; sqrt is monotone and correctly
    # rounded, so the root of the largest square is the largest norm
    turn = np.cos(angle), np.sin(angle), [np.empty(len(s1.ts)) for _ in range(3)]
    worst = max(_max_square(*turn, s1.gammas, s2.gammas, motion.translation),
                _max_square(*turn, s1.nus, s2.nus))
    return AlignResult(congruence=motion, residual=math.sqrt(worst))


def _max_square(c, s, work, points1, points2, shift=None) -> float:
    """max |row2 - (c x - s y, s x + c y) - shift|^2 over the rows (x, y) of
    ``points1`` and row2 of ``points2``, computed in the three rows of
    ``work``; each squared length is summed as ``np.linalg.norm`` sums it."""
    (x, y), (u, v, w) = points1.T, work
    np.multiply(x, c, out=u)
    u -= np.multiply(y, s, out=v)
    np.multiply(x, s, out=v)
    v += np.multiply(y, c, out=w)
    if shift is not None:
        u += shift[0]
        v += shift[1]
    np.subtract(points2[:, 0], u, out=u)
    u *= u
    np.subtract(points2[:, 1], v, out=v)
    v *= v
    u += v
    return float(np.max(u))


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
