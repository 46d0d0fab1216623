"""Truncated Taylor-series (jet) arithmetic over coefficient arrays.

A jet stores the Taylor coefficients of a function at one or many expansion
points as one array of shape ``(K + 1, *points)``: row ``i`` holds
``f^(i)(t0) / i!`` for every point, ``K`` is the truncation order.  All
combination rules propagate derivatives exactly, up to floating-point
rounding, which is what makes jets usable as derivative oracles when
classifying zeros by their vanishing order.

The kernels below (``add``, ``sub``, ``mul``, ``div``, ``pow_int``,
``sin_cos``, ``exp``, ``sqrt``, ``atan`` and ``derivative``) are the one
implementation of the Taylor recurrences.  They take coefficient arrays of
one point shape, or plain floats standing for constant functions, so one
code path serves a single point and a 4097-point grid alike.
``derivative`` drops a row, and a binary kernel cuts its longer operand:
coefficient k of every recurrence depends on coefficients 0..k only.
Products are shifted-slice updates, one array operation per order.  The
other recurrences take one reduction over the order axis per coefficient,
except that on arrays of 2 or 3 rows ``div``, ``sqrt`` and ``sin_cos``
write those rows out, a few ufunc calls each: on short jets numpy's
per-call cost outweighs the arithmetic.  The written-out rows keep the
loop's order of operations, so the two agree byte for byte; a two-term
sum is ``(0.0 + p) + q`` because ``einsum`` sums from +0.0.
``sin_cos`` takes row 0 of sin and cos of a long grid (4097 <= N <= 32769
points) from a memo of the most recently used argument rows, shared by every
caller in the process: the signature scans of a curve and its images, the
reconstruction round trip, and frame and law checks on one long grid
evaluate the same rows in several tape runs.  It holds at most 3 x 32769
key floats (23 signature-grid rows); a row's fingerprint and one exact
compare find it, and a hit returns the bytes a fresh computation gives,
copied into the new jet.
Every jet the package hands out is such an array: the compiled expression
tape in :mod:`exprs` calls the kernels on raw arrays and returns them, and
a consumer reads row ``k`` as ``jet[k]``.  :class:`TaylorJet`'s product and
quotient, ``jet_elementary``, ``jet_sqrt`` and ``compose`` are an object
API over the same kernels, on no data path: they hold exactly what the
benchmark's tracer (``bench/tracer.py``) binds.
"""

from __future__ import annotations

import functools
import threading
from typing import Union

import numpy as np

from .errors import JetDomainError

#: Default truncation order; covers the contact orders of interest with margin.
DEFAULT_ORDER = 12

#: A coefficient array of shape (K + 1, *points), or a float for a constant.
Coeffs = Union[float, np.ndarray]


# -- kernels ------------------------------------------------------------------


def _align(a: np.ndarray, b: np.ndarray):
    """Cut two coefficient arrays of one point shape to their common rows."""
    if len(a) != len(b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
    return a, b


@functools.lru_cache(maxsize=None)
def _orders(n: int, ndim: int) -> np.ndarray:
    """The column 1, 2, ..., n, shaped to scale rows of an ndim-array."""
    col = np.arange(1.0, n + 1.0).reshape((n,) + (1,) * (ndim - 1))
    col.flags.writeable = False  # shared between calls
    return col


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of a[i] * b[i] over the order axis."""
    if len(a) == 1:
        return a[0] * b[0]
    return np.einsum("i...,i...->...", a, b)


def constant_like(c, like: np.ndarray) -> np.ndarray:
    """Coefficient array of the constant c, shaped like ``like``."""
    out = np.zeros_like(like)
    out[0] = c
    return out


def add(a: Coeffs, b: Coeffs) -> Coeffs:
    if isinstance(a, np.ndarray):
        if isinstance(b, np.ndarray):
            a, b = _align(a, b)
            return a + b
        out = a.copy()
        out[0] += b
        return out
    if isinstance(b, np.ndarray):
        out = b.copy()
        out[0] += a
        return out
    return a + b


def sub(a: Coeffs, b: Coeffs) -> Coeffs:
    if isinstance(b, np.ndarray):
        if isinstance(a, np.ndarray):
            a, b = _align(a, b)
            return a - b
        out = -b
        out[0] += a
        return out
    if isinstance(a, np.ndarray):
        out = a.copy()
        out[0] -= b
        return out
    return a - b


def neg(a: Coeffs) -> Coeffs:
    return -a


def mul(a: Coeffs, b: Coeffs) -> Coeffs:
    """Cauchy product: c_k = sum_j a_j b_(k-j)."""
    if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)):
        return a * b
    a, b = _align(a, b)
    out = a[0] * b
    for j in range(1, len(a)):
        row = out[j:]  # += on a view copies nothing back into out
        row += a[j] * b[:-j]
    return out


def div(a: Coeffs, b: Coeffs) -> Coeffs:
    """Quotient: c_k = (a_k - sum_(j<k) c_j b_(k-j)) / b_0."""
    if not isinstance(b, np.ndarray):
        if b == 0.0:
            raise JetDomainError("jet division by zero at expansion point")
        return a / b
    if not isinstance(a, np.ndarray):
        a = constant_like(a, b)
    a, b = _align(a, b)
    b0 = b[0]
    if not b0.all():
        raise JetDomainError("jet division by zero at expansion point")
    out = a / b0
    n = len(b)
    if n == 2 or n == 3:  # the loop below, row by row
        out[1] = (a[1] - out[0] * b[1]) / b0
        if n == 3:
            out[2] = (a[2] - ((0.0 + out[0] * b[2]) + out[1] * b[1])) / b0
        return out
    for k in range(1, n):
        out[k] = (a[k] - _dot(out[:k], b[k:0:-1])) / b0
    return out


def pow_int(a: Coeffs, n: int) -> Coeffs:
    """a^n for a non-negative integer n, by repeated squaring."""
    result = None
    while n:
        if n & 1:
            result = a if result is None else mul(result, a)
        n >>= 1
        if n:
            a = mul(a, a)
    if result is None:
        return constant_like(1.0, a) if isinstance(a, np.ndarray) else 1.0
    return result


def derivative(a: Coeffs) -> Coeffs:
    """Coefficients of f' from those of f, one order shorter; 0.0 for a
    constant."""
    return a[1:] * _orders(len(a) - 1, a.ndim) if isinstance(a, np.ndarray) else 0.0


#: ``sin_cos`` looks row 0 up in the memo only on grids of 4097 points (the
#: signature grid) or more: scans repeat their arguments (an affine image
#: keeps its base curve's, a reparametrization's sin(k t) recurs), as do the
#: reconstruction grids several calls sample; the 1000-point law checks and
#: Newton's runs stay off the lookup.  Grids longer than 2^15 steps are not
#: stored, and the least recently used rows go until the key floats held fit
#: the budget: 3 x 3 x 32769 floats at most, about 2.4 MB, as with 3 rows.
_MEMO_MIN_POINTS = 4096
_MEMO_MAX_POINTS = 32769
_MEMO_BUDGET = 3 * _MEMO_MAX_POINTS

#: The memo, least recently used first: (bits, sin, cos) per argument row under
#: its fingerprint, the row's shape and the bits of every 64th point and the last
#: (a reparametrization keeps its grid's ends); and the lock that keeps it whole.
_TRIG_MEMO: dict = {}
_TRIG_LOCK = threading.Lock()


def _trig_rows(row: np.ndarray):
    """(sin row, cos row) of a float64 row, from the memo when it holds the
    row; the caller copies them.

    The fingerprint picks at most one stored row, which a new row of that
    fingerprint replaces.  It matches only when every 64-bit pattern agrees:
    -0.0 and +0.0 are different keys and a NaN matches only its own payload,
    so a hit returns the bytes ``np.sin`` and ``np.cos`` gave for that row.
    Stored rows are read-only.  A row holding an infinity is not stored,
    since sin and cos warn on it and a hit would not.
    """
    bits = np.ascontiguousarray(row).view(np.uint64).reshape(-1)
    key = (row.shape, bits[::64].tobytes(), int(bits[-1]))
    with _TRIG_LOCK:
        entry = _TRIG_MEMO.pop(key, None)
        if entry is not None and np.array_equal(entry[0], bits):
            _TRIG_MEMO[key] = entry
            return entry[1], entry[2]
    s, c = np.sin(row), np.cos(row)
    if not np.isinf(row).any():
        s.flags.writeable = c.flags.writeable = False
        with _TRIG_LOCK:
            _TRIG_MEMO[key] = (bits.copy(), s, c)
            held = sum(entry[0].size for entry in _TRIG_MEMO.values())
            while held > _MEMO_BUDGET:  # the newest row alone always fits
                held -= _TRIG_MEMO.pop(next(iter(_TRIG_MEMO)))[0].size
    return s, c


def sin_cos(a: Coeffs):
    """(sin a, cos a) from one shared recurrence:
    k s_k = sum_j j a_j c_(k-j),  k c_k = -sum_j j a_j s_(k-j)."""
    if not isinstance(a, np.ndarray):
        return np.sin(a), np.cos(a)
    s = np.empty_like(a)
    c = np.empty_like(a)
    if _MEMO_MIN_POINTS < a[0].size <= _MEMO_MAX_POINTS and a.dtype == np.float64:
        s[0], c[0] = _trig_rows(a[0])
    else:
        s[0] = np.sin(a[0])
        c[0] = np.cos(a[0])
    n = len(a)
    if n == 2 or n == 3:  # the loop below, row by row
        s[1] = a[1] * c[0]
        c[1] = -(a[1] * s[0])
        if n == 3:
            da1 = a[2] * 2.0
            s[2] = ((0.0 + a[1] * c[1]) + da1 * c[0]) / 2
            c[2] = -((0.0 + a[1] * s[1]) + da1 * s[0]) / 2
        return s, c
    da = derivative(a)
    for k in range(1, n):
        s[k] = _dot(da[:k], c[k - 1::-1]) / k
        c[k] = -_dot(da[:k], s[k - 1::-1]) / k
    return s, c


def exp(a: Coeffs) -> Coeffs:
    """k e_k = sum_j j a_j e_(k-j)."""
    if not isinstance(a, np.ndarray):
        return np.exp(a)
    e = np.empty_like(a)
    e[0] = np.exp(a[0])
    da = derivative(a)
    for k in range(1, len(a)):
        e[k] = _dot(da[:k], e[k - 1::-1]) / k
    return e


def sqrt(a: Coeffs) -> Coeffs:
    """r_k = (a_k - sum_(0<j<k) r_j r_(k-j)) / (2 r_0)."""
    if not isinstance(a, np.ndarray):
        if a <= 0.0:
            raise JetDomainError("sqrt domain error")
        return np.sqrt(a)
    if (a[0] <= 0.0).any():
        raise JetDomainError("sqrt domain error")
    r = np.empty_like(a)
    r[0] = np.sqrt(a[0])
    twice = 2.0 * r[0]
    n = len(a)
    if n == 2 or n == 3:  # the loop below, row by row
        r[1] = a[1] / twice
        if n == 3:
            r[2] = (a[2] - r[1] * r[1]) / twice
        return r
    for k in range(1, n):
        r[k] = (a[k] - _dot(r[1:k], r[k - 1:0:-1])) / twice
    return r


def atan(a: Coeffs) -> Coeffs:
    """atan(a)' = a' / (1 + a^2): integrate the quotient series."""
    if not isinstance(a, np.ndarray):
        return np.arctan(a)
    out = np.empty_like(a)
    out[0] = np.arctan(a[0])
    n = len(a) - 1
    if n:
        head = a[:n]
        q = div(derivative(a), add(1.0, mul(head, head)))
        out[1:] = q / _orders(n, a.ndim)
    return out


# -- jets as objects ------------------------------------------------------------


class TaylorJet:
    """Taylor coefficients of a smooth function at one or many points.

    ``array`` has shape ``(order + 1, *points)``; ``coeffs`` lists its rows.
    """

    __slots__ = ("array",)

    def __init__(self, coeffs):
        a = np.asarray(coeffs, dtype=float)
        if a.ndim == 0 or len(a) == 0:
            raise ValueError("a jet needs at least the order-0 coefficient")
        self.array = a

    @property
    def coeffs(self) -> list:
        return list(self.array)

    @property
    def order(self) -> int:
        return len(self.array) - 1

    def _operand(self, other) -> Coeffs:
        if isinstance(other, TaylorJet):
            if other.order != self.order:
                raise ValueError("jets have different orders")
            return other.array
        return float(other)

    def __mul__(self, other):
        return TaylorJet(mul(self.array, self._operand(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return TaylorJet(div(self.array, self._operand(other)))


# -- elementary functions ---------------------------------------------------

_ELEMENTARY = {
    "sin": lambda a: sin_cos(a)[0],
    "cos": lambda a: sin_cos(a)[1],
    "exp": exp,
    "sqrt": sqrt,
    "atan": atan,
}


def jet_elementary(fn: str, a: TaylorJet) -> TaylorJet:
    """Compose an elementary function (sin, cos, exp, sqrt, atan) with a jet."""
    try:
        impl = _ELEMENTARY[fn]
    except KeyError:
        raise ValueError(f"unknown elementary function {fn!r}") from None
    return TaylorJet(impl(a.array))


def jet_sqrt(a: TaylorJet) -> TaylorJet:
    return TaylorJet(sqrt(a.array))


# -- spec-level operations --------------------------------------------------


def compose(outer: TaylorJet, inner: TaylorJet) -> TaylorJet:
    """Jet of g(h(u)) given the jet of g at h(u0) and the jet of h at u0.

    The caller guarantees that ``outer`` is expanded at ``inner.coeffs[0]``.
    """
    if outer.order != inner.order:
        raise ValueError("jets have different orders")
    n = outer.order
    w = inner.array.copy()
    w[0] = 0.0  # h(u) - h(u0)
    g = outer.array
    result = constant_like(g[n], w)
    for i in range(n - 1, -1, -1):
        result = mul(result, w)
        result[0] += g[i]
    return TaylorJet(result)
