import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legendre_curves import (CurvaturePair, DiffeoSpec, LegendreCurve, ScalarFun,
                             pushforward_diffeo_curve, sample_curve, signature)
from legendre_curves import jets
from legendre_curves.errors import JetDomainError
from legendre_curves.exprs import (Binary, Number, PowInt, Unary, Var, _Tape,
                                   eval_jet, eval_jet_many, parse_expr)
from legendre_curves.gallery import gallery
from legendre_curves.jets import TaylorJet, compose, jet_elementary
from legendre_curves.transforms import reparametrize


def jets_close(jet, expected, tol=1e-12):
    """A TaylorJet's or a coefficient array's rows against ``expected``."""
    rows = jet.coeffs if isinstance(jet, TaylorJet) else list(jet)
    assert len(rows) == len(expected)
    for c, e in zip(rows, expected):
        assert abs(float(c) - e) <= tol, (rows, expected)


def test_mul_of_variable_jets():
    t = TaylorJet([0.0, 1.0, 0.0, 0.0])
    jets_close(t * t, [0, 0, 1, 0])


def test_div_geometric_series():
    one = TaylorJet([1.0, 0.0, 0.0])
    jets_close(one / TaylorJet([1.0, 1.0, 0.0]), [1, -1, 1])


def test_pow_int_binomial():
    jets_close(jets.pow_int(np.array([1.0, 1.0, 0.0, 0.0]), 3), [1, 3, 3, 1])


def test_sin_maclaurin():
    jets_close(jet_elementary("sin", TaylorJet([0.0, 1.0, 0.0, 0.0])), [0, 1, 0, -1 / 6])


def test_sqrt_of_constant():
    jets_close(jet_elementary("sqrt", TaylorJet([4.0, 0.0, 0.0])), [2, 0, 0])


def test_exp_series():
    jets_close(jet_elementary("exp", TaylorJet([0.0, 1.0, 0.0])), [1, 1, 0.5])


def test_atan_series():
    # atan(t) = t - t^3/3 + ...
    jets_close(jet_elementary("atan", TaylorJet([0.0, 1.0, 0.0, 0.0, 0.0])),
               [0, 1, 0, -1 / 3, 0])


def test_division_by_zero_jet():
    with pytest.raises(JetDomainError, match="jet division by zero"):
        TaylorJet([1.0, 0.0, 0.0]) / TaylorJet([0.0, 1.0, 0.0])


def test_sqrt_domain_error():
    with pytest.raises(JetDomainError, match="sqrt domain error"):
        jet_elementary("sqrt", TaylorJet([-1.0, 0.0]))
    with pytest.raises(JetDomainError, match="sqrt domain error"):
        jet_elementary("sqrt", TaylorJet([0.0, 1.0]))


def test_derivative_at_examples():
    def derivative(text, t0, k):
        return float(ScalarFun.from_text(text).jet(t0, k)[k]) * math.factorial(k)

    assert derivative("t^2", 0.0, 2) == pytest.approx(2.0)
    assert derivative("sin(t)", math.pi, 1) == pytest.approx(-1.0)
    # value of the cusp's first curvature component at its singular point
    assert derivative("6/(9*t^2+4)", 0.0, 0) == pytest.approx(1.5)


def test_derivative_at_accepts_jet_callable():
    cube = ScalarFun.wrap("t*t*t")
    assert float(cube.jet(2.0, 2)[2]) * 2 == pytest.approx(12.0)


@given(st.lists(st.floats(-5, 5), min_size=1, max_size=6),
       st.lists(st.floats(-5, 5), min_size=1, max_size=6))
@settings(max_examples=200)
def test_jet_product_matches_polynomial_convolution(p, q):
    # jets of polynomials at 0 are their coefficient lists
    order = 10
    jp = TaylorJet(p + [0.0] * (order + 1 - len(p)))
    jq = TaylorJet(q + [0.0] * (order + 1 - len(q)))
    got = (jp * jq).coeffs
    want = np.convolve(p, q)[: order + 1]
    want = np.concatenate([want, np.zeros(order + 1 - len(want))])
    assert np.allclose(got, want, atol=1e-9)


def test_first_derivative_matches_finite_differences(roster):
    rng = np.random.default_rng(7)
    h = 1e-6
    for entry in roster:
        a, b = entry.curve.domain
        for fun in (entry.curve.x, entry.curve.y, entry.curve.nu_x, entry.curve.nu_y):
            ts = rng.uniform(a + 10 * h, b - 10 * h, 100)
            for t in ts:
                d = fun.jet(float(t), 1)[1]
                fd = (fun(t + h) - fun(t - h)) / (2 * h)
                assert abs(d - fd) <= 1e-6 * max(abs(fd), 1e-2)


def test_contact_order_survives_parameter_change():
    # zero of order r at 0 stays order r for (f o phi) phi' with phi(u) = 2u
    for text, expected in [("t^3", 3), ("sin(t)", 1), ("t^2*(1+t)", 2)]:
        f = ScalarFun.from_text(text)
        g = ScalarFun.from_text(text.replace("t", "(2*t)") + "*2")
        for h in (f, g):
            sig = signature(CurvaturePair(ScalarFun.from_text("1"), h, (-0.4, 0.4)))
            assert sig.key() == (False, False, (("singular", None, expected),))
            assert sig.zeros[0].t == 0.0


@given(st.floats(-3, 3), st.floats(-2, 2), st.floats(-2, 2))
@settings(max_examples=100)
def test_pythagorean_identity_as_jets(t0, a1, a2):
    # sin(u)^2 + cos(u)^2 == 1 must hold coefficient-wise for any inner jet
    u = TaylorJet([t0, a1, a2, 0.5, 0.0, 0.0])
    s = jet_elementary("sin", u)
    c = jet_elementary("cos", u)
    total = jets.add((s * s).array, (c * c).array)
    assert float(total[0]) == pytest.approx(1.0, abs=1e-12)
    for coef in total[1:]:
        assert abs(float(coef)) <= 1e-10


def test_compose_against_direct_evaluation():
    outer = ScalarFun.from_text("sin(t) + t^2")
    inner = ScalarFun.from_text("exp(t) - 1")
    u0 = 0.4
    ij = inner.jet(u0, 6)
    oj = outer.jet(float(ij[0]), 6)
    composed = compose(TaylorJet(oj), TaylorJet(ij))
    direct = ScalarFun.from_text("sin(exp(t) - 1) + (exp(t) - 1)^2").jet(u0, 6)
    jets_close(composed, [float(c) for c in direct], tol=1e-10)


def test_vectorized_jets_match_scalar():
    f = ScalarFun.from_text("sin(3*t)/sqrt(t^2+2)")
    ts = np.linspace(-2, 2, 17)
    vec = f.jet(ts, 2)
    for i, t in enumerate(ts):
        sc = f.jet(float(t), 2)
        for k in range(3):
            assert vec[k][i] == pytest.approx(float(sc[k]), abs=1e-14)


# -- array kernels against the list-based recurrences ---------------------------
#
# The references below are the scalar nested loops the kernels replaced: a
# jet is a list of rows, each row a float or an array of points.

def _ref_mul(a, b):
    out = []
    for k in range(len(a)):
        s = a[0] * b[k]
        for j in range(1, k + 1):
            s = s + a[j] * b[k - j]
        out.append(s)
    return out


def _ref_div(a, b):
    out = [a[0] / b[0]]
    for k in range(1, len(a)):
        s = a[k]
        for j in range(k):
            s = s - out[j] * b[k - j]
        out.append(s / b[0])
    return out


def _ref_sin_cos(a):
    s = [np.sin(a[0])]
    c = [np.cos(a[0])]
    for k in range(1, len(a)):
        sk = 0.0
        ck = 0.0
        for j in range(1, k + 1):
            sk = sk + j * a[j] * c[k - j]
            ck = ck - j * a[j] * s[k - j]
        s.append(sk / k)
        c.append(ck / k)
    return s, c


def _ref_exp(a):
    e = [np.exp(a[0])]
    for k in range(1, len(a)):
        s = 0.0
        for j in range(1, k + 1):
            s = s + j * a[j] * e[k - j]
        e.append(s / k)
    return e


def _ref_sqrt(a):
    r = [np.sqrt(a[0])]
    for k in range(1, len(a)):
        s = a[k]
        for j in range(1, k):
            s = s - r[j] * r[k - j]
        r.append(s / (2.0 * r[0]))
    return r


def _ref_atan(a):
    n = len(a) - 1
    out = [np.arctan(a[0])]
    if n:
        g = _ref_mul(a, a)[:n]
        g[0] = g[0] + 1.0
        q = _ref_div([(i + 1) * c for i, c in enumerate(a[1:])], g)
        out += [q[k - 1] / k for k in range(1, n + 1)]
    return out


def _ref_const(c, order):
    return [c] + [0.0] * order


def assert_matches(got, want):
    """|got_k - want_k| <= 1e-12 * max(1, max_j |want_j|), point by point."""
    want = np.array(np.broadcast_arrays(*want), dtype=float)
    got = np.asarray(got, dtype=float)
    assert got.shape == want.shape
    scale = np.maximum(1.0, np.max(np.abs(want), axis=0))
    assert np.all(np.abs(got - want) <= 1e-12 * scale), np.max(np.abs(got - want) / scale)


ORDERS = (0, 1, 2, 12, 13)
POINTS = (None, 1, 17, 4097)  # None: a single scalar point


def _random_jet(rng, order, points):
    """Coefficient array with a positive order-0 row (valid for div and sqrt)."""
    shape = (order + 1,) if points is None else (order + 1, points)
    a = rng.uniform(-1.0, 1.0, shape)
    a[0] = rng.uniform(0.5, 2.0, shape[1:])
    return a


@pytest.mark.parametrize("points", POINTS)
@pytest.mark.parametrize("order", ORDERS)
def test_array_kernels_match_reference(order, points):
    rng = np.random.default_rng(1000 * order + (points or 0))
    a = _random_jet(rng, order, points)
    b = _random_jet(rng, order, points)
    ra, rb = list(a), list(b)
    assert_matches(jets.add(a, b), [x + y for x, y in zip(ra, rb)])
    assert_matches(jets.sub(a, b), [x - y for x, y in zip(ra, rb)])
    assert_matches(jets.mul(a, b), _ref_mul(ra, rb))
    assert_matches(jets.div(a, b), _ref_div(ra, rb))
    assert_matches(jets.pow_int(a, 3), _ref_mul(_ref_mul(ra, ra), ra))
    s, c = jets.sin_cos(a)
    rs, rc = _ref_sin_cos(ra)
    assert_matches(s, rs)
    assert_matches(c, rc)
    assert_matches(jets.exp(a), _ref_exp(ra))
    assert_matches(jets.sqrt(a), _ref_sqrt(ra))
    assert_matches(jets.atan(a), _ref_atan(ra))
    if order:
        assert_matches(jets.derivative(a), [(i + 1) * x for i, x in enumerate(ra[1:])])


@pytest.mark.parametrize("points", POINTS)
@pytest.mark.parametrize("order", ORDERS)
def test_constant_operand_on_either_side(order, points):
    rng = np.random.default_rng(7 + order)
    a = _random_jet(rng, order, points)
    ra = list(a)
    c = 1.75
    rc = _ref_const(c, order)
    assert_matches(jets.add(c, a), [x + y for x, y in zip(rc, ra)])
    assert_matches(jets.add(a, c), [x + y for x, y in zip(ra, rc)])
    assert_matches(jets.sub(c, a), [x - y for x, y in zip(rc, ra)])
    assert_matches(jets.sub(a, c), [x - y for x, y in zip(ra, rc)])
    assert_matches(jets.mul(c, a), _ref_mul(rc, ra))
    assert_matches(jets.mul(a, c), _ref_mul(ra, rc))
    assert_matches(jets.div(c, a), _ref_div(rc, ra))
    assert_matches(jets.div(a, c), _ref_div(ra, rc))


# -- short-row closed forms against the general recurrence ----------------------
#
# For 2 and 3 rows, div, sqrt and sin_cos write their rows out.  The
# functions below are the general recurrences they stand in for, and the
# two must agree byte for byte, signs of zero included: einsum sums from
# +0.0, so (-0.0) + (-0.0) comes out +0.0 there.

def _gen_dot(a, b):
    if len(a) == 1:
        return a[0] * b[0]
    return np.einsum("i...,i...->...", a, b)


def _gen_div(a, b):
    if not isinstance(a, np.ndarray):
        a = jets.constant_like(a, b)
    a, b = jets._align(a, b)
    out = a / b[0]
    for k in range(1, len(b)):
        out[k] = (a[k] - _gen_dot(out[:k], b[k:0:-1])) / b[0]
    return out


def _gen_sin_cos(a):
    s = np.empty_like(a)
    c = np.empty_like(a)
    s[0] = np.sin(a[0])
    c[0] = np.cos(a[0])
    da = a[1:] * np.arange(1.0, len(a)).reshape((-1,) + (1,) * (a.ndim - 1))
    for k in range(1, len(a)):
        s[k] = _gen_dot(da[:k], c[k - 1::-1]) / k
        c[k] = -_gen_dot(da[:k], s[k - 1::-1]) / k
    return s, c


def _gen_sqrt(a):
    r = np.empty_like(a)
    r[0] = np.sqrt(a[0])
    twice = 2.0 * r[0]
    for k in range(1, len(a)):
        r[k] = (a[k] - _gen_dot(r[1:k], r[k - 1:0:-1])) / twice
    return r


def _signed_zero_jet(rng, rows, points, head):
    """Rows of random numbers, about a third of them +0.0 or -0.0; row 0
    drawn by ``head`` (None: like the other rows)."""
    shape = (rows,) if points is None else (rows, points)
    a = rng.uniform(-2.0, 2.0, shape)
    zero = rng.random(shape) < 0.35
    a[zero] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zero]
    if head is not None:
        a[0] = head(rng, shape[1:])
    return a


def _nonzero(rng, shape):
    return rng.uniform(0.5, 2.0, shape) * rng.choice([-1.0, 1.0], shape)


def _positive(rng, shape):
    return rng.uniform(0.5, 2.0, shape)


def assert_same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("points", POINTS)
@pytest.mark.parametrize("rows", (1, 2, 3))
def test_short_row_kernels_match_the_general_recurrence(rows, points):
    rng = np.random.default_rng(100 * rows + (points or 0))
    for _ in range(4):
        a = _signed_zero_jet(rng, rows, points, None)
        den = _signed_zero_jet(rng, rows, points, _nonzero)
        pos = _signed_zero_jet(rng, rows, points, _positive)
        assert_same_bytes(jets.div(a, den), _gen_div(a, den))
        assert_same_bytes(jets.sqrt(pos), _gen_sqrt(pos))
        for got, want in zip(jets.sin_cos(a), _gen_sin_cos(a)):
            assert_same_bytes(got, want)
        for c in (1.75, -0.0):  # a constant operand on either side
            assert_same_bytes(jets.div(c, den), _gen_div(c, den))


@pytest.mark.parametrize("points", (None, 17))
@pytest.mark.parametrize("rows", (2, 3))
def test_short_row_kernels_take_no_reduction(rows, points, monkeypatch):
    def no_dot(a, b):
        raise AssertionError("general recurrence on a short jet")

    monkeypatch.setattr(jets, "_dot", no_dot)
    rng = np.random.default_rng(rows)
    a = _random_jet(rng, rows - 1, points)
    jets.div(a, a)
    jets.div(1.0, a)
    jets.sqrt(a)
    jets.sin_cos(a)


def _ref_eval(ast, t0, order):
    """Recursive evaluation of an AST with the list-based references."""
    if isinstance(ast, Number):
        return _ref_const(ast.value, order)
    if isinstance(ast, Var):
        return [t0, 1.0] + [0.0] * (order - 1) if order else [t0]
    if isinstance(ast, Unary):
        u = _ref_eval(ast.child, t0, order)
        if ast.op == "neg":
            return [-x for x in u]
        if ast.op in ("sin", "cos"):
            return _ref_sin_cos(u)[ast.op == "cos"]
        return {"exp": _ref_exp, "sqrt": _ref_sqrt, "atan": _ref_atan}[ast.op](u)
    if isinstance(ast, Binary):
        a = _ref_eval(ast.left, t0, order)
        b = _ref_eval(ast.right, t0, order)
        if ast.op == "add":
            return [x + y for x, y in zip(a, b)]
        if ast.op == "sub":
            return [x - y for x, y in zip(a, b)]
        return (_ref_mul if ast.op == "mul" else _ref_div)(a, b)
    assert isinstance(ast, PowInt)
    u = _ref_eval(ast.child, t0, order)
    out = _ref_const(1.0, order)
    for _ in range(ast.exponent):
        out = _ref_mul(out, u)
    return out


TAPE_EXPR = ("sin(2*t)*exp(-t^2/4)/sqrt(t^2 + 2) + atan(t/3) - cos(t)^3"
             " + 1/(2 + sin(t)) - 3 + (t - 1)*(1 - t)")


@pytest.mark.parametrize("points", POINTS)
@pytest.mark.parametrize("order", ORDERS)
def test_tape_matches_reference(order, points):
    ast = parse_expr(TAPE_EXPR)
    if points is None:
        t0 = 0.4
    else:
        t0 = np.linspace(-2.0, 2.0, points)
    got = eval_jet(ast, t0, order)
    assert_matches(got, _ref_eval(ast, t0, order))
    assert len(got) - 1 == order
    assert got.shape == (order + 1,) + np.shape(t0)


def test_every_jet_producer_returns_an_array():
    # A jet is one float array of shape (order + 1,) + np.shape(t0), also
    # for a constant component, for a diffeomorphism image and for its law.
    curve = LegendreCurve.from_exprs("t", "0", nu=("0", "1"), domain=(0.0, 1.0))
    pair = CurvaturePair.from_exprs("1", "t^2 - 0.25", (0.0, 1.0))
    diffeo = pushforward_diffeo_curve(curve, DiffeoSpec.from_texts("x + 0.1*y^2", "y + x^3"))
    image = diffeo.curve
    ast = parse_expr("sin(t)")

    def producers(t0, order):
        yield eval_jet(ast, t0, order)
        yield eval_jet(Number(2.0), t0, order)
        yield from eval_jet_many([ast, Number(2.0)], t0, order)
        yield ScalarFun.wrap(3.0).jet(t0, order)
        yield from curve.gamma_jets(t0, order) + curve.nu_jets(t0, order)
        yield from curve.curvature_pair().jets(t0, order) + pair.jets(t0, order)
        yield from image.gamma_jets(t0, order) + image.nu_jets(t0, order)
        yield from image.curvature_pair().jets(t0, order)
        yield from diffeo.law.jets(t0, order)

    for t0 in (0.3, np.array([0.3]), np.linspace(0.0, 1.0, 17)):
        for order in (0, 1):
            for jet in producers(t0, order):
                assert type(jet) is np.ndarray and jet.dtype == float
                assert jet.shape == (order + 1,) + np.shape(t0)


def test_equal_subtrees_compile_to_one_slot():
    # two parses give structurally equal trees that are distinct objects
    u1, u2 = parse_expr("sin(2*t) + t^2"), parse_expr("sin(2*t) + t^2")
    assert u1 is not u2
    tape = _Tape([u1, u2, Binary("mul", u1, u2)])
    assert tape.outputs[0] == tape.outputs[1]
    # the images of one substitute_var call in x and in nu_x of the
    # reparametrized circle, cos(t(u)), are distinct objects, one slot
    circle = gallery("circle").curve
    image = reparametrize(circle, "t + 0.3*sin(t)", circle.domain).curve
    assert image.x.ast is not image.nu_x.ast
    tape = _Tape([image.x.ast, image.y.ast, image.nu_x.ast, image.nu_y.ast])
    assert tape.outputs[0] == tape.outputs[2]
    assert tape.outputs[1] == tape.outputs[3]


def test_sin_and_cos_share_one_recurrence():
    tape = _Tape([parse_expr("sin(t^2) + cos(t^2)")])
    assert sum(1 for fn, *_ in tape.code if fn is jets.sin_cos) == 1
    tape = _Tape([parse_expr("sin(t)"), parse_expr("cos(t)")])
    assert sum(1 for fn, *_ in tape.code if fn is jets.sin_cos) == 1


def test_tape_terms_are_the_operands_of_the_outermost_sum():
    # A folded constant keeps its terms, and a negation or a constant factor
    # or divisor passes them up with its gain; a component with no such sum
    # or difference below it is its own term, twice, at gain 1.
    texts = ("0.3 - 0.1*3", "t^2 + sin(t)", "-(t - 1)", "2*(-(t - 1)/4)", "t*(t - 1)")
    tape = _Tape([parse_expr(text) for text in texts])
    rows = [jet[0] for jet in tape.run(np.array([0.5]), 0, terms=True)]
    assert [float(row[0]) for row in rows[5:]] == [
        0.3, 0.1 * 3, 0.25, math.sin(0.5), 0.5, 1.0, 0.5, 1.0, -0.25, -0.25]
    assert [np.array_equal(row, jet[0])
            for row, jet in zip(rows, tape.run(np.array([0.5]), 0))] == [True] * 5
    assert tape.gains.tolist() == [1.0, 1.0, 1.0, 0.5, 1.0]
    # a division by a constant 0 records no path: its run raises, not its compile
    assert _Tape([parse_expr("(t - 1)/0")]).gains.tolist() == [1.0]


def test_tape_releases_each_computed_slot_after_its_last_reader():
    curve = gallery("gamma_n", {"n": 3}).curve
    pair = curve.curvature_pair()
    tape = _Tape([pair.ell.ast, pair.beta.ast])
    assert tape.depth == 1
    last = {}
    for i, (_, dst, a, b, _) in enumerate(tape.code):
        last[a] = last[b] = i
    released = [slot for *_, free in tape.code for slot in free]
    assert len(released) == len(set(released))
    computed = {dst for _, dst, *_ in tape.code} | {0}
    assert set(released) == computed - set(tape.outputs)
    # a run with terms keeps them: ell and beta are each a difference of two products
    assert len(set(tape.terms)) == 4
    assert [ins[:4] for ins in tape.terms_code] == [ins[:4] for ins in tape.code]
    released_in_scan = [slot for *_, free in tape.terms_code for slot in free]
    assert set(released_in_scan) == set(released) - set(tape.terms)
    for i, (*_, free) in enumerate(tape.code):
        assert all(last[slot] == i for slot in free)


# -- the memo of long sin/cos rows -------------------------------------------------

LONG = jets._MEMO_MIN_POINTS + 1  # the shortest row the memo takes


@pytest.fixture
def memo():
    jets._TRIG_MEMO.clear()
    yield jets._TRIG_MEMO
    jets._TRIG_MEMO.clear()


def _held(memo):
    """Key floats the memo holds."""
    return sum(entry[0].size for entry in memo.values())


def _long_jet(rng, rows=2, points=LONG):
    return rng.uniform(-3.0, 3.0, (rows, points))


def assert_sin_cos_direct(a):
    """sin_cos(a) gives the bytes of the general recurrence, which computes
    row 0 afresh."""
    for got, want in zip(jets.sin_cos(a), _gen_sin_cos(a)):
        assert_same_bytes(got, want)


def test_memo_keys_are_exact_bits(memo, trig_calls):
    rng = np.random.default_rng(5)
    base = _long_jet(rng)
    mid = LONG // 2
    nan_a = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
    nan_b = np.array([0xFFF8000000000002], dtype=np.uint64).view(np.float64)[0]
    # pairs that agree in shape and first and last bits, and differ at a
    # fingerprint sample in the middle
    pairs = [(0.0, -0.0), (nan_a, nan_b), (base[0, mid], np.nextafter(base[0, mid], 9.0))]
    for x, y in pairs:
        a, b = base.copy(), base.copy()
        a[0, mid], b[0, mid] = x, y
        wants = [_gen_sin_cos(a), _gen_sin_cos(b)]
        trig_calls.clear()
        # miss, miss, then a hit for each through another array of the same bits
        for jet, want in ((a, wants[0]), (b, wants[1]), (a.copy(), wants[0]),
                          (b.copy(), wants[1])):
            for got, w in zip(jets.sin_cos(jet), want):
                assert_same_bytes(got, w)
        assert sorted(trig_calls.values()) == [1, 1, 1, 1]
    # +0.0 and -0.0 are two keys, and sin keeps the sign of zero
    a = base.copy()
    a[0, mid] = -0.0
    assert np.signbit(jets.sin_cos(a)[0][0, mid])
    # the six keys above are all held, one row each, inside the budget
    assert [entry[0].size for entry in memo.values()] == [LONG] * 6
    assert _held(memo) <= jets._MEMO_BUDGET


def test_memo_leaves_short_long_infinite_and_float32_rows_alone(memo):
    rng = np.random.default_rng(7)
    short = _long_jet(rng, points=jets._MEMO_MIN_POINTS)
    too_long = _long_jet(rng, points=jets._MEMO_MAX_POINTS + 1)
    inf = _long_jet(rng)
    inf[0, 3] = np.inf
    for a in (short, too_long):
        assert_sin_cos_direct(a)
        assert_sin_cos_direct(a)
    for _ in range(2):  # numpy warns on sin(inf) each time, as without the memo
        with pytest.warns(RuntimeWarning, match="invalid value"):
            jets.sin_cos(inf)
    single = _long_jet(rng).astype(np.float32)  # not float64: no 64-bit key
    assert_same_bytes(jets.sin_cos(single)[1][0], np.cos(single[0]))
    assert memo == {}


def test_rows_of_one_fingerprint_get_their_own_bytes(memo, trig_calls):
    # two rows that agree at every 64th point and at the last one, and
    # differ at one other point: one fingerprint, two keys
    a = _long_jet(np.random.default_rng(11))
    b = a.copy()
    b[0, 100] = np.nextafter(a[0, 100], 9.0)
    assert jets._MEMO_MIN_POINTS < LONG and 100 % 64
    wants = {id(a): _gen_sin_cos(a), id(b): _gen_sin_cos(b)}
    trig_calls.clear()
    for jet in (a, b, a, b, b):
        for got, want in zip(jets.sin_cos(jet), wants[id(jet)]):
            assert_same_bytes(got, want)
    # each newer row replaced the older one: a twice, b twice, then a hit
    assert sorted(trig_calls.values()) == [2, 2, 2, 2]
    assert [entry[0].tobytes() for entry in memo.values()] == [b[0].tobytes()]


def test_a_lookup_compares_at_most_one_stored_row(memo, monkeypatch):
    # rows that all share shape, first bits and last bits, each its own
    # fingerprint
    base = _long_jet(np.random.default_rng(12), rows=1)
    rows = []
    for i in range(20):
        row = base.copy()
        row[0, 64 * (i + 1)] += 1.0
        rows.append(row)
    collide = rows[-1].copy()
    collide[0, 1] += 1.0  # not a fingerprint sample
    compares = []
    array_equal = np.array_equal

    def counted(*args, **kwargs):
        compares.append(1)
        return array_equal(*args, **kwargs)

    monkeypatch.setattr(np, "array_equal", counted)
    for row in rows:
        jets.sin_cos(row)
    assert len(memo) == len(rows) and len(compares) == 0  # all misses: none compared
    for row, want in ((rows[0], 1), (rows[10], 1), (base, 0), (collide, 1), (rows[-1], 1)):
        compares.clear()
        jets.sin_cos(row.copy())
        assert len(compares) == want


def test_writing_into_returned_jets_leaves_later_results_unchanged(memo):
    a = _long_jet(np.random.default_rng(8), rows=3)
    want = _gen_sin_cos(a)
    for _ in range(2):
        s, c = jets.sin_cos(a)
        s[0] += 1.0
        c[:] = 0.0
    for got, w in zip(jets.sin_cos(a), want):
        assert_same_bytes(got, w)
    curve = gallery("gamma_n", {"n": 3}).curve
    ts = np.linspace(*curve.domain, LONG)
    first = sample_curve(curve, ts).nus
    first[:] = np.nan
    assert_same_bytes(sample_curve(curve, ts).nus, sample_curve(curve, ts.copy()).nus)
    assert np.isfinite(sample_curve(curve, ts).nus).all()


def test_memo_holds_its_bound_and_drops_the_least_recently_used(memo, trig_calls):
    # rows of the signature grid, of 2^13 and of 2^15 steps, visited in a
    # mixed order that revisits some; a model LRU list says which are held
    rng = np.random.default_rng(9)
    top = jets._MEMO_MAX_POINTS
    sizes = [LONG, top, 8193, LONG, top, 8193, top, LONG, LONG, 8193, top]
    rows = [_long_jet(rng, rows=1, points=n) for n in sizes]
    order = list(range(len(rows))) + [int(i) for i in rng.integers(len(rows), size=40)]
    model = []
    for i in order:
        a = rows[i]
        hit = i in model
        key = ("sin", a[0].tobytes())
        computed = trig_calls.get(key, 0)
        jets.sin_cos(a)
        assert trig_calls.get(key, 0) == computed + (not hit)
        if hit:
            model.remove(i)
        model.append(i)
        while sum(rows[j][0].size for j in model) > jets._MEMO_BUDGET:
            model.pop(0)  # least recently used first
        assert model[-1] == i  # the newest row stays
        assert [entry[0].tobytes() for entry in memo.values()] == [
            rows[j][0].tobytes() for j in model]
        assert _held(memo) <= jets._MEMO_BUDGET
    assert len(model) < len(rows)  # the budget evicted rows
    memo.clear()  # 23 signature-grid rows fit
    for _ in range(24):
        jets.sin_cos(_long_jet(rng, rows=1))
    assert len(memo) == jets._MEMO_BUDGET // LONG == 23


def test_memo_under_threads(memo):
    rng = np.random.default_rng(10)
    # more key floats than the budget, so threads evict as they go
    top = jets._MEMO_MAX_POINTS
    rows = [_long_jet(rng, rows=2, points=n) for n in (LONG, top, 8193, top, top)]
    wants = [_gen_sin_cos(a) for a in rows]
    errors = []

    def work(seed):
        pick = np.random.default_rng(seed)
        try:
            for _ in range(40):
                i = int(pick.integers(len(rows)))
                for got, want in zip(jets.sin_cos(rows[i]), wants[i]):
                    assert got.tobytes() == want.tobytes()
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
    assert _held(memo) <= jets._MEMO_BUDGET
