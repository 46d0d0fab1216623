import gc
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legendre_curves import (ScalarFun, eval_jet, parse_expr, pretty_print,
                             substitute_params)
from legendre_curves.errors import ExprSyntaxError, LegendreError
from legendre_curves import jets
from legendre_curves.exprs import (Binary, Const, Number, PowInt, Unary, Var,
                                   _KERNELS, ast_derivative, eval_bijet, neg,
                                   substitute_var)

from conftest import random_ast


def plain_eval(ast, env):
    """Recursive float evaluation, independent of the jet machinery."""
    if isinstance(ast, Number):
        return ast.value
    if isinstance(ast, Const):
        return math.pi
    if isinstance(ast, Var):
        return env[ast.name]
    if isinstance(ast, Unary):
        v = plain_eval(ast.child, env)
        return {"neg": lambda u: -u, "sin": math.sin, "cos": math.cos,
                "exp": math.exp, "sqrt": math.sqrt, "atan": math.atan}[ast.op](v)
    if isinstance(ast, Binary):
        lv = plain_eval(ast.left, env)
        rv = plain_eval(ast.right, env)
        return {"add": lv + rv, "sub": lv - rv, "mul": lv * rv,
                "div": lv / rv if rv != 0 else math.inf}[ast.op]
    return plain_eval(ast.child, env) ** ast.exponent


def test_parse_structure_examples():
    assert parse_expr("sin(2*t)") == Unary("sin", Binary("mul", Number(2.0), Var("t")))
    assert parse_expr("t^3 - 3*t") == Binary(
        "sub", PowInt(Var("t"), 3), Binary("mul", Number(3.0), Var("t")))


def test_parse_substituted_component():
    # x-component of the index-3 epicycloid family after substituting n=3
    text = substitute_params("n*cos(t)-cos(n*t)", {"n": 3})
    assert text == "3*cos(t)-cos(3*t)"
    ast = parse_expr(text)
    assert ast == Binary("sub",
                         Binary("mul", Number(3.0), Unary("cos", Var("t"))),
                         Unary("cos", Binary("mul", Number(3.0), Var("t"))))


def test_precedence_and_unary_minus():
    assert parse_expr("1+2*3") == Binary("add", Number(1.0),
                                         Binary("mul", Number(2.0), Number(3.0)))
    # '^' binds tighter than '*'; unary minus folds into literals
    assert parse_expr("2*t^3") == Binary("mul", Number(2.0), PowInt(Var("t"), 3))
    assert parse_expr("-2") == Number(-2.0)
    assert parse_expr("3 - -2") == Binary("sub", Number(3.0), Number(-2.0))


def test_eval_jet_examples():
    j = eval_jet(parse_expr("sin(t)"), 0.0, 1)
    assert [float(c) for c in j] == pytest.approx([0.0, 1.0])
    j = eval_jet(parse_expr("sqrt(9*t^2+4)"), 0.0, 0)
    assert float(j[0]) == pytest.approx(2.0)
    f = ScalarFun.from_text("2*cos(t)*sin(2*t)-sin(t)*cos(2*t)")
    assert f(math.pi / 2) == pytest.approx(1.0)


def test_eval_bijet_examples():
    def fields(text, x0, y0):
        b = eval_bijet(parse_expr(text, "two-var"), x0, y0)
        return (b.value, (b.dx, b.dy), (b.dxx, b.dxy, b.dyy))

    assert fields("x*y", 2.0, 3.0) == (6.0, (3.0, 2.0), (0.0, 1.0, 0.0))
    assert fields("2*x", 1.0, 5.0) == (2.0, (2.0, 0.0), (0.0, 0.0, 0.0))
    assert fields("x^2 - y^2", 1.0, 1.0) == (0.0, (2.0, -2.0), (2.0, 0.0, -2.0))


def test_pretty_print_examples():
    assert pretty_print(PowInt(Var("t"), 2)) == "(t^2)"
    assert pretty_print(Binary("add", Number(1.0), Var("t"))) == "(1 + t)"


@pytest.mark.parametrize("text", [
    "sin(2*t)", "t^3 - 3*t", "3*cos(t)-cos(3*t)",
    "-b*cos(2*t)/sqrt(1*cos(t)^2 + 4*cos(2*t)^2)".replace("b", "2"),
    "atan(t) + exp(-t^2)", "(-t)^3", "pi*t",
])
def test_round_trip_named(text):
    ast = parse_expr(text)
    assert parse_expr(pretty_print(ast)) == ast


def test_round_trip_500_random_asts():
    rng = random.Random(20240811)
    for arity in ("one-var", "two-var"):
        for _ in range(250):
            ast = random_ast(rng, depth=rng.randrange(0, 5), arity=arity)
            printed = pretty_print(ast)
            assert parse_expr(printed, arity) == ast, printed


def test_value_agrees_with_plain_evaluation():
    rng = random.Random(99)
    checked = 0
    while checked < 200:
        ast = random_ast(rng, depth=3)
        t = rng.uniform(-2.0, 2.0)
        try:
            want = plain_eval(ast, {"t": t})
        except (ValueError, OverflowError, ZeroDivisionError):
            continue
        if not math.isfinite(want) or abs(want) > 1e12:
            continue
        try:
            got = float(eval_jet(ast, t, 0)[0])
        except Exception:
            continue
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        checked += 1


def test_syntax_error_positions():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("1 + @")
    assert err.value.offset == 4
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("sin(t")
    assert err.value.offset == 5
    with pytest.raises(ExprSyntaxError, match="unknown identifier"):
        parse_expr("foo(t)")
    with pytest.raises(ExprSyntaxError, match="empty"):
        parse_expr("   ")
    # no implicit multiplication
    with pytest.raises(ExprSyntaxError):
        parse_expr("2t")
    # exponents are literal non-negative integers
    with pytest.raises(ExprSyntaxError, match="exponent"):
        parse_expr("t^2.5")
    with pytest.raises(ExprSyntaxError):
        parse_expr("t^-2")
    # a literal that overflows to inf is refused, not printed as "inf"
    with pytest.raises(ExprSyntaxError, match="'1e400' overflows") as err:
        parse_expr("2 + 1e400*t")
    assert err.value.offset == 4
    with pytest.raises(ExprSyntaxError, match="overflows"):
        parse_expr("-1e309")


def test_arity_enforcement():
    with pytest.raises(ExprSyntaxError, match="not allowed"):
        parse_expr("x + 1", "one-var")
    with pytest.raises(ExprSyntaxError, match="not allowed"):
        parse_expr("t + 1", "two-var")
    assert parse_expr("x*y + 1", "two-var") is not None


def test_substitute_params():
    assert substitute_params("n*cos(t)-cos(n*t)", {"n": 3}) == "3*cos(t)-cos(3*t)"
    # parameter names inside function names stay untouched
    assert substitute_params("atan(n*t)", {"n": 2}) == "atan(2*t)"
    # negatives and non-integers get parenthesized; exponents stay bare ints
    assert substitute_params("t^k + k*c", {"k": 2, "c": -1.5}) == "t^2 + 2*(-1.5)"
    with pytest.raises(ValueError):
        substitute_params("t + q", {"pi": 1.0})
    with pytest.raises(ValueError, match="'d'"):  # d(...) is the t-derivative
        substitute_params("d*t", {"d": 1.0})


def test_printed_curvature_pairs_parse_back(roster):
    # a curvature pair spells out derivatives as d(...), which the
    # one-variable grammar reads back as the same node
    for entry in roster:
        pair = entry.curve.curvature_pair()
        for fun in (pair.ell, pair.beta):
            assert parse_expr(pretty_print(fun.ast)) == fun.ast, entry.name
    assert parse_expr("d(t^2)") == Unary("d", PowInt(Var("t"), 2))
    with pytest.raises(ExprSyntaxError, match="unknown identifier 'd'") as err:
        parse_expr("x + d(x)", "two-var")
    assert err.value.offset == 4


def test_substitute_var_compose():
    outer = parse_expr("t^2 + sin(t)")
    inner = parse_expr("2*t")
    composed = substitute_var(outer, "t", inner)
    f = ScalarFun.from_ast(composed)
    assert f(0.7) == pytest.approx((1.4) ** 2 + math.sin(1.4))


def test_ast_derivative_matches_jets():
    rng = random.Random(5)
    for text in ["t^3 - 3*t", "sin(2*t)*exp(t)", "sqrt(t^2+1)", "atan(t)/(2+cos(t))"]:
        ast = parse_expr(text)
        dast = ast_derivative(ast)
        f = ScalarFun.from_ast(ast)
        df = ScalarFun.from_ast(dast)
        for _ in range(10):
            t = rng.uniform(-1.5, 1.5)
            assert df(t) == pytest.approx(float(f.jet(t, 1)[1]), rel=1e-10, abs=1e-10)


def test_scalar_fun_values_and_algebra():
    f = ScalarFun.from_text("sin(t)")
    g = ScalarFun.from_text("cos(t)")
    ts = np.linspace(0, 1, 11)
    combo = f * f + g * g
    assert np.allclose(combo.values(ts), 1.0, atol=1e-14)
    assert combo.ast is not None  # algebra on expression-backed functions keeps the AST
    assert np.allclose((-f).values(ts), -np.sin(ts), atol=1e-14)
    assert np.allclose((2.0 * f).values(ts), 2 * np.sin(ts), atol=1e-14)
    assert np.allclose((f / g).values(ts), np.tan(ts), atol=1e-12)
    v, d = f.jet(ts, 1)
    assert np.allclose(v, np.sin(ts), atol=1e-14)
    assert np.allclose(d, np.cos(ts), atol=1e-14)


def test_tape_cache_entry_dies_with_its_asts():
    from legendre_curves.exprs import _TAPES, _Tape

    ast = parse_expr("sin(t)*t^2")
    tape = _TAPES.get((ast,), _Tape)
    assert _TAPES.get((ast,), _Tape) is tape  # compiled once per AST tuple
    key = (id(ast),)
    assert key in _TAPES._entries
    del ast, tape
    gc.collect()
    assert key not in _TAPES._entries


def test_tape_key_is_the_structure_of_the_compiled_set():
    from legendre_curves.exprs import _TAPES, _Tape

    def key(*asts):
        return _Tape([parse_expr(a) if isinstance(a, str) else a for a in asts]).key()

    assert key("sin(t)*t^2", "cos(t)") == key("sin(t)*t^2", "cos(t)")
    shared = parse_expr("sin(t)")
    assert key(Binary("add", shared, shared)) == key("sin(t) + sin(t)")
    for a, b in [("sin(t)", "cos(t)"), ("t^2", "t^3"), ("t + 1", "1 + t"),
                 ("t*0.1", "t*0.10000000000000002"), ("d(t^2)", "2*t"),
                 ("exp(t)", "sqrt(t)"), (Binary("mul", Var("t"), Number(-0.0)),
                                         Binary("mul", Var("t"), Number(0.0)))]:
        assert key(a) != key(b), (a, b)
    assert key("t", "t^2") != key("t^2", "t")  # the outputs' order counts
    # an evaluation leaves the key unbuilt: only signature asks for it
    ast = parse_expr("t*exp(t)")
    eval_jet(ast, np.linspace(0.0, 1.0, 5), 1)
    assert _TAPES.get((ast,), _Tape)._key is None
    # the tape's own kernels are no AST operations
    for op in ("sin_cos", "getitem", "pow", "foo"):
        with pytest.raises(ValueError, match="unknown operation"):
            _Tape([Unary(op, Var("t"))])


# -- one representation per function ------------------------------------------

_LIFTED = {"add": lambda f, g: f + g, "sub": lambda f, g: f - g,
           "mul": lambda f, g: f * g, "div": lambda f, g: f / g,
           "neg": lambda f, g: -f, "sqrt": lambda f, g: f.sqrt()}


@pytest.mark.parametrize("op, side", [(op, side) for op in sorted(_LIFTED)
                                       for side in ("left", "right")
                                       if side == "left" or op not in ("neg", "sqrt")])
def test_jet_rule_matches_tape_of_combined_ast(op, side):
    # The combined tape equals the jet rule that runs the kernel on the
    # operands' jets, with either operand on the left of a binary operation.
    f = ScalarFun.from_text("2 + sin(t)")
    g = ScalarFun.from_text("exp(t/3) + t^2")
    if side == "right":
        f, g = g, f
    combined = _LIFTED[op](f, g).ast
    operands = (f,) if op in ("neg", "sqrt") else (f, g)
    for t0 in (0.4, np.linspace(-1.0, 1.0, 17)):
        for order in (0, 1, 12):
            got = _KERNELS[op](*(h.jet(t0, order) for h in operands))
            want = eval_jet(combined, t0, order)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_scalar_fun_needs_an_ast():
    f = ScalarFun.from_text("2 + sin(t)")
    with pytest.raises(TypeError):
        ScalarFun(f._jet_fn)


def test_wrap_refuses_callables():
    with pytest.raises(TypeError, match="cannot interpret"):
        ScalarFun.wrap(lambda j: j)
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(LegendreError, match="must be finite"):
            ScalarFun.wrap(value)


# -- the internal derivative node -----------------------------------------------

_D_CASES = ["sin(t)*t^2", "exp(t/3) + atan(t)", "sqrt(2 + cos(t))/(1 + t^2)",
            "(t - 0.2)^5", "t", "3", "pi"]


@pytest.mark.parametrize("text", _D_CASES)
def test_derivative_node_is_a_one_row_shift(text):
    f = parse_expr(text)
    for t0 in (0.4, np.linspace(-1.0, 1.0, 17)):
        for order in (0, 1, 5, 12):
            g = f
            for nested in (1, 2):
                g = Unary("d", g)
                want = eval_jet(f, t0, order + nested)
                for _ in range(nested):
                    want = jets.derivative(want)
                got = eval_jet(g, t0, order)
                assert got.shape == want.shape
                assert np.array_equal(got, want), (text, order, nested)
                # the structural derivative agrees with the shift; for d(d(f))
                # ast_derivative spells out the inner d node itself
                spelled = ast_derivative(f if nested == 1 else Unary("d", f))
                other = eval_jet(spelled, t0, order)
                assert np.max(np.abs(other - got)) <= 1e-12 * max(1.0, np.max(np.abs(got)))


@pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
def test_derivative_node_beside_a_longer_operand(op):
    # g runs one row longer than d(f) on the tape and is cut to its rows
    f, g = parse_expr("exp(t) + sin(t)/2"), parse_expr("2 + exp(t/3)")
    ts = np.linspace(-1.0, 1.0, 9)
    for order in (0, 3):
        df = jets.derivative(eval_jet(f, ts, order + 1))
        gj = eval_jet(g, ts, order)
        for left, right, want in ((Unary("d", f), g, _KERNELS[op](df, gj)),
                                  (g, Unary("d", f), _KERNELS[op](gj, df))):
            got = eval_jet(Binary(op, left, right), ts, order)
            assert np.array_equal(got, want), (op, order)


def test_derivative_node_of_a_constant_is_zero():
    for node in (Unary("d", Number(3.0)), Unary("d", Unary("d", Const("pi")))):
        got = eval_jet(node, np.linspace(0.0, 1.0, 5), 4)
        assert got.shape == (5, 5) and not got.any()


def test_substitute_var_spells_out_derivative_nodes():
    # d(f) o s is f' o s, not (f o s)'; shared subtrees stay shared
    f = parse_expr("sin(t)*t^2")
    s = parse_expr("t + 0.3*sin(t)")
    shared = Unary("d", f)
    image = substitute_var(Binary("mul", shared, shared), "t", s)
    assert image.left is image.right
    want = substitute_var(ast_derivative(f), "t", s)
    ts = np.linspace(-1.0, 1.0, 9)
    for order in (0, 3):
        assert np.array_equal(eval_jet(image.left, ts, order),
                              eval_jet(want, ts, order))


# -- derived expressions are built folded ----------------------------------------


def _literal(node, *values):
    return isinstance(node, Number) and node.value in values


def _folds(node):
    """Would one of the node constructors have folded this node?"""
    if isinstance(node, Binary):
        a, b = node.left, node.right
        return {"add": _literal(a, 0) or _literal(b, 0),
                "sub": _literal(a, 0) or _literal(b, 0),
                "mul": _literal(a, 0, 1) or _literal(b, 0, 1),
                "div": _literal(a, 0) or _literal(b, 1)}[node.op]
    if isinstance(node, Unary):
        return node.op == "neg" and (_literal(node.child, 0)
                                     or isinstance(node.child, Unary) and node.child.op == "neg")
    return isinstance(node, PowInt) and node.exponent in (0, 1)


def _nodes(root, skip=()):
    """Distinct nodes of a tree, not descending into the ids in ``skip``."""
    seen, stack, out = set(skip), [root], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            out.append(node)
            stack.extend(getattr(node, f) for f in ("child", "left", "right")
                         if hasattr(node, f))
    return out


def test_neg_folds_a_double_negation():
    a = parse_expr("cos((3 + 1) / 2 * t)")
    assert neg(neg(a)) is a
    # the parser still makes plain nodes, so printing round-trips
    plain = Unary("neg", Unary("neg", a))
    assert parse_expr(pretty_print(plain)) == plain


@settings(max_examples=300)
@given(st.integers(0, 2**32 - 1))
def test_ast_derivative_is_folded_and_matches_the_derivative_node(seed):
    rng = random.Random(seed)
    f = random_ast(rng, depth=rng.randrange(0, 5))
    df = ast_derivative(f)
    # nodes taken over from f are as the generator made them
    new = _nodes(df, skip={id(node) for node in _nodes(f)})
    assert not [node for node in new if _folds(node)], pretty_print(df)
    ts = np.linspace(-1.7, 1.9, 7)
    with np.errstate(all="ignore"):
        try:
            got = eval_jet(df, ts, 2)
            want = eval_jet(Unary("d", f), ts, 2)
        except LegendreError:
            return
    ok = np.isfinite(got) & np.isfinite(want) & (np.abs(want) < 1e12)
    assert np.all(np.abs(got - want)[ok] <= 1e-9 * np.maximum(np.abs(want[ok]), 1.0))


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1))
def test_partials_match_the_bijet_gradient(seed):
    # the gradient and the Hessian, each against the value of a structural partial
    rng = random.Random(seed)
    phi = random_ast(rng, depth=rng.randrange(0, 5), arity="two-var")
    dx, dy = ast_derivative(phi, "x"), ast_derivative(phi, "y")
    partials = (dx, dy, ast_derivative(dx, "x"), ast_derivative(dx, "y"),
                ast_derivative(dy, "y"))
    for _ in range(4):
        x0, y0 = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        with np.errstate(all="ignore"):
            try:
                want = eval_bijet(phi, x0, y0)
                got = [eval_bijet(d, x0, y0).value for d in partials]
            except LegendreError:
                continue
        for g, w in zip(got, (want.dx, want.dy, want.dxx, want.dxy, want.dyy)):
            if math.isfinite(w) and abs(w) < 1e12 and math.isfinite(g):
                assert g == pytest.approx(w, rel=1e-9, abs=1e-9)


def test_eval_bijet_refuses_t():
    # a t of its own would read as the parameter of the lines eval_bijet runs on
    with pytest.raises(ValueError):
        eval_bijet(Binary("mul", Var("x"), Unary("sin", Var("t"))), 0.5, -0.5)


def test_diffeomorphism_image_compiles_to_a_short_tape():
    # gamma_n[3] under x + 0.01 y^2: the partials hold no 0 * ..., 1 * ...
    # or (...)^1 nodes, so the four components compile to at most 30
    # instructions (43 when they did)
    from legendre_curves import DiffeoSpec, gallery, pushforward_diffeo_curve
    from legendre_curves.exprs import _Tape

    curve = gallery("gamma_n", {"n": 3}).curve
    image = pushforward_diffeo_curve(curve, DiffeoSpec.from_texts("x + 0.01*y^2", "y")).curve
    tape = _Tape([image.x.ast, image.y.ast, image.nu_x.ast, image.nu_y.ast])
    assert len(tape.code) <= 30


def test_compiles_and_substitutions_leave_no_cyclic_garbage():
    # the compiler's and the memo's recursive closures refer to themselves;
    # unbound on return, their work dicts die by reference counting and the
    # collector finds next to nothing (about 100 objects per compile and 136 per
    # substitution below when the closures stayed bound)
    from legendre_curves import AffineMap, gallery, pushforward_affine
    from legendre_curves.exprs import eval_jet_many

    curve = gallery("gamma_n", {"n": 3}).curve
    ts = np.linspace(*curve.domain, 33)
    shift = parse_expr("t + 0.1*sin(t)")
    gc.collect()
    gc.disable()
    try:
        for k in range(3):
            image = pushforward_affine(curve, AffineMap(1.3, 0.4 + k, -0.2, 0.9)).curve
            gc.collect()
            eval_jet_many([image.x.ast, image.y.ast, image.nu_x.ast, image.nu_y.ast], ts, 1)
            assert gc.collect() <= 40
            beta = curve.curvature_pair().beta.ast
            gc.collect()
            substitute_var(beta, "t", shift)
            assert gc.collect() <= 60
    finally:
        gc.enable()
