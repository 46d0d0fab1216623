"""A small expression language for curve components and target maps.

Univariate expressions in ``t`` describe curve and frame components; the
two-variable flavor in ``x, y`` describes diffeomorphisms of the target
plane.  The grammar (EBNF):

    expr   := term (("+" | "-") term)* ;
    term   := factor (("*" | "/") factor)* ;
    factor := base ("^" int)? ;
    base   := number | "t" | "x" | "y" | "pi" | fn "(" expr ")"
            | "d" "(" expr ")" | "(" expr ")" | "-" base ;
    fn     := "sin" | "cos" | "exp" | "sqrt" | "atan" ;

``^`` binds tighter than ``*``/``/``, which bind tighter than ``+``/``-``;
exponents are literal non-negative integers.  There is no implicit
multiplication, and named parameters must be substituted numerically before
parsing (see :func:`substitute_params`).

The node ``Unary("d", f)``, the t-derivative of f, spells out the
curvature pair, so it and every transformation law built on it are ASTs
too.  The one-variable grammar reads ``d(e)`` as that node, so a printed
curvature pair parses back; the two-variable grammar refuses it.
A two-variable AST becomes univariate by :func:`substitute_var` of x and
y; with its partials from ``ast_derivative(ast, var)``, the image of a
curve under a target map is an AST too.

Derived expressions (derivatives, ``ScalarFun`` algebra, curvature pairs,
normal forms) are built folded: the node constructors ``add``, ``sub``,
``mul``, ``div``, ``neg`` and ``power`` drop a literal 0 or 1 operand or
a double negation.  That is exact, but a folded literal-0 factor no longer
evaluates its other operand, so the product is 0 where that would raise or
give NaN.  The parser's output is not folded: parse_expr(pretty_print(a)) == a.

Univariate ASTs are evaluated as Taylor jets by :func:`eval_jet` and
:func:`eval_jet_many`, each jet a float array of shape
``(order + 1,) + np.shape(t0)`` whose row k is f^(k)(t0) / k!.  Both
compile their AST set once into a tape, a flat list of calls to the
:mod:`jets` kernels over numbered slots, each slot one ``(K + 1, N)``
coefficient array.  Compilation is hash-consed: structurally
equal subtrees share a slot, ``sin`` and ``cos`` of one argument share one
recurrence, and constant subtrees are folded.  A ``d`` node is the
one-row shift ``jets.derivative``, so the tape runs one order higher per
nested ``d``.  Each slot is released after its last use.  The tape is
cached against the identity of the AST tuple and dropped when one of
those ASTs is collected.

:class:`ScalarFun` is the evaluable function the rest of the package
passes around, one AST run through the tape, every curvature law too.
The zero searches of :mod:`signatures` take a tuple of such ASTs and
evaluate it with :func:`eval_jet_many`, the same tape.
:func:`eval_bijet` (``BiJet2`` value, gradient and Hessian of a
two-variable AST) is on no data path; ``bench/tracer.py`` binds it.
"""

from __future__ import annotations

import math
import operator
import re
import weakref
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from . import jets
from .errors import ExprSyntaxError, LegendreError
from .jets import BiJet2, DEFAULT_ORDER

# -- AST ---------------------------------------------------------------------


@dataclass(frozen=True)
class Number:
    value: float


@dataclass(frozen=True)
class Var:
    name: str  # "t", "x" or "y"


@dataclass(frozen=True)
class Const:
    name: str  # only "pi"


@dataclass(frozen=True)
class Unary:
    op: str  # neg, sin, cos, exp, sqrt, atan, d (the t-derivative)
    child: "ExprAst"


@dataclass(frozen=True)
class Binary:
    op: str  # add, sub, mul, div
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class PowInt:
    child: "ExprAst"
    exponent: int


ExprAst = Union[Number, Var, Const, Unary, Binary, PowInt]

_FUNCTIONS = ("sin", "cos", "exp", "sqrt", "atan")
_RESERVED = set(_FUNCTIONS) | {"d", "t", "x", "y", "pi"}


# -- node constructors: 0 a = 0, 1 a = a, a + 0 = a, 0 / b = 0, a / 1 = a,
# -(-a) = a, a^1 = a, a^0 = 1 ---------------------------------------------------


def _is(node: ExprAst, value: float) -> bool:
    return isinstance(node, Number) and node.value == value


def add(a: ExprAst, b: ExprAst) -> ExprAst:
    return b if _is(a, 0) else a if _is(b, 0) else Binary("add", a, b)


def sub(a: ExprAst, b: ExprAst) -> ExprAst:
    return neg(b) if _is(a, 0) else a if _is(b, 0) else Binary("sub", a, b)


def mul(*factors: ExprAst) -> ExprAst:
    """Product of the factors, grouped from the left."""
    out = factors[0]
    for f in factors[1:]:
        if _is(out, 0) or _is(f, 1):
            continue
        out = f if _is(out, 1) or _is(f, 0) else Binary("mul", out, f)
    return out


def div(a: ExprAst, b: ExprAst) -> ExprAst:
    return a if _is(a, 0) or _is(b, 1) else Binary("div", a, b)


def neg(a: ExprAst) -> ExprAst:
    if isinstance(a, Unary) and a.op == "neg":
        return a.child
    return a if _is(a, 0) else Unary("neg", a)


def power(a: ExprAst, exponent: int) -> ExprAst:
    return Number(1.0) if exponent == 0 else a if exponent == 1 else PowInt(a, exponent)


# -- tokenizer / parser -------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind if kind != "op" else "op", m.group(kind), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, arity: str):
        if arity not in ("one-var", "two-var"):
            raise ValueError("arity must be 'one-var' or 'two-var'")
        self.text = text
        self.arity = arity
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of expression", len(self.text))
        self.i += 1
        return tok

    def expect_op(self, op: str):
        tok = self.next()
        if tok[0] != "op" or tok[1] != op:
            raise ExprSyntaxError(f"expected {op!r}", tok[2])

    def parse(self) -> ExprAst:
        node = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ExprSyntaxError(f"unexpected token {tok[1]!r}", tok[2])
        return node

    def expr(self) -> ExprAst:
        node = self.term()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] in "+-":
                self.next()
                rhs = self.term()
                node = Binary("add" if tok[1] == "+" else "sub", node, rhs)
            else:
                return node

    def term(self) -> ExprAst:
        node = self.factor()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] in "*/":
                self.next()
                rhs = self.factor()
                node = Binary("mul" if tok[1] == "*" else "div", node, rhs)
            else:
                return node

    def factor(self) -> ExprAst:
        node = self.base()
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.next()
            etok = self.next()
            if etok[0] != "num" or not etok[1].isdigit():
                raise ExprSyntaxError("exponent must be a non-negative integer", etok[2])
            node = PowInt(node, int(etok[1]))
        return node

    def base(self) -> ExprAst:
        tok = self.next()
        kind, text, pos = tok
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ExprSyntaxError(f"number {text!r} overflows", pos)
            return Number(value)
        if kind == "op" and text == "-":
            child = self.base()
            if isinstance(child, Number):
                return Number(-child.value)  # fold so print/parse round-trips
            return Unary("neg", child)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "ident":
            if text in _FUNCTIONS or (text == "d" and self.arity == "one-var"):
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Unary(text, arg)
            if text == "pi":
                return Const("pi")
            if text in ("t", "x", "y"):
                want = ("t",) if self.arity == "one-var" else ("x", "y")
                if text not in want:
                    raise ExprSyntaxError(
                        f"variable {text!r} not allowed in a {self.arity} expression", pos)
                return Var(text)
            raise ExprSyntaxError(f"unknown identifier {text!r}", pos)
        raise ExprSyntaxError(f"unexpected token {text!r}", pos)


def parse_expr(text: str, arity: str = "one-var") -> ExprAst:
    """Parse expression text into an AST; raises ExprSyntaxError with offset."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(text, arity).parse()


# -- printing -----------------------------------------------------------------


def pretty_print(ast: ExprAst) -> str:
    """Canonical fully-parenthesized text; parse_expr(pretty_print(a)) == a."""
    if isinstance(ast, Number):
        v = ast.value
        if float(v).is_integer() and abs(v) < 1e16:
            return str(int(v))
        return repr(float(v))
    if isinstance(ast, Var):
        return ast.name
    if isinstance(ast, Const):
        return ast.name
    if isinstance(ast, Unary):
        if ast.op == "neg":
            return f"(-{pretty_print(ast.child)})"
        return f"{ast.op}({pretty_print(ast.child)})"
    if isinstance(ast, Binary):
        sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[ast.op]
        return f"({pretty_print(ast.left)} {sym} {pretty_print(ast.right)})"
    if isinstance(ast, PowInt):
        return f"({pretty_print(ast.child)}^{ast.exponent})"
    raise TypeError(f"not an AST node: {ast!r}")


# -- evaluation ---------------------------------------------------------------
#
# Tape layout: slot 0 holds the jet of ``t``, a constant slot holds a float
# fixed at compile time, and every other slot is written by one instruction.
# A node's key is its kernel plus its operand slots, literals being interned
# constant slots, so the images of one ``substitute_var`` call inside several
# components share a slot although they are distinct objects.


class _Tape:
    """A compiled AST set: slot values known up front, instructions
    ``(kernel, destination slot, operand slot, operand slot or None, slots
    released after it)``, the slot of each AST and the d-depth of the set."""

    __slots__ = ("init", "code", "outputs", "depth")

    def __init__(self, asts):
        self.init = init = [None]  # slot 0: the variable, bound per run
        code: list = []
        keys: dict = {}           # (kernel, operand slots) or literal -> slot
        seen: dict = {}           # id(node) -> slot; shared subtrees compile once
        depth: list = [0]         # slot -> nesting depth of d nodes under it

        def emit(fn, a, b=None):
            key = (fn, a, b)
            slot = keys.get(key)
            if slot is None:
                slot = keys[key] = len(init)
                if b is None:
                    depth.append(depth[a] + (fn is jets.derivative))
                    value = None if init[a] is None else fn(init[a])
                else:  # constant operands fold
                    depth.append(max(depth[a], depth[b]))
                    value = None if init[a] is None or init[b] is None else fn(init[a], init[b])
                init.append(value)
                if value is None:
                    code.append((fn, slot, a, b))
            return slot

        def const(value):
            key = ("const", repr(value))
            slot = keys.get(key)
            if slot is None:
                slot = keys[key] = len(init)
                init.append(value)
                depth.append(0)
            return slot

        def visit(node):
            slot = seen.get(id(node))
            if slot is not None:
                return slot
            if isinstance(node, Binary):  # the commonest node first
                slot = emit(_kernel(node.op), visit(node.left), visit(node.right))
            elif isinstance(node, Number):
                slot = const(float(node.value))
            elif isinstance(node, Const):
                slot = const(float(np.pi))
            elif isinstance(node, Var):
                if node.name != "t":
                    raise ValueError("bivariate expression evaluated as univariate")
                slot = 0
            elif isinstance(node, Unary) and node.op in ("sin", "cos"):
                pair = emit(jets.sin_cos, visit(node.child))
                slot = emit(operator.getitem, pair, const(int(node.op == "cos")))
            elif isinstance(node, Unary):
                slot = emit(_kernel(node.op), visit(node.child))
            elif isinstance(node, PowInt):
                slot = emit(jets.pow_int, visit(node.child), const(int(node.exponent)))
            else:
                raise TypeError(f"not an AST node: {node!r}")
            seen[id(node)] = slot
            return slot

        try:
            self.outputs = [visit(ast) for ast in asts]
        finally:
            del visit  # it refers to itself: unbind it so the work dicts die with the frame
        self.depth = max((depth[slot] for slot in self.outputs), default=0)
        # Release every computed slot after the instruction that reads it last.
        last = {slot: i for i, ins in enumerate(code) for slot in ins[2:]}
        free = [[] for _ in code]
        for slot, i in last.items():
            if slot is not None and self.init[slot] is None and slot not in self.outputs:
                free[i].append(slot)
        self.code = [ins + (tuple(f),) for ins, f in zip(code, free)]

    def run(self, t0, order: int) -> list[np.ndarray]:
        """Jets of the compiled ASTs at t0 (a scalar or an array of points),
        from a run ``depth`` orders higher, since each d costs a row."""
        t = np.asarray(t0, dtype=float)
        var = np.zeros((order + self.depth + 1, t.size))
        var[0] = t.ravel()
        var[1:2] = 1.0  # the slope row, if the run has one
        slots = list(self.init)
        slots[0] = var
        for fn, dst, a, b, free in self.code:
            slots[dst] = fn(slots[a]) if b is None else fn(slots[a], slots[b])
            for i in free:
                slots[i] = None
        shape = (order + 1,) + t.shape
        out = []
        for slot in self.outputs:
            value = slots[slot]
            if isinstance(value, np.ndarray):
                value = value[:order + 1]
            else:
                value = jets.constant_like(value, var[:order + 1])
            out.append(value.reshape(shape))
        return out


_KERNELS = {"neg": jets.neg, "exp": jets.exp, "sqrt": jets.sqrt, "atan": jets.atan,
            "d": jets.derivative,
            "add": jets.add, "sub": jets.sub, "mul": jets.mul, "div": jets.div}


def _kernel(op: str):
    try:
        return _KERNELS[op]
    except KeyError:
        raise ValueError(f"unknown operation {op!r}") from None


class _TapeCache:
    """Compiled tapes keyed by the identity of the AST tuple.

    An entry holds weak references to its ASTs: a hit must find the very
    same objects, and the entry is dropped as soon as one of them is
    collected, so the cache never outlives the curves it serves.
    """

    def __init__(self):
        self._entries: dict = {}

    def get(self, asts) -> _Tape:
        key = tuple(map(id, asts))
        hit = self._entries.get(key)
        if hit is not None and all(ref() is ast for ref, ast in zip(hit[0], asts)):
            return hit[1]
        tape = _Tape(asts)
        entries = self._entries

        def drop(_ref):
            entries.pop(key, None)

        entries[key] = (tuple(weakref.ref(ast, drop) for ast in asts), tape)
        return tape


_TAPES = _TapeCache()


def eval_jet(ast: ExprAst, t0, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Taylor jet of a univariate expression at t0 (scalar or ndarray), an
    array of shape ``(order + 1,) + np.shape(t0)``."""
    return _TAPES.get((ast,)).run(t0, order)[0]


def eval_jet_many(asts, t0, order: int) -> list[np.ndarray]:
    """Jets of several expressions at once, from one compiled tape.

    Expression trees produced by the transform laws repeat subtrees (the
    frame norm appears in both components, for instance); the tape
    evaluates each distinct subtree once.
    """
    return _TAPES.get(tuple(asts)).run(t0, order)


def eval_bijet(ast: ExprAst, x0, y0) -> BiJet2:
    """Value, gradient and Hessian of a two-variable expression at (x0, y0)."""
    if isinstance(ast, Number):
        return BiJet2.constant(ast.value)
    if isinstance(ast, Const):
        return BiJet2.constant(np.pi)
    if isinstance(ast, Var):
        if ast.name == "x":
            return BiJet2.var_x(x0)
        if ast.name == "y":
            return BiJet2.var_y(y0)
        raise ValueError("univariate expression evaluated as bivariate")
    if isinstance(ast, Unary):
        child = eval_bijet(ast.child, x0, y0)
        if ast.op == "neg":
            return -child
        return getattr(child, ast.op)()
    if isinstance(ast, Binary):
        a = eval_bijet(ast.left, x0, y0)
        b = eval_bijet(ast.right, x0, y0)
        if ast.op == "add":
            return a + b
        if ast.op == "sub":
            return a - b
        if ast.op == "mul":
            return a * b
        return a / b
    if isinstance(ast, PowInt):
        return eval_bijet(ast.child, x0, y0) ** ast.exponent
    raise TypeError(f"not an AST node: {ast!r}")


# -- structural helpers -------------------------------------------------------


def _memoized(ast: ExprAst, step) -> ExprAst:
    """``step(node, recurse)`` once per distinct node of ``ast``."""
    memo: dict = {}  # id -> (node, image); holding node keeps its id unique

    def recurse(node):
        hit = memo.get(id(node))
        if hit is None:
            hit = memo[id(node)] = (node, step(node, recurse))
        return hit[1]

    try:
        return recurse(ast)
    finally:
        del recurse  # it refers to itself: unbind it so the memo dies with the frame


def substitute_var(ast: ExprAst, name: str, replacement: ExprAst) -> ExprAst:
    """Replace every occurrence of a variable with another AST.

    A ``d(f)`` is spelled out as ``ast_derivative(f)`` first, since
    d(f) o s is not d(f o s).  Shared subtrees stay shared.
    """
    def step(node, sub):
        if isinstance(node, Var) and node.name == name:
            return replacement
        if isinstance(node, Unary) and node.op == "d":
            return sub(ast_derivative(node.child))
        if isinstance(node, Unary):
            return Unary(node.op, sub(node.child))
        if isinstance(node, Binary):
            return Binary(node.op, sub(node.left), sub(node.right))
        if isinstance(node, PowInt):
            return PowInt(sub(node.child), node.exponent)
        return node

    return _memoized(ast, step)


def ast_derivative(ast: ExprAst, var: str = "t") -> ExprAst:
    """Structural derivative of an AST in the variable ``var``.

    Spells out frame expressions that involve the derivative of a
    user-supplied factor, and the partials of a target map.  A ``Var``
    differentiates to 1 when it is ``var``, otherwise to 0.  ``d(f)``
    differentiates to f'' spelled out.
    """
    return _memoized(ast, lambda node, der: _derivative_step(node, der, var))


def _derivative_step(ast: ExprAst, der, var: str) -> ExprAst:
    if isinstance(ast, (Number, Const)):
        return Number(0.0)
    if isinstance(ast, Var):
        return Number(float(ast.name == var))
    if isinstance(ast, Unary):
        if ast.op == "d":
            return der(der(ast.child))
        du = der(ast.child)
        u = ast.child
        if ast.op == "neg":
            return neg(du)
        if ast.op == "sin":
            return mul(Unary("cos", u), du)
        if ast.op == "cos":
            return neg(mul(Unary("sin", u), du))
        if ast.op == "exp":
            return mul(Unary("exp", u), du)
        if ast.op == "sqrt":
            return div(du, mul(Number(2.0), Unary("sqrt", u)))
        if ast.op == "atan":
            return div(du, add(Number(1.0), power(u, 2)))
    if isinstance(ast, Binary):
        da = der(ast.left)
        db = der(ast.right)
        a, b = ast.left, ast.right
        if ast.op == "add":
            return add(da, db)
        if ast.op == "sub":
            return sub(da, db)
        if ast.op == "mul":
            return add(mul(da, b), mul(a, db))
        return div(sub(mul(da, b), mul(a, db)), power(b, 2))
    if isinstance(ast, PowInt):
        if ast.exponent == 0:
            return Number(0.0)
        return mul(Number(float(ast.exponent)), power(ast.child, ast.exponent - 1),
                   der(ast.child))
    raise TypeError(f"not an AST node: {ast!r}")


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def substitute_params(text: str, params: dict[str, float] | None) -> str:
    """Textually replace named parameters with numeric literals.

    Non-negative integers are substituted bare so they remain usable as
    ``^`` exponents; anything else is parenthesized.
    """
    if not params:
        return text
    for name in params:
        if name in _RESERVED or not _IDENT_RE.fullmatch(name):
            raise ValueError(f"invalid parameter name {name!r}")

    def repl(m: re.Match) -> str:
        word = m.group(0)
        if word not in params:
            return word
        v = float(params[word])
        if v.is_integer() and v >= 0:
            return str(int(v))
        if v.is_integer():
            return f"({int(v)})"
        return f"({v!r})"

    return _IDENT_RE.sub(repl, text)


# -- evaluable scalar functions ----------------------------------------------


def _operators(build):
    """``f op g`` and its reflection ``g op f`` for scalar functions."""
    return (lambda f, g: _lift(build, f, g)), (lambda f, g: _lift(build, g, f))


class ScalarFun:
    """A scalar function of the curve parameter, evaluable as a Taylor jet.

    A function is its AST, which every function carries: algebra builds
    the combined AST, and curves and the zero searches read it.  ``jet``
    runs the jet rule ``jet_fn(t0, order)``, the compiled tape of the AST
    for :meth:`from_ast`; ``bench/tracer.py`` wraps that rule.  ``t0`` may
    be a scalar or an ndarray of expansion points, and a jet is an array
    of shape ``(order + 1,) + np.shape(t0)``.
    """

    __slots__ = ("_jet_fn", "ast", "name")

    def __init__(self, jet_fn: Callable[[object, int], np.ndarray], ast: ExprAst,
                 name: str = ""):
        self._jet_fn = jet_fn
        self.ast = ast
        self.name = name

    @classmethod
    def from_ast(cls, ast: ExprAst, name: str = "") -> "ScalarFun":
        return cls(lambda t0, order: eval_jet(ast, t0, order), ast=ast, name=name)

    @classmethod
    def from_text(cls, text: str, params: dict | None = None) -> "ScalarFun":
        sub = substitute_params(text, params)
        return cls.from_ast(parse_expr(sub, "one-var"), name=sub)

    @classmethod
    def wrap(cls, f) -> "ScalarFun":
        """Coerce a number, expression text, AST or ScalarFun."""
        if isinstance(f, ScalarFun):
            return f
        if isinstance(f, str):
            return cls.from_text(f)
        if isinstance(f, (int, float)):
            if not math.isfinite(f):
                raise LegendreError(f"a constant function must be finite, got {f!r}")
            return cls.from_ast(Number(float(f)))
        if isinstance(f, (Number, Var, Const, Unary, Binary, PowInt)):
            return cls.from_ast(f)
        raise TypeError(f"cannot interpret {f!r} as a scalar function")

    def jet(self, t0, order: int) -> np.ndarray:
        return self._jet_fn(t0, order)

    def __call__(self, t: float) -> float:
        return float(self.jet(float(t), 0)[0])

    def values(self, ts) -> np.ndarray:
        return self.jet(np.asarray(ts, dtype=float), 0)[0]

    __add__, __radd__ = _operators(add)
    __sub__, __rsub__ = _operators(sub)
    __mul__, __rmul__ = _operators(mul)
    __truediv__, __rtruediv__ = _operators(div)

    def __neg__(self):
        return _lift(neg, self)

    def sqrt(self) -> "ScalarFun":
        return _lift(lambda a: Unary("sqrt", a), self)

    def __repr__(self):
        return f"ScalarFun({pretty_print(self.ast)})"


def _lift(build, *operands) -> ScalarFun:
    """The node constructor ``build`` applied to scalar functions: the
    combined AST, evaluated by the tape."""
    return ScalarFun.from_ast(build(*(ScalarFun.wrap(f).ast for f in operands)))
