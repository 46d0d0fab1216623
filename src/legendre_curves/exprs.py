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
kept in a weak memo against the identity of the AST tuple and dropped when
one of those ASTs is collected.  Its slot keys are the hash-consed form of
the set, so on request it spells them out as bytes, an exact key of what
it computes: :mod:`signatures` keys its memo on it.  An AST too deep for
the compiler's recursion, or for ``substitute_var`` and
``ast_derivative``, raises LegendreError.

:class:`ScalarFun` is the evaluable function the rest of the package
passes around, one AST run through the tape, every curvature law too.
The zero searches of :mod:`signatures` run the same tape on a tuple of
such ASTs: the grid scan reads its ``terms`` and ``gains`` too, and every
later run goes through :func:`eval_jet_many`.
:func:`eval_bijet` reads a two-variable AST's value, gradient and Hessian
at one point (the six fields of :class:`BiJet2`) from one such run along
three lines through the point; on no data path, ``bench/tracer.py`` binds it.
"""

from __future__ import annotations

import math
import operator
import pickle
import re
import weakref
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from . import jets
from .errors import _TOO_DEEP, ExprSyntaxError, LegendreError
from .jets import DEFAULT_ORDER

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
    """Parse expression text into an AST; raises ExprSyntaxError with
    offset, and LegendreError for text that nests too deeply for the
    recursive descent, such as 300 nested parentheses."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    try:
        return _Parser(text, arity).parse()
    except RecursionError:
        raise LegendreError(_TOO_DEEP) from None


# -- printing -----------------------------------------------------------------


def pretty_print(ast: ExprAst) -> str:
    """Canonical fully-parenthesized text; parse_expr(pretty_print(a)) == a.
    An AST too deep for the recursion raises LegendreError."""
    try:
        return _pretty(ast)
    except RecursionError:
        raise LegendreError(_TOO_DEEP) from None


def _pretty(ast: ExprAst) -> str:
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
            return f"(-{_pretty(ast.child)})"
        return f"{ast.op}({_pretty(ast.child)})"
    if isinstance(ast, Binary):
        sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[ast.op]
        return f"({_pretty(ast.left)} {sym} {_pretty(ast.right)})"
    if isinstance(ast, PowInt):
        return f"({_pretty(ast.child)}^{ast.exponent})"
    raise TypeError(f"not an AST node: {ast!r}")


# -- evaluation ---------------------------------------------------------------
#
# Tape layout: slot 0 holds the jet of ``t``, a constant slot holds a float
# fixed at compile time, and every other slot is written by one instruction.
# A node's key is its kernel's opcode plus its operand slots, literals being
# interned constant slots, so the images of one ``substitute_var`` call
# inside several components share a slot although they are distinct objects.


class _Tape:
    """A compiled AST set: slot values known up front, instructions
    ``(kernel, destination slot, operand slot, operand slot or None, slots
    released after it)``, each AST's slot, ``terms`` and ``gains``, and the
    d-depth.  ``terms_code`` is ``code`` with no term released, for a run
    with terms.

    ``slots`` holds the key of every slot after slot 0 in slot order,
    ``(opcode, operand slot, operand slot or None)`` or the ``repr`` of a
    constant: with the output slots it fixes what a run computes, and
    :meth:`key` spells the two out.
    """

    __slots__ = ("init", "code", "terms_code", "outputs", "terms", "gains", "depth",
                 "slots", "_key")

    def __init__(self, asts):
        self.init = init = [None]  # slot 0: the variable, bound per run
        self._key = None
        code: list = []
        self.slots = keys = {}    # (opcode, operand slots) or repr of a literal -> slot
        seen: dict = {}           # id(node) -> slot; shared subtrees compile once
        depth: list = [0]         # slot -> nesting depth of d nodes under it
        sums: dict = {}           # slot -> (operand slots of the sum below it, gain)

        def emit(op, a, b=None):
            key = (op, a, b)
            slot = keys.get(key)
            if slot is None:
                fn = _BY_OPCODE[op]
                slot = keys[key] = len(init)
                if fn is jets.add or fn is jets.sub:
                    sums[slot] = (a, b), 1.0
                elif fn is jets.neg and a in sums:
                    sums[slot] = sums[a]
                elif fn is jets.mul or fn is jets.div:  # x times or over a constant c != 0
                    x, c = (b, a) if fn is jets.mul and a not in sums else (a, b)
                    if x in sums and init[c]:
                        gain = abs(init[c]) if fn is jets.mul else 1.0 / abs(init[c])
                        sums[slot] = sums[x][0], sums[x][1] * gain
                if b is None:
                    depth.append(depth[a] + (op == _D))
                    value = None if init[a] is None else fn(init[a])
                else:  # constant operands fold
                    depth.append(max(depth[a], depth[b]))
                    value = None if init[a] is None or init[b] is None else fn(init[a], init[b])
                init.append(value)
                if value is None:
                    code.append((fn, slot, a, b))
            return slot

        def const(value):
            key = repr(value)
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
            kind = type(node)
            if kind is Binary:  # the commonest node first
                slot = emit(_opcode(node.op), visit(node.left), visit(node.right))
            elif kind is Number:
                slot = const(float(node.value))
            elif kind is Unary and (node.op == "sin" or node.op == "cos"):
                pair = emit(_SIN_COS, visit(node.child))
                slot = emit(_ITEM, pair, const(int(node.op == "cos")))
            elif kind is Unary:
                slot = emit(_opcode(node.op), visit(node.child))
            elif kind is PowInt:
                slot = emit(_POW, visit(node.child), const(int(node.exponent)))
            elif kind is Var:
                if node.name != "t":
                    raise ValueError(f"unbound variable {node.name}")
                slot = 0
            elif kind is Const:
                slot = const(float(np.pi))
            else:
                raise TypeError(f"not an AST node: {node!r}")
            seen[id(node)] = slot
            return slot

        try:
            self.outputs = [visit(ast) for ast in asts]
        except RecursionError:
            raise LegendreError(_TOO_DEEP) from None
        finally:
            del visit  # it refers to itself: unbind it so the work dicts die with the frame
        self.depth = max((depth[slot] for slot in self.outputs), default=0)
        # The operand slots of the first sum or difference below each output
        # through negations and constant factors or divisors, a folded one's
        # too, and the product of those constants' gains; the output's own
        # slot twice, at gain 1, if there is none.
        paths = [sums.get(out, ((out, out), 1.0)) for out in self.outputs]
        self.terms = [s for terms, _ in paths for s in terms]
        self.gains = np.array([gain for _, gain in paths])
        # Release every computed slot after the instruction that reads it last.
        last = {slot: i for i, ins in enumerate(code) for slot in ins[2:]}
        free = [[] for _ in code]
        for slot, i in last.items():
            if slot is not None and self.init[slot] is None and slot not in self.outputs:
                free[i].append(slot)
        self.code = [ins + (tuple(f),) for ins, f in zip(code, free)]
        self.terms_code = list(self.code)
        for i in {last[s] for s in self.terms if s in last}:
            self.terms_code[i] = code[i] + (tuple(s for s in free[i] if s not in self.terms),)

    def key(self) -> bytes:
        """The tape's structure as bytes, built on the first call: its slot
        keys and output slots, pickled.  Tapes of equal keys hold the same
        instructions on the same constants (a float's repr is exact, and
        tells -0.0 from 0.0), so their runs agree bit for bit whatever ASTs
        they came from.  No object occurs twice among the slot keys, so
        pickle's memo shares none and equal structures give equal bytes."""
        if self._key is None:
            self._key = pickle.dumps((tuple(self.slots), self.outputs), 5)
        return self._key

    def run(self, t0, order: int, terms: bool = False) -> list[np.ndarray]:
        """Jets of the compiled ASTs at t0 (a scalar or an array of points),
        from a run ``depth`` orders higher, since each d costs a row.  With
        ``terms`` the jets of the ``terms`` slots follow, two per output."""
        t = np.asarray(t0, dtype=float)
        var = np.zeros((order + self.depth + 1, t.size))
        var[0] = t.ravel()
        var[1:2] = 1.0  # the slope row, if the run has one
        slots = list(self.init)
        slots[0] = var
        for fn, dst, a, b, free in self.terms_code if terms else self.code:
            slots[dst] = fn(slots[a]) if b is None else fn(slots[a], slots[b])
            for i in free:
                slots[i] = None
        shape = (order + 1,) + t.shape
        out = []
        for slot in self.outputs + self.terms if terms else self.outputs:
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

#: The tape's kernels by opcode: an AST operation's is its place in
#: ``_KERNELS``; sin_cos, the pick of sin or cos and pow_int follow.
_OPCODES = {op: code for code, op in enumerate(_KERNELS)}
_BY_OPCODE = (*_KERNELS.values(), jets.sin_cos, operator.getitem, jets.pow_int)
_SIN_COS, _ITEM, _POW = range(len(_KERNELS), len(_BY_OPCODE))
_D = _OPCODES["d"]


def _opcode(op: str) -> int:
    try:
        return _OPCODES[op]
    except KeyError:
        raise ValueError(f"unknown operation {op!r}") from None


class _WeakMemo:
    """The compiled tapes, keyed by the identity of a tuple of ASTs.

    An entry holds weak references to its ASTs: a hit must find the very
    same objects, and the entry is dropped as soon as one of them is
    collected, so the memo never outlives what it serves.  A value is
    stored only when ``build`` returns it, so an input it refuses is
    refused again on every call.
    """

    def __init__(self):
        self._entries: dict = {}

    def get(self, objs, build):
        """The value stored for ``objs``, else ``build(objs)``."""
        key = tuple(map(id, objs))
        hit = self._entries.get(key)
        if hit is not None and all(ref() is obj for ref, obj in zip(hit[0], objs)):
            return hit[1]
        value = build(objs)
        entries = self._entries

        def drop(_ref):
            entries.pop(key, None)

        entries[key] = (tuple(weakref.ref(obj, drop) for obj in objs), value)
        return value


_TAPES = _WeakMemo()


def eval_jet(ast: ExprAst, t0, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Taylor jet of a univariate expression at t0 (scalar or ndarray), an
    array of shape ``(order + 1,) + np.shape(t0)``."""
    return _TAPES.get((ast,), _Tape).run(t0, order)[0]


def eval_jet_many(asts, t0, order: int) -> list[np.ndarray]:
    """Jets of several expressions at once, from one compiled tape.

    Expression trees produced by the transform laws repeat subtrees (the
    frame norm appears in both components, for instance); the tape
    evaluates each distinct subtree once.
    """
    return _TAPES.get(tuple(asts), _Tape).run(t0, order)


@dataclass(frozen=True)
class BiJet2:
    """Value, gradient and Hessian of a function of (x, y) at one point;
    the mixed partial is stored once."""

    value: float
    dx: float
    dy: float
    dxx: float
    dxy: float
    dyy: float


def eval_bijet(ast: ExprAst, x0: float, y0: float) -> BiJet2:
    """Value, gradient and Hessian of a two-variable expression at (x0, y0).

    One tape run at order 2 gives the jets c of the restrictions to the
    lines through the point along x, y and x + y; f_xx = 2 c2(x),
    f_yy = 2 c2(y) and f_xy = c2(x + y) - c2(x) - c2(y) (Griewank, Utke and
    Walther, Math. Comp. 69, 2000).  A ``t`` in ``ast`` is refused.
    """
    x, y, t = Number(float(x0)), Number(float(y0)), Var("t")
    xt, yt = Binary("add", x, t), Binary("add", y, t)
    plain = substitute_var(ast, "t", Var("t in a two-variable expression"))
    lines = [substitute_var(substitute_var(plain, "x", a), "y", b)
             for a, b in ((xt, y), (x, yt), (xt, yt))]
    fx, fy, fd = eval_jet_many(lines, 0.0, 2)
    return BiJet2(*map(float, (fx[0], fx[1], fy[1], 2.0 * fx[2],
                               fd[2] - fx[2] - fy[2], 2.0 * fy[2])))


# -- structural helpers -------------------------------------------------------


def _memoized(ast: ExprAst, step) -> ExprAst:
    """``step(node, recurse)`` once per distinct node of ``ast``; an AST
    too deep for the recursion raises LegendreError."""
    memo: dict = {}  # id -> (node, image); holding node keeps its id unique

    def recurse(node):
        hit = memo.get(id(node))
        if hit is None:
            hit = memo[id(node)] = (node, step(node, recurse))
        return hit[1]

    try:
        return recurse(ast)
    except RecursionError:
        raise LegendreError(_TOO_DEEP) from None
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
