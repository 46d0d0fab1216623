"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import random
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import settings

from legendre_curves import ScalarFun, default_gallery, jets
from legendre_curves.exprs import (Binary, Const, Number, PowInt, Unary, Var)

# Every property test draws the same examples on every run and writes no
# example database.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def roster():
    return default_gallery()


@pytest.fixture
def trig_calls(monkeypatch):
    """Counts np.sin and np.cos calls on rows long enough for the trig-row
    memo (``jets._MEMO_MIN_POINTS``), keyed by (name, row bytes)."""
    calls = {}

    def counting(name, ufunc):
        def call(x, *args, **kwargs):
            x_ = np.asarray(x)
            if x_.size > jets._MEMO_MIN_POINTS:
                key = (name, x_.tobytes())
                calls[key] = calls.get(key, 0) + 1
            return ufunc(x, *args, **kwargs)
        return call

    monkeypatch.setattr(np, "sin", counting("sin", np.sin))
    monkeypatch.setattr(np, "cos", counting("cos", np.cos))
    return calls


class TapeRun(NamedTuple):
    """One compiled-tape run: its points, the order asked for, the d-depth
    of the tape (each d node runs one order higher) and its output count."""

    points: np.ndarray
    order: int
    depth: int
    outputs: int

    @property
    def tape_order(self) -> int:
        """The order the tape runs at."""
        return self.order + self.depth


class TapeLog:
    """The compiled-tape runs (``TapeRun``) and compiles (AST count,
    depth) since the last ``clear``."""

    def __init__(self):
        self.runs: list[TapeRun] = []
        self.compiles: list[tuple[int, int]] = []

    def clear(self):
        self.runs.clear()
        self.compiles.clear()


@pytest.fixture
def tape_runs(monkeypatch):
    """A ``TapeLog`` of every tape run and compile while the test runs."""
    from legendre_curves import exprs

    log = TapeLog()
    run, init = exprs._Tape.run, exprs._Tape.__init__

    def counted_run(self, t0, order):
        log.runs.append(TapeRun(np.array(t0, dtype=float), order, self.depth,
                                len(self.outputs)))
        return run(self, t0, order)

    def counted_init(self, asts):
        init(self, asts)
        log.compiles.append((len(asts), self.depth))

    monkeypatch.setattr(exprs._Tape, "run", counted_run)
    monkeypatch.setattr(exprs._Tape, "__init__", counted_init)
    return log


def brute_force_zeros(fun, domain, n=1_000_000, half_open=False, rel_tol=1e-9):
    """Dense sign/threshold scan, independent of the root-finding code.

    Sign changes are located by linear interpolation; grid samples at
    rounding level (touch zeros, endpoint zeros) are clustered and the
    sample of least magnitude represents the cluster.
    """
    fun = ScalarFun.wrap(fun)
    a, b = float(domain[0]), float(domain[1])
    ts = np.linspace(a, b, n + 1)
    v = fun.values(ts)
    scale = float(np.max(np.abs(v)))
    assert scale > 0.0
    h = (b - a) / n

    tiny = np.abs(v) <= rel_tol * scale
    sgn = np.sign(np.where(tiny, 0.0, v))
    idx = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
    roots = list(ts[idx] - v[idx] * h / (v[idx + 1] - v[idx]))

    # group consecutive tiny samples; keep the best representative of each
    tiny_idx = np.nonzero(tiny)[0]
    groups = []
    for i in tiny_idx:
        if groups and i - groups[-1][-1] <= 2:
            groups[-1].append(i)
        else:
            groups.append([i])
    for g in groups:
        g = np.asarray(g)
        rep = float(ts[g[np.argmin(np.abs(v[g]))]])
        if not any(abs(rep - r) <= 4 * h for r in roots):
            roots.append(rep)

    roots = sorted(float(r) for r in roots)
    merged = []
    for r in roots:
        if merged and r - merged[-1] <= 4 * h:
            continue
        merged.append(r)
    if half_open:
        merged = [r for r in merged if abs(r - b) > 4 * h]
    return merged


def random_ast(rng: random.Random, depth: int, arity: str = "one-var"):
    """Seeded random AST; negation of a literal folds into the literal, the
    same canonical form the parser produces."""
    if depth <= 0:
        choice = rng.randrange(3)
        if choice == 0:
            return Number(round(rng.uniform(0, 10), 3))
        if choice == 1:
            return Var("t") if arity == "one-var" else Var(rng.choice("xy"))
        return Const("pi")
    kind = rng.randrange(6)
    if kind == 0:
        return Number(round(rng.uniform(0, 10), 3))
    if kind == 1:
        return Var("t") if arity == "one-var" else Var(rng.choice("xy"))
    if kind == 2:
        child = random_ast(rng, depth - 1, arity)
        if isinstance(child, Number):
            return Number(-child.value)
        return Unary("neg", child)
    if kind == 3:
        op = rng.choice(["sin", "cos", "exp", "sqrt", "atan"])
        return Unary(op, random_ast(rng, depth - 1, arity))
    if kind == 4:
        op = rng.choice(["add", "sub", "mul", "div"])
        return Binary(op, random_ast(rng, depth - 1, arity),
                      random_ast(rng, depth - 1, arity))
    return PowInt(random_ast(rng, depth - 1, arity), rng.randrange(0, 5))
