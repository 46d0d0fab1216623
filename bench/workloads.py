"""The three seeded workloads: input generation, operations, output checks.

Each workload is built from a ``random.Random(seed)``: the library only ever
sees the generated inputs.  Operations come in shuffled blocks with a fixed
mix of kinds, so two seeds differ in parameters and order but not in the
share of each kind of work.  Every operation checks its own output at the
acceptance tolerances and raises ``CheckFailed`` on a wrong answer.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import time

WORK_DIR = ".bench_work"

#: Acceptance tolerances (tests/test_acceptance.py, criteria 2 and 7).
RESIDUAL_TOL = 1e-6
LAW_TOL = 1e-8
LAW_POINTS = 1000


class CheckFailed(Exception):
    """An operation finished but its output is wrong."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# -- input generators -----------------------------------------------------------


def affine_entries(rng) -> tuple[float, float, float, float]:
    """Entries from U(-2, 2), redrawn until |det| >= 0.1 (criterion 4)."""
    while True:
        m = tuple(rng.uniform(-2.0, 2.0) for _ in range(4))
        if abs(m[0] * m[3] - m[1] * m[2]) >= 0.1:
            return m


def reparam_text(rng, domain, closed: bool) -> str:
    """A parameter change mapping the domain onto itself.

    Closed curves get ``t + c sin(k t)`` with |c k| <= 0.85 (criterion 4);
    open ones a monotone self-map of [a, b] of the same shape,
    ``t + (c/w) sin(w (t - a))`` with ``w = k pi / (b - a)``, |c| <= 0.85.
    """
    a, b = domain
    k = rng.randint(1, 3)
    c = rng.uniform(-0.85, 0.85)
    while abs(c) <= 1e-3:
        c = rng.uniform(-0.85, 0.85)
    if closed:
        return f"t + {c / k!r}*sin({k}*t)"
    w = k * math.pi / (b - a)
    return f"t + {c / w!r}*sin({w!r}*(t - ({a!r})))"


def diffeo_texts(rng) -> tuple[str, str]:
    """A near-identity target diffeomorphism, quadratic or trigonometric."""
    e1, e2 = rng.uniform(-0.02, 0.02), rng.uniform(-0.02, 0.02)
    if rng.random() < 0.5:
        return f"x + {e1!r}*y^2", f"y + {e2!r}*x^2"
    return f"x + {e1!r}*sin(y)", f"y + {e2!r}*sin(x)"


def germ_params(rng):
    """A local normal form class with orders in 1..5 and p in 1..3."""
    case = rng.choice(("below-diagonal", "diagonal-plain", "diagonal-perturbed",
                       "above-diagonal"))
    if case == "below-diagonal":
        n = rng.randint(1, 4)
        return case, n, rng.randint(n + 1, 5), None
    if case == "above-diagonal":
        m = rng.randint(1, 4)
        return case, rng.randint(m + 1, 5), m, None
    n = rng.randint(1, 4)
    return case, n, n, (rng.randint(1, 3) if case == "diagonal-perturbed" else None)


def blocks(rng, make_block):
    """Endless operations: shuffled blocks, each with the same mix of kinds."""
    while True:
        block = make_block(rng)
        rng.shuffle(block)
        yield from block


# -- classify -----------------------------------------------------------------------

#: type_nm germs added to the gallery roster: (n, m, f).
TYPE_NM = ((2, 3, "1"), (3, 5, "1+t"), (2, 5, "2-t"))
#: Criterion 3: pairs of epicycloid-type curves and whether they are equivalent.
EPICYCLOIDS = (("gamma_n", 4, "gamma_m", 2, True), ("gamma_n", 5, "gamma_m", 3, True),
               ("gamma_n", 6, "gamma_m", 4, True), ("gamma_n", 3, "gamma_n", 5, False))


def reference_kernel(np) -> None:
    """Fixed work in the mix the in-process workloads spend their time on:
    a Cauchy product of two order-12 jets over 4097 points (a Python loop
    over numpy arrays), a 32769-point array pass and a plain Python loop."""
    a = [np.full(4097, 1.0 + i * 1e-3) for i in range(13)]
    b = [np.full(4097, 2.0 - i * 1e-3) for i in range(13)]
    for k in range(13):
        s = a[0] * b[k]
        for j in range(1, k + 1):
            s = s + a[j] * b[k - j]
    x = np.linspace(0.0, 6.0, 32769)
    np.cumsum(np.sin(x) * np.cos(x))
    acc = 0.0
    for i in range(20000):
        acc += (i % 7) * 0.5


class InProcess:
    """A workload whose operations run in the benchmark process.

    Time metrics are divided by the host slowdown: the CPU time of the
    workload's ``reference()`` (which never touches the package) around
    each value, over ``reference_ms``, its CPU time at nominal speed.
    """

    reference_ms = 4.0
    #: operation CPU seconds between two reference samples
    reference_every_s = 0.1

    @staticmethod
    def cpu_time() -> float:
        return time.process_time()

    @staticmethod
    def reference() -> float:
        """CPU seconds of reference_kernel in this process."""
        np = importlib.import_module("numpy")
        c0 = time.process_time()
        reference_kernel(np)
        return time.process_time() - c0


class Classify(InProcess):
    """transform -> signature -> decide_equivalence against the base curve."""

    name = "classify"
    why = ("transform, signature and equivalence on deep ASTs: Python-bound jet "
           "and expression evaluation, order 1 on a 4097-point grid, order 12 at roots")
    warmup = 6
    tail_percentile = 95.0
    trace_ops_per_s = 10.0

    def setup(self, L, rng) -> None:
        self.L = L
        bases = [(e.name, e.curve) for e in L.default_gallery()]
        bases += [(f"type_nm[{n},{m},{f}]", L.type_nm_curve(n, m, f)) for n, m, f in TYPE_NM]
        self.bases = [(name, curve, L.signature(curve)) for name, curve in bases]
        self.epicycloids = {}
        for f1, i1, f2, i2, _ in EPICYCLOIDS:
            for family, index in ((f1, i1), (f2, i2)):
                key = family[-1]
                self.epicycloids[family, index] = L.gallery(family, {key: index}).curve
        self.ops = blocks(rng, self._block)

    def _block(self, rng):
        out = []
        for i, (_, curve, _) in enumerate(self.bases):
            out.append(("affine", i, affine_entries(rng)))
            out.append(("reparam", i, reparam_text(rng, curve.domain, curve.closed)))
        out += [("germ", germ_params(rng)) for _ in range(4)]
        out += [("epicycloid", rng.choice(EPICYCLOIDS)) for _ in range(2)]
        return out

    def run(self, op) -> None:
        L = self.L
        kind = op[0]
        if kind in ("affine", "reparam"):
            name, curve, base = self.bases[op[1]]
            if kind == "affine":
                image = L.pushforward_affine(curve, L.AffineMap(*op[2])).curve
            else:
                image = L.reparametrize(curve, op[2], curve.domain).curve
            sig = L.signature(image)
            require(sig.key() == base.key(), f"{name} {kind}: signature key changed")
            verdict = L.decide_equivalence(sig, base)
            require(verdict.equivalent, f"{name} {kind}: not equivalent ({verdict.reason})")
        elif kind == "germ":
            case, n, m, p = op[1]
            germ = L.GermData(case, n, m, p=p)
            got = L.germ_signature_of_curve(L.local_normal_form(germ))
            require(got == L.germ_signature(germ), f"germ {op[1]}: {got}")
        else:
            f1, i1, f2, i2, want = op[1]
            verdict = L.decide_equivalence(L.signature(self.epicycloids[f1, i1]),
                                           L.signature(self.epicycloids[f2, i2]))
            require(verdict.equivalent == want, f"epicycloid {op[1]}: {verdict}")
            if not want:   # criterion 3 names the reason for the one rejected pair
                require(verdict.reason == "zero counts differ", f"epicycloid {op[1]}: {verdict}")


# -- sweep ---------------------------------------------------------------------------

STEPS = (2048, 8192, 32768)
LAWS = ("affine", "swap", "flip", "diffeo")


class Sweep(InProcess):
    """Reconstruction round trips and transform-law checks on long vectors."""

    name = "sweep"
    why = ("reconstruct/align round trips and law-vs-frame checks: order 0-1 jets on "
           "long numpy vectors, the diffeomorphism path, reconstruction")
    warmup = 6
    tail_percentile = 99.0
    trace_ops_per_s = 30.0

    def setup(self, L, rng) -> None:
        self.L = L
        self.np = importlib.import_module("numpy")
        self.entries = L.default_gallery()
        self.ops = blocks(rng, self._block)

    def _block(self, rng):
        n = len(self.entries)
        out = []
        for steps in STEPS:
            for source in ("frame", "closed-form"):
                out += [("reconstruct", rng.randrange(n), source, steps) for _ in range(2)]
        for law in LAWS:
            for _ in range(3):
                param = None
                if law == "affine":
                    param = affine_entries(rng)
                elif law == "flip":
                    param = rng.choice(("nu", "gamma"))
                elif law == "diffeo":
                    param = diffeo_texts(rng)
                out.append(("law", rng.randrange(n), law, param))
        return out

    def run(self, op) -> None:
        L, np = self.L, self.np
        entry = self.entries[op[1]]
        curve = entry.curve
        if op[0] == "reconstruct":
            _, _, source, steps = op
            pair = curve.curvature_pair() if source == "frame" else entry.curvature_closed_form
            sc = L.reconstruct(pair.ell, pair.beta, curve.domain, steps=steps)
            res = L.align_congruence(sc, curve).residual
            require(res <= RESIDUAL_TOL, f"{entry.name} {source} {steps}: residual {res:.3e}")
            return
        _, _, law, param = op
        if law == "affine":
            result = L.pushforward_affine(curve, L.AffineMap(*param))
        elif law == "swap":
            result = L.pushforward_swap(curve)
        elif law == "flip":
            result = L.negate(curve, param)
        else:
            result = L.pushforward_diffeo_curve(curve, L.DiffeoSpec.from_texts(*param))
        rep = L.check_legendre(result.curve, samples=LAW_POINTS, tol=LAW_TOL)
        require(rep.ok, f"{entry.name} {law}: not a frame ({rep})")
        ts = np.linspace(curve.domain[0], curve.domain[1], LAW_POINTS)
        pair = result.curve.curvature_pair()
        err = max(float(np.max(np.abs(pair.ell.values(ts) - result.law.ell.values(ts)))),
                  float(np.max(np.abs(pair.beta.values(ts) - result.law.beta.values(ts)))))
        require(err <= LAW_TOL, f"{entry.name} {law}: law error {err:.3e}")


# -- cli -----------------------------------------------------------------------------

CLI_KINDS = ("signature", "equivalent", "transform-affine", "transform-diffeo",
             "reconstruct", "check", "curvature")
CHILD_TIMEOUT_S = 120


class Cli:
    """One ``python -m legendre_curves.cli`` process per operation.

    Value arguments are passed as ``--flag=value`` because generated values
    may start with a minus sign.
    """

    name = "cli"
    why = ("one legcurve process per operation: interpreter start-up and imports "
           "dominate, compute is small")
    warmup = 2
    tail_percentile = 75.0
    trace_ops_per_s = 0.8
    reference_ms = 125.0
    reference_every_s = 1.0

    def setup(self, L, rng, root: str) -> None:
        self.root = root
        self.src = os.path.join(root, "src")
        spec_dir = os.path.join(WORK_DIR, "cli")
        os.makedirs(os.path.join(root, spec_dir), exist_ok=True)
        entries = L.default_gallery()
        specs = [self._write(spec_dir, e.name, e.spec) for e in entries]
        # closed-form curvature as expression text, for `reconstruct`
        closed_forms = [(e.curvature_closed_form.ell.name, e.curvature_closed_form.beta.name,
                         e.curve.domain) for e in entries]
        pairs = [(self._write(spec_dir, f"gamma_n[{n}]", L.gallery("gamma_n", {"n": n}).spec),
                  self._write(spec_dir, f"gamma_m[{m}]", L.gallery("gamma_m", {"m": m}).spec))
                 for n, m in ((4, 2), (5, 3), (6, 4))]
        pairs += [(specs[i], specs[i + 1]) for i in range(len(specs) - len(pairs))]
        # every kind runs on every gallery curve; the seed draws the
        # parameters and the order
        self.pool = {kind: [] for kind in CLI_KINDS}
        for kind in CLI_KINDS:
            for i in range(len(specs)):
                argv = self._argv(kind, rng, specs[i], pairs[i], closed_forms[i])
                self.pool[kind].append((argv, self._expected(argv)))
        self.peak_rss_kb = 0
        self.child_cpu_s = 0.0
        self.ops = self._ops(rng)

    def _ops(self, rng):
        """Blocks of one operation per kind; each kind cycles through its
        variants in a fresh shuffled order."""
        orders = {kind: [] for kind in CLI_KINDS}
        while True:
            block = []
            for kind in CLI_KINDS:
                if not orders[kind]:
                    orders[kind] = rng.sample(range(len(self.pool[kind])), len(self.pool[kind]))
                block.append((kind, orders[kind].pop()))
            rng.shuffle(block)
            yield from block

    def cpu_time(self) -> float:
        """CPU time of this process plus that of every child reaped so far."""
        return time.process_time() + self.child_cpu_s

    def _write(self, spec_dir, name, spec) -> str:
        path = os.path.join(spec_dir, re.sub(r"\W+", "_", name).strip("_") + ".json")
        with open(os.path.join(self.root, path), "w") as fh:
            json.dump(spec, fh, indent=2)
        return path

    @staticmethod
    def _argv(kind, rng, spec, pair, closed_form) -> list[str]:
        if kind == "signature":
            return ["signature", "--curve", spec]
        if kind == "equivalent":
            return ["equivalent", "--curve1", pair[0], "--curve2", pair[1]]
        if kind == "transform-affine":
            entries = ",".join(repr(v) for v in affine_entries(rng))
            return ["transform", "--curve", spec, f"--affine={entries}"]
        if kind == "transform-diffeo":
            return ["transform", "--curve", spec, "--diffeo=" + ";".join(diffeo_texts(rng))]
        if kind == "reconstruct":
            ell, beta, (a, b) = closed_form
            return ["reconstruct", f"--ell={ell}", f"--beta={beta}",
                    f"--domain={a!r}:{b!r}", "--steps", "2048"]
        if kind == "check":
            return ["check", "--curve", spec]
        return ["curvature", "--curve", spec, "--samples", str(rng.randint(200, 1000))]

    @staticmethod
    def _expected(argv) -> bytes:
        """What ``cli.run`` prints in-process; the process must match it byte for byte."""
        cli = importlib.import_module("legendre_curves.cli")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(argv)
        if code != 0:
            raise CheckFailed(f"in-process cli {argv} exited {code}")
        return buf.getvalue().encode()

    def _spawn(self, cmd):
        """Run one process to the end; return (exit code, rusage, stdout).

        The process is reaped with ``wait4`` so its own CPU time and peak
        RSS are known, and its output goes to files, so no pipe can fill up.
        """
        out_path = os.path.join(self.root, WORK_DIR, "cli-stdout")
        err_path = os.path.join(self.root, WORK_DIR, "cli-stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd, cwd=self.root, env=dict(os.environ, PYTHONPATH=self.src),
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        if proc.returncode != 0:
            with open(err_path, "rb") as fh:
                tail = fh.read()[-200:].decode(errors="replace")
            raise CheckFailed(f"{cmd[2:]} exited {proc.returncode}: {tail}")
        return usage, stdout

    def reference(self) -> float:
        """CPU seconds of a `python -c "import numpy"` process."""
        usage, _ = self._spawn([sys.executable, "-c", "import numpy"])
        return usage.ru_utime + usage.ru_stime

    def run(self, op, traced_out=None) -> None:
        """Run one process; ``traced_out`` selects the tracing shim."""
        argv, expected = self.pool[op[0]][op[1]]
        if traced_out is None:
            cmd = [sys.executable, "-m", "legendre_curves.cli"] + argv
        else:
            shim = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")
            cmd = [sys.executable, shim, traced_out] + argv
        usage, stdout = self._spawn(cmd)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        self.child_cpu_s += usage.ru_utime + usage.ru_stime
        require(stdout == expected, f"{argv}: stdout differs from cli.run")


WORKLOADS = {w.name: w for w in (Classify, Sweep, Cli)}
