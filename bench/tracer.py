"""Layer tracing from outside the library.

``Tracer.install()`` replaces the public entry points of each layer of
``legendre_curves`` with wrappers that record a span (name, start, end,
parent span, operation id) and the layer's counters; ``uninstall()`` puts
the originals back.  Nothing under ``src/`` is edited: module functions are
re-bound in every module namespace that holds them, methods are patched on
their classes.

Spans live in flat typed arrays while the run is going; self times (span
time minus the time covered by child spans and by the tracer's own counting
hooks) are computed once at the end.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from collections import Counter
from time import perf_counter

PACKAGE = "legendre_curves"
MODULES = ("jets", "exprs", "curves", "transforms", "signatures",
           "reconstruction", "normal_forms", "gallery", "cli")

#: Per-layer metrics of the traced run: name -> unit.  Counts are totals
#: over the traced operations divided by their number; ``*_ms`` are self
#: times per operation.  ``gallery.build_ms`` is set-up work and, except on
#: the cli workload, so is ``cli.import_ms`` (see README.md).
PER_LAYER = {
    "jets.mul.calls": "count",
    "jets.mul.coeff_ops": "count",
    "jets.mul.coeff_ops_hi": "count",
    "jets.div.calls": "count",
    "jets.elementary.calls": "count",
    "jets.self_ms": "ms",
    "exprs.parse.calls": "count",
    "exprs.parse.self_ms": "ms",
    "exprs.eval.calls": "count",
    "exprs.eval.points": "count",
    "exprs.eval.high_order_calls": "count",
    "exprs.nodes_walked": "count",
    "exprs.node_reuse": "ratio",
    "exprs.bijet.calls": "count",
    "exprs.eval.self_ms": "ms",
    "curves.nu_jets.calls": "count",
    "curves.gamma_jets.calls": "count",
    "curves.check_legendre.self_ms": "ms",
    "curves.self_ms": "ms",
    "transforms.calls": "count",
    "transforms.image_tree_nodes": "count",
    "transforms.self_ms": "ms",
    "signatures.signature.calls": "count",
    "signatures.signature.self_ms": "ms",
    "signatures.find_zeros.calls": "count",
    "signatures.find_zeros.self_ms": "ms",
    "signatures.roots": "count",
    "signatures.decide.self_ms": "ms",
    "signatures.errors": "count",
    "reconstruction.reconstruct.self_ms": "ms",
    "reconstruction.samples": "count",
    "reconstruction.align.self_ms": "ms",
    "reconstruction.max_residual": "length",
    "normal_forms.calls": "count",
    "normal_forms.self_ms": "ms",
    "gallery.build_ms": "ms",
    "cli.import_ms": "ms",
    "cli.run_ms": "ms",
    "cli.startup_ms": "ms",
}

#: Self-time metrics: metric -> span names whose self time it sums.
SELF_TIME = {
    "jets.self_ms": ("jets.mul", "jets.div", "jets.elementary", "jets.compose"),
    "exprs.parse.self_ms": ("exprs.parse",),
    "exprs.eval.self_ms": ("exprs.eval", "exprs.bijet"),
    "curves.check_legendre.self_ms": ("curves.check_legendre",),
    "curves.self_ms": ("curves.nu_jets", "curves.gamma_jets", "curves.ell",
                       "curves.beta", "curves.check_legendre",
                       "curves.check_closed", "curves.load_curve",
                       "curves.from_exprs", "curves.derive_nu"),
    "transforms.self_ms": ("transforms",),
    "signatures.signature.self_ms": ("signatures.signature",),
    "signatures.find_zeros.self_ms": ("signatures.find_zeros",),
    "signatures.decide.self_ms": ("signatures.decide",),
    "reconstruction.reconstruct.self_ms": ("reconstruction.reconstruct",),
    "reconstruction.align.self_ms": ("reconstruction.align",),
    "normal_forms.self_ms": ("normal_forms",),
}


def load_modules():
    """The package and its layer modules, imported from the current path."""
    pkg = importlib.import_module(PACKAGE)
    mods = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
    return pkg, mods


def _tree_size(node, memo):
    """Node count of an expression tree, duplicates counted."""
    key = id(node)
    size = memo.get(key)
    if size is None:
        size = 1 + sum(_tree_size(c, memo) for c in _children(node))
        memo[key] = size
    return size


def _children(node):
    for field in ("child", "left", "right"):
        sub = getattr(node, field, None)
        if sub is not None:
            yield sub


def _node_key(node, child_keys):
    """Structural identity of an AST node given its children's identities."""
    kind = type(node).__name__
    if kind == "Number":
        return (kind, node.value)
    if kind in ("Var", "Const"):
        return (kind, node.name)
    if kind == "PowInt":
        return (kind, node.exponent) + child_keys
    return (kind, node.op) + child_keys


def _distinct_nodes(asts):
    """(id-distinct, structurally distinct) node counts of a set of ASTs.

    The first is what one ``eval_jet_many`` call walks (its memo is keyed
    by ``id``); the second is what a hash-consed evaluator would walk.
    """
    by_id: dict = {}
    canon: dict = {}

    def visit(node):
        key = id(node)
        got = by_id.get(key)
        if got is None:
            kids = tuple(visit(c) for c in _children(node))
            got = canon.setdefault(_node_key(node, kids), len(canon))
            by_id[key] = got
        return got

    for ast in asts:
        visit(ast)
    return len(by_id), len(canon)


class Tracer:
    """Spans and counters for one process; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.excl = array("d")      # time spent in counting hooks under the span
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.stack = [-1]
        self.op_id = 0
        self.counts: Counter = Counter()
        self.max_residual = 0.0
        self.active = False
        self._patches: list = []
        self._depth: Counter = Counter()
        self._ast_cache: dict = {}

    # -- span recording -----------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _charge(self, parent: int, seconds: float) -> None:
        if parent >= 0:
            self.excl[parent] += seconds

    def wrap(self, name: str, fn, before=None, after=None, on_error=None):
        """``fn`` recording a span named ``name`` while the tracer is active.

        ``before(top, *args, **kwargs)`` and ``after(top, result, *args,
        **kwargs)`` update counters; ``top`` is true when no span of the
        same layer encloses this call.  Their run time is excluded from
        every span's self time.
        """
        nid = self._nid(name)
        layer = name.split(".", 1)[0]
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            parent = tr.stack[-1]
            top = tr._depth[layer] == 0
            if before is not None:
                h0 = perf_counter()
                before(top, *args, **kwargs)
                tr._charge(parent, perf_counter() - h0)
            idx = len(tr.start)
            tr.start.append(0.0)
            tr.end.append(0.0)
            tr.excl.append(0.0)
            tr.name.append(nid)
            tr.parent.append(parent)
            tr.op.append(tr.op_id)
            tr.stack.append(idx)
            tr._depth[layer] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                t1 = perf_counter()
                tr._close(idx, layer, t0, t1)
                if on_error is not None and top:
                    on_error()
                raise
            t1 = perf_counter()
            tr._close(idx, layer, t0, t1)
            if after is not None:
                h0 = perf_counter()
                after(top, result, *args, **kwargs)
                tr._charge(parent, perf_counter() - h0)
            return result

        return wrapper

    def _close(self, idx, layer, t0, t1):
        self.stack.pop()
        self._depth[layer] -= 1
        self.start[idx] = t0
        self.end[idx] = t1

    # -- patching -------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, fn, wrapper, namespaces):
        """Replace every module-level reference to ``fn`` by ``wrapper``."""
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap the layer entry points and start recording."""
        import numpy as np

        pkg, m = load_modules()
        every = [pkg] + list(m.values())
        jets, exprs, curves, transforms = m["jets"], m["exprs"], m["curves"], m["transforms"]
        sig, rec, nf, gal, cli = (m["signatures"], m["reconstruction"],
                                  m["normal_forms"], m["gallery"], m["cli"])
        c = self.counts
        TaylorJet = jets.TaylorJet

        # jets: class attributes of TaylorJet plus the elementary functions
        def count_mul(top, a, b):
            k = a.order
            coeffs = a.coeffs + (b.coeffs if isinstance(b, TaylorJet) else [b])
            n = max(np.size(x) for x in coeffs)
            ops = (k + 1) * (k + 2) // 2 * n
            c["jets.mul.calls"] += 1
            c["jets.mul.coeff_ops"] += ops
            if k >= 2:
                c["jets.mul.coeff_ops_hi"] += ops

        mul = self.wrap("jets.mul", TaylorJet.__mul__, before=count_mul)
        self._set(TaylorJet, "__mul__", mul)
        self._set(TaylorJet, "__rmul__", mul)
        self._set(TaylorJet, "__truediv__", self.wrap(
            "jets.div", TaylorJet.__truediv__,
            before=lambda top, *a: c.update(("jets.div.calls",))))

        def count_elementary(top, *args):
            c["jets.elementary.calls"] += 1

        for fn in (jets.jet_elementary, jets.jet_sqrt):
            self._rebind(fn, self.wrap("jets.elementary", fn, before=count_elementary), every)
        self._rebind(jets.compose, self.wrap("jets.compose", jets.compose), every)

        # exprs
        self._rebind(exprs.parse_expr, self.wrap(
            "exprs.parse", exprs.parse_expr,
            before=lambda top, *a, **k: c.update(("exprs.parse.calls",))), every)

        def count_eval(asts, t0, order):
            c["exprs.eval.calls"] += 1
            c["exprs.eval.points"] += int(np.size(t0))
            if order >= 2:
                c["exprs.eval.high_order_calls"] += 1
            key = tuple(id(a) for a in asts)
            hit = self._ast_cache.get(key)
            if hit is None:
                hit = self._ast_cache[key] = (asts, _distinct_nodes(asts))
            walked, distinct = hit[1]
            c["exprs.nodes_walked"] += walked
            c["exprs.nodes_distinct"] += distinct

        def eval_one(top, ast, t0, order=jets.DEFAULT_ORDER):
            count_eval((ast,), t0, order)

        def eval_many(top, asts, t0, order):
            count_eval(tuple(asts), t0, order)

        self._rebind(exprs.eval_jet, self.wrap("exprs.eval", exprs.eval_jet,
                                               before=eval_one), every)
        self._rebind(exprs.eval_jet_many, self.wrap("exprs.eval", exprs.eval_jet_many,
                                                    before=eval_many), every)
        # eval_bijet recurses through its module global; wrap only outside
        # references so one span covers one top-level evaluation.
        self._rebind(exprs.eval_bijet, self.wrap(
            "exprs.bijet", exprs.eval_bijet,
            before=lambda top, *a: c.update(("exprs.bijet.calls",))),
            [mod for mod in every if mod is not exprs])

        # curves: frame-jet methods of both curve classes, the curvature
        # closures they hand out, the checks and the spec loader
        for cls in (curves.LegendreCurve, transforms.DiffeoCurve):
            for meth in ("nu_jets", "gamma_jets"):
                metric = f"curves.{meth}.calls"
                self._set(cls, meth, self.wrap(
                    f"curves.{meth}", cls.__dict__[meth],
                    before=lambda top, *a, _m=metric: c.update((_m,))))
            for meth in ("ell", "beta"):
                self._set(cls, meth, self._wrap_fun_factory(
                    f"curves.{meth}", cls.__dict__[meth], exprs.ScalarFun))
        from_exprs = curves.LegendreCurve.__dict__["from_exprs"].__func__
        self._set(curves.LegendreCurve, "from_exprs",
                  classmethod(self.wrap("curves.from_exprs", from_exprs)))
        for fn in (curves.check_legendre, curves.check_closed, curves.load_curve,
                   curves.derive_nu):
            self._rebind(fn, self.wrap(f"curves.{fn.__name__}", fn), every)

        # transforms
        memo: dict = {}

        def count_call(top, *args, **kwargs):
            c["transforms.calls"] += 1

        def count_image(top, result, *args, **kwargs):
            image = getattr(result, "curve", None)
            for comp in ("x", "y", "nu_x", "nu_y"):
                ast = getattr(getattr(image, comp, None), "ast", None)
                if ast is not None:
                    c["transforms.image_tree_nodes"] += _tree_size(ast, memo)
            memo.clear()

        for fn in (transforms.reparametrize, transforms.pushforward_affine,
                   transforms.pushforward_swap, transforms.negate,
                   transforms.pushforward_diffeo, transforms.pushforward_diffeo_curve):
            self._rebind(fn, self.wrap("transforms", fn, before=count_call,
                                                 after=count_image), every)

        # signatures
        def count_error():
            c["signatures.errors"] += 1

        def count_roots(top, roots, *args, **kwargs):
            c["signatures.roots"] += len(roots)

        self._rebind(sig.signature, self.wrap(
            "signatures.signature", sig.signature, on_error=count_error,
            before=lambda top, *a, **k: c.update(("signatures.signature.calls",))), every)
        self._rebind(sig.find_zeros, self.wrap(
            "signatures.find_zeros", sig.find_zeros, after=count_roots,
            before=lambda top, *a, **k: c.update(("signatures.find_zeros.calls",)),
            on_error=count_error), every)
        self._rebind(sig.decide_equivalence, self.wrap(
            "signatures.decide", sig.decide_equivalence, on_error=count_error), every)

        # reconstruction
        def count_samples(top, sc, *args, **kwargs):
            c["reconstruction.samples"] += len(sc.ts)

        def note_residual(top, res, *args):
            self.max_residual = max(self.max_residual, float(res.residual))

        self._rebind(rec.reconstruct, self.wrap(
            "reconstruction.reconstruct", rec.reconstruct, after=count_samples), every)
        self._rebind(rec.align_congruence, self.wrap(
            "reconstruction.align", rec.align_congruence, after=note_residual), every)

        # normal forms, gallery, cli
        def count_nf(top, *args, **kwargs):
            if top:
                c["normal_forms.calls"] += 1

        for fn in (nf.local_normal_form, nf.germ_signature, nf.germ_signature_of_curve,
                   nf.type_nm_curve, nf.type_nm_curvature):
            self._rebind(fn, self.wrap("normal_forms", fn, before=count_nf), every)
        for fn in (gal.gallery, gal.default_gallery):
            self._rebind(fn, self.wrap("gallery.build", fn), every)
        self._rebind(cli.run, self.wrap("cli.run", cli.run), every)
        self.active = True

    def _wrap_fun_factory(self, name, method, ScalarFun):
        """Wrap a method returning a ScalarFun so its jet rule records spans."""
        tr = self

        @functools.wraps(method)
        def factory(curve):
            fun = method(curve)
            if not tr.active:
                return fun
            return ScalarFun(tr.wrap(name, fun._jet_fn), ast=fun.ast, name=fun.name)

        return factory

    def uninstall(self) -> None:
        """Stop recording and put every original attribute back."""
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------------

    def self_times(self):
        """(self time, duration) of every span in seconds, as numpy arrays."""
        import numpy as np

        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return dur - child - np.frombuffer(self.excl, dtype=float), dur

    def self_ms_by_name(self, first_op: int = 1) -> dict[str, float]:
        """Total self time per span name over operations >= ``first_op``, ms."""
        import numpy as np

        if not len(self.start):
            return {}
        own, _ = self.self_times()
        keep = np.frombuffer(self.op, dtype=np.int32) >= first_op
        names = np.frombuffer(self.name, dtype=np.int32)[keep]
        sums = np.bincount(names, weights=own[keep], minlength=len(self.names))
        return {n: float(s) * 1e3 for n, s in zip(self.names, sums)}

    def top_level_ms(self, prefix: str, op: int) -> float:
        """Wall time of spans named ``prefix*`` not nested in one another."""
        import numpy as np

        if not len(self.start):
            return 0.0
        _, dur = self.self_times()
        names = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        ops = np.frombuffer(self.op, dtype=np.int32)
        match = np.array([n.startswith(prefix) for n in self.names] + [False])
        nested = match[np.where(parent >= 0, names[parent], len(self.names))]
        keep = match[names] & ~nested & (ops == op)
        return float(np.sum(dur[keep])) * 1e3

    def layer_totals(self) -> dict[str, float]:
        """Counter totals and self-time totals (ms) of the operation phase."""
        by_name = self.self_ms_by_name()
        out = {k: float(v) for k, v in self.counts.items()}
        for metric, spans in SELF_TIME.items():
            out[metric] = sum(by_name.get(s, 0.0) for s in spans)
        return out

    def save(self, path) -> None:
        """Write the recorded spans out (numpy .npz)."""
        import numpy as np

        np.savez(path, names=np.array(self.names, dtype=str),
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float),
                 excl=np.frombuffer(self.excl, dtype=float),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 op=np.frombuffer(self.op, dtype=np.int32))


def per_op(totals: dict[str, float], n_ops: int) -> dict[str, float]:
    """Divide totals by the operation count; node reuse is a ratio."""
    out = {k: v / n_ops for k, v in totals.items()}
    walked = totals.get("exprs.nodes_walked", 0.0)
    out["exprs.node_reuse"] = (totals.get("exprs.nodes_distinct", 0.0) / walked
                               if walked else 0.0)
    out.pop("exprs.nodes_distinct", None)
    return out

