import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import legendre_curves

_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_exported_name_resolves_once():
    names = legendre_curves.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(legendre_curves, name)]
    assert missing == []


def test_bench_tracer_installs_and_restores_every_binding():
    # The benchmark's tracer binds package names from outside; a renamed or
    # deleted name breaks it.  Install it, trace a signature and a
    # diffeomorphism law check and the image's points, and put every
    # original back.
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        from legendre_curves import DiffeoSpec, gallery, pushforward_diffeo_curve, signature

        curve = gallery("gamma_n", {"n": 3}).curve
        assert signature(curve).singular_count == 2
        result = pushforward_diffeo_curve(curve, DiffeoSpec.from_texts("x + 0.1*y^2", "y"))
        ts = np.linspace(*curve.domain, 33)
        assert result.curve.gamma(ts).shape == (33, 2)
        image = result.curve.curvature_pair()
        for law, frame in ((result.law.ell, image.ell), (result.law.beta, image.beta)):
            assert np.max(np.abs(law.values(ts) - frame.values(ts))) <= 1e-8
    finally:
        tracer.uninstall()
    assert patches
    for owner, attr, original in patches:
        assert owner.__dict__[attr] is original, (owner, attr)
    counts = tracer.counts
    assert counts["signatures.signature.calls"] == 1
    # the law is an expression: eval_bijet is bound but never runs
    assert counts["transforms.calls"] >= 1 and counts["exprs.bijet.calls"] == 0
    assert counts["curves.gamma_jets.calls"] >= 1 and counts["exprs.eval.calls"] >= 1


def _run_fresh(code: str, *args: str):
    """Run ``code`` in a fresh interpreter that imports this package; return
    what it prints as JSON."""
    package = os.path.dirname(os.path.dirname(legendre_curves.__file__))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=package))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


_CHILD_NAMES = """
import importlib, json, sys
importlib.import_module(sys.argv[1])
import legendre_curves as L
homes = {"DEFAULT_ORDER": "jets", "GALLERY_NAMES": "gallery", "GERM_CASES": "normal_forms",
         "ZERO_FUNCTION": "normal_forms"}
wrong = []
for name in L.__all__:
    obj = getattr(L, name)
    home = getattr(obj, "__module__", None) or "legendre_curves." + homes[name]
    if obj is not getattr(importlib.import_module(home), name):
        wrong.append(name)
print(json.dumps({"wrong": wrong, "undir": sorted(set(L.__all__) - set(dir(L))),
                  "gallery": type(L.gallery).__name__}))
"""


@pytest.mark.parametrize("first", ["gallery", "signatures", "transforms", "reconstruction"])
def test_every_exported_name_is_its_modules_object(first):
    # importing a submodule binds its name on the package; `gallery` is also
    # a function name, which that binding must not replace
    got = _run_fresh(_CHILD_NAMES, f"legendre_curves.{first}")
    assert got == {"wrong": [], "undir": [], "gallery": "function"}


_CHILD_TRACED = """
import importlib.util, json, sys
import legendre_curves
spec = importlib.util.spec_from_file_location("bench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
tr = tracer.Tracer()
tr.install()
traced = legendre_curves.signature
sig = traced(legendre_curves.gallery("gamma_n", {"n": 3}).curve)
tr.uninstall()
print(json.dumps({
    "traced": hasattr(traced, "__wrapped__"), "calls": tr.counts["signatures.signature.calls"],
    "singular": sig.singular_count,
    "restored": legendre_curves.signature is legendre_curves.signatures.signature,
    "unwrapped": not hasattr(legendre_curves.signature, "__wrapped__")}))
"""


def test_lazy_names_follow_the_tracer_in_and_out():
    # no lazy name is touched before install; a name cached on first access
    # would keep the tracer's wrapper after uninstall
    got = _run_fresh(_CHILD_TRACED, str(_TRACER))
    assert got == {"traced": True, "calls": 1, "singular": 2, "restored": True,
                   "unwrapped": True}
