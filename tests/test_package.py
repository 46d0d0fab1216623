import importlib.util
from pathlib import Path

import numpy as np

import legendre_curves


def test_every_exported_name_resolves_once():
    names = legendre_curves.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(legendre_curves, name)]
    assert missing == []


def test_bench_tracer_installs_and_restores_every_binding():
    # The benchmark's tracer binds package names from outside; a renamed or
    # deleted name breaks it.  Install it, trace a signature and a
    # diffeomorphism law check, and put every original back.
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
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
    # the law is an expression: BiJet2 is bound but never runs
    assert counts["transforms.calls"] >= 1 and counts["exprs.bijet.calls"] == 0
    assert counts["curves.gamma_jets.calls"] >= 1 and counts["exprs.eval.calls"] >= 1
