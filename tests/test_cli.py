import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import legendre_curves
from legendre_curves import (DiffeoSpec, gallery, load_curve, pushforward_diffeo_curve,
                             signature)
from legendre_curves.cli import RenderConfig, render_svg, run


@pytest.fixture(scope="module")
def specs(tmp_path_factory):
    root = tmp_path_factory.mktemp("specs")
    paths = {}
    for key, name, params in [
        ("circle", "circle", {}),
        ("g3", "gamma_n", {"n": 3}),
        ("g5", "gamma_n", {"n": 5}),
        ("gm3", "gamma_m", {"m": 3}),
        ("cusp", "type_nm", {"n": 2, "m": 3}),
    ]:
        p = root / f"{key}.json"
        p.write_text(json.dumps(gallery(name, params).spec))
        paths[key] = str(p)
    return paths


def test_curvature_csv(specs, capsys):
    assert run(["curvature", "--curve", specs["circle"], "--samples", "5"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "t,ell,beta"
    assert len(out) == 6
    for line in out[1:]:
        _, ell, beta = line.split(",")
        assert float(ell) == pytest.approx(1.0)
        assert float(beta) == pytest.approx(1.0)


def test_curvature_runs_one_tape_once(specs, capsys, monkeypatch):
    # ell and beta are two ASTs on one compiled tape, evaluated in one run
    from legendre_curves import exprs

    runs, compiles = [], []
    run_, init = exprs._Tape.run, exprs._Tape.__init__

    def counted_run(self, t0, order):
        runs.append(order)
        return run_(self, t0, order)

    def counted_init(self, asts):
        init(self, asts)
        compiles.append((len(asts), self.depth))

    curve = load_curve(specs["circle"])
    monkeypatch.setattr(exprs._Tape, "run", counted_run)
    monkeypatch.setattr(exprs._Tape, "__init__", counted_init)
    monkeypatch.setattr("legendre_curves.cli.load_curve", lambda path: curve)
    assert run(["curvature", "--curve", specs["circle"], "--samples", "500"]) == 0
    assert len(capsys.readouterr().out.strip().split("\n")) == 501
    assert runs == [0] and compiles == [(2, 1)]


def test_signature_json(specs, capsys):
    assert run(["signature", "--curve", specs["g3"]]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["closed"] is True
    assert [z["kind"] for z in data["zeros"]] == ["singular", "singular"]
    assert data["zeros"][1]["t"] == pytest.approx(math.pi)


def test_equivalent_verdict(specs, capsys):
    assert run(["equivalent", "--curve1", specs["g5"], "--curve2", specs["gm3"]]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["equivalent"] is True

    assert run(["equivalent", "--curve1", specs["g3"], "--curve2", specs["g5"]]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"equivalent": False, "matching": "none",
                    "reason": "zero counts differ"}


def test_parity_json(specs, capsys):
    assert run(["parity", "--curve", specs["g3"]]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "ell_odd_count": 0, "beta_odd_count": 2, "ok": True}


def test_reconstruct_csv(capsys):
    assert run(["reconstruct", "--ell", "1", "--beta", "1",
                "--domain", f"0:{2 * math.pi}", "--steps", "32"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "t,gx,gy,nx,ny"
    assert len(lines) == 34


@pytest.mark.parametrize("domain, steps, message", [
    ("0:nan", "16", "finite"),
    ("0:inf", "16", "finite"),
    ("1:0", "16", "a < b"),
    ("1:1", "16", "a < b"),
    ("0:1", "8", "at least 16"),
    ("0:1", "17", "even"),
], ids=["nan-domain", "infinite-domain", "reversed-domain", "empty-domain",
        "too-few-steps", "odd-steps"])
def test_reconstruct_rejects_bad_input(capsys, domain, steps, message):
    assert run(["reconstruct", "--ell", "1", "--beta", "1",
                "--domain", domain, "--steps", steps]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_swap_prints_no_double_negation(specs, capsys):
    # nu_y of gamma_n[3] is a negation, so the swapped nu_x = -nu_y is its
    # operand, with the very values of -nu_y
    assert run(["transform", "--curve", specs["g3"], "--swap"]) == 0
    out = capsys.readouterr().out
    assert "(-(-" not in out
    base, image = load_curve(specs["g3"]), load_curve(json.loads(out))
    ts = np.linspace(*base.domain, 1000)
    assert np.array_equal(image.nu_x.values(ts), -base.nu_y.values(ts))


def test_transform_commands(specs, capsys):
    assert run(["transform", "--curve", specs["circle"], "--swap"]) == 0
    spec = json.loads(capsys.readouterr().out)
    assert spec["x"] == "sin(t)"

    assert run(["transform", "--curve", specs["circle"],
                "--affine", "2,0,0,1"]) == 0
    spec = json.loads(capsys.readouterr().out)
    curve = load_curve(spec)
    assert curve.curvature_pair().ell(0.0) == pytest.approx(2.0)

    assert run(["transform", "--curve", specs["circle"], "--negate-nu"]) == 0
    curve = load_curve(json.loads(capsys.readouterr().out))
    assert curve.curvature_pair().beta(0.5) == pytest.approx(-1.0)

    assert run(["transform", "--curve", specs["circle"],
                "--reparam", "2*t", "--domain", f"0:{math.pi}"]) == 0
    curve = load_curve(json.loads(capsys.readouterr().out))
    assert curve.curvature_pair().ell(0.3) == pytest.approx(2.0)

    # the diffeomorphism image is a spec file like every other image; its
    # curvature is that of the law
    assert run(["transform", "--curve", specs["circle"], "--diffeo", "1.5*x;y^3 + y"]) == 0
    image = load_curve(json.loads(capsys.readouterr().out))
    law = pushforward_diffeo_curve(load_curve(specs["circle"]),
                                   DiffeoSpec.from_texts("1.5*x", "y^3 + y")).law
    for t in (0.0, 0.7, 2.0, 4.5):
        assert image.curvature_pair()(t) == pytest.approx(law(t), rel=0, abs=1e-8)


def test_normal_form_emits_spec(capsys):
    assert run(["normal-form", "--case", "below-diagonal", "--n", "2", "--m", "3"]) == 0
    curve = load_curve(json.loads(capsys.readouterr().out))
    assert curve.curvature_pair().ell(0.0) == pytest.approx(1.5)

    assert run(["normal-form", "--case", "diagonal-perturbed", "--n", "2",
                "--p", "3"]) == 0
    curve = load_curve(json.loads(capsys.readouterr().out))
    assert curve.domain == (-1.0, 1.0)


def test_examples_list_and_get(capsys):
    assert run(["examples", "list"]) == 0
    names = capsys.readouterr().out.split()
    assert "circle" in names and "gamma_n" in names

    assert run(["examples", "get", "gamma_n", "--param", "n=5"]) == 0
    spec = json.loads(capsys.readouterr().out)
    assert spec["x"] == "5*cos(t) - cos(5*t)"
    assert spec["closed"] is True


def test_check_report(specs, capsys):
    assert run(["check", "--curve", specs["circle"]]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["legendre"]["ok"] is True
    assert data["closed"]["description"].startswith("closed to checked order")


def test_render_svg_files(specs, tmp_path, capsys):
    out = tmp_path / "c.svg"
    assert run(["render", "--curve", specs["circle"], "-o", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("<svg")
    assert "<circle" not in text  # no curvature zeros on the circle

    out2 = tmp_path / "cusp.svg"
    assert run(["render", "--curve", specs["cusp"], "-o", str(out2)]) == 0
    text2 = out2.read_text()
    assert text2.count("<circle") == 1  # one singular marker, filled
    assert 'fill="black"' in text2

    out3 = tmp_path / "g3.svg"
    assert run(["render", "--curve", specs["g3"], "-o", str(out3)]) == 0
    assert out3.read_text().count("<circle") == 2


def test_render_deterministic(specs, tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    run(["render", "--curve", specs["g3"], "-o", str(a)])
    run(["render", "--curve", specs["g3"], "-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_render_degenerate_bbox(tmp_path, capsys):
    # a constant curve still renders via the unit-box fallback
    from legendre_curves import LegendreCurve
    point = LegendreCurve.from_exprs("0*t", "0*t", nu=("cos(t)", "sin(t)"),
                                     domain=(0.0, 1.0))
    svg = render_svg(point, None, RenderConfig(samples=16))
    assert svg.startswith("<svg")


def test_exit_codes(specs, capsys):
    # malformed expression: positioned syntax error, exit 2
    code = run(["reconstruct", "--ell", "1 +", "--beta", "1", "--domain", "0:1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "syntax error" in err and "offset" in err

    # usage error from argparse: exit 2
    assert run(["curvature"]) == 2

    # domain error: exit 1
    code = run(["examples", "get", "gamma_ab", "--param", "a=1", "--param", "b=3"])
    err = capsys.readouterr().err
    assert code == 1
    assert "assumption fails" in err


def test_render_config_validation():
    with pytest.raises(ValueError):
        RenderConfig(width=0)
    with pytest.raises(ValueError):
        RenderConfig(samples=1)


@pytest.mark.parametrize("args, code, message", [
    (["curvature", "--curve", "circle", "--samples", "-5"], 2, "must be at least 1"),
    (["render", "--curve", "circle", "-o", "out.svg", "--samples", "1"], 2,
     "must be at least 2"),
    (["render", "--curve", "circle", "-o", "out.svg", "--width", "0"], 2,
     "must be at least 1"),
    (["normal-form", "--case", "below-diagonal", "--n", "0", "--m", "2"], 2,
     "must be at least 1"),
    (["transform", "--curve", "circle", "--affine=1,2,3,x"], 1, "must be numbers"),
    (["transform", "--curve", "circle", "--affine=1,0,0,nan"], 1, "must be finite"),
    (["transform", "--curve", "circle", "--affine=1e200,0,0,1e200"], 1, "overflows"),
    (["transform", "--curve", "circle", "--affine=1,1e200,-1e-200,1"], 1, "overflows"),
    (["normal-form", "--case", "below-diagonal", "--n", "2", "--m", "1"], 1, "need n < m"),
    (["normal-form", "--case", "diagonal-perturbed", "--n", "2"], 1, "positive p"),
    (["examples", "get", "type_nm", "--param", "n=3", "--param", "m=2"], 1,
     "needs 1 <= n < m"),
    (["transform", "--curve", "circle", "--diffeo", "x;x"], 1,
     "error: diffeomorphism degenerates along the curve"),
], ids=["curvature-samples", "render-samples", "render-width",
        "germ-n", "affine-text", "affine-nan", "affine-det-overflow",
        "affine-norm-overflow", "germ-below", "germ-no-p", "type_nm", "diffeo-degenerate"])
def test_out_of_range_flags_and_failed_assumptions(specs, tmp_path, capsys,
                                                   args, code, message):
    # out-of-range numbers are usage errors (exit 2), failed assumptions
    # domain errors (exit 1); neither prints anything to stdout
    args = [specs[a] if a == "circle" else str(tmp_path / a) if a == "out.svg" else a
            for a in args]
    assert run(args) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    if code == 1:
        assert captured.err.startswith("error: ")
    assert not (tmp_path / "out.svg").exists()


def test_reparam_requires_domain(specs, capsys):
    code = run(["transform", "--curve", specs["circle"], "--reparam", "2*t"])
    assert code == 1
    assert "--domain" in capsys.readouterr().err


# -- malformed spec files: `error: ...` on stderr, exit 1 ---------------------------


def _run_spec_error(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code = run(["signature", "--curve", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ")
    assert captured.out == ""
    return captured.err


def test_malformed_json_spec(tmp_path, capsys):
    err = _run_spec_error(tmp_path, capsys, '{"x": "cos(t)", "y": ')
    assert "not valid JSON" in err


def test_missing_spec_path(tmp_path, capsys):
    code = run(["signature", "--curve", str(tmp_path / "absent.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: cannot read curve spec")


def test_non_numeric_domain_or_params(tmp_path, capsys):
    spec = {"x": "cos(t)", "y": "sin(t)", "nu": ["cos(t)", "sin(t)"],
            "domain": [0, "two pi"]}
    err = _run_spec_error(tmp_path, capsys, json.dumps(spec))
    assert "must hold numbers" in err
    spec = {"x": "a*cos(t)", "y": "sin(t)", "nu": ["cos(t)", "sin(t)"],
            "domain": [0, 1], "params": {"a": "big"}}
    err = _run_spec_error(tmp_path, capsys, json.dumps(spec))
    assert "must hold numbers" in err
    # a string is no array of numbers, and a boolean is no number
    for field, value, message in [("domain", "01", "two numbers"),
                                  ("domain", [True, 2], "must hold numbers"),
                                  ("params", {"a": True}, "must hold numbers"),
                                  ("closed", "false", "must be true or false")]:
        spec = {"x": "a*cos(t)", "y": "sin(t)", "nu": ["cos(t)", "sin(t)"],
                "domain": [0, 1], "params": {"a": 2}, field: value}
        err = _run_spec_error(tmp_path, capsys, json.dumps(spec))
        assert f"'{field}' must" in err and message in err


@pytest.mark.parametrize("nu", [["cos(t)"], ["cos(t)", "sin(t)", "t"], [0, 1], [True, 1]])
def test_nu_must_hold_two_expressions(tmp_path, capsys, nu):
    # a list of the wrong length, or entries that are not text (exit 1, not 2)
    spec = {"x": "cos(t)", "y": "sin(t)", "nu": nu, "domain": [0, 1]}
    err = _run_spec_error(tmp_path, capsys, json.dumps(spec))
    assert "two expressions" in err


def test_invalid_param_name_in_spec(tmp_path, capsys):
    spec = {"x": "cos(t)", "y": "sin(t)", "nu": ["cos(t)", "sin(t)"],
            "domain": [0, 1], "params": {"pi": 2}}
    err = _run_spec_error(tmp_path, capsys, json.dumps(spec))
    assert "invalid parameter name 'pi'" in err


def test_examples_get_non_integer_param(capsys):
    code = run(["examples", "get", "gamma_n", "--param", "n=x"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: gallery parameter 'n' must be an integer")
    assert captured.out == ""


@pytest.mark.parametrize("args, x, domain, params, code, message", [
    (["signature"], "n*cos(t)", "[0, NaN]", '{"n": 1}', 1, "finite"),
    (["signature"], "n*cos(t)", "[0, Infinity]", '{"n": 1}', 1, "finite"),
    (["signature"], "n*cos(t)", "[0, 1]", '{"n": 1e400}', 1, "finite"),
    (["transform", "--swap"], "1e400*t", "[0, 1]", "{}", 2, "'1e400' overflows"),
    (["examples", "get", "type_nm", "--param", "f=nan"], None, None, None, 1, "finite"),
    (["examples", "get", "type_nm", "--param", "f=inf"], None, None, None, 1, "finite"),
], ids=["nan-domain", "infinite-domain", "overflowing-param", "overflowing-literal",
        "nan-factor", "infinite-factor"])
def test_non_finite_spec_values(tmp_path, capsys, args, x, domain, params, code, message):
    # a non-finite number is refused where it enters, not printed into a
    # spec that cannot be read back
    if x is not None:
        path = tmp_path / "bad.json"
        path.write_text(f'{{"x": "{x}", "y": "sin(t)", "nu": ["cos(t)", "sin(t)"], '
                        f'"domain": {domain}, "params": {params}}}')
        args = args + ["--curve", str(path)]
    assert run(args) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("syntax error: " if code == 2 else "error: ")
    assert message in captured.err


def test_reversed_domain_spec(tmp_path, capsys):
    spec = {"x": "cos(t)", "y": "sin(t)", "nu": ["cos(t)", "sin(t)"],
            "domain": [2 * math.pi, 0]}
    err = _run_spec_error(tmp_path, capsys, json.dumps(spec))
    assert "a < b" in err


@pytest.mark.parametrize("args", [
    ["--affine", "0.8,0.3,-0.2,1.1"],
    ["--swap"],
    ["--reparam", "t + 0.3*sin(t)", "--domain", f"0:{2 * math.pi!r}"],
], ids=["affine", "swap", "reparam"])
def test_transform_frameless_spec(tmp_path, capsys, args):
    from legendre_curves import check_legendre, decide_equivalence

    path = tmp_path / "frameless.json"
    path.write_text(json.dumps({"x": "cos(t)", "y": "sin(t) + 0.6*sin(2*t)",
                                "domain": [0, 2 * math.pi], "closed": True}))
    assert run(["transform", "--curve", str(path)] + args) == 0
    image = load_curve(json.loads(capsys.readouterr().out))
    assert check_legendre(image).ok
    verdict = decide_equivalence(signature(load_curve(str(path))), signature(image))
    assert verdict.equivalent


_OVERFLOWING = '{"x": "exp(800*t)", "y": "0", "nu": ["0", "1"], "domain": [0, 1]}'


@pytest.mark.parametrize("args, message", [
    (["reconstruct", "--ell=exp(1000*t)", "--beta=1", "--domain=0:1", "--steps", "16"],
     "curvature is not finite at t=0.75"),
    (["reconstruct", "--ell=1", "--beta=exp(800*t)", "--domain=0:1", "--steps", "16"],
     "curvature is not finite at t=0.9375"),
    (["curvature", "--curve", "spec"], "curvature is not finite at t="),
    (["signature", "--curve", "spec"], "function value is not finite at t="),
    (["check", "--curve", "spec"], "tangency defect is not finite at t="),
    (["render", "--curve", "spec", "-o", "svg"], "curve point is not finite at t="),
], ids=["reconstruct-ell", "reconstruct-beta", "curvature", "signature", "check",
        "render"])
def test_non_finite_curvature_is_refused(tmp_path, capsys, args, message):
    # an overflowing curvature is an error, not nan/inf rows, a NaN in the
    # check report, an SVG path of nan coordinates or a "constant curve"
    # verdict drawn from an infinite scale
    spec = tmp_path / "spec.json"
    spec.write_text(_OVERFLOWING)
    svg = tmp_path / "out.svg"
    paths = {"spec": str(spec), "svg": str(svg)}
    assert run([paths.get(a, a) for a in args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert not svg.exists()


def test_render_into_a_missing_directory_is_an_error(specs, tmp_path, capsys):
    target = tmp_path / "missing" / "x.svg"
    assert run(["render", "--curve", specs["g3"], "-o", str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {target}") and "Traceback" not in err
    assert not target.parent.exists()


def test_closed_stdout_ends_without_a_traceback(specs):
    # a reader that stops after one line, as `| head -1` does
    package = os.path.dirname(os.path.dirname(legendre_curves.__file__))
    env = dict(os.environ, PYTHONPATH=package)
    proc = subprocess.Popen(
        [sys.executable, "-m", "legendre_curves.cli", "curvature", "--curve", specs["g3"],
         "--samples", "20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"t,ell,beta\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err
