import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import legendre_curves
from legendre_curves import (AffineMap, DiffeoSpec, gallery, load_curve, pushforward_affine,
                             pushforward_diffeo_curve, signature)
from legendre_curves.cli import RenderConfig, render_svg, run
from legendre_curves.exprs import pretty_print


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


def test_curvature_runs_one_tape_once(specs, capsys, monkeypatch, tape_runs):
    # ell and beta are two ASTs on one compiled tape, evaluated in one run
    curve = load_curve(specs["circle"])
    tape_runs.clear()
    monkeypatch.setattr("legendre_curves.cli.load_curve", lambda path: curve)
    assert run(["curvature", "--curve", specs["circle"], "--samples", "500"]) == 0
    assert len(capsys.readouterr().out.strip().split("\n")) == 501
    assert [r.order for r in tape_runs.runs] == [0] and tape_runs.compiles == [(2, 1)]


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


@pytest.mark.parametrize("domain, message", [
    ("0:nan", "finite"),
    ("0:inf", "finite"),
    ("1:0", "a < b"),
    ("1:1", "a < b"),
], ids=["nan-domain", "infinite-domain", "reversed-domain", "empty-domain"])
def test_reparam_rejects_bad_domain(specs, capsys, domain, message):
    # the domain is checked before any grid is built, so no numpy warning
    # (an error under the test filter) comes first
    assert run(["transform", "--curve", specs["circle"], "--reparam", "t",
                f"--domain={domain}"]) == 1
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


def test_a_scaled_parameter_keeps_the_signature_and_the_verdict(specs, tmp_path, capsys):
    # t = 1e10 u squeezes gamma_n[3] onto [0, 2 pi / 1e10]: its two singular
    # points stay two zeros, and the image stays equivalent to gamma_n[3]
    assert run(["transform", "--curve", specs["g3"], "--reparam", "1e10*t",
                "--domain", "0:6.283185307179586e-10"]) == 0
    image = tmp_path / "g3_scaled.json"
    image.write_text(capsys.readouterr().out)
    assert run(["signature", "--curve", str(image)]) == 0
    zeros = json.loads(capsys.readouterr().out)["zeros"]
    assert [z["kind"] for z in zeros] == ["singular", "singular"]
    for other, equivalent in (("g3", True), ("circle", False)):
        assert run(["equivalent", "--curve1", str(image), "--curve2", specs[other]]) == 0
        assert json.loads(capsys.readouterr().out)["equivalent"] is equivalent, other


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
    # a circle of radius 1e-13 is no point: each side is judged against the
    # curve's own coordinates, so it fills the picture
    tiny = pushforward_affine(gallery("circle").curve, AffineMap(1e-13, 0, 0, 1e-13)).curve
    path = render_svg(tiny, None, RenderConfig(samples=16)).split('d="')[1].split('"')[0]
    xs = [float(v) for v in path.replace("M", "").replace("L", "").replace("Z", "").split()[0::2]]
    assert max(xs) - min(xs) > 400


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
    (["normal-form", "--case", "below-diagonal", "--n", "2", "--m", "3", "--p", "4"], 1,
     "below-diagonal germs take no p"),
    (["transform", "--curve", "circle", "--swap", "--domain=0:1"], 2,
     "--domain applies only with --reparam"),
    (["examples", "get", "gamma_n", "--param", "m=7"], 1,
     "gamma_n takes no parameter 'm'"),
    (["examples", "get", "circle", "--param", "q=1"], 1,
     "circle takes no parameter 'q'"),
    (["transform", "--curve", "circle", "--affine="], 2, "need a value"),
    (["transform", "--curve", "circle", "--reparam", "", "--domain", "0:3.14"], 2,
     "need a value"),
    (["transform", "--curve", "circle", "--diffeo", ""], 2, "need a value"),
    (["transform", "--curve", "circle", "--diffeo", "x;(y-0.3)^2"], 1,
     "error: diffeomorphism degenerates along the curve"),
    (["transform", "--curve", "circle", "--diffeo", "x+3*y;0.1*x+0.3*y"], 1,
     "error: diffeomorphism degenerates along the curve"),
], ids=["curvature-samples", "render-samples", "render-width",
        "germ-n", "affine-text", "affine-nan", "affine-det-overflow",
        "affine-norm-overflow", "germ-below", "germ-no-p", "type_nm", "diffeo-degenerate",
        "germ-stray-p", "domain-without-reparam", "gamma_n-stray-param",
        "circle-stray-param", "empty-affine", "empty-reparam", "empty-diffeo",
        "diffeo-fold", "diffeo-rank-one"])
def test_out_of_range_flags_and_failed_assumptions(specs, tmp_path, capsys,
                                                   args, code, message):
    # out-of-range numbers are usage errors (exit 2), failed assumptions
    # domain errors (exit 1); neither prints anything to stdout
    args = [specs[a] if a == "circle" and flag == "--curve"
            else str(tmp_path / a) if a == "out.svg" else a
            for flag, a in zip([None] + args, args)]
    assert run(args) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    if code == 1:
        assert captured.err.startswith("error: ")
    assert not (tmp_path / "out.svg").exists()


def test_reconstruct_reads_printed_curvature_pairs(roster, capsys):
    # each curve's own (ell, beta), printed with d(...), goes back in as text
    for entry in roster:
        pair = entry.curve.curvature_pair()
        a, b = entry.curve.domain
        code = run(["reconstruct", "--ell", pretty_print(pair.ell.ast),
                    "--beta", pretty_print(pair.beta.ast), f"--domain={a!r}:{b!r}"])
        captured = capsys.readouterr()
        assert code == 0, (entry.name, captured.err)
        assert captured.out.startswith("t,")


def test_reparam_requires_domain(specs, capsys):
    code = run(["transform", "--curve", specs["circle"], "--reparam", "2*t"])
    assert code == 1
    assert "--domain" in capsys.readouterr().err


@pytest.mark.parametrize("argv, option, value", [
    (["reconstruct", "--ell", "1", "--beta", "1", "--steps", "64"], "--domain", "-1:1"),
    (["reconstruct", "--beta", "1", "--domain=0:1", "--steps", "64"], "--ell", "-t"),
    (["reconstruct", "--beta", "1", "--domain=0:1", "--steps", "64"], "--ell", "-1"),
    (["transform", "--curve", "CIRCLE"], "--affine", "-1,0,0,1"),
    (["transform", "--curve", "CIRCLE", "--domain=-6.283185307179586:0"], "--reparam", "-t"),
])
def test_an_option_value_may_begin_with_a_minus(specs, capsys, argv, option, value):
    # The token after an option that takes a value is that value, whatever
    # its first character: both spellings print the same bytes.
    argv = [specs["circle"] if a == "CIRCLE" else a for a in argv]
    outputs = []
    for spelling in ([option, value], [f"{option}={value}"]):
        assert run(argv + spelling) == 0, spelling
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] and outputs[0].out


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


_NESTED = "(" * 300 + "t" + ")" * 300
_TOO_DEEP = "error: input nests too deeply\n"


@pytest.mark.parametrize("argv, spec, message", [
    (["signature", "--curve", "SPEC"], b"\xff\xfe{}", "error: cannot read curve spec"),
    (["signature", "--curve", "SPEC"],
     json.dumps({"x": _NESTED, "y": "t^3", "domain": [-1, 1]}).encode(), _TOO_DEEP),
    (["signature", "--curve", "SPEC"],
     json.dumps({"x": "+".join(["t"] * 1000), "y": "t^3", "domain": [-1, 1]}).encode(),
     _TOO_DEEP),
    (["signature", "--curve", "SPEC"], b"[" * 100_000 + b"]" * 100_000, _TOO_DEEP),
    (["reconstruct", "--ell", _NESTED, "--beta", "1", "--domain", "0:1", "--steps", "16"],
     None, _TOO_DEEP),
], ids=["spec-not-utf8", "spec-parentheses", "spec-long-sum", "spec-json-array",
        "reconstruct-parentheses"])
def test_unreadable_or_too_deep_input_is_one_error_line(tmp_path, capsys, argv, spec, message):
    path = tmp_path / "spec.json"
    if spec is not None:
        path.write_bytes(spec)
    assert run([str(path) if a == "SPEC" else a for a in argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(message) and err.count("\n") == 1


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
    (["signature"], "n*cos(t)", "[0, 1" + "0" * 400 + "]", '{"n": 1}', 1, "finite"),
    (["signature"], "n*cos(t)", "[0, 1]", '{"n": 1' + "0" * 400 + "}", 1, "finite"),
    (["examples", "get", "type_nm", "--param", "f=nan"], None, None, None, 1, "finite"),
    (["examples", "get", "type_nm", "--param", "f=inf"], None, None, None, 1, "finite"),
], ids=["nan-domain", "infinite-domain", "overflowing-param", "overflowing-literal",
        "huge-integer-domain", "huge-integer-param", "nan-factor", "infinite-factor"])
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


@pytest.mark.parametrize("args, x, y, nu, code, message", [
    (["signature"], "cos(t)", "sin(t)", ["-1e308", "sin(t)"], 0, ""),
    (["render", "-o", "svg"], "3*cos(t) - cos(3*t)", "-1e308", ["cos(t)", "sin(t)"], 1,
     "error: curve bounding box cannot be drawn: width 5.65"),
    (["render", "-o", "svg"], "1e308*cos(t)", "sin(t)", ["cos(t)", "sin(t)"], 1,
     "error: curve bounding box cannot be drawn: width inf"),
], ids=["signature-huge-frame", "render-flat-box-at-1e308", "render-box-overflows"])
def test_values_near_the_float_limit_warn_nothing(tmp_path, capsys, args, x, y, nu, code,
                                                  message):
    # Found by the contract fuzzer: the sign-change scan multiplied values
    # near 1e308, and the flat render box lost its padding to rounding.
    spec, svg = tmp_path / "spec.json", tmp_path / "out.svg"
    spec.write_text(json.dumps({"x": x, "y": y, "nu": nu, "domain": [0.0, 3.0]}))
    paths = {"svg": str(svg)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(args[:1] + ["--curve", str(spec)] + [paths.get(a, a) for a in args[1:]]) \
            == code
    captured = capsys.readouterr()
    assert captured.err.startswith(message)
    assert (captured.out != "") == (code == 0) and not svg.exists()


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


def test_failed_allocation_is_an_error_line(specs, capsys, monkeypatch):
    # numpy raises MemoryError for an array the address space cannot hold;
    # the patched linspace raises it for these sizes without allocating
    real = np.linspace

    def linspace(start, stop, num=50, **kwargs):
        if num >= 400_000_000:
            raise MemoryError(f"Unable to allocate an array with shape ({num},)")
        return real(start, stop, num, **kwargs)

    monkeypatch.setattr(np, "linspace", linspace)
    for argv in (["reconstruct", "--ell", "1", "--beta", "1", "--domain", "0:1",
                  "--steps", "400000000"],
                 ["curvature", "--curve", specs["g3"], "--samples", "400000000"]):
        assert run(argv) == 1
        assert capsys.readouterr() == ("", "error: out of memory\n")


_LAZY_MODULES = {"signatures", "transforms", "reconstruction"}
_CHILD_RUN = """
import contextlib, io, sys
from legendre_curves import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.startswith("legendre_curves.")))
"""


@pytest.mark.parametrize("argv, lazy_loaded", [
    (["check", "--curve", "@g3"], set()),
    (["curvature", "--curve", "@g3", "--samples", "5"], set()),
    (["normal-form", "--case", "diagonal-plain", "--n", "2"], set()),
    (["examples", "get", "circle"], set()),
    (["reconstruct", "--ell", "1", "--beta", "1", "--domain", "0:1", "--steps", "16"],
     {"reconstruction"}),
    (["signature", "--curve", "@g3"], {"signatures"}),
    (["equivalent", "--curve1", "@g3", "--curve2", "@gm3"], {"signatures"}),
    (["parity", "--curve", "@g3"], {"signatures"}),
    (["transform", "--curve", "@g3", "--affine", "1,0,0,2"], {"transforms"}),
    (["transform", "--curve", "@g3", "--diffeo", "x;y+0.1*x^2"], {"transforms", "signatures"}),
], ids=["check", "curvature", "normal-form", "examples-get", "reconstruct", "signature",
        "equivalent", "parity", "transform-affine", "transform-diffeo"])
def test_each_subcommand_loads_only_the_modules_it_runs(specs, argv, lazy_loaded):
    # a fresh interpreter: in this one, earlier tests have loaded every module
    argv = [specs[a[1:]] if a.startswith("@") else a for a in argv]
    package = os.path.dirname(os.path.dirname(legendre_curves.__file__))
    proc = subprocess.run([sys.executable, "-c", _CHILD_RUN, *argv], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=package))
    assert proc.returncode == 0, proc.stderr
    code, *modules = proc.stdout.split()
    assert code == "0"
    loaded = {m.split(".", 1)[1] for m in modules}
    assert loaded & _LAZY_MODULES == lazy_loaded
    assert {"cli", "curves", "gallery", "normal_forms"} <= loaded


# -- contract fuzzer -------------------------------------------------------------
#
# Gallery specs and expression flags mutated with a small alphabet of hostile
# tokens, run through every subcommand.  The contract: an exit code of 0, 1 or
# 2, no exception out of ``run`` (warnings are errors here), and the same
# argv prints the same bytes.

_TOKENS = ("nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "1e-310", "")
_BAD_JSON = (None, True, 0, 1e308, 5e-324, math.nan, math.inf, "", [], {}, ["t"],
             [0, 1, 2], {"n": "t"})
_SPLICES = ("{1}", "({0})*{1}", "{0} + {1}", "{1}*t", "({0})/{1}", "{0}{1}")
_SPEC_FIELDS = (("x",), ("y",), ("nu",), ("nu", 0), ("nu", 1), ("domain",), ("domain", 0),
                ("domain", 1), ("closed",), ("params",), ("params", "n"))
_BASE_SPECS = [gallery(name).spec for name in ("circle", "gamma_ab", "gamma_n", "gamma_m",
                                               "type_nm")]
_BASE_SPECS.append({"x": "n*cos(t) - cos(n*t)", "y": "n*sin(t) - sin(n*t)",
                    "nu": ["sin((n+1)/2*t)", "-cos((n+1)/2*t)"],
                    "domain": [0.0, 2 * math.pi], "closed": True, "params": {"n": 3}})


def _spliced(base: str):
    """A flag or field text: as it is, or with a token spliced in."""
    return st.one_of(st.just(base), st.builds(lambda how, token: how.format(base, token),
                                              st.sampled_from(_SPLICES),
                                              st.sampled_from(_TOKENS)))


def _number(base: str):
    """A number flag: as it is, or a token."""
    return st.one_of(st.just(base), st.sampled_from(_TOKENS))


def _set(spec: dict, path, value):
    *outer, last = path
    node = spec
    for key in outer:
        node = node.get(key) if isinstance(node, dict) else None
    if isinstance(node, dict) or (isinstance(node, list) and isinstance(last, int)
                                  and last < len(node)):
        if isinstance(value, tuple):  # a splice into the text that is there
            how, token = value
            value = how.format(node[last] if isinstance(node, list) else node.get(last, ""),
                               token)
        node[last] = copy.deepcopy(value)


@st.composite
def _spec_texts(draw):
    """The bytes of a spec file: JSON text of a gallery spec with a few
    fields mutated, or a broken file (bad JSON, bytes that are not UTF-8,
    an array nested deeper than the JSON decoder recurses)."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from([b"", b"{", b"null", b"[1]", b'{"x": "t"', b"NaN",
                                     b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000]))
    spec = json.loads(json.dumps(draw(st.sampled_from(_BASE_SPECS))))
    values = st.one_of(st.sampled_from(_BAD_JSON), st.sampled_from(_TOKENS),
                       st.tuples(st.sampled_from(_SPLICES), st.sampled_from(_TOKENS)))
    for path, value in draw(st.lists(st.tuples(st.sampled_from(_SPEC_FIELDS), values),
                                     max_size=3)):
        _set(spec, path, value)
    return json.dumps(spec).encode()


def _domain_flag():
    ends = st.sampled_from(_TOKENS + ("0", "1", "3.14"))
    return st.one_of(st.just("0:3.14"), st.builds("{}:{}".format, ends, ends))


@st.composite
def _argvs(draw):
    """argv of one subcommand; "SPEC1"/"SPEC2" name spec files, "OUT" the SVG."""
    command = draw(st.sampled_from(["curvature", "signature", "equivalent", "parity",
                                    "check", "render", "transform", "reconstruct",
                                    "normal-form", "examples"]))
    if command in ("curvature", "signature", "parity", "check"):
        argv = [command, "--curve", "SPEC1"]
        if command == "curvature":
            argv += ["--samples", draw(_number("17"))]
    elif command == "equivalent":
        argv = [command, "--curve1", "SPEC1", "--curve2", "SPEC2"]
    elif command == "render":
        argv = [command, "--curve", "SPEC1", "-o", "OUT", "--samples", draw(_number("64"))]
    elif command == "transform":
        argv = [command, "--curve", "SPEC1"] + draw(st.one_of(
            st.builds(lambda a: [f"--affine={a}"], _spliced("1.3,-0.4,0.7,0.9")),
            st.sampled_from([["--swap"], ["--negate-nu"], ["--negate-gamma"]]),
            st.builds(lambda e, d: ["--reparam", e, f"--domain={d}"],
                      _spliced("t + 0.3*sin(t)"), _domain_flag()),
            st.builds(lambda p: ["--diffeo", p], _spliced("x + 0.01*y^2;y"))))
    elif command == "reconstruct":
        argv = [command, "--ell", draw(_spliced("1 + 0.5*cos(t)")),
                "--beta", draw(_spliced("sin(t)")), f"--domain={draw(_domain_flag())}",
                "--steps", draw(_number("64"))]
    elif command == "normal-form":
        argv = [command, "--case", draw(st.sampled_from(["below-diagonal", "diagonal-plain",
                                                         "diagonal-perturbed",
                                                         "above-diagonal"]))]
        for flag in draw(st.lists(st.sampled_from(["--n", "--m", "--p"]), unique=True)):
            argv += [flag, draw(st.one_of(st.sampled_from("123"), st.sampled_from(_TOKENS)))]
    else:
        name = draw(st.sampled_from(["circle", "gamma_ab", "gamma_n", "gamma_m", "type_nm"]))
        argv = [command, "get", name]
        for key in draw(st.lists(st.sampled_from(["a", "b", "n", "m", "f"]), unique=True,
                                 max_size=2)):
            argv += ["--param", f"{key}={draw(_spliced('3'))}"]
    return argv


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue()


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_argvs(), _spec_texts(), _spec_texts())
def test_fuzzed_argv_keeps_the_cli_contract(tmp_path_factory, argv, spec1, spec2):
    root = tmp_path_factory.mktemp("fuzz")
    files = {"SPEC1": root / "spec1.json", "SPEC2": root / "spec2.json",
             "OUT": root / "out.svg"}
    files["SPEC1"].write_bytes(spec1)
    files["SPEC2"].write_bytes(spec2)
    argv = [str(files[a]) if a in files else a for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = _run_captured(argv)
        again, out_again = _run_captured(argv)
    assert code in (0, 1, 2), argv
    assert (again, out_again) == (code, out), argv
