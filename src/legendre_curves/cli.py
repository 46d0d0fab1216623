"""Command-line front end.

Subcommands cover the whole toolkit: curvature sampling, signatures and the
equivalence verdict, reconstruction from a prescribed curvature pair, the
transformation laws, normal forms, the built-in gallery, SVG rendering and
the tangency/closedness check.  CSV and JSON go to stdout, diagnostics to
stderr.  Exit codes: 0 success, 1 domain error, 2 usage or syntax error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .curves import (_require_finite, check_closed, check_legendre, dump_curve,
                     load_curve)
from .errors import ExprSyntaxError, LegendreError
from .gallery import GALLERY_NAMES, gallery
from .normal_forms import GermData, local_normal_form
from .reconstruction import reconstruct
from .signatures import (decide_equivalence, dump_signature, parity_check,
                         signature)
from .transforms import (AffineMap, DiffeoSpec, negate, pushforward_affine,
                         pushforward_diffeo_curve, pushforward_swap, reparametrize)

_FMT = "%.17g"
_MARGIN = 0.08  # share of the width and height left blank on each side


@dataclass
class RenderConfig:
    width: int = 800
    height: int = 600
    samples: int = 1024

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("width and height must be positive")
        if self.samples < 2:
            raise ValueError("samples must be at least 2")


def render_svg(curve, sig, cfg: RenderConfig) -> str:
    """Deterministic SVG: the curve as a path, zeros of the curvature marked.

    Singular points are filled circles, inflection points open circles; a
    point of both kinds gets both markers.  A degenerate bounding box falls
    back to a unit box around the curve's midpoint.  A curve point that
    is not finite raises ``LegendreError`` naming its t.
    """
    ts = np.linspace(curve.domain[0], curve.domain[1], cfg.samples)
    with np.errstate(over="ignore", invalid="ignore"):
        pts = curve.gamma(ts)
    _require_finite(ts, "curve point", pts)
    xmin, ymin = np.min(pts, axis=0)
    xmax, ymax = np.max(pts, axis=0)
    if xmax - xmin < 1e-12 and ymax - ymin < 1e-12:
        xmin, xmax = xmin - 0.5, xmax + 0.5
        ymin, ymax = ymin - 0.5, ymax + 0.5
    elif xmax - xmin < 1e-12:
        pad = 0.5 * (ymax - ymin)
        xmin, xmax = xmin - pad, xmax + pad
    elif ymax - ymin < 1e-12:
        pad = 0.5 * (xmax - xmin)
        ymin, ymax = ymin - pad, ymax + pad
    usable_w = cfg.width * (1.0 - 2.0 * _MARGIN)
    usable_h = cfg.height * (1.0 - 2.0 * _MARGIN)
    scale = min(usable_w / (xmax - xmin), usable_h / (ymax - ymin))
    cx, cy = 0.5 * (xmin + xmax), 0.5 * (ymin + ymax)

    def to_px(p):
        return (0.5 * cfg.width + (p[0] - cx) * scale,
                0.5 * cfg.height - (p[1] - cy) * scale)

    d_parts = []
    for i, p in enumerate(pts):
        px, py = to_px(p)
        d_parts.append(("M" if i == 0 else "L") + f" {_FMT % px} {_FMT % py}")
    if curve.closed:
        d_parts.append("Z")
    path = " ".join(d_parts)

    markers = []
    if sig is not None:
        for z in sig.zeros:
            px, py = to_px(curve.gamma(np.array([z.t]))[0])
            if z.kind in ("singular", "both"):
                markers.append(f'<circle cx="{_FMT % px}" cy="{_FMT % py}" r="4" '
                               f'fill="black"/>')
            if z.kind in ("inflection", "both"):
                markers.append(f'<circle cx="{_FMT % px}" cy="{_FMT % py}" r="6" '
                               f'fill="none" stroke="black" stroke-width="1.5"/>')
    body = "\n  ".join(
        [f'<path d="{path}" fill="none" stroke="black" stroke-width="1.5"/>'] + markers)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{cfg.width}" '
            f'height="{cfg.height}" viewBox="0 0 {cfg.width} {cfg.height}">\n'
            f'  {body}\n</svg>\n')


# -- argument plumbing ---------------------------------------------------------


def _parse_domain(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("domain must be 'a:b'")
    return float(parts[0]), float(parts[1])


def _int_from(lo: int):
    """Argument type: an integer >= lo; anything else is a usage error."""
    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="legcurve",
                                description="Toolkit for plane curves with a unit "
                                            "normal frame")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("curvature", help="sample (ell, beta) along a curve")
    c.add_argument("--curve", required=True)
    c.add_argument("--samples", type=_int_from(1), default=1000)

    s = sub.add_parser("signature", help="zero signature of a curve")
    s.add_argument("--curve", required=True)

    e = sub.add_parser("equivalent", help="decide curvature equivalence")
    e.add_argument("--curve1", required=True)
    e.add_argument("--curve2", required=True)

    r = sub.add_parser("reconstruct", help="curve with prescribed curvature")
    r.add_argument("--ell", required=True)
    r.add_argument("--beta", required=True)
    r.add_argument("--domain", type=_parse_domain, required=True)
    r.add_argument("--steps", type=int, default=8192)

    t = sub.add_parser("transform", help="apply a transformation law")
    t.add_argument("--curve", required=True)
    group = t.add_mutually_exclusive_group(required=True)
    group.add_argument("--affine", metavar="a11,a12,a21,a22")
    group.add_argument("--swap", action="store_true")
    group.add_argument("--negate-nu", action="store_true")
    group.add_argument("--negate-gamma", action="store_true")
    group.add_argument("--reparam", metavar="EXPR")
    group.add_argument("--diffeo", metavar="P1;P2")
    t.add_argument("--domain", type=_parse_domain,
                   help="new parameter domain (with --reparam)")

    n = sub.add_parser("normal-form", help="local normal form representative")
    n.add_argument("--case", required=True,
                   choices=["below-diagonal", "diagonal-plain",
                            "diagonal-perturbed", "above-diagonal"])
    n.add_argument("--n", type=_int_from(1), required=True)
    n.add_argument("--m", type=_int_from(1))
    n.add_argument("--p", type=_int_from(1))

    pa = sub.add_parser("parity", help="odd-contact-order parity of a closed curve")
    pa.add_argument("--curve", required=True)

    ex = sub.add_parser("examples", help="built-in gallery")
    exsub = ex.add_subparsers(dest="examples_command", required=True)
    exsub.add_parser("list")
    g = exsub.add_parser("get")
    g.add_argument("name")
    g.add_argument("--param", action="append", default=[], metavar="K=V")

    re_ = sub.add_parser("render", help="render a curve to SVG")
    re_.add_argument("--curve", required=True)
    re_.add_argument("-o", "--output", required=True)
    re_.add_argument("--width", type=_int_from(1), default=800)
    re_.add_argument("--height", type=_int_from(1), default=600)
    re_.add_argument("--samples", type=_int_from(2), default=1024)

    ch = sub.add_parser("check", help="tangency and closedness report")
    ch.add_argument("--curve", required=True)
    return p


def _emit_curvature(curve, samples: int) -> None:
    ts = np.linspace(curve.domain[0], curve.domain[1], samples)
    with np.errstate(over="ignore", invalid="ignore"):
        ev, bv = (j[0] for j in curve.curvature_pair().jets(ts, 0))
    _require_finite(ts, "curvature", ev, bv)
    print("t,ell,beta")
    for t, e, b in zip(ts, ev, bv):
        print(f"{_FMT % t},{_FMT % e},{_FMT % b}")


def _cmd_transform(args) -> None:
    curve = load_curve(args.curve)
    if args.affine:
        result = pushforward_affine(curve, AffineMap.from_string(args.affine))
    elif args.swap:
        result = pushforward_swap(curve)
    elif args.negate_nu:
        result = negate(curve, "nu")
    elif args.negate_gamma:
        result = negate(curve, "gamma")
    elif args.reparam:
        if args.domain is None:
            raise LegendreError("--reparam needs --domain c:d")
        result = reparametrize(curve, args.reparam, args.domain)
    else:
        parts = args.diffeo.split(";")
        if len(parts) != 2:
            raise LegendreError("--diffeo needs two expressions 'P1;P2'")
        result = pushforward_diffeo_curve(curve, DiffeoSpec.from_texts(*parts))
    print(dump_curve(result.curve))


def _cmd_examples(args) -> None:
    if args.examples_command == "list":
        for name in GALLERY_NAMES:
            print(name)
        return
    params = {}
    for item in args.param:
        k, _, v = item.partition("=")
        if not _:
            raise LegendreError(f"bad --param {item!r}; expected K=V")
        try:
            params[k] = float(v)
        except ValueError:
            params[k] = v
    entry = gallery(args.name, params)
    print(json.dumps(entry.spec, indent=2))


def run(argv) -> int:
    """Entry point used by tests: run a subcommand, return an exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return int(exit_.code or 0)
    try:
        if args.command == "curvature":
            _emit_curvature(load_curve(args.curve), args.samples)
        elif args.command == "signature":
            print(dump_signature(signature(load_curve(args.curve))))
        elif args.command == "equivalent":
            sig1 = signature(load_curve(args.curve1))
            sig2 = signature(load_curve(args.curve2))
            verdict = decide_equivalence(sig1, sig2)
            print(json.dumps({"equivalent": verdict.equivalent,
                              "matching": verdict.matching,
                              "reason": verdict.reason}, indent=2))
        elif args.command == "reconstruct":
            sc = reconstruct(args.ell, args.beta, args.domain, steps=args.steps)
            sys.stdout.write(sc.to_csv())
        elif args.command == "transform":
            _cmd_transform(args)
        elif args.command == "normal-form":
            germ = GermData(case=args.case, n=args.n,
                            m=(args.m if args.m is not None else args.n),
                            p=args.p)
            print(dump_curve(local_normal_form(germ)))
        elif args.command == "parity":
            rep = parity_check(signature(load_curve(args.curve)))
            print(json.dumps({"ell_odd_count": rep.ell_odd_count,
                              "beta_odd_count": rep.beta_odd_count,
                              "ok": rep.ok}, indent=2))
        elif args.command == "examples":
            _cmd_examples(args)
        elif args.command == "render":
            curve = load_curve(args.curve)
            try:
                sig = signature(curve)
            except LegendreError:
                sig = None
            cfg = RenderConfig(width=args.width, height=args.height,
                               samples=args.samples)
            svg = render_svg(curve, sig, cfg)
            try:
                with open(args.output, "w") as fh:
                    fh.write(svg)
            except OSError as err:
                raise LegendreError(f"cannot write {args.output}: {err.strerror}") from None
        elif args.command == "check":
            curve = load_curve(args.curve)
            leg = check_legendre(curve)
            clo = check_closed(curve)
            print(json.dumps({
                "legendre": {"ok": leg.ok, "max_defect": leg.max_defect,
                             "max_norm_defect": leg.max_norm_defect},
                "closed": {"closed_order": clo.closed_order,
                           "checked_order": clo.checked_order,
                           "description": clo.describe()},
            }, indent=2))
    except ExprSyntaxError as err:
        print(f"syntax error: {err}", file=sys.stderr)
        return 2
    except LegendreError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    """Console entry point.  A reader that closes stdout early (``| head``)
    ends the run with exit code 1 and no traceback."""
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit; point it at devnull so that
        # flush cannot fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
