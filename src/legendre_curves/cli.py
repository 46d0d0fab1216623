"""Command-line front end.

Subcommands cover the whole toolkit: curvature sampling, signatures and the
equivalence verdict, reconstruction from a prescribed curvature pair, the
transformation laws, normal forms, the built-in gallery, SVG rendering and
the tangency/closedness check.  CSV and JSON go to stdout, diagnostics to
stderr.  Exit codes: 0 success, 1 domain error, memory exhausted or input
nested too deeply, 2 usage or syntax error.
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
from .errors import _TOO_DEEP, ExprSyntaxError, LegendreError
from .gallery import GALLERY_NAMES, gallery
from .normal_forms import GERM_CASES, GermData, local_normal_form

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
    point of both kinds gets both markers.  A side of the bounding box at
    most 1e-12 times the largest |coordinate| on its axis is flat: it is
    padded to the other side's length, or to 1 when both are flat.  A
    curve point that is not finite raises ``LegendreError`` naming its t,
    and so does a box whose width or height overflows or is lost to
    rounding (a flat box padded at coordinates near the float limit).
    """
    ts = np.linspace(curve.domain[0], curve.domain[1], cfg.samples)
    with np.errstate(over="ignore", invalid="ignore"):
        pts = curve.gamma(ts)
    _require_finite(ts, "curve point", pts)
    xmin, ymin = np.min(pts, axis=0)
    xmax, ymax = np.max(pts, axis=0)
    with np.errstate(over="ignore"):  # an infinite extent is refused below
        xflat = xmax - xmin <= 1e-12 * max(abs(xmin), abs(xmax))
        yflat = ymax - ymin <= 1e-12 * max(abs(ymin), abs(ymax))
        if xflat and yflat:
            xmin, xmax = xmin - 0.5, xmax + 0.5
            ymin, ymax = ymin - 0.5, ymax + 0.5
        elif xflat:
            pad = 0.5 * (ymax - ymin)
            xmin, xmax = xmin - pad, xmax + pad
        elif yflat:
            pad = 0.5 * (xmax - xmin)
            ymin, ymax = ymin - pad, ymax + pad
        width, height = xmax - xmin, ymax - ymin
    if not (0.0 < width < np.inf and 0.0 < height < np.inf):
        raise LegendreError(f"curve bounding box cannot be drawn: width {float(width)!r}, "
                            f"height {float(height)!r}")
    usable_w = cfg.width * (1.0 - 2.0 * _MARGIN)
    usable_h = cfg.height * (1.0 - 2.0 * _MARGIN)
    scale = min(usable_w / width, usable_h / height)
    cx, cy = 0.5 * xmin + 0.5 * xmax, 0.5 * ymin + 0.5 * ymax

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


def _join_values(parser: argparse.ArgumentParser, argv) -> list:
    """``argv`` with each option that takes a value, in any subcommand,
    joined to the token after it (``--opt=value``, ``-ovalue``), so that
    argparse reads that token as the value even when it begins with '-'."""
    parsers, options = [parser], set()
    for p in parsers:  # grows by the subcommands' parsers as it goes
        for action in p._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers += action.choices.values()
            elif action.nargs != 0:
                options.update(action.option_strings)
    joined, tokens = [], iter(argv)
    for token in tokens:
        value = next(tokens, None) if token in options else None
        joined.append(token if value is None
                      else token + ("=" if token.startswith("--") else "") + value)
    return joined


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
    n.add_argument("--case", required=True, choices=GERM_CASES)
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
    from .transforms import (AffineMap, DiffeoSpec, negate, pushforward_affine,
                             pushforward_diffeo_curve, pushforward_swap, reparametrize)
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
        args = parser.parse_args(_join_values(parser, argv))
        if args.command == "transform":
            if args.domain is not None and args.reparam is None:
                parser.error("transform: --domain applies only with --reparam")
            if "" in (args.affine, args.reparam, args.diffeo):
                parser.error("transform: --affine, --reparam and --diffeo need a value")
    except SystemExit as exit_:
        return int(exit_.code or 0)
    try:
        if args.command in ("signature", "equivalent", "parity", "render"):
            from .signatures import decide_equivalence, dump_signature, parity_check, signature
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
            from .reconstruction import reconstruct
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
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except RecursionError:
        print(f"error: {_TOO_DEEP}", file=sys.stderr)
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
