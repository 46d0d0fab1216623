"""Plane curves with a unit normal frame: curvature, reconstruction,
transformation laws, zero signatures and equivalence decisions."""

from importlib import import_module

from .curves import (CurvaturePair, LegendreCurve, check_closed,
                     check_legendre, derive_nu, dump_curve, load_curve)
from .errors import (CurveError, DegenerateCurveError, ExprSyntaxError,
                     GridMismatchError, JetDomainError, LegendreError,
                     ReconstructionError, RootScanError, SignatureError,
                     TransformError)
from .exprs import ScalarFun, eval_jet, parse_expr, pretty_print, substitute_params
from .gallery import (GALLERY_NAMES, GalleryEntry, check_ab_assumption,
                      default_gallery, gallery)
from .jets import DEFAULT_ORDER
from .normal_forms import (GERM_CASES, GermData, GermSignature, ZERO_FUNCTION,
                           germ_signature, germ_signature_of_curve,
                           local_normal_form, type_nm_curvature, type_nm_curve)

__version__ = "0.1.0"

__all__ = [
    "AffineMap", "AlignResult", "Congruence", "CurvaturePair", "CurveError",
    "DEFAULT_ORDER", "DegenerateCurveError", "DiffeoSpec",
    "EquivalenceVerdict", "ExprSyntaxError", "GALLERY_NAMES", "GERM_CASES",
    "GalleryEntry", "GermData", "GermSignature", "GridMismatchError",
    "JetDomainError", "LegendreCurve", "LegendreError", "ReconstructionError",
    "RootScanError", "SampledCurve", "ScalarFun", "Signature",
    "SignatureError", "TransformError", "TransformResult", "ZERO_FUNCTION",
    "ZeroPoint", "align_congruence", "check_ab_assumption",
    "check_closed", "check_legendre", "decide_equivalence",
    "default_gallery", "derive_nu", "dump_curve", "dump_signature",
    "eval_jet", "find_zeros", "gallery", "germ_signature",
    "germ_signature_of_curve", "is_immersion", "load_curve",
    "local_normal_form", "parity_check", "parse_expr", "pretty_print",
    "pushforward_affine", "pushforward_diffeo_curve",
    "pushforward_swap", "reconstruct", "reparametrize", "sample_curve",
    "signature", "signature_from_dict", "signature_to_dict",
    "substitute_params", "type_nm_curvature", "type_nm_curve",
]

_LAZY = {name: module for module, names in (
    ("reconstruction", "AlignResult Congruence SampledCurve align_congruence reconstruct"
     " sample_curve"),
    ("signatures", "EquivalenceVerdict Signature ZeroPoint decide_equivalence dump_signature"
     " find_zeros is_immersion parity_check signature signature_from_dict signature_to_dict"),
    ("transforms", "AffineMap DiffeoSpec TransformResult negate pushforward_affine"
     " pushforward_diffeo_curve pushforward_swap reparametrize"),
) for name in names.split()}


def __getattr__(name):
    """The names of three modules, resolved on first use (PEP 562), so `legcurve` loads them
    only for the subcommands that run them.  Each access forwards to the module and nothing is
    cached here, so a rebinding there (a tracer's wrapper, a test's patch) shows through."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
