"""Plane curves with a unit normal frame: curvature, reconstruction,
transformation laws, zero signatures and equivalence decisions."""

from .curves import (CurvaturePair, LegendreCurve, check_closed,
                     check_legendre, derive_nu, dump_curve, load_curve)
from .errors import (CurveError, DegenerateCurveError, ExprSyntaxError,
                     GridMismatchError, JetDomainError, JetOrderError,
                     LegendreError, ReconstructionError, RootScanError,
                     SignatureError, TransformError)
from .exprs import ScalarFun, eval_jet, parse_expr, pretty_print, substitute_params
from .gallery import (GALLERY_NAMES, GalleryEntry, check_ab_assumption,
                      default_gallery, gallery)
from .jets import DEFAULT_ORDER
from .normal_forms import (GERM_CASES, GermData, GermSignature, ZERO_FUNCTION,
                           germ_signature, germ_signature_of_curve,
                           local_normal_form, type_nm_curvature, type_nm_curve)
from .reconstruction import (AlignResult, Congruence, SampledCurve,
                             align_congruence, reconstruct, sample_curve,
                             sampled_curvature)
from .signatures import (EquivalenceVerdict, Signature, ZeroPoint,
                         contact_order, decide_equivalence, dump_signature,
                         find_zeros, is_immersion, parity_check, signature,
                         signature_from_dict, signature_to_dict)
from .transforms import (AffineMap, DiffeoSpec, TransformResult, negate,
                         pushforward_affine, pushforward_diffeo_curve,
                         pushforward_swap, reparametrize)

__version__ = "0.1.0"

__all__ = [
    "AffineMap", "AlignResult", "Congruence", "CurvaturePair", "CurveError",
    "DEFAULT_ORDER", "DegenerateCurveError", "DiffeoSpec",
    "EquivalenceVerdict", "ExprSyntaxError", "GALLERY_NAMES", "GERM_CASES",
    "GalleryEntry", "GermData", "GermSignature", "GridMismatchError",
    "JetDomainError", "JetOrderError", "LegendreCurve", "LegendreError",
    "ReconstructionError", "RootScanError", "SampledCurve", "ScalarFun",
    "Signature", "SignatureError", "TransformError", "TransformResult",
    "ZERO_FUNCTION", "ZeroPoint", "align_congruence", "check_ab_assumption",
    "check_closed", "check_legendre", "contact_order", "decide_equivalence",
    "default_gallery", "derive_nu", "dump_curve", "dump_signature",
    "eval_jet", "find_zeros", "gallery", "germ_signature",
    "germ_signature_of_curve", "is_immersion", "load_curve",
    "local_normal_form", "parity_check", "parse_expr", "pretty_print",
    "pushforward_affine", "pushforward_diffeo_curve",
    "pushforward_swap", "reconstruct", "reparametrize", "sample_curve",
    "sampled_curvature", "signature", "signature_from_dict",
    "signature_to_dict", "substitute_params", "type_nm_curvature",
    "type_nm_curve",
]
