"""Exception hierarchy for the package.

Everything raised intentionally derives from :class:`LegendreError`, so the
CLI can map domain failures to exit code 1 and syntax problems to exit
code 2.
"""

#: The message of input that nests too deeply for a recursive reader (the
#: JSON decoder, the expression parser, the AST printer), in the library
#: and in ``legcurve``.
_TOO_DEEP = "input nests too deeply"


class LegendreError(Exception):
    """Base class for all errors raised by this package."""


class JetDomainError(LegendreError):
    """Jet arithmetic left the domain of an operation (division, sqrt)."""


class ExprSyntaxError(LegendreError):
    """Malformed expression text. Carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class CurveError(LegendreError):
    """Invalid curve data: frame missing at a singular point, bad spec file."""


class TransformError(LegendreError):
    """A transformation hypothesis fails (t' vanishing, singular Jacobian)."""


class ReconstructionError(LegendreError):
    """Invalid quadrature input: too few steps, an odd step count, or a
    curvature or integral that is not finite."""


class GridMismatchError(LegendreError):
    """Two sampled curves do not share a parameter grid."""


class RootScanError(LegendreError):
    """Root isolation failed or the zero set looks non-finite."""


class SignatureError(LegendreError):
    """Signature construction or comparison is not possible."""


class DegenerateCurveError(SignatureError):
    """The curve is constant (beta identically zero); no signature exists."""
