"""Exception types shared across the package.

Term positions reported by these errors are 1-based (term n of the series),
matching the usual indexing of Dirichlet series coefficients.
"""

import math
import operator


class SeriesError(Exception):
    """Base class for every error raised by this package."""


class UnknownSymbol(SeriesError):
    def __init__(self, name: str):
        super().__init__(f"exponent references undeclared symbol {name!r}")
        self.name = name


class NonIncreasingExponents(SeriesError):
    def __init__(self, index: int, message: str = ""):
        super().__init__(message or f"exponent value does not increase at term {index}")
        self.index = index


class DuplicateExponent(SeriesError):
    def __init__(self, index: int):
        super().__init__(f"term {index} repeats an earlier exponent vector")
        self.index = index


class NonpositiveSigma(SeriesError):
    def __init__(self, sigma: float):
        super().__init__(f"tail bound requires sigma > 0, got {sigma}")
        self.sigma = sigma


class DimensionMismatch(SeriesError):
    pass


class ModulusMismatch(SeriesError):
    def __init__(self, term: int, a: complex, b: complex):
        super().__init__(
            f"coefficient moduli differ at term {term}: |{a}| vs |{b}|; "
            "the series cannot be equivalent"
        )
        self.term = term


class SupportMismatch(SeriesError):
    def __init__(self, term: int):
        super().__init__(
            f"term {term} has a zero coefficient on one side only; "
            "equivalent series vanish at exactly the same terms"
        )
        self.term = term


class PrecisionLimit(SeriesError):
    """A verdict needs more precision than double-precision phases carry."""


class BadRange(SeriesError, ValueError):
    """A range, point or step count that does not describe a valid region."""


def check_tol(tol: float) -> None:
    # written so that a NaN tol fails too
    if not 0 < tol < math.inf:
        raise BadRange(f"need a finite tol > 0, got {tol}")


def check_range(lo: float, hi: float, name: str) -> None:
    """BadRange naming `name` unless lo < hi are finite with a finite span hi - lo."""
    if not 0 < hi - lo < math.inf:  # a NaN or infinite end gives no such span
        raise BadRange(f"need finite ends lo < hi and a finite span hi - lo, got {name}")


def check_integral(value, name: str, error: type[SeriesError] = BadRange) -> None:
    try:
        operator.index(value)  # NumPy ints pass, floats do not
    except TypeError:
        raise error(f"need an integral {name}, got {value!r}") from None


class EmptyCloud(SeriesError):
    pass


class BadIndex(SeriesError):
    pass


class BoundaryTooClose(SeriesError):
    """A boundary sample of the winding contour is within the safety margin of a zero."""

    def __init__(self, point: complex, modulus: float, margin: float):
        super().__init__(
            f"|f(s)-v| = {modulus:.3e} <= margin {margin:.3e} at boundary point {point}"
        )
        self.point = point
        self.modulus = modulus
        self.margin = margin


class NonconvergentSubdivision(SeriesError):
    """An adaptive search hit its cap without settling (contour refinement,
    the winding defect, or the dominance bound of sigma_star)."""


class DegenerateTarget(SeriesError):
    """f - v vanishes identically; winding numbers and zero-free abscissae are undefined."""


class ParseError(SeriesError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = f" (line {line}, column {column})" if line is not None else ""
        super().__init__(message + where)
        self.line = line
        self.column = column


class ValidationError(SeriesError):
    pass
