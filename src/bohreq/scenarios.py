"""Canonical series constructions.

Bohr's counterexample series has exponents 2n-1 + 1/(2(2n-1)): every exponent
is a rational multiple of a single symbol, so the expansion matrix is a single
rational column and the series admits no integral basis.  Shifting vertically
by tau_m = 2pi * prod_{n<=m}(2n-1) negates the first m coefficients exactly,
which drives the negated series into the closure of the shift class without
ever reaching it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .core import (
    UNIT_SYMBOL,
    ExponentVector,
    SeriesSpec,
    SymbolTable,
    TailMajorant,
)
from .errors import BadIndex, PrecisionLimit, check_integral


def bohr_exponent(n: int) -> Fraction:
    """Exact exponent (2(2n-1)^2 + 1) / (2(2n-1)) of the counterexample series."""
    check_integral(n, "term index", BadIndex)
    if n < 1:
        raise BadIndex(f"term index must be >= 1, got {n}")
    odd = 2 * n - 1
    return Fraction(2 * odd * odd + 1, 2 * odd)


def bohr_example(n_terms: int) -> SeriesSpec:
    """First n_terms of the counterexample series, all coefficients 1.

    Declared abscissa 0 (the sharp value: unit coefficients, exponents ~2n)
    and a geometric tail majorant with gap 5/3, the exact minimum of
    lambda(n+1) - lambda(n) = 2 - 1/(4n^2 - 1).
    """
    check_integral(n_terms, "number of terms", BadIndex)
    if n_terms < 1:
        raise BadIndex(f"need at least one term, got {n_terms}")
    symbols = SymbolTable([(UNIT_SYMBOL, 1.0)])
    terms = [
        (ExponentVector({UNIT_SYMBOL: bohr_exponent(n)}), 1.0 + 0.0j)
        for n in range(1, n_terms + 1)
    ]
    tail = TailMajorant(
        lambda_next=ExponentVector({UNIT_SYMBOL: bohr_exponent(n_terms + 1)}),
        coeff_bound=1.0,
        min_gap=float(Fraction(5, 3)),
    )
    return SeriesSpec(symbols, terms, abscissa=0.0, tail=tail)


class TauValue(NamedTuple):
    """A shift time tau_m = 2pi * prod_{n<=m}(2n-1) as the double `value`."""

    value: float


def _odd_product(m: int) -> int:
    """The exact integer prod_{n<=m}(2n-1), for a shift index m >= 1."""
    check_integral(m, "shift index", BadIndex)
    if m < 1:
        raise BadIndex(f"shift index must be >= 1, got {m}")
    return math.prod(range(1, 2 * m, 2))


def tau(m: int) -> TauValue:
    """Shift time 2pi * prod_{n<=m}(2n-1) for the counterexample series.

    PrecisionLimit from m = 151, where it is beyond a double;
    `shift_phase_exact` reads the exact product at any m.
    """
    try:
        value = 2.0 * math.pi * _odd_product(m)
    except OverflowError:
        raise PrecisionLimit(f"the shift time tau_m is beyond a double at m = {m}") from None
    return TauValue(value)


class ShiftPhase(NamedTuple):
    """Exact phase bookkeeping for the counterexample shifts.

    `is_minus_one` records whether lambda(n) tau_m / pi is an odd integer, in
    which case the shift by tau_m negates coefficient n exactly.  `residual`
    is the smallest-magnitude rational rho with lambda(n) tau_m / pi - rho an
    odd integer (zero exactly when is_minus_one).
    """

    is_minus_one: bool
    residual: Fraction


def shift_phase_exact(n: int, m: int) -> ShiftPhase:
    """Pure rational check of the counterexample cancellation at term n, shift m, at any m."""
    q = bohr_exponent(n) * 2 * _odd_product(m)
    residual = (q % 2) - 1
    return ShiftPhase(residual == 0, residual)


def negate(spec: SeriesSpec) -> SeriesSpec:
    """All coefficients negated."""
    return spec.with_coeffs([-t.coeff for t in spec.terms])


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def ordinary_series(coeffs: Sequence[tuple[int, complex]]) -> SeriesSpec:
    """Ordinary Dirichlet series sum a(n) n^{-s} over prime-logarithm symbols.

    The exponent of term n is sum e_p log(p) from n = prod p^e_p, entered
    exactly, so the expansion matrix over the prime-log basis is integral.
    Terms are sorted by n; n = 1 carries the empty exponent.
    """
    seen: set[int] = set()
    for n, _ in coeffs:
        if not isinstance(n, int) or n < 1:
            raise BadIndex(f"term index must be an integer >= 1, got {n!r}")
        if n in seen:
            raise BadIndex(f"term index {n} repeated")
        seen.add(n)
    factored = {n: _factorize(n) for n, _ in coeffs}
    primes = sorted({p for fac in factored.values() for p in fac})
    symbols = SymbolTable([(f"L{p}", math.log(p)) for p in primes])
    terms = []
    for n, a in sorted(coeffs, key=lambda item: item[0]):
        exponent = ExponentVector({f"L{p}": e for p, e in factored[n].items()})
        terms.append((exponent, a))
    return SeriesSpec(symbols, terms, abscissa=float("-inf"))
