"""Numerical evaluation of truncated series and uniform distances on grids.

One evaluator serves points, grids, strips, lines and contours: the sum runs
in term order (increasing exponent) in double-precision complex arithmetic,
for a scalar and for an array alike, so a point gets the bits it would get
inside any array.  Certified comparisons lean on tail majorants, not on
summation heroics.  Grid suprema approximate sup norms on compact boxes; grid
density is a verification parameter chosen by the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .core import SeriesSpec
from .scenarios import bohr_exponent, tau


@dataclass(frozen=True)
class EvalPoint:
    sigma: float
    t: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and math.isfinite(self.t)):
            raise ValueError(f"evaluation point must be finite: {self}")

    @property
    def s(self) -> complex:
        return complex(self.sigma, self.t)


@dataclass(frozen=True)
class GridBox:
    """Inclusive rectangular grid: (steps + 1) points per axis."""

    sigma_range: tuple[float, float]
    t_range: tuple[float, float]
    sigma_steps: int = 1
    t_steps: int = 1

    def __post_init__(self):
        if self.sigma_range[0] > self.sigma_range[1] or self.t_range[0] > self.t_range[1]:
            raise ValueError(f"box ranges must satisfy min <= max: {self}")
        if self.sigma_steps < 1 or self.t_steps < 1:
            raise ValueError(f"step counts must be >= 1: {self}")

    def sigma_points(self) -> np.ndarray:
        return np.linspace(self.sigma_range[0], self.sigma_range[1], self.sigma_steps + 1)

    def t_points(self) -> np.ndarray:
        return np.linspace(self.t_range[0], self.t_range[1], self.t_steps + 1)


def evaluate(
    spec: SeriesSpec, point: EvalPoint | complex | np.ndarray
) -> complex | np.ndarray:
    """sum a(n) exp(-lambda(n) s) at s = sigma + it, summed in term order.

    A point (an EvalPoint or a complex number) gives a complex; an array of
    points gives an array of values of the same shape.
    """
    s = np.asarray(point.s if isinstance(point, EvalPoint) else point, dtype=complex)
    out = np.zeros(s.shape, dtype=complex)
    buf = np.empty(s.shape, dtype=complex)
    term = np.empty(s.shape, dtype=complex)
    for lam, coeff in zip(spec.numeric_exponents(), spec.coeffs()):
        np.multiply(s, -lam, out=buf)
        np.exp(buf, out=buf)
        # not in place: NumPy multiplies a one-element array in place by
        # another loop than a longer one, and on CPUs where the vector loop
        # fuses multiply-adds the two round differently
        np.multiply(buf, coeff, out=term)
        out += term
    return complex(out) if out.ndim == 0 else out


def evaluate_grid(spec: SeriesSpec, box: GridBox) -> np.ndarray:
    """Series values on the box grid, shape (sigma_steps+1, t_steps+1)."""
    return evaluate(spec, box.sigma_points()[:, None] + 1j * box.t_points()[None, :])


def shift_series(spec: SeriesSpec, tau_shift: float) -> SeriesSpec:
    """The vertical shift s -> s + i tau as a coefficient twist.

    evaluate(shift_series(spec, tau), s) == evaluate(spec, s + i tau) up to
    rounding: coefficient n picks up the phase exp(-i lambda(n) tau).
    """
    lams = spec.numeric_exponents()
    coeffs = [
        term.coeff * complex(math.cos(lam * tau_shift), -math.sin(lam * tau_shift))
        for lam, term in zip(lams, spec.terms)
    ]
    return spec.with_coeffs(coeffs)


def uniform_distance(a: SeriesSpec, b: SeriesSpec, box: GridBox) -> float:
    """max |a(s) - b(s)| over the box grid."""
    return float(np.max(np.abs(evaluate_grid(a, box) - evaluate_grid(b, box))))


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
    """Pure rational check of the counterexample cancellation at term n, shift m."""
    q = bohr_exponent(n) * tau(m).pi_multiple
    residual = (q % 2) - 1
    return ShiftPhase(residual == 0, residual)
