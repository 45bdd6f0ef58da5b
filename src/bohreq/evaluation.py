"""Numerical evaluation of truncated series and uniform distances on grids.

One evaluator serves points, grids, strips, lines and contours: the sum runs
in term order (increasing exponent) in double-precision complex arithmetic,
for a scalar and for an array alike, so a point gets the bits it would get
inside any array.  The terms follow the series' product plan
(`SeriesSpec.product_plan`): a fresh term is one complex `exp`, and a term
whose exponent is exactly the sum of two earlier ones is their product.  The
points are summed in blocks of `BLOCK`, so the stored terms of a block stay
in cache and no scratch buffer grows with the number of points.  Overflow is
decided here: a value that is not a finite double raises PrecisionLimit.
Certified comparisons lean on tail majorants, not on summation heroics.  Grid
suprema approximate sup norms on compact boxes; grid density is a
verification parameter chosen by the caller.

Importing this module (the base of the float layer) pins glibc's mmap and
trim thresholds (`MMAP_THRESHOLD`, `TRIM_THRESHOLD`), so the resident set of
a process that samples again and again follows what its live arrays need.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .core import SeriesSpec
from .errors import BadRange, PrecisionLimit
from .scenarios import bohr_exponent, tau


#: Allocations of at least this many bytes get a mapping of their own, given
#: back to the system when freed.  glibc starts at 128 KiB but raises the
#: threshold to the size of each mapping freed, up to 32 MiB; after that,
#: arrays of 1e6 points are cut from the brk heap, whose freed space stays
#: resident, so repeated sampling grows the resident set by 16 MB steps at
#: points that depend on the order of frees.  Pinned here, an array of 1e6
#: points holds pages for its lifetime only, while the per-block scratch of
#: `plan_sum` (at most a few MiB) stays on the heap and is reused.
MMAP_THRESHOLD = 4 << 20
#: Free space at the top of the heap kept for reuse, twice the mmap threshold
#: as glibc's own adjustment sets it, so scratch freed between blocks is not
#: given back and faulted in again.
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # from <malloc.h>


def _pin_mmap_threshold() -> None:
    """Fix glibc's mmap and trim thresholds where the C library has `mallopt`."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library by name
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


_pin_mmap_threshold()


@dataclass(frozen=True)
class EvalPoint:
    sigma: float
    t: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and math.isfinite(self.t)):
            raise BadRange(f"evaluation point must be finite: {self}")

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
        (s0, s1), (t0, t1) = self.sigma_range, self.t_range
        if not (s0 <= s1 and t0 <= t1):  # also refuses a NaN end
            raise BadRange(f"box ranges must satisfy min <= max: {self}")
        if self.sigma_steps < 1 or self.t_steps < 1:
            raise BadRange(f"step counts must be >= 1: {self}")

    def sigma_points(self) -> np.ndarray:
        return np.linspace(self.sigma_range[0], self.sigma_range[1], self.sigma_steps + 1)

    def t_points(self) -> np.ndarray:
        return np.linspace(self.t_range[0], self.t_range[1], self.t_steps + 1)


#: Points per block: every term alive at once keeps one block of this many
#: complex values, 128 KiB, so a block's working set stays in cache.
BLOCK = 8192


def plan_sum(
    spec: SeriesSpec, size: int, fresh: Callable[[slice, np.ndarray], None]
) -> np.ndarray:
    """sum_n c_n term_n at `size` points, one block of points at a time.

    The terms follow `spec.product_plan()`: `fresh(block, rows)`, called
    once per block in block order, writes fresh term `plan.fresh[i]` at the
    points of `block` into `rows[i]`; then, in term order, a child term is
    the product of the two rows it is planned from, and each term adds
    c_n term_n to the sum.  Each product is taken
    out of place into a contiguous row: NumPy multiplies a one-element array
    in place, or a strided one, by another loop than a contiguous one, and on
    CPUs where the vector loop fuses multiply-adds the two round differently.
    So a point gets the same bits in a block of any length.
    """
    plan = spec.product_plan()
    out = np.zeros(size, dtype=complex)
    store = np.empty((plan.slots, min(size, BLOCK)), dtype=complex)
    weighted = np.empty(store.shape[1], dtype=complex)
    for lo in range(0, size, BLOCK):
        block = slice(lo, min(lo + BLOCK, size))
        acc = out[block]
        rows = store[:, : len(acc)]
        fresh(block, rows[: len(plan.fresh)])
        terms, w = list(rows), weighted[: len(acc)]
        for (slot, factors), coeff in zip(plan.steps, spec.coeffs()):
            if factors is not None:
                np.multiply(terms[factors[0]], terms[factors[1]], out=terms[slot])
            np.multiply(terms[slot], coeff, out=w)
            acc += w
    return out


def evaluate(
    spec: SeriesSpec, point: EvalPoint | complex | np.ndarray
) -> complex | np.ndarray:
    """sum a(n) exp(-lambda(n) s) at s = sigma + it, summed in term order.

    A point (an EvalPoint or a complex number) gives a complex; an array of
    points gives an array of values of the same shape.  A fresh term of the
    product plan is exp(-lambda(n) s); a child term is the product of two
    earlier terms.  A value that is not a finite double raises
    PrecisionLimit naming the first such point.
    """
    s = np.asarray(point.s if isinstance(point, EvalPoint) else point, dtype=complex)
    flat = s.ravel()
    lams = spec.numeric_exponents()
    neg = np.array([-lams[n] for n in spec.product_plan().fresh])

    def fresh(block: slice, rows: np.ndarray) -> None:
        np.multiply.outer(neg, flat[block], out=rows)
        np.exp(rows, out=rows)

    with np.errstate(over="ignore", invalid="ignore"):
        out = plan_sum(spec, flat.size, fresh)
    finite = np.isfinite(out)
    if not finite.all():
        i = np.flatnonzero(~finite)[0]
        raise PrecisionLimit(
            f"the value at {complex(flat[i])} is {complex(out[i])}, not a finite double"
        )
    out = out.reshape(s.shape)
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
    """max |a(s) - b(s)| over the box grid; PrecisionLimit when it is not a
    finite double, as the difference of two finite values can be."""
    with np.errstate(over="ignore", invalid="ignore"):
        distance = float(np.max(np.abs(evaluate_grid(a, box) - evaluate_grid(b, box))))
    if not math.isfinite(distance):
        raise PrecisionLimit(f"the uniform distance is {distance}, not a finite double")
    return distance


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
