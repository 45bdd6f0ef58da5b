"""Numerical evaluation of truncated series and uniform distances on grids.

One evaluator serves points, grids, strips, lines and contours: the sum runs
in term order (increasing exponent) in double-precision complex arithmetic,
for a scalar and for an array alike, so a point gets the bits it would get
inside any array.  The terms follow the series' product plan
(`SeriesSpec.product_plan`): a fresh term is one complex `exp`, and a term
whose exponent is exactly the sum of two earlier ones is their product.  The
points are summed in blocks, so the stored terms of a block stay in cache and
no scratch buffer grows with the number of points.  The blocks of one call
are shared among `WORKERS` threads, one per CPU the process may run on:
NumPy releases the interpreter lock inside its loops, and a block's values do
not depend on which thread sums it, nor on the block length.  A call of one
block (a scalar point, a contour side) starts no thread.  Overflow is decided
here: a phase `lambda t` or a value that is not a finite double raises
PrecisionLimit.  Certified comparisons lean on tail majorants, not on
summation heroics.  Grid suprema approximate sup norms on compact boxes;
grid density is a verification parameter chosen by the caller.

Importing this module (the base of the float layer) pins glibc's mmap and
trim thresholds (`MMAP_THRESHOLD`, `TRIM_THRESHOLD`) and keeps every thread
on the one main malloc arena, so the resident set of a process that samples
again and again follows what its live arrays need.
"""

from __future__ import annotations

import contextvars
import ctypes
import math
import os
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import SeriesSpec
from .errors import BadRange, PrecisionLimit, check_integral


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
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8  # from <malloc.h>


def _pin_mmap_threshold() -> None:
    """Fix glibc's mmap and trim thresholds where the C library has `mallopt`,
    and its arenas to one: a worker thread of `plan_sum` would otherwise get
    an arena of its own, which keeps the scratch freed in it resident."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library by name
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    mallopt(_M_ARENA_MAX, 1)


_pin_mmap_threshold()


@dataclass(frozen=True)
class GridBox:
    """Inclusive rectangular grid: (steps + 1) points per axis."""

    sigma_range: tuple[float, float]
    t_range: tuple[float, float]
    sigma_steps: int = 1
    t_steps: int = 1

    def __post_init__(self):
        (s0, s1), (t0, t1) = self.sigma_range, self.t_range
        # a NaN or infinite end gives a NaN or infinite span; an axis may be one line thick
        if not (0 <= s1 - s0 < math.inf and 0 <= t1 - t0 < math.inf):
            raise BadRange(f"box ranges need finite ends min <= max and a finite span: {self}")
        check_integral(self.sigma_steps, "sigma_steps")
        check_integral(self.t_steps, "t_steps")
        if self.sigma_steps < 1 or self.t_steps < 1:
            raise BadRange(f"step counts must be >= 1: {self}")

    def sigma_points(self) -> np.ndarray:
        return np.linspace(self.sigma_range[0], self.sigma_range[1], self.sigma_steps + 1)

    def t_points(self) -> np.ndarray:
        return np.linspace(self.t_range[0], self.t_range[1], self.t_steps + 1)


#: Points summed at once: one block on a lone thread, or the blocks of all
#: threads together.  Every term alive at once keeps this many complex values,
#: 128 KiB, so the working set stays in cache.
BLOCK = 8192
#: Threads that sum the blocks of one call: the CPUs this process may run on.
WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)


def plan_sum(
    spec: SeriesSpec, size: int, fresh: Callable[[slice, np.ndarray], None]
) -> np.ndarray:
    """sum_n c_n term_n at `size` points, one block of points at a time.

    The terms follow `spec.product_plan()`: `fresh(block, rows)` writes fresh
    term `plan.fresh[i]` at the points of `block` into `rows[i]`; then, in
    term order, a child term is the product of the two rows it is planned
    from, and each term adds c_n term_n to the sum.  Each product is taken
    out of place into a contiguous row: NumPy multiplies a one-element array
    in place, or a strided one, by another loop than a contiguous one, and on
    CPUs where the vector loop fuses multiply-adds the two round differently.
    So a point gets the same bits in a block of any length, on any thread.

    The blocks are shared among up to `WORKERS` threads, the calling one
    included: each takes every `workers`-th block, with scratch of its own,
    and a block holds `BLOCK // workers` points, so the scratch of all the
    threads is that of one thread at `BLOCK`.  So `fresh` must be pure in the
    block: it may run on any thread, in any order, under the caller's
    `np.errstate`, and may call nothing unsafe from two threads at once, nor
    a function that `perfbench/tracer.py` wraps (its span stack is one
    thread's).  An exception raised on a worker is raised here, once every
    thread has ended.
    """
    plan = spec.product_plan()
    coeffs = spec.coeffs()
    out = np.zeros(size, dtype=complex)
    workers = max(1, min(WORKERS, -(-size // BLOCK)))
    length = BLOCK // workers

    def run(share: int) -> None:
        store = np.empty((plan.slots, min(size, length)), dtype=complex)
        weighted = np.empty(store.shape[1], dtype=complex)
        for lo in range(share * length, size, workers * length):
            block = slice(lo, min(lo + length, size))
            acc = out[block]
            rows = store[:, : len(acc)]
            fresh(block, rows[: len(plan.fresh)])
            terms, w = list(rows), weighted[: len(acc)]
            for (slot, factors), coeff in zip(plan.steps, coeffs):
                if factors is not None:
                    np.multiply(terms[factors[0]], terms[factors[1]], out=terms[slot])
                np.multiply(terms[slot], coeff, out=w)
                acc += w

    if workers == 1:
        run(0)
        return out
    failures: list[BaseException] = []

    def work(share: int) -> None:
        try:
            run(share)
        except BaseException as exc:  # raised again on the calling thread
            failures.append(exc)

    # each worker runs in a copy of the caller's context, which holds the
    # caller's np.errstate; a new thread would start from NumPy's defaults
    threads = [
        threading.Thread(target=contextvars.copy_context().run, args=(work, share))
        for share in range(1, workers)
    ]
    for thread in threads:
        thread.start()
    try:
        run(0)
    finally:
        for thread in threads:
            thread.join()
    if failures:
        raise failures[0]
    return out


def evaluate_blocks(
    spec: SeriesSpec, size: int, points: Callable[[slice], np.ndarray], t_max: float
) -> np.ndarray:
    """sum a(n) exp(-lambda(n) s) at `size` finite points s, built block by
    block: `points(block)` gives the points of `block`, each with |t| <= t_max.

    `points` is called as `plan_sum` calls its hook, so it must be pure in
    the block, and a point's bits must not depend on the block it is built
    in.  Before anything is summed, PrecisionLimit refuses a phase lambda t
    beyond a double, for the largest |lambda| and t = t_max.  A value that
    is not a finite double raises PrecisionLimit naming the first such
    point.
    """
    lam = spec.exponent_reach()
    if not math.isfinite(lam * t_max):
        raise PrecisionLimit(
            f"the phase lambda t is beyond a double for lambda = {lam} and |t| = {t_max}"
        )
    lams = spec.numeric_exponents()
    neg = np.array([-lams[n] for n in spec.product_plan().fresh])

    def fresh(block: slice, rows: np.ndarray) -> None:
        np.multiply.outer(neg, points(block), out=rows)
        np.exp(rows, out=rows)

    with np.errstate(over="ignore", invalid="ignore"):
        out = plan_sum(spec, size, fresh)
    finite = np.isfinite(out)
    if not finite.all():
        i = int(np.argmin(finite))
        point = complex(points(slice(i, i + 1))[0])
        raise PrecisionLimit(f"the value at {point} is not a finite double")
    return out


def evaluate(spec: SeriesSpec, point: complex | np.ndarray) -> complex | np.ndarray:
    """sum a(n) exp(-lambda(n) s) at s = sigma + it, summed in term order.

    A complex point gives a complex; an array of points gives an array of
    values of the same shape.  A point that is not finite raises BadRange
    naming the first such point, before anything is summed, and so does
    PrecisionLimit for a phase lambda(n) t beyond a double.  A fresh term
    of the product plan is exp(-lambda(n) s); a child term is the product of
    two earlier terms.  A value that is not a finite double raises
    PrecisionLimit naming the first such point.
    """
    s = np.asarray(point, dtype=complex)
    flat = s.ravel()
    # |sigma| and |t| are at most `widest`, found in one pass, which is not
    # finite when a point is not
    widest = float(np.abs(flat.view(float)).max()) if flat.size else 0.0
    if not math.isfinite(widest):
        finite = np.isfinite(flat)
        raise BadRange(f"evaluation point must be finite: {complex(flat[np.argmin(finite)])}")
    # only a bound too loose for the phase check needs |t| alone
    if math.isfinite(widest * spec.exponent_reach()):
        t_max = widest
    else:
        t_max = float(np.abs(flat.imag).max())
    out = evaluate_blocks(spec, flat.size, flat.__getitem__, t_max).reshape(s.shape)
    return complex(out) if out.ndim == 0 else out


def evaluate_grid(spec: SeriesSpec, box: GridBox) -> np.ndarray:
    """Series values on the box grid, shape (sigma_steps+1, t_steps+1)."""
    return evaluate(spec, box.sigma_points()[:, None] + 1j * box.t_points()[None, :])


def shift_series(spec: SeriesSpec, tau_shift: float) -> SeriesSpec:
    """The vertical shift s -> s + i tau as a coefficient twist.

    evaluate(shift_series(spec, tau), s) == evaluate(spec, s + i tau) up to
    rounding: coefficient n picks up the phase exp(-i lambda(n) tau).  A
    shift that is not finite raises BadRange.
    """
    if not math.isfinite(tau_shift):
        raise BadRange(f"need a finite shift, got {tau_shift}")
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
