"""Argument-principle zero counting and zero-free abscissae.

count_zeros walks a rectangle boundary counterclockwise accumulating argument
increments of f - v.  Each side works on arrays: its samples are evaluated in
one call and every segment's increment is taken in one NumPy pass; segments
whose increment exceeds pi/2 are bisected one level at a time, each level's
midpoints evaluated in one call.  A zero sitting on (or hugging) the contour
surfaces as BoundaryTooClose or NonconvergentSubdivision rather than a silent
miscount; a series that overflows a double on the contour surfaces as the
PrecisionLimit that `evaluate` raises, and an f - v that overflows where f
does not as the PrecisionLimit of the walk's own check.

sigma_star bisects on the left edge of [sigma, sigma_top] x t_window, where
sigma_top is a dominance bound beyond which the lowest-exponent coefficient of
f - v outweighs the rest and no zero can live.  Since the t window is a
stand-in for the full half-plane, windows are re-padded outward by tiny
deterministic jitters when a zero lands exactly on their edge (the common case
for real-coefficient series, whose real zeros sit at t = 0); one ladder,
`_first_clear`, tries these rectangles and sigma_star's shifted edges in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .core import ExponentVector, SeriesSpec
from .errors import (
    BadRange,
    BoundaryTooClose,
    DegenerateTarget,
    NonconvergentSubdivision,
    PrecisionLimit,
)
from .evaluation import evaluate

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi

#: Adaptive refinement cap per rectangle side.
MAX_SIDE_SAMPLES = 2**14

#: Deterministic outward paddings tried when a contour clips a zero, as
#: fractions of (1 + window span).
_JITTERS = (0.0, 3.1e-7, 1.9e-6, 1.1e-5, 6.7e-5)

#: The accumulated boundary argument must close up to a multiple of 2pi
#: within this defect before rounding.
WINDING_DEFECT_LIMIT = 1e-6


@dataclass(frozen=True)
class Rectangle:
    sigma_range: tuple[float, float]
    t_range: tuple[float, float]

    def __post_init__(self):
        if not -math.inf < self.sigma_range[0] < self.sigma_range[1] < math.inf:
            raise BadRange(f"degenerate or unbounded sigma range {self.sigma_range}")
        if not -math.inf < self.t_range[0] < self.t_range[1] < math.inf:
            raise BadRange(f"degenerate or unbounded t range {self.t_range}")

    def corners(self) -> tuple[complex, complex, complex, complex]:
        (s0, s1), (t0, t1) = self.sigma_range, self.t_range
        return (complex(s0, t0), complex(s1, t0), complex(s1, t1), complex(s0, t1))


def boundary_margin(v: complex) -> float:
    return 1e-8 * (1.0 + abs(v))


def _constant_value(spec: SeriesSpec) -> complex | None:
    """The value of a constant series (every exponent zero), else None."""
    if all(term.exponent.is_zero() for term in spec.terms):
        return sum((term.coeff for term in spec.terms), 0.0 + 0.0j)
    return None


@np.errstate(over="ignore", invalid="ignore")
def _side_argument(
    spec: SeriesSpec, v: complex, a: complex, b: complex, steps: int, margin: float
) -> float:
    """Total argument increment of f - v from a to b along the segment.

    The steps + 1 evenly spaced samples are evaluated in one array call, and
    every segment's increment is taken in one array pass.  Segments whose
    increment exceeds pi/2 (or is NaN), or whose ratio w2 / w1 is not a
    finite double, are halved level by level, each level's midpoints in one
    array call.  The accepted increments are summed one after another in
    order along the side.  A sample where f - v or |f - v| is not a finite
    double raises PrecisionLimit (NumPy's warnings are off): no refinement
    mends that.
    """

    def w_at(p: np.ndarray) -> np.ndarray:
        """f - v at the points a + (b - a) p, p in increasing order."""
        s = a + (b - a) * p
        w = evaluate(spec, s) - v
        modulus = np.abs(w)
        if not ((margin < modulus) & (modulus < math.inf)).all():
            i = np.argmax(modulus)  # the first infinite one, if any
            if modulus[i] < math.inf:
                i = np.flatnonzero(modulus <= margin)[0]
                raise BoundaryTooClose(complex(s[i]), float(modulus[i]), margin)
            raise PrecisionLimit(
                f"f(s) - v at {complex(s[i])} is {complex(w[i])}, not a finite double"
            )
        return w

    p = np.arange(steps + 1) / steps
    w = w_at(p)
    count = steps + 1
    p1, p2, w1, w2 = p[:-1], p[1:], w[:-1], w[1:]
    lefts, deltas = [], []
    while True:
        ratio = w2 / w1
        delta = np.arctan2(ratio.imag, ratio.real)
        ok = (np.abs(delta) <= HALF_PI) & np.isfinite(ratio)
        lefts.append(p1[ok])
        deltas.append(delta[ok])
        todo = ~ok
        if not todo.any():
            break
        p1, p2, w1, w2 = p1[todo], p2[todo], w1[todo], w2[todo]
        count += p1.size
        if count > MAX_SIDE_SAMPLES:
            raise NonconvergentSubdivision(
                f"side {a} -> {b} needed more than {MAX_SIDE_SAMPLES} samples"
            )
        pm = 0.5 * (p1 + p2)
        wm = w_at(pm)
        # halves interleaved, left before right, so each level stays in order
        p1, p2 = np.column_stack((p1, pm)).ravel(), np.column_stack((pm, p2)).ravel()
        w1, w2 = np.column_stack((w1, wm)).ravel(), np.column_stack((wm, w2)).ravel()
    total = np.concatenate(deltas)
    if len(lefts) > 1:
        total = total[np.argsort(np.concatenate(lefts))]
    return float(np.add.accumulate(total)[-1])


def _check_steps(steps: int) -> None:
    if steps < 1:
        raise BadRange(f"need steps >= 1, got {steps}")


def _finite_target(v: complex) -> complex:
    v = complex(v)
    if not math.hypot(v.real, v.imag) < math.inf:  # also refuses a NaN part
        raise BadRange(f"need a finite target v whose modulus is a double, got {v}")
    return v


def winding_number(
    spec: SeriesSpec, v: complex, rect: Rectangle, steps: int = 256
) -> tuple[int, float]:
    """Winding number of f - v around the rectangle, with the rounding defect.

    Each side starts from `steps` equal segments (steps >= 1) and bisects
    those whose argument increment exceeds pi/2.
    """
    _check_steps(steps)
    v = _finite_target(v)
    margin = boundary_margin(v)
    constant = _constant_value(spec)
    if constant is not None:
        if abs(constant - v) <= margin:
            raise DegenerateTarget(
                f"series is constant {constant} and v = {v}: f - v vanishes identically"
            )
        return 0, 0.0
    c = rect.corners()
    total = 0.0
    for a, b in zip(c, c[1:] + c[:1]):
        total += _side_argument(spec, v, a, b, steps, margin)
    turns = round(total / TWO_PI)
    defect = abs(total - TWO_PI * turns)
    if defect > WINDING_DEFECT_LIMIT:
        raise NonconvergentSubdivision(
            f"boundary argument {total:.6f} is {defect:.2e} away from a 2pi multiple"
        )
    return int(turns), defect


def count_zeros(spec: SeriesSpec, v: complex, rect: Rectangle, steps: int = 256) -> int:
    """Zeros of f - v inside the rectangle, counted with multiplicity."""
    turns, _ = winding_number(spec, v, rect, steps)
    return turns


def _first_clear(
    spec: SeriesSpec, v: complex, ladders: Iterable[Iterable[Rectangle]], steps: int
) -> tuple[Rectangle, int]:
    """The first rectangle, ladder after ladder, whose contour clears every zero
    of f - v, and its count.  When every walk clips a zero, the error of the
    first ladder's last rectangle is raised: later ladders only dodge it.
    """
    first: Exception | None = None
    for ladder in ladders:
        last = None
        for rect in ladder:
            try:
                return rect, count_zeros(spec, v, rect, steps)
            except (BoundaryTooClose, NonconvergentSubdivision) as err:
                last = err
        first = first or last
    assert first is not None
    raise first


def _t_padded(sigmas: tuple[float, float], window: tuple[float, float]) -> Iterator[Rectangle]:
    """sigmas x window, then with its t edges padded outward by each jitter."""
    t0, t1 = window
    for jitter in _JITTERS:
        pad = jitter * (1.0 + abs(t1 - t0))
        yield Rectangle(sigmas, (t0 - pad, t1 + pad))


def _merged_against(spec: SeriesSpec, v: complex) -> list[tuple[float, float]]:
    """Sorted (numeric exponent, |coefficient|) of f - v, zero coefficients
    dropped; PrecisionLimit when a modulus is not a finite double."""
    zero = ExponentVector()
    merged: dict[ExponentVector, complex] = {}
    for term in spec.terms:
        merged[term.exponent] = merged.get(term.exponent, 0.0) + term.coeff
    merged[zero] = merged.get(zero, 0.0) - v
    out = []
    for exp, c in merged.items():
        mu = exp.numeric_value(spec.symbols)
        try:
            modulus = abs(c)
        except OverflowError:  # both parts finite, the modulus not
            modulus = math.inf
        if not modulus < math.inf:
            raise PrecisionLimit(
                f"the coefficient of f - v at exponent {mu} is {c}, not a finite double"
            )
        if c != 0:
            out.append((mu, modulus))
    out.sort()
    return out


def _dominance_sigma_top(profile: list[tuple[float, float]], sigma_floor: float) -> float:
    """Abscissa beyond which the lowest term of f - v dominates and zeros stop.

    For sigma >= the returned value, sum_{n>=2} |c_n| e^{-(mu_n - mu_1) sigma}
    <= |c_1| / 2, so |f - v| >= |c_1| e^{-mu_1 sigma} / 2 > 0.
    """
    mu1, c1 = profile[0]
    rest = [(mu - mu1, c) for mu, c in profile[1:]]
    sigma = max(1.0, sigma_floor + 1.0)
    for _ in range(100_000):
        tail = math.fsum(c * math.exp(-gap * sigma) for gap, c in rest)
        if tail <= 0.5 * c1:
            return sigma
        sigma += 1.0
    raise NonconvergentSubdivision(
        f"dominance bound search did not settle by sigma = {sigma:g}"
    )


def sigma_star(
    spec: SeriesSpec,
    v: complex,
    t_window: tuple[float, float],
    sigma_floor: float,
    tol: float = 1e-3,
    steps: int = 256,
) -> float:
    """Largest sigma (within tol) whose right half-strip still contains a zero.

    Bisects the left edge of [sigma, sigma_top] x t_window with count_zeros;
    returns -inf when no zero of f - v lies in the searched window at all.
    The result is a window-limited lower bound for the true zero-free
    abscissa; wide windows approximate it by almost periodicity.
    """
    _check_steps(steps)
    if not 0 < tol < math.inf:
        raise BadRange(f"need a finite tol > 0, got {tol}")
    if not t_window[0] < t_window[1]:
        raise BadRange(f"degenerate t window {t_window}")
    if not math.isfinite(sigma_floor):
        raise BadRange(f"need a finite sigma_floor, got {sigma_floor}")
    v = _finite_target(v)
    profile = _merged_against(spec, v)
    if not profile:
        raise DegenerateTarget(f"f - v vanishes identically for v = {v}")
    if len(profile) == 1:
        return float("-inf")
    sigma_top = _dominance_sigma_top(profile, sigma_floor)
    if sigma_top <= sigma_floor:
        return float("-inf")
    _, inside = _first_clear(spec, v, [_t_padded((sigma_floor, sigma_top), t_window)], steps)
    if inside == 0:
        return float("-inf")
    lo, hi = sigma_floor, sigma_top
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # no double lies between lo and hi
        # a zero exactly on the bisection edge gets dodged deterministically
        edges = (mid + shift * (hi - lo) * 0.25 for shift in (0.0, 0.137, -0.211, 0.331))
        ladders = (_t_padded((c, sigma_top), t_window) for c in edges if lo < c < hi)
        rect, inside = _first_clear(spec, v, ladders, steps)
        if inside > 0:
            lo = rect.sigma_range[0]
        else:
            hi = rect.sigma_range[0]
    return 0.5 * (lo + hi)


def attains_value(
    spec: SeriesSpec,
    v: complex,
    sigma1: float,
    sigma2: float,
    t_window: tuple[float, float],
    steps: int = 256,
) -> bool:
    """True iff f takes the value v inside the open strip, t in the window.

    The sigma edges are inset (the strip is open) and the t edges padded
    outward through the same deterministic ladder as sigma_star when a zero
    sits exactly on the contour.
    """
    if not sigma1 < sigma2:
        raise BadRange(f"need sigma1 < sigma2, got {sigma1}, {sigma2}")
    if not t_window[0] < t_window[1]:
        raise BadRange(f"degenerate t window {t_window}")
    v = _finite_target(v)
    t0, t1 = t_window

    def padded(jitter: float) -> Rectangle:
        pad_s = jitter * (1.0 + (sigma2 - sigma1))
        pad_t = jitter * (1.0 + (t1 - t0))
        return Rectangle((sigma1 + pad_s, sigma2 - pad_s), (t0 - pad_t, t1 + pad_t))

    return _first_clear(spec, v, [map(padded, _JITTERS)], steps)[1] >= 1


def sigma_sequence(
    spec: SeriesSpec,
    m_max: int,
    t_window: tuple[float, float],
    tol: float = 1e-3,
    sigma_floor: float = -50.0,
    steps: int = 256,
) -> list[float]:
    """The abscissa sequence sigma_m = sigma_star(f(m)) for m = 1..m_max.

    Constant series make every target degenerate; those entries are reported
    as -inf rather than raised, keeping the sequence aligned with m.
    """
    _check_steps(steps)
    out: list[float] = []
    for m in range(1, m_max + 1):
        target = evaluate(spec, complex(m, 0.0))
        try:
            out.append(sigma_star(spec, target, t_window, sigma_floor, tol, steps))
        except DegenerateTarget:
            out.append(float("-inf"))
    return out
