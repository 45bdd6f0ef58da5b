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
f - v outweighs the rest and no zero can live.  The strip [sigma_floor,
sigma_top] x t_window is walked once; a bisection step walks only its new left
edge and reads the rest of its contour off the strip's sides, whose walks keep
the running sum of their increments (the argument along a side is additive).
Since the t window is a stand-in for the full half-plane, the strip's window
is re-padded outward by tiny deterministic jitters when a zero lands exactly
on its edge (the common case for real-coefficient series, whose real zeros sit
at t = 0); the window that clears then serves every step, and a bisection
edge that clips a zero is shifted.  One ladder, `_first_clear`, tries the
windows, the shifted edges and attains_value's rectangles in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, TypeVar

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

_T = TypeVar("_T")
_R = TypeVar("_R")


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


class Side(NamedTuple):
    """The side a -> b as walked: the running sum of its accepted segments'
    argument increments, in order along it, and the walk's samples of f - v,
    level by level (fractions `ps` of the side, values `ws`).  The samples are
    the accepted segments' ends: the k-th in increasing order is where the
    k-th segment starts, and the first level starts with a and ends with the
    last sample, a + (b - a) * 1.0 (b, or a double next to it)."""

    a: complex
    b: complex
    cum: np.ndarray
    ps: list[np.ndarray]
    ws: list[np.ndarray]

    @property
    def total(self) -> float:
        return float(self.cum[-1])


@np.errstate(over="ignore", invalid="ignore")
def _side_argument(
    spec: SeriesSpec, v: complex, a: complex, b: complex, steps: int, margin: float
) -> Side:
    """The argument profile of f - v from a to b along the segment.

    The steps + 1 evenly spaced samples are evaluated in one array call, and
    every segment's increment is taken in one array pass.  Segments whose
    increment exceeds pi/2 (or is NaN), or whose ratio w2 / w1 is not a
    finite double, are halved level by level, each level's midpoints in one
    array call.  The accepted increments are summed one after another in
    order along the side, and the running sum is kept with the samples.  A
    sample where f - v or |f - v| is not a finite double raises
    PrecisionLimit (NumPy's warnings are off): no refinement mends that.
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
    ps, ws = [p], [w]
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
        ps.append(pm)
        ws.append(wm)
        # halves interleaved, left before right, so each level stays in order
        p1, p2 = np.column_stack((p1, pm)).ravel(), np.column_stack((pm, p2)).ravel()
        w1, w2 = np.column_stack((w1, wm)).ravel(), np.column_stack((wm, w2)).ravel()
    total = np.concatenate(deltas)
    if len(lefts) > 1:
        total = total[np.argsort(np.concatenate(lefts))]
    return Side(a, b, np.add.accumulate(total), ps, ws)


@np.errstate(over="ignore", invalid="ignore")
def _argument_to(
    spec: SeriesSpec, v: complex, side: Side, point: complex, w_point: complex, margin: float
) -> float:
    """Argument increment of f - v along a walked side from its start to
    `point` on it, where f - v is `w_point`.

    The side's increments up to the last sample before `point` are read from
    its running sum; the piece from that sample to `point` is taken from
    their two values when it turns by at most pi/2 (the walk's own rule), and
    walked otherwise.
    """
    a, b = side.a, side.b
    p, w = np.concatenate(side.ps), np.concatenate(side.ws)
    s = a + (b - a) * p
    before = np.abs(s - a) <= abs(point - a)  # the samples up to point
    k = np.argmax(np.where(before, p, -1.0))
    ratio = w_point / w[k]
    delta = np.arctan2(ratio.imag, ratio.real)
    if not (abs(delta) <= HALF_PI and np.isfinite(ratio)):
        delta = _side_argument(spec, v, complex(s[k]), point, 1, margin).total
    i = np.count_nonzero(before) - 1  # sample k starts the i-th segment
    return (float(side.cum[i - 1]) if i else 0.0) + float(delta)


def _check_steps(steps: int) -> None:
    if steps < 1:
        raise BadRange(f"need steps >= 1, got {steps}")


def _finite_target(v: complex) -> complex:
    v = complex(v)
    if not math.hypot(v.real, v.imag) < math.inf:  # also refuses a NaN part
        raise BadRange(f"need a finite target v whose modulus is a double, got {v}")
    return v


def _turns(total: float) -> tuple[int, float]:
    """A closed boundary's argument as whole turns, with the rounding defect.

    f - v has no poles, so a negative count is a walk too coarse to follow
    the argument, refused like a defect off a 2pi multiple.
    """
    turns = round(total / TWO_PI)
    defect = abs(total - TWO_PI * turns)
    if defect > WINDING_DEFECT_LIMIT:
        raise NonconvergentSubdivision(
            f"boundary argument {total:.6f} is {defect:.2e} away from a 2pi multiple"
        )
    if turns < 0:
        raise NonconvergentSubdivision(
            f"boundary argument {total:.6f} gives {int(turns)} zeros: the walk missed turns"
        )
    return int(turns), defect


def _contour(
    spec: SeriesSpec, v: complex, rect: Rectangle, steps: int, margin: float
) -> tuple[int, float, list[Side]]:
    """Winding number and defect of f - v around the rectangle, with the
    profiles of its sides (bottom, right, top, left, counterclockwise)."""
    c = rect.corners()
    sides = [_side_argument(spec, v, a, b, steps, margin) for a, b in zip(c, c[1:] + c[:1])]
    return *_turns(sum(side.total for side in sides)), sides


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
    turns, defect, _ = _contour(spec, v, rect, steps, margin)
    return turns, defect


def count_zeros(spec: SeriesSpec, v: complex, rect: Rectangle, steps: int = 256) -> int:
    """Zeros of f - v inside the rectangle, counted with multiplicity."""
    turns, _ = winding_number(spec, v, rect, steps)
    return turns


def _first_clear(walk: Callable[[_T], _R], ladders: Iterable[Iterable[_T]]) -> tuple[_T, _R]:
    """The first candidate, ladder after ladder, whose walk clears every zero
    of f - v, and the walk's result.  When every walk clips a zero, the error
    of the first ladder's last candidate is raised: later ladders only dodge
    it.
    """
    first: Exception | None = None
    for ladder in ladders:
        last = None
        for candidate in ladder:
            try:
                return candidate, walk(candidate)
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

    Bisects the left edge of [sigma, sigma_top] x t_window: each step walks
    that edge alone and counts the zeros right of it from the strip's walked
    bottom, right and top sides; returns -inf when no zero of f - v lies in
    the searched window at all.
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
    margin = boundary_margin(v)
    strip, (inside, _, sides) = _first_clear(
        lambda rect: _contour(spec, v, rect, steps, margin),
        [_t_padded((sigma_floor, sigma_top), t_window)],
    )
    if inside == 0:
        return float("-inf")
    bottom, right, top, _ = sides
    t0, t1 = strip.t_range

    def inside_from(c: float) -> int:
        """Zeros in [c, sigma_top] x the strip's window: its left side is
        walked, the rest read off the strip's sides."""
        low, high = complex(c, t0), complex(c, t1)
        left = _side_argument(spec, v, high, low, steps, margin)
        w_high, w_low = left.ws[0][[0, -1]]
        total = (
            bottom.total
            - _argument_to(spec, v, bottom, low, w_low, margin)
            + right.total
            + _argument_to(spec, v, top, high, w_high, margin)
            + left.total
        )
        return _turns(total)[0]

    lo, hi = sigma_floor, sigma_top
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # no double lies between lo and hi
        # a zero exactly on the bisection edge gets dodged deterministically
        edges = (mid + shift * (hi - lo) * 0.25 for shift in (0.0, 0.137, -0.211, 0.331))
        c, inside = _first_clear(inside_from, ([c] for c in edges if lo < c < hi))
        if inside > 0:
            lo = c
        else:
            hi = c
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

    _, inside = _first_clear(
        lambda rect: count_zeros(spec, v, rect, steps), [map(padded, _JITTERS)]
    )
    return inside >= 1


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
