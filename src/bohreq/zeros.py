"""Argument-principle zero counting and zero-free abscissae.

count_zeros walks a rectangle boundary counterclockwise accumulating argument
increments of f - v.  One walker, `_walk`, follows a batch of segments in
arrays: the samples of all of them are evaluated in one call and every
increment is taken in one NumPy pass; a piece whose increment is beyond pi/2
is cut into SPLIT equal pieces, one level at a time, each level's new points
over the whole batch evaluated in one call.  A segment's argument is the sum
of its pieces' increments, level by level, in no order along it.  A
contour's four sides are one batch.  A zero sitting on (or hugging) the
contour surfaces as BoundaryTooClose or NonconvergentSubdivision rather
than a silent miscount; a series that overflows a double on the contour
surfaces as the PrecisionLimit that `evaluate` raises, and an f - v that
overflows where f does not as the PrecisionLimit of the walk's own check.

sigma_star bisects on the left edge of [sigma, sigma_top] x t_window, where
sigma_top is a dominance bound beyond which the lowest-exponent coefficient of
f - v outweighs the rest and no zero can live.  The strip [sigma_floor,
sigma_top] x t_window is walked once.  The bisection keeps its bracket [lo, hi]
with no zero in [hi, sigma_top] x t_window, so a step at c counts [c, hi] x
t_window alone, from one batch: its new left edge, and its bottom and top
pieces at the strip's density.  Its right side is not walked again: it is the
left edge of the step that set hi, reversed, or at first the strip's.  A left
edge starts from the parameters that the last left edge to clear sampled (the
first from `steps`): every left edge runs from t1 down to t0, so its cuts near
the zero the bracket closes on are made once, not again at every step.  A left
edge is charged against MAX_SIDE_SAMPLES for its own cuts only, and a grid
that outgrows that cap is dropped for `steps` again.
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
from typing import Callable, Iterable, Iterator, TypeVar

import numpy as np

from .core import ExponentVector, SeriesSpec
from .errors import (
    BadRange,
    BoundaryTooClose,
    DegenerateTarget,
    NonconvergentSubdivision,
    PrecisionLimit,
    check_integral,
    check_range,
    check_tol,
)
from .evaluation import evaluate

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi

#: Adaptive refinement cap per walked segment (a rectangle side, or a piece).
MAX_SIDE_SAMPLES = 2**14

#: Equal pieces a rejected piece is cut into per refinement level.  A power
#: of two, so every piece lies on the dyadic grid of repeated halving, inside
#: the piece that halving would accept.
SPLIT = 16
_CUTS = np.arange(1, SPLIT) / SPLIT

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
        check_range(*self.sigma_range, f"sigma range {self.sigma_range}")
        check_range(*self.t_range, f"t range {self.t_range}")

    def corners(self) -> tuple[complex, complex, complex, complex]:
        (s0, s1), (t0, t1) = self.sigma_range, self.t_range
        return (complex(s0, t0), complex(s1, t0), complex(s1, t1), complex(s0, t1))


def boundary_margin(v: complex) -> float:
    return 1e-8 * (1.0 + abs(v))


@np.errstate(over="ignore", invalid="ignore")
def _walk(
    spec: SeriesSpec,
    v: complex,
    segments: list[tuple[complex, complex, int | tuple[int, np.ndarray]]],
    margin: float,
) -> tuple[list[float], Callable[[int], np.ndarray]]:
    """The argument increment of f - v along each segment (a, b, first), and
    a function giving segment i's parameters p of the points a + (b - a) p
    it sampled.

    A segment's first samples are `first`: steps, for the steps + 1 evenly
    spaced parameters j / steps, or (steps, grid), for a sorted grid of
    parameters from 0 to 1 that holds those.  The segments are walked
    together: the first samples of every segment are evaluated in one array
    call, and every increment is taken in one array pass.  A piece whose
    increment exceeds pi/2 (or is NaN), or whose ratio w2 / w1 is not a
    finite double, is cut into SPLIT equal pieces, level by level: its
    SPLIT - 1 inner points p1 + (p2 - p1) j / SPLIT, for every such piece of
    every segment, are evaluated in one array call per level.  A segment may
    take at most MAX_SIDE_SAMPLES samples, counting steps + 1 for its first
    ones, however many a grid holds, and SPLIT - 1 per piece it cuts itself:
    the cuts a grid carries from an earlier walk are not charged again.
    Each level adds its accepted increments to their segments' totals, so a
    segment's total is the same to the bit in any batch.  A segment's
    parameters come back sorted, its first ones and every inner point, ready
    to be another segment's first samples; they are gathered only on
    request, since most walks never need them.  A sample where f - v or
    |f - v| is not a finite double raises PrecisionLimit (NumPy's warnings
    are off): no refinement mends that.
    """
    starts = np.array([a for a, _, _ in segments])
    spans = np.array([b - a for a, b, _ in segments])

    def w_at(k: np.ndarray, p: np.ndarray) -> np.ndarray:
        """f - v at the points a + (b - a) p of segments k."""
        s = starts[k] + spans[k] * p
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

    firsts = [first if isinstance(first, tuple) else (first, None) for _, _, first in segments]
    grids = [np.arange(steps + 1) / steps if grid is None else grid for steps, grid in firsts]
    charged = np.array([steps + 1 for steps, _ in firsts])  # before any cut
    counts = charged.copy()
    k = np.repeat(np.arange(len(segments)), [len(grid) for grid in grids])
    p = np.concatenate(grids)
    w = w_at(k, p)
    sampled_k, sampled_p = [k], [p]
    pairs = k[:-1] == k[1:]  # consecutive samples of one segment
    k1, p1, p2, w1, w2 = k[:-1][pairs], p[:-1][pairs], p[1:][pairs], w[:-1][pairs], w[1:][pairs]
    totals = np.zeros(len(segments))
    while True:
        ratio = w2 / w1
        delta = np.arctan2(ratio.imag, ratio.real)
        ok = (np.abs(delta) <= HALF_PI) & np.isfinite(ratio)
        totals += np.bincount(k1[ok], weights=delta[ok], minlength=len(segments))
        if ok.all():
            break
        k1, p1, p2, w1, w2 = k1[~ok], p1[~ok], p2[~ok], w1[~ok], w2[~ok]
        counts += (SPLIT - 1) * np.bincount(k1, minlength=len(segments))
        if counts.max() > MAX_SIDE_SAMPLES:
            a, b, _ = segments[np.argmax(counts)]
            raise NonconvergentSubdivision(
                f"side {a} -> {b} needed more than {MAX_SIDE_SAMPLES} samples"
            )
        # each rejected piece's ends and SPLIT - 1 inner points, one row a piece
        p = np.empty((len(k1), SPLIT + 1))
        w = np.empty(p.shape, dtype=complex)
        p[:, 0], p[:, -1], w[:, 0], w[:, -1] = p1, p2, w1, w2
        np.multiply((p2 - p1)[:, None], _CUTS, p[:, 1:-1])
        p[:, 1:-1] += p1[:, None]
        sampled_k.append(np.repeat(k1, SPLIT - 1))
        sampled_p.append(p[:, 1:-1].ravel())
        w[:, 1:-1] = w_at(sampled_k[-1], sampled_p[-1]).reshape(-1, SPLIT - 1)
        k1 = np.repeat(k1, SPLIT)
        p1, p2, w1, w2 = p[:, :-1].ravel(), p[:, 1:].ravel(), w[:, :-1].ravel(), w[:, 1:].ravel()

    def sampled(i: int) -> np.ndarray:
        """The parameters segment i sampled, sorted: its first ones, and the
        inner points of its cut pieces."""
        if counts[i] == charged[i]:
            return grids[i]
        k, p = np.concatenate(sampled_k), np.concatenate(sampled_p)
        return np.sort(p[k == i])

    return totals.tolist(), sampled


def _check_steps(steps: int) -> None:
    """A side's first samples, steps + 1, must fit in MAX_SIDE_SAMPLES."""
    check_integral(steps, "steps")
    if steps < 1:
        raise BadRange(f"need steps >= 1, got {steps}")
    if steps >= MAX_SIDE_SAMPLES:
        raise BadRange(f"need steps < MAX_SIDE_SAMPLES = {MAX_SIDE_SAMPLES}, got {steps}")


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
) -> tuple[int, float, list[float]]:
    """Winding number and defect of f - v around the rectangle, with the
    argument along each side (bottom, right, top, left, counterclockwise)."""
    c = rect.corners()
    sides, _ = _walk(spec, v, [(a, b, steps) for a, b in zip(c, c[1:] + c[:1])], margin)
    return *_turns(sum(sides)), sides


def winding_number(
    spec: SeriesSpec, v: complex, rect: Rectangle, steps: int = 256
) -> tuple[int, float]:
    """Winding number of f - v around the rectangle, with the rounding defect.

    Each side starts from `steps` equal segments (1 <= steps <
    MAX_SIDE_SAMPLES) and cuts each piece whose argument increment exceeds
    pi/2 into SPLIT equal ones, as often as it takes.  As in sigma_star, an f - v of one term winds 0
    times without a walk, and one of no terms raises DegenerateTarget.
    """
    _check_steps(steps)
    v = _finite_target(v)
    # f - v has fewer than two terms only when f has at most two nonzero
    # coefficients; one exponential has no zero, and nothing is walked
    if sum(term.coeff != 0 for term in spec.terms) <= 2 and len(_merged_against(spec, v)) == 1:
        return 0, 0.0
    turns, defect, _ = _contour(spec, v, rect, steps, boundary_margin(v))
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
    dropped; PrecisionLimit when a modulus is not a finite double, and
    DegenerateTarget when no term is left: f - v vanishes identically."""
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
    if not out:
        raise DegenerateTarget(f"f - v vanishes identically for v = {v}")
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

    Bisects the left edge of [sigma, sigma_top] x t_window, keeping the
    bracket [lo, hi] with no zero in [hi, sigma_top] x t_window: each step
    counts the zeros in [c, hi] x t_window from one walk of its new left
    edge and its bottom and top pieces, the right side being the edge that
    set hi; returns -inf when no zero of f - v lies in the searched window
    at all.  The first left edge starts from `steps` equal segments, every
    later one from the samples of the last left edge that cleared, refined
    where that edge needed it, unless those number more than
    MAX_SIDE_SAMPLES; a left edge is charged only for its own cuts.
    The result is a window-limited lower bound for the true zero-free
    abscissa; wide windows approximate it by almost periodicity.
    """
    _check_steps(steps)
    check_tol(tol)
    check_range(*t_window, f"t window {t_window}")
    if not math.isfinite(sigma_floor):
        raise BadRange(f"need a finite sigma_floor, got {sigma_floor}")
    v = _finite_target(v)
    profile = _merged_against(spec, v)
    if len(profile) == 1:
        return float("-inf")
    sigma_top = _dominance_sigma_top(profile, sigma_floor)
    if sigma_top <= sigma_floor:
        return float("-inf")
    margin = boundary_margin(v)
    strip, (inside, _, (_, right, _, _)) = _first_clear(
        lambda rect: _contour(spec, v, rect, steps, margin),
        [_t_padded((sigma_floor, sigma_top), t_window)],
    )
    if inside == 0:
        return float("-inf")
    t0, t1 = strip.t_range
    first: int | tuple[int, np.ndarray] = steps  # the first left side, evenly spaced

    def inside_from(c: float) -> tuple[int, float, np.ndarray]:
        """Zeros in [c, hi] x the strip's window, the argument along its
        left side and the parameters that side sampled.  The left side starts
        from `first`, the parameters of the last left side that cleared: every
        left side runs from t1 down to t0, so a parameter names one height on
        all of them, and the cuts near the zero the bracket closes on are
        already made.  The horizontal pieces take the strip's density."""
        pieces = math.ceil(steps * (hi - c) / (sigma_top - sigma_floor))
        (left, bottom, top), sampled = _walk(
            spec,
            v,
            [
                (complex(c, t1), complex(c, t0), first),
                (complex(c, t0), complex(hi, t0), pieces),
                (complex(hi, t1), complex(c, t1), pieces),
            ],
            margin,
        )
        return _turns(bottom + right + top + left)[0], left, sampled(0)

    lo, hi = sigma_floor, sigma_top
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # no double lies between lo and hi
        # a zero exactly on the bisection edge gets dodged deterministically
        edges = (mid + shift * (hi - lo) * 0.25 for shift in (0.0, 0.137, -0.211, 0.331))
        c, (inside, left, grid) = _first_clear(inside_from, ([c] for c in edges if lo < c < hi))
        # a grid that outgrows a side's cap is dropped: the next left side
        # starts evenly spaced again
        first = (steps, grid) if len(grid) <= MAX_SIDE_SAMPLES else steps
        if inside > 0:
            lo = c
        else:
            hi, right = c, -left  # the edge walked downward is the next right side
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
    sits exactly on the contour; a rung whose inset would empty the strip is
    not tried, so a narrow strip raises the error of the last one tried.
    """
    check_range(sigma1, sigma2, f"sigma range {(sigma1, sigma2)}")
    check_range(*t_window, f"t window {t_window}")
    v = _finite_target(v)
    t0, t1 = t_window

    def padded() -> Iterator[Rectangle]:
        """The ladder's rectangles, up to the last inset that leaves a strip."""
        for jitter in _JITTERS:
            pad_s = jitter * (1.0 + (sigma2 - sigma1))
            pad_t = jitter * (1.0 + (t1 - t0))
            if not sigma1 + pad_s < sigma2 - pad_s:
                return
            yield Rectangle((sigma1 + pad_s, sigma2 - pad_s), (t0 - pad_t, t1 + pad_t))

    _, inside = _first_clear(lambda rect: count_zeros(spec, v, rect, steps), [padded()])
    return inside >= 1

