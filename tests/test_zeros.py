"""Winding numbers, zero counts, and zero-free abscissae."""

import cmath
import itertools
import math
import random
import re
import time
import warnings

import numpy as np
import pytest

from bohreq import scenarios, zeros
from bohreq.core import ExponentVector, SeriesSpec, SymbolTable
from bohreq.errors import (
    BadRange,
    BoundaryTooClose,
    DegenerateTarget,
    NonconvergentSubdivision,
    PrecisionLimit,
)
from bohreq.evaluation import evaluate
from bohreq.zeros import (
    Rectangle,
    attains_value,
    boundary_margin,
    count_zeros,
    sigma_star,
    winding_number,
)

LOG2 = math.log(2.0)


def one_plus_two() -> SeriesSpec:
    # 1 + 2^{-s}: zeros of f - v have closed forms for every v
    syms = SymbolTable([("L2", LOG2)])
    return SeriesSpec(syms, [(ExponentVector(), 1.0), (ExponentVector({"L2": 1}), 1.0)])


def two_three() -> SeriesSpec:
    syms = SymbolTable([("L2", LOG2), ("L3", math.log(3))])
    return SeriesSpec(
        syms, [(ExponentVector({"L2": 1}), 1.0), (ExponentVector({"L3": 1}), 1.0)]
    )


class TestCountZeros:
    def test_single_zero_in_window(self):
        # zeros at sigma = 0, t = (2k+1) pi / log 2: only t ~ 4.5324 in [0, 10]
        assert count_zeros(one_plus_two(), 0.0, Rectangle((-1, 1), (0, 10))) == 1

    def test_empty_window(self):
        # next zero is at 3 pi / log 2 ~ 13.6
        assert count_zeros(one_plus_two(), 0.0, Rectangle((-1, 1), (6, 12))) == 0

    def test_nonvanishing_exponential(self):
        syms = SymbolTable([("L2", LOG2)])
        spec = SeriesSpec(syms, [(ExponentVector({"L2": 1}), 1.0)])
        assert count_zeros(spec, 0.0, Rectangle((-3, 3), (-5, 5))) == 0

    def test_multiple_zeros_counted(self):
        # [0, 20] holds t = pi/log2 and 3 pi/log2
        assert count_zeros(one_plus_two(), 0.0, Rectangle((-1, 1), (0, 20))) == 2

    def test_constant_series_degenerate(self):
        syms = SymbolTable([("L2", LOG2)])
        spec = SeriesSpec(syms, [(ExponentVector(), 2.5)])
        with pytest.raises(DegenerateTarget):
            count_zeros(spec, 2.5, Rectangle((0, 1), (0, 1)))
        assert count_zeros(spec, 1.0, Rectangle((0, 1), (0, 1))) == 0

    def test_one_term_difference_has_no_zero(self):
        # f - v of one term: a nonzero constant, or one exponential, whose
        # modulus may lie within the margin everywhere; no contour is walked
        syms = SymbolTable([("L2", LOG2)])
        constant = SeriesSpec(syms, [(ExponentVector(), 2.5)])
        assert count_zeros(constant, 2.5 + 1e-9, Rectangle((0, 1), (0, 1))) == 0
        one_term = SeriesSpec(syms, [(ExponentVector({"L2": 1}), 1.0)])
        assert count_zeros(one_term, 0.0, Rectangle((40, 41), (0, 1))) == 0

    def test_winding_defect_small(self):
        _, defect = winding_number(one_plus_two(), 0.0, Rectangle((-1, 1), (0, 10)))
        assert defect < 1e-6

    def test_zero_on_contour_refuses_loudly(self):
        # the left edge sigma = 0 passes through the zero at t = pi/log2;
        # refinement must surface it instead of miscounting
        from bohreq.errors import BoundaryTooClose, NonconvergentSubdivision

        with pytest.raises((BoundaryTooClose, NonconvergentSubdivision)):
            count_zeros(one_plus_two(), 0.0, Rectangle((0.0, 1.0), (4.0, 5.0)))

    @pytest.mark.parametrize("steps", [0, -1, 2.5])
    def test_steps_below_one_rejected(self, steps):
        # the rectangle holds 6 zeros of 1 + 2^{-s}; no step count may hide
        # them, and a fractional one would sample past each side's end
        rect = Rectangle((-1, 1), (-30, 30))
        with pytest.raises(BadRange):
            count_zeros(one_plus_two(), 0.0, rect, steps)
        with pytest.raises(BadRange):
            sigma_star(one_plus_two(), 0.0, (-30, 30), sigma_floor=-5.0, steps=steps)
        with pytest.raises(BadRange):
            attains_value(one_plus_two(), 0.0, -1.0, 1.0, (-30, 30), steps)
        # entry points that can answer without walking a contour refuse it too
        syms = SymbolTable([("L2", LOG2)])
        one_term = SeriesSpec(syms, [(ExponentVector({"L2": 1}), 1.0)])
        with pytest.raises(BadRange):
            sigma_star(one_term, 0.0, (-5, 5), -5.0, steps=steps)

    def test_degenerate_rectangle_rejected(self):
        # finite ends whose span is beyond a double are refused as given,
        # not as the NaN points the walk would make between them
        for bad in ((1.0, 1.0), (1.0, 0.0), (0.0, math.inf), (math.nan, 1.0), (-1e308, 1e308)):
            with pytest.raises(BadRange, match=re.escape(f"span hi - lo, got sigma range {bad}")):
                Rectangle(bad, (0.0, 1.0))
            with pytest.raises(BadRange, match=re.escape(f"span hi - lo, got t range {bad}")):
                Rectangle((0.0, 1.0), bad)

    def test_steps_at_the_sample_cap_rejected(self):
        # steps + 1 first samples must fit in the cap on a side's samples,
        # whatever refinement adds; one step fewer is walked
        rect, cap = Rectangle((-1, 1), (0, 10)), zeros.MAX_SIDE_SAMPLES
        message = f"need steps < MAX_SIDE_SAMPLES = {cap}, got {cap}"
        with pytest.raises(BadRange, match=message):
            count_zeros(one_plus_two(), 0.0, rect, cap)
        with pytest.raises(BadRange, match=message):
            sigma_star(one_plus_two(), 0.0, (-30, 30), sigma_floor=-5.0, steps=cap)
        with pytest.raises(BadRange, match=message):
            attains_value(one_plus_two(), 0.0, -1.0, 1.0, (-30, 30), cap)
        assert count_zeros(one_plus_two(), 0.0, rect, cap - 1) == 1

    def test_conjugate_symmetry(self):
        # real coefficients: zeros come in conjugate pairs
        spec = one_plus_two()
        pairs = [((2.0, 6.0), (-6.0, -2.0)), ((0.5, 14.0), (-14.0, -0.5))]
        for (a, b), (c, d) in pairs:
            up = count_zeros(spec, 0.0, Rectangle((-1, 1), (a, b)))
            down = count_zeros(spec, 0.0, Rectangle((-1, 1), (c, d)))
            assert up == down

    def test_additivity_over_partitions(self):
        rng = random.Random(888)
        spec = one_plus_two()
        zero_ts = [math.pi / LOG2, 3 * math.pi / LOG2]  # 4.5324, 13.5972
        done = 0
        while done < 20:
            lo = rng.uniform(-2.0, 3.0)
            hi = lo + rng.uniform(3.0, 14.0)
            cut = rng.uniform(lo + 0.5, hi - 0.5)
            edges = (lo, hi, cut)
            if any(abs(e - z) < 0.3 for e in edges for z in zero_ts):
                continue
            whole = count_zeros(spec, 0.0, Rectangle((-1, 1), (lo, hi)))
            parts = count_zeros(spec, 0.0, Rectangle((-1, 1), (lo, cut))) + count_zeros(
                spec, 0.0, Rectangle((-1, 1), (cut, hi))
            )
            assert whole == parts
            done += 1


class TestSigmaStar:
    def test_zero_target(self):
        value = sigma_star(one_plus_two(), 0.0, (0, 20), sigma_floor=-5.0, tol=1e-3)
        assert value == pytest.approx(0.0, abs=1e-3)

    def test_value_three(self):
        # 2^{-s} = 2 forces sigma = -1; the t = 0 zero sits on the window edge
        # and is caught by the outward padding ladder
        value = sigma_star(one_plus_two(), 3.0, (0, 20), sigma_floor=-5.0, tol=1e-3)
        assert value == pytest.approx(-1.0, abs=1e-3)

    def test_unattained_value(self):
        # 2^{-s} never vanishes, so f = 1 is never attained
        value = sigma_star(one_plus_two(), 1.0, (0, 20), sigma_floor=-5.0, tol=1e-3)
        assert value == float("-inf")

    def test_consistency_of_returned_abscissa(self):
        spec = one_plus_two()
        tol = 1e-3
        got = sigma_star(spec, 0.0, (0, 20), sigma_floor=-5.0, tol=tol)
        # no zeros strictly to the right, at least one a hair to the left
        assert count_zeros(spec, 0.0, Rectangle((got + 2 * tol, 5.0), (0, 20))) == 0
        assert count_zeros(spec, 0.0, Rectangle((got - 2 * tol, 5.0), (0, 20))) >= 1

    def test_bad_window(self):
        # an infinite edge is refused as the caller gave it, not as the
        # (nan, nan) its first jitter would make of it
        for window in ((5, 5), (0, math.inf), (-math.inf, 0), (math.nan, 1), (-1e308, 1e308)):
            with pytest.raises(BadRange, match=re.escape(f"span hi - lo, got t window {window}")):
                sigma_star(one_plus_two(), 0.0, window, sigma_floor=-5.0)


class TestAttainsValue:
    def test_attained_at_real_point(self):
        # f(1) = 5/6 for 2^{-s} + 3^{-s}
        assert attains_value(two_three(), 5.0 / 6.0, 0.9, 1.1, (-1, 1))

    def test_oversized_value_never_attained(self):
        assert not attains_value(two_three(), 10.0, 0.0, 2.0, (-5, 5))

    def test_value_inside_cloud_attained(self):
        f = scenarios.bohr_example(4)
        v = evaluate(f, complex(2.0, 0.0)) + 0.001
        assert attains_value(f, v, 1.9, 2.1, (-60, 60))

    def test_bad_strip(self):
        # a span beyond a double is refused as given, where each rung's
        # inset would have been NaN and the ladder empty
        for sigmas in ((1.0, 1.0), (0.0, math.inf), (-math.inf, 1.0), (-1e308, 1e308)):
            with pytest.raises(BadRange, match=re.escape(f"span hi - lo, got sigma range {sigmas}")):
                attains_value(two_three(), 0.5, *sigmas, (-1, 1))
        for window in ((1, -1), (0, math.inf), (-math.inf, math.inf), (-1e308, 1e308)):
            with pytest.raises(BadRange, match=re.escape(f"span hi - lo, got t window {window}")):
                attains_value(two_three(), 0.5, 0.9, 1.1, window)

    def test_narrow_strip_raises_the_last_clipping_error(self):
        # |f - v| = 1e-12 |2^{-s} + 3^{-s}| <= 2e-12 lies within the margin
        # 2e-8 everywhere, so every rectangle clips; the last jitter's inset,
        # 6.7e-5, would empty the strip of width 1e-4, so that rung is
        # skipped, not turned inside out
        syms = SymbolTable([("L2", LOG2), ("L3", math.log(3))])
        spec = SeriesSpec(
            syms,
            [
                (ExponentVector(), 1.0),
                (ExponentVector({"L2": 1}), 1e-12),
                (ExponentVector({"L3": 1}), 1e-12),
            ],
        )
        with pytest.raises(BoundaryTooClose) as info:
            attains_value(spec, 1.0, -5e-5, 5e-5, (0.0, 10.0))
        assert -5e-5 < info.value.point.real < 5e-5
        # with one exponential left, f - v = 1e-12 2^{-s} has no zero at all
        one_term = SeriesSpec(syms, spec.terms[:2])
        assert not attains_value(one_term, 1.0, -5e-5, 5e-5, (0.0, 10.0))


# -- the array walk against the depth-first scalar walk -----------------------


def reference_side(spec, v, a, b, first, margin, depth=None):
    """The depth-first scalar walk: one phase per piece, and one evaluation
    for the zeros.SPLIT - 1 inner points of each rejected piece.

    `first` is steps, for the evenly spaced parameters j / steps, or
    (steps, grid), for a sorted grid of parameters from 0 to 1; either way
    the side is charged steps + 1 samples before its own cuts.  Sums the
    accepted increments left to right along the side and returns the total
    and the sorted parameters of every point sampled.  It evaluates
    through `zeros.evaluate`, so a test that records that name sees its
    points.  `depth`, a one-element list, gets the deepest refinement level
    reached.
    """

    def w_at(p):
        s = a + (b - a) * p
        w = zeros.evaluate(spec, s) - v
        close = np.flatnonzero(np.abs(w) <= margin)
        if close.size:
            i = close[0]
            raise BoundaryTooClose(complex(np.ravel(s)[i]), float(abs(np.ravel(w)[i])), margin)
        return w

    steps, grid = first if isinstance(first, tuple) else (first, None)
    ps = np.arange(steps + 1) / steps if grid is None else np.asarray(grid)
    samples = list(zip(ps.tolist(), w_at(ps).tolist()))
    sampled = ps.tolist()
    count = steps + 1
    total = 0.0
    for i in range(len(samples) - 1):
        stack = [(*samples[i], *samples[i + 1], 0)]
        while stack:
            p1, w1, p2, w2, level = stack.pop()
            if depth is not None:
                depth[0] = max(depth[0], level)
            delta = cmath.phase(w2 / w1)
            if abs(delta) <= zeros.HALF_PI:
                total += delta
                continue
            count += zeros.SPLIT - 1
            if count > zeros.MAX_SIDE_SAMPLES:
                raise NonconvergentSubdivision(f"side {a} -> {b} needed more samples")
            inner = [p1 + (p2 - p1) * (j / zeros.SPLIT) for j in range(1, zeros.SPLIT)]
            sampled += inner
            cut = list(zip([p1, *inner, p2], [w1, *w_at(np.array(inner)).tolist(), w2]))
            for (q1, v1), (q2, v2) in reversed(list(zip(cut, cut[1:]))):
                stack.append((q1, v1, q2, v2, level + 1))
    return total, np.sort(sampled)


def reference_walk(spec, v, segments, margin, depth=None):
    """`zeros._walk` with the scalar walk on each segment in turn."""
    walked = [reference_side(spec, v, a, b, first, margin, depth) for a, b, first in segments]
    return [total for total, _ in walked], [sampled for _, sampled in walked].__getitem__


def sides(rect, steps=256):
    """The rectangle's four sides as walked, counterclockwise from the bottom."""
    c = rect.corners()
    return [(a, b, steps) for a, b in zip(c, c[1:] + c[:1])]


def reference_winding(spec, v, rect, steps=256, depth=None):
    """winding_number with the scalar walk on each side."""
    v = complex(v)
    total = 0.0
    for side in reference_walk(spec, v, sides(rect, steps), boundary_margin(v), depth)[0]:
        total += side
    turns = round(total / zeros.TWO_PI)
    return int(turns), abs(total - zeros.TWO_PI * turns)


def poly_in_exp(coeffs) -> SeriesSpec:
    """P(e^{-s}) = sum_k c_k e^{-k s}."""
    syms = SymbolTable([("ONE", 1.0)])
    return SeriesSpec(syms, [(ExponentVector({"ONE": k}), c) for k, c in enumerate(coeffs)])


def random_poly(rng: random.Random, degree: int = 16) -> SeriesSpec:
    return poly_in_exp(
        [
            rng.uniform(0.5, 1.5) * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
            for _ in range(degree + 1)
        ]
    )


def harmonic_30() -> SeriesSpec:
    return scenarios.ordinary_series([(n, 1.0 / n) for n in range(1, 31)])


def walk_cases():
    """Seeded (spec, v, rectangle) triples over the three benchmark families."""
    rng = random.Random(1313)
    cases = []
    for _ in range(6):
        s0 = complex(rng.uniform(-0.3, 0.3), rng.uniform(-3.0, 3.0))
        spec = random_poly(rng)
        v = evaluate(spec, s0)
        lo = rng.uniform(-3.0, -1.0)
        t0 = rng.uniform(-4.0, 0.0)
        sigma = (lo, lo + rng.uniform(1.5, 3.0))
        cases.append((spec, v, Rectangle(sigma, (t0, t0 + rng.uniform(3.0, 7.0)))))
    spec = harmonic_30()
    for _ in range(4):
        v = evaluate(spec, complex(rng.uniform(0.6, 1.0), rng.uniform(-12.0, 12.0)))
        window = (rng.uniform(-21, -19), rng.uniform(19, 21))
        cases.append((spec, v, Rectangle((rng.uniform(-0.2, 0.3), 2.0), window)))
    spec = scenarios.bohr_example(8)
    for _ in range(4):
        v = evaluate(spec, complex(rng.uniform(0.2, 0.6), rng.uniform(-5.0, 5.0)))
        sigma = (rng.uniform(-2.0, 0.0), rng.uniform(1.0, 3.0))
        cases.append((spec, v, Rectangle(sigma, (-10.0, 10.0))))
    return cases


def reference_sigma_star(spec, v, t_window, sigma_floor, tol=1e-3, steps=256, warm=False):
    """sigma_star walking a whole contour per bisection step: one count_zeros
    on [c, sigma_top] x window, each shifted edge through its own padding
    ladder, the unshifted edge's error raised when none clears.  With `warm`,
    a step's contour is walked by `reference_walk` instead, its left side
    starting from the parameters sampled by the last left side that cleared
    (steps on the first step, and again after a grid beyond
    zeros.MAX_SIDE_SAMPLES)."""
    profile = zeros._merged_against(spec, complex(v))
    if len(profile) == 1:
        return float("-inf")
    sigma_top = zeros._dominance_sigma_top(profile, sigma_floor)
    if sigma_top <= sigma_floor:
        return float("-inf")
    grid = [steps]

    def count(rect):
        if not warm:
            return count_zeros(spec, v, rect, steps)
        *rest, (a, b, _) = sides(rect, steps)
        totals, sampled = reference_walk(spec, v, [*rest, (a, b, grid[0])], boundary_margin(v))
        inside = zeros._turns(sum(totals))[0]
        grid[0] = (steps, sampled(3)) if len(sampled(3)) <= zeros.MAX_SIDE_SAMPLES else steps
        return inside

    def first_count(ladders, count=count):
        first = None
        for ladder in ladders:
            last = None
            for rect in ladder:
                try:
                    return rect, count(rect)
                except (BoundaryTooClose, NonconvergentSubdivision) as err:
                    last = err
            first = first or last
        raise first

    strip = zeros._t_padded((sigma_floor, sigma_top), t_window)
    _, inside = first_count([strip], lambda rect: count_zeros(spec, v, rect, steps))
    if inside == 0:
        return float("-inf")
    lo, hi = sigma_floor, sigma_top
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        edges = (mid + shift * (hi - lo) * 0.25 for shift in (0.0, 0.137, -0.211, 0.331))
        ladders = (zeros._t_padded((c, sigma_top), t_window) for c in edges if lo < c < hi)
        rect, inside = first_count(ladders)
        if inside > 0:
            lo = rect.sigma_range[0]
        else:
            hi = rect.sigma_range[0]
    return 0.5 * (lo + hi)


def sigma_star_cases():
    """Seeded (spec, v, t_window, sigma_floor, tol) over the benchmark's three
    families and the closed-form targets of 1 + 2^{-s}."""
    rng = random.Random(1515)
    cases = []
    h30 = harmonic_30()
    for _ in range(6):
        v = evaluate(h30, complex(rng.uniform(0.6, 1.0), rng.uniform(-12.0, 12.0)))
        cases.append((h30, v, (-20.0, 20.0), -1.0, 1e-3))
    for _ in range(6):
        poly = random_poly(rng)
        v = evaluate(poly, complex(rng.uniform(-0.3, 0.3), rng.uniform(-3.0, 3.0)))
        t0 = rng.uniform(-4.0, 0.0)
        cases.append((poly, v, (t0, t0 + 2 * math.pi), rng.uniform(-3.0, -1.0), 1e-4))
    bohr = scenarios.bohr_example(8)
    for _ in range(6):
        v = evaluate(bohr, complex(rng.uniform(0.2, 0.6), rng.uniform(-5.0, 5.0)))
        cases.append((bohr, v, (-10.0, 10.0), -2.0, 1e-3))
    f = one_plus_two()
    for v in (0.0, 3.0, 1.0, evaluate(f, 1.0), evaluate(f, 2.0), -0.5 + 0.25j):
        cases.append((f, v, (0.0, 20.0), -5.0, 1e-3))
    return cases


class TestArrayWalk:
    def test_matches_scalar_walk(self):
        bisected = 0
        for spec, v, rect in walk_cases():
            depth = [0]
            turns, defect = reference_winding(spec, v, rect, depth=depth)
            got_turns, got_defect = winding_number(spec, v, rect)
            assert got_turns == turns
            # the increments' last bits may differ (NumPy's division and
            # arctan2 round apart from cmath's), never the count
            assert abs(got_defect - defect) <= 1e-12
            bisected += depth[0] > 0
        assert bisected >= 3  # the cases exercise the refinement levels

    def test_sigma_star_matches_scalar_walk(self, monkeypatch):
        rng = random.Random(2626)
        poly, h30, bohr = random_poly(rng), harmonic_30(), scenarios.bohr_example(8)
        cases = [
            (one_plus_two(), 0.0, (0, 20), -5.0, 1e-3),
            (one_plus_two(), 3.0, (0, 20), -5.0, 1e-3),
            (poly, evaluate(poly, complex(0.1, 1.0)), (0.5, 0.5 + 2 * math.pi), -3.0, 1e-4),
            (h30, evaluate(h30, complex(0.8, 3.0)), (-20.0, 20.0), -1.0, 1e-3),
            (bohr, evaluate(bohr, complex(0.4, 2.0)), (-10.0, 10.0), -2.0, 1e-3),
        ]
        got = [sigma_star(f, v, w, floor, tol) for f, v, w, floor, tol in cases]
        monkeypatch.setattr(zeros, "_walk", reference_walk)
        want = [sigma_star(f, v, w, floor, tol) for f, v, w, floor, tol in cases]
        assert got == want
        assert all(math.isfinite(x) for x in got)

    def test_profile_matches_scalar_walk(self, monkeypatch):
        # a batch of four sides evaluates exactly the points that the scalar
        # walk evaluates side by side, and reports the same parameters; each
        # side's total equals the scalar one up to the increments' last bits,
        # and a walk of that side alone or in a shuffled batch to the bit
        rng = random.Random(1919)
        points = []

        def recording(spec, s):
            points.append(np.ravel(s))
            return evaluate(spec, s)

        monkeypatch.setattr(zeros, "evaluate", recording)
        for spec, v, rect in walk_cases():
            margin = boundary_margin(v)
            points.clear()
            got, sampled = zeros._walk(spec, v, sides(rect), margin)
            walked = np.sort_complex(np.concatenate(points))
            points.clear()
            want, want_sampled = reference_walk(spec, v, sides(rect), margin)
            assert np.array_equal(walked, np.sort_complex(np.concatenate(points)))
            assert all(np.array_equal(sampled(i), want_sampled(i)) for i in range(4))
            assert np.allclose(got, want, rtol=0.0, atol=1e-12)
            assert got == [zeros._walk(spec, v, [side], margin)[0][0] for side in sides(rect)]
            order = rng.sample(range(4), 4)
            shuffled, _ = zeros._walk(spec, v, [sides(rect)[i] for i in order], margin)
            assert [shuffled[order.index(i)] for i in range(4)] == got

    def test_one_array_call_per_level(self, monkeypatch):
        # every evaluation of a walk takes an array, and a contour makes one
        # call for the samples of its four sides plus one per refinement level
        # of its deepest side
        shapes = []

        def recording(spec, point):
            shapes.append(np.shape(point))
            return evaluate(spec, point)

        for spec, v, rect in walk_cases():
            depth = [0]
            reference_winding(spec, v, rect, depth=depth)
            shapes.clear()
            monkeypatch.setattr(zeros, "evaluate", recording)
            count_zeros(spec, v, rect)
            monkeypatch.undo()
            assert len(shapes) <= 1 + depth[0]
            assert all(len(shape) == 1 for shape in shapes)

    def test_each_level_cuts_each_rejected_piece_into_split_pieces(self, monkeypatch):
        # on the side from c to c + 16i the walk's points are c + 16 p i to
        # the bit, so each parameter p is read back exactly.  Level L adds
        # the SPLIT - 1 inner points j / (steps SPLIT^L) of every piece of
        # level L - 1 whose increment exceeds pi/2, and of no other piece
        spec, v, steps = one_plus_two(), 0.0, 64
        a, b = complex(1e-4, 0.0), complex(1e-4, 16.0)
        calls = []

        def recording(spec, s):
            calls.append(np.imag(s) / 16.0)
            return evaluate(spec, s)

        monkeypatch.setattr(zeros, "evaluate", recording)
        zeros._walk(spec, v, [(a, b, steps)], boundary_margin(v))
        monkeypatch.undo()

        def rejected(ends):
            w = (evaluate(spec, a + (b - a) * ends.ravel()) - v).reshape(ends.shape)
            ratio = w[:, 1] / w[:, 0]
            return ~((np.abs(np.angle(ratio)) <= zeros.HALF_PI) & np.isfinite(ratio))

        assert np.array_equal(calls[0], np.arange(steps + 1) / steps)
        ends = np.column_stack([calls[0][:-1], calls[0][1:]])
        for level, points in enumerate(calls[1:], start=1):
            rows = points.reshape(-1, zeros.SPLIT - 1)
            parents = ends[rejected(ends)]
            assert len(rows) == len(parents) > 0
            grid = rows * (steps * zeros.SPLIT**level)
            first = parents[:, :1] * (steps * zeros.SPLIT**level)
            assert np.array_equal(grid - first, np.tile(np.arange(1, zeros.SPLIT), (len(rows), 1)))
            cuts = np.column_stack([parents[:, 0], rows, parents[:, 1]])
            ends = np.stack([cuts[:, :-1], cuts[:, 1:]], axis=-1).reshape(-1, 2)
        assert len(calls) >= 3 and not rejected(ends).any()


class TestWalkErrors:
    def test_sample_cap_is_enforced(self, monkeypatch):
        # the left edge runs 1e-7 to the right of the 22 zeros of 1 + 2^{-s}
        # on sigma = 0 with t in [0, 200]; each bends the argument by about pi
        # within ~1e-7 of t, so the side needs several hundred more points.
        # The array walk and the scalar walk count the samples of a side
        # alike: each raises exactly when the cap is below the side's total
        rect = Rectangle((1e-7, 1.0), (0.0, 200.0))
        assert count_zeros(one_plus_two(), 0.0, rect) == 0
        left, margin, sizes = sides(rect)[3], boundary_margin(0.0), []

        def recording(spec, s):
            sizes.append(np.size(s))
            return evaluate(spec, s)

        monkeypatch.setattr(zeros, "evaluate", recording)
        zeros._walk(one_plus_two(), 0.0, [left], margin)
        total = sum(sizes)
        assert total > 300
        for walk in (zeros._walk, reference_walk):
            monkeypatch.setattr(zeros, "MAX_SIDE_SAMPLES", total)
            walk(one_plus_two(), 0.0, [left], margin)
            monkeypatch.setattr(zeros, "MAX_SIDE_SAMPLES", total - 1)
            with pytest.raises(NonconvergentSubdivision):
                walk(one_plus_two(), 0.0, [left], margin)
        monkeypatch.setattr(zeros, "MAX_SIDE_SAMPLES", 300)
        with pytest.raises(NonconvergentSubdivision):
            count_zeros(one_plus_two(), 0.0, rect)

    def test_negative_count_is_refused(self):
        # on the second walk case, steps=16 samples too coarsely to follow the
        # argument: the walk summed to -2 and -3 turns, impossible for f - v,
        # which has no poles; steps=256 counts 14 and 1
        spec, v, own = walk_cases()[1]
        wide = Rectangle((-2.3827, 5.0), (-2.2921, 3.2725))
        for rect, count in ((wide, 14), (own, 1)):
            with pytest.raises(NonconvergentSubdivision, match="zeros: the walk missed turns"):
                count_zeros(spec, v, rect, steps=16)
            assert count_zeros(spec, v, rect, steps=256) == count

    def test_argument_off_a_whole_turn_is_refused(self):
        # a closed boundary's argument is a multiple of 2pi; a total more
        # than WINDING_DEFECT_LIMIT away from one is a walk that lost track
        limit = zeros.WINDING_DEFECT_LIMIT
        assert zeros._turns(zeros.TWO_PI + 0.5 * limit) == (1, pytest.approx(0.5 * limit))
        for total in (zeros.TWO_PI + 2.0 * limit, -2.0 * limit, 1.0):
            with pytest.raises(NonconvergentSubdivision, match="away from a 2pi multiple"):
                zeros._turns(total)

    def test_too_close_midpoint_reports_a_point_of_its_side(self):
        # the left edge sigma = 0 passes through the zero at t = pi / log 2,
        # between two samples: a point of a cut piece lands within the margin
        spec, v = one_plus_two(), 0.0
        margin = boundary_margin(v)
        with pytest.raises(BoundaryTooClose) as info:
            count_zeros(spec, v, Rectangle((0.0, 1.0), (4.0, 5.0)))
        err = info.value
        assert err.point.real == 0.0 and 4.0 < err.point.imag < 5.0
        assert err.point.imag * 256 % 1 != 0  # a point of a cut piece, not a sample
        assert err.modulus <= margin == err.margin
        assert abs(evaluate(spec, err.point) - v) <= margin

    def test_overflow_raises_precision_limit_at_once(self):
        # 30^{800} and 30^{400} are beyond a double; f = 1.5e308 + 2^{-s} and
        # v = -1.5e308 are finite, f - v is not; for f = 1.5e308 i + 2^{-s},
        # f - v is finite and |f - v| is not.  The walk refuses at the first
        # sample instead of cutting to the cap on every ladder rung, and
        # NumPy warns of nothing.  On f of at most two nonzero coefficients
        # the coefficients of f - v refuse before any walk (in sigma_star
        # always); with a third term, count_zeros walks, and the walk refuses
        syms = SymbolTable([("L2", LOG2), ("L3", math.log(3))])
        big = SeriesSpec(syms, [(ExponentVector(), 1.5e308), (ExponentVector({"L2": 1}), 1.0)])
        turned = SeriesSpec(syms, [(ExponentVector(), 1.5e308j), (ExponentVector({"L2": 1}), 1.0)])
        big3 = SeriesSpec(syms, [*big.terms, (ExponentVector({"L3": 1}), 1.0)])
        cases = [
            (harmonic_30(), 0.5, (-800.0, -700.0), -400.0, "the value at"),
            (big3, -1.5e308, (0.0, 1.0), -1.0, r"f\(s\) - v at 0j is \(inf"),
            (big, -1.5e308, (0.0, 1.0), -1.0, r"coefficient of f - v at exponent 0.0 is \(inf"),
            (turned, -1.5e308, (0.0, 1.0), -1.0, "coefficient of f - v at exponent 0.0 is"),
        ]
        start = time.process_time()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for spec, v, sigmas, floor, message in cases:
                with pytest.raises(PrecisionLimit, match=message):
                    count_zeros(spec, v, Rectangle(sigmas, (0.0, 1.0)))
                with pytest.raises(PrecisionLimit, match="not a finite double"):
                    sigma_star(spec, v, (-5.0, 5.0), sigma_floor=floor)
                with pytest.raises(PrecisionLimit, match="not a finite double"):
                    attains_value(spec, v, *sigmas, (0.0, 1.0))
        assert time.process_time() - start < 1.0

    def test_overflowing_ratio_is_halved(self):
        # f = 1e-7 + e^{-1000 s}: |f| runs from 1e-7 to 8e307 along the top
        # side, one segment, so w2 / w1 is beyond a double there; NumPy makes
        # it inf - inf i, whose angle -pi/4 is 0.13 off the true -0.92.  The
        # segment is cut instead of accepted, and NumPy warns of nothing
        spec = SeriesSpec(
            SymbolTable([("A", 1000.0)]),
            [(ExponentVector(), 1e-7), (ExponentVector({"A": 1}), 1.0)],
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            turns, defect = winding_number(
                spec, 0.0, Rectangle((-0.709, 0.0184), (0.0, 1e-3)), steps=1
            )
        assert turns == 0 and defect < 1e-12

    @pytest.mark.parametrize(
        "v",
        [
            math.nan,
            math.inf,
            complex(0.0, math.nan),
            complex(-math.inf, 1.0),
            complex(1.5e308, -1.5e308),
        ],
    )
    def test_non_finite_target_refused(self, v):
        spec = one_plus_two()
        with pytest.raises(BadRange, match="finite target"):
            winding_number(spec, v, Rectangle((-1, 1), (0, 10)))
        with pytest.raises(BadRange, match="finite target"):
            count_zeros(spec, v, Rectangle((-1, 1), (0, 10)))
        with pytest.raises(BadRange, match="finite target"):
            sigma_star(spec, v, (0, 20), sigma_floor=-5.0)
        with pytest.raises(BadRange, match="finite target"):
            attains_value(spec, v, -1.0, 1.0, (0, 10))

    @pytest.mark.parametrize("floor", [math.nan, math.inf, -math.inf])
    def test_non_finite_sigma_floor_refused(self, floor):
        with pytest.raises(BadRange, match="sigma_floor"):
            sigma_star(one_plus_two(), 0.0, (0, 20), sigma_floor=floor)


#: The t windows of the jitter ladder around (-5, 5), in the order tried.
PADDED_WINDOWS = [
    (-5.0, 5.0),
    (-5.00000341, 5.00000341),
    (-5.0000209, 5.0000209),
    (-5.000121, 5.000121),
    (-5.000737, 5.000737),
]


class TestLadder:
    @staticmethod
    def clipping(monkeypatch) -> list[Rectangle]:
        """Make count_zeros raise BoundaryTooClose at a point naming the
        rectangle; returns the log."""
        tried = []

        def fake(spec, v, rect, steps=256):
            tried.append(rect)
            raise BoundaryTooClose(complex(rect.sigma_range[0], rect.t_range[1]), 0.0, 1.0)

        monkeypatch.setattr(zeros, "count_zeros", fake)
        return tried

    def test_attains_value_order(self, monkeypatch):
        tried = self.clipping(monkeypatch)
        with pytest.raises(BoundaryTooClose) as info:
            attains_value(one_plus_two(), 0.0, -1.0, 1.0, (0.0, 10.0))
        assert [(r.sigma_range, r.t_range) for r in tried] == [
            ((-1.0, 1.0), (0.0, 10.0)),
            ((-0.99999907, 0.99999907), (-3.41e-06, 10.00000341)),
            ((-0.9999943, 0.9999943), (-2.09e-05, 10.0000209)),
            ((-0.999967, 0.999967), (-0.000121, 10.000121)),
            ((-0.999799, 0.999799), (-0.000737, 10.000737)),
        ]
        assert info.value.point == complex(-0.999799, 10.000737)

    def test_sigma_star_order(self, monkeypatch):
        # the strip [-1, 2] clips a zero on its first four windows and holds
        # one in its last; then every shifted bisection edge clips one.  Each
        # batch that clips raises at the start of its first segment: the
        # strip's bottom side, or the step's left edge
        t0, t1 = PADDED_WINDOWS[-1]
        walks = []

        def fake(spec, v, segments, margin):
            walks.append(segments)
            if all(
                {a.real, b.real} <= {-1.0, 2.0} and {a.imag, b.imag} <= {t0, t1}
                for a, b, _ in segments
            ):
                return [zeros.HALF_PI] * len(segments), lambda i: np.array([0.0, 1.0])
            raise BoundaryTooClose(segments[0][0], 0.0, 1.0)

        monkeypatch.setattr(zeros, "_walk", fake)
        with pytest.raises(BoundaryTooClose) as info:
            sigma_star(harmonic_30(), 0.5, (-5.0, 5.0), -1.0)
        edges = [0.5, 0.60275, 0.34175, 0.7482500000000001]
        # the bottom and top pieces to hi = 2 take the strip's density
        pieces = [math.ceil(256 * (2.0 - edge) / 3.0) for edge in edges]
        assert walks == (
            [sides(Rectangle((-1.0, 2.0), window)) for window in PADDED_WINDOWS]
            + [
                [
                    (complex(edge, t1), complex(edge, t0), 256),
                    (complex(edge, t0), complex(2.0, t0), n),
                    (complex(2.0, t1), complex(edge, t1), n),
                ]
                for edge, n in zip(edges, pieces)
            ]
        )
        # the error is the unshifted edge's
        assert info.value.point == complex(0.5, t1)

    def test_clipped_bisection_edge_raises_the_unshifted_error(self, monkeypatch):
        # bisecting to 1e-12 brings the edge within the margin of the zero
        # that sets sigma*; no shift dodges it, and the unshifted edge's own
        # error is raised without walking it again
        spec = harmonic_30()
        walks = []
        walk = zeros._walk

        def counting(spec, v, segments, margin):
            walks.append(segments)
            return walk(spec, v, segments, margin)

        monkeypatch.setattr(zeros, "_walk", counting)
        with pytest.raises(BoundaryTooClose) as info:
            sigma_star(spec, 0.5, (-5.0, 5.0), -1.0, tol=1e-12)
        # the strip, one batch per bisection step, and the four edges of the
        # last step
        assert len(walks) == 31
        # the last step's four edges, unshifted first, each its batch's left side
        unshifted = walks[-4][0][0]
        assert [(a.imag, b.imag) for (a, b, _), *_ in walks[-4:]] == [(5.0, -5.0)] * 4
        assert info.value.point.real == unshifted.real
        assert -5.0 < info.value.point.imag < 5.0
        clipped = 0.15382111817598343 + 3.3243053406476974j
        assert info.value.point == pytest.approx(clipped, rel=1e-12)
        assert abs(evaluate(spec, info.value.point) - 0.5) <= info.value.margin

    def test_attains_value_skips_insets_that_empty_the_strip(self, monkeypatch):
        tried = self.clipping(monkeypatch)
        with pytest.raises(BoundaryTooClose) as info:
            attains_value(one_plus_two(), 0.0, -5e-5, 5e-5, (0.0, 10.0))
        assert len(tried) == len(zeros._JITTERS) - 1
        assert all(-5e-5 <= r.sigma_range[0] < r.sigma_range[1] <= 5e-5 for r in tried)
        assert info.value.point.real == tried[-1].sigma_range[0]

    def test_bracket_of_adjacent_doubles_ends_the_bisection(self, monkeypatch):
        # 1e9 - 1e9 e^{26} e^{-20 s} vanishes at s = 1.3 with |f'| = 2e10 there,
        # so one ulp off the zero |f| is far above the margin and no edge
        # clips it: a tol below one ulp must stop at adjacent doubles
        spec = SeriesSpec(
            SymbolTable([("ONE", 1.0)]),
            [(ExponentVector(), 1e9), (ExponentVector({"ONE": 20}), -1e9 * math.exp(26.0))],
        )
        batches = 0
        walk = zeros._walk

        def counting(spec, v, segments, margin):
            # the strip, then one batch per bisection step
            nonlocal batches
            batches += 1
            assert batches < 200, "the bisection does not end"
            return walk(spec, v, segments, margin)

        monkeypatch.setattr(zeros, "_walk", counting)
        got = sigma_star(spec, 0.0, (-0.1, 0.13), 0.0, tol=1e-17)
        assert got == pytest.approx(1.3, abs=1e-15)


class TestStripWalk:
    def test_matches_whole_contour_per_step(self):
        got = [sigma_star(*case) for case in sigma_star_cases()]
        assert got == [reference_sigma_star(*case) for case in sigma_star_cases()]
        assert sum(math.isfinite(x) for x in got) >= 20

    def test_coarse_steps_match_whole_contour_per_step(self, monkeypatch):
        # with 3 steps a side, a step's bottom and top pieces are a single
        # segment, which sometimes turns by more than pi/2 and is cut;
        # the results still match a whole contour per step whose left side
        # starts, as sigma_star's does, from the last cleared left side's
        # parameters.  Against a whole contour per step started evenly
        # spaced, and steps=256: that oracle agrees with steps=256 on 21 of
        # the 80, sigma_star on 66, which hold those 21; where the two agree
        # with each other, they do to the bit
        rng = random.Random(5)
        walk, evaluate_ = zeros._walk, zeros.evaluate
        batch, bisected = [], [0]
        tally, same = dict.fromkeys(itertools.product((True, False), repeat=2), 0), 0

        def recording_walk(spec, v, segments, margin):
            batch[:] = [segments, 0]
            return walk(spec, v, segments, margin)

        def recording_evaluate(spec, s):
            segments, calls = batch
            batch[1] += 1
            if len(segments) == 3 and calls > 0:  # a refinement level of a step
                horizontal = {segments[1][0].imag, segments[2][0].imag}
                bisected[0] += bool(np.isin(np.imag(s), list(horizontal)).any())
            return evaluate_(spec, s)

        for _ in range(80):
            poly = random_poly(rng, degree=8)
            v = evaluate(poly, complex(rng.uniform(-0.3, 0.3), rng.uniform(-3.0, 3.0)))
            monkeypatch.setattr(zeros, "_walk", recording_walk)
            monkeypatch.setattr(zeros, "evaluate", recording_evaluate)
            got = sigma_star(poly, v, (-3.0, 3.0), -2.0, steps=3)
            monkeypatch.undo()
            assert got == reference_sigma_star(poly, v, (-3.0, 3.0), -2.0, steps=3, warm=True)
            cold = reference_sigma_star(poly, v, (-3.0, 3.0), -2.0, steps=3)
            fine = sigma_star(poly, v, (-3.0, 3.0), -2.0)
            tally[got == fine, cold == fine] += 1
            same += got == cold
        assert bisected[0] >= 3
        assert tally == {(True, True): 21, (True, False): 45, (False, True): 0, (False, False): 14}
        assert same == 21 + 2  # the other 2 agree with each other, not with steps=256

    def test_walk_budget(self, monkeypatch):
        # per accepted window: the strip's four sides in one batch, then one
        # batch per bisection edge tried, of its left side and its bottom and
        # top pieces to hi at the strip's density; hi is sigma_top or an
        # earlier edge, and no right side is walked again.  The first left
        # side starts from steps, every later one from (steps, the parameters
        # that the left side before it sampled)
        walk, evaluate_ = zeros._walk, zeros.evaluate
        walks, sampled, points = [], [], [0]

        def recording(spec, v, segments, margin):
            walks.append(segments)
            totals, grids = walk(spec, v, segments, margin)
            sampled.append(grids(0))
            return totals, grids

        def counting(spec, s):
            points[0] += np.size(s)
            return evaluate_(spec, s)

        tol, steps = 1e-3, 256
        for spec, v, rect in walk_cases():
            floor, (t0, t1) = rect.sigma_range[0], rect.t_range
            sigma_top = zeros._dominance_sigma_top(zeros._merged_against(spec, v), floor)
            strip = Rectangle((floor, sigma_top), rect.t_range)
            walks.clear()
            sampled.clear()
            points[0] = 0
            monkeypatch.setattr(zeros, "evaluate", counting)
            count_zeros(spec, v, strip)
            contour = points[0]
            points[0] = 0
            monkeypatch.setattr(zeros, "_walk", recording)
            got = sigma_star(spec, v, rect.t_range, floor, tol)
            monkeypatch.undo()
            assert walks[0] == sides(strip, steps)
            edges, his = [], [sigma_top]
            own = 0  # the points of the left sides' own cuts
            for batch, before, after in zip(walks[1:], [None, *sampled[1:]], sampled[1:]):
                (a, _, first), (_, b, n), _ = batch
                e, hi = a.real, b.real
                assert hi in (his[-1], *edges[-1:])  # kept, or the last edge
                assert n == math.ceil(steps * (hi - e) / (sigma_top - floor))
                if before is None:
                    assert first == steps
                else:
                    assert first[0] == steps and np.array_equal(first[1], before)
                own += len(after) - (steps + 1 if before is None else len(before))
                assert batch == [
                    (complex(e, t1), complex(e, t0), first),
                    (complex(e, t0), complex(hi, t0), n),
                    (complex(hi, t1), complex(e, t1), n),
                ]
                edges.append(e)
                his.append(hi)
            assert his == sorted(his, reverse=True)
            assert len(set(edges)) == len(edges)
            assert all(floor < e < sigma_top for e in edges)
            bisections = math.ceil(math.log2((sigma_top - floor) / tol))
            assert len(edges) == (bisections if math.isfinite(got) else 0)
            # a whole contour per step walked at least 4 (steps + 1) points;
            # here the strip is walked once.  The pieces add at most
            # 4 (steps + len(edges)) samples in all, since hi - lo halves at
            # each step, and the few points of their cut pieces; with the
            # left sides' own cuts, less than one more contour.  Each left
            # side samples the steps + 1 even parameters, the cuts of the
            # left sides before it (carried, never shed) and its own, so at
            # most steps + 1 + own
            lefts = sum(map(len, sampled[1:]))
            pieces = points[0] - contour - lefts
            assert own + pieces < contour
            assert lefts <= (steps + 1 + own) * len(edges)
            assert points[0] < (steps + 1) * len(edges) + 2 * contour + (len(edges) - 1) * own

    def test_evaluate_call_budget(self, monkeypatch):
        # the zeros workload's ordinary sigma_star: the strip and the 12
        # bisection steps of tol 1e-3 take 17 evaluate calls, where left sides
        # started evenly spaced took 27 and halving a rejected piece per level
        # took 53
        h30, calls = harmonic_30(), [0]

        def counting(spec, s):
            calls[0] += 1
            return evaluate(spec, s)

        v = evaluate(h30, complex(0.8, 3.0))
        monkeypatch.setattr(zeros, "evaluate", counting)
        got = sigma_star(h30, v, (-20.0, 20.0), -1.0, 1e-3)
        assert got >= 0.8 - 1e-3
        assert calls[0] <= 17

    def test_fewer_calls_than_whole_contour_per_step(self, monkeypatch):
        # a left side started from the parameters of the one before it finds
        # its cuts near the zero the bracket closes on already made: every
        # case that bisects makes fewer evaluate calls than a whole contour
        # per step, with the same result, and none makes more
        calls = [0]

        def counting(spec, s):
            calls[0] += 1
            return evaluate(spec, s)

        monkeypatch.setattr(zeros, "evaluate", counting)
        bisected = 0
        for case in sigma_star_cases():
            calls[0] = 0
            got = sigma_star(*case)
            warm = calls[0]
            calls[0] = 0
            assert got == reference_sigma_star(*case)
            if math.isfinite(got):
                assert warm < calls[0]
                bisected += 1
            else:
                assert warm <= calls[0]
        assert bisected >= 20

    def test_carried_grid_keeps_the_even_grid_under_the_cap(self, monkeypatch):
        # bisecting to 1e-12 carries each left side's parameters through
        # about 40 steps: every grid a left side starts from holds the
        # steps + 1 evenly spaced parameters, rises strictly from 0 to 1, and
        # stays within MAX_SIDE_SAMPLES
        walk, steps = zeros._walk, 256
        even = np.arange(steps + 1) / steps
        grids = []

        def recording(spec, v, segments, margin):
            (_, _, first), *_ = segments
            if isinstance(first, tuple):
                assert first[0] == steps
                grids.append(first[1])
            return walk(spec, v, segments, margin)

        monkeypatch.setattr(zeros, "_walk", recording)
        for spec, v, window, floor, _ in sigma_star_cases():
            try:
                sigma_star(spec, v, window, floor, tol=1e-12)
            except (BoundaryTooClose, NonconvergentSubdivision):
                pass  # an edge within the margin of the zero that sets sigma*
        assert len(grids) >= 500
        for grid in grids:
            assert grid[0] == 0.0 and grid[-1] == 1.0 and (np.diff(grid) > 0).all()
            assert np.isin(even, grid).all()
            assert len(grid) <= zeros.MAX_SIDE_SAMPLES
        assert max(map(len, grids)) > 2 * (steps + 1)

    def test_even_grid_walks_as_steps(self):
        # a segment started from the evenly spaced grid walks as one started
        # from steps: the same totals to the bit, and the same parameters
        for spec, v, rect in walk_cases():
            margin = boundary_margin(v)
            for steps in (3, 256):
                grid = np.arange(steps + 1) / steps
                totals, sampled = zeros._walk(spec, v, sides(rect, steps), margin)
                as_grid = [(a, b, (steps, grid)) for a, b, _ in sides(rect, steps)]
                totals_grid, sampled_grid = zeros._walk(spec, v, as_grid, margin)
                assert totals_grid == totals
                assert all(np.array_equal(sampled_grid(i), sampled(i)) for i in range(4))

    def test_near_the_cap_a_carried_grid_refuses_no_side(self, monkeypatch):
        # steps + 1 = MAX_SIDE_SAMPLES - 3 (SPLIT - 1), so a side may cut
        # three pieces.  A left side is charged for its own cuts only, not
        # for those its grid carries: wherever a whole contour per step
        # finishes, so does sigma_star, to the bit when no contour of the
        # oracle was refused, and else within tol, since a shifted edge took
        # its place and both brackets hold sigma*.  Charged for its grid, a
        # left side was refused on 3 of these 20, where the oracle finished.
        # A grid beyond MAX_SIDE_SAMPLES is dropped: the next left side
        # starts from steps again, twice here
        rng = random.Random(77)
        steps, tol = zeros.MAX_SIDE_SAMPLES - 1 - 3 * (zeros.SPLIT - 1), 1e-6
        count, walk, refused, firsts = zeros.count_zeros, zeros._walk, [0], []

        def recording(spec, v, segments, margin):
            if len(segments) == 3:  # a bisection step
                firsts.append(segments[0][2])
            return walk(spec, v, segments, margin)

        def counting(spec, v, rect, steps):
            try:
                return count(spec, v, rect, steps)
            except (BoundaryTooClose, NonconvergentSubdivision):
                refused[0] += 1
                raise

        monkeypatch.setitem(globals(), "count_zeros", counting)
        monkeypatch.setattr(zeros, "_walk", recording)
        tally = {"exact": 0, "within": 0, "unfinished": 0}
        for _ in range(20):
            poly = random_poly(rng)
            v = evaluate(poly, complex(rng.uniform(-0.3, 0.3), rng.uniform(-3.0, 3.0)))
            refused[0] = 0
            try:
                want = reference_sigma_star(poly, v, (-3.0, 3.0), -2.0, tol, steps)
            except NonconvergentSubdivision:
                tally["unfinished"] += 1
                continue
            firsts.append(None)  # a new bisection
            got = sigma_star(poly, v, (-3.0, 3.0), -2.0, tol, steps)
            if refused[0]:
                assert abs(got - want) <= tol
                tally["within"] += 1
            else:
                assert got == want
                tally["exact"] += 1
        assert tally == {"exact": 15, "within": 5, "unfinished": 0}
        carried = [len(first[1]) for first in firsts if isinstance(first, tuple)]
        assert max(carried) == zeros.MAX_SIDE_SAMPLES
        restarts = [
            isinstance(before, tuple) and isinstance(first, int)
            for before, first in zip(firsts, firsts[1:])
        ]
        assert sum(restarts) == 2


def poly_zeros(spec, v):
    """The zeros of P(e^{-s}) - v in the strip 0 <= t < 2pi, from the roots z
    of P(z) - v by numpy.roots: s = -log z, with t taken mod 2pi."""
    coeffs = {round(term.exponent.numeric_value(spec.symbols)): term.coeff for term in spec.terms}
    poly = [coeffs.get(k, 0.0) for k in range(max(coeffs) + 1)]
    poly[0] -= v
    z = np.roots(poly[::-1])
    return -np.log(np.abs(z)) + 1j * np.mod(-np.angle(z), 2 * math.pi)


class TestRootsOracle:
    """count_zeros and sigma_star on polynomials in e^{-s} against their
    zeros computed apart from the walk, by numpy.roots."""

    def test_count_zeros(self):
        counts = []
        for spec, v, rect in walk_cases()[:6]:
            (s0, s1), (t0, t1) = rect.sigma_range, rect.t_range
            roots = poly_zeros(spec, v)
            # every copy s + 2 pi i m of a zero with t0 <= t + 2 pi m <= t1
            first = np.ceil((t0 - roots.imag) / (2 * math.pi))
            last = np.floor((t1 - roots.imag) / (2 * math.pi))
            copies = np.where((s0 < roots.real) & (roots.real < s1), last - first + 1, 0)
            # no copy lies within 1e-6 of the contour, so the count is sharp
            turns = (roots.imag[:, None] - np.array([t0, t1])) % (2 * math.pi)
            assert np.abs(roots.real[:, None] - np.array([s0, s1])).min() > 1e-6
            assert np.minimum(turns, 2 * math.pi - turns).min() > 1e-6
            counts.append(int(copies.sum()))
            assert count_zeros(spec, v, rect) == counts[-1]
        assert min(counts) == 0 and max(counts) >= 10

    def test_sigma_star(self):
        polys = sigma_star_cases()[6:12]
        assert all(len(spec.terms) == 17 for spec, *_ in polys)
        for spec, v, window, floor, tol in polys:
            # the window spans 2 pi, so it holds one copy of every zero
            assert window[1] - window[0] == pytest.approx(2 * math.pi)
            sigmas = poly_zeros(spec, v).real
            right = sigmas[sigmas > floor]
            got = sigma_star(spec, v, window, floor, tol)
            assert right.size
            assert abs(got - right.max()) <= tol
