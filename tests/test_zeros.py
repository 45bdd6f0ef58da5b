"""Winding numbers, zero counts, and zero-free abscissae."""

import cmath
import math
import random
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
    sigma_sequence,
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

    def test_winding_defect_small(self):
        _, defect = winding_number(one_plus_two(), 0.0, Rectangle((-1, 1), (0, 10)))
        assert defect < 1e-6

    def test_zero_on_contour_refuses_loudly(self):
        # the left edge sigma = 0 passes through the zero at t = pi/log2;
        # refinement must surface it instead of miscounting
        from bohreq.errors import BoundaryTooClose, NonconvergentSubdivision

        with pytest.raises((BoundaryTooClose, NonconvergentSubdivision)):
            count_zeros(one_plus_two(), 0.0, Rectangle((0.0, 1.0), (4.0, 5.0)))

    @pytest.mark.parametrize("steps", [0, -1])
    def test_steps_below_one_rejected(self, steps):
        # the rectangle holds 6 zeros of 1 + 2^{-s}; no step count may hide them
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
        constant = SeriesSpec(syms, [(ExponentVector(), 1.0)])
        with pytest.raises(BadRange):
            sigma_star(one_term, 0.0, (-5, 5), -5.0, steps=steps)
        with pytest.raises(BadRange):
            sigma_sequence(constant, 2, (-5, 5), steps=steps)

    def test_degenerate_rectangle_rejected(self):
        with pytest.raises(BadRange):
            Rectangle((1.0, 1.0), (0.0, 1.0))

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
        with pytest.raises(BadRange):
            sigma_star(one_plus_two(), 0.0, (5, 5), sigma_floor=-5.0)


class TestAttainsValue:
    def test_attained_at_real_point(self):
        # f(1) = 5/6 for 2^{-s} + 3^{-s}
        assert attains_value(two_three(), 5.0 / 6.0, 0.9, 1.1, (-1, 1))

    def test_oversized_value_never_attained(self):
        assert not attains_value(two_three(), 10.0, 0.0, 2.0, (-5, 5))

    def test_value_inside_cloud_attained(self):
        f = scenarios.bohr_example(4)
        from bohreq.evaluation import EvalPoint, evaluate

        v = evaluate(f, EvalPoint(2.0, 0.0)) + 0.001
        assert attains_value(f, v, 1.9, 2.1, (-60, 60))

    def test_bad_strip(self):
        with pytest.raises(BadRange):
            attains_value(two_three(), 0.5, 1.0, 1.0, (-1, 1))


class TestSigmaSequence:
    def test_constant_series_all_minus_infinity(self):
        syms = SymbolTable([("L2", LOG2)])
        spec = SeriesSpec(syms, [(ExponentVector(), 1.0)])
        assert sigma_sequence(spec, 3, (-20, 20)) == [float("-inf")] * 3

    def test_one_plus_two_closed_form(self):
        # f(s) = f(m) happens exactly on the line sigma = m
        values = sigma_sequence(one_plus_two(), 3, (-20, 20), tol=1e-3)
        for m, got in enumerate(values, start=1):
            assert got == pytest.approx(float(m), abs=2e-3)

    def test_bohr_example_increasing(self):
        values = sigma_sequence(scenarios.bohr_example(4), 3, (-50, 50), tol=1e-3)
        assert all(math.isfinite(v) for v in values)
        assert values[0] <= values[1] <= values[2]


# -- the array walk against the depth-first scalar walk -----------------------


def reference_side(spec, v, a, b, steps, margin, depth=None):
    """The depth-first scalar walk: one phase and one evaluation per segment.

    Sums the accepted increments left to right along the side.  `depth`, a
    one-element list, gets the deepest bisection level reached.
    """

    def w_at(p):
        s = a + (b - a) * p
        w = evaluate(spec, s) - v
        close = np.flatnonzero(np.abs(w) <= margin)
        if close.size:
            i = close[0]
            raise BoundaryTooClose(complex(np.ravel(s)[i]), float(abs(np.ravel(w)[i])), margin)
        return w

    ps = np.arange(steps + 1) / steps
    samples = list(zip(ps.tolist(), w_at(ps).tolist()))
    count = steps + 1
    total = 0.0
    for i in range(steps):
        stack = [(*samples[i], *samples[i + 1], 0)]
        while stack:
            p1, w1, p2, w2, level = stack.pop()
            if depth is not None:
                depth[0] = max(depth[0], level)
            delta = cmath.phase(w2 / w1)
            if abs(delta) <= zeros.HALF_PI:
                total += delta
                continue
            count += 1
            if count > zeros.MAX_SIDE_SAMPLES:
                raise NonconvergentSubdivision(f"side {a} -> {b} needed more samples")
            pm = 0.5 * (p1 + p2)
            wm = w_at(pm)
            stack.append((pm, wm, p2, w2, level + 1))
            stack.append((p1, w1, pm, wm, level + 1))
    return total


def reference_winding(spec, v, rect, steps=256, depth=None):
    """winding_number with the scalar walk on each side."""
    v = complex(v)
    margin = boundary_margin(v)
    c = rect.corners()
    total = 0.0
    for a, b in zip(c, c[1:] + c[:1]):
        total += reference_side(spec, v, a, b, steps, margin, depth)
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
        assert bisected >= 3  # the cases exercise the bisection levels

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
        monkeypatch.setattr(zeros, "_side_argument", reference_side)
        want = [sigma_star(f, v, w, floor, tol) for f, v, w, floor, tol in cases]
        assert got == want
        assert all(math.isfinite(x) for x in got)

    def test_one_array_call_per_level(self, monkeypatch):
        # every evaluation of a walk takes an array, and a side makes one
        # call for its samples plus one per bisection level
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
            assert len(shapes) <= 4 * (1 + depth[0])
            assert all(len(shape) == 1 for shape in shapes)


class TestWalkErrors:
    def test_sample_cap_is_enforced(self, monkeypatch):
        # the left edge runs 1e-7 to the right of the 22 zeros of 1 + 2^{-s}
        # on sigma = 0 with t in [0, 200]; each bends the argument by about pi
        # within ~1e-7 of t, so the side needs several hundred midpoints
        rect = Rectangle((1e-7, 1.0), (0.0, 200.0))
        assert count_zeros(one_plus_two(), 0.0, rect) == 0
        monkeypatch.setattr(zeros, "MAX_SIDE_SAMPLES", 300)
        with pytest.raises(NonconvergentSubdivision):
            count_zeros(one_plus_two(), 0.0, rect)

    def test_too_close_midpoint_reports_a_point_of_its_side(self):
        # the left edge sigma = 0 passes through the zero at t = pi / log 2,
        # between two samples: a bisection midpoint lands within the margin
        spec, v = one_plus_two(), 0.0
        margin = boundary_margin(v)
        with pytest.raises(BoundaryTooClose) as info:
            count_zeros(spec, v, Rectangle((0.0, 1.0), (4.0, 5.0)))
        err = info.value
        assert err.point.real == 0.0 and 4.0 < err.point.imag < 5.0
        assert err.point.imag * 256 % 1 != 0  # a midpoint, not a sample
        assert err.modulus <= margin == err.margin
        assert abs(evaluate(spec, err.point) - v) <= margin

    def test_overflow_raises_precision_limit_at_once(self):
        # 30^{800} and 30^{400} are beyond a double; f = 1.5e308 + 2^{-s} and
        # v = -1.5e308 are finite, f - v is not; for f = 1.5e308 i + 2^{-s},
        # f - v is finite and |f - v| is not.  The walk refuses at the first
        # sample instead of bisecting to the cap on every ladder rung (and
        # sigma_star, on the latter two, before it walks), and NumPy warns of
        # nothing
        syms = SymbolTable([("L2", LOG2)])
        big = SeriesSpec(syms, [(ExponentVector(), 1.5e308), (ExponentVector({"L2": 1}), 1.0)])
        turned = SeriesSpec(syms, [(ExponentVector(), 1.5e308j), (ExponentVector({"L2": 1}), 1.0)])
        cases = [
            (harmonic_30(), 0.5, (-800.0, -700.0), -400.0, "the value at"),
            (big, -1.5e308, (0.0, 1.0), -1.0, r"f\(s\) - v at 0j is \(inf"),
            (turned, -1.5e308, (0.0, 1.0), -1.0, r"f\(s\) - v at 0j is"),
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
        # segment is halved instead of accepted, and NumPy warns of nothing
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
    def clipping(monkeypatch, passes: int = 0) -> list[Rectangle]:
        """Make count_zeros return 1 for its first `passes` calls, then raise
        BoundaryTooClose at a point naming the rectangle; returns the log."""
        tried = []

        def fake(spec, v, rect, steps=256):
            tried.append(rect)
            if len(tried) <= passes:
                return 1
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
        # the full strip [-1, 2] holds a zero; then every rung of every
        # shifted bisection edge clips one
        tried = self.clipping(monkeypatch, passes=1)
        with pytest.raises(BoundaryTooClose) as info:
            sigma_star(harmonic_30(), 0.5, (-5.0, 5.0), -1.0)
        edges = [0.5, 0.60275, 0.34175, 0.7482500000000001]
        assert [(r.sigma_range, r.t_range) for r in tried] == [((-1.0, 2.0), (-5.0, 5.0))] + [
            ((edge, 2.0), window) for edge in edges for window in PADDED_WINDOWS
        ]
        # the error is the unshifted edge's, from its last rung
        assert info.value.point == complex(0.5, 5.000737)

    def test_clipped_bisection_edge_raises_the_unshifted_error(self, monkeypatch):
        # bisecting to 1e-12 brings the edge within the margin of the zero
        # that sets sigma*; no shift dodges it, and the unshifted edge's own
        # error is raised without walking its contours again
        spec = harmonic_30()
        calls = []

        def counting(*args):
            calls.append(args[2])
            return count_zeros(*args)

        monkeypatch.setattr(zeros, "count_zeros", counting)
        with pytest.raises(BoundaryTooClose) as info:
            sigma_star(spec, 0.5, (-5.0, 5.0), -1.0, tol=1e-12)
        assert len(calls) == 47
        unshifted = calls[-20:][4]
        assert unshifted.t_range == PADDED_WINDOWS[-1]
        assert info.value.point.real == unshifted.sigma_range[0]
        assert info.value.point == pytest.approx(
            complex(0.15382111817598343, 3.324305358114593), rel=1e-12
        )
        assert abs(evaluate(spec, info.value.point) - 0.5) <= info.value.margin

    def test_bracket_of_adjacent_doubles_ends_the_bisection(self, monkeypatch):
        # 1e9 - 1e9 e^{26} e^{-20 s} vanishes at s = 1.3 with |f'| = 2e10 there,
        # so one ulp off the zero |f| is far above the margin and no edge
        # clips it: a tol below one ulp must stop at adjacent doubles
        spec = SeriesSpec(
            SymbolTable([("ONE", 1.0)]),
            [(ExponentVector(), 1e9), (ExponentVector({"ONE": 20}), -1e9 * math.exp(26.0))],
        )
        calls = []

        def counting(*args):
            calls.append(args[2])
            assert len(calls) < 200, "the bisection does not end"
            return count_zeros(*args)

        monkeypatch.setattr(zeros, "count_zeros", counting)
        got = sigma_star(spec, 0.0, (-0.1, 0.13), 0.0, tol=1e-17)
        assert got == pytest.approx(1.3, abs=1e-15)
