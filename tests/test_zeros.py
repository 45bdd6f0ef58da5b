"""Winding numbers, zero counts, and zero-free abscissae."""

import math
import random

import pytest

from bohreq import scenarios
from bohreq.core import ExponentVector, SeriesSpec, SymbolTable
from bohreq.errors import BadRange, DegenerateTarget
from bohreq.zeros import (
    Rectangle,
    attains_value,
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
