"""Canonical constructions: the counterexample series and ordinary series."""

import math
from fractions import Fraction

import pytest

from bohreq import scenarios
from bohreq.basis import compute_basis, denominator_lcms
from bohreq.core import ExponentVector, validate_series
from bohreq.errors import BadIndex, PrecisionLimit
from bohreq.evaluation import evaluate


class TestBohrExample:
    def test_first_four_exponents(self):
        spec = scenarios.bohr_example(4)
        got = [dict(t.exponent.items())["ONE"] for t in spec.terms]
        assert got == [
            Fraction(3, 2),
            Fraction(19, 6),
            Fraction(51, 10),
            Fraction(99, 14),
        ]
        assert all(t.coeff == 1.0 for t in spec.terms)
        assert spec.abscissa == 0.0

    def test_single_term(self):
        spec = scenarios.bohr_example(1)
        assert len(spec.terms) == 1
        assert dict(spec.terms[0].exponent.items()) == {"ONE": Fraction(3, 2)}

    def test_tail_metadata(self):
        spec = scenarios.bohr_example(4)
        assert spec.tail is not None
        assert dict(spec.tail.lambda_next.items()) == {"ONE": scenarios.bohr_exponent(5)}
        assert spec.tail.min_gap == pytest.approx(5.0 / 3.0)

    def test_gaps_at_least_five_thirds_exactly(self):
        for n in range(1, 21):
            gap = scenarios.bohr_exponent(n + 1) - scenarios.bohr_exponent(n)
            assert gap == 2 - Fraction(1, 4 * n * n - 1)
            assert gap >= Fraction(5, 3)

    def test_exponents_strictly_increase_exactly(self):
        prev = None
        for n in range(1, 1001):
            lam = scenarios.bohr_exponent(n)
            if prev is not None:
                assert lam > prev
            prev = lam

    def test_validates(self):
        validate_series(scenarios.bohr_example(50))

    def test_bad_index(self):
        with pytest.raises(BadIndex):
            scenarios.bohr_example(0)

    def test_non_integral_term_count_refused_by_name(self):
        with pytest.raises(BadIndex, match="integral number of terms, got 2.5"):
            scenarios.bohr_example(2.5)

    def test_non_integral_exponent_index_refused_by_name(self):
        with pytest.raises(BadIndex, match="integral term index, got 2.5"):
            scenarios.bohr_exponent(2.5)


class TestTau:
    def test_small_values(self):
        assert scenarios.tau(1).value == pytest.approx(2 * math.pi)
        assert scenarios.tau(2).value == pytest.approx(6 * math.pi)
        assert scenarios.tau(3).value == pytest.approx(30 * math.pi)

    def test_exact_products(self):
        assert scenarios.tau(1).odd_product == 1
        assert scenarios.tau(2).odd_product == 3
        assert scenarios.tau(3).odd_product == 15
        assert scenarios.tau(4).odd_product == 105

    def test_bad_shift_index(self):
        with pytest.raises(BadIndex):
            scenarios.tau(0)

    def test_non_integral_shift_index_refused_by_name(self):
        with pytest.raises(BadIndex, match="integral shift index, got 2.5"):
            scenarios.tau(2.5)

    def test_exact_shift_phase_refuses_non_integral_indices(self):
        with pytest.raises(BadIndex, match="integral term index, got 2.5"):
            scenarios.shift_phase_exact(2.5, 1)
        with pytest.raises(BadIndex, match="integral shift index, got 2.5"):
            scenarios.shift_phase_exact(1, 2.5)

    def test_beyond_a_double_is_refused_by_name(self):
        # 2pi * prod_{n<=m}(2n-1) is a finite double up to m = 150
        assert math.isfinite(scenarios.tau(150).value)
        with pytest.raises(PrecisionLimit, match=r"beyond a double at m = 151$"):
            scenarios.tau(151)


class TestNegate:
    def test_negates_coefficients(self):
        spec = scenarios.bohr_example(2)
        assert scenarios.negate(spec).coeffs() == (-1.0, -1.0)

    def test_involution(self):
        spec = scenarios.ordinary_series([(2, 1 + 2j), (3, -0.5)])
        assert scenarios.negate(scenarios.negate(spec)) == spec

    def test_pointwise_negation(self):
        spec = scenarios.bohr_example(3)
        s = complex(1.3, -2.2)
        assert evaluate(scenarios.negate(spec), s) == pytest.approx(-evaluate(spec, s), abs=1e-15)


class TestOrdinarySeries:
    def test_two_three_six(self):
        spec = scenarios.ordinary_series([(2, 1.0), (3, 1.0), (6, 1.0)])
        assert spec.exponents() == (
            ExponentVector({"L2": 1}),
            ExponentVector({"L3": 1}),
            ExponentVector({"L2": 1, "L3": 1}),
        )
        assert spec.symbols.value("L2") == math.log(2)

    def test_twelve_factorization(self):
        spec = scenarios.ordinary_series([(12, 1.0)])
        assert spec.exponents() == (ExponentVector({"L2": 2, "L3": 1}),)

    def test_constant_term(self):
        spec = scenarios.ordinary_series([(1, 2.5)])
        assert spec.exponents() == (ExponentVector(),)
        assert spec.terms[0].coeff == 2.5

    def test_terms_sorted_by_index(self):
        spec = scenarios.ordinary_series([(6, 1.0), (2, 1.0), (3, 1.0)])
        values = [t.exponent.numeric_value(spec.symbols) for t in spec.terms]
        assert values == sorted(values)
        validate_series(spec)

    def test_bad_indices(self):
        with pytest.raises(BadIndex):
            scenarios.ordinary_series([(0, 1.0)])
        with pytest.raises(BadIndex):
            scenarios.ordinary_series([(2, 1.0), (2, 3.0)])

    def test_prime_log_expansion_always_integral(self):
        import random

        from helpers import smooth_spec

        rng = random.Random(101)
        for _ in range(25):
            spec = smooth_spec(rng)
            _, r, _ = compute_basis(spec.exponents())
            assert max(denominator_lcms(r), default=1) == 1


class TestCounterexamplePipeline:
    def test_shift_negates_first_m_coefficients(self):
        from bohreq.evaluation import shift_series

        f = scenarios.bohr_example(6)
        for m in range(1, 7):
            assert all(scenarios.shift_phase_exact(n, m).is_minus_one for n in range(1, m + 1))
            shifted = shift_series(f, scenarios.tau(m).value)
            for n in range(m):
                assert shifted.coeffs()[n] == pytest.approx(-1.0, abs=1e-9)
