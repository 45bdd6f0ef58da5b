"""Core types: symbols, exact exponents, series validation, tail bounds."""

import math
import random
from fractions import Fraction

import pytest

from bohreq import scenarios
from bohreq.core import (
    UNIT_SYMBOL,
    ExponentVector,
    SeriesSpec,
    SymbolTable,
    TailMajorant,
    product_plan,
    tail_bound,
    validate_series,
)
from bohreq.errors import (
    BadRange,
    DuplicateExponent,
    NonIncreasingExponents,
    NonpositiveSigma,
    PrecisionLimit,
    UnknownSymbol,
)
from helpers import smooth_spec

LOG2 = math.log(2.0)
LOG3 = math.log(3.0)


def table_23() -> SymbolTable:
    return SymbolTable([("L2", LOG2), ("L3", LOG3)])


class TestSymbolTable:
    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError):
            SymbolTable([("A", 1.5), ("A", 2.5)])

    def test_zero_value_rejected(self):
        with pytest.raises(ValueError):
            SymbolTable([("A", 0.0)])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            SymbolTable([("A", float("inf"))])

    def test_unit_symbol_pinned_to_one(self):
        with pytest.raises(ValueError):
            SymbolTable([(UNIT_SYMBOL, 2.0)])
        assert SymbolTable([(UNIT_SYMBOL, 1.0)]).value(UNIT_SYMBOL) == 1.0


class TestExponentVector:
    def test_zero_coordinates_dropped(self):
        assert ExponentVector({"L2": 0, "L3": 1}) == ExponentVector({"L3": 1})

    def test_exact_equality_is_coordinate_equality(self):
        assert ExponentVector({"L2": Fraction(2, 4)}) == ExponentVector({"L2": "1/2"})
        assert ExponentVector({"L2": 1}) != ExponentVector({"L3": 1})

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            ExponentVector({"L2": 0.5})

    def test_arithmetic(self):
        a = ExponentVector({"L2": 1, "L3": "1/2"})
        b = ExponentVector({"L3": "1/2"})
        assert a - b == ExponentVector({"L2": 1})
        assert b.scale(2) == ExponentVector({"L3": 1})
        assert a - a == ExponentVector()


class TestNumericValue:
    def test_empty_combination(self):
        assert ExponentVector().numeric_value(table_23()) == 0.0

    def test_single_symbol(self):
        assert ExponentVector({"L2": 1}).numeric_value(table_23()) == LOG2

    def test_rational_multiple_of_unit(self):
        # long-division oracle: plain float division is the correctly rounded
        # quotient, which the exact-rational path must match bit for bit
        syms = SymbolTable([(UNIT_SYMBOL, 1.0)])
        value = ExponentVector({UNIT_SYMBOL: "19/6"}).numeric_value(syms)
        assert value == 19.0 / 6.0
        assert value == 3.1666666666666665

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbol):
            ExponentVector({"L5": 1}).numeric_value(table_23())

    @pytest.mark.parametrize(
        "coords",
        [
            {"A": 10**400},  # a coordinate beyond a double
            {"A": 10**300},  # its product with the symbol
            {"A": 10**300, "B": -(10**300)},  # inf - inf
            {"A": 10**298, "B": 5 * 10**297},  # 1e308 + 1e308
        ],
    )
    def test_value_beyond_a_double_is_a_precision_limit(self, coords):
        symbols = SymbolTable([("A", 1e10), ("B", 2e10)])
        with pytest.raises(PrecisionLimit, match="is not a finite double"):
            ExponentVector(coords).numeric_value(symbols)
        assert ExponentVector({"A": 10**297}).numeric_value(symbols) == 1e307

    def test_rational_linearity(self):
        rng = random.Random(1009)
        syms = SymbolTable([("A", 0.7314), ("B", -1.25), ("C", 3.0001)])
        for _ in range(300):
            def rand_vec():
                return ExponentVector(
                    {
                        name: Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                        for name in syms.names
                        if rng.random() < 0.8
                    }
                )

            e1, e2 = rand_vec(), rand_vec()
            q = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            lhs = (e1.scale(q) + e2).numeric_value(syms)
            rhs = float(q) * e1.numeric_value(syms) + e2.numeric_value(syms)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestRationalRoundTrip:
    def test_add_subtract_is_identity(self):
        rng = random.Random(7)
        for _ in range(1000):
            a = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            c = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            assert (a + c) - c == a
            assert a.denominator > 0


class TestValidateSeries:
    def test_increasing_ok(self):
        spec = SeriesSpec(
            table_23(), [(ExponentVector({"L2": 1}), 1.0), (ExponentVector({"L3": 1}), 1.0)]
        )
        assert validate_series(spec) is spec

    def test_non_increasing_flagged_at_second_term(self):
        spec = SeriesSpec(
            table_23(), [(ExponentVector({"L3": 1}), 1.0), (ExponentVector({"L2": 1}), 1.0)]
        )
        with pytest.raises(NonIncreasingExponents) as err:
            validate_series(spec)
        assert err.value.index == 2

    def test_duplicate_exponent(self):
        spec = SeriesSpec(
            table_23(), [(ExponentVector({"L2": 1}), 1.0), (ExponentVector({"L2": 1}), 2.0)]
        )
        with pytest.raises(DuplicateExponent):
            validate_series(spec)

    def test_tail_below_the_last_exponent_flagged_after_the_last_term(self):
        terms = [(ExponentVector({"L2": 1}), 1.0), (ExponentVector({"L3": 1}), 1.0)]
        for lambda_next in ({"L2": 1}, {"L3": 1}):
            spec = SeriesSpec(table_23(), terms, tail=TailMajorant(ExponentVector(lambda_next), 1.0, 0.5))
            with pytest.raises(NonIncreasingExponents, match="the tail's first omitted exponent") as err:
                validate_series(spec)
            assert err.value.index == 3
        spec = SeriesSpec(table_23(), terms, tail=TailMajorant(ExponentVector({"L2": 2}), 1.0, 0.5))
        assert validate_series(spec) is spec


class TestTailBound:
    def test_bohr_tail_at_sigma_two(self):
        # frozen from the closed form exp(-99/7) / (1 - exp(-10/3)), checked
        # against a 40-digit evaluation: 7.4750018627054501e-07
        spec = scenarios.bohr_example(3)
        bound = tail_bound(spec.tail, spec.symbols, 2.0)
        assert bound == pytest.approx(7.4750018627054501e-07, rel=1e-12)

    def test_bound_dominates_true_tail_terms(self):
        # oracle: direct summation of the true omitted terms n = 4..50
        spec = scenarios.bohr_example(3)
        for sigma in (1.0, 2.0, 5.0):
            true_tail = math.fsum(
                math.exp(-float(scenarios.bohr_exponent(n)) * sigma) for n in range(4, 51)
            )
            assert true_tail <= tail_bound(spec.tail, spec.symbols, sigma)

    def test_zero_coeff_bound(self):
        tail = TailMajorant(ExponentVector({"L2": 1}), 0.0, 1.0)
        assert tail_bound(tail, table_23(), 2.0) == 0.0
        # 0.5 * 5e-324 rounds to 0, and exp(1e3) is beyond a double: the
        # bound is still 0
        tail = TailMajorant(ExponentVector({"L2": -1}), 0.0, 0.5)
        assert tail_bound(tail, table_23(), 5e-324) == 0.0
        assert tail_bound(tail, table_23(), 1e3 / math.log(2)) == 0.0

    def test_non_finite_majorant_rejected(self):
        # a bound of inf or NaN is no bound, and would be written as Infinity
        bad = ((math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, math.nan))
        for coeff_bound, min_gap in bad:
            with pytest.raises(ValueError, match="must be finite"):
                TailMajorant(ExponentVector({"L2": 1}), coeff_bound, min_gap)

    def test_monotone_vanishing(self):
        spec = scenarios.bohr_example(3)
        values = [tail_bound(spec.tail, spec.symbols, s) for s in (1.0, 2.0, 4.0, 8.0, 16.0)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-40

    def test_nonpositive_sigma_rejected(self):
        spec = scenarios.bohr_example(2)
        for sigma in (0.0, math.nan):
            with pytest.raises(NonpositiveSigma):
                tail_bound(spec.tail, spec.symbols, sigma)
        with pytest.raises(BadRange, match="need a finite sigma"):
            tail_bound(spec.tail, spec.symbols, math.inf)

    def test_tiny_sigma_keeps_a_finite_bound(self):
        # 1 - exp(-x) rounds to 0 at x = (5/3) 1e-17; the closed form
        # exp(-lambda sigma) / (1 - exp(-x)) = exp(-lambda sigma) (1/x + 1/2
        # + x/12 + ...) is about 6.0e16
        spec = scenarios.bohr_example(3)
        sigma = 1e-17
        x = spec.tail.min_gap * sigma
        closed = math.exp(-99 / 14 * sigma) * (1 / x + 0.5 + x / 12)
        assert tail_bound(spec.tail, spec.symbols, sigma) == pytest.approx(closed, rel=1e-15)
        assert 5.9e16 < closed < 6.1e16

    def test_bound_beyond_a_double_refused(self):
        # 1 / ((5/3) 1e-320) and exp(1000) are beyond a double
        spec = scenarios.bohr_example(3)
        with pytest.raises(PrecisionLimit, match="not a finite double"):
            tail_bound(spec.tail, spec.symbols, 1e-320)
        far = TailMajorant(ExponentVector({UNIT_SYMBOL: -1000}), 1.0, 1.0)
        with pytest.raises(PrecisionLimit, match="not a finite double"):
            tail_bound(far, spec.symbols, 1.0)


class TestSeriesSpec:
    def test_take_terms_drops_stale_tail(self):
        spec = scenarios.bohr_example(5)
        head = spec.take_terms(3)
        assert len(head.terms) == 3
        assert head.tail is None
        assert spec.take_terms(5).tail is spec.tail

    def test_with_coeffs_requires_matching_length(self):
        spec = scenarios.bohr_example(3)
        with pytest.raises(ValueError):
            spec.with_coeffs([1.0])

    def test_exponent_reach_is_the_largest_modulus(self):
        # the phase bound of evaluation: the largest |lambda_n|, whichever sign
        syms = SymbolTable([("A", 3.5)])
        terms = [(ExponentVector({"A": -1}), 1.0), (ExponentVector({"A": Fraction(1, 2)}), 1.0)]
        spec = SeriesSpec(syms, terms)
        assert spec.exponent_reach() == 3.5
        assert spec.with_coeffs([2.0, 2.0]).exponent_reach() == 3.5
        assert SeriesSpec(syms, []).exponent_reach() == 0.0
        assert scenarios.bohr_example(3).exponent_reach() == 5.1


def poly_series(degree: int) -> SeriesSpec:
    """P(e^{-s}) = sum_{k <= degree} e^{-k s} over the unit symbol."""
    return SeriesSpec(
        SymbolTable([(UNIT_SYMBOL, 1.0)]),
        [(ExponentVector({UNIT_SYMBOL: k}), 1.0) for k in range(degree + 1)],
    )


def fresh_terms(spec: SeriesSpec) -> list[int]:
    return list(spec.product_plan().fresh)


def replay(plan, exponents) -> None:
    """Run a plan on exponents instead of values: each row holds the exponent
    of the term last written to it, so a child must read two exponents that
    add up to its own, and never write over one of them."""
    rows = {i: exponents[n] for i, n in enumerate(plan.fresh)}
    for n, ((slot, factors), e) in enumerate(zip(plan.steps, exponents)):
        assert 0 <= slot < plan.slots
        if factors is None:
            assert plan.fresh[slot] == n
        else:
            a, b = factors
            assert slot not in factors
            assert rows[a] + rows[b] == e
            rows[slot] = e
        assert rows[slot] == e


class TestProductPlan:
    def test_harmonic_fresh_terms_are_one_and_the_primes(self):
        spec = scenarios.ordinary_series([(n, 1.0) for n in range(1, 31)])
        fresh = [n + 1 for n in fresh_terms(spec)]
        assert fresh == [1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        replay(spec.product_plan(), spec.exponents())

    def test_polynomial_in_one_exponential_has_two_fresh_terms(self):
        spec = poly_series(16)
        assert fresh_terms(spec) == [0, 1]
        replay(spec.product_plan(), spec.exponents())

    def test_bohr_terms_are_all_fresh(self):
        spec = scenarios.bohr_example(20)
        assert fresh_terms(spec) == list(range(20))

    def test_slots_are_given_back(self):
        spec = scenarios.ordinary_series([(n, 1.0) for n in range(1, 101)])
        plan = spec.product_plan()
        assert {slot for slot, _ in plan.steps} == set(range(plan.slots))
        assert plan.slots < 100

    def test_random_series_replay(self):
        rng = random.Random(919)
        for _ in range(40):
            spec = smooth_spec(rng, max_terms=20)
            replay(product_plan(spec.exponents()), spec.exponents())
            support = sorted(rng.sample(range(1, 200), 40))
            spec = scenarios.ordinary_series([(n, 1.0) for n in support])
            replay(spec.product_plan(), spec.exponents())

    def test_with_coeffs_hands_on_values_and_plan(self):
        spec = scenarios.ordinary_series([(n, 1.0) for n in range(1, 13)])
        lams, plan = spec.numeric_exponents(), spec.product_plan()
        twin = spec.with_coeffs([2.0] * 12)
        assert twin.numeric_exponents() is lams
        assert twin.product_plan() is plan
