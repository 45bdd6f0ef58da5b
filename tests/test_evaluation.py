"""Series evaluation, vertical shifts, uniform distances, exact shift phases."""

import cmath
import ctypes
import math
import os
import random
import subprocess
import sys
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest

from bohreq import core, evaluation, scenarios, valuesets
from bohreq.basis import compute_basis
from bohreq.core import UNIT_SYMBOL, ExponentVector, SeriesSpec, SymbolTable
from bohreq.equivalence import twist
from bohreq.errors import BadRange, PrecisionLimit
from bohreq.evaluation import (
    BLOCK,
    GridBox,
    evaluate,
    evaluate_grid,
    shift_series,
    uniform_distance,
)
from bohreq.scenarios import shift_phase_exact
from helpers import smooth_spec

L2 = ExponentVector({"L2": 1})
L3 = ExponentVector({"L3": 1})


def spec_23() -> SeriesSpec:
    syms = SymbolTable([("L2", math.log(2)), ("L3", math.log(3))])
    return SeriesSpec(syms, [(L2, 1.0), (L3, 1.0)])


class TestEvaluate:
    def test_real_point(self):
        assert evaluate(spec_23(), complex(2.0, 0.0)) == pytest.approx(13.0 / 36.0)

    def test_half_period_point_against_high_precision_oracle(self):
        # frozen 40-digit oracle: 2^{-s} + 3^{-s} at s = 1 + i pi/log 2 equals
        # -0.4120801946413064649 + 0.32152949932595695606 i; the first term is
        # exactly -1/2 there
        value = evaluate(spec_23(), complex(1.0, math.pi / math.log(2)))
        assert value.real == pytest.approx(-0.4120801946413064649, abs=1e-14)
        assert value.imag == pytest.approx(0.32152949932595695606, abs=1e-14)

    def test_random_points_against_mpmath(self):
        # independent 40-digit summation as the oracle
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        spec = spec_23()
        rng = random.Random(515)
        for _ in range(20):
            sigma, t = rng.uniform(-1, 3), rng.uniform(-50, 50)
            want = mp.exp(-mp.log(2) * mp.mpc(sigma, t)) + mp.exp(
                -mp.log(3) * mp.mpc(sigma, t)
            )
            got = evaluate(spec, complex(sigma, t))
            assert abs(got - complex(want)) <= 1e-12 * max(1.0, abs(got))

    def test_bohr_three_terms_at_two(self):
        # frozen oracle: e^{-3} + e^{-19/3} + e^{-51/5} = 0.051600342232282448
        value = evaluate(scenarios.bohr_example(3), complex(2.0, 0.0))
        assert value == pytest.approx(0.051600342232282448, rel=1e-13)
        assert value.imag == 0.0

    def test_accepts_plain_complex(self):
        assert evaluate(spec_23(), complex(1.0, 0.0)) == pytest.approx(5.0 / 6.0)

    def test_array_matches_scalar_bit_for_bit(self):
        # one evaluator: a point gets the same bits alone as inside an array,
        # also one point past a block, where the last block holds one point
        rng = np.random.default_rng(808)
        spec = scenarios.ordinary_series(
            [(n, complex(*rng.normal(size=2))) for n in range(1, 31)]
        )
        points = rng.uniform(-1.0, 3.0, 200) + 1j * rng.uniform(-100.0, 100.0, 200)
        past = rng.uniform(-1.0, 3.0, BLOCK + 1) + 1j * rng.uniform(-1e4, 1e4, BLOCK + 1)
        for flat, shape in ((points, (10, 20)), (past, (3, (BLOCK + 1) // 3))):
            want = np.array([evaluate(spec, complex(p)) for p in flat])
            for s in (flat, flat.reshape(shape)):
                values = evaluate(spec, s)
                assert values.shape == s.shape
                assert values.ravel().tobytes() == want.tobytes()

    def test_product_plan_against_mpmath(self):
        # the oracle sums the same double exponents as the program, in 30
        # digits.  The error, relative to sum |c_n| e^{-lambda_n sigma}, must
        # stay within one double rounding of the largest phase lambda_N |t|:
        # the plan measured at most 0.06 of that, direct exp 0.12
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        rng = random.Random(517)
        ordinary = scenarios.ordinary_series(
            [(n, complex(rng.gauss(0, 1), rng.gauss(0, 1))) for n in range(1, 31)]
        )
        poly = SeriesSpec(
            SymbolTable([(UNIT_SYMBOL, 1.0)]),
            [
                (ExponentVector({UNIT_SYMBOL: k}), complex(rng.gauss(0, 1), rng.gauss(0, 1)))
                for k in range(17)
            ],
        )
        for spec in (ordinary, poly):
            lams = [
                mp.fsum(
                    mp.mpf(q.numerator) / q.denominator * mp.mpf(spec.symbols.value(name))
                    for name, q in e.items()
                )
                for e in spec.exponents()
            ]
            for _ in range(30):
                sigma, t = rng.uniform(-0.5, 2.0), rng.uniform(-1e4, 1e4)
                s = mp.mpc(sigma, t)
                want = mp.fsum(mp.mpc(c) * mp.exp(-lam * s) for lam, c in zip(lams, spec.coeffs()))
                scale = math.fsum(
                    abs(c) * math.exp(-lam * sigma)
                    for lam, c in zip(spec.numeric_exponents(), spec.coeffs())
                )
                err = abs(evaluate(spec, complex(sigma, t)) - complex(want))
                assert err <= (1.0 + lams[-1] * abs(t)) * 2.0**-52 * scale

    def test_bohr_grid_is_the_direct_exp_sum(self):
        # no exponent of Bohr's series is a sum of two others, so every term
        # is fresh and the grid keeps the bits of one exp per term
        spec = scenarios.bohr_example(20)
        box = GridBox((0.5, 1.5), (-10.0, 10.0), 100, 400)
        s = box.sigma_points()[:, None] + 1j * box.t_points()[None, :]
        want = np.zeros(s.shape, dtype=complex)
        for lam, coeff in zip(spec.numeric_exponents(), spec.coeffs()):
            want += np.exp(s * -lam) * coeff
        assert evaluate_grid(spec, box).tobytes() == want.tobytes()

    def test_one_plan_per_exponent_tuple(self, monkeypatch):
        builds = []

        def counted(exponents):
            builds.append(exponents)
            return plan(exponents)

        plan = core.product_plan
        monkeypatch.setattr(core, "product_plan", counted)
        spec = scenarios.ordinary_series([(n, 1.0 / n) for n in range(1, 13)])
        basis, r, _ = compute_basis(list(spec.exponents()))
        related = [
            spec,
            shift_series(spec, 2.5),
            scenarios.negate(spec),
            twist(spec, basis, r, [0.5] * len(basis)),
        ]
        evaluate(spec, 1.0 + 2.0j)
        for g in related:
            evaluate(g, np.array([1.0 + 2.0j, 1.5]))
        valuesets.sample_strip_direct(spec, 1.0, 2.0, 10.0, 100, 3)
        assert len(builds) == 1

    def test_point_gives_complex_array_gives_array(self):
        spec = spec_23()
        for point in (complex(1.0, 2.0), np.complex128(1.0 + 2.0j)):
            assert type(evaluate(spec, point)) is complex
        for shape in ((0,), (1,), (3,), (2, 3)):
            values = evaluate(spec, np.full(shape, 1.0 + 2.0j))
            assert isinstance(values, np.ndarray) and values.shape == shape
            assert all(v == evaluate(spec, complex(1.0, 2.0)) for v in values.ravel())

    def test_truncation_monotonicity(self):
        # dropping terms changes the value by at most the dropped moduli sum
        spec = scenarios.bohr_example(8)
        lams = spec.numeric_exponents()
        for sigma in (1.0, 2.0):
            for t in (-3.0, 0.0, 7.5):
                full = evaluate(spec, complex(sigma, t))
                for n in (2, 5):
                    head = evaluate(spec.take_terms(n), complex(sigma, t))
                    allowed = math.fsum(math.exp(-lam * sigma) for lam in lams[n:])
                    # at t = 0 the bound is attained exactly; leave rounding room
                    assert abs(full - head) <= allowed * (1 + 1e-12) + 1e-15


class TestShiftSeries:
    def test_zero_shift_identity(self):
        spec = spec_23()
        assert shift_series(spec, 0.0).coeffs() == spec.coeffs()

    def test_bohr_first_coefficient_negated_at_tau1(self):
        spec = scenarios.bohr_example(2)
        shifted = shift_series(spec, scenarios.tau(1).value)
        assert shifted.coeffs()[0] == pytest.approx(-1.0, abs=1e-12)

    def test_full_period_of_log2(self):
        syms = SymbolTable([("L2", math.log(2))])
        spec = SeriesSpec(syms, [(L2, 1.0)])
        shifted = shift_series(spec, 2 * math.pi / math.log(2))
        assert shifted.coeffs()[0] == pytest.approx(1.0, abs=1e-12)

    def test_shift_identity_random(self):
        rng = random.Random(606)
        for _ in range(100):
            spec = smooth_spec(rng, max_terms=6)
            tau_shift = rng.uniform(-20.0, 20.0)
            s = complex(rng.uniform(0.2, 3.0), rng.uniform(-30.0, 30.0))
            lhs = evaluate(shift_series(spec, tau_shift), s)
            rhs = evaluate(spec, s + 1j * tau_shift)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    @pytest.mark.parametrize("tau_shift", [math.inf, -math.inf, math.nan])
    def test_non_finite_shift_refused(self, tau_shift):
        with pytest.raises(BadRange, match="need a finite shift"):
            shift_series(scenarios.bohr_example(3), tau_shift)


class TestUniformDistance:
    def test_identical_series(self):
        box = GridBox((0.5, 1.5), (-2.0, 2.0), 5, 5)
        assert uniform_distance(spec_23(), spec_23(), box) == 0.0

    def test_constant_offset(self):
        syms = SymbolTable([("L2", math.log(2))])
        a = SeriesSpec(syms, [(ExponentVector(), 1.0), (L2, 1.0)])
        b = SeriesSpec(syms, [(ExponentVector(), 2.0), (L2, 1.0)])
        box = GridBox((0.0, 1.0), (-1.0, 1.0), 3, 7)
        assert uniform_distance(a, b, box) == pytest.approx(1.0)

    def test_counterexample_shift_bound(self):
        # after shifting by tau_2 the first two terms cancel against -f and
        # the rest is tail-bounded: 2 sum_{n>=3} e^{-lambda(n)} < 0.0142
        f = scenarios.bohr_example(10)
        box = GridBox((1.0, 1.5), (-1.0, 1.0), 20, 40)
        d = uniform_distance(shift_series(f, scenarios.tau(2).value), scenarios.negate(f), box)
        assert d <= 0.0142

    def test_counterexample_distances_strictly_decreasing(self):
        f = scenarios.bohr_example(10)
        g = scenarios.negate(f)
        box = GridBox((1.0, 1.5), (-1.0, 1.0), 10, 20)
        dists = [
            uniform_distance(shift_series(f, scenarios.tau(m).value), g, box)
            for m in (1, 2, 3)
        ]
        assert dists[0] > dists[1] > dists[2]


class TestOverflow:
    """A value beyond a double raises PrecisionLimit, and NumPy stays quiet."""

    def test_evaluate_names_the_first_bad_point(self):
        spec = scenarios.ordinary_series([(n, 1.0) for n in range(1, 31)])
        points = np.array([2.0 + 1.0j, -400.0 + 1.0j, -800.0 + 0.0j])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PrecisionLimit, match=r"at \(-400\+1j\).*not a finite double"):
                evaluate(spec, points)
            with pytest.raises(PrecisionLimit, match="not a finite double"):
                evaluate(spec, complex(-400.0, 1.0))
            assert evaluate(spec, points[:1])[0] == evaluate(spec, points[0])

    def test_non_finite_point_is_bad_input_not_a_precision_limit(self):
        spec = scenarios.ordinary_series([(n, 1.0) for n in range(1, 31)])
        points = np.array([-400.0 + 1.0j, 1.0 + 1.0j, complex("nan"), complex(1, math.inf)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BadRange, match=r"must be finite: \(nan\+0j\)"):
                evaluate(spec, complex("nan"))
            with pytest.raises(BadRange, match=r"must be finite: \(nan\+0j\)"):
                evaluate(spec, points)

    def test_infinite_point_with_a_finite_sum_is_refused(self):
        # with no constant term every exp(-lambda_n s) is 0 at s = inf, so the
        # sum alone would read 0j there; the point is refused before summing
        spec = scenarios.ordinary_series([(2, 1.0), (3, 0.5)])
        points = np.array([1.0 + 0.0j, complex(math.inf, 0.0), complex(math.inf, math.nan)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BadRange, match=r"must be finite: \(inf\+0j\)"):
                evaluate(spec, complex(math.inf, 0.0))
            with pytest.raises(BadRange, match=r"must be finite: \(inf\+0j\)"):
                evaluate(spec, points)
            with pytest.raises(BadRange, match=r"must be finite: \(inf\+0j\)"):
                evaluate(spec, points.reshape(1, 3))

    def test_overflowing_phase_is_refused_by_name(self):
        # lambda t beyond a double is refused before summing, naming the phase,
        # not read as a value that is not finite; a finite phase is summed
        spec = scenarios.bohr_example(3)
        phase = r"phase lambda t is beyond a double for lambda = 5\.1 and \|t\| = "
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for point in (complex(2.0, 1e308), np.array([2.0, complex(2.0, -1e308)])):
                with pytest.raises(PrecisionLimit, match=phase + r"1e\+308"):
                    evaluate(spec, point)
            # the samplers check t_max: a t range of span 1.6e308 is a finite double
            with pytest.raises(PrecisionLimit, match=phase + r"8e\+307"):
                valuesets.sample_line(spec, 1.0, 8e307, 5, seed=1)
            with pytest.raises(PrecisionLimit, match=phase + r"8e\+307"):
                valuesets.sample_strip_direct(spec, 1.0, 2.0, 8e307, 5, seed=1)
            assert cmath.isfinite(evaluate(spec, complex(2.0, 1e307)))
            # a sigma far beyond the phase bound is no phase: every term is 0
            assert evaluate(spec, np.array([complex(1e308, 1.0)]))[0] == 0j

    def test_uniform_distance_of_an_overflowing_series(self):
        spec = scenarios.ordinary_series([(n, 1.0) for n in range(1, 31)])
        box = GridBox((-400.0, -399.0), (0.0, 1.0), 2, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PrecisionLimit, match="not a finite double"):
                uniform_distance(spec, spec, box)

    def test_uniform_distance_whose_difference_overflows(self):
        # both series are finite doubles everywhere; only a - b is not
        syms = SymbolTable([("L2", math.log(2))])
        a = SeriesSpec(syms, [(ExponentVector(), 1.5e308), (L2, 1.0)])
        b = SeriesSpec(syms, [(ExponentVector(), -1.5e308), (L2, 1.0)])
        box = GridBox((0.0, 1.0), (-1.0, 1.0), 2, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PrecisionLimit, match="uniform distance is inf"):
                uniform_distance(a, b, box)


class TestShiftPhaseExact:
    def test_first_shift_first_term(self):
        # lambda(1) tau_1 / pi = (3/2)(2) = 3, odd
        result = shift_phase_exact(1, 1)
        assert result.is_minus_one and result.residual == 0

    def test_second_shift_second_term(self):
        # (19/6)(6) = 19, odd
        result = shift_phase_exact(2, 2)
        assert result.is_minus_one

    def test_third_term_second_shift_rational_defect(self):
        # (51/10)(6) = 153/5 is not an integer
        result = shift_phase_exact(3, 2)
        assert not result.is_minus_one
        assert result.residual == Fraction(-2, 5)

    def test_exactness_bridge_all_small_pairs(self):
        assert all(
            shift_phase_exact(n, m).is_minus_one
            for m in range(1, 7)
            for n in range(1, m + 1)
        )

    def test_agrees_with_float_coefficients(self):
        # the exact -1 phases really do negate the first m coefficients
        f = scenarios.bohr_example(6)
        for m in (1, 2, 3):
            shifted = shift_series(f, scenarios.tau(m).value)
            negated = scenarios.negate(f)
            for n in range(m):
                assert shifted.coeffs()[n] == pytest.approx(
                    negated.coeffs()[n], abs=1e-10
                )


def _shared(monkeypatch, workers: int) -> dict:
    """Outputs of every entry point that sums blocks, with `workers` threads."""
    monkeypatch.setattr(evaluation, "WORKERS", workers)
    rng = np.random.default_rng(2727)
    spec = scenarios.ordinary_series([(n, complex(*rng.normal(size=2))) for n in range(1, 31)])
    other = shift_series(spec, 0.25)
    got = {}
    for count in (1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5):
        s = rng.uniform(-1.0, 3.0, count) + 1j * rng.uniform(-100.0, 100.0, count)
        got[f"evaluate {count}"] = evaluate(spec, s)
        # a strided (count, 2) view, summed as its C-order copy
        got[f"evaluate {count} x 2"] = evaluate(spec, np.stack([s, s[::-1]]).T)
        got[f"direct {count}"] = valuesets.sample_strip_direct(spec, 1.0, 2.0, 100.0, count, 5).points
        got[f"equivalence {count}"] = valuesets.sample_strip_via_equivalence(spec, 1.0, 2.0, count, 5).points
        got[f"line {count}"] = valuesets.sample_line(spec, 1.0, 100.0, count, 5).points
    # 4, BLOCK, BLOCK + 1 and 3 BLOCK + 9 points
    for steps in ((1, 1), (1, BLOCK // 2 - 1), (2, BLOCK // 3), (4, 4916)):
        box = GridBox((0.5, 1.5), (-10.0, 10.0), *steps)
        got[f"grid {steps}"] = evaluate_grid(spec, box)
        got[f"distance {steps}"] = np.array(uniform_distance(spec, other, box))
    return {name: value.tobytes() for name, value in got.items()}


class TestWorkers:
    """The blocks of one call are shared among threads; the bits are not."""

    def test_every_worker_count_gives_the_same_bits(self, monkeypatch):
        serial = _shared(monkeypatch, 1)
        assert _shared(monkeypatch, 2) == serial
        # more threads than this host may have CPUs, switching as often as
        # the interpreter allows
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert _shared(monkeypatch, 3) == serial
        finally:
            sys.setswitchinterval(interval)

    def test_blocks_are_shared_among_the_threads(self, monkeypatch):
        monkeypatch.setattr(evaluation, "WORKERS", 3)
        spec = scenarios.ordinary_series([(1, 1.0), (2, 0.5)])
        size, seen = 3 * BLOCK + 5, {}

        def fresh(block, rows):
            seen[block.start] = threading.current_thread().name
            rows[:] = 1.0

        assert evaluation.plan_sum(spec, size, fresh).tolist() == [1.5] * size
        starts = range(0, size, BLOCK // 3)
        assert sorted(seen) == list(starts)
        assert len(set(seen.values())) == 3
        # a call of one block stays on the calling thread
        seen.clear()
        evaluation.plan_sum(spec, BLOCK, fresh)
        assert seen == {0: threading.current_thread().name}

    def test_errors_on_a_worker_are_the_serial_errors(self, monkeypatch):
        # the first value that is not finite sits in a block summed on a
        # worker (block 1), a later one on the calling thread
        spec = scenarios.ordinary_series([(n, 1.0) for n in range(1, 31)])
        points = np.full(3 * BLOCK, 2.0 + 1.0j)
        points[5000], points[9000] = -400.0 + 1.0j, -800.0 + 0.0j
        before = threading.active_count()
        messages = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(evaluation, "WORKERS", workers)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(PrecisionLimit) as info:
                    evaluate(spec, points)
            messages.append(str(info.value))
            assert threading.active_count() == before
            evaluate(spec, np.full(3 * BLOCK, 2.0 + 1.0j))
            assert threading.active_count() == before
        assert messages == ["the value at (-400+1j) is not a finite double"] * 3

    def test_a_failing_hook_on_a_worker_is_raised_after_every_thread_ends(self, monkeypatch):
        monkeypatch.setattr(evaluation, "WORKERS", 2)
        spec = scenarios.ordinary_series([(1, 1.0)])
        before = threading.active_count()

        def fresh(block, rows):
            if threading.current_thread() is not threading.main_thread():
                raise ArithmeticError(f"block at {block.start}")
            rows[:] = 1.0

        with pytest.raises(ArithmeticError, match=f"block at {BLOCK // 2}"):
            evaluation.plan_sum(spec, 2 * BLOCK, fresh)
        assert threading.active_count() == before


_IMPORT_ONLY = """
import sys, threading
import bohreq.evaluation
assert threading.active_count() == 1, threading.enumerate()
assert "concurrent.futures" not in sys.modules
assert "logging" not in sys.modules
"""


def test_importing_the_evaluator_starts_no_thread():
    # nor imports the executor or logging machinery: every process of the
    # float layer would pay for their import
    src = os.path.dirname(os.path.dirname(evaluation.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_ONLY], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


class TestGridBox:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridBox((1.0, 0.0), (0.0, 1.0), 2, 2)
        with pytest.raises(ValueError):
            GridBox((0.0, 1.0), (0.0, 1.0), 0, 2)
        with pytest.raises(BadRange):
            GridBox((1.0, 2.0), (0.0, 1.0), 2.5, 3)
        with pytest.raises(BadRange):
            GridBox((1.0, 2.0), (0.0, 1.0), 2, 3.0)
        assert GridBox((1.0, 2.0), (0.0, 1.0), np.int64(2), 3).sigma_points().size == 3
        # an infinite end or a span beyond a double is refused as given, not
        # evaluated at the NaN and infinite points np.linspace makes of it;
        # an axis one line thick is still a box
        for bad in ((0.0, math.inf), (-math.inf, 0.0), (math.inf, math.inf), (-1e308, 1e308)):
            with pytest.raises(BadRange, match="finite ends min <= max and a finite span"):
                GridBox(bad, (0.0, 1.0), 2, 2)
            with pytest.raises(BadRange, match="finite ends min <= max and a finite span"):
                GridBox((0.0, 1.0), bad, 2, 2)
        assert GridBox((1.0, 1.0), (0.0, 0.0), 2, 2).sigma_points().tolist() == [1.0] * 3

    def test_inclusive_grid(self):
        box = GridBox((0.0, 1.0), (0.0, 2.0), 4, 8)
        assert len(box.sigma_points()) == 5
        assert len(box.t_points()) == 9
        assert box.sigma_points()[-1] == 1.0


class _MallInfo2(ctypes.Structure):
    _fields_ = [
        (name, ctypes.c_size_t)
        for name in ("arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")
    ]


class TestMmapThreshold:
    def test_large_array_is_mapped_after_one_of_its_size_is_freed(self):
        # glibc's dynamic threshold would cut the second array from the brk
        # heap, which keeps freed space resident
        try:
            mallinfo2 = ctypes.CDLL(None).mallinfo2
        except (AttributeError, OSError, TypeError):
            pytest.skip("no glibc mallinfo2")
        mallinfo2.argtypes, mallinfo2.restype = (), _MallInfo2
        first = np.ones(1 << 20, dtype=complex)
        del first
        mapped = mallinfo2().hblkhd
        second = np.ones(1 << 20, dtype=complex)
        assert mallinfo2().hblkhd - mapped >= second.nbytes
