"""Value-set sampling routes, Hausdorff comparison, Kronecker time finding."""

import math
import random
import re
import warnings

import numpy as np
import pytest

import bohreq
from bohreq import equivalence, scenarios, valuesets
from bohreq.core import ExponentVector, SeriesSpec, SymbolTable
from bohreq.basis import compute_basis
from bohreq.errors import BadRange, EmptyCloud, PrecisionLimit
from bohreq.evaluation import BLOCK
from bohreq.valuesets import (
    ValueCloud,
    _check_modulus,
    hausdorff,
    kronecker_find_t,
    sample_line,
    sample_strip_direct,
    sample_strip_via_equivalence,
)
from helpers import hausdorff_full_query

LOG2 = math.log(2.0)
LOG3 = math.log(3.0)


def two_three() -> SeriesSpec:
    syms = SymbolTable([("L2", LOG2), ("L3", LOG3)])
    return SeriesSpec(
        syms, [(ExponentVector({"L2": 1}), 1.0), (ExponentVector({"L3": 1}), 1.0)]
    )


def annulus_oracle_cloud(n_phase: int = 400) -> ValueCloud:
    """Dense phase-grid oracle for |2^{-s}| = 1/2, |3^{-s}| = 1/3 at sigma = 1."""
    phi = np.linspace(0.0, 2 * math.pi, n_phase, endpoint=False)
    grid = 0.5 * np.exp(1j * phi)[:, None] + (1.0 / 3.0) * np.exp(1j * phi)[None, :]
    return ValueCloud(grid.ravel(), "oracle")


class TestSampling:
    def test_constant_series_single_value(self):
        syms = SymbolTable([("L2", LOG2)])
        spec = SeriesSpec(syms, [(ExponentVector(), 2.0 + 1.0j)])
        cloud = sample_strip_direct(spec, 0.5, 1.5, 10.0, 50, seed=3)
        assert np.allclose(cloud.points, 2.0 + 1.0j)
        line = sample_line(spec, 1.0, 5.0, 10, seed=4)
        assert np.allclose(line.points, 2.0 + 1.0j)

    def test_single_point_cloud(self):
        cloud = sample_strip_direct(two_three(), 0.5, 1.5, 10.0, 1, seed=5)
        assert len(cloud) == 1

    def test_seed_determinism(self):
        a = sample_strip_direct(two_three(), 0.5, 1.5, 10.0, 500, seed=42)
        b = sample_strip_direct(two_three(), 0.5, 1.5, 10.0, 500, seed=42)
        assert np.array_equal(a.points, b.points)
        c = sample_strip_via_equivalence(two_three(), 0.5, 1.5, 500, seed=42)
        d = sample_strip_via_equivalence(two_three(), 0.5, 1.5, 500, seed=42)
        assert np.array_equal(c.points, d.points)
        e = sample_line(two_three(), 1.0, 100.0, 500, seed=42)
        f = sample_line(two_three(), 1.0, 100.0, 500, seed=42)
        assert np.array_equal(e.points, f.points)

    def test_bad_ranges(self):
        with pytest.raises(BadRange):
            sample_strip_direct(two_three(), 1.5, 0.5, 10.0, 10, 0)
        with pytest.raises(BadRange):
            sample_strip_direct(two_three(), 0.5, 1.5, -1.0, 10, 0)
        with pytest.raises(BadRange):
            sample_line(two_three(), 1.0, 0.0, 10, 0)
        for sigma0 in (math.nan, math.inf, -math.inf):
            with pytest.raises(BadRange, match="finite sigma0"):
                sample_line(two_three(), sigma0, 10.0, 10, 0)
        # 2 t_max or sigma2 - sigma1 beyond a double is refused as given,
        # not sampled as NaN and infinite points
        message = "got t range (-t_max, t_max) for t_max = 1e+308"
        with pytest.raises(BadRange, match=re.escape(message)):
            sample_strip_direct(two_three(), 0.5, 1.5, 1e308, 10, 0)
        with pytest.raises(BadRange, match=re.escape(message)):
            sample_line(two_three(), 1.0, 1e308, 10, 0)
        message = "got sigma range (-1e+308, 1e+308)"
        with pytest.raises(BadRange, match=re.escape(message)):
            sample_strip_direct(two_three(), -1e308, 1e308, 10.0, 10, 0)
        with pytest.raises(BadRange, match=re.escape(message)):
            sample_strip_via_equivalence(two_three(), -1e308, 1e308, 10, 0)
        # a count or seed that is not a non-negative integer
        for count, seed in ((100.5, 0), (10, -1), (10, 1.5)):
            with pytest.raises(BadRange):
                sample_strip_direct(two_three(), 0.5, 1.5, 10.0, count, seed)
            with pytest.raises(BadRange):
                sample_strip_via_equivalence(two_three(), 0.5, 1.5, count, seed)
            with pytest.raises(BadRange):
                sample_line(two_three(), 1.0, 10.0, count, seed)
        for count in (0, -3):
            message = f"need count > 0, got {count}"
            with pytest.raises(BadRange, match=message):
                sample_strip_direct(two_three(), 0.5, 1.5, 10.0, count, 0)
            with pytest.raises(BadRange, match=message):
                sample_strip_via_equivalence(two_three(), 0.5, 1.5, count, 0)
            with pytest.raises(BadRange, match=message):
                sample_line(two_three(), 1.0, 10.0, count, 0)

    def test_narrow_strip_fills_annulus(self):
        # oracle: dense phase grid; at sigma ~ 1 the reachable set is the
        # annulus between radii 1/6 and 5/6
        cloud = sample_strip_direct(two_three(), 1.0, 1.001, 1e4, 100_000, seed=9)
        moduli = np.abs(cloud.points)
        assert moduli.min() >= 1.0 / 6.0 - 0.01
        assert moduli.max() <= 5.0 / 6.0 + 0.01
        assert hausdorff(cloud, annulus_oracle_cloud()) <= 0.05

    @pytest.mark.parametrize("sign", [1, -1])
    def test_strip_samples_lie_in_closed_strip(self, sign):
        # one term e^{-lambda s} with |lambda| t_max < pi is injective on the
        # strip, so each value reads back as its own sample point
        lam = sign * LOG2
        syms = SymbolTable([("L2", LOG2)])
        spec = SeriesSpec(syms, [(ExponentVector({"L2": sign}), 1.0)])
        sigma1, sigma2, t_max = 0.5, 1.5, 4.0
        assert LOG2 * t_max < math.pi
        for count in (1, 15, 16, 1000, 4099):
            cloud = sample_strip_direct(spec, sigma1, sigma2, t_max, count, seed=count)
            sigma = -np.log(np.abs(cloud.points)) / lam
            t = -np.angle(cloud.points) / lam
            assert np.all((sigma >= sigma1 - 1e-12) & (sigma <= sigma2 + 1e-12))
            assert np.all((t >= -t_max - 1e-12) & (t <= t_max + 1e-12))
        # density |f'|^2 ~ 4^{-sign sigma} puts 2/3 (sign 1) or 1/3 (sign -1)
        # of the mass below sigma = 1
        below = 2.0 / 3.0 if sign > 0 else 1.0 / 3.0
        assert np.mean(sigma < 1.0) == pytest.approx(below, abs=0.01)
        assert np.mean(t < 0.0) == pytest.approx(0.5, abs=0.01)

    def test_line_set_on_circle_for_single_term(self):
        syms = SymbolTable([("L2", LOG2)])
        spec = SeriesSpec(syms, [(ExponentVector({"L2": 1}), 1.0)])
        cloud = sample_line(spec, 1.0, 1000.0, 5000, seed=1)
        assert np.allclose(np.abs(cloud.points), 0.5, atol=1e-12)

    def test_equivalence_route_sweeps_scaled_subgroup(self):
        # one rational column (1, 19/9): the twisted coefficient phases stay
        # on the closed curve (u, 19 u / 9) mod 2pi
        f = scenarios.bohr_example(2)
        cloud = sample_strip_via_equivalence(f, 0.9, 1.1, 1000, seed=13)
        assert cloud.meta["denominator_lcm"] == 9
        rng = np.random.default_rng(13)
        y = rng.uniform(0.0, 2 * math.pi * 9, size=(1, 1000))
        sig = rng.uniform(0.9, 1.1, 1000)
        lam = [float(scenarios.bohr_exponent(n)) for n in (1, 2)]
        expect = np.exp(1j * y[0]) * np.exp(-lam[0] * sig) + np.exp(
            1j * (19.0 / 9.0) * y[0]
        ) * np.exp(-lam[1] * sig)
        assert np.allclose(cloud.points, expect, atol=1e-12)

    def test_modulus_bound_holds_per_cloud(self):
        spec = two_three()
        for cloud in (
            sample_strip_direct(spec, 0.5, 1.0, 50.0, 2000, seed=6),
            sample_strip_via_equivalence(spec, 0.5, 1.0, 2000, seed=6),
            sample_line(spec, 0.75, 50.0, 2000, seed=6),
        ):
            cap = 2.0 ** -0.5 + 3.0 ** -0.5 + 1e-9
            assert np.max(np.abs(cloud.points)) <= cap

    def test_equivalence_route_across_blocks_is_the_torus_sum(self):
        # one point past a block, against the torus lift summed whole
        spec = scenarios.ordinary_series([(n, 1.0 / n) for n in range(1, 13)])
        count = BLOCK + 1
        cloud = sample_strip_via_equivalence(spec, 1.0, 2.0, count, seed=21)
        _, r, _ = compute_basis(list(spec.exponents()))
        rows = np.array(r.float_rows(), dtype=float).reshape(12, r.ncols)
        rng = np.random.default_rng(21)
        y = rng.uniform(0.0, 2 * math.pi, size=(r.ncols, count))
        sig = rng.uniform(1.0, 2.0, count)
        expect = sum(
            c * np.exp(1j * (row @ y) - lam * sig)
            for row, lam, c in zip(rows, spec.numeric_exponents(), spec.coeffs())
        )
        assert np.allclose(cloud.points, expect, rtol=0.0, atol=1e-14)

    def test_bound_beyond_doubles_is_precision_limit(self):
        # 30^{400} overflows a double: refused before any point is drawn
        spec = scenarios.ordinary_series([(n, 1.0) for n in range(1, 31)])
        with pytest.raises(PrecisionLimit):
            sample_line(spec, -400.0, 10.0, 5, seed=1)
        with pytest.raises(PrecisionLimit):
            sample_strip_direct(spec, -400.0, 1.0, 10.0, 5, seed=1)
        with pytest.raises(PrecisionLimit):
            sample_strip_via_equivalence(spec, -400.0, 1.0, 5, seed=1)

    @pytest.mark.parametrize(
        "spec, sigma1, sigma2",
        [
            # |f'| is a finite double near 1e156 whose square is not
            (scenarios.ordinary_series([(n, 1.0) for n in range(1, 31)]), -106.0, -105.0),
            # f = 1 + e^{-1000 s} is finite, f' = -1000 e^{-1000 s} is not
            (
                SeriesSpec(
                    SymbolTable([("ONE", 1.0)]),
                    [(ExponentVector(), 1.0), (ExponentVector({"ONE": 1000}), 1.0)],
                ),
                -0.7085,
                -0.7075,
            ),
        ],
    )
    def test_pilot_beyond_doubles_gives_equal_weights(self, monkeypatch, spec, sigma1, sigma2):
        # the |f'|^2 pilot falls back to equal weights, without a warning: the
        # points are those drawn for a constant series, whose weights are equal
        evaluate, evaluate_blocks = valuesets.evaluate, valuesets.evaluate_blocks
        calls = []

        def recording(f, size, points, t_max):
            calls.append((f, points(slice(0, size))))
            return evaluate_blocks(f, size, points, t_max)

        monkeypatch.setattr(valuesets, "evaluate_blocks", recording)

        def sample(f):
            calls.clear()
            cloud = sample_strip_direct(f, sigma1, sigma2, 10.0, 200, seed=4)
            ((g, points),) = calls
            assert g is f
            return cloud, points

        constant = SeriesSpec(SymbolTable([("L2", LOG2)]), [(ExponentVector(), 1.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cloud, points = sample(spec)
        assert np.array_equal(points, sample(constant)[1])
        assert np.array_equal(cloud.points, evaluate(spec, points))

    def test_nan_modulus_fails_the_bound(self):
        with pytest.raises(PrecisionLimit):
            _check_modulus(np.array([complex("nan")]), 1.0)
        with pytest.raises(PrecisionLimit):
            _check_modulus(np.array([0.5, 2.0]), 1.0)
        _check_modulus(np.array([0.5, 1.0]), 1.0)


def cloud(points) -> ValueCloud:
    return ValueCloud(np.asarray(points, dtype=complex), "test")


def gridded(monkeypatch) -> list[int]:
    """Counts the points `hausdorff` gives grid cells, by wrapping `_cells`."""
    keyed = []
    cells = valuesets._cells

    def counting(points, *args):
        keyed.append(len(points))
        return cells(points, *args)

    monkeypatch.setattr(valuesets, "_cells", counting)
    return keyed


GAUSS = np.array([1.0, 1j]) @ np.random.default_rng(0).normal(size=(2, 3000))


class TestHausdorff:
    def test_identical_clouds(self):
        a = sample_strip_direct(two_three(), 0.5, 1.5, 10.0, 100, seed=3)
        assert hausdorff(a, a) == 0.0

    def test_hand_example(self):
        a = ValueCloud(np.array([0.0 + 0.0j]), "x")
        b = ValueCloud(np.array([3.0 + 0.0j, 4.0j]), "y")
        assert hausdorff(a, b) == pytest.approx(4.0)

    def test_empty_cloud_rejected(self):
        a = ValueCloud(np.array([], dtype=complex), "x")
        b = ValueCloud(np.array([1.0 + 0.0j]), "y")
        with pytest.raises(EmptyCloud):
            hausdorff(a, b)

    def test_dual_route_annulus_agreement(self):
        # compact twin of the full-size dual-route criterion
        spec = two_three()
        line = sample_line(spec, 1.0, 1e4, 30_000, seed=21)
        equiv = sample_strip_via_equivalence(spec, 1.0 - 1e-6, 1.0 + 1e-6, 30_000, seed=22)
        assert hausdorff(line, equiv) <= 0.05

    # the pruned distance equals the full-query oracle's, bit for bit
    @pytest.mark.parametrize("count", [1_000, 10_000, 100_000])
    def test_route_a_against_route_b(self, monkeypatch, count):
        spec = scenarios.ordinary_series([(n, complex(1.0 / n)) for n in range(1, 31)])
        a = sample_strip_direct(spec, 1.0, 2.0, 100.0, count, seed=count + 1)
        b = sample_strip_via_equivalence(spec, 1.0, 2.0, count, seed=count + 2)
        keyed = gridded(monkeypatch)
        assert hausdorff(a, b) == hausdorff_full_query(a, b)
        assert keyed  # the grid was laid

    @pytest.mark.parametrize(
        "x, y",
        [
            (GAUSS, GAUSS + 100.0),  # disjoint
            (GAUSS, np.append(GAUSS[:2000] + 0.01, 50 + 50j)),  # far outlier in y
            (np.append(GAUSS[:2000] + 0.01, -40 + 70j), GAUSS),  # far outlier in x
            (GAUSS, GAUSS[::3]),  # subset: y to x is 0
            (GAUSS[::3], GAUSS),
            (np.repeat(GAUSS[:500], 4), GAUSS[:700]),  # duplicates
            (GAUSS.real + 0j, GAUSS.real[::2] + 1e-3j),  # a horizontal line
            (1j * GAUSS.imag, 1j * GAUSS.imag[::2] + 1e-3),  # a vertical line
        ],
        ids=["disjoint", "outlier-y", "outlier-x", "subset", "superset", "duplicates", "horizontal", "vertical"],
    )
    def test_edge_clouds(self, monkeypatch, x, y):
        a, b = cloud(x), cloud(y)
        keyed = gridded(monkeypatch)
        assert hausdorff(a, b) == hausdorff_full_query(a, b)
        assert hausdorff(b, a) == hausdorff_full_query(b, a)
        assert keyed

    def test_large_magnitude_small_gaps(self, monkeypatch):
        # a 60 x 60 lattice of step 1e-3 at 1e12, against its shift by less
        # than a step with 5 rows left out
        step = 1e-3 * (np.arange(60)[:, None] + 1j * np.arange(60)[None, :])
        a = cloud(1e12 + 1e12j + step.ravel())
        b = cloud(1e12 + 1e12j + 4e-4 + 2e-4j + step[:, :55].ravel())
        keyed = gridded(monkeypatch)
        assert hausdorff(a, b) == hausdorff_full_query(a, b)
        assert keyed

    def test_span_beyond_the_grid_queries_every_point(self, monkeypatch):
        # low = 1e-9 over a span of 1e3: 2e12 cells per axis, past 2^26
        a = cloud(np.linspace(0.0, 1e3, 3000))
        b = cloud(np.linspace(0.0, 1e3, 3000) + 1e-9j)
        keyed = gridded(monkeypatch)
        assert hausdorff(a, b) == hausdorff_full_query(a, b) == 1e-9
        assert keyed == []

    def test_identical_clouds_query_every_point(self, monkeypatch):
        keyed = gridded(monkeypatch)
        assert hausdorff(cloud(GAUSS), cloud(GAUSS.copy())) == 0.0
        assert keyed == []  # low = 0 lays no grid

    @pytest.mark.parametrize("bad", [complex("nan"), complex(math.inf, 0.0), complex(0.0, -math.inf)])
    @pytest.mark.parametrize("which", ["first", "second"])
    def test_non_finite_point_is_bad_range(self, bad, which):
        points = GAUSS[:10].copy()
        points[4] = bad
        clouds = (cloud(points), cloud(GAUSS)) if which == "first" else (cloud(GAUSS), cloud(points))
        with pytest.raises(BadRange, match=f"the {which} cloud has {re.escape(str(bad))}$"):
            hausdorff(*clouds)


class TestKronecker:
    def test_single_frequency_exact(self):
        hit = kronecker_find_t([LOG2], [math.pi], tol=1e-3, t_max_search=10.0)
        assert hit.found
        assert hit.t == pytest.approx(math.pi / LOG2, abs=1e-6)
        assert hit.residual <= 1e-8

    def test_two_frequencies(self):
        hit = kronecker_find_t([LOG2, LOG3], [math.pi, 0.0], tol=0.1, t_max_search=1e5)
        assert hit.found
        assert hit.residual < 0.1
        # re-verify independently of the search
        for beta, target in zip((LOG2, LOG3), (math.pi, 0.0)):
            x = -hit.t * beta - target
            assert abs((x + math.pi) % (2 * math.pi) - math.pi) < 0.1

    def test_insufficient_window(self):
        hit = kronecker_find_t([LOG2], [math.pi], tol=1e-12, t_max_search=1.0)
        assert not hit.found
        assert hit.t is None and hit.residual is None

    def test_lattice_point_whose_times_miss_the_window_is_rejected(self):
        # beta_2 = 2 beta_1 ties the phases: x_2 = 2 x_1 (mod 2pi), so
        # |x_1 - y_1| <= tol and |x_2| <= tol need 2 y_1 - 3 tol <= 0.  The
        # search visits lattice points whose t intervals do not meet in
        # [0, t_max], and must reject them rather than report a time
        hit = kronecker_find_t([LOG2, 2.0 * LOG2], [1.65e-3, 0.0], 1e-3, 1e3)
        assert hit == (False, None, None)

    def test_bad_parameters(self):
        with pytest.raises(BadRange):
            kronecker_find_t([LOG2], [0.0], tol=0.0, t_max_search=1.0)
        with pytest.raises(BadRange):
            kronecker_find_t([LOG2], [0.0, 1.0], tol=0.1, t_max_search=1.0)

    def test_planted_times_k2_to_k6(self):
        rng = random.Random(1616)
        primes = (2, 3, 5, 7, 11, 13)
        for k, tol, t_max in ((2, 1e-3, 400.0), (3, 2e-2, 5000.0), (4, 1e-2, 1e7),
                              (5, 1e-2, 1e8), (6, 2e-2, 1e8)):
            beta = [math.log(p) for p in primes[:k]]
            for _ in range(3):
                target = planted_target(beta, rng.uniform(0.1, 0.9) * t_max)
                hit = kronecker_find_t(beta, target, tol, t_max)
                assert hit.found, (k, target)
                assert 0.0 <= hit.t <= t_max
                assert hit.residual == kronecker_residual(hit.t, beta, target) <= tol

    def test_planted_time_at_k5_past_the_old_grid(self):
        # five prime logarithms, t* = 6.75e8 in [0, 1e9] with residual 0; a
        # grid capped at 5e6 samples reported this target not found
        beta = [math.log(p) for p in (2, 3, 5, 7, 11)]
        target = planted_target(beta, 6.75e8)
        hit = kronecker_find_t(beta, target, 1e-2, 1e9)
        assert hit.found
        assert 0.0 <= hit.t <= 1e9
        assert kronecker_residual(hit.t, beta, target) <= 1e-2

    def test_not_found_agrees_with_brute_force(self):
        rng = random.Random(1717)
        beta = [math.log(p) for p in (2, 3, 5)]
        found = 0
        for trial in range(40):
            if trial % 4 == 0:
                target = planted_target(beta, rng.uniform(0.0, 60.0))
            else:
                target = [rng.uniform(0.0, 2 * math.pi) for _ in beta]
            hit = kronecker_find_t(beta, target, 2e-2, 60.0)
            assert hit.found == brute_kronecker(beta, target, 2e-2, 60.0), target
            found += hit.found
        assert 10 <= found < 40

    def test_precision_limit_where_a_double_t_cannot_resolve_tol(self):
        # near t = 5e17 neighbouring doubles are 64 apart: an exact solution
        # exists, but no double t meets the target to 1e-6
        with pytest.raises(PrecisionLimit):
            kronecker_find_t([1.0], [0.5], 1e-6, 1e18)

    def test_zero_frequency_beside_nonzero_ones(self):
        beta = [LOG2, 0.0, LOG3]
        target = planted_target(beta, 37.0)
        target[1] = 0.5e-3
        hit = kronecker_find_t(beta, target, 1e-3, 100.0)
        assert hit.found
        assert kronecker_residual(hit.t, beta, target) <= 1e-3
        target[1] = 1.0  # a phase no t moves
        assert not kronecker_find_t(beta, target, 1e-3, 100.0).found
        assert kronecker_find_t([0.0, 0.0], [0.0, 2e-3], 1e-3, 1.0) == (False, None, None)
        hit = kronecker_find_t([0.0], [2 * math.pi], 1e-3, 1.0)
        assert hit.found and hit.t == 0.0

    @pytest.mark.parametrize(
        "beta, target",
        [([LOG2], [math.nan]), ([LOG2], [math.inf]), ([math.inf], [0.0]),
         ([math.nan, LOG3], [0.0, 0.0]), ([LOG2, LOG3], [0.0, -math.inf])],
    )
    def test_non_finite_input_refused(self, beta, target):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BadRange):
                kronecker_find_t(beta, target, 1e-3, 10.0)

    def test_valuesets_reexports_the_search(self):
        assert valuesets.kronecker_find_t is equivalence.kronecker_find_t
        assert bohreq.kronecker_find_t is equivalence.kronecker_find_t


def planted_target(beta, t_star):
    return [(-t_star * b) % (2 * math.pi) for b in beta]


def kronecker_residual(t, beta, target):
    return max(abs((-t * b - y + math.pi) % (2 * math.pi) - math.pi) for b, y in zip(beta, target))


def brute_kronecker(beta, target, tol, t_max):
    """Every integer n_1 for the first frequency, and for each its t interval
    cut by the intervals of every n_j the other frequencies allow."""
    two_pi = 2 * math.pi
    (b1, *rest), (y1, *ys) = beta, target
    for n1 in range(math.floor((y1 - tol) / two_pi), math.ceil((t_max * b1 + y1 + tol) / two_pi) + 1):
        pieces = [(max(0.0, (two_pi * n1 - y1 - tol) / b1), min(t_max, (two_pi * n1 - y1 + tol) / b1))]
        for b, y in zip(rest, ys):
            cut = []
            for lo, hi in pieces:
                for n in range(math.floor((lo * b + y - tol) / two_pi), math.ceil((hi * b + y + tol) / two_pi) + 1):
                    a, z = max(lo, (two_pi * n - y - tol) / b), min(hi, (two_pi * n - y + tol) / b)
                    if a <= z:
                        cut.append((a, z))
            pieces = cut
        if any(lo <= hi for lo, hi in pieces):
            return True
    return False
