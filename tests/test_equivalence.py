"""Twists, phase targets, integer kernels, and the congruence solver."""

import cmath
import math
import random
import re
import time
import tracemalloc
from fractions import Fraction

import pytest

from bohreq import equivalence, lattice, scenarios
from bohreq.basis import BohrMatrix, compute_basis, expand_over_pivots
from bohreq.core import ExponentVector, SeriesSpec, SymbolTable
from bohreq.equivalence import (
    CongruenceSystem,
    PhaseTargets,
    _decide,
    _expand_rows,
    _phases,
    circle_distance,
    closure_demo,
    extract_phase_targets,
    integer_kernel,
    is_equivalent_truncated,
    principal_angle,
    solve_phase_system,
    twist,
)
from bohreq.errors import (
    BadRange,
    DimensionMismatch,
    ModulusMismatch,
    PrecisionLimit,
    SupportMismatch,
)
from bohreq.evaluation import shift_series
from bohreq.lattice import hermite_normalize, integer_left_kernel
from helpers import (
    brute_min_norm,
    random_congruence_rows,
    random_exponent_list,
    random_twist_pair,
    smooth_spec,
    torus_min_residual,
)

PI = math.pi
TWO_PI = 2.0 * math.pi
#: Cap on the target draws of a resampling loop in the oracle comparison.
MAX_DRAWS = 1000

L2 = ExponentVector({"L2": 1})
L3 = ExponentVector({"L3": 1})
L6 = ExponentVector({"L2": 1, "L3": 1})


def spec_236(coeffs=(1.0, 1.0, 1.0)) -> SeriesSpec:
    syms = SymbolTable([("L2", math.log(2)), ("L3", math.log(3))])
    return SeriesSpec(syms, list(zip([L2, L3, L6], coeffs)))


def spec_23(coeffs=(1.0, 1.0)) -> SeriesSpec:
    syms = SymbolTable([("L2", math.log(2)), ("L3", math.log(3))])
    return SeriesSpec(syms, list(zip([L2, L3], coeffs)))


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _harmonic_twist(n_terms: int) -> tuple[SeriesSpec, SeriesSpec, dict[int, complex]]:
    """Harmonic coefficients a_n = 1/n, their twist b by seeded phases of the
    primes, and every ratio b_n / a_n."""
    rng = random.Random(2026)
    primes = [p for p in range(2, n_terms + 1) if all(p % q for q in range(2, p))]
    prime_phase = {p: rng.uniform(0, TWO_PI) for p in primes}
    ratio = {
        n: cmath.exp(1j * sum(e * prime_phase[p] for p, e in _factor(n).items()))
        for n in range(1, n_terms + 1)
    }
    a = scenarios.ordinary_series([(n, 1.0 / n) for n in ratio])
    b = scenarios.ordinary_series([(n, ratio[n] / n) for n in ratio])
    return a, b, ratio


def _check_harmonic_twist(n_terms: int) -> None:
    """The decision on `_harmonic_twist` is feasible and reproduces every
    b_n / a_n within 1e-8."""
    a, b, ratio = _harmonic_twist(n_terms)
    result = is_equivalent_truncated(a, b)
    assert result.equivalent
    basis, _, _ = compute_basis(a.exponents())
    column = {e.items()[0][0]: j for j, e in enumerate(basis.elements)}
    for n, want in ratio.items():
        angle = math.fsum(
            e * result.phase[column[f"L{p}"]] for p, e in _factor(n).items()
        )
        assert abs(cmath.exp(1j * angle) - want) <= 1e-8


class TestTwist:
    def test_identity_rows(self):
        spec = spec_23()
        basis, r, _ = compute_basis(spec.exponents())
        out = twist(spec, basis, r, [PI, 0.0])
        assert out.coeffs()[0] == pytest.approx(-1.0)
        assert out.coeffs()[1] == pytest.approx(1.0)

    def test_sum_row_accumulates_phases(self):
        spec = spec_236()
        basis, r, _ = compute_basis(spec.exponents())
        out = twist(spec, basis, r, [PI / 2, PI])
        assert out.coeffs()[0] == pytest.approx(1j)
        assert out.coeffs()[1] == pytest.approx(-1.0)
        assert out.coeffs()[2] == pytest.approx(-1j)  # phase 3pi/2

    def test_zero_phase_is_identity(self):
        spec = spec_236()
        basis, r, _ = compute_basis(spec.exponents())
        assert twist(spec, basis, r, [0.0, 0.0]).coeffs() == spec.coeffs()

    def test_dimension_mismatch(self):
        spec = spec_236()
        basis, r, _ = compute_basis(spec.exponents())
        with pytest.raises(DimensionMismatch):
            twist(spec, basis, r, [0.0])
        with pytest.raises(DimensionMismatch):
            twist(spec.take_terms(2), basis, r, [0.0, 0.0])

    def test_non_finite_phases_refused(self):
        spec = spec_236()
        basis, r, _ = compute_basis(spec.exponents())
        for phases in ([math.nan, 0.0], [0.0, math.inf], [-math.inf, 0.0]):
            with pytest.raises(BadRange, match="need finite phases"):
                twist(spec, basis, r, phases)

    def test_group_action_and_inverse(self):
        rng = random.Random(11)
        for _ in range(20):
            spec = smooth_spec(rng, max_terms=8)
            basis, r, _ = compute_basis(spec.exponents())
            y1 = [rng.uniform(0, TWO_PI) for _ in range(r.ncols)]
            y2 = [rng.uniform(0, TWO_PI) for _ in range(r.ncols)]
            once = twist(twist(spec, basis, r, y1), basis, r, y2)
            both = twist(spec, basis, r, [a + b for a, b in zip(y1, y2)])
            for c1, c2 in zip(once.coeffs(), both.coeffs()):
                assert abs(c1 - c2) <= 1e-12 * max(1.0, abs(c2))
            back = twist(twist(spec, basis, r, y1), basis, r, [-a for a in y1])
            for c1, c2 in zip(back.coeffs(), spec.coeffs()):
                assert abs(c1 - c2) <= 1e-12 * max(1.0, abs(c2))

    def test_modulus_preserved(self):
        rng = random.Random(12)
        for _ in range(10):
            spec = smooth_spec(rng, max_terms=10)
            twisted, _ = random_twist_pair(rng, spec)
            for c1, c2 in zip(spec.coeffs(), twisted.coeffs()):
                assert abs(abs(c1) - abs(c2)) <= 1e-12 * max(1.0, abs(c1))


class TestExtractPhaseTargets:
    def test_simple_targets(self):
        targets = extract_phase_targets(spec_23((1.0, 1.0)), spec_23((-1.0, 1.0)))
        assert targets.entries[0] == (0, pytest.approx(PI))
        assert targets.entries[1][1] == pytest.approx(0.0)

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatch) as err:
            extract_phase_targets(spec_23((1.0, 1.0)), spec_23((0.5, 1.0)))
        assert err.value.term == 1

    def test_support_mismatch(self):
        with pytest.raises(SupportMismatch) as err:
            extract_phase_targets(spec_23((0.0, 1.0)), spec_23((1.0, 1.0)))
        assert err.value.term == 1

    def test_double_zero_skipped(self):
        targets = extract_phase_targets(spec_23((0.0, 1.0)), spec_23((0.0, 1j)))
        assert targets.skipped == (0,)
        assert targets.entries == ((1, pytest.approx(PI / 2)),)

    def test_alignment_required(self):
        with pytest.raises(DimensionMismatch):
            extract_phase_targets(spec_236(), spec_23())
        syms = SymbolTable([("L2", math.log(2)), ("L3", math.log(3))])
        spec_26 = SeriesSpec(syms, [(L2, 1.0), (L6, 1.0)])
        with pytest.raises(DimensionMismatch, match="exponent vectors differ at term 2"):
            extract_phase_targets(spec_23(), spec_26)

    def test_exponent_values_must_agree(self):
        # e^{-s} + e^{-2s} against e^{-3s} + e^{-6s}: the same vectors over x,
        # whose value differs, so the exponents are not the same
        terms = [(ExponentVector({"x": 1}), 1.0), (ExponentVector({"x": 2}), 1.0)]
        one = SeriesSpec(SymbolTable([("x", 1.0)]), terms)
        three = SeriesSpec(SymbolTable([("x", 3.0)]), terms)
        with pytest.raises(DimensionMismatch, match="exponent values differ at term 1: 1.0 vs 3.0"):
            extract_phase_targets(one, three)
        with pytest.raises(DimensionMismatch):
            is_equivalent_truncated(one, three)
        # values, not tables, are compared: the symbols' order does not matter
        swapped = SeriesSpec(SymbolTable([("L3", math.log(3)), ("L2", math.log(2))]),
                             list(zip([L2, L3], (1.0, 1j))))
        targets = extract_phase_targets(spec_23(), swapped)
        assert targets.entries == ((0, 0.0), (1, pytest.approx(PI / 2)))

    def test_non_finite_coefficient_refused(self):
        # specs built in code skip the file parser's check; the term is 1-based
        for bad in (complex(math.nan, 0.0), complex(0.0, math.inf), complex(-math.inf, 1.0)):
            for a, b in (((1.0, bad), (1.0, 1.0)), ((1.0, 1.0), (1.0, bad))):
                with pytest.raises(BadRange, match="need finite coefficients at term 2"):
                    extract_phase_targets(spec_23(a), spec_23(b))

    def test_modulus_beyond_a_double_refused(self):
        # both parts finite, |1.5e308 + 1.5e308 i| beyond a double: abs()
        # overflows, and the error names the 1-based term
        big = complex(1.5e308, 1.5e308)
        for a, b in (((1.0, big), (1.0, 1.0)), ((1.0, 1.0), (1.0, big))):
            with pytest.raises(PrecisionLimit, match="moduli at term 2.*not both finite doubles"):
                extract_phase_targets(spec_23(a), spec_23(b))

    def test_targets_finite_where_the_quotient_overflows(self):
        # b(n)/a(n) near the largest double is NaN (1e308 + 1e308 i over
        # itself) or 0 (|1e308 + 1e308 i| over 1e308 + 1e308 i)
        big = complex(1e308, 1e308)
        for c, want in ((big, 0.0), (complex(abs(big), 0.0), 7 * math.pi / 4)):
            targets = extract_phase_targets(spec_23((1.0, big)), spec_23((1.0, c)))
            assert targets.thetas()[0] == 0.0
            assert targets.thetas()[1] == pytest.approx(want, abs=1e-15)

    def test_coefficient_near_the_largest_double_decides_right(self):
        # theta_6 = pi/2 breaks theta_6 = theta_2 + theta_3 = 0; a NaN theta_2
        # had passed every relation and the scan's norm was NaN
        f = scenarios.ordinary_series([(1, 1.0), (2, 1e308 + 1e308j), (3, 1.0), (6, 1.0)])
        g = f.with_coeffs([1.0, 1e308 + 1e308j, 1.0, 1j])
        assert not is_equivalent_truncated(f, g).equivalent
        same = is_equivalent_truncated(f, f)
        assert same.equivalent and all(map(math.isfinite, same.phase))
        assert [p.feasible for p in closure_demo(f, g, 4)] == [True, True, True, False]
        assert all(p.min_norm == 0.0 for p in closure_demo(f, f, 4))


def non_integral_twists(k: int):
    """(a, b, Y0): 8 seeded series over k symbols with rational exponents, b a twist of a.

    Every other one has a zero first coefficient, so its first basis source is
    skipped, the pivot rows are not unit rows of R and some directions stay free.
    """
    rng = random.Random(7070 + k)
    names = "ABC"[:k]
    syms = SymbolTable([(name, 1.0 + 0.37 * i) for i, name in enumerate(names)])
    for trial in range(8):
        exps = [ExponentVector({name: 1}) for name in names]
        while len(exps) < k + 2:
            e = ExponentVector(
                {name: Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for name in names}
            )
            if e.items() and e not in exps:
                exps.append(e)
        coeffs = [0.0 if trial % 2 and i == 0 else 1.0 for i in range(len(exps))]
        a = SeriesSpec(syms, list(zip(exps, coeffs)))
        basis, r, _ = compute_basis(exps)
        y0 = [rng.uniform(0.0, TWO_PI) for _ in range(k)]
        yield a, twist(a, basis, r, y0), y0


def harmonic_without_two(n_terms: int, seed: int):
    """1..N with the 2^-s coefficient zero, and a seeded twist: L has rank above 1."""
    a = scenarios.ordinary_series(
        [(n, 0.0 if n == 2 else 1.0 / n) for n in range(1, n_terms + 1)]
    )
    basis, r, _ = compute_basis(a.exponents())
    rng = random.Random(seed)
    return a, twist(a, basis, r, [rng.uniform(-20.0, 20.0) for _ in range(r.ncols)])


def randomly_turned(a: SeriesSpec, seed: int):
    """a, and a with every coefficient from the third on turned by a seeded random angle."""
    rng = random.Random(seed)
    turned = [t.coeff * (cmath.exp(1j * rng.uniform(0.0, TWO_PI)) if i >= 2 else 1.0)
              for i, t in enumerate(a.terms)]
    return a, a.with_coeffs(turned)


def changed_at(pair, index: int, factor: complex):
    """The pair with the second series' coefficient at `index` multiplied by factor."""
    a, b = pair
    coeffs = [t.coeff * (factor if i == index else 1.0) for i, t in enumerate(b.terms)]
    return a, b.with_coeffs(coeffs)


def stacked_coset(lift, thetas: list[float]):
    """(w, Hermite form of L) from one diagonalization of every wrapped row at once.

    Row n over the pivots, scaled by the lcm d of its denominators, gives
    d R'_n . z + d u_n = round(d c_n); the kernel of the whole system, cut to
    z, is L, and w is its solution reduced modulo L.
    """
    r = len(lift.pivots)
    wrapped = [n for n, row in enumerate(lift.expr)
               if any(q.denominator != 1 for q in row.values())]
    if not wrapped:
        return [0] * r, None
    system, rhs = [], []
    for i, n in enumerate(wrapped):
        row = lift.expr[n]
        d = math.lcm(*(q.denominator for q in row.values()))
        scaled = [int(row.get(j, 0) * d) for j in range(r)]
        system.append(scaled + [d if t == i else 0 for t in range(len(wrapped))])
        terms = [d * thetas[n]] + [-c * th for c, th in zip(scaled, lift.theta) if c]
        rhs.append(round(math.fsum(terms) / TWO_PI))
    solution, kernel = lattice.solve_integer_rows(system, rhs)
    basis = hermite_normalize([v[:r] for v in kernel])
    return equivalence._reduce(solution[:r], basis), basis


class TestExpandRows:
    """The pivot-form shortcut agrees with a fresh expansion of the same rows."""

    @staticmethod
    def expanded(matrix, idx):
        rows = [dict(matrix.row_items(i)) for i in idx]
        return (rows, *expand_over_pivots(rows))

    def test_basis_prefixes(self):
        rng = random.Random(1102)
        syms = SymbolTable([("A", 1.11), ("B", 2.23), ("C", 3.31)])
        specs = [scenarios.ordinary_series([(n, 1.0 / n) for n in range(1, 41)])]
        specs += [scenarios.bohr_example(12)]
        exps = [s.exponents() for s in specs]
        exps += [random_exponent_list(rng, syms, max_terms=10) for _ in range(40)]
        shortcuts = expansions = 0
        for lams in exps:
            _, r, _ = compute_basis(lams)
            for h in range(1, r.nrows + 1):
                prefix = list(range(h))
                skipped = [i for i in prefix if rng.random() >= 0.3] or [0]
                for idx in (prefix, skipped):
                    got = _expand_rows(r, idx)
                    assert got == self.expanded(r, idx)
                    assert all(type(q) is (int if q.denominator == 1 else Fraction)
                               for row in got[2] for q in row.values())
                    if got[2] is got[0]:
                        shortcuts += 1
                    else:
                        expansions += 1
                # an unskipped prefix of R is always in pivot form
                rows, _, expr = _expand_rows(r, prefix)
                assert expr is rows
        assert shortcuts > 0 and expansions > 0

    def test_matrices_not_in_unit_form(self):
        # hand-built rows as in the torus-oracle comparison: a prefix whose
        # pivot rows are not unit rows must be expanded
        rng = random.Random(1103)
        expansions = 0
        for k in [1] * 20 + [2] * 20 + [3] * 20:
            rows = random_congruence_rows(rng, k)
            matrix = BohrMatrix([dict(enumerate(row)) for row in rows], ncols=k)
            idx = list(range(len(rows)))
            got = _expand_rows(matrix, idx)
            assert got == self.expanded(matrix, idx)
            expansions += got[2] is not got[0]
        assert expansions > 0


class TestIntegerKernel:
    def test_sum_relation(self):
        _, r, _ = compute_basis([L2, L3, L6])
        assert integer_kernel(r, [0, 1, 2]) == [(1, 1, -1)]

    def test_empty_row_selection_refused(self):
        _, r, _ = compute_basis([L2, L3, L6])
        with pytest.raises(DimensionMismatch, match="row selection must be nonempty"):
            integer_kernel(r, [])

    def test_row_outside_the_matrix_refused(self):
        _, r, _ = compute_basis([L2, L3, L6])
        for idx in ([0, 3], [-1, 1]):
            with pytest.raises(DimensionMismatch, match=r"row selection outside 0\.\.2"):
                integer_kernel(r, idx)

    def test_independent_rows_empty(self):
        _, r, _ = compute_basis([L2, L3])
        assert integer_kernel(r, [0, 1]) == []

    def test_rational_column_clears_denominators(self):
        exps = [ExponentVector({"ONE": scenarios.bohr_exponent(n)}) for n in (1, 2)]
        _, r, _ = compute_basis(exps)
        assert integer_kernel(r, [0, 1]) == [(19, -9)]

    def test_kernel_annihilates_rows_exactly(self):
        rng = random.Random(77)
        syms = SymbolTable([("A", 1.11), ("B", 2.23), ("C", 3.31)])
        for _ in range(40):
            exps = random_exponent_list(rng, syms)
            _, r, _ = compute_basis(exps)
            rows = list(range(len(exps)))
            dense = r.dense_rows(rows)
            for m in integer_kernel(r, rows):
                for j in range(r.ncols):
                    assert sum(mi * row[j] for mi, row in zip(m, dense)) == Fraction(0)

    def test_same_lattice_as_full_matrix_kernel(self):
        # the left kernel of the whole dense matrix is the reference
        rng = random.Random(6061)
        syms = SymbolTable([("A", 1.11), ("B", 2.23), ("C", 3.31)])
        systems = []
        for _ in range(40):
            rows = random_congruence_rows(rng, rng.randint(1, 3))
            systems.append(BohrMatrix([dict(enumerate(row)) for row in rows], ncols=len(rows[0])))
        for _ in range(40):
            systems.append(compute_basis(random_exponent_list(rng, syms))[1])
        zero_rows = wrapped_rows = 0
        for r in systems:
            rows = list(range(r.nrows))
            rng.shuffle(rows)
            rows.append(rng.choice(rows))  # a repeated row is one more relation
            dense = r.dense_rows(rows)
            got = integer_kernel(r, rows)
            assert hermite_normalize(got) == hermite_normalize(integer_left_kernel(dense))
            for m in got:
                assert m[next(i for i, x in enumerate(m) if x)] > 0
            zero_rows += sum(not any(row) for row in dense)
            _, expr = expand_over_pivots([dict(r.row_items(i)) for i in rows])
            wrapped_rows += sum(any(q.denominator != 1 for q in row.values()) for row in expr)
        assert zero_rows > 0 and wrapped_rows > 0

    def test_ordinary_series_pivot_form(self):
        # integral R: one generator per non-pivot row n, a signed unit on the
        # non-pivot coordinates (zero row n = 1 included)
        spec = scenarios.ordinary_series([(n, 1.0 / n) for n in range(1, 31)])
        basis, r, _ = compute_basis(spec.exponents())
        rows = list(range(30))
        kernel = integer_kernel(r, rows)
        non_pivots = [n for n in rows if n not in basis.source_indices]
        assert len(kernel) == len(non_pivots) == 20
        owners = []
        for m in kernel:
            own = [n for n in non_pivots if m[n]]
            assert len(own) == 1 and abs(m[own[0]]) == 1
            owners.append(own[0])
            assert m[next(i for i, x in enumerate(m) if x)] > 0
        assert sorted(owners) == non_pivots
        dense = r.dense_rows(rows)
        assert hermite_normalize(kernel) == hermite_normalize(integer_left_kernel(dense))


def check_relations_first(m: BohrMatrix, thetas: list[float], system, tol: float = 1e-9):
    """The verdict matches deciding by the relations first: infeasible exactly
    when a generator of `integer_kernel` has defect above tol |m|_1, and the
    witness is the first such generator.  A system of None stands for a
    PrecisionLimit, which only a system whose every relation holds may raise."""
    failing = [
        g for g in integer_kernel(m, range(len(thetas)))
        if not circle_distance(math.fsum(c * th for c, th in zip(g, thetas)))
        <= tol * sum(map(abs, g))
    ]
    if system is None:
        assert not failing
    else:
        assert system.feasible == (not failing)
        if failing:
            assert system.witness == failing[0]


class TestSolvePhaseSystem:
    def test_consistent_by_construction(self):
        _, r, _ = compute_basis([L2, L3, L6])
        targets = PhaseTargets(((0, PI / 2), (1, PI / 3), (2, PI / 2 + PI / 3)))
        system = solve_phase_system(r, targets)
        assert system.feasible
        assert circle_distance(system.phase[0] - PI / 2) < 1e-9
        assert circle_distance(system.phase[1] - PI / 3) < 1e-9

    def test_violated_relation_with_witness(self):
        _, r, _ = compute_basis([L2, L3, L6])
        targets = PhaseTargets(((0, PI / 2), (1, PI / 3), (2, 0.0)))
        system = solve_phase_system(r, targets)
        assert not system.feasible
        assert system.witness == (1, 1, -1)
        assert system.defect == pytest.approx(5 * PI / 6)

    def test_bohr_shift_phases_need_scaled_torus(self):
        # shifting by tau_1 = 2pi gives targets (pi, 5pi/3); the minimal
        # solution is y = -3pi, far outside the naive [0, 2pi) box
        exps = [ExponentVector({"ONE": scenarios.bohr_exponent(n)}) for n in (1, 2)]
        _, r, _ = compute_basis(exps)
        targets = PhaseTargets(((0, PI), (1, 5 * PI / 3)))
        system = solve_phase_system(r, targets)
        assert system.feasible
        assert system.phase[0] == pytest.approx(-3 * PI, rel=1e-12)
        # verify the worked solution directly
        assert circle_distance(1.0 * (-3 * PI) - PI) < 1e-12
        assert circle_distance((19.0 / 9.0) * (-3 * PI) - 5 * PI / 3) < 1e-12

    def test_free_directions_are_zero(self):
        # one constrained row (1/2, 1/2) over two columns: e_0 is independent
        # of it, so Y_0 = 0 and Y_1 carries the whole phase
        m = BohrMatrix([{0: Fraction(1, 2), 1: Fraction(1, 2)}], ncols=2)
        system = solve_phase_system(m, PhaseTargets(((0, 1.0),)))
        assert system.feasible
        assert system.phase == (0.0, 2.0)

    def test_zero_rows_constrain_their_targets(self):
        m = BohrMatrix([{}, {0: 1}], ncols=1)
        ok = solve_phase_system(m, PhaseTargets(((0, 0.0), (1, 1.0))))
        assert ok.feasible
        bad = solve_phase_system(m, PhaseTargets(((0, 1.0), (1, 1.0))))
        assert not bad.feasible

    def test_soundness_on_random_systems(self):
        # feasible verdicts must verify their phase; infeasible ones their witness
        rng = random.Random(4242)
        for trial in range(60):
            k = rng.randint(1, 3)
            rows = random_congruence_rows(rng, k)
            m = BohrMatrix(
                [dict(enumerate(row)) for row in rows], ncols=k
            )
            if trial % 2 == 0:
                y0 = [rng.uniform(0, TWO_PI) for _ in range(k)]
                thetas = [
                    math.fsum(float(q) * y for q, y in zip(row, y0)) % TWO_PI
                    for row in rows
                ]
            else:
                thetas = [rng.uniform(0, TWO_PI) for _ in rows]
            targets = PhaseTargets(tuple(enumerate(thetas)))
            system = solve_phase_system(m, targets)
            check_relations_first(m, thetas, system)
            dense = [[float(q) for q in row] for row in rows]
            if system.feasible:
                worst = max(
                    circle_distance(
                        math.fsum(c * y for c, y in zip(row, system.phase)) - th
                    )
                    for row, th in zip(dense, thetas)
                )
                assert worst <= 1e-9
            else:
                s = math.fsum(mi * th for mi, th in zip(system.witness, thetas))
                assert circle_distance(s) > 1e-9 * sum(abs(x) for x in system.witness)
                # the witness annihilates the rows exactly
                for j in range(k):
                    assert (
                        sum(mi * row[j] for mi, row in zip(system.witness, rows)) == 0
                    )

    def test_heavy_denominators_still_solve(self):
        # feasible-by-construction systems beyond the everyday envelope:
        # the pivot rows are not unit rows and the expressions over them carry
        # large denominators, so every phase is read off the expansion of its
        # basis column over the pivot rows, with free directions set to 0.
        # With random targets instead, the verdict is the relations' verdict.
        # A PrecisionLimit names the largest l1 norm when that norm makes a
        # relation's bound tol |g|_1 reach pi, too wide to test it
        rng = random.Random(999)
        solved, verdicts, untested = 0, {True: 0, False: 0, None: 0}, 0
        for _ in range(120):
            k = rng.randint(1, 4)
            nrows = rng.randint(k, 7)
            rows = [
                [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(k)]
                for _ in range(nrows)
            ]
            m = BohrMatrix([dict(enumerate(row)) for row in rows], ncols=k)
            y0 = [rng.uniform(0, 40) for _ in range(k)]
            thetas = [
                math.fsum(float(q) * y for q, y in zip(row, y0)) % TWO_PI
                for row in rows
            ]
            system = solve_phase_system(m, PhaseTargets(tuple(enumerate(thetas))))
            assert system.feasible and system.residual <= 1e-9
            check_relations_first(m, thetas, system)
            solved += 1
            thetas = [rng.uniform(0, TWO_PI) for _ in rows]
            try:
                system = solve_phase_system(m, PhaseTargets(tuple(enumerate(thetas))))
            except PrecisionLimit as err:  # relations of large l1 norm pass, but rows miss
                system = None
                heaviest = max(sum(map(abs, g)) for g in integer_kernel(m, range(nrows)))
                if 1e-9 * heaviest >= math.pi:
                    assert f"could not be tested: at the largest l1 norm {heaviest}," in str(err)
                    untested += 1
                else:
                    assert str(err).startswith("every integer relation holds within tol")
            check_relations_first(m, thetas, system)
            verdicts[None if system is None else system.feasible] += 1
        assert solved == 120
        assert min(verdicts.values()) > 0, verdicts
        assert (verdicts[None], untested) == (4, 3)

    def test_non_finite_targets_refused(self):
        # a non-finite target is refused where the targets are made, by term
        spec = scenarios.ordinary_series([(n, 1.0) for n in (1, 2, 3, 6)])
        _, r, _ = compute_basis(spec.exponents())
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(BadRange, match="at term 2"):
                solve_phase_system(r, PhaseTargets(((0, 0.0), (1, bad), (2, 0.0), (3, 0.0))))

    def test_non_finite_miss_is_a_miss(self, monkeypatch):
        # a phase whose product with a row is beyond a double misses that row;
        # the residual may not drop it because an earlier row is met
        m = BohrMatrix([{}, {0: 2}], ncols=1)
        targets = PhaseTargets(((0, 0.0), (1, 0.0)))
        assert solve_phase_system(m, targets).phase == (0.0,)
        monkeypatch.setattr(equivalence, "_phases", lambda lift, k: (1e308,))
        with pytest.raises(PrecisionLimit, match="residual inf"):
            solve_phase_system(m, targets)

    def test_verdict_matches_torus_oracle(self):
        # smaller twin of the acceptance criterion: exact solver vs grid search
        rng = random.Random(90125)
        agreements = 0
        for trial in range(12):
            k = rng.choice((1, 1, 2, 2, 3))
            rows = random_congruence_rows(rng, k)
            m = BohrMatrix([dict(enumerate(row)) for row in rows], ncols=k)
            if trial % 2 == 0:
                y0 = [rng.uniform(0, TWO_PI * 6) for _ in range(k)]
                thetas = [
                    math.fsum(float(q) * y for q, y in zip(row, y0)) % TWO_PI
                    for row in rows
                ]
            else:
                kernel = integer_kernel(m, list(range(len(rows))))
                for _ in range(MAX_DRAWS):
                    thetas = [rng.uniform(0, TWO_PI) for _ in rows]
                    if not kernel:
                        break
                    margin = max(
                        circle_distance(
                            math.fsum(mi * th for mi, th in zip(vec, thetas))
                        )
                        / sum(abs(x) for x in vec)
                        for vec in kernel
                    )
                    if margin >= 0.2:
                        break
                else:
                    pytest.fail(f"no draw in {MAX_DRAWS} reached margin 0.2 for kernel {kernel}")
            system = solve_phase_system(m, PhaseTargets(tuple(enumerate(thetas))))
            oracle = torus_min_residual(rows, thetas) <= 0.05
            assert system.feasible == oracle
            agreements += 1
        assert agreements == 12


class TestCongruenceSystem:
    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"feasible": True, "residual": 0.0}, "requires a phase vector and residual"),
            ({"feasible": True, "phase": (0.0,)}, "requires a phase vector and residual"),
            (
                {"feasible": True, "phase": (0.0,), "residual": 0.1},
                "residual 1.000e-01 > tol 1.000e-09",
            ),
            ({"feasible": True, "phase": (0.0,), "residual": math.nan}, "residual nan > tol"),
            ({"feasible": False, "defect": 1.0}, "requires a witness and defect"),
            ({"feasible": False, "witness": (1, -1)}, "requires a witness and defect"),
            ({"feasible": False, "witness": (1, -1), "defect": 2e-9}, "does not exceed tolerance"),
        ],
    )
    def test_inconsistent_verdict_refused(self, fields, message):
        # a verdict built by hand is checked as the solver's own are
        with pytest.raises(ValueError, match=re.escape(message)):
            CongruenceSystem((0, 1), PhaseTargets(((0, 0.5), (1, 1.0))), tol=1e-9, **fields)


class TestIsEquivalentTruncated:
    def test_roundtrip_recovers_twist_phases(self):
        rng = random.Random(314)
        for _ in range(15):
            spec = smooth_spec(rng, max_terms=12)
            basis, r, _ = compute_basis(spec.exponents())
            y0 = [rng.uniform(0, TWO_PI) for _ in range(r.ncols)]
            twisted = twist(spec, basis, r, y0)
            result = is_equivalent_truncated(spec, twisted)
            assert result.equivalent
            # the recovered phases reproduce the same coefficient twist
            dense = r.float_rows()
            for i in range(len(spec.terms)):
                want = cmath.exp(1j * math.fsum(q * y for q, y in zip(dense[i], y0)))
                got = cmath.exp(
                    1j * math.fsum(q * y for q, y in zip(dense[i], result.phase))
                )
                assert abs(want - got) < 1e-9

    def test_kernel_violation_not_equivalent(self):
        a = spec_236((1.0, 1.0, 1.0))
        b = spec_236((1j, -1.0, 1.0))
        result = is_equivalent_truncated(a, b)
        assert not result.equivalent
        assert result.system is not None and result.system.witness == (1, 1, -1)

    def test_modulus_mismatch_reported(self):
        result = is_equivalent_truncated(spec_23((1.0, 1.0)), spec_23((1.0, 0.9)))
        assert not result.equivalent
        assert "moduli" in result.reason

    def test_feasible_at_two_hundred_terms(self):
        _check_harmonic_twist(200)

    def test_feasible_at_thousand_terms(self):
        _check_harmonic_twist(1000)

    def test_decision_holds_no_dense_relation_matrix(self):
        # at N = 2000 the 1697 relations as dense 2000-tuples would hold
        # about 27 MiB; kept sparse, the decision peaks near 1.6 MiB
        a, b, _ = _harmonic_twist(2000)
        tracemalloc.start()
        try:
            result = is_equivalent_truncated(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.equivalent
        assert peak < 8 * 2**20

    def test_skipped_basis_source(self):
        # the basis source (exponent 1) vanishes in both series, so the pivot
        # is the constrained row 3/2, which is not a unit row of R
        syms = SymbolTable([("ONE", 1.0)])
        exps = [ExponentVector({"ONE": q}) for q in ("1", "3/2", "7/3")]
        a = SeriesSpec(syms, list(zip(exps, [0.0, 1.0, 0.5 - 0.25j])))
        basis, r, _ = compute_basis(a.exponents())
        b = twist(a, basis, r, [37.0])
        result = is_equivalent_truncated(a, b)
        assert result.system.targets.skipped == (0,)
        assert result.equivalent
        assert result.system.residual <= result.system.tol
        for ta, tb, q in zip(a.terms[1:], b.terms[1:], (1.5, 7 / 3)):
            got = ta.coeff * cmath.exp(1j * q * result.phase[0])
            assert abs(got - tb.coeff) <= 1e-9

    def test_rounded_phase_is_checked(self):
        # on Bohr's series the exact lift outgrows double precision at N = 9:
        # the verdict raises rather than pair a phase that misses the
        # coefficients with a residual that phase does not have
        f = scenarios.bohr_example(8)
        g = scenarios.negate(f)
        result = is_equivalent_truncated(f, g)
        assert result.equivalent
        assert result.system.residual <= result.system.tol
        basis, r, _ = compute_basis(f.exponents())
        for tt, tg in zip(twist(f, basis, r, result.phase).terms, g.terms):
            assert abs(tt.coeff - tg.coeff) <= 2 * result.system.tol
        # the checked fold reaches the verdict without building the relations,
        # whose Hermite form has entries as large as lcm den(lambda_n / lambda_1)
        for n in (9, 20, 160):
            f = scenarios.bohr_example(n)
            g = scenarios.negate(f)
            start = time.process_time()
            with pytest.raises(PrecisionLimit, match="phase vector lost precision"):
                is_equivalent_truncated(f, g)
            assert time.process_time() - start < 1.0

    def test_feasible_decision_builds_no_relations(self, monkeypatch):
        # the fold decides, and the relations are built only to name a
        # witness: decisions with wrapped rows make no left kernel unless
        # they are infeasible
        calls = []

        def counted(rows):
            calls.append(len(rows))
            return integer_left_kernel(rows)

        monkeypatch.setattr(equivalence, "integer_left_kernel", counted)
        monkeypatch.setattr(lattice, "integer_left_kernel", counted)
        f = scenarios.bohr_example(8)
        pairs = [(f, scenarios.negate(f)), harmonic_without_two(40, 4040)]
        for a, b in pairs:
            _, r, _ = compute_basis(a.exponents())
            expr = _expand_rows(r, extract_phase_targets(a, b).indices())[2]
            assert equivalence._wrapped_rows(expr)
            assert is_equivalent_truncated(a, b).equivalent
        assert calls == []
        assert not is_equivalent_truncated(*randomly_turned(pairs[1][0], 4041)).equivalent
        assert len(calls) == 1

    def test_tolerance_miss_is_not_called_lost_precision(self):
        # 1 + 2^{-s} + 4^{-s} twisted with theta_4 - 2 theta_2 = 2.5e-9 at tol
        # 1e-9: the relation passes (2.5e-9 <= 3 tol), the exact lift misses
        # term 3 by 2.5e-9, and no precision is lost anywhere
        a = scenarios.ordinary_series([(1, 1.0), (2, 1.0), (4, 1.0)])
        b = scenarios.ordinary_series(
            [(1, 1.0), (2, cmath.exp(0.7j)), (4, cmath.exp(1j * (1.4 + 2.5e-9)))]
        )
        message = r"relation holds within tol .* misses the target of term 3 by 2\.500e-09"
        with pytest.raises(PrecisionLimit, match=message):
            is_equivalent_truncated(a, b, 1e-9)
        with pytest.raises(PrecisionLimit, match=message):
            closure_demo(a, b, 3)

    def test_shift_equivalence(self):
        # vertical shifts are twists: always equivalent, for any tau
        rng = random.Random(2718)
        spec = smooth_spec(rng, max_terms=10)
        for _ in range(10):
            tau_shift = rng.uniform(-10.0, 10.0)
            shifted = shift_series(spec, tau_shift)
            assert is_equivalent_truncated(spec, shifted).equivalent


class TestClosureDemo:
    def test_bohr_counterexample_signature(self):
        f = scenarios.bohr_example(3)
        g = scenarios.negate(f)
        points = closure_demo(f, g, 3)
        assert [(p.n, p.feasible) for p in points] == [(1, True), (2, True), (3, True)]
        norms = [p.min_norm for p in points]
        assert norms[0] == pytest.approx(PI, rel=1e-12)
        assert norms[1] == pytest.approx(9 * PI, rel=1e-12)
        assert norms[2] == pytest.approx(45 * PI, rel=1e-12)

    def test_twist_roundtrip_bounded_norms(self):
        # a one-symbol series twisted by y0 stays feasible at every N with
        # minimal norm at most the mod-reduced |y0|
        syms = SymbolTable([("ONE", 1.0)])
        exps = [ExponentVector({"ONE": n}) for n in (1, 2, 3, 4)]
        spec = SeriesSpec(syms, [(e, 1.0) for e in exps])
        basis, r, _ = compute_basis(spec.exponents())
        y0 = 1.25
        twisted = twist(spec, basis, r, [y0])
        points = closure_demo(spec, twisted, 4)
        assert all(p.feasible for p in points)
        assert all(p.min_norm <= y0 + 1e-9 for p in points)

    def test_modulus_mismatch_breaks_from_that_term(self):
        f = scenarios.bohr_example(3)
        g = f.with_coeffs([1.0, 0.5, 1.0])
        points = closure_demo(f, g, 3)
        assert [p.feasible for p in points] == [True, False, False]
        assert points[0].min_norm == pytest.approx(0.0, abs=1e-12)

    def test_bohr_scan_to_twenty_matches_closed_form(self):
        # min norm at N is pi * lcm_{n<=N} den(lambda_n / lambda_1), with the
        # exponents taken from their definition 2n-1 + 1/(2(2n-1))
        def exponent(n):
            odd = 2 * n - 1
            return odd + Fraction(1, 2 * odd)

        f = scenarios.bohr_example(20)
        points = closure_demo(f, scenarios.negate(f), 20)
        lcm = 1
        for n, point in enumerate(points, start=1):
            lcm = math.lcm(lcm, (exponent(n) / exponent(1)).denominator)
            assert point.feasible
            assert point.min_norm == pytest.approx(PI * lcm, rel=1e-12)
        assert lcm == 500899824099675
        # the exact lift is the coset w + lcm Z, and its phase has w
        # size-reduced modulo lcm Z
        _, r, _ = compute_basis(f.exponents())
        lift = _decide(r, extract_phase_targets(f, scenarios.negate(f)))
        assert lift.lattice == [[lcm]] and 0 <= lift.w[0] < lcm
        assert abs(_phases(lift, 1)[0]) <= PI * (lcm + 1)

    def test_twisted_ordinary_series_thirty_terms(self):
        # unit pivots over the primes and integral R: the shortest solution
        # takes each prime phase to its representative in [-pi, pi)
        rng = random.Random(3030)
        a = scenarios.ordinary_series([(n, 1.0 / n) for n in range(1, 31)])
        basis, r, _ = compute_basis(a.exponents())
        y = [rng.uniform(-20.0, 20.0) for _ in range(r.ncols)]
        b = twist(a, basis, r, y)
        start = time.process_time()
        points = closure_demo(a, b, 30)
        assert time.process_time() - start < 1.0
        sources = basis.source_indices
        for point in points:
            reduced = [(v + PI) % TWO_PI - PI for v, i in zip(y, sources) if i < point.n]
            want = math.sqrt(sum(v * v for v in reduced))
            assert point.feasible
            assert point.min_norm == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_twisted_ordinary_series_rank_twenty_five(self):
        # 100 terms over the 25 primes below 100: unit pivots with no wrapped
        # row take the separable closed form, so rank costs no search
        rng = random.Random(3100)
        a = scenarios.ordinary_series([(n, 1.0 / n) for n in range(1, 101)])
        basis, r, _ = compute_basis(a.exponents())
        assert r.ncols == 25
        y = [rng.uniform(-20.0, 20.0) for _ in range(r.ncols)]
        start = time.process_time()
        points = closure_demo(a, twist(a, basis, r, y), 100)
        assert time.process_time() - start < 1.0
        want = math.sqrt(sum(((v + PI) % TWO_PI - PI) ** 2 for v in y))
        assert all(p.feasible for p in points)
        assert points[-1].min_norm == pytest.approx(want, rel=1e-12)

    def test_twisted_series_without_two_rank_twelve(self):
        # the 2^-s coefficient is zero, so the pivot row for L2 is 4^-s = 2 e_2
        # and rows such as 6^-s and 8^-s are wrapped: L has rank 12 at N = 40.
        # From N = 6 on, 3^-s and 6^-s fix Y_2 modulo 2pi as well, so every
        # Y_p is fixed and the minimum is sqrt(sum_{p <= N} principal_angle(y_p)^2)
        def twisted(n_terms, seed):
            a = scenarios.ordinary_series(
                [(n, 0.0 if n == 2 else 1.0 / n) for n in range(1, n_terms + 1)]
            )
            basis, r, _ = compute_basis(a.exponents())
            rng = random.Random(seed)
            y = [rng.uniform(-20.0, 20.0) for _ in range(r.ncols)]
            return a, twist(a, basis, r, y), basis, r, y

        a, b, basis, r, y = twisted(40, 4040)
        assert r.ncols == 12
        a100, b100, basis100, r100, _ = twisted(100, 4100)
        start = time.process_time()
        points = closure_demo(a, b, 40)
        result = is_equivalent_truncated(a100, b100)
        assert time.process_time() - start < 5.0
        lift = _decide(r, extract_phase_targets(a, b))
        assert len(lift.lattice) == 12
        assert all(p.feasible for p in points)
        for point in points[5:]:
            angles = [principal_angle(v) for v, i in zip(y, basis.source_indices) if i < point.n]
            want = math.sqrt(sum(v * v for v in angles))
            assert point.min_norm == pytest.approx(want, rel=1e-12)
        assert result.equivalent
        again = twist(a100, basis100, r100, result.phase)
        for got, term in zip(again.terms, b100.terms):
            assert abs(got.coeff - term.coeff) <= 1e-8 * max(1.0, abs(term.coeff))

    def test_each_decision_reduces_its_lattice_once(self, monkeypatch):
        # the fold keeps L in Hermite form; `_min_norm` LLL-reduces it once per
        # closure prefix whose coset w + L is new and whose L is not Z^r (on
        # Bohr's series, once per growth of lcm den(lambda_n / lambda_1)), and
        # a decision once, for Babai
        calls = {"lll": 0, "lattices": 0}
        real_lll, real_min_norm = lattice.lll_reduce, equivalence._min_norm

        def counted_lll(basis):
            calls["lll"] += 1
            return real_lll(basis)

        def counted_min_norm(lift):
            calls["lattices"] += lift.lattice is not None
            return real_min_norm(lift)

        monkeypatch.setattr(lattice, "lll_reduce", counted_lll)
        monkeypatch.setattr(equivalence, "lll_reduce", counted_lll)
        monkeypatch.setattr(equivalence, "_min_norm", counted_min_norm)
        f = scenarios.bohr_example(20)
        closure_demo(f, scenarios.negate(f), 20)
        assert calls == {"lll": 14, "lattices": 14}
        a = scenarios.ordinary_series([(n, 0.0 if n == 2 else 1.0 / n) for n in range(1, 21)])
        basis, r, _ = compute_basis(a.exponents())
        y = [0.5 + j for j in range(r.ncols)]
        calls.update(lll=0, lattices=0)
        closure_demo(a, twist(a, basis, r, y), 20)
        assert calls["lll"] == calls["lattices"] > 0
        calls.update(lll=0, lattices=0)
        f = scenarios.bohr_example(8)
        assert is_equivalent_truncated(f, scenarios.negate(f)).equivalent
        assert calls == {"lll": 1, "lattices": 0}

    def test_zero_exponent_truncation_has_zero_norm(self):
        # the first term of an ordinary series has exponent log 1 = 0: the
        # truncation N = 1 has no basis at all and its only solution is Y = ()
        a = scenarios.ordinary_series([(1, 1.0), (2, 1.0), (3, 1.0)])
        basis, r, _ = compute_basis(a.exponents())
        points = closure_demo(a, twist(a, basis, r, [1.0, 2.0]), 3)
        assert [p.feasible for p in points] == [True, True, True]
        assert points[0].min_norm == 0.0
        assert points[2].min_norm == pytest.approx(math.hypot(1.0, 2.0), rel=1e-12)

    @pytest.mark.parametrize("k", [2, 3])
    def test_non_integral_systems_match_brute_force(self, k):
        # rational exponents over k symbols, twisted by a short Y0; half the
        # instances skip the first basis source, so the pivot rows are not
        # unit rows of R and some directions stay free
        checked = 0
        for a, b, y0 in non_integral_twists(k):
            r = compute_basis(a.exponents())[1]
            for point in closure_demo(a, b, len(a.terms)):
                rows = [i for i in range(point.n) if a.terms[i].coeff]
                thetas = [cmath.phase(b.terms[i].coeff / a.terms[i].coeff) % TWO_PI for i in rows]
                want = brute_min_norm(r.dense_rows(rows), thetas, math.hypot(*y0) + 1e-6)
                assert point.feasible
                assert point.min_norm == pytest.approx(want, rel=1e-9, abs=1e-9)
                checked += 1
        assert checked == 8 * (k + 2)

    @pytest.mark.parametrize("case", ["non_integral_2", "non_integral_3", "rank_twelve", "bohr",
                                      "modulus_mismatch", "random_targets"])
    def test_carried_coset_equals_a_fresh_decision(self, case, monkeypatch):
        # the scan carries one coset w + L from row to row; every prefix must
        # read what deciding that truncation alone gives: the verdict, w and
        # the Hermite form of L (also checked against one diagonalization of
        # all the prefix's wrapped rows at once), and the minimum norm
        pairs = {
            "non_integral_2": lambda: [(a, b) for a, b, _ in non_integral_twists(2)],
            "non_integral_3": lambda: [(a, b) for a, b, _ in non_integral_twists(3)],
            "rank_twelve": lambda: [harmonic_without_two(20, 2020)],
            "bohr": lambda: [(scenarios.bohr_example(40),
                              scenarios.negate(scenarios.bohr_example(40)))],
            "modulus_mismatch": lambda: [
                changed_at(harmonic_without_two(20, 2021), 9, 0.5),
                changed_at((scenarios.bohr_example(8), scenarios.bohr_example(8)), 5, 0.5),
            ],
            # infeasible where a wrapped row's congruence is solved but misses
            # its target (terms 6 and 3), and where it has no solution on the
            # coset: 10^-s turned by pi after L has made z_4 even
            "random_targets": lambda: [
                randomly_turned(harmonic_without_two(20, 2022)[0], 2023),
                randomly_turned(scenarios.bohr_example(12), 2024),
                changed_at(harmonic_without_two(20, 2025), 9, -1.0),
            ],
        }[case]()
        verdicts = set()
        for a, b in pairs:
            verdicts.update(self.scan_matches_fresh_decisions(a, b, monkeypatch))
        want = {"modulus_mismatch": {True, False}, "random_targets": {True, False}}
        assert verdicts == want.get(case, {True})

    @staticmethod
    def scan_matches_fresh_decisions(a, b, monkeypatch) -> list[bool]:
        read, real_prefix_lifts = {}, equivalence._prefix_lifts

        def recording_prefix_lifts(*args):
            for lift in real_prefix_lifts(*args):
                if lift is not None:
                    read[len(lift.rows)] = lift
                yield lift

        monkeypatch.setattr(equivalence, "_prefix_lifts", recording_prefix_lifts)
        points = closure_demo(a, b, len(a.terms))
        monkeypatch.undo()
        for point in points:
            try:
                targets = extract_phase_targets(a.take_terms(point.n), b.take_terms(point.n))
            except (ModulusMismatch, SupportMismatch):
                assert not point.feasible
                continue
            _, r, _ = compute_basis(a.take_terms(point.n).exponents())
            fresh = _decide(r, targets)
            assert point.feasible == isinstance(fresh, equivalence._Lift)
            if not point.feasible:
                continue
            if targets.entries:
                carried = read[len(targets.entries)]
                assert (carried.w, carried.lattice) == (fresh.w, fresh.lattice)
                assert (fresh.w, fresh.lattice) == stacked_coset(fresh, targets.thetas())
            assert point.min_norm == equivalence._min_norm(fresh)
        return [point.feasible for point in points]

    def test_bohr_scan_runs_until_the_norm_leaves_doubles(self):
        # the closed form pi * lcm den(lambda_n / lambda_1) to N = 359, where
        # the norm is 3.4e307 (its square is beyond a double from N = 181);
        # at N = 360 the norm itself is not a double, and the scan says so
        def exponent(n):
            odd = 2 * n - 1
            return odd + Fraction(1, 2 * odd)

        f = scenarios.bohr_example(360)
        g = scenarios.negate(f)
        start = time.process_time()
        points = closure_demo(f, g, 359)
        with pytest.raises(PrecisionLimit, match="truncation N = 360 is beyond a double"):
            closure_demo(f, g, 360)
        assert time.process_time() - start < 2.0
        # the decision's phase vector leaves doubles there too, as an error
        with pytest.raises(PrecisionLimit, match="entry 1 of the exact lift is beyond a double"):
            is_equivalent_truncated(f, g)
        lcm = 1
        for n, point in enumerate(points, start=1):
            lcm = math.lcm(lcm, (exponent(n) / exponent(1)).denominator)
            assert point.feasible
            assert point.min_norm == pytest.approx(PI * lcm, rel=1e-12)
        assert points[-1].min_norm > 1e307

    def test_nmax_validated(self):
        f = scenarios.bohr_example(3)
        for n_max in (0, 4, 2.5):
            with pytest.raises(DimensionMismatch):
                closure_demo(f, f, n_max)
