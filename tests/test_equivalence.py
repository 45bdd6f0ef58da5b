"""Twists, phase targets, integer kernels, and the congruence solver."""

import cmath
import math
import random
import time
from fractions import Fraction

import pytest

from bohreq import scenarios
from bohreq.basis import BohrMatrix, compute_basis, expand_over_pivots
from bohreq.core import ExponentVector, SeriesSpec, SymbolTable
from bohreq.equivalence import (
    PhaseTargets,
    _decide,
    _expand_rows,
    circle_distance,
    closure_demo,
    extract_phase_targets,
    integer_kernel,
    is_equivalent_truncated,
    solve_phase_system,
    twist,
)
from bohreq.errors import DimensionMismatch, ModulusMismatch, PrecisionLimit, SupportMismatch
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


def _check_harmonic_twist(n_terms: int) -> None:
    """Harmonic coefficients twisted by seeded phases of the primes: the
    decision is feasible and reproduces every b_n / a_n within 1e-8."""
    rng = random.Random(2026)
    primes = [p for p in range(2, n_terms + 1) if all(p % q for q in range(2, p))]
    prime_phase = {p: rng.uniform(0, TWO_PI) for p in primes}
    ratio = {
        n: cmath.exp(1j * sum(e * prime_phase[p] for p, e in _factor(n).items()))
        for n in range(1, n_terms + 1)
    }
    a = scenarios.ordinary_series([(n, 1.0 / n) for n in ratio])
    b = scenarios.ordinary_series([(n, ratio[n] / n) for n in ratio])
    result = is_equivalent_truncated(a, b)
    assert result.equivalent
    basis, _, _ = compute_basis(a.exponents())
    column = {next(iter(e.coords())): j for j, e in enumerate(basis.elements)}
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
                    assert all(type(q) is Fraction for row in got[2] for q in row.values())
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
        # basis column over the pivot rows, with free directions set to 0
        rng = random.Random(999)
        solved = 0
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
            solved += 1
        assert solved == 120

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
        for n in (9, 20):
            f = scenarios.bohr_example(n)
            with pytest.raises(PrecisionLimit, match="phase vector lost precision"):
                is_equivalent_truncated(f, scenarios.negate(f))

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
        # the exact lift has w size-reduced modulo lcm Z
        _, r, _ = compute_basis(f.exponents())
        _, lift = _decide(r, extract_phase_targets(f, scenarios.negate(f)))
        assert abs(lift.theta[0] + TWO_PI * lift.w[0]) <= PI * (lcm + 1)

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
        rng = random.Random(7070 + k)
        names = "ABC"[:k]
        syms = SymbolTable([(name, 1.0 + 0.37 * i) for i, name in enumerate(names)])
        checked = 0
        for trial in range(8):
            exps = [ExponentVector({name: 1}) for name in names]
            while len(exps) < k + 2:
                e = ExponentVector(
                    {name: Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for name in names}
                )
                if e.coords() and e not in exps:
                    exps.append(e)
            coeffs = [0.0 if trial % 2 and i == 0 else 1.0 for i in range(len(exps))]
            a = SeriesSpec(syms, list(zip(exps, coeffs)))
            basis, r, _ = compute_basis(exps)
            y0 = [rng.uniform(0.0, TWO_PI) for _ in range(k)]
            b = twist(a, basis, r, y0)
            for point in closure_demo(a, b, len(exps)):
                rows = [i for i in range(point.n) if coeffs[i]]
                thetas = [cmath.phase(b.terms[i].coeff / a.terms[i].coeff) % TWO_PI for i in rows]
                want = brute_min_norm(r.dense_rows(rows), thetas, math.hypot(*y0) + 1e-6)
                assert point.feasible
                assert point.min_norm == pytest.approx(want, rel=1e-9, abs=1e-9)
                checked += 1
        assert checked == 8 * (k + 2)

    def test_nmax_validated(self):
        f = scenarios.bohr_example(3)
        with pytest.raises(DimensionMismatch):
            closure_demo(f, f, 4)
