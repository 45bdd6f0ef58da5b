"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a single machine-readable pass/fail line.  Run with
`pytest tests/test_acceptance.py -s` to see the lines as they appear.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from bohreq import scenarios
from bohreq.basis import BohrMatrix, compute_basis, denominator_lcms, reconstruct_exponent
from bohreq.core import ExponentVector, SeriesSpec, SymbolTable
from bohreq.equivalence import (
    PhaseTargets,
    circle_distance,
    closure_demo,
    integer_kernel,
    is_equivalent_truncated,
    solve_phase_system,
    twist,
)
from bohreq.evaluation import GridBox, shift_series, uniform_distance
from bohreq.scenarios import shift_phase_exact
from bohreq.valuesets import (
    hausdorff,
    sample_line,
    sample_strip_direct,
    sample_strip_via_equivalence,
)
from bohreq.zeros import Rectangle, count_zeros, sigma_star
from helpers import (
    random_congruence_rows,
    random_exponent_list,
    smooth_spec,
    torus_min_residual,
)

PI = math.pi
TWO_PI = 2.0 * math.pi
#: Cap on the target draws of a resampling loop in the oracle comparison.
MAX_DRAWS = 1000


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_counterexample_convergence():
    start = time.perf_counter()
    f = scenarios.bohr_example(10)
    g = scenarios.negate(f)
    box = GridBox((1.0, 1.5), (-1.0, 1.0), 20, 40)
    d = [
        uniform_distance(shift_series(f, scenarios.tau(m).value), g, box)
        for m in (1, 2, 3)
    ]
    elapsed = time.perf_counter() - start
    ok = d[0] > d[1] > d[2] and d[1] <= 0.015 and d[2] <= 0.002 and elapsed < 1.0
    _report(
        1,
        "counterexample-convergence",
        ok,
        f"D1={d[0]:.4f} > D2={d[1]:.5f} > D3={d[2]:.6f}, {elapsed:.2f}s",
    )


def test_criterion_2_exact_phase_cancellation():
    start = time.perf_counter()
    all_minus_one = all(
        shift_phase_exact(n, m).is_minus_one
        for m in range(1, 7)
        for n in range(1, m + 1)
    )
    elapsed = time.perf_counter() - start
    ok = all_minus_one and elapsed < 0.1
    _report(2, "exact-phase-cancellation", ok, f"n<=m<=6 all -1, {elapsed:.3f}s")


def test_criterion_3_equivalence_round_trip():
    start = time.perf_counter()
    rng = random.Random(20260809)
    worst = 0.0
    equivalent = 0
    for _ in range(100):
        spec = smooth_spec(rng, max_terms=20, max_symbols=4)
        basis, expansion, _ = compute_basis(spec.exponents())
        phases = [rng.uniform(0.0, TWO_PI) for _ in range(expansion.ncols)]
        twisted = twist(spec, basis, expansion, phases)
        outcome = is_equivalent_truncated(spec, twisted, tol=1e-9)
        if outcome.equivalent:
            equivalent += 1
            worst = max(worst, outcome.system.residual)
    elapsed = time.perf_counter() - start
    ok = equivalent == 100 and worst < 1e-9 and elapsed < 5.0
    _report(
        3,
        "equivalence-round-trip",
        ok,
        f"{equivalent}/100 equivalent, max residual {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_4_solver_vs_torus_oracle():
    start = time.perf_counter()
    rng = random.Random(4321)
    kinds = [1] * 25 + [2] * 15 + [3] * 10
    agree = 0
    for index, k in enumerate(kinds):
        rows = random_congruence_rows(rng, k)
        matrix = BohrMatrix([dict(enumerate(row)) for row in rows], ncols=k)
        if index % 2 == 0:
            # exactly feasible by construction
            y0 = [rng.uniform(0.0, TWO_PI * 8) for _ in range(k)]
            thetas = [
                math.fsum(float(q) * y for q, y in zip(row, y0)) % TWO_PI
                for row in rows
            ]
        else:
            # random targets, resampled until decisively far from the oracle
            # threshold so both deciders face an unambiguous instance
            kernel = integer_kernel(matrix, list(range(len(rows))))
            for _ in range(MAX_DRAWS):
                thetas = [rng.uniform(0.0, TWO_PI) for _ in rows]
                if not kernel:
                    break
                margin = max(
                    circle_distance(math.fsum(mi * th for mi, th in zip(vec, thetas)))
                    / sum(abs(x) for x in vec)
                    for vec in kernel
                )
                if margin >= 0.2:
                    break
            else:
                raise AssertionError(
                    f"no draw in {MAX_DRAWS} reached margin 0.2 for kernel {kernel}"
                )
        verdict = solve_phase_system(
            matrix, PhaseTargets(tuple(enumerate(thetas))), tol=1e-9
        ).feasible
        oracle = torus_min_residual(rows, thetas, step=TWO_PI / 720.0) <= 0.05
        if verdict == oracle:
            agree += 1
    elapsed = time.perf_counter() - start
    ok = agree == 50 and elapsed < 60.0
    _report(4, "solver-vs-oracle", ok, f"{agree}/50 agree, {elapsed:.1f}s")


def test_criterion_5_closure_without_equivalence():
    start = time.perf_counter()
    f = scenarios.bohr_example(3)
    points = closure_demo(f, scenarios.negate(f), 3)
    elapsed = time.perf_counter() - start
    feasible = all(p.feasible for p in points)
    norms = [p.min_norm for p in points]
    expected = [PI, 9 * PI, 45 * PI]
    exact = all(
        n is not None and abs(n - e) <= 1e-9 * e for n, e in zip(norms, expected)
    )
    ok = feasible and exact and elapsed < 1.0
    _report(
        5,
        "closure-without-equivalence",
        ok,
        f"min norms {[f'{n / PI:.6f}pi' for n in norms]}, {elapsed:.2f}s",
    )


def test_criterion_6_dual_route_value_sets():
    start = time.perf_counter()
    spec = scenarios.ordinary_series([(2, 1.0), (3, 1.0)])
    line = sample_line(spec, 1.0, 1e4, 100_000, seed=601)
    via = sample_strip_via_equivalence(spec, 1.0 - 1e-6, 1.0 + 1e-6, 100_000, seed=602)
    distance = hausdorff(line, via)
    lo, hi = 1.0 / 6.0 - 0.01, 5.0 / 6.0 + 0.01
    in_annulus = all(
        lo <= float(np.min(np.abs(c.points))) and float(np.max(np.abs(c.points))) <= hi
        for c in (line, via)
    )
    elapsed = time.perf_counter() - start
    ok = distance <= 0.02 and in_annulus and elapsed < 60.0
    _report(
        6,
        "dual-route-value-sets",
        ok,
        f"hausdorff {distance:.4f} <= 0.02, annulus ok, {elapsed:.1f}s",
    )


def test_criterion_7_same_values_statistical():
    """Two 5e4-point route-A clouds of a series and a random twist agree.

    Route A samples with density proportional to |f'(s)|^2, so its points are
    evenly spaced in the value plane, including the outer rim of the value
    region, which a single sheet covers.  Over 30 instances (twist seed
    707 + i, sampler seeds 701 + 2i and 702 + 2i; this test is i = 0) the
    two-sided Hausdorff distance has median 0.036 and maximum 0.043; this
    instance gives 0.034.  Uniform density in s, the earlier sampler, gave
    median 0.062 and never <= 0.05 (0.067 here, and 0.067 for the series
    against itself at seeds 701 and 703): the map stretches distances by up
    to |f'| ~ 1.85 on the rim, so uniform spacing in s left holes there.
    """
    start = time.perf_counter()
    spec = scenarios.ordinary_series([(2, 1.0), (3, 1.0), (6, 1.0)])
    rng = random.Random(707)
    basis, expansion, _ = compute_basis(spec.exponents())
    phases = [rng.uniform(0.0, TWO_PI) for _ in range(expansion.ncols)]
    twisted = twist(spec, basis, expansion, phases)
    a = sample_strip_direct(spec, 0.5, 1.0, 200.0, 50_000, seed=701)
    b = sample_strip_direct(twisted, 0.5, 1.0, 200.0, 50_000, seed=702)
    distance = hausdorff(a, b)
    elapsed = time.perf_counter() - start
    ok = distance <= 0.05 and elapsed < 60.0
    _report(7, "equivalent-series-same-values", ok, f"hausdorff {distance:.4f}, {elapsed:.1f}s")


def test_criterion_8_sigma_star_closed_forms():
    start = time.perf_counter()
    syms = SymbolTable([("L2", math.log(2.0))])
    spec = SeriesSpec(syms, [(ExponentVector(), 1.0), (ExponentVector({"L2": 1}), 1.0)])
    s0 = sigma_star(spec, 0.0, (0.0, 20.0), sigma_floor=-5.0, tol=1e-3)
    s3 = sigma_star(spec, 3.0, (0.0, 20.0), sigma_floor=-5.0, tol=1e-3)
    s1 = sigma_star(spec, 1.0, (0.0, 20.0), sigma_floor=-5.0, tol=1e-3)
    elapsed = time.perf_counter() - start
    ok = (
        abs(s0 - 0.0) <= 1e-3
        and abs(s3 - (-1.0)) <= 1e-3
        and s1 == float("-inf")
        and elapsed < 10.0
    )
    _report(
        8,
        "sigma-star-closed-forms",
        ok,
        f"v=0: {s0:.4f}, v=3: {s3:.4f}, v=1: {s1}, {elapsed:.1f}s",
    )


def test_criterion_9_zero_count_closed_forms_and_additivity():
    start = time.perf_counter()
    syms = SymbolTable([("L2", math.log(2.0))])
    spec = SeriesSpec(syms, [(ExponentVector(), 1.0), (ExponentVector({"L2": 1}), 1.0)])
    one = count_zeros(spec, 0.0, Rectangle((-1.0, 1.0), (0.0, 10.0)))
    none = count_zeros(spec, 0.0, Rectangle((-1.0, 1.0), (6.0, 12.0)))
    rng = random.Random(909)
    zero_ts = [PI / math.log(2.0), 3 * PI / math.log(2.0)]
    additive = 0
    attempts = 0
    while additive < 20 and attempts < 200:
        attempts += 1
        lo = rng.uniform(-2.0, 3.0)
        hi = lo + rng.uniform(3.0, 14.0)
        cut = rng.uniform(lo + 0.5, hi - 0.5)
        if any(abs(e - z) < 0.3 for e in (lo, hi, cut) for z in zero_ts):
            continue
        whole = count_zeros(spec, 0.0, Rectangle((-1.0, 1.0), (lo, hi)))
        parts = count_zeros(spec, 0.0, Rectangle((-1.0, 1.0), (lo, cut))) + count_zeros(
            spec, 0.0, Rectangle((-1.0, 1.0), (cut, hi))
        )
        if whole == parts:
            additive += 1
        else:
            break
    elapsed = time.perf_counter() - start
    ok = one == 1 and none == 0 and additive == 20 and elapsed < 10.0
    _report(
        9,
        "zero-count-closed-forms",
        ok,
        f"counts ({one}, {none}), additivity {additive}/20, {elapsed:.1f}s",
    )


def test_criterion_10_exact_reconstruction():
    start = time.perf_counter()
    rng = random.Random(1010)
    syms = SymbolTable([("A", 0.912), ("B", 2.417), ("C", -1.618), ("D", 5.05)])
    checked = 0
    for _ in range(200):
        exps = random_exponent_list(rng, syms, max_terms=10)
        basis, expansion, selection = compute_basis(exps)
        for i, lam in enumerate(exps):
            assert reconstruct_exponent(expansion, i, basis) == lam
        for j in range(selection.nrows):
            items = selection.row_items(j)
            assert len(items) == 1 and items[0][1] == Fraction(1)
            assert exps[items[0][0]] == basis.elements[j]
        checked += 1
    f = scenarios.bohr_example(3)
    _, r, _ = compute_basis(f.exponents())
    lcms = denominator_lcms(r)
    elapsed = time.perf_counter() - start
    ok = checked == 200 and lcms == [1, 9, 45] and elapsed < 5.0
    _report(
        10,
        "exact-linear-algebra",
        ok,
        f"{checked}/200 reconstructed exactly, d_h {lcms}, {elapsed:.1f}s",
    )
