"""Each output check accepts the right answer and rejects a corrupted one.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import cmath
import json
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from bohreq import equivalence, evaluation, scenarios, valuesets, zeros  # noqa: E402
from checks import CheckFailed  # noqa: E402


def test_factorize_and_primes():
    assert checks.factorize(360) == {2: 3, 3: 2, 5: 1}
    assert checks.primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_twist_rejects_a_phase_perturbed_by_1e_6():
    a = workloads._harmonic(12)
    b, _ = workloads._twisted(a, random.Random(3))
    out = equivalence.is_equivalent_truncated(workloads._ordinary(a), workloads._ordinary(b))
    checks.check_twist(a, b, out.phase, workloads.TWIST_TOL)
    bad = list(out.phase)
    bad[0] += 1e-6
    with pytest.raises(CheckFailed):
        checks.check_twist(a, b, bad, workloads.TWIST_TOL)


def test_witness_rejects_a_non_relation_and_a_null_defect():
    ns = [1, 2, 3, 4, 5, 6]
    thetas = [0.0, 0.3, 0.5, 0.6, 0.1, 0.8 + 1.0]  # term 6 rotated by 1.0
    checks.check_witness(ns, thetas, [0, 1, 1, 0, 0, -1], 1e-6)
    with pytest.raises(CheckFailed):
        checks.check_witness(ns, thetas, [0, 1, 1, 0, 0, -2], 1e-6)
    with pytest.raises(CheckFailed):
        checks.check_witness(ns, thetas, [0, 2, 0, -1, 0, 0], 1e-6)  # 2*0.3 - 0.6 = 0


def test_basis_rejects_a_wrong_rank():
    checks.check_basis([2, 3, 5, 7], 10)
    with pytest.raises(CheckFailed):
        checks.check_basis([2, 3, 5], 10)
    with pytest.raises(CheckFailed):
        checks.check_basis([2, 3, 5, 9], 10)


def test_closure_norms_closed_form_and_a_norm_of_3pi():
    want = [1, 9, 45, 315, 945, 10395, 135135, 135135]
    assert [round(x / math.pi) for x in checks.closure_norms(8)] == want
    f = scenarios.bohr_example(8)
    points = equivalence.closure_demo(f, scenarios.negate(f), 8)
    checks.check_closure(points, 8)
    bad = [(1, True, 3 * math.pi)] + list(points[1:])
    with pytest.raises(CheckFailed):
        checks.check_closure(bad, 8)


def test_zero_count_matches_numpy_roots_and_rejects_off_by_one():
    case = workloads._poly_case(random.Random(5))
    got = zeros.count_zeros(case.spec, case.v, zeros.Rectangle(case.sigma, case.window))
    checks.check_zero_count(got, case.count)
    with pytest.raises(CheckFailed):
        checks.check_zero_count(got + 1, case.count)


def test_sigma_star_against_rightmost_root():
    case = workloads._poly_case(random.Random(6))
    window = (case.window[0], case.window[0] + checks.TWO_PI)
    got = zeros.sigma_star(case.spec, case.v, window, case.sigma[0], workloads.POLY_TOL)
    checks.check_sigma_star_near(got, case.rightmost, workloads.POLY_TOL)
    with pytest.raises(CheckFailed):
        checks.check_sigma_star_near(got + 2 * workloads.POLY_TOL, case.rightmost, workloads.POLY_TOL)
    with pytest.raises(CheckFailed):
        checks.check_sigma_star_at_least(0.5, 0.6, 1e-3)


def test_additivity_rejects_off_by_one():
    checks.check_additive(5, [2, 3])
    with pytest.raises(CheckFailed):
        checks.check_additive(5, [2, 4])


def test_disc_and_annulus():
    pair = workloads._ordinary({2: 1.0, 3: 1.0})
    cloud = valuesets.sample_line(pair, 1.0, 50.0, 2000, 1)
    checks.check_in_annulus(cloud.points, 1 / 6, 5 / 6)
    checks.check_in_disc(cloud.points, checks.modulus_cap([(math.log(2), 1), (math.log(3), 1)], 1.0, 1.0))
    bad = cloud.points.copy()
    bad[7] = 0.9
    with pytest.raises(CheckFailed):
        checks.check_in_annulus(bad, 1 / 6, 5 / 6)
    with pytest.raises(CheckFailed):
        checks.check_in_disc(bad, 5 / 6)


def test_shift_bound_and_grid():
    f = scenarios.bohr_example(10)
    lams = workloads._bohr_lams(10)
    m = 4
    tau_m = scenarios.tau(m).value
    box = evaluation.GridBox((0.5, 1.5), (-2.0, 2.0), 10, 20)
    shifted = evaluation.shift_series(f, tau_m)
    d = evaluation.uniform_distance(shifted, scenarios.negate(f), box)
    checks.check_shift_bound(d, lams, m, 0.5)
    with pytest.raises(CheckFailed):
        checks.check_shift_bound(d + 1.0, lams, m, 0.5)
    grid = evaluation.evaluate_grid(shifted, box)
    checks.check_grid(grid, box.sigma_points(), box.t_points(), lams, tau_m)
    grid[0, 0] += 1e-6
    with pytest.raises(CheckFailed):
        checks.check_grid(grid, box.sigma_points(), box.t_points(), lams, tau_m)


def test_kronecker_residual():
    beta = [math.log(2), math.log(3)]
    target = [(-123.4 * b) % checks.TWO_PI for b in beta]
    hit = valuesets.kronecker_find_t(beta, target, 1e-3, 400.0)
    checks.check_kronecker(hit.found, hit.t, beta, target, 1e-3, 400.0)
    with pytest.raises(CheckFailed):
        checks.check_kronecker(True, hit.t + 0.01, beta, target, 1e-3, 400.0)
    with pytest.raises(CheckFailed):
        checks.check_kronecker(False, None, beta, target, 1e-3, 400.0)


def test_hausdorff_brute_force():
    rng = np.random.default_rng(0)
    a = rng.normal(size=300) + 1j * rng.normal(size=300)
    b = rng.normal(size=200) + 1j * rng.normal(size=200)
    got = valuesets.hausdorff(valuesets.ValueCloud(a, "a"), valuesets.ValueCloud(b, "b"))
    checks.check_hausdorff(got, a, b)
    with pytest.raises(CheckFailed):
        checks.check_hausdorff(got * (1 + 1e-9), a, b)


def test_root_points_invert_the_exponential():
    s = complex(0.3, -1.2)
    (sigma, t), = checks.root_points(np.array([cmath.exp(-s)]))
    assert sigma == pytest.approx(0.3) and t == pytest.approx(-1.2)
    assert checks.roots_in_rectangle([(sigma, t)], (0.0, 1.0), (-1.3 - 4 * math.pi, -1.1)) == 3


def test_benchmark_json_names_the_reported_metrics():
    import run

    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
