"""The four workloads: their inputs, made from the seed, and their operations.

``build(name, seed, workdir)`` makes every input a workload needs (series,
twists, files) and returns its operation kinds.  The program receives only
these inputs; expected answers are computed in ``checks`` apart from it.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from bohreq import basis, equivalence, evaluation, scenarios, valuesets, zeros
from bohreq.core import ExponentVector, SeriesSpec, SymbolTable
from bohreq.seriesio import write_series_file

import checks

WORKLOADS = ("exact", "values", "zeros", "cli")

#: Feasible equivalence decisions: ordinary series of these lengths.
FEASIBLE_N = (20, 30, 40)
#: Infeasible decision (one composite coefficient rotated), decided by a witness.
WITNESS_N = 200
BASIS_N = 500
CLOSURE_N = 8
#: Points per cloud of the value-set samplers.
SMALL, LARGE = 10**5, 10**6
#: Tolerance of the twist check: relative coefficient error.
TWIST_TOL = 1e-8


@dataclass
class Op:
    """One operation kind: ``call`` is timed ``repeat`` times per sample, and
    ``check`` runs on every output outside the timed region."""

    kind: str
    call: Callable[[], object]
    check: Callable[[object], None]
    repeat: int = 1
    #: cli only: the subcommand's argv, for the in-process traced twin.
    argv: list[str] | None = None


def _ordinary(coeffs: dict[int, complex]) -> SeriesSpec:
    return scenarios.ordinary_series(sorted(coeffs.items()))


def _harmonic(n: int) -> dict[int, complex]:
    return {k: complex(1.0 / k) for k in range(1, n + 1)}


def _twisted(a: dict[int, complex], rng: random.Random) -> tuple[dict[int, complex], dict[int, float]]:
    """a_n exp(i sum_p e_p(n) theta_p) for seeded theta_p, and the targets theta(n)."""
    phase = {p: rng.uniform(0.0, checks.TWO_PI) for p in checks.primes_upto(max(a))}
    thetas = {
        n: math.fsum(e * phase[p] for p, e in checks.factorize(n).items()) for n in a
    }
    return {n: a[n] * cmath.exp(1j * thetas[n]) for n in a}, thetas


def _bohr_lams(n: int) -> list[float]:
    return [float(checks.bohr_lambda(k)) for k in range(1, n + 1)]


def _ordinary_value(coeffs: dict[int, complex], s: complex) -> complex:
    return sum(c * cmath.exp(-s * math.log(n)) for n, c in coeffs.items())


def _poly_series(coeffs: list[complex]) -> SeriesSpec:
    """P(e^{-s}) = sum_k c_k e^{-k s} over the unit symbol."""
    return SeriesSpec(
        SymbolTable([("ONE", 1.0)]),
        [(ExponentVector({"ONE": k}), c) for k, c in enumerate(coeffs)],
    )


@dataclass
class PolyCase:
    """P(e^{-s}) - v with a rectangle and a window placed between its zeros."""

    spec: SeriesSpec
    v: complex
    sigma: tuple[float, float]
    window: tuple[float, float]
    count: int
    rightmost: float


def _poly_case(rng: random.Random, degree: int = 16) -> PolyCase:
    coeffs = [rng.uniform(0.5, 1.5) * cmath.exp(1j * rng.uniform(0.0, checks.TWO_PI)) for _ in range(degree + 1)]
    s0 = complex(rng.uniform(-0.3, 0.3), rng.uniform(-3.0, 3.0))
    v = sum(c * cmath.exp(-k * s0) for k, c in enumerate(coeffs))
    poly = coeffs[::-1]
    poly[-1] -= v
    points = checks.root_points(np.roots(poly))
    sig = sorted(s for s, _ in points)
    # the t window starts in the middle of the widest gap between zeros
    args = sorted(t % checks.TWO_PI for _, t in points)
    gaps = [((args[(i + 1) % degree] - args[i]) % checks.TWO_PI, i) for i in range(degree)]
    width, i = max(gaps)
    t0 = args[i] + width / 2
    # the right sigma edge sits in the widest gap between the 6th and 13th zeros
    _, j = max((sig[j + 1] - sig[j], j) for j in range(5, 12))
    sigma = (sig[0] - 0.5, 0.5 * (sig[j] + sig[j + 1]))
    window = (t0, t0 + 2 * checks.TWO_PI)
    return PolyCase(
        _poly_series(coeffs),
        v,
        sigma,
        window,
        checks.roots_in_rectangle(points, sigma, window),
        checks.rightmost_root(points, (t0, t0 + checks.TWO_PI), sigma[0]),
    )


# -- exact ---------------------------------------------------------------------


def _exact(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for n in FEASIBLE_N:
        a = _harmonic(n)
        b, _ = _twisted(a, rng)
        spec_a, spec_b = _ordinary(a), _ordinary(b)

        def check(out, a=a, b=b):
            checks.require(out.equivalent, f"twist reported not equivalent: {out.reason}")
            checks.check_twist(a, b, out.phase, TWIST_TOL)

        ops.append(Op(f"equiv_feasible_{n}", lambda x=spec_a, y=spec_b: equivalence.is_equivalent_truncated(x, y), check))

    a = _harmonic(WITNESS_N)
    b, thetas = _twisted(a, rng)
    composites = [n for n in a if n > 1 and checks.factorize(n) != {n: 1}]
    n_rot = rng.choice(composites)
    delta = rng.uniform(0.5, checks.TWO_PI - 0.5)
    b[n_rot] *= cmath.exp(1j * delta)
    thetas[n_rot] += delta
    spec_a, spec_b = _ordinary(a), _ordinary(b)
    ns = sorted(a)

    def check_witness(out):
        checks.require(not out.equivalent, "rotated coefficient reported equivalent")
        system = out.system
        checks.require(system is not None and system.witness is not None, "no witness given")
        checks.require(list(system.row_indices) == list(range(len(ns))), "unexpected constrained rows")
        checks.check_witness(ns, [thetas[n] for n in ns], system.witness, 1e-6)

    ops.append(Op(f"equiv_witness_{WITNESS_N}", lambda: equivalence.is_equivalent_truncated(spec_a, spec_b), check_witness, repeat=2))

    exps = [t.exponent for t in _ordinary(_harmonic(BASIS_N)).terms]
    ops.append(
        Op(
            f"basis_{BASIS_N}",
            lambda: basis.compute_basis(exps),
            lambda out: checks.check_basis([i + 1 for i in out[0].source_indices], BASIS_N),
            repeat=10,
        )
    )

    f = scenarios.bohr_example(CLOSURE_N)
    g = scenarios.negate(f)
    ops.append(
        Op(
            f"closure_{CLOSURE_N}",
            lambda: equivalence.closure_demo(f, g, CLOSURE_N),
            lambda out: checks.check_closure(out, CLOSURE_N),
            repeat=20,
        )
    )
    return ops


# -- values --------------------------------------------------------------------


def _values(rng: random.Random, workdir: Path) -> list[Op]:
    coeffs = _harmonic(30)
    spec = _ordinary(coeffs)
    terms = [(math.log(n), c) for n, c in coeffs.items()]
    strip_cap = checks.modulus_cap(terms, 1.0, 2.0)
    line_cap = checks.modulus_cap(terms, 1.0, 1.0)
    seeds = [rng.randrange(2**31) for _ in range(6)]
    clouds: dict[str, valuesets.ValueCloud] = {}

    def strip(route: str, count: int, seed: int):
        def call():
            if route == "A":
                cloud = valuesets.sample_strip_direct(spec, 1.0, 2.0, 100.0, count, seed)
            else:
                cloud = valuesets.sample_strip_via_equivalence(spec, 1.0, 2.0, count, seed)
            clouds[route + str(count)] = cloud
            return cloud

        def check(cloud):
            checks.check_count(cloud.points, count)
            checks.check_in_disc(cloud.points, strip_cap)

        return Op(f"route{route}_{'1e5' if count == SMALL else '1e6'}", call, check)

    ops = [strip("A", SMALL, seeds[0]), strip("B", SMALL, seeds[1]), strip("A", LARGE, seeds[2]), strip("B", LARGE, seeds[3])]

    def check_line(cloud):
        checks.check_count(cloud.points, LARGE)
        checks.check_in_disc(cloud.points, line_cap)

    ops.append(Op("line_1e6", lambda: valuesets.sample_line(spec, 1.0, 100.0, LARGE, seeds[4]), check_line))

    pair = _ordinary({2: 1.0, 3: 1.0})
    ops.append(
        Op(
            "line_annulus_1e6",
            lambda: valuesets.sample_line(pair, 1.0, 1000.0, LARGE, seeds[5]),
            lambda cloud: checks.check_in_annulus(cloud.points, 1 / 6, 5 / 6),
        )
    )

    check_rng = np.random.default_rng(rng.randrange(2**31))

    def check_hausdorff(got):
        a, b = clouds["A" + str(SMALL)].points, clouds["B" + str(SMALL)].points
        checks.require(math.isfinite(got) and got >= 0.0, f"Hausdorff distance {got}")
        # a lower bound on the full distance from 200 exact nearest-neighbour scans
        for x, y in ((a, b), (b, a)):
            probe = x[check_rng.choice(len(x), 200, replace=False)]
            low = max(float(np.min(np.abs(y - p))) for p in probe)
            checks.require(got >= low - 1e-12, f"Hausdorff {got} below a nearest-point distance {low}")
        sub_a = valuesets.ValueCloud(a[check_rng.choice(len(a), 2000, replace=False)], "sub")
        sub_b = valuesets.ValueCloud(b[check_rng.choice(len(b), 2000, replace=False)], "sub")
        checks.check_hausdorff(valuesets.hausdorff(sub_a, sub_b), sub_a.points, sub_b.points)

    ops.append(
        Op(
            "hausdorff_1e5",
            lambda: valuesets.hausdorff(clouds["A" + str(SMALL)], clouds["B" + str(SMALL)]),
            check_hausdorff,
        )
    )

    bohr_n = 20
    f = scenarios.bohr_example(bohr_n)
    minus_f = scenarios.negate(f)
    lams = _bohr_lams(bohr_n)
    m = rng.randint(3, 6)
    tau_m = 2 * math.pi * math.prod(range(1, 2 * m, 2))
    box = evaluation.GridBox((0.5, 1.5), (-10.0, 10.0), 100, 400)
    ops.append(
        Op(
            "evaluate_grid",
            lambda: evaluation.evaluate_grid(evaluation.shift_series(f, tau_m), box),
            lambda grid: checks.check_grid(grid, box.sigma_points(), box.t_points(), lams, tau_m),
            repeat=8,
        )
    )
    ops.append(
        Op(
            "uniform_distance",
            lambda: evaluation.uniform_distance(evaluation.shift_series(f, tau_m), minus_f, box),
            lambda d: checks.check_shift_bound(d, lams, m, box.sigma_range[0]),
            repeat=4,
        )
    )

    for k, tol, t_max in ((2, 1e-3, 400.0), (3, 2e-2, 5000.0)):
        beta = [math.log(p) for p in (2, 3, 5)[:k]]
        t_star = rng.uniform(0.3, 0.9) * t_max
        target = [(-t_star * b) % checks.TWO_PI for b in beta]

        def check_kron(hit, beta=beta, target=target, tol=tol, t_max=t_max):
            checks.check_kronecker(hit.found, hit.t, beta, target, tol, t_max)

        ops.append(
            Op(
                f"kronecker_k{k}",
                lambda beta=beta, target=target, tol=tol, t_max=t_max: valuesets.kronecker_find_t(beta, target, tol, t_max),
                check_kron,
                repeat=2,
            )
        )
    return ops


# -- zeros ---------------------------------------------------------------------


ORDINARY_WINDOW = (-20.0, 20.0)
ORDINARY_SIGMA = (0.0, 1.3, 2.0)  # split rectangle: left edge, split, right edge
SIGMA_TOL = 1e-3
POLY_TOL = 1e-4


def _zeros(rng: random.Random, workdir: Path) -> list[Op]:
    coeffs = _harmonic(30)
    spec = _ordinary(coeffs)
    s0 = complex(rng.uniform(0.6, 1.0), rng.uniform(-12.0, 12.0))
    v = _ordinary_value(coeffs, s0)
    lo, mid, hi = ORDINARY_SIGMA
    rects = [
        zeros.Rectangle((lo, hi), ORDINARY_WINDOW),
        zeros.Rectangle((lo, mid), ORDINARY_WINDOW),
        zeros.Rectangle((mid, hi), ORDINARY_WINDOW),
    ]

    def check_split(counts):
        whole, left, right = counts
        checks.check_additive(whole, [left, right])
        checks.require(left >= 1, f"no zero counted around the known zero at {s0}")

    ops = [
        Op(
            "sigma_star_ordinary",
            lambda: zeros.sigma_star(spec, v, ORDINARY_WINDOW, -1.0, SIGMA_TOL),
            lambda got: checks.check_sigma_star_at_least(got, s0.real, SIGMA_TOL),
        ),
        Op("count_split_ordinary", lambda: [zeros.count_zeros(spec, v, r) for r in rects], check_split, repeat=2),
    ]

    case = _poly_case(rng)
    rect = zeros.Rectangle(case.sigma, case.window)
    window = (case.window[0], case.window[0] + checks.TWO_PI)
    ops.append(
        Op(
            "count_poly",
            lambda: zeros.count_zeros(case.spec, case.v, rect),
            lambda got: checks.check_zero_count(got, case.count),
            repeat=4,
        )
    )
    ops.append(
        Op(
            "sigma_star_poly",
            lambda: zeros.sigma_star(case.spec, case.v, window, case.sigma[0], POLY_TOL),
            lambda got: checks.check_sigma_star_near(got, case.rightmost, POLY_TOL),
        )
    )

    f = scenarios.bohr_example(8)
    s1 = complex(rng.uniform(0.2, 0.6), rng.uniform(-5.0, 5.0))
    v1 = sum(cmath.exp(-lam * s1) for lam in _bohr_lams(8))
    ops.append(
        Op(
            "sigma_star_bohr",
            lambda: zeros.sigma_star(f, v1, (-10.0, 10.0), -2.0, SIGMA_TOL),
            lambda got: checks.check_sigma_star_at_least(got, s1.real, SIGMA_TOL),
        )
    )
    return ops


# -- cli -----------------------------------------------------------------------


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _cli(rng: random.Random, workdir: Path) -> list[Op]:
    workdir.mkdir(parents=True, exist_ok=True)

    def path(name: str) -> str:
        return str(workdir / name)

    f8 = scenarios.bohr_example(CLOSURE_N)
    write_series_file(f8, path("f8.json"))
    write_series_file(scenarios.negate(f8), path("g8.json"))
    write_series_file(_ordinary(_harmonic(BASIS_N)), path("ord500.json"))
    a20 = _harmonic(20)
    b20, _ = _twisted(a20, rng)
    write_series_file(_ordinary(a20), path("a20.json"))
    write_series_file(_ordinary(b20), path("b20.json"))
    h30 = _harmonic(30)
    write_series_file(_ordinary(h30), path("a30.json"))
    case = _poly_case(rng)
    write_series_file(case.spec, path("p16.json"))
    write_series_file(_ordinary({1: 1.0, 2: 1.0, 3: 1.0}), path("k3.json"))

    terms30 = [(math.log(n), c) for n, c in h30.items()]
    cloud_seed = rng.randrange(2**31)
    s0 = complex(rng.uniform(0.6, 1.0), rng.uniform(-12.0, 12.0))
    v = _ordinary_value(h30, s0)
    beta = [math.log(2), math.log(3)]
    t_star = rng.uniform(0.3, 0.9) * 400.0
    target = [(-t_star * b) % checks.TWO_PI for b in beta]

    def check_bohr(out):
        doc = _read_json(out)
        got = [(t["exponent"], t["coeff"]) for t in doc["terms"]]
        want = [({"ONE": str(checks.bohr_lambda(n))}, {"re": 1.0, "im": 0.0}) for n in range(1, CLOSURE_N + 1)]
        checks.require(got == want, "bohr-example terms differ from lambda(n) = 2n-1 + 1/(2(2n-1))")

    def check_basis(out):
        checks.check_basis(_read_json(out)["result"]["source_terms"], BASIS_N)

    def check_equiv(out):
        result = _read_json(out)["result"]
        checks.require(result["equivalent"], "twist reported not equivalent")
        checks.check_twist(a20, b20, result["phase"], TWIST_TOL)

    def check_closure(out):
        points = [(p["n"], p["feasible"], p["min_norm"]) for p in _read_json(out)["result"]["points"]]
        checks.check_closure(points, CLOSURE_N)

    def check_cloud(out):
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        checks.require(rows[0] == ["re", "im"], "CSV header is not re,im")
        values = np.array([complex(float(r), float(i)) for r, i in rows[1:]])
        checks.check_count(values, SMALL)
        checks.check_in_disc(values, checks.modulus_cap(terms30, 1.0, 2.0))

    def check_sigma(out):
        result = _read_json(out)["result"]
        checks.require(result["zero_found"], "no zero found around the known zero")
        checks.check_sigma_star_at_least(result["sigma_star"], s0.real, SIGMA_TOL)

    def check_zeros(out):
        checks.check_zero_count(_read_json(out)["result"]["count"], case.count)

    def check_kron(out):
        result = _read_json(out)["result"]
        checks.check_kronecker(result["found"], result["t"], beta, target, 1e-3, 400.0)

    def num(x: float) -> str:
        return repr(float(x))

    commands = [
        ("bohr-example", ["--n", str(CLOSURE_N)], check_bohr),
        ("basis", ["--series", path("ord500.json")], check_basis),
        ("equiv", ["--series", path("a20.json"), "--series2", path("b20.json")], check_equiv),
        (
            "closure-demo",
            ["--series", path("f8.json"), "--series2", path("g8.json"), "--nmax", str(CLOSURE_N)],
            check_closure,
        ),
        (
            "value-set",
            ["--series", path("a30.json"), "--sigma-min", "1", "--sigma-max", "2", "--t-max", "100",
             "--count", str(SMALL), "--seed", str(cloud_seed), "--format", "csv"],
            check_cloud,
        ),
        (
            "sigma-star",
            ["--series", path("a30.json"), "--v-re", num(v.real), "--v-im", num(v.imag),
             "--t-min", num(ORDINARY_WINDOW[0]), "--t-max", num(ORDINARY_WINDOW[1]), "--sigma-floor", "-1"],
            check_sigma,
        ),
        (
            "zeros",
            ["--series", path("p16.json"), "--v-re", num(case.v.real), "--v-im", num(case.v.imag),
             "--sigma-min", num(case.sigma[0]), "--sigma-max", num(case.sigma[1]),
             "--t-min", num(case.window[0]), "--t-max", num(case.window[1])],
            check_zeros,
        ),
        (
            "kronecker",
            ["--series", path("k3.json"), "--target", ",".join(num(y) for y in target),
             "--tol", "1e-3", "--t-max-search", "400"],
            check_kron,
        ),
    ]
    ops = []
    for sub, args, check in commands:
        out = workdir / f"{sub}.out"
        argv = [sub, *args, "--out", str(out)]
        ops.append(Op(sub, _subprocess_call(argv, out), lambda result, check=check: check(result.path), argv=argv))
    return ops


@dataclass
class ChildResult:
    """Exit status, peak resident memory (kB) and stderr of a finished process."""

    code: int
    rss_kb: int
    stderr: str


def run_child(argv: list[str], err_path: Path) -> ChildResult:
    """Run a process to its end and read its own rusage with wait4."""
    with open(err_path, "w+b") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return ChildResult(proc.returncode, usage.ru_maxrss, err.read().decode(errors="replace"))


@dataclass
class CliOutput:
    path: Path
    rss_kb: int


def _subprocess_call(argv: list[str], out: Path):
    def call():
        out.unlink(missing_ok=True)
        child = run_child([sys.executable, "-m", "bohreq", *argv], out.with_suffix(".err"))
        if child.code != 0:
            raise RuntimeError(f"bohreq {argv[0]} exited {child.code}: {child.stderr.strip()[-500:]}")
        return CliOutput(out, child.rss_kb)

    return call


_BUILDERS = {"exact": _exact, "values": _values, "zeros": _zeros, "cli": _cli}


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    return _BUILDERS[name](random.Random(seed), workdir)
