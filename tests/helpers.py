"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from bohreq import scenarios
from bohreq.basis import compute_basis
from bohreq.core import ExponentVector, SeriesSpec, SymbolTable

TWO_PI = 2.0 * math.pi

PRIMES = (2, 3, 5, 7)


def smooth_spec(rng: random.Random, max_terms: int = 20, max_symbols: int = 4) -> SeriesSpec:
    """Random ordinary series whose expansion matrix is integral.

    Every prime dividing a chosen index is itself included as a term, so the
    basis found by the earliest-first scan is exactly the prime logarithms and
    each row of R lists factorization exponents.
    """
    k = rng.randint(1, max_symbols)
    primes = PRIMES[:k]
    indices = set(primes)
    while len(indices) < max_terms and rng.random() < 0.9:
        n = 1
        for _ in range(rng.randint(1, 3)):
            n *= rng.choice(primes)
        indices.add(n)
    coeffs = []
    for n in sorted(indices)[:max_terms]:
        mod = rng.uniform(0.2, 2.0)
        arg = rng.uniform(0.0, TWO_PI)
        coeffs.append((n, mod * complex(math.cos(arg), math.sin(arg))))
    return scenarios.ordinary_series(coeffs)


def random_exponent_list(
    rng: random.Random, symbols: SymbolTable, max_terms: int = 8, max_den: int = 6
) -> list[ExponentVector]:
    """Distinct random rational exponent vectors, sorted by numeric value."""
    seen: set[ExponentVector] = set()
    out: list[ExponentVector] = []
    for _ in range(max_terms):
        coords = {}
        for name in symbols.names:
            if rng.random() < 0.65:
                num = rng.randint(-9, 9)
                if num:
                    coords[name] = Fraction(num, rng.randint(1, max_den))
        vec = ExponentVector(coords)
        if vec not in seen:
            seen.add(vec)
            out.append(vec)
    if not out:
        out.append(ExponentVector({symbols.names[0]: 1}))
    out.sort(key=lambda v: v.numeric_value(symbols))
    return out


def random_twist_pair(rng: random.Random, spec: SeriesSpec):
    """(spec, twist of spec by a random phase vector, the vector used)."""
    from bohreq.equivalence import twist

    basis, expansion, _ = compute_basis([t.exponent for t in spec.terms])
    phases = [rng.uniform(0.0, TWO_PI) for _ in range(expansion.ncols)]
    return twist(spec, basis, expansion, phases), phases


# ---------------------------------------------------------------------------
# Brute-force torus oracle for phase congruence feasibility.  Independent of
# the solver: it grids the period box of Y directly and reports the smallest
# achievable worst-row residual.
# ---------------------------------------------------------------------------


def torus_min_residual(
    rows: list[list[Fraction]], thetas: list[float], step: float = TWO_PI / 720.0
) -> float:
    """min over the gridded period box of max_n dist((R Y)_n - theta_n, 2pi Z)."""
    nrows = len(rows)
    k = len(rows[0]) if nrows else 0
    axes: list[np.ndarray] = []
    for j in range(k):
        col = [r[j] for r in rows]
        den_lcm = 1
        for q in col:
            den_lcm = math.lcm(den_lcm, q.denominator)
        nums = [int(q * den_lcm) for q in col]
        gcd = math.gcd(*(abs(x) for x in nums)) if any(nums) else 0
        if gcd == 0:
            # unconstrained axis: the residual does not depend on it
            axes.append(np.array([0.0]))
            continue
        if (720 * den_lcm) % gcd == 0:
            npts = (720 * den_lcm) // gcd
        else:
            npts = 720 * den_lcm
        axes.append(np.arange(npts) * step)
    while len(axes) < 3:
        axes.append(np.array([0.0]))
    rf = np.zeros((nrows, 3))
    for n in range(nrows):
        for j in range(k):
            rf[n, j] = float(rows[n][j])
    inner = len(axes[1]) * len(axes[2])
    chunk = max(1, 2_000_000 // max(1, inner))
    best = math.inf
    n0 = len(axes[0])
    for start in range(0, n0, chunk):
        a0 = axes[0][start : start + chunk]
        worst = None
        for n in range(nrows):
            phase = (
                (rf[n, 0] * a0)[:, None, None]
                + (rf[n, 1] * axes[1])[None, :, None]
                + (rf[n, 2] * axes[2])[None, None, :]
                - thetas[n]
            )
            res = np.abs((phase + math.pi) % TWO_PI - math.pi)
            worst = res if worst is None else np.maximum(worst, res)
        best = min(best, float(worst.min()))
    return best


def random_congruence_rows(rng: random.Random, k: int) -> list[list[Fraction]]:
    """Random system rows sized so the torus oracle's period box stays small.

    k = 1: denominators up to 6; k = 2: denominators in {1, 2, 4};
    k = 3: integer entries in {-4, 0, 4} (column gcd 4 shrinks the box).
    All shapes respect numerators <= 3 columns-summed small enough that a
    grid step of 2pi/720 resolves exact solutions well below the 0.05
    acceptance threshold.
    """
    nrows = rng.randint(max(2, k), 5)
    while True:
        rows: list[list[Fraction]] = []
        for _ in range(nrows):
            row = []
            for _ in range(k):
                if k == 3:
                    row.append(Fraction(rng.choice((-4, 0, 0, 4))))
                else:
                    num = rng.randint(-3, 3)
                    den = rng.choice((1, 2, 4)) if k == 2 else rng.randint(1, 6)
                    row.append(Fraction(num, den))
            rows.append(row)
        if any(any(q for q in row) for row in rows):
            return rows


def brute_min_norm(rows: list[list[Fraction]], thetas: list[float], bound: float) -> float:
    """Smallest |Y| over the solutions of R Y = theta (mod 2pi), by enumeration.

    Independent of the solver's lattice search.  A solution with |Y| <= bound
    satisfies R Y = theta + 2pi u for a wrap vector u with |u_n| <= (|R_n|
    bound + 2pi) / 2pi, and its shortest form for that u is Y = R^+ (theta +
    2pi u).  Every u in that box is tried and Y is kept when it solves its
    system exactly (up to rounding); the shortest kept Y is returned.  With no
    rows nothing is constrained, and Y = 0 is the answer.
    """
    if not rows:
        return 0.0
    a = np.array([[float(q) for q in row] for row in rows])
    reach = [math.ceil((np.linalg.norm(row) * bound + TWO_PI) / TWO_PI) for row in a]
    axes = [np.arange(-c, c + 1) for c in reach]
    wraps = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(rows))
    rhs = np.array(thetas) + TWO_PI * wraps
    y = rhs @ np.linalg.pinv(a).T
    solved = np.max(np.abs(y @ a.T - rhs), axis=1) <= 1e-7
    return float(np.min(np.linalg.norm(y[solved], axis=1)))


def hausdorff_full_query(a, b) -> float:
    """Two-sided Hausdorff distance by full nearest-neighbour queries of both
    clouds, one KD-tree on each: the brute-force design that
    `valuesets.hausdorff` prunes, kept as its oracle."""
    from scipy.spatial import cKDTree

    pa = np.column_stack([a.points.real, a.points.imag])
    pb = np.column_stack([b.points.real, b.points.imag])
    d_ab = np.max(cKDTree(pb).query(pa, k=1)[0])
    d_ba = np.max(cKDTree(pa).query(pb, k=1)[0])
    return float(max(d_ab, d_ba))
