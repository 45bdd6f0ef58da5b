"""Independent checks of the program's outputs.

Every expected value here is computed apart from bohreq: exponents from the
benchmark's own trial-division factorisation and Bohr's closed-form exponent,
moduli from the triangle inequality, zeros from ``numpy.roots``, distances by
brute force, Kronecker residuals with ``math``.  Each check raises
``CheckFailed`` with a message naming what disagreed.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's own answer."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def factorize(n: int) -> dict[int, int]:
    """Prime exponents of n by trial division."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def primes_upto(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if factorize(p) == {p: 1}]


def circle_distance(x: float) -> float:
    """Distance from x to the nearest multiple of 2pi."""
    return abs(math.remainder(x, TWO_PI))


def bohr_lambda(n: int) -> Fraction:
    """Exponent 2n-1 + 1/(2(2n-1)) of Bohr's series, from its definition."""
    odd = 2 * n - 1
    return odd + Fraction(1, 2 * odd)


def closure_norms(n_max: int) -> list[float]:
    """pi * lcm_{n<=N} den(lambda_n / lambda_1) for N = 1..n_max."""
    out, lcm = [], 1
    for n in range(1, n_max + 1):
        lcm = math.lcm(lcm, (bohr_lambda(n) / bohr_lambda(1)).denominator)
        out.append(math.pi * lcm)
    return out


# -- exact layer -------------------------------------------------------------


def check_twist(
    a: Mapping[int, complex], b: Mapping[int, complex], phase: Sequence[float], tol: float
) -> None:
    """b_n = a_n exp(i (RY)_n) for every n, with R the prime-exponent matrix.

    The basis of an ordinary series over 1..N is the primes in order, so
    (RY)_n = sum_p e_p(n) Y_p.  The error is measured relative to |a_n|.
    """
    primes = primes_upto(max(a))
    require(len(phase) == len(primes), f"phase has {len(phase)} entries, want {len(primes)}")
    slot = {p: j for j, p in enumerate(primes)}
    for n, a_n in a.items():
        phi = math.fsum(e * phase[slot[p]] for p, e in factorize(n).items())
        err = abs(b[n] - a_n * cmath.exp(1j * phi)) / abs(a_n)
        require(err <= tol, f"term {n}: twist reproduced to {err:.3e} > {tol:.1e}")


def check_witness(
    ns: Sequence[int], thetas: Sequence[float], witness: Sequence[int], min_defect: float
) -> None:
    """A witness m has sum m_i v(n_i) = 0 and sum m_i theta_i != 0 (mod 2pi)."""
    require(len(witness) == len(ns), f"witness length {len(witness)} for {len(ns)} rows")
    require(any(witness), "witness is the zero vector")
    total: dict[int, int] = {}
    for m, n in zip(witness, ns):
        for p, e in factorize(n).items():
            total[p] = total.get(p, 0) + m * e
    require(not any(total.values()), f"witness is no integer relation: {total}")
    defect = circle_distance(math.fsum(m * th for m, th in zip(witness, thetas)))
    require(defect > min_defect, f"witness target defect {defect:.3e} <= {min_defect:.1e}")


def check_basis(source_terms: Sequence[int], n_terms: int) -> None:
    """The basis of 1..N is one element per prime p <= N, taken from term p."""
    primes = primes_upto(n_terms)
    require(len(source_terms) == len(primes), f"rank {len(source_terms)}, want pi(N) = {len(primes)}")
    require(list(source_terms) == primes, "basis is not taken from the prime terms in order")


def check_closure(points: Sequence[tuple[int, bool, float | None]], n_max: int) -> None:
    """Every truncation is feasible with min norm pi * lcm of denominators."""
    want = closure_norms(n_max)
    require(len(points) == n_max, f"{len(points)} closure points, want {n_max}")
    for (n, feasible, norm), expected in zip(points, want):
        require(feasible, f"closure point {n} reported infeasible")
        require(
            norm is not None and abs(norm - expected) <= 1e-9 * expected,
            f"closure point {n}: min norm {norm}, want {expected}",
        )


# -- float layer -------------------------------------------------------------


def modulus_cap(terms: Sequence[tuple[float, complex]], sigma_lo: float, sigma_hi: float) -> float:
    """Triangle-inequality bound on |f| over the band sigma_lo <= Re s <= sigma_hi."""
    return math.fsum(
        abs(c) * max(math.exp(-lam * sigma_lo), math.exp(-lam * sigma_hi)) for lam, c in terms
    )


def check_in_disc(values: np.ndarray, cap: float) -> None:
    require(len(values) > 0, "empty cloud")
    worst = float(np.max(np.abs(values)))
    require(math.isfinite(worst) and worst <= cap * (1 + 1e-12), f"value of modulus {worst} outside disc {cap}")


def check_in_annulus(values: np.ndarray, lo: float, hi: float) -> None:
    mod = np.abs(values)
    require(len(values) > 0, "empty cloud")
    low, high = float(np.min(mod)), float(np.max(mod))
    require(lo - 1e-12 <= low and high <= hi + 1e-12, f"moduli [{low}, {high}] leave [{lo}, {hi}]")


def check_count(values: np.ndarray, count: int) -> None:
    require(len(values) == count, f"cloud has {len(values)} points, want {count}")


def check_shift_bound(distance: float, lams: Sequence[float], m: int, sigma_min: float) -> None:
    """|shift(f, tau_m) + f| <= 2 sum_{n>m} e^{-lambda_n sigma_min} on unit coefficients."""
    bound = 2.0 * math.fsum(math.exp(-lam * sigma_min) for lam in lams[m:])
    require(0.0 <= distance <= bound + 1e-9, f"shift distance {distance} above {bound}")


def shifted_value(lams: Sequence[float], s: complex, tau: float) -> complex:
    """Sum of exp(-lambda_n (s + i tau)) for unit coefficients, term by term."""
    return sum(cmath.exp(-lam * complex(s.real, s.imag + tau)) for lam in lams)


def check_grid(grid: np.ndarray, sigmas: Sequence[float], ts: Sequence[float], lams: Sequence[float], tau: float) -> None:
    """Grid values match a term-by-term evaluation at its corners and centre."""
    rows, cols = len(sigmas), len(ts)
    require(grid.shape == (rows, cols), f"grid shape {grid.shape}, want {(rows, cols)}")
    for i, j in ((0, 0), (0, cols - 1), (rows - 1, 0), (rows - 1, cols - 1), (rows // 2, cols // 2)):
        want = shifted_value(lams, complex(sigmas[i], ts[j]), tau)
        err = abs(complex(grid[i, j]) - want)
        require(err <= 1e-8, f"grid[{i},{j}] off by {err:.3e}")


def kronecker_residual(t: float, beta: Sequence[float], target: Sequence[float]) -> float:
    return max(circle_distance(-t * b - y) for b, y in zip(beta, target))


def check_kronecker(found: bool, t: float | None, beta: Sequence[float], target: Sequence[float], tol: float, t_max: float) -> None:
    require(found and t is not None, "no Kronecker time found")
    require(0.0 <= t <= t_max, f"time {t} outside [0, {t_max}]")
    residual = kronecker_residual(t, beta, target)
    require(residual <= tol, f"Kronecker residual {residual:.3e} > tol {tol:.1e}")


def brute_hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    d = np.abs(a[:, None] - b[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def check_hausdorff(got: float, a: np.ndarray, b: np.ndarray) -> None:
    want = brute_hausdorff(a, b)
    require(abs(got - want) <= 1e-12 * max(1.0, want), f"Hausdorff {got}, brute force {want}")


# -- contour layer -----------------------------------------------------------


def root_points(roots: np.ndarray) -> list[tuple[float, float]]:
    """(sigma, arg) of s with e^{-s} = z, for each root z: t = -arg z + 2pi k."""
    return [(-math.log(abs(z)), -cmath.phase(z)) for z in roots]


def roots_in_rectangle(points: Sequence[tuple[float, float]], sigma: tuple[float, float], t: tuple[float, float]) -> int:
    count = 0
    for s, t0 in points:
        if sigma[0] < s < sigma[1]:
            k_lo = math.ceil((t[0] - t0) / TWO_PI)
            k_hi = math.floor((t[1] - t0) / TWO_PI)
            count += max(0, k_hi - k_lo + 1)
    return count


def rightmost_root(points: Sequence[tuple[float, float]], t: tuple[float, float], floor: float) -> float:
    best = -math.inf
    for s, t0 in points:
        if s > floor and math.floor((t[1] - t0) / TWO_PI) >= math.ceil((t[0] - t0) / TWO_PI):
            best = max(best, s)
    return best


def check_zero_count(got: int, want: int) -> None:
    require(got == want, f"zero count {got}, want {want}")


def check_additive(whole: int, parts: Sequence[int]) -> None:
    require(whole == sum(parts), f"count {whole} is not the sum of {list(parts)}")


def check_sigma_star_near(got: float, want: float, tol: float) -> None:
    require(abs(got - want) <= tol, f"sigma* {got}, rightmost root {want}, tol {tol}")


def check_sigma_star_at_least(got: float, sigma0: float, tol: float) -> None:
    require(got >= sigma0 - tol, f"sigma* {got} left of the known zero at sigma {sigma0}")
