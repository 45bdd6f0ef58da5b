"""Value-set sampling on strips and lines, and finite-cloud comparison.

Two routes produce the same regions for equivalent series: route A evaluates
the series directly at sampled points (with `evaluation.evaluate`); route B
samples the equivalence class, twisting by random phase vectors drawn from
the period box [0, 2pi d)^k with d the lcm of expansion-matrix denominators
(for an integral matrix this is the plain torus box).  Route B sums the torus
lift sum_n c_n exp(i R_n . y - lambda_n sigma) over the series' product plan
(`evaluation.plan_sum`): a fresh term is one complex exp, a child term the
product of two stored ones, since exponents that add have rows R_n that add.
Both routes work through the points in blocks of `evaluation.BLOCK`: route B
draws its phases and sigmas block by block from the same stream, and route A
keeps only its cell picks and the output at full length.  Cloud proximity is
measured by the two-sided Hausdorff distance between finite point sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .basis import compute_basis, denominator_lcm
from .core import SeriesSpec
from .equivalence import TWO_PI, PhaseVector
from .errors import BadRange, EmptyCloud, PrecisionLimit
from .evaluation import BLOCK, evaluate, plan_sum


@dataclass(frozen=True)
class ValueCloud:
    """Finite multiset of sampled complex values plus sampling provenance."""

    points: np.ndarray
    route: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=complex))

    def __len__(self) -> int:
        return len(self.points)


#: Fractional golden ratio: the t-step of the within-cell lattice of route A.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _modulus_cap(spec: SeriesSpec, sigma_lo: float, sigma_hi: float) -> float:
    """Triangle-inequality bound on |f| over the closed sigma band.

    Raises PrecisionLimit when the bound is not a finite double: the values
    themselves would then overflow.
    """
    try:
        cap = math.fsum(
            abs(term.coeff) * max(math.exp(-lam * sigma_lo), math.exp(-lam * sigma_hi))
            for lam, term in zip(spec.numeric_exponents(), spec.terms)
        )
    except OverflowError:
        cap = math.inf
    if not math.isfinite(cap):
        raise PrecisionLimit(
            f"the triangle bound on |f| for sigma in [{sigma_lo}, {sigma_hi}] "
            "is beyond double precision"
        )
    return cap


def _check_modulus(values: np.ndarray, cap: float) -> None:
    worst = float(np.max(np.abs(values))) if len(values) else 0.0
    # written so that a NaN modulus fails the test too
    if not worst <= cap * (1.0 + 1e-9) + 1e-12:
        raise PrecisionLimit(
            f"sampled modulus {worst:.6g} exceeds triangle bound {cap:.6g}"
        )


def sample_strip_direct(
    spec: SeriesSpec,
    sigma1: float,
    sigma2: float,
    t_max: float,
    count: int,
    seed: int,
) -> ValueCloud:
    """Route A for a strip: evaluate at seeded points of the strip, spread
    evenly over the value set.

    Points of [sigma1, sigma2] x [-t_max, t_max] are drawn with density
    proportional to |f'(s)|^2, the area factor of the conformal map s -> f(s),
    so the values come out evenly spaced in the value plane; uniform density
    in s leaves holes where f stretches most, on the outer rim of the value
    region.  A pilot grid of about count // 16 cells, close to square in s,
    is weighted by |f'|^2 at the cell centres (equal weights when none is
    positive and finite, as for a constant series); count cells are drawn by
    systematic resampling, and the points drawn in one cell form a randomly
    shifted lattice inside it.
    """
    if not -math.inf < sigma1 < sigma2 < math.inf:
        raise BadRange(f"need finite sigma1 < sigma2, got {sigma1}, {sigma2}")
    if not 0 < t_max < math.inf:
        raise BadRange(f"need a finite t_max > 0, got {t_max}")
    if not count > 0:
        raise BadRange(f"need count > 0, got {count}")
    cap = _modulus_cap(spec, sigma1, sigma2)
    rng = np.random.default_rng(seed)
    width, height = sigma2 - sigma1, 2.0 * t_max
    cells = max(1, count // 16)
    n_sig = min(cells, max(1, round(math.sqrt(cells * width / height))))
    n_t = max(1, cells // n_sig)
    d_sig, d_t = width / n_sig, height / n_t
    # cell k covers sigma column k // n_t and t row k % n_t
    sig_mid = sigma1 + (np.arange(n_sig) + 0.5) * d_sig
    t_mid = -t_max + (np.arange(n_t) + 0.5) * d_t
    centres = (sig_mid[:, None] + 1j * t_mid[None, :]).ravel()
    lams = spec.numeric_exponents()
    f_prime = spec.with_coeffs([-lam * c for lam, c in zip(lams, spec.coeffs())])
    try:
        deriv = evaluate(f_prime, centres)
    except PrecisionLimit:  # f' is beyond a double: equal weights below
        deriv = np.zeros_like(centres)
    with np.errstate(over="ignore"):  # |f'|^2 of a finite f' may still overflow
        cumulative = np.cumsum(deriv.real**2 + deriv.imag**2)
    if not (math.isfinite(cumulative[-1]) and cumulative[-1] > 0.0):
        cumulative = np.arange(1.0, len(centres) + 1.0)
    # systematic resampling: one uniform offset, count equally spaced positions
    positions = (rng.uniform() + np.arange(count)) * (cumulative[-1] / count)
    pick = np.searchsorted(cumulative[:-1], positions, side="right")
    # the n points of a cell form a shifted rank-1 lattice: stratified, jittered
    # in sigma; golden-ratio steps in t
    per_cell = np.bincount(pick, minlength=len(centres))
    first = np.cumsum(per_cell) - per_cell
    shift = rng.uniform(size=len(centres))
    values = np.empty(count, dtype=complex)
    # points are built and evaluated one block at a time; the last draw is
    # sequential, so drawing it per block gives the same numbers
    for lo in range(0, count, BLOCK):
        cell = pick[lo : lo + BLOCK]
        rank = np.arange(lo, lo + len(cell)) - first[cell]
        u = (rank + rng.uniform(size=len(cell))) / per_cell[cell]
        v = (rank * _GOLDEN + shift[cell]) % 1.0
        sig = sigma1 + (cell // n_t + u) * d_sig
        t = -t_max + (cell % n_t + v) * d_t
        values[lo : lo + len(cell)] = evaluate(spec, sig + 1j * t)
    _check_modulus(values, cap)
    meta = {
        "sigma1": sigma1,
        "sigma2": sigma2,
        "t_max": t_max,
        "count": count,
        "seed": seed,
    }
    return ValueCloud(values, "direct-strip", meta)


def _stream(seed: int, skip: int) -> np.random.Generator:
    """default_rng(seed) with its first `skip` doubles already drawn."""
    return np.random.Generator(np.random.PCG64(seed).advance(skip))


def sample_strip_via_equivalence(
    spec: SeriesSpec,
    sigma1: float,
    sigma2: float,
    count: int,
    seed: int,
) -> ValueCloud:
    """Route B for a strip: random twists of the series evaluated on the real axis.

    Each sample draws a phase vector uniformly from [0, 2pi d)^k (d the lcm of
    expansion denominators over all rows), twists the coefficients, and
    evaluates at a uniform sigma in the strip with t = 0.
    """
    if not -math.inf < sigma1 < sigma2 < math.inf:
        raise BadRange(f"need finite sigma1 < sigma2, got {sigma1}, {sigma2}")
    if not count > 0:
        raise BadRange(f"need count > 0, got {count}")
    cap = _modulus_cap(spec, sigma1, sigma2)
    _, expansion, _ = compute_basis([term.exponent for term in spec.terms])
    d = denominator_lcm(expansion, expansion.nrows) if expansion.nrows else 1
    k = expansion.ncols
    # the draws are those of default_rng(seed).uniform(0, 2pi d, (k, count))
    # followed by count sigmas, made block by block: one generator per row of
    # phases and one for the sigmas, each advanced to where its numbers start
    # in that one stream, so no count-sized array of phases is held
    phase_draws = [_stream(seed, j * count) for j in range(k)]
    sigma_draws = _stream(seed, k * count)
    fresh_terms = list(spec.product_plan().fresh)
    rows = np.array(expansion.float_rows(), dtype=float).reshape(len(spec.terms), k)
    rows = rows[fresh_terms]
    lams = spec.numeric_exponents()
    neg = np.array([-lams[n] for n in fresh_terms])

    def fresh(block: slice, terms: np.ndarray) -> None:
        # exp(i R_n . y - lambda_n sigma), one complex exp per fresh term
        points = block.stop - block.start
        phases = np.array([g.uniform(0.0, TWO_PI * d, points) for g in phase_draws])
        np.multiply.outer(neg, sigma_draws.uniform(sigma1, sigma2, points), out=terms.real)
        terms.imag = rows @ phases.reshape(k, points)
        np.exp(terms, out=terms)

    values = plan_sum(spec, count, fresh)
    _check_modulus(values, cap)
    meta = {
        "sigma1": sigma1,
        "sigma2": sigma2,
        "count": count,
        "seed": seed,
        "denominator_lcm": d,
    }
    return ValueCloud(values, "equivalence-class", meta)


def sample_line(
    spec: SeriesSpec, sigma0: float, t_max: float, count: int, seed: int
) -> ValueCloud:
    """Values on the vertical line sigma = sigma0, t stratified over [-t_max, t_max]."""
    if not math.isfinite(sigma0):
        raise BadRange(f"need a finite sigma0, got {sigma0}")
    if not 0 < t_max < math.inf:
        raise BadRange(f"need a finite t_max > 0, got {t_max}")
    if not count > 0:
        raise BadRange(f"need count > 0, got {count}")
    cap = _modulus_cap(spec, sigma0, sigma0)
    rng = np.random.default_rng(seed)
    values = np.empty(count, dtype=complex)
    # one jittered sample per equal subinterval: quasi-uniform coverage of the
    # line, drawn and evaluated one block at a time
    for lo in range(0, count, BLOCK):
        hi = min(lo + BLOCK, count)
        t = -t_max + (np.arange(lo, hi) + rng.uniform(size=hi - lo)) * (2.0 * t_max / count)
        values[lo:hi] = evaluate(spec, sigma0 + 1j * t)
    _check_modulus(values, cap)
    meta = {"sigma0": sigma0, "t_max": t_max, "count": count, "seed": seed}
    return ValueCloud(values, "direct-line", meta)


def hausdorff(a: ValueCloud, b: ValueCloud) -> float:
    """Two-sided Hausdorff distance between finite clouds in the plane."""
    # imported here: scipy.spatial is most of the package's import time, and
    # nothing else needs it
    from scipy.spatial import cKDTree

    if len(a) == 0 or len(b) == 0:
        raise EmptyCloud("hausdorff distance needs nonempty clouds")
    pa = np.column_stack([a.points.real, a.points.imag])
    pb = np.column_stack([b.points.real, b.points.imag])
    d_ab = np.max(cKDTree(pb).query(pa, k=1)[0])
    d_ba = np.max(cKDTree(pa).query(pb, k=1)[0])
    return float(max(d_ab, d_ba))


#: Most samples of kronecker_find_t's coarse grid: a finer step is widened.
MAX_GRID_POINTS = 5_000_000


class KroneckerResult(NamedTuple):
    found: bool
    t: float | None
    residual: float | None


def _kronecker_residuals(
    ts: np.ndarray, beta: np.ndarray, target: np.ndarray
) -> np.ndarray:
    phases = -np.outer(ts, beta) - target[None, :]
    return np.max(np.abs((phases + math.pi) % TWO_PI - math.pi), axis=1)


def kronecker_find_t(
    basis_values: Sequence[float],
    target: PhaseVector,
    tol: float,
    t_max_search: float,
) -> KroneckerResult:
    """Search for a shift time realizing target phases on all basis frequencies.

    Finds t in [0, t_max_search] with max_j |(-t beta_j - y_j) mod 2pi| <= tol
    by a coarse grid (step tied to tol and the largest frequency, capped at
    MAX_GRID_POINTS samples) followed by iterative local refinement.  Any
    returned hit is re-verified; notFound is a value, not an error.
    """
    if not 0 < tol < math.inf:
        raise BadRange(f"need a finite tol > 0, got {tol}")
    if not 0 < t_max_search < math.inf:
        raise BadRange(f"need a finite t_max_search > 0, got {t_max_search}")
    beta = np.asarray(list(basis_values), dtype=float)
    y = np.asarray(list(target), dtype=float)
    if beta.shape != y.shape:
        raise BadRange("target length must match basis length")
    if len(beta) == 0:
        return KroneckerResult(True, 0.0, 0.0)
    lipschitz = float(np.max(np.abs(beta)))
    if lipschitz == 0.0:
        residual = float(np.max(np.abs((y + math.pi) % TWO_PI - math.pi)))
        return KroneckerResult(residual <= tol, 0.0 if residual <= tol else None,
                               residual if residual <= tol else None)
    step = min(0.45 * tol / lipschitz, 0.05 / lipschitz)
    step = max(step, t_max_search / MAX_GRID_POINTS)
    accept = tol + 0.55 * lipschitz * step

    def refine(lo: float, hi: float) -> tuple[float, float]:
        for _ in range(6):
            ts = np.linspace(lo, hi, 81)
            res = _kronecker_residuals(ts, beta, y)
            i = int(np.argmin(res))
            lo = ts[max(i - 1, 0)]
            hi = ts[min(i + 1, len(ts) - 1)]
        ts = np.linspace(lo, hi, 81)
        res = _kronecker_residuals(ts, beta, y)
        i = int(np.argmin(res))
        return float(ts[i]), float(res[i])

    chunk = 1_000_000
    n_total = int(math.floor(t_max_search / step)) + 1
    start = 0
    while start < n_total:
        stop = min(start + chunk, n_total)
        ts = (np.arange(start, stop) * step).clip(max=t_max_search)
        res = _kronecker_residuals(ts, beta, y)
        hits = np.flatnonzero(res <= accept)
        # one refinement per contiguous run of near-threshold samples
        for run in np.split(hits, np.flatnonzero(np.diff(hits) > 1) + 1):
            if len(run) == 0:
                continue
            i = run[int(np.argmin(res[run]))]
            t_best, _ = refine(max(ts[i] - step, 0.0), min(ts[i] + step, t_max_search))
            # re-verify against the exact residual before reporting
            check = float(_kronecker_residuals(np.array([t_best]), beta, y)[0])
            if check <= tol:
                return KroneckerResult(True, t_best, check)
        start = stop
    return KroneckerResult(False, None, None)
