"""Value-set sampling on strips and lines, and finite-cloud comparison.

Two routes produce the same regions for equivalent series: route A evaluates
the series directly at sampled points (`evaluation.evaluate_blocks`); route B
samples the equivalence class, twisting by random phase vectors drawn from
the period box [0, 2pi d)^k with d the lcm of expansion-matrix denominators
(for an integral matrix this is the plain torus box).  Route B sums the torus
lift sum_n c_n exp(i R_n . y - lambda_n sigma) over the series' product plan
(`evaluation.plan_sum`): a fresh term is one complex exp, a child term the
product of two stored ones, since exponents that add have rows R_n that add.
Both routes work through the points in blocks, which `plan_sum` shares among
threads, so every block is made from the seed and its own position alone:
route B's phases and sigmas, and route A's and the line's jitter, come from
generators advanced to the block's first draw in the one stream of
`default_rng(seed)`, drawn in turn, so a cloud depends neither on the threads
nor on the block length.  Route A keeps only its cell picks and the output at
full length.  Cloud proximity is measured by the two-sided Hausdorff distance
between finite point sets.  `kronecker_find_t`, the shift-time search, lives
in `equivalence` (it needs no NumPy) and is re-exported here under the same
name.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .basis import compute_basis, denominator_lcms
from .core import SeriesSpec, fsum_or_inf
from .equivalence import TWO_PI, kronecker_find_t  # noqa: F401
from .errors import BadRange, EmptyCloud, PrecisionLimit, check_integral, check_range
from .evaluation import BLOCK, evaluate, evaluate_blocks, plan_sum


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
    cap = fsum_or_inf(
        abs(term.coeff) * max(math.exp(-lam * sigma_lo), math.exp(-lam * sigma_hi))
        for lam, term in zip(spec.numeric_exponents(), spec.terms)
    )
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


def _check_draws(count: int, seed: int) -> None:
    check_integral(count, "count")
    if not count > 0:
        raise BadRange(f"need count > 0, got {count}")
    check_integral(seed, "seed")
    if seed < 0:
        raise BadRange(f"need seed >= 0, got {seed}")


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
    check_range(sigma1, sigma2, f"sigma range {(sigma1, sigma2)}")
    check_range(-t_max, t_max, f"t range (-t_max, t_max) for t_max = {t_max}")
    _check_draws(count, seed)
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
    jitter = 1 + len(centres)  # the jitter in sigma follows the draws above

    def points(block: slice) -> np.ndarray:
        cell = pick[block]
        rank = np.arange(block.start, block.start + len(cell)) - first[cell]
        u = (rank + _stream(seed, jitter + block.start).uniform(size=len(cell))) / per_cell[cell]
        v = (rank * _GOLDEN + shift[cell]) % 1.0
        sig = sigma1 + (cell // n_t + u) * d_sig
        t = -t_max + (cell % n_t + v) * d_t
        return sig + 1j * t

    values = evaluate_blocks(spec, count, points, t_max)
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
    check_range(sigma1, sigma2, f"sigma range {(sigma1, sigma2)}")
    _check_draws(count, seed)
    cap = _modulus_cap(spec, sigma1, sigma2)
    _, expansion, _ = compute_basis([term.exponent for term in spec.terms])
    d = max(denominator_lcms(expansion), default=1)
    k = expansion.ncols
    # the draws are those of default_rng(seed).uniform(0, 2pi d, (k, count))
    # followed by count sigmas, made block by block: each block's row of
    # phases and its sigmas come from a generator advanced to where those
    # numbers start in that one stream, so no count-sized array is held
    phase_scale = TWO_PI * d
    fresh_terms = list(spec.product_plan().fresh)
    rows = np.array(expansion.float_rows(), dtype=float).reshape(len(spec.terms), k)
    rows = rows[fresh_terms]
    rates = spec.fresh_rates()
    held = threading.local()  # each thread's buffers for y and R_n . y

    def fresh(block: slice, terms: np.ndarray) -> None:
        # exp(i R_n . y - lambda_n sigma), one complex exp per fresh term
        points = block.stop - block.start
        if not hasattr(held, "phases"):
            held.phases, held.lifted = np.empty(k * BLOCK), np.empty(len(rows) * BLOCK)
        phases = held.phases[: k * points].reshape(k, points)
        for j, row in enumerate(phases):
            # uniform(0, scale) is 0 + scale * u, which is scale * u
            _stream(seed, j * count + block.start).random(out=row)
        phases *= phase_scale
        sigmas = _stream(seed, k * count + block.start).uniform(sigma1, sigma2, points)
        np.multiply.outer(rates, sigmas, out=terms.real)
        terms.imag = np.matmul(rows, phases, out=held.lifted[: terms.size].reshape(terms.shape))
        np.exp(terms, out=terms)

    # lambda_n sigma may overflow to an infinite exponent: _check_modulus
    # refuses what is left not finite
    with np.errstate(over="ignore", invalid="ignore"):
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
    check_range(-t_max, t_max, f"t range (-t_max, t_max) for t_max = {t_max}")
    _check_draws(count, seed)
    cap = _modulus_cap(spec, sigma0, sigma0)
    step = 2.0 * t_max / count

    def points(block: slice) -> np.ndarray:
        # one jittered sample per equal subinterval: quasi-uniform coverage
        jitter = _stream(seed, block.start).uniform(size=block.stop - block.start)
        t = -t_max + (np.arange(block.start, block.stop) + jitter) * step
        return sigma0 + 1j * t

    values = evaluate_blocks(spec, count, points, t_max)
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
