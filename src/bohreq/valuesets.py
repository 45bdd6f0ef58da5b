"""Value-set sampling on strips and lines, and finite-cloud comparison.

Two routes produce the same regions for equivalent series: route A evaluates
the series directly at sampled points (`evaluation.evaluate_blocks`); route B
samples the equivalence class, twisting by random phase vectors drawn from
the period box [0, 2pi d)^k with d the lcm of expansion-matrix denominators
(for an integral matrix this is the plain torus box).  Route B sums the torus
lift sum_n c_n exp(i R_n . y - lambda_n sigma) over the series' product plan
(`evaluation.plan_sum`): a fresh term is one complex exp, a child term the
product of two stored ones, since exponents that add have rows R_n that add;
only the fresh terms' rows of R are made dense.
Both routes work through the points in blocks, which `plan_sum` shares among
threads, so every block is made from the seed and its own position alone:
route B's phases and sigmas, and route A's and the line's jitter, come from
generators advanced to the block's first draw in the one stream of
`default_rng(seed)`, drawn in turn, so a cloud depends neither on the threads
nor on the block length.  Route A keeps only its cell picks and the output at
full length.  Cloud proximity is measured by the two-sided Hausdorff distance
between finite point sets, computed exactly with one KD-tree at a time (split
at the midpoint and left uncompacted, which builds fastest): a
lower bound from every 64th point lets a grid of half its size drop the
points that share a cell with the other cloud, which cannot set the maximum,
so only the rest are queried (Taha and Hanbury, IEEE TPAMI 2015).
`kronecker_find_t`, the shift-time search, lives in `equivalence` (it needs
no NumPy) and is re-exported here under the same name.
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
    # followed by count sigmas, made block by block: one generator, advanced
    # to the block's first phase in that one stream, draws each row of phases
    # and skips to the next row, then draws the sigmas, so no count-sized
    # array is held
    phase_scale = TWO_PI * d
    fresh_terms = spec.product_plan().fresh
    rows = np.array(expansion.float_rows(fresh_terms), dtype=float).reshape(len(fresh_terms), k)
    rates = spec.fresh_rates()
    held = threading.local()  # each thread's buffers for y and R_n . y

    def fresh(block: slice, terms: np.ndarray) -> None:
        # exp(i R_n . y - lambda_n sigma), one complex exp per fresh term
        points = block.stop - block.start
        if not hasattr(held, "phases"):
            held.phases, held.lifted = np.empty(k * BLOCK), np.empty(len(rows) * BLOCK)
        phases = held.phases[: k * points].reshape(k, points)
        draws = _stream(seed, block.start)
        for row in phases:
            # uniform(0, scale) is 0 + scale * u, which is scale * u
            draws.random(out=row)
            draws.bit_generator.advance(count - points)
        phases *= phase_scale
        sigmas = draws.uniform(sigma1, sigma2, points)
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


#: Each directed distance, from x to y, is first bounded below by `low`, the
#: largest nearest-neighbour distance among every 64th point of x: an exact
#: distance of actual points at 1/64 the cost of a full query.  On the route A
#: and route B strip clouds of 10^5 points the grid below then leaves about 1%
#: of x to query.
_STRIDE = 64
#: Cells per axis at most.  Below 2^26 the rounding of (z - origin) / side
#: stays under 2^-25 of a cell, so two points given one cell of side low/2
#: are less than 0.7072 low apart.
_MAX_CELLS = 1 << 26
#: Cells per point of y at most: the grid's table, one byte a cell, is then
#: no larger than the tree's index array, and a cell key is an exact int64.
_CELLS_PER_POINT = 8
#: Points keyed per step, so that no temporary is the size of a cloud.
_CHUNK = 1 << 13


def _plane(cloud: ValueCloud, name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cloud's points as rows (re, im), and the lower and upper corners
    of their bounding box; BadRange on a point that is not finite."""
    z = cloud.points
    finite = np.isfinite(z)
    if not finite.all():
        raise BadRange(
            f"hausdorff needs finite points: the {name} cloud has {complex(z[np.argmin(finite)])}"
        )
    lo = np.array([z.real.min(), z.imag.min()])
    hi = np.array([z.real.max(), z.imag.max()])
    return np.ascontiguousarray(z).view(np.float64).reshape(-1, 2), lo, hi


def _cells(points: np.ndarray, origin: np.ndarray, side: float, rows: int) -> np.ndarray:
    """The key column * rows + row of each point's grid cell."""
    # points - origin >= 0, so truncation is the floor
    cols = ((points - origin) / side).astype(np.int64)
    return cols[:, 0] * rows + cols[:, 1]


def _chunks(points: np.ndarray):
    return (points[start : start + _CHUNK] for start in range(0, len(points), _CHUNK))


def _directed(x: np.ndarray, tree, origin: np.ndarray, span: tuple[float, float], low: float) -> float:
    """The largest distance from a point of x to the tree's points, or `low`
    if that is larger; only points that can exceed `low` are queried."""
    low = max(low, float(tree.query(x[::_STRIDE])[0].max()))
    # side low/2: a cell's diameter, low/sqrt2 < low, leaves room for rounding
    side = low / 2.0
    if side > 0.0:
        # one cell to spare on each axis; in Python floats, which overflow to
        # inf without a warning
        cols, rows = span[0] / side + 2.0, span[1] / side + 2.0
        y = tree.data
        if max(cols, rows) < _MAX_CELLS and cols * rows <= _CELLS_PER_POINT * len(y):
            # a point of x that shares its cell with a point of y is closer
            # than low to y, so it cannot set the maximum
            rows = int(rows)
            taken = np.zeros(int(cols) * rows, dtype=bool)
            for part in _chunks(y):
                taken[_cells(part, origin, side, rows)] = True
            x = np.concatenate([part[~taken[_cells(part, origin, side, rows)]] for part in _chunks(x)])
    if len(x):
        low = max(low, float(tree.query(x)[0].max()))
    return low


def hausdorff(a: ValueCloud, b: ValueCloud) -> float:
    """Two-sided Hausdorff distance between finite clouds in the plane.

    Each direction, a to b and then b to a, builds one KD-tree on the far
    cloud and first queries every 64th near point.  Their largest
    nearest-neighbour distance is a lower bound `low`; in the second
    direction the first direction's result is taken too, whichever is
    larger.  A grid of side low/2 over both clouds then drops each near point
    that shares a cell with a far point: it lies within low/sqrt2 of the far
    cloud and cannot set the maximum.  Only the rest are queried (Taha and
    Hanbury, "An efficient algorithm for calculating the exact Hausdorff
    distance", IEEE TPAMI 37(11), 2015).  The grid is laid only when low > 0,
    both spans are under 2^26 cells and it has at most 8 cells per far point;
    otherwise every point is queried.

    The result is exact, equal to that of full nearest-neighbour queries of
    both clouds: every value taken is the tree's distance of an actual point,
    and every dropped point's distance is below a value already taken.  So
    the point farthest from the other cloud is always among those queried.
    A point that is not finite raises BadRange.
    """
    # imported here: scipy.spatial is most of the package's import time, and
    # nothing else needs it
    from scipy.spatial import cKDTree

    if len(a) == 0 or len(b) == 0:
        raise EmptyCloud("hausdorff distance needs nonempty clouds")
    pa, lo_a, hi_a = _plane(a, "first")
    pb, lo_b, hi_b = _plane(b, "second")
    origin, top = np.minimum(lo_a, lo_b), np.maximum(hi_a, hi_b)
    span = (float(top[0]) - float(origin[0]), float(top[1]) - float(origin[1]))
    # each direction's tree is freed when it returns, before the next is built;
    # split at the midpoint and left uncompacted, a tree of a cloud builds in
    # about half the time of a balanced, compact one, and answers the same
    d_ab = _directed(pa, cKDTree(pb, balanced_tree=False, compact_nodes=False), origin, span, 0.0)
    return _directed(pb, cKDTree(pa, balanced_tree=False, compact_nodes=False), origin, span, d_ab)
