"""Equivalence of series sharing an exponent sequence.

Two series with coefficients a(n), b(n) over the same exponents are equivalent
when b(n) = a(n) exp(i (R Y)_n) for one real phase vector Y over the basis.
Deciding this for a finite truncation is a simultaneous congruence problem
R Y = theta (mod 2pi): it is feasible exactly when every integer relation m
among the rows of R annihilates the targets, m . theta = 0 (mod 2pi), and a
witness relation that fails certifies non-equivalence.

When the relations pass, a solution is built on pivot rows, the earliest
independent constrained rows (the basis's own unit rows unless a basis term is
skipped).  Phases on the pivots are theta_P + 2pi w, and only rows whose
expression over the pivots is non-integral constrain the integer vector w,
through a small congruence system solved exactly.  Feasible verdicts always
come with an explicit Y passing the residual check, infeasible ones with an
exact witness.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .basis import Basis, BohrMatrix, compute_basis, expand_over_pivots
from .core import SeriesSpec
from .errors import DimensionMismatch, ModulusMismatch, PrecisionLimit, SupportMismatch
from .lattice import (
    clear_denominators,
    diagonalize,
    integer_left_kernel,
    integer_right_kernel,
    size_reduce,
    solve_integer_rows,
)

TWO_PI = 2.0 * math.pi

#: A phase vector is just a sequence of radians indexed like the basis elements.
PhaseVector = Sequence[float]


def principal_angle(x: float) -> float:
    """Representative of x modulo 2pi in [-pi, pi)."""
    return (x + math.pi) % TWO_PI - math.pi


def circle_distance(x: float) -> float:
    """Distance from x to the nearest multiple of 2pi."""
    return abs(principal_angle(x))


@dataclass(frozen=True)
class PhaseTargets:
    """Per-term phase requirements theta(n) = arg(b(n)/a(n)) in [0, 2pi).

    `entries` holds (term index, theta) for the constrained terms; `skipped`
    lists terms where both coefficients vanish and no constraint arises.
    Indices are 0-based.
    """

    entries: tuple[tuple[int, float], ...]
    skipped: tuple[int, ...] = ()

    def indices(self) -> list[int]:
        return [i for i, _ in self.entries]

    def thetas(self) -> list[float]:
        return [th for _, th in self.entries]


@dataclass(frozen=True)
class CongruenceSystem:
    """Verdict on the truncated system R Y = theta (mod 2pi).

    `kernel` generates every integer relation among the constrained rows, in
    the form `integer_kernel` gives (pivot form where the rows' expression
    over the pivots is integral), and each vector annihilates the rows
    exactly (rational arithmetic).  Feasible verdicts carry a phase vector
    whose worst residual is at most `tol`; infeasible ones carry an integer
    witness, one of the kernel vectors, whose target defect exceeds `tol`
    times its l1 norm.
    """

    row_indices: tuple[int, ...]
    targets: PhaseTargets
    kernel: tuple[tuple[int, ...], ...]
    feasible: bool
    tol: float
    phase: tuple[float, ...] | None = None
    residual: float | None = None
    witness: tuple[int, ...] | None = None
    defect: float | None = None

    def __post_init__(self):
        if self.feasible:
            if self.phase is None or self.residual is None:
                raise ValueError("feasible verdict requires a phase vector and residual")
            if self.residual > self.tol:
                raise ValueError(
                    f"feasible verdict with residual {self.residual:.3e} > tol {self.tol:.3e}"
                )
        else:
            if self.witness is None or self.defect is None:
                raise ValueError("infeasible verdict requires a witness and defect")
            scale = sum(abs(m) for m in self.witness)
            if self.defect <= self.tol * scale:
                raise ValueError(
                    f"witness defect {self.defect:.3e} does not exceed tolerance"
                )


def twist(
    spec: SeriesSpec, basis: Basis, expansion: BohrMatrix, phases: PhaseVector
) -> SeriesSpec:
    """Multiply coefficient n by exp(i (R Y)_n); exponents are untouched."""
    if expansion.nrows != len(spec.terms):
        raise DimensionMismatch(
            f"matrix has {expansion.nrows} rows for {len(spec.terms)} terms"
        )
    if len(basis) != expansion.ncols or len(phases) != expansion.ncols:
        raise DimensionMismatch(
            f"basis size {len(basis)}, matrix columns {expansion.ncols}, "
            f"phase length {len(phases)} must agree"
        )
    coeffs = []
    for i, term in enumerate(spec.terms):
        phi = math.fsum(float(q) * phases[j] for j, q in expansion.row_items(i))
        coeffs.append(term.coeff * cmath.exp(1j * phi))
    return spec.with_coeffs(coeffs)


def extract_phase_targets(a: SeriesSpec, b: SeriesSpec, tol: float = 1e-9) -> PhaseTargets:
    """Phase targets theta(n) making b a twist of a, or a proof none exist.

    Both specs must carry the identical exponent list (align first by taking
    the union of exponent sets with zero coefficients where a series is
    missing a term).  Raises ModulusMismatch or SupportMismatch, with 1-based
    term positions, when the series cannot be equivalent at all.
    """
    if len(a.terms) != len(b.terms):
        raise DimensionMismatch(
            f"term counts differ: {len(a.terms)} vs {len(b.terms)}"
        )
    for i, (ta, tb) in enumerate(zip(a.terms, b.terms)):
        if ta.exponent != tb.exponent:
            raise DimensionMismatch(f"exponent vectors differ at term {i + 1}")
    entries: list[tuple[int, float]] = []
    skipped: list[int] = []
    for i, (ta, tb) in enumerate(zip(a.terms, b.terms)):
        ma, mb = abs(ta.coeff), abs(tb.coeff)
        if ma == 0.0:
            if mb == 0.0:
                skipped.append(i)
                continue
            raise SupportMismatch(i + 1)
        if abs(ma - mb) > tol * max(1.0, ma):
            raise ModulusMismatch(i + 1, ta.coeff, tb.coeff)
        theta = cmath.phase(tb.coeff / ta.coeff) % TWO_PI
        entries.append((i, theta))
    return PhaseTargets(tuple(entries), tuple(skipped))


def _expand_rows(
    expansion: BohrMatrix, idx: Sequence[int]
) -> tuple[list[int], list[dict[int, Fraction]]]:
    """Pivots of the selected rows and every row's expression R' over them."""
    if any(not 0 <= i < expansion.nrows for i in idx):
        raise DimensionMismatch(f"row selection outside 0..{expansion.nrows - 1}")
    return expand_over_pivots([dict(expansion.row_items(i)) for i in idx])


def _wrapped_rows(expr: list[dict[int, Fraction]]) -> list[int]:
    """Positions of the rows whose expression over the pivots is non-integral."""
    return [n for n, row in enumerate(expr) if any(q.denominator != 1 for q in row.values())]


def _relations(
    pivots: list[int], expr: list[dict[int, Fraction]], wrapped: list[int]
) -> list[dict[int, int]]:
    """Sparse generators {position: coefficient} of the rows' integer relations.

    A relation m satisfies sum_n m_n R'_n = 0, so its pivot entries are fixed
    by the others.  Each non-pivot row n outside W gives e_n - sum_p R'_np
    e_p.  The wrapped rows W admit the lattice {m_W : m_W R'_W integral},
    taken in Hermite form from the left kernel of the rows W and P.  The
    relations are the direct sum of the two parts.  Each generator's first
    nonzero entry is positive, and generators are ordered by that position.
    """
    skip = set(pivots) | set(wrapped)
    gens: list[dict[int, int]] = []
    for n, row in enumerate(expr):
        if n in skip:
            continue
        g = {pivots[j]: -q.numerator for j, q in row.items()}
        g[n] = 1
        if g[min(g)] < 0:
            g = {i: -c for i, c in g.items()}
        gens.append(g)
    if wrapped:
        block = sorted(skip)
        r = len(pivots)
        dense = [[expr[n].get(j, Fraction(0)) for j in range(r)] for n in block]
        for m in integer_left_kernel(dense):
            gens.append({block[i]: c for i, c in enumerate(m) if c})
    gens.sort(key=min)
    return gens


def _dense(relation: dict[int, int], size: int) -> tuple[int, ...]:
    m = [0] * size
    for i, c in relation.items():
        m[i] = c
    return tuple(m)


def integer_kernel(expansion: BohrMatrix, rows: Sequence[int]) -> list[tuple[int, ...]]:
    """Generators of {m integer : sum_n m_n R[n] = 0} for the selected rows.

    Exact, read off the rows' expression R' over their pivots, the earliest
    independent rows.  A non-pivot row with integral R'_n gives one generator
    in pivot form, e_n - sum_p R'_np e_p, which is a signed unit on the
    non-pivot coordinates.  Rows with non-integral R'_n get a Hermite-reduced
    basis of their small lattice.  Each generator's first nonzero entry is
    positive.  The empty list certifies that the rows are rationally
    independent.  Vector entries align with the order of `rows`.
    """
    idx = list(rows)
    if not idx:
        raise DimensionMismatch("row selection must be nonempty")
    pivots, expr = _expand_rows(expansion, idx)
    return [_dense(g, len(idx)) for g in _relations(pivots, expr, _wrapped_rows(expr))]


def _diagonalized_system(dense: list[list[Fraction]]):
    """Clear denominators and diagonalize the scaled system (closure scan)."""
    a_int, scale = clear_denominators(dense)
    u, diag, v, rank = diagonalize(a_int)
    return a_int, scale, u, diag, v, rank


def _polish_phases(dense_float: np.ndarray, thetas: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Newton refinements of R y = theta (mod 2pi) on signed residuals.

    The true solution set is an affine space, so once y is within the linear
    regime a least-squares correction restores full double precision.
    """
    for _ in range(2):
        res = dense_float @ y - thetas
        res = (res + math.pi) % TWO_PI - math.pi
        if np.max(np.abs(res)) < 1e-13:
            break
        delta, *_ = np.linalg.lstsq(dense_float, -res, rcond=None)
        y = y + delta
    return y


def _pivot_lift(
    expr: list[dict[int, Fraction]], wrapped: list[int], thetas: list[float], pivots: list[int]
) -> list[int]:
    """Integer w with R'_n . w = c_n (mod 1) on every constrained row, size-reduced.

    `expr[n]` is row n over the pivots (R'_n) and c_n = (theta_n - R'_n .
    theta_P) / 2pi.  Rows with integral R'_n hold for every w (the kernel check
    made c_n an integer), so only the others enter, scaled by the lcm d of
    their denominators: [d R' | d I] (w, u) = round(d c).  The solution is
    size-reduced modulo {w : d R' w = 0 (mod d)}, the right kernel projected
    onto its first r coordinates.
    """
    r = len(pivots)
    if not wrapped:
        return [0] * r
    d = 1
    for n in wrapped:
        for q in expr[n].values():
            d = math.lcm(d, q.denominator)
    theta_p = [thetas[p] for p in pivots]
    m = len(wrapped)
    system: list[list[int]] = []
    rhs: list[int] = []
    for i, n in enumerate(wrapped):
        scaled = [0] * r
        for j, q in expr[n].items():
            scaled[j] = int(q * d)
        system.append(scaled + [d if t == i else 0 for t in range(m)])
        terms = [d * thetas[n]] + [-c * th for c, th in zip(scaled, theta_p) if c]
        rhs.append(round(math.fsum(terms) / TWO_PI))
    solution = solve_integer_rows(system, rhs)
    if solution is None:
        raise PrecisionLimit(
            "integer lifts are inconsistent: the system sits beyond what "
            "double-precision targets can certify"
        )
    lattice = [v[:r] for v in integer_right_kernel(system)]
    return size_reduce(solution[:r], lattice)


def solve_phase_system(
    expansion: BohrMatrix, targets: PhaseTargets, tol: float = 1e-9
) -> CongruenceSystem:
    """Decide R Y = theta (mod 2pi) on the constrained rows.

    Feasibility is the kernel criterion: every integer relation among the rows
    must annihilate theta modulo 2pi, each within tol scaled by the relation's
    l1 norm.  One expansion of the constrained rows over the pivots P, the
    earliest independent constrained rows, gives the relations (see
    `integer_kernel`), the witness and the lift.  When all relations pass, Y
    is built on the pivots: each constrained row is exactly R'_n R_P, and
    phases phi = theta_P + 2pi w on the pivots satisfy it when the integer
    vector w solves R'_n . w = c_n (mod 1) (see `_pivot_lift`).  When the
    pivots are unit rows of R, Y is phi in their columns; otherwise Y is the
    least-squares solution of R_P Y = phi, polished to double precision.
    Raises PrecisionLimit when the phases miss a target by more than tol.
    """
    idx = targets.indices()
    thetas = targets.thetas()
    if not idx:
        return CongruenceSystem(
            row_indices=(),
            targets=targets,
            kernel=(),
            feasible=True,
            tol=tol,
            phase=(0.0,) * expansion.ncols,
            residual=0.0,
        )
    pivots, expr = _expand_rows(expansion, idx)
    wrapped = _wrapped_rows(expr)
    relations = _relations(pivots, expr, wrapped)
    kernel = tuple(_dense(g, len(idx)) for g in relations)
    for g, m in zip(relations, kernel):
        defect = circle_distance(math.fsum(c * thetas[i] for i, c in g.items()))
        if defect > tol * sum(abs(c) for c in g.values()):
            return CongruenceSystem(
                row_indices=tuple(idx),
                targets=targets,
                kernel=kernel,
                feasible=False,
                tol=tol,
                witness=m,
                defect=defect,
            )

    k = expansion.ncols
    if k == 0:
        # only empty rows: the kernel check above already forced theta = 0 (mod 2pi)
        residual = max(circle_distance(th) for th in thetas)
        return CongruenceSystem(
            row_indices=tuple(idx),
            targets=targets,
            kernel=kernel,
            feasible=True,
            tol=tol,
            phase=(),
            residual=residual,
        )

    w = _pivot_lift(expr, wrapped, thetas, pivots)
    phi = [thetas[p] + TWO_PI * wp for p, wp in zip(pivots, w)]
    pivot_rows = [expansion.row_items(idx[p]) for p in pivots]
    if all(len(row) == 1 and row[0][1] == 1 for row in pivot_rows):
        y = [0.0] * k
        for row, value in zip(pivot_rows, phi):
            y[row[0][0]] = value
    else:
        dense_float = np.array(expansion.float_rows(idx), dtype=float)
        y, *_ = np.linalg.lstsq(dense_float[pivots], np.array(phi), rcond=None)
        y = _polish_phases(dense_float, np.array(thetas, dtype=float), y).tolist()
    residual = max(
        circle_distance(math.fsum(float(q) * y[j] for j, q in expansion.row_items(i)) - th)
        for i, th in zip(idx, thetas)
    )
    if residual > tol:
        raise PrecisionLimit(
            f"congruence solution lost precision: residual {residual:.3e} > tol {tol:.3e}"
        )
    return CongruenceSystem(
        row_indices=tuple(idx),
        targets=targets,
        kernel=kernel,
        feasible=True,
        tol=tol,
        phase=tuple(y),
        residual=residual,
    )


@dataclass(frozen=True)
class EquivalenceResult:
    equivalent: bool
    phase: tuple[float, ...] | None = None
    reason: str | None = None
    system: CongruenceSystem | None = None


def is_equivalent_truncated(
    a: SeriesSpec, b: SeriesSpec, tol: float = 1e-9
) -> EquivalenceResult:
    """Decide equivalence of two aligned truncations.

    Equivalent iff coefficient moduli and supports match and the phase
    congruence system over the computed basis is feasible.
    """
    try:
        targets = extract_phase_targets(a, b, tol)
    except (ModulusMismatch, SupportMismatch) as err:
        return EquivalenceResult(equivalent=False, reason=str(err))
    _, expansion, _ = compute_basis([t.exponent for t in a.terms])
    system = solve_phase_system(expansion, targets, tol)
    if system.feasible:
        return EquivalenceResult(equivalent=True, phase=system.phase, system=system)
    return EquivalenceResult(
        equivalent=False,
        reason=(
            f"kernel witness {system.witness} has target defect "
            f"{system.defect:.6g} rad"
        ),
        system=system,
    )


class ClosurePoint(NamedTuple):
    n: int
    feasible: bool
    min_norm: float | None


def _min_norm_one_dim(dense: list[list[Fraction]], solution: float) -> float:
    """Smallest |y| solving a feasible one-basis-element system.

    The solution set is an arithmetic progression of spacing 2 pi d / g (g the
    gcd of the scaled column); rounding picks the nearest translate.
    """
    a_int, scale = clear_denominators(dense)
    g = math.gcd(*(abs(row[0]) for row in a_int)) if a_int else 0
    if g == 0:
        return 0.0
    period = TWO_PI * scale / g
    j = round(solution / period)
    best = min(abs(solution - (j + dj) * period) for dj in (-1, 0, 1))
    return best


def _min_norm_bounded(dense: list[list[Fraction]], phase: Sequence[float]) -> float:
    """Bounded enumeration of solution-lattice translates for k >= 2 bases.

    Returns an upper estimate of the minimum Euclidean norm: lattice shifts of
    the found solution are scanned in the box of -4..4 steps per generator
    (free directions projected out exactly).
    """
    k = len(phase)
    _, scale, _, diag, v, rank = _diagonalized_system(dense)
    modulus = TWO_PI * scale
    varr = np.array(v, dtype=float)
    y0 = np.array(phase, dtype=float)
    free = varr[:, rank:]
    if free.size:
        # remove the affine-free component: min over it is a projection
        proj, *_ = np.linalg.lstsq(free, y0, rcond=None)
        y0 = y0 - free @ proj
    gens = [varr[:, i] * (modulus / diag[i]) for i in range(rank)]
    if not gens:
        return float(np.linalg.norm(y0))
    bound = 4
    best = float("inf")
    grids = np.meshgrid(*[np.arange(-bound, bound + 1) for _ in gens], indexing="ij")
    coords = np.stack([g.ravel() for g in grids], axis=-1)
    for combo in coords:
        cand = y0 + sum(c * g for c, g in zip(combo, gens))
        if free.size:
            proj, *_ = np.linalg.lstsq(free, cand, rcond=None)
            cand = cand - free @ proj
        best = min(best, float(np.linalg.norm(cand)))
    return best


def closure_demo(a: SeriesSpec, b: SeriesSpec, n_max: int) -> list[ClosurePoint]:
    """Per-truncation feasibility scan of the first-N phase systems.

    For each N <= n_max the first N terms are aligned and the congruence
    system is decided; when feasible over a one-dimensional basis the exact
    minimum |y| is reported.  Feasibility at every N with min norms diverging
    is the finite signature of a series lying in the closure of an
    equivalence class without belonging to it.
    """
    if not 1 <= n_max <= min(len(a.terms), len(b.terms)):
        raise DimensionMismatch(
            f"n_max {n_max} outside 1..{min(len(a.terms), len(b.terms))}"
        )
    out: list[ClosurePoint] = []
    for n in range(1, n_max + 1):
        head_a = a.take_terms(n)
        head_b = b.take_terms(n)
        try:
            targets = extract_phase_targets(head_a, head_b)
        except (ModulusMismatch, SupportMismatch):
            out.append(ClosurePoint(n, False, None))
            continue
        _, expansion, _ = compute_basis([t.exponent for t in head_a.terms])
        system = solve_phase_system(expansion, targets)
        if not system.feasible:
            out.append(ClosurePoint(n, False, None))
            continue
        min_norm: float | None = None
        if targets.entries and expansion.ncols == 1:
            dense = expansion.dense_rows(targets.indices())
            min_norm = _min_norm_one_dim(dense, system.phase[0])
        elif targets.entries and expansion.ncols >= 2:
            dense = expansion.dense_rows(targets.indices())
            min_norm = _min_norm_bounded(dense, system.phase)
        elif not targets.entries:
            min_norm = 0.0
        out.append(ClosurePoint(n, True, min_norm))
    return out
