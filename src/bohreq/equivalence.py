"""Equivalence of series sharing an exponent sequence.

Two series with coefficients a(n), b(n) over the same exponents are equivalent
when b(n) = a(n) exp(i (R Y)_n) for one real phase vector Y over the basis.
Deciding this for a finite truncation is a simultaneous congruence problem
R Y = theta (mod 2pi): it is feasible exactly when every integer relation m
among the rows of R annihilates the targets, m . theta = 0 (mod 2pi), and a
witness relation that fails certifies non-equivalence.

When the relations pass, a solution is built on pivot rows, the earliest
independent constrained rows.  Phases on the pivots are theta_P + 2pi w, and
only rows whose expression over the pivots is non-integral constrain the
integer vector w, through a small congruence system solved exactly; its
solutions are w + L for an integer lattice L.  This exact lift gives the phase
vector (rounded to doubles, its own residual checked) and the closure scan's
minimum phase norm (an exact search over L).  Feasible verdicts come with an
explicit Y within tolerance, infeasible ones with an exact witness.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .basis import Basis, BohrMatrix, compute_basis, expand_over_pivots
from .core import SeriesSpec
from .errors import (
    BadRange,
    DimensionMismatch,
    ModulusMismatch,
    PrecisionLimit,
    SupportMismatch,
)
from .lattice import (
    integer_left_kernel,
    lll_reduce,
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
    exactly (rational arithmetic).  Feasible verdicts carry `phase`, the
    exact pivot lift of the solution rounded to doubles, and `residual`, the
    worst target miss of that rounded vector, at most `tol` (a lift too large
    for doubles to carry within `tol` raises PrecisionLimit instead).
    Infeasible ones carry an integer witness, one of the kernel vectors,
    whose target defect exceeds `tol` times its l1 norm.
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


def _check_tol(tol: float) -> None:
    # written so that a NaN tol fails too
    if not 0 < tol < math.inf:
        raise BadRange(f"need a finite tol > 0, got {tol}")


def extract_phase_targets(a: SeriesSpec, b: SeriesSpec, tol: float = 1e-9) -> PhaseTargets:
    """Phase targets theta(n) making b a twist of a, or a proof none exist.

    Both specs must carry the identical exponent list (align first by taking
    the union of exponent sets with zero coefficients where a series is
    missing a term).  Raises ModulusMismatch or SupportMismatch, with 1-based
    term positions, when the series cannot be equivalent at all, and BadRange
    unless 0 < tol < inf.
    """
    _check_tol(tol)
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
) -> tuple[list[dict[int, Fraction]], list[int], list[dict[int, Fraction]]]:
    """The selected rows, their pivots and every row's expression R' over them.

    Rows already in pivot form, each either the next unit row e_k or supported
    on the columns of the k pivots before it (the rows `compute_basis` gives
    for an unskipped prefix), are their own expression over the unit rows, so
    they are returned as R' unchanged.  Any other selection is expanded.
    """
    if any(not 0 <= i < expansion.nrows for i in idx):
        raise DimensionMismatch(f"row selection outside 0..{expansion.nrows - 1}")
    rows = [dict(expansion.row_items(i)) for i in idx]
    pivots: list[int] = []
    for n, row in enumerate(rows):
        k = len(pivots)
        if row == {k: 1}:
            pivots.append(n)
        elif row and max(row) >= k:
            return (rows, *expand_over_pivots(rows))
    return rows, pivots, rows


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
    _, pivots, expr = _expand_rows(expansion, idx)
    return [_dense(g, len(idx)) for g in _relations(pivots, expr, _wrapped_rows(expr))]


def _pivot_lift(
    expr: list[dict[int, Fraction]], wrapped: list[int], thetas: list[float], pivots: list[int]
) -> tuple[list[int], list[list[int]] | None]:
    """Integer w with R'_n . w = c_n (mod 1) on every constrained row, and the lattice L.

    `expr[n]` is row n over the pivots (R'_n) and c_n = (theta_n - R'_n .
    theta_P) / 2pi.  Rows with integral R'_n hold for every w (the kernel check
    made c_n an integer), so only the others enter, each scaled by the lcm d_n
    of its own denominators: d_n R'_n . w + d_n u_n = round(d_n c_n).  L, the
    z with R'_n . z integral on every row, has the kernel of that system cut
    to its first r coordinates as basis; the one diagonalization that solves
    the system gives it.  w comes size-reduced modulo L.  With no wrapped row
    every w works, and L = Z^r is returned as None.
    """
    r = len(pivots)
    if not wrapped:
        return [0] * r, None
    theta_p = [thetas[p] for p in pivots]
    m = len(wrapped)
    system: list[list[int]] = []
    rhs: list[int] = []
    for i, n in enumerate(wrapped):
        d = math.lcm(*(q.denominator for q in expr[n].values()))
        scaled = [0] * r
        for j, q in expr[n].items():
            scaled[j] = int(q * d)
        system.append(scaled + [d if t == i else 0 for t in range(m)])
        terms = [d * thetas[n]] + [-c * th for c, th in zip(scaled, theta_p) if c]
        rhs.append(round(math.fsum(terms) / TWO_PI))
    solution, kernel = solve_integer_rows(system, rhs)
    if solution is None:
        raise PrecisionLimit(
            "integer lifts are inconsistent: the system sits beyond what "
            "double-precision targets can certify"
        )
    lattice = [v[:r] for v in kernel]
    return size_reduce(solution[:r], lattice), lattice


class _Lift(NamedTuple):
    """The exact lift R_P Y = theta_P + 2pi (w + z), z in L (`lattice`, None for Z^r).

    `rows` are the constrained rows of R and `pivots` the positions of R_P
    among them; `units[p]` is j when pivot row p is the unit row e_j, else None.
    """

    rows: list[dict[int, Fraction]]
    pivots: list[int]
    units: list[int | None]
    theta: list[float]
    w: list[int]
    lattice: list[list[int]] | None


def _phases(lift: _Lift, k: int) -> tuple[float, ...]:
    """The lift's phase vector in doubles: R_P Y = theta_P + 2pi w, free directions 0.

    A column whose pivot row is the unit row e_j reads Y_j = phi_p; every other
    e_j is expanded once over the pivot rows and the unit vectors independent
    of them (the free directions, where Y is 0), giving Y_j = sum_p c_p phi_p.
    """
    y = [0.0] * k
    for j, theta, wp in zip(lift.units, lift.theta, lift.w):
        if j is not None:
            y[j] = theta + TWO_PI * wp
    cols = sorted(set(range(k)).difference(lift.units))
    if cols:
        r = len(lift.pivots)
        pivot_rows = [lift.rows[p] for p in lift.pivots]
        _, expr = expand_over_pivots(pivot_rows + [{j: Fraction(1)} for j in cols])
        for j, row in zip(cols, expr[r:]):
            coeffs = [(p, c) for p, c in row.items() if p < r]
            turns = sum(c * lift.w[p] for p, c in coeffs)
            y[j] = math.fsum(float(c) * lift.theta[p] for p, c in coeffs) + TWO_PI * float(turns)
    return tuple(y)


def _decide(
    expansion: BohrMatrix, targets: PhaseTargets, tol: float = 1e-9, certify: bool = False
) -> tuple[tuple[tuple[int, ...], ...], _Lift | tuple[tuple[int, ...], float]]:
    """The kernel, and the exact lift if every relation passes, else a witness and its defect.

    `certify` checks the lift itself, for callers that do not round it: R_n Y
    = R'_n . theta_P + 2pi R'_n . w, with R'_n . w reduced modulo 1 exactly in
    integers, so a lift of any size is checked.  A miss over tol, or an
    inconsistent integer lift, raises PrecisionLimit.
    """
    idx = targets.indices()
    thetas = targets.thetas()
    rows, pivots, expr = _expand_rows(expansion, idx)
    wrapped = _wrapped_rows(expr)
    relations = _relations(pivots, expr, wrapped)
    kernel = tuple(_dense(g, len(idx)) for g in relations)
    for g, m in zip(relations, kernel):
        defect = circle_distance(math.fsum(c * thetas[i] for i, c in g.items()))
        if defect > tol * sum(abs(c) for c in g.values()):
            return kernel, (m, defect)

    w, lattice = _pivot_lift(expr, wrapped, thetas, pivots)
    theta_p = [thetas[p] for p in pivots]
    if certify:  # R'_n . w modulo 1, entry by entry in integers: (a w_j mod b) / b
        for row, th in zip(expr, thetas):
            turns = math.fsum(q.numerator * w[j] % q.denominator / q.denominator
                              for j, q in row.items())
            angle = math.fsum(float(q) * theta_p[j] for j, q in row.items()) + TWO_PI * turns
            if (miss := circle_distance(angle - th)) > tol:
                raise PrecisionLimit(
                    f"congruence solution lost precision: residual {miss:.3e} > tol {tol:.3e}"
                )
    units = [next(iter(rows[p])) if list(rows[p].values()) == [1] else None for p in pivots]
    return kernel, _Lift(rows, pivots, units, theta_p, w, lattice)


def solve_phase_system(
    expansion: BohrMatrix, targets: PhaseTargets, tol: float = 1e-9
) -> CongruenceSystem:
    """Decide R Y = theta (mod 2pi) on the constrained rows.

    Feasible exactly when every integer relation among the rows (see
    `integer_kernel`) annihilates theta modulo 2pi within tol times its l1
    norm; the first that fails is the witness.  Otherwise each row is R'_n
    R_P over the pivots P, and phi = theta_P + 2pi w solves every row when the
    integer vector w solves R'_n . w = c_n (mod 1) (see `_pivot_lift`).
    `phase` is the lift Y (R_P Y = phi, 0 in the directions R_P leaves free)
    rounded to doubles, and `residual` the worst miss of that rounded vector.
    Raises PrecisionLimit when the integer lift is inconsistent or the rounded
    phase misses a target by more than tol (Bohr's series from N = 9), and
    BadRange unless 0 < tol < inf.
    """
    _check_tol(tol)
    kernel, outcome = _decide(expansion, targets, tol)
    common = dict(row_indices=tuple(targets.indices()), targets=targets, kernel=kernel, tol=tol)
    if not isinstance(outcome, _Lift):
        witness, defect = outcome
        return CongruenceSystem(feasible=False, witness=witness, defect=defect, **common)
    phase = _phases(outcome, expansion.ncols)
    misses = (math.fsum(float(q) * phase[j] for j, q in row.items()) - th
              for row, th in zip(outcome.rows, targets.thetas()))
    residual = max(map(circle_distance, misses), default=0.0)
    if residual > tol:
        raise PrecisionLimit(
            f"phase vector lost precision in doubles: residual {residual:.3e} > tol {tol:.3e}"
        )
    return CongruenceSystem(feasible=True, phase=phase, residual=residual, **common)


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


def _min_norm(lift: _Lift) -> float:
    """Minimum |Y| over every solution: min over z in L of |R_P^+ (theta_P + 2pi (w + z))|.

    Unit pivot rows with L = Z^r (every ordinary series) separate: each pivot
    phase wraps to its principal angle.  Otherwise |R_P^+ phi|^2 = phi^T G phi
    with G = (R_P R_P^T)^-1, the identity for unit pivot rows.  With s =
    theta_P / 2pi + w this is 4pi^2 |s + z|_G^2, minimised exactly over the
    LLL-reduced basis of L by Fincke-Pohst enumeration in rationals, each
    level's candidates nearest first (Schnorr-Euchner), pruned at the best
    norm found.
    """
    if lift.lattice is None and None not in lift.units:
        return math.sqrt(math.fsum(principal_angle(theta) ** 2 for theta in lift.theta))
    r = len(lift.w)
    gens = lll_reduce(lift.lattice) if lift.lattice else [_dense({i: 1}, r) for i in range(r)]
    gram = [{i: Fraction(1)} for i in range(r)]
    if None in lift.units:
        # G's rows are the expressions of the unit vectors over the rows of R_P R_P^T.
        rp = [lift.rows[p] for p in lift.pivots]
        dots = [{i: sum(q * b.get(j, 0) for j, q in a.items()) for i, b in enumerate(rp)}
                for a in rp]
        gram = expand_over_pivots([{i: x for i, x in d.items() if x} for d in dots] + gram)[1][r:]

    def inner(u, v):
        return sum(u[i] * g * v[p] for i in range(r) if u[i] for p, g in gram[i].items())

    s = [Fraction(theta / TWO_PI) + wp for theta, wp in zip(lift.theta, lift.w)]
    # Gram-Schmidt data in the metric G: g_i = g*_i + sum_{l<i} mu[i][l] g*_l,
    # |g*_l|^2 = norms[l], and s = sum_l sigma[l] g*_l (L has full rank r).
    mu = [[0] * r for _ in range(r)]
    norms: list[Fraction] = []
    sigma: list[Fraction] = []
    for i in range(r):
        for j in range(i):
            dot = inner(gens[i], gens[j])
            mu[i][j] = (dot - sum(mu[j][l] * mu[i][l] * norms[l] for l in range(j))) / norms[j]
        norms.append(inner(gens[i], gens[i]) - sum(mu[i][l] ** 2 * norms[l] for l in range(i)))
        dot = inner(s, gens[i])
        sigma.append((dot - sum(mu[i][l] * sigma[l] * norms[l] for l in range(i))) / norms[i])
    # |s + sum_i x_i g_i|^2 = sum_l norms[l] (sigma[l] + x_l + sum_{i>l} mu[i][l] x_i)^2
    x = [0] * r
    best: Fraction | None = None

    def search(level: int, partial: Fraction) -> None:
        nonlocal best
        if level < 0:
            best = partial
            return
        center = -(sigma[level] + sum(mu[i][level] * x[i] for i in range(level + 1, r)))
        near = round(center)
        step = 1 if center >= near else -1
        for offset in itertools.count():
            for cand in (near,) if offset == 0 else (near + step * offset, near - step * offset):
                gap = cand - center
                cost = partial + norms[level] * gap * gap
                if best is not None and cost >= best:
                    return
                x[level] = cand
                search(level - 1, cost)

    search(r - 1, Fraction(0))
    return TWO_PI * math.sqrt(best)


def closure_demo(a: SeriesSpec, b: SeriesSpec, n_max: int) -> list[ClosurePoint]:
    """Per-truncation feasibility scan of the first-N phase systems.

    For each N <= n_max the first N terms are aligned and the congruence
    system is decided on the first N rows of one R, computed once for the
    first n_max terms: earliest-first pivoting makes a prefix's basis and R
    the prefix of the full ones, and rows below N use only the columns of
    sources below N.  A feasible N reports the minimum |Y| over all its
    solutions, for a basis of any rank, from the exact pivot lift (checked
    exactly, never rounded to a phase vector; see `_min_norm`).
    Feasibility at every N with min norms diverging is the finite signature
    of a series lying in the closure of an equivalence class without
    belonging to it.
    """
    if not 1 <= n_max <= min(len(a.terms), len(b.terms)):
        raise DimensionMismatch(
            f"n_max {n_max} outside 1..{min(len(a.terms), len(b.terms))}"
        )
    _, expansion, _ = compute_basis([t.exponent for t in a.terms[:n_max]])
    out: list[ClosurePoint] = []
    for n in range(1, n_max + 1):
        try:
            targets = extract_phase_targets(a.take_terms(n), b.take_terms(n))
        except (ModulusMismatch, SupportMismatch):
            out.append(ClosurePoint(n, False, None))
            continue
        _, outcome = _decide(expansion, targets, certify=True)
        feasible = isinstance(outcome, _Lift)
        out.append(ClosurePoint(n, feasible, _min_norm(outcome) if feasible else None))
    return out
