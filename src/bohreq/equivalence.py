"""Equivalence of series sharing an exponent sequence.

Two series with coefficients a(n), b(n) over the same exponents are equivalent
when b(n) = a(n) exp(i (R Y)_n) for one real phase vector Y over the basis.
Deciding this for a finite truncation is a simultaneous congruence problem
R Y = theta (mod 2pi): it is feasible exactly when every integer relation m
among the rows of R annihilates the targets, m . theta = 0 (mod 2pi), and a
witness relation that fails certifies non-equivalence.

A solution is built on pivot rows, the earliest independent constrained
rows.  Phases on the pivots are theta_P + 2pi w, and only rows whose
expression over the pivots is non-integral constrain the integer vector w,
each through one congruence; folding them in row by row gives the exact
coset w + L of solutions, an integer lattice L, after every row, and checks
each row against the coset as it joins.  This fold decides: a relation's
defect is the sum of its rows' misses, so rows met within tol make every
relation hold within tol times its l1 norm.  The relations are built only
when a row fails, to name the first that fails as the witness; if none
fails, the miss raises PrecisionLimit, which names the largest l1 norm when
it makes a relation's bound tol |g|_1 reach pi: any targets pass such a
bound, so it tests nothing.  One borderline remains: a relation that passes
or fails its bound only through the rounding of `math.fsum`.
The exact lift gives the phase vector (rounded to doubles, its own residual
checked) and, read after each row, the closure scan's minimum phase norms
(an exact search over L).

Equivalence meets vertical shifts through Kronecker's theorem: a shift by t
twists the basis phases by -t beta, and `kronecker_find_t` finds a t that
realises given phases, a closest-vector search that shares the closure
minimum's enumerator (`lattice.enumerate_near`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from .basis import Basis, BohrMatrix, compute_basis, expand_over_pivots
from .core import SeriesSpec, fsum_or_inf
from .errors import (
    BadRange,
    DimensionMismatch,
    ModulusMismatch,
    PrecisionLimit,
    SupportMismatch,
    check_integral,
    check_tol,
)
from .lattice import (
    clear_denominators,
    enumerate_near,
    gram_schmidt,
    hermite_normalize,
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
    Indices are 0-based.  A target that is not finite raises BadRange.
    """

    entries: tuple[tuple[int, float], ...]
    skipped: tuple[int, ...] = ()

    def __post_init__(self):
        for i, theta in self.entries:
            if not math.isfinite(theta):
                raise BadRange(f"need finite phase targets, got {theta} at term {i + 1}")

    def indices(self) -> list[int]:
        return [i for i, _ in self.entries]

    def thetas(self) -> list[float]:
        return [th for _, th in self.entries]


@dataclass(frozen=True)
class CongruenceSystem:
    """Verdict on the truncated system R Y = theta (mod 2pi).

    Feasible verdicts carry `phase`, the exact pivot lift of the solution
    rounded to doubles, and `residual`, the worst target miss of that rounded
    vector, at most `tol` (a lift too large for doubles to carry within `tol`
    raises PrecisionLimit instead).  Infeasible ones carry an integer
    witness, one of the vectors `integer_kernel(expansion, row_indices)`
    gives, whose target defect exceeds `tol` times its l1 norm.
    """

    row_indices: tuple[int, ...]
    targets: PhaseTargets
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
            if not self.residual <= self.tol:  # NaN too
                raise ValueError(
                    f"feasible verdict with residual {self.residual:.3e} > tol {self.tol:.3e}"
                )
        else:
            if self.witness is None or self.defect is None:
                raise ValueError("infeasible verdict requires a witness and defect")
            scale = sum(abs(m) for m in self.witness)
            if not self.defect > self.tol * scale:
                raise ValueError(
                    f"witness defect {self.defect:.3e} does not exceed tolerance"
                )


def twist(
    spec: SeriesSpec, basis: Basis, expansion: BohrMatrix, phases: PhaseVector
) -> SeriesSpec:
    """Multiply coefficient n by exp(i (R Y)_n); exponents are untouched.

    BadRange when a phase is not finite, PrecisionLimit when a coefficient's
    phase (R Y)_n is not a finite double.
    """
    if expansion.nrows != len(spec.terms):
        raise DimensionMismatch(
            f"matrix has {expansion.nrows} rows for {len(spec.terms)} terms"
        )
    if len(basis) != expansion.ncols or len(phases) != expansion.ncols:
        raise DimensionMismatch(
            f"basis size {len(basis)}, matrix columns {expansion.ncols}, "
            f"phase length {len(phases)} must agree"
        )
    if not all(math.isfinite(y) for y in phases):
        raise BadRange(f"need finite phases, got {list(phases)}")
    coeffs = []
    for i, term in enumerate(spec.terms):
        phi = fsum_or_inf(float(q) * phases[j] for j, q in expansion.row_items(i))
        if not math.isfinite(phi):
            raise PrecisionLimit(f"the phase of term {i + 1} is not a finite double")
        coeffs.append(term.coeff * cmath.exp(1j * phi))
    return spec.with_coeffs(coeffs)


def extract_phase_targets(a: SeriesSpec, b: SeriesSpec, tol: float = 1e-9) -> PhaseTargets:
    """Phase targets theta(n) making b a twist of a, or a proof none exist.

    Both specs must carry the identical exponent list, the same vectors with
    the same values, or DimensionMismatch names the first term that differs
    (align first by taking the union of exponent sets with zero coefficients
    where a series is missing a term).  Raises ModulusMismatch or
    SupportMismatch, with 1-based term positions, when the series cannot be
    equivalent at all, BadRange unless 0 < tol < inf or a coefficient is not
    finite, and PrecisionLimit when a finite coefficient's modulus is beyond
    a double.  Every target is finite: where the quotient b(n)/a(n) over- or
    underflows, theta(n) is the difference of the two arguments.
    """
    check_tol(tol)
    if len(a.terms) != len(b.terms):
        raise DimensionMismatch(
            f"term counts differ: {len(a.terms)} vs {len(b.terms)}"
        )
    for i, (ta, tb) in enumerate(zip(a.terms, b.terms)):
        if ta.exponent != tb.exponent:
            raise DimensionMismatch(f"exponent vectors differ at term {i + 1}")
    if a.symbols != b.symbols:  # equal tables give equal values, others may too
        for i, (la, lb) in enumerate(zip(a.numeric_exponents(), b.numeric_exponents())):
            if la != lb:
                raise DimensionMismatch(
                    f"exponent values differ at term {i + 1}: {la!r} vs {lb!r}"
                )
    entries: list[tuple[int, float]] = []
    skipped: list[int] = []
    for i, (ta, tb) in enumerate(zip(a.terms, b.terms)):
        if not (cmath.isfinite(ta.coeff) and cmath.isfinite(tb.coeff)):
            raise BadRange(
                f"need finite coefficients at term {i + 1}, got {ta.coeff} and {tb.coeff}"
            )
        try:
            ma, mb = abs(ta.coeff), abs(tb.coeff)
        except OverflowError:  # both parts finite, a modulus not
            raise PrecisionLimit(
                f"the coefficient moduli at term {i + 1}, |{ta.coeff}| and |{tb.coeff}|, "
                "are not both finite doubles"
            ) from None
        if ma == 0.0:
            if mb == 0.0:
                skipped.append(i)
                continue
            raise SupportMismatch(i + 1)
        if abs(ma - mb) > tol * max(1.0, ma):
            raise ModulusMismatch(i + 1, ta.coeff, tb.coeff)
        q = tb.coeff / ta.coeff
        if cmath.isfinite(q) and (q or not tb.coeff):
            theta = cmath.phase(q)
        else:  # the division over- or underflowed: NaN, inf, or 0 for a nonzero b(n)
            theta = cmath.phase(tb.coeff) - cmath.phase(ta.coeff)
        entries.append((i, theta % TWO_PI))
    return PhaseTargets(tuple(entries), tuple(skipped))


def _expand_rows(
    expansion: BohrMatrix, idx: Sequence[int]
) -> tuple[list[dict[int, int | Fraction]], list[int], list[dict[int, int | Fraction]]]:
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


def _wrapped_rows(expr: list[dict[int, int | Fraction]]) -> list[int]:
    """Positions of the rows whose expression over the pivots is non-integral."""
    return [n for n, row in enumerate(expr) if any(q.denominator != 1 for q in row.values())]


def _relations(
    pivots: list[int], expr: list[dict[int, int | Fraction]], wrapped: list[int]
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
        dense = [[expr[n].get(j, 0) for j in range(r)] for n in block]
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


def _reduce(w: list[int], lattice: list[list[int]]) -> list[int]:
    """w modulo a full-rank lattice in Hermite form H: the representative with 0 <= w_i < H_ii."""
    for i, h in enumerate(lattice):
        q = w[i] // h[i]
        if q:
            w = [a - q * b for a, b in zip(w, h)]
    return w


def _combine(x: Sequence[int], rows: list[list[int]]) -> list[int]:
    """sum_t x_t rows[t] over the rows given (entries of x past them ignored)."""
    out = [0] * len(rows[0])
    for xt, row in zip(x, rows):
        if xt:
            out = [o + xt * v for o, v in zip(out, row)]
    return out


def _pivot_lift(
    expr: list[dict[int, int | Fraction]],
    pivots: list[int],
    wrapped: list[int],
    entries: Sequence[tuple[int, float]],
    tol: float,
) -> Iterator[tuple[list[int], list[list[int]] | None]]:
    """The coset w + L of integer w with R'_n . w = c_n (mod 1), after each constrained row.

    `expr[n]` is row n over the pivots (R'_n), `entries[n]` its (term index,
    theta_n) and c_n = (theta_n - R'_n . theta_P) / 2pi.  One fold over the
    rows in order, earliest-first pivoting making each prefix's pivots and R'
    rows a prefix of these:
    - a pivot row appends a 0 to w and a unit vector to L;
    - a row with integral R'_n holds for every w (its relation makes c_n an
      integer) and changes nothing;
    - a wrapped row, scaled by the lcm d_n of its own denominators, adds
      d_n R'_n . z = round(d_n c_n) (mod d_n).  On z = w + x H, H the Hermite
      form of L, that is one congruence in x, solved together with the lattice
      K of its homogeneous solutions by one diagonalization of a 1 x (r + 1)
      system.  L becomes K H, in Hermite form, and w is reduced modulo it, so
      a prefix's coset has one representation however it was reached.
    L = Z^r is given as None.  Every yield is a fresh pair.

    Each row is checked as it joins, its miss being the same on every later
    coset: R_n Y = R'_n . theta_P + 2pi R'_n . w, with R'_n . w reduced
    modulo 1 exactly in integers, so a lift of any size is checked without
    rounding it.  A congruence with no solution on the coset, or a row missed
    by more than tol, raises PrecisionLimit, which the callers let stand
    (through `_unresolved`) only when every relation holds within tol times
    its l1 norm.
    """
    theta_p: list[float] = []
    w: list[int] = []
    lattice: list[list[int]] | None = None
    pivot_rows, wrapped_rows = set(pivots), set(wrapped)
    for n, (row, (term, theta)) in enumerate(zip(expr, entries)):
        if n in pivot_rows:
            theta_p.append(theta)
            if lattice is not None:
                lattice = [[*h, 0] for h in lattice] + [[0] * len(w) + [1]]
            w = [*w, 0]
        elif n in wrapped_rows:
            d = math.lcm(*(q.denominator for q in row.values()))
            scaled = {j: q.numerator * (d // q.denominator) for j, q in row.items()}
            try:
                wraps = round(math.fsum([d * theta] + [-c * theta_p[j] for j, c in scaled.items()])
                              / TWO_PI)
            except (OverflowError, ValueError):  # a product, their sum or its wraps beyond a double
                raise PrecisionLimit(
                    f"the target of term {term + 1}, scaled by the {d.bit_length()}-bit lcm of "
                    "its row's denominators, is beyond a double"
                ) from None
            rhs = wraps - sum(c * w[j] for j, c in scaled.items())
            r = len(w)
            basis = lattice or [[int(i == j) for j in range(r)] for i in range(r)]
            h = [sum(c * b[j] for j, c in scaled.items()) % d for b in basis]
            if not any(h):  # the row's left side vanishes on L: the coset stays, or none is left
                solvable = rhs % d == 0
            else:
                x, kernel = solve_integer_rows([h + [d]], [rhs % d])
                if solvable := x is not None:
                    lattice = hermite_normalize([_combine(k, basis) for k in kernel])
                    w = _reduce([a + b for a, b in zip(w, _combine(x, basis))], lattice)
            if not solvable:
                raise PrecisionLimit(
                    "integer lifts are inconsistent: the system sits beyond what "
                    "double-precision targets can certify"
                )
        # R'_n . w modulo 1, entry by entry in integers: (a w_j mod b) / b
        turns = math.fsum(q.numerator * w[j] % q.denominator / q.denominator
                          for j, q in row.items())
        angle = math.fsum(float(q) * theta_p[j] for j, q in row.items()) + TWO_PI * turns
        if not (miss := circle_distance(angle - theta)) <= tol:
            raise PrecisionLimit(
                f"the exact pivot lift misses the target of term {term + 1} by {miss:.3e} > "
                f"tol {tol:.3e}"
            )
        yield w, lattice


class _Lift(NamedTuple):
    """The exact lift R_P Y = theta_P + 2pi (w + z), z in L (`lattice`, None for Z^r).

    `rows` are the constrained rows of R, `expr` their expressions R' over the
    pivot rows and `pivots` the positions of R_P among them; `units[p]` is j
    when pivot row p is the unit row e_j, else None.  `w` and `lattice` are
    the coset `_pivot_lift` folds to: L in Hermite form, w reduced modulo it.
    """

    rows: list[dict[int, int | Fraction]]
    expr: list[dict[int, int | Fraction]]
    pivots: list[int]
    units: list[int | None]
    theta: list[float]
    w: list[int]
    lattice: list[list[int]] | None


def _units(rows: list[dict[int, int | Fraction]], pivots: list[int]) -> list[int | None]:
    """j for each pivot row that is the unit row e_j, else None."""
    return [next(iter(rows[p])) if list(rows[p].values()) == [1] else None for p in pivots]


def _phases(lift: _Lift, k: int) -> tuple[float, ...]:
    """The lift's phase vector in doubles: R_P Y = theta_P + 2pi w, free directions 0.

    w is first shrunk modulo L by Babai against L's LLL-reduced basis.  A
    column whose pivot row is the unit row e_j reads Y_j = phi_p; every other
    e_j is expanded once over the pivot rows and the unit vectors independent
    of them (the free directions, where Y is 0), giving Y_j = sum_p c_p phi_p.
    An entry beyond a double raises PrecisionLimit.
    """
    w = lift.w if lift.lattice is None else size_reduce(lift.w, lll_reduce(lift.lattice))
    y = [0.0] * k
    for j, theta, wp in zip(lift.units, lift.theta, w):
        if j is not None:
            y[j] = _turned(j, theta, wp)
    cols = sorted(set(range(k)).difference(lift.units))
    if cols:
        r = len(lift.pivots)
        pivot_rows = [lift.rows[p] for p in lift.pivots]
        _, expr = expand_over_pivots(pivot_rows + [{j: 1} for j in cols])
        for j, row in zip(cols, expr[r:]):
            coeffs = [(p, c) for p, c in row.items() if p < r]
            turns = sum(c * w[p] for p, c in coeffs)
            y[j] = _turned(j, math.fsum(float(c) * lift.theta[p] for p, c in coeffs), turns)
    return tuple(y)


def _turned(j: int, angle: float, turns: int | Fraction) -> float:
    """Entry j of a phase vector, angle + 2pi turns; PrecisionLimit when beyond a double."""
    try:
        y = angle + TWO_PI * turns
    except OverflowError:  # turns beyond a double
        y = math.inf
    if not math.isfinite(y):
        raise PrecisionLimit(
            f"phase vector lost precision in doubles: entry {j + 1} of the exact lift "
            "is beyond a double"
        )
    return y


def _witness(
    relations: list[dict[int, int]], targets: PhaseTargets, tol: float
) -> tuple[dict[int, int], float] | None:
    """The first relation whose target defect exceeds tol times its l1 norm, and that defect.

    PrecisionLimit, naming the term of the largest coefficient, when a
    defect is beyond a double.
    """
    thetas = targets.thetas()
    for g in relations:
        defect = circle_distance(fsum_or_inf(c * thetas[i] for i, c in g.items()))
        if math.isnan(defect):  # a product c theta, or their sum, beyond a double
            i = max(g, key=lambda i: abs(g[i]))
            raise PrecisionLimit(
                f"the target defect of a relation is beyond a double: its coefficient "
                f"on term {targets.entries[i][0] + 1} has {abs(g[i]).bit_length()} bits"
            )
        if not defect <= tol * sum(abs(c) for c in g.values()):
            return g, defect
    return None


def _unresolved(
    err: PrecisionLimit, relations: list[dict[int, int]], tol: float
) -> PrecisionLimit:
    """The fold's PrecisionLimit `err` for a system none of whose relations
    fails, saying what the relations showed.  A relation whose bound
    tol |g|_1 reaches pi passes for any targets, so when the largest l1 norm
    makes it so, the bound could not test that relation, and the error says
    so, naming that norm; otherwise every relation holds."""
    heaviest = max((sum(map(abs, g.values())) for g in relations), default=0)
    if tol * heaviest >= math.pi:
        return PrecisionLimit(
            f"a relation could not be tested: at the largest l1 norm {heaviest}, "
            f"its bound tol |g|_1 reaches pi, which any targets meet; {err}"
        )
    return PrecisionLimit(f"every integer relation holds within tol times its l1 norm, but {err}")


def _decide(
    expansion: BohrMatrix, targets: PhaseTargets, tol: float = 1e-9
) -> _Lift | tuple[tuple[int, ...], float]:
    """The exact lift if the checked fold meets every row, else a witness and its defect.

    The lift is the coset that `_pivot_lift` folds to over every constrained
    row.  The relations are built (`_relations`) only when the fold raises,
    to name the first whose defect exceeds tol times its l1 norm, written out
    densely over the constrained rows; when none does, the PrecisionLimit
    stands, saying whether a relation's bound was too wide to test it.
    """
    thetas = targets.thetas()
    rows, pivots, expr = _expand_rows(expansion, targets.indices())
    wrapped = _wrapped_rows(expr)
    w, lattice = [], None
    try:
        for w, lattice in _pivot_lift(expr, pivots, wrapped, targets.entries, tol):
            pass
    except PrecisionLimit as err:
        relations = _relations(pivots, expr, wrapped)
        if not (failed := _witness(relations, targets, tol)):
            raise _unresolved(err, relations, tol) from None
        g, defect = failed
        return _dense(g, len(rows)), defect
    return _Lift(rows, expr, pivots, _units(rows, pivots), [thetas[p] for p in pivots], w, lattice)


def solve_phase_system(
    expansion: BohrMatrix, targets: PhaseTargets, tol: float = 1e-9
) -> CongruenceSystem:
    """Decide R Y = theta (mod 2pi) on the constrained rows.

    Feasible exactly when every integer relation among the rows (see
    `integer_kernel`) annihilates theta modulo 2pi within tol times its l1
    norm; the first that fails is the witness.  Each row is R'_n R_P over the
    pivots P, and phi = theta_P + 2pi w solves every row when the integer
    vector w solves R'_n . w = c_n (mod 1).  The fold of `_pivot_lift`
    decides, checking each row exactly as it joins; the relations are built
    only when a row fails, to name the witness.  `phase` is the lift Y
    (R_P Y = phi, 0 in the directions R_P leaves free) rounded to doubles,
    and `residual` the worst miss of that rounded vector.  Raises
    PrecisionLimit when the integer lift is inconsistent, or when the exact
    lift misses a target by more than tol although every relation holds
    within tol times its l1 norm (their misses add up past tol); and "phase
    vector lost precision" only when the rounded phase misses (Bohr's series
    from N = 9).  BadRange unless 0 < tol < inf.  Of the relations, only the
    witness is kept.
    """
    check_tol(tol)
    outcome = _decide(expansion, targets, tol)
    common = dict(row_indices=tuple(targets.indices()), targets=targets, tol=tol)
    if not isinstance(outcome, _Lift):
        witness, defect = outcome
        return CongruenceSystem(feasible=False, witness=witness, defect=defect, **common)
    phase = _phases(outcome, expansion.ncols)
    misses = [circle_distance(fsum_or_inf(float(q) * phase[j] for j, q in row.items()) - th)
              for row, th in zip(outcome.rows, targets.thetas())]
    # a NaN miss, from a phase beyond a double, is a miss that max would drop
    residual = math.inf if any(map(math.isnan, misses)) else max(misses, default=0.0)
    if not residual <= tol:
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
    LLL-reduced Hermite form of L (reduced once per call) by
    `lattice.enumerate_near`, its bound shrunk to each point it visits.  The
    search is integral: G is scaled by the lcm of its denominators and s by
    its common denominator (`lattice.clear_denominators`), and the minimum is
    divided back by the scale of G exactly.  The exact minimum is scaled by
    4^-e before its square root is taken in doubles, so a minimum beyond a
    double still gives its norm (bit for bit the unscaled one where that is
    finite); math.inf when the norm itself is beyond a double.
    """
    if lift.lattice is None and None not in lift.units:
        return math.sqrt(math.fsum(principal_angle(theta) ** 2 for theta in lift.theta))
    r = len(lift.w)
    gens = lll_reduce(lift.lattice) if lift.lattice else [_dense({i: 1}, r) for i in range(r)]
    gram = [{i: 1} for i in range(r)]
    if None in lift.units:
        # G's rows are the expressions of the unit vectors over the rows of R_P R_P^T.
        rp = [lift.rows[p] for p in lift.pivots]
        dots = [{i: sum(q * b.get(j, 0) for j, q in a.items()) for i, b in enumerate(rp)}
                for a in rp]
        gram = expand_over_pivots([{i: x for i, x in d.items() if x} for d in dots] + gram)[1][r:]

    # scale G is integral, and so is den s
    scale = math.lcm(*(Fraction(g).denominator for row in gram for g in row.values()))
    gram = [{p: int(g * scale) for p, g in row.items()} for row in gram]

    def inner(u, v):
        return sum(u[i] * g * v[p] for i in range(r) if u[i] for p, g in gram[i].items())

    s, den = clear_denominators([Fraction(theta / TWO_PI) + wp
                                 for theta, wp in zip(lift.theta, lift.w)])
    # Gram-Schmidt in the metric scale G with the target den s (L has full rank r)
    lam, d = gram_schmidt([*gens, s], inner)
    best = enumerate_near(lam, d, lam[r], den, math.inf, lambda x, length: length) / scale
    e = max(0, (best.numerator // best.denominator).bit_length() // 2 - 500)
    try:
        return math.ldexp(TWO_PI * math.sqrt(best / (1 << 2 * e)), e)
    except OverflowError:
        return math.inf


def _prefix_lifts(
    expansion: BohrMatrix, targets: PhaseTargets, tol: float = 1e-9
) -> Iterator[_Lift | None]:
    """The exact lift of each prefix of the constrained rows, None at the first infeasible one.

    The checked `_pivot_lift` fold that `_decide` runs to its end, read after
    each row.  A row with no solution on the coset, or missed by more than
    tol, makes the prefix infeasible when one of its integer relations has a
    target defect beyond tol times its l1 norm (the verdict `_decide` gives
    the prefix alone); otherwise its PrecisionLimit stands.  Nothing is
    yielded after None.
    """
    thetas = targets.thetas()
    rows, pivots, expr = _expand_rows(expansion, targets.indices())
    units, theta_p = _units(rows, pivots), [thetas[p] for p in pivots]
    wrapped = _wrapped_rows(expr)
    fold = _pivot_lift(expr, pivots, wrapped, targets.entries, tol)
    for m in range(1, len(rows) + 1):
        try:
            w, lattice = next(fold)
        except PrecisionLimit as err:
            head = [p for p in pivots if p < m]
            relations = _relations(head, expr[:m], [n for n in wrapped if n < m])
            if _witness(relations, targets, tol):
                yield None
                return
            raise _unresolved(err, relations, tol) from None
        r = len(w)
        yield _Lift(rows[:m], expr[:m], pivots[:r], units[:r], theta_p[:r], w, lattice)


def closure_demo(a: SeriesSpec, b: SeriesSpec, n_max: int) -> list[ClosurePoint]:
    """Per-truncation feasibility scan of the first-N phase systems.

    The targets of the first n_max terms are extracted once, and one R is
    computed for those terms: earliest-first pivoting makes a prefix's basis
    and R the prefix of the full ones, and rows below N use only the columns
    of sources below N.  The exact coset w + L is then carried from row to
    row (`_prefix_lifts`), so truncation N reads the coset of its constrained
    rows, never deciding its system afresh.  A feasible N reports the minimum
    |Y| over all its solutions, for a basis of any rank (see `_min_norm`),
    and PrecisionLimit, naming N, when that norm is beyond a double.  A
    modulus or support mismatch at term N makes N and every later truncation
    infeasible, and so does an infeasible N.  Feasibility at every N with
    min norms diverging is the finite signature of a series lying in the
    closure of an equivalence class without belonging to it.
    """
    check_integral(n_max, "n_max", DimensionMismatch)
    terms = min(len(a.terms), len(b.terms))
    if terms == 0:
        raise DimensionMismatch("a series has no terms, so there is no truncation to scan")
    if not 1 <= n_max <= terms:
        raise DimensionMismatch(f"n_max {n_max} outside 1..{terms}")
    _, expansion, _ = compute_basis([t.exponent for t in a.terms[:n_max]])
    try:
        targets, stop = extract_phase_targets(a.take_terms(n_max), b.take_terms(n_max)), n_max + 1
    except (ModulusMismatch, SupportMismatch) as err:
        stop = err.term
        targets = PhaseTargets(())
        if stop > 1:
            targets = extract_phase_targets(a.take_terms(stop - 1), b.take_terms(stop - 1))
    lifts = _prefix_lifts(expansion, targets)
    constrained = set(targets.indices())
    point, last = ClosurePoint(0, True, 0.0), None
    out: list[ClosurePoint] = []
    for n in range(1, n_max + 1):
        feasible, norm = point.feasible and n < stop, point.min_norm
        if feasible and n - 1 in constrained:
            lift = next(lifts)
            feasible = lift is not None
            # a row that adds no pivot and leaves w + L as it was keeps the norm
            if feasible and (last is None or (lift.w, lift.lattice) != (last.w, last.lattice)):
                norm, last = _min_norm(lift), lift
            if norm == math.inf:
                raise PrecisionLimit(
                    f"the minimum phase norm of truncation N = {n} is beyond a double"
                )
        point = ClosurePoint(n, feasible, norm if feasible else None)
        out.append(point)
    return out


#: 2pi to 100 significant digits, the modulus of the Kronecker search's exact checks.
_TWO_PI_EXACT = Fraction(
    "6.283185307179586476925286766559005768394338798750211641949889184615632812572417997256069650684234135"
)


class KroneckerResult(NamedTuple):
    found: bool
    t: float | None
    residual: float | None


def _residual(t: float, beta: Sequence[float], y: Sequence[float]) -> float:
    """Worst miss of -t beta_j against y_j modulo 2pi, in doubles."""
    return max((circle_distance(-t * b - v) for b, v in zip(beta, y)), default=0.0)


def kronecker_find_t(
    basis_values: Sequence[float],
    target: PhaseVector,
    tol: float,
    t_max_search: float,
) -> KroneckerResult:
    """A shift time t in [0, t_max_search] with |(-t beta_j - y_j) mod 2pi| <= tol for all j.

    A closest-vector problem (Lagarias 1985; Fincke and Pohst 1985), solved
    exactly.  Zero frequencies are checked alone.  The others pivot on
    the largest |beta_1|: t beta_1 = 2pi n_1 - y_1 - e_1 with |e_1| <= tol puts
    n_1 in a range N that [0, t_max_search] fixes, and every j then needs
    |n_1 alpha_j + c_j - n_j| <= tol (1 + |alpha_j|) / 2pi for an integer n_j,
    with alpha_j = beta_j / beta_1 and c_j = (y_j - alpha_j y_1) / 2pi.  That
    box in (n_1, n_2..n_k) is searched in the lattice of rows (w, alpha_2..
    alpha_k) and e_j, the weight w mapping N onto the tolerance, scaled to
    integers by a power of 2 that follows the size of N (a fixed one would
    round w to 0 at a large t_max_search), LLL-reduced, by
    `lattice.enumerate_near` over the l2 ball that holds the box and the
    rounding of the alpha_j.  LLL and the enumeration are integral (Gram
    determinants, exact divisions in Python ints), with the rational shift
    row cleared by its common denominator.  Each point's t is the
    intersection of its k intervals (2pi n_j - y_j -/+ tol) / beta_j with
    [0, t_max_search], in exact rationals; the first nonempty one gives its
    midpoint, rounded to a double and re-checked in doubles.  So "not found"
    is a proof, up to the rounding of the doubles beta, y (2pi is exact to
    100 digits), and a point that holds exactly but whose double t misses
    (t beta beyond what a double resolves to tol) raises PrecisionLimit.
    Non-finite input raises BadRange.
    """
    check_tol(tol)
    if not 0 < t_max_search < math.inf:
        raise BadRange(f"need a finite t_max_search > 0, got {t_max_search}")
    beta = [float(b) for b in basis_values]
    y = [float(v) for v in target]
    if len(beta) != len(y):
        raise BadRange("target length must match basis length")
    if not all(map(math.isfinite, beta + y)):
        raise BadRange(f"need finite frequencies and target phases, got {beta} and {y}")
    if any(b == 0.0 and circle_distance(v) > tol for b, v in zip(beta, y)):
        return KroneckerResult(False, None, None)
    moving = sorted((j for j, b in enumerate(beta) if b != 0.0), key=lambda j: -abs(beta[j]))
    if not moving:
        return KroneckerResult(True, 0.0, _residual(0.0, beta, y))
    two_pi, tol_q, t_max = _TWO_PI_EXACT, Fraction(tol), Fraction(t_max_search)
    b = [Fraction(beta[j]) for j in moving]
    c = [Fraction(y[j]) for j in moving]
    alpha = [bj / b[0] for bj in b]
    offset = [(cj - aj * c[0]) / two_pi for aj, cj in zip(alpha[1:], c[1:])]
    sweep = t_max * b[0]
    lo = math.ceil((min(sweep, 0) + c[0] - tol_q) / two_pi)
    hi = math.floor((max(sweep, 0) + c[0] + tol_q) / two_pi)
    if lo > hi:
        return KroneckerResult(False, None, None)
    # scale 2^e with the rounding of S alpha_j, at most |n_1| / 2, below 2^-10 of each box
    size = max(abs(lo), abs(hi), 1)
    scale = 1 << (math.ceil(size * 8 / tol_q).bit_length() + 10)
    half = Fraction(hi - lo, 2)
    weight = max(1, round(scale * tol_q / (two_pi * max(half, 1))))
    rounded = [round(scale * aj) for aj in alpha[1:]]
    k = len(moving)
    basis = [[weight] + rounded] + [[scale * (i == j) for i in range(k)] for j in range(1, k)]
    shift = [-weight * Fraction(lo + hi, 2)] + [scale * o for o in offset]
    bound = (weight * half) ** 2 + sum(
        (scale * tol_q * (1 + abs(aj)) / two_pi + Fraction(size, 2)) ** 2 for aj in alpha[1:]
    )
    reduced = lll_reduce(basis)
    shift, den = clear_denominators(shift)
    lam, d = gram_schmidt([*reduced, shift])
    hit: list[KroneckerResult] = []
    # interval j, (2pi n_j - y_j -/+ tol) / beta_j, is n_j period_j less its two offsets
    period = [two_pi / bj for bj in b]
    offsets = [sorted(((cj + e) / bj for e in (tol_q, -tol_q)), reverse=True)
               for bj, cj in zip(b, c)]

    def visit(x: list[int], length: Fraction) -> Fraction:
        v = [sum(xi * row[i] for xi, row in zip(x, reduced)) for i in range(k)]
        n1 = v[0] // weight
        n = [n1] + [(r * n1 - vi) // scale for r, vi in zip(rounded, v[1:])]
        # the t of every interval and [0, t_max]
        low, high = Fraction(0), t_max
        for nj, pj, (larger, smaller) in zip(n, period, offsets):
            turn = nj * pj
            low, high = max(low, turn - larger), min(high, turn - smaller)
        if low > high:
            return bound
        t = float((low + high) / 2)
        residual = _residual(t, beta, y)
        if not residual <= tol:  # NaN too, where t beta overflows
            raise PrecisionLimit(
                f"shift time {t!r} meets every target within tol {tol:.3e} in exact "
                f"arithmetic, but misses by {residual:.3e} as a double: t beta is "
                "beyond what a double t resolves to tol"
            )
        hit.append(KroneckerResult(True, t, residual))
        return -1

    enumerate_near(lam, d, lam[k], den, bound, visit)
    return hit[0] if hit else KroneckerResult(False, None, None)
