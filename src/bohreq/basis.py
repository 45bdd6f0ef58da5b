"""Rational bases of finite exponent sequences and their Bohr matrices.

For a finite exponent list Lambda the basis B is chosen by scanning Lambda in
order and keeping every exponent whose coordinate vector is rationally
independent of those already kept.  The expansion matrix R (Lambda = R B) and
the selection matrix T (B = T Lambda) are exact; R rows reconstruct the
exponents in ExponentVector arithmetic, not merely numerically.  The
elimination behind them works in integers first, `Fraction` only where a
division is inexact: ordinary series have integer coordinates and a 0/1 R on
the pivots, so they make no Fraction until R is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .core import ExponentVector, as_fraction
from .errors import EmptyInput, IndexOutOfRange


class BohrMatrix:
    """Sparse matrix with exact rational entries, one row per series term."""

    __slots__ = ("_rows", "_ncols")

    def __init__(self, rows: Iterable[Mapping[int, Fraction] | dict], ncols: int):
        ncols = int(ncols)
        if ncols < 0:
            raise ValueError("ncols must be >= 0")
        cleaned: list[dict[int, Fraction]] = []
        for row in rows:
            out: dict[int, Fraction] = {}
            for j, q in row.items():
                j = int(j)
                if not 0 <= j < ncols:
                    raise ValueError(f"column {j} outside 0..{ncols - 1}")
                q = as_fraction(q)
                if q != 0:
                    out[j] = q
            cleaned.append(out)
        self._rows = tuple(cleaned)
        self._ncols = ncols

    @property
    def nrows(self) -> int:
        return len(self._rows)

    @property
    def ncols(self) -> int:
        return self._ncols

    def entry(self, i: int, j: int) -> Fraction:
        return self._rows[i].get(j, Fraction(0))

    def row_items(self, i: int) -> tuple[tuple[int, Fraction], ...]:
        return tuple(sorted(self._rows[i].items()))

    def dense_rows(self, indices: Sequence[int] | None = None) -> list[list[Fraction]]:
        idx = range(self.nrows) if indices is None else indices
        return [
            [self._rows[i].get(j, Fraction(0)) for j in range(self._ncols)] for i in idx
        ]

    def float_rows(self, indices: Sequence[int] | None = None) -> list[list[float]]:
        return [[float(q) for q in row] for row in self.dense_rows(indices)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BohrMatrix)
            and self._ncols == other._ncols
            and self._rows == other._rows
        )

    def __repr__(self) -> str:
        return f"BohrMatrix({self.nrows}x{self._ncols})"


@dataclass(frozen=True)
class Basis:
    """Rationally independent exponents spanning a finite exponent list.

    `source_indices[j]` is the position in the input list the j-th element was
    taken from, so the selection matrix is always a 0/1 row-picker.
    """

    elements: tuple[ExponentVector, ...]
    source_indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.elements)


def _exact(q: int | Fraction) -> int | Fraction:
    """q as an int when it is whole, else the Fraction itself."""
    return q if type(q) is int or q.denominator != 1 else q.numerator


def _ratio(a: int | Fraction, b: int | Fraction) -> int | Fraction:
    """a / b exactly: an int when the division is exact, else a Fraction."""
    if type(a) is int and type(b) is int:
        quot, rem = divmod(a, b)
        return Fraction(a, b) if rem else quot
    return _exact(a / b)


def expand_over_pivots(vectors: Sequence) -> tuple[list[int], list[dict[int, Fraction]]]:
    """Earliest-first pivots of a vector list and each vector's expression over them.

    Vectors are sparse, given by `.items()` pairs (sortable coordinate key,
    nonzero rational): exponent vectors, or Bohr-matrix rows.  A vector becomes
    a pivot when it is independent of every pivot kept before it.  Returns the
    pivot positions and, for every vector, its exact coefficients over the
    pivots (a unit row for a pivot, an empty row for a zero vector), as
    Fractions.  The arithmetic is integers first, `Fraction` only where a
    division is inexact (`divmod` for int / int, a whole Fraction turned back
    into an int), so integral inputs make no Fraction until the rows are
    returned.
    """
    pivots: list[int] = []
    rows: list[dict[int, Fraction]] = []
    # Mutually reduced echelon rows over the coordinates, keyed by lead key:
    # (coordinates, expression of the row over pivot positions).  No row's
    # coordinates contain another row's lead, so reducing a vector by one row
    # neither adds a lead coordinate nor changes another lead's value: the
    # leads among the vector's own coordinates are all the rows it needs, and
    # their reductions commute.  Entries are ints where whole (see `_exact`).
    echelon: dict[object, tuple[dict, dict[int, int | Fraction]]] = {}

    for idx, vec in enumerate(vectors):
        work = {name: _exact(q) for name, q in vec.items()}
        combo: dict[int, int | Fraction] = {}
        for lead in [name for name in work if name in echelon]:
            coords, expr = echelon[lead]
            f = _ratio(work[lead], coords[lead])
            for name, q in coords.items():
                new = _exact(work.get(name, 0) - f * q)
                if new:
                    work[name] = new
                else:
                    work.pop(name, None)
            for j, q in expr.items():
                combo[j] = _exact(combo.get(j, 0) + f * q)
        if not work:
            rows.append({j: Fraction(q) for j, q in combo.items() if q})
            continue
        k = len(pivots)
        pivots.append(idx)
        rows.append({k: Fraction(1)})
        expr = {k: 1}
        for j, q in combo.items():
            if q:
                expr[j] = -q
        lead = min(work)
        for coords, other_expr in echelon.values():
            c = coords.get(lead)
            if c:
                f = _ratio(c, work[lead])
                for name, q in work.items():
                    new = _exact(coords.get(name, 0) - f * q)
                    if new:
                        coords[name] = new
                    else:
                        coords.pop(name, None)
                for j, q in expr.items():
                    other_expr[j] = _exact(other_expr.get(j, 0) - f * q)
        echelon[lead] = (work, expr)
    return pivots, rows


def compute_basis(
    exponents: Sequence[ExponentVector],
) -> tuple[Basis, BohrMatrix, BohrMatrix]:
    """Basis of the rational span of `exponents`, with exact R and T.

    Earliest-exponent-first pivoting: the basis is the subsequence of inputs
    whose coordinate vectors are independent of everything kept before, so the
    result is deterministic and basis elements are always original exponents.
    Zero exponents get an all-zero R row and never enter the basis.
    """
    exps = tuple(exponents)
    if not exps:
        raise EmptyInput("cannot compute a basis of an empty exponent list")
    source, r_rows = expand_over_pivots(exps)
    expansion = BohrMatrix(r_rows, len(source))
    selection = BohrMatrix([{i: Fraction(1)} for i in source], len(exps))
    return Basis(tuple(exps[i] for i in source), tuple(source)), expansion, selection


def reconstruct_exponent(expansion: BohrMatrix, i: int, basis: Basis) -> ExponentVector:
    """Exact ExponentVector sum_j R[i][j] * beta_j for verification."""
    out = ExponentVector()
    for j, q in expansion.row_items(i):
        out = out + basis.elements[j].scale(q)
    return out


def is_integral(matrix: BohrMatrix) -> bool:
    """True iff every entry has denominator 1 (all-zero rows count as integral)."""
    return all(
        q.denominator == 1 for i in range(matrix.nrows) for _, q in matrix.row_items(i)
    )


def denominator_lcm(matrix: BohrMatrix, h: int) -> int:
    """lcm of entry denominators over the first h rows (1 for no entries)."""
    if not 1 <= h <= matrix.nrows:
        raise IndexOutOfRange(f"row prefix {h} outside 1..{matrix.nrows}")
    d = 1
    for i in range(h):
        for _, q in matrix.row_items(i):
            d = math.lcm(d, q.denominator)
    return d


def make_integral_truncated(
    basis: Basis, expansion: BohrMatrix, h: int
) -> tuple[Basis, BohrMatrix]:
    """Rescaled basis B' = B / d_h and integral R' = d_h * R on the first h rows.

    The rows of R' reconstruct the same exponents exactly; when R is already
    integral on the prefix this returns the inputs truncated unchanged.
    """
    d = denominator_lcm(expansion, h)
    scaled = tuple(beta.scale(Fraction(1, d)) for beta in basis.elements)
    rows = [
        {j: q * d for j, q in expansion.row_items(i)} for i in range(h)
    ]
    return (
        Basis(scaled, basis.source_indices),
        BohrMatrix(rows, expansion.ncols),
    )
