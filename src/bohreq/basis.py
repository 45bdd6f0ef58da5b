"""Rational bases of finite exponent sequences and their Bohr matrices.

For a finite exponent list Lambda the basis B is chosen by scanning Lambda in
order and keeping every exponent whose coordinate vector is rationally
independent of those already kept.  The expansion matrix R (Lambda = R B) and
the selection matrix T (B = T Lambda) are exact; R rows reconstruct the
exponents in ExponentVector arithmetic, not merely numerically.  The
elimination behind them keeps a triangular echelon, each row's other
coordinates above its lead, so a new pivot adds one row and changes none.
Every entry is in `core.as_rational`'s form, an int when it is whole, so the
arithmetic is in integers wherever a division is exact: ordinary series have
integer coordinates and a 0/1 R on the pivots, and make no Fraction at all.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .core import ExponentVector, as_rational


class BohrMatrix:
    """Sparse matrix with exact rational entries, one row per series term."""

    __slots__ = ("_rows", "_ncols")

    def __init__(self, rows: Iterable[Mapping[int, Fraction] | dict], ncols: int):
        ncols = int(ncols)
        if ncols < 0:
            raise ValueError("ncols must be >= 0")
        cleaned: list[dict[int, int | Fraction]] = []
        for row in rows:
            out: dict[int, int | Fraction] = {}
            for j, q in row.items():
                j = int(j)
                if not 0 <= j < ncols:
                    raise ValueError(f"column {j} outside 0..{ncols - 1}")
                q = as_rational(q)
                if q != 0:
                    out[j] = q
            cleaned.append(out)
        self._rows = tuple(cleaned)
        self._ncols = ncols

    @classmethod
    def _clean(cls, rows: Iterable[dict[int, int | Fraction]], ncols: int) -> BohrMatrix:
        """A matrix of rows already clean: int columns in range, nonzero entries
        in `as_rational`'s form.

        For rows this module has just built; takes them as they are, unchecked.
        """
        matrix = cls.__new__(cls)
        matrix._rows = tuple(rows)
        matrix._ncols = ncols
        return matrix

    @property
    def nrows(self) -> int:
        return len(self._rows)

    @property
    def ncols(self) -> int:
        return self._ncols

    def row_items(self, i: int) -> tuple[tuple[int, int | Fraction], ...]:
        return tuple(sorted(self._rows[i].items()))

    def dense_rows(self, indices: Sequence[int] | None = None) -> list[list[int | Fraction]]:
        idx = range(self.nrows) if indices is None else indices
        return [[self._rows[i].get(j, 0) for j in range(self._ncols)] for i in idx]

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


def _ratio(a: int | Fraction, b: int | Fraction) -> int | Fraction:
    """a / b exactly, in `as_rational`'s form."""
    if type(a) is int and type(b) is int:
        quot, rem = divmod(a, b)
        return Fraction(a, b) if rem else quot
    return as_rational(a / b)


def expand_over_pivots(vectors: Sequence) -> tuple[list[int], list[dict[int, int | Fraction]]]:
    """Earliest-first pivots of a vector list and each vector's expression over them.

    Vectors are sparse, given by `.items()` pairs (sortable coordinate key,
    nonzero rational), taken as given: exponent vectors, or Bohr-matrix rows.
    A vector becomes a pivot when it is independent of every pivot kept
    before it.  Returns the pivot positions and, for every vector, its exact
    coefficients over the pivots (a unit row for a pivot, an empty row for a
    zero vector), in `as_rational`'s form.  A division makes a Fraction only
    when it is inexact (`divmod` for int / int), so integral vectors with
    integral expressions, every ordinary series, make none.
    """
    pivots: list[int] = []
    rows: list[dict[int, int | Fraction]] = []
    # Triangular echelon rows over the coordinates, keyed by lead (least)
    # key: (coordinates, expression of the row over pivot positions).  A row's
    # other coordinates lie above its lead, so clearing a vector's leads in
    # increasing order only adds coordinates above the lead just cleared.  The
    # pending leads are a heap, one cancelled before its turn is skipped, and
    # a kept row never changes.  `as_rational` runs only on a result that is
    # not already an int.
    echelon: dict[object, tuple[dict, dict[int, int | Fraction]]] = {}

    for idx, vec in enumerate(vectors):
        work = dict(vec.items())
        combo: dict[int, int | Fraction] = {}
        leads = [name for name in work if name in echelon]
        leads.sort()
        while leads:
            lead = heapq.heappop(leads)
            if lead not in work:
                continue
            coords, expr = echelon[lead]
            a, b = work[lead], coords[lead]
            f = a // b if type(a) is int and type(b) is int and not a % b else _ratio(a, b)
            for name, q in coords.items():
                new = work.get(name, 0) - f * q
                if type(new) is not int:
                    new = as_rational(new)
                if new:
                    if name not in work and name in echelon:
                        heapq.heappush(leads, name)
                    work[name] = new
                else:
                    work.pop(name, None)
            for j, q in expr.items():
                new = combo.get(j, 0) + f * q
                if type(new) is not int:
                    new = as_rational(new)
                combo[j] = new
        if not work:
            rows.append({j: q for j, q in combo.items() if q})
            continue
        k = len(pivots)
        pivots.append(idx)
        rows.append({k: 1})
        expr = {k: 1}
        for j, q in combo.items():
            if q:
                expr[j] = -q
        echelon[min(work)] = (work, expr)
    return pivots, rows


def compute_basis(
    exponents: Sequence[ExponentVector],
) -> tuple[Basis, BohrMatrix, BohrMatrix]:
    """Basis of the rational span of `exponents`, with exact R and T.

    Earliest-exponent-first pivoting: the basis is the subsequence of inputs
    whose coordinate vectors are independent of everything kept before, so the
    result is deterministic and basis elements are always original exponents.
    Zero exponents get an all-zero R row and never enter the basis, so an
    empty list, or a constant series, has an empty basis.
    """
    exps = tuple(exponents)
    source, r_rows = expand_over_pivots(exps)
    expansion = BohrMatrix._clean(r_rows, len(source))
    selection = BohrMatrix._clean([{i: 1} for i in source], len(exps))
    return Basis(tuple(exps[i] for i in source), tuple(source)), expansion, selection


def reconstruct_exponent(expansion: BohrMatrix, i: int, basis: Basis) -> ExponentVector:
    """Exact ExponentVector sum_j R[i][j] * beta_j for verification."""
    out = ExponentVector()
    for j, q in expansion.row_items(i):
        out = out + basis.elements[j].scale(q)
    return out


def denominator_lcms(matrix: BohrMatrix) -> list[int]:
    """d_h, the lcm of entry denominators over the first h rows, for h = 1..nrows."""
    lcms: list[int] = []
    d = 1
    for row in matrix._rows:
        d = math.lcm(d, *(q.denominator for q in row.values()))
        lcms.append(d)
    return lcms
