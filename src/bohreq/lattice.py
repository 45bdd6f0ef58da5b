"""Exact integer lattice routines: Hermite forms, kernels, diagonalization, LLL.

Everything here is exact, in Python ints; `Fraction`s appear only as rational
inputs and as the lengths handed to an enumeration's visitor.  One Euclidean
elimination (`_echelon`) serves the Hermite forms, the left kernel and the
diagonal form; one integral Gram-Schmidt (Gram determinants d and
lam = d mu, de Weger 1987; Cohen, A Course in Computational Algebraic Number
Theory, Alg. 2.6.7) serves LLL, Babai and the enumeration of lattice points
near a target, with exact divisions only.  A rational target or metric is
cleared to integers by its common denominator (`clear_denominators`) and the
lengths divided back exactly.  Matrices are lists of row lists; inputs are
never mutated.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Sequence


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _row_axpy(rows: list[list[int]], target: int, source: int, q: int) -> None:
    """rows[target] -= q * rows[source]"""
    r_t, r_s = rows[target], rows[source]
    for k in range(len(r_t)):
        r_t[k] -= q * r_s[k]


def _echelon(H: list[list[int]], ncols: int) -> int:
    """Bring the first `ncols` columns of H to row Hermite form in place; return the rank.

    Column by column, the smallest nonzero entry at or below the staircase
    (the earliest row among equals) reduces the others until it is the only
    one left (Euclid); its row, made positive, is the next pivot row and at
    once reduces the rows above it into [0, pivot).  Whole rows move, so the
    entries past `ncols` record the row operations.  Rows from the rank on
    are zero in the first `ncols` columns.
    """
    m = len(H)
    r = 0
    for col in range(ncols):
        if r == m:
            break
        settled = False
        while not settled:
            nonzero = [i for i in range(r, m) if H[i][col]]
            if not nonzero:
                break
            i0 = min(nonzero, key=lambda i: (abs(H[i][col]), i))
            H[r], H[i0] = H[i0], H[r]
            p = H[r][col]
            settled = True
            for i in range(r + 1, m):
                if H[i][col]:
                    _row_axpy(H, i, r, H[i][col] // p)
                    if H[i][col]:
                        settled = False
        if not settled:  # the column is zero at and below the staircase
            continue
        if p < 0:
            H[r] = [-x for x in H[r]]
            p = -p
        for t in range(r):
            q = H[t][col] // p
            if q:
                _row_axpy(H, t, r, q)
        r += 1
    return r


def hermite_normalize(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Canonical basis of the lattice spanned by the given rows.

    Row-style Hermite form (`_echelon`): zero rows dropped, pivots positive,
    entries above each pivot reduced into [0, pivot).
    """
    H = [list(map(int, row)) for row in rows]
    return H[:_echelon(H, len(H[0]) if H else 0)]


def integer_left_kernel(rows: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    """Hermite-reduced basis of {m integer : m^T A = 0} for rational A.

    Empty list when the rows are linearly independent over Q.  The rows of
    [A | I] (A scaled to integers) span the pairs (m^T A, m), so the rows of
    their Hermite form whose A part is zero, the rows past the rank of A,
    span every integer m annihilating A: the kernel, saturated, and its
    I parts are already in Hermite form.
    """
    scale = math.lcm(*(q.denominator for row in rows for q in row))
    width = len(rows[0]) if rows else 0
    H = hermite_normalize(
        [[int(q * scale) for q in row] + e for row, e in zip(rows, _identity(len(rows)))]
    )
    return [h[width:] for h in H if not any(h[:width])]


def solve_integer_rows(matrix: Sequence[Sequence[int]], rhs: Sequence[int]):
    """Some integer solution z of matrix @ z = rhs (None when there is none), and the kernel.

    Returns (z or None, kernel) from one `diagonalize`, U A V = D: z is V w
    for w solving D w = U rhs, and the kernel is a Hermite-reduced basis of
    {v integer : matrix @ v = 0}, the columns of V past the rank, saturated
    because V is unimodular.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    u, diag, v, rank = diagonalize(matrix)
    kernel = hermite_normalize([[v[r][c] for r in range(n)] for c in range(rank, n)])
    ub = [sum(u[i][j] * rhs[j] for j in range(m)) for i in range(m)]
    w = [0] * n
    for i in range(rank):
        if ub[i] % diag[i] != 0:
            return None, kernel
        w[i] = ub[i] // diag[i]
    if any(ub[rank:]):
        return None, kernel
    return [sum(v[r][c] * w[c] for c in range(n)) for r in range(n)], kernel


def _round_half_even(n: int, den: int) -> int:
    """round(n / den), ties to even, for den > 0: the integer `round(Fraction(n, den))` gives."""
    q, rem = divmod(n, den)
    twice = 2 * rem
    return q + (twice > den or (twice == den and q & 1))


def clear_denominators(row: Sequence) -> tuple[list[int], int]:
    """(den * row, den) for the least den > 0 that makes a row of rationals integral."""
    den = math.lcm(*(Fraction(x).denominator for x in row))
    return [int(x * den) for x in row], den


def gram_schmidt(rows: Sequence[Sequence[int]],
                 inner=lambda u, v: sum(x * y for x, y in zip(u, v))):
    """Integral Gram-Schmidt data (lam, d) of integer rows in an integer inner product.

    d[l] is the Gram determinant of rows 0..l-1 (d[0] = 1), for l up to the
    last row but one, and lam[i][l] = d[l+1] mu[i][l] for l < i, where b_i =
    b*_i + sum_l mu[i][l] b*_l: so mu[i][l] = lam[i][l] / d[l+1] and
    <b*_l, b*_l> = d[l+1] / d[l].  All of it is integral and computed in
    Python ints by exact divisions (de Weger 1987; Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 2.6.7), from inner products
    alone.  The last row may be any target t, dependent or not, and lam[-1]
    is then d[l+1] times its coordinates over the b*_l.  A zero Gram
    determinant to divide by is a ValueError.
    """
    lam: list[list[int]] = []
    d = [1]
    for i, u in enumerate(rows):
        lam.append([])
        # j = i gives d[i+1]; the last row, a target that may be dependent, has none
        for j in range(i + 1 if i < len(rows) - 1 else i):
            acc = inner(u, rows[j])
            for l in range(j):
                acc = (d[l + 1] * acc - lam[i][l] * lam[j][l]) // d[l]
            if j < i:
                lam[i].append(acc)
            elif acc:
                d.append(acc)
            else:
                raise ValueError(f"rows 0..{i} are linearly dependent")
    return lam, d


def lll_reduce(basis: Sequence[Sequence[int]]):
    """Exact LLL reduction (delta = 3/4) of an independent integer basis.

    Integral LLL (de Weger 1987; Cohen, Alg. 2.6.7): one `gram_schmidt`, then
    lam and d are kept in place, in Python ints with exact divisions, through
    full size reduction of b_i (j = i-1 down to 0, q = lam[i][j] / d[j+1]
    rounded half to even), the Lovasz test 4 d[i+1] d[i-1] >= 3 d[i]^2 -
    4 lam[i][i-1]^2, and a swap with b_{i-1} when it fails.  The decisions are
    those of the rational mu and norms, so the basis is the one that rational
    LLL in this order gives.  The result is size-reduced (|mu_ij| <= 1/2) and
    Lovasz-reduced; each swap shrinks a positive integer potential, so there
    is no iteration cap.  Dependent rows raise ValueError.
    """
    b = [list(map(int, row)) for row in basis]
    if len(b) <= 1:
        return b
    # a zero target row makes gram_schmidt give (and check) every basis determinant
    lam, d = gram_schmidt([*b, [0] * len(b[0])])
    lam.pop()
    i = 1
    while i < len(b):
        lam_i = lam[i]
        for j in range(i - 1, -1, -1):
            q = _round_half_even(lam_i[j], d[j + 1])
            if q:
                b[i] = [x - q * y for x, y in zip(b[i], b[j])]
                lam_i[j] -= q * d[j + 1]
                for l in range(j):
                    lam_i[l] -= q * lam[j][l]
        m = lam_i[i - 1]
        if 4 * d[i + 1] * d[i - 1] >= 3 * d[i] * d[i] - 4 * m * m:
            i += 1
            continue
        b[i], b[i - 1] = b[i - 1], b[i]
        new = (d[i - 1] * d[i + 1] + m * m) // d[i]
        lam[i - 1], lam[i] = lam_i[:i - 1], lam[i - 1] + [m]
        for row in lam[i + 1:]:
            t = row[i]
            row[i] = (d[i + 1] * row[i - 1] - m * t) // d[i]
            row[i - 1] = (new * t + m * row[i]) // d[i + 1]
        d[i] = new
        i = max(i - 1, 1)
    return b


def size_reduce(vector: Sequence[int], basis: Sequence[Sequence[int]]) -> list[int]:
    """Shrink a vector modulo the lattice of `basis` by Babai's nearest plane.

    The basis is used as given (independent rows; LLL-reduce it for a short
    result).  The coefficients q = lam[-1][j] / d[j+1] of the integral
    `gram_schmidt` are rounded half to even.
    """
    z = list(vector)
    lam, d = gram_schmidt([*basis, z])
    coords = lam[-1]
    for j in range(len(basis) - 1, -1, -1):
        q = _round_half_even(coords[j], d[j + 1])
        if q:
            z = [a - q * b for a, b in zip(z, basis[j])]
            for l in range(j):
                coords[l] -= q * lam[j][l]
    return z


def enumerate_near(lam, d, target, den, bound, visit):
    """Visit every integer x with |s + sum_i x_i b_i|^2 <= bound; return the last bound.

    `lam` and `d` are the integral Gram-Schmidt data of an independent
    integer basis b (as `gram_schmidt` gives them), and `target` the lam row
    of the integer vector den * s, so the squared length is the sum over
    levels l of N_l^2 / (d[l] d[l+1] den^2), N_l = target[l] + den (x_l d[l+1]
    + sum_{i>l} lam[i][l] x_i).  Every term is scaled by the least common
    multiple of the d[l] d[l+1], so the search compares integers alone.
    Fincke-Pohst enumeration (1985), each level's candidates nearest first
    (Schnorr-Euchner), so the first leaf is Babai's nearest-plane point.
    `visit(x, length)` sees the live x and the exact `Fraction` length and
    returns the bound for the rest of the search: the length itself makes
    this a closest-vector search, a negative bound stops it.  `bound` may be
    math.inf.
    """
    r = len(d) - 1
    lcm = math.lcm(*(d[l] * d[l + 1] for l in range(r)))
    weight = [lcm // (d[l] * d[l + 1]) for l in range(r)]
    unit = lcm * den * den  # an integer length S is the exact length S / unit
    cols = [[lam[i][l] for i in range(l + 1, r)] for l in range(r)]
    steps = [den * d[l + 1] for l in range(r)]
    x = [0] * r

    def scaled(b) -> int | float:
        return b if b == math.inf else math.floor(Fraction(b) * unit)

    limit = scaled(bound)

    def search(level: int, partial: int) -> None:
        nonlocal bound, limit
        if level < 0:
            length = Fraction(partial, unit)
            bound = visit(x, length)
            limit = partial if bound is length else scaled(bound)
            return
        # N_l = a + x_l step; the level's center is -a / step
        a = target[level] + den * sum(map(operator.mul, cols[level], x[level + 1:]))
        step, w = steps[level], weight[level]
        near = _round_half_even(-a, step)
        side = 1 if -a >= near * step else -1
        for offset in itertools.count():
            for cand in (near,) if offset == 0 else (near + side * offset, near - side * offset):
                n = a + cand * step
                cost = partial + w * n * n
                if cost > limit:
                    return
                x[level] = cand
                search(level - 1, cost)

    search(r - 1, 0)
    return bound


def diagonalize(matrix: Sequence[Sequence[int]]):
    """Unimodular U, V with U @ matrix @ V diagonal (no divisibility chain).

    Returns (U, diag, V, rank) where diag lists the positive diagonal entries
    d_0..d_{rank-1}; the divisibility chain of the Smith form is not needed
    to decouple congruences and is not imposed.  Kannan and Bachem's
    alternation: the Hermite form (`_echelon`) of the columns beside V^T,
    then of the rows beside U, until nothing is left off the diagonal.  After
    the first column form only the first `rank` columns are nonzero, so each
    row form is upper triangular with its pivots on the diagonal; a round
    either clears the first uncleared row and column or shrinks its pivot.
    """
    A = [list(map(int, row)) for row in matrix]
    m = len(A)
    n = len(A[0]) if m else 0
    U, Vt = _identity(m), _identity(n)
    while True:
        T = [[row[j] for row in A] + Vt[j] for j in range(n)]
        _echelon(T, m)
        Vt = [t[m:] for t in T]
        H = [[t[i] for t in T] + U[i] for i in range(m)]
        rank = _echelon(H, n)
        A, U = [h[:n] for h in H], [h[n:] for h in H]
        if not any(any(A[i][i + 1:]) for i in range(rank)):
            return U, [A[i][i] for i in range(rank)], [list(col) for col in zip(*Vt)], rank
