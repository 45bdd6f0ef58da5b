"""Exact integer lattice routines: Hermite forms, kernels, diagonalization, LLL.

Everything here is exact, in Python ints and `Fraction`s.  One Euclidean
elimination (`_echelon`) serves the Hermite forms, the left kernel and the
diagonal form; one Gram-Schmidt serves LLL, Babai and the enumeration of
lattice points near a target.  Matrices are lists of row lists; inputs are
never mutated.
"""

from __future__ import annotations

import itertools
import math
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


def gram_schmidt(rows: Sequence[Sequence], inner=lambda u, v: sum(x * y for x, y in zip(u, v))):
    """Exact Gram-Schmidt data (mu, norms) of the rows in the inner product given.

    b_i = b*_i + sum_{j<i} mu[i][j] b*_j, from inner products alone (no b*
    vectors), and norms[j] = <b*_j, b*_j> for every row but the last, the ones
    divided by.  The last row may be any target t, and mu[-1] is then its
    coordinates over the b*_j.  A zero norm to divide by is a ValueError.
    """
    mu: list[list[Fraction]] = []
    norms: list[Fraction] = []
    for i, u in enumerate(rows):
        mu.append([])
        for j in range(i):
            dot = inner(u, rows[j]) - sum(mu[j][l] * mu[i][l] * norms[l] for l in range(j))
            mu[i].append(dot / norms[j])
        if i < len(rows) - 1:
            norms.append(Fraction(inner(u, u)) - sum(m * m * b for m, b in zip(mu[i], norms)))
            if not norms[i]:
                raise ValueError(f"rows 0..{i} are linearly dependent")
    return mu, norms


def lll_reduce(basis: Sequence[Sequence[int]]):
    """Exact LLL reduction (delta = 3/4) of an independent integer basis.

    One `gram_schmidt`, then mu and the norms are kept exact in place (Cohen,
    Alg. 2.6.3) through full size reduction of b_i, the Lovasz test, and a swap
    with b_{i-1} when it fails.  The result is size-reduced (|mu_ij| <= 1/2) and
    Lovasz-reduced; each swap shrinks a positive integer potential, so there is
    no iteration cap.  Dependent rows raise ValueError.
    """
    b = [list(map(int, row)) for row in basis]
    if len(b) <= 1:
        return b
    # a zero target row makes gram_schmidt give (and check) every basis norm
    mu, norms = gram_schmidt([*b, [0] * len(b[0])])
    mu.pop()
    i = 1
    while i < len(b):
        for j in range(i - 1, -1, -1):
            q = round(mu[i][j])
            if q:
                b[i] = [x - q * y for x, y in zip(b[i], b[j])]
                mu[i][j] -= q
                for l in range(j):
                    mu[i][l] -= q * mu[j][l]
        m = mu[i][i - 1]
        if norms[i] >= (Fraction(3, 4) - m * m) * norms[i - 1]:
            i += 1
            continue
        b[i], b[i - 1] = b[i - 1], b[i]
        new = norms[i] + m * m * norms[i - 1]
        mu[i - 1], mu[i] = mu[i][:i - 1], mu[i - 1] + [m * norms[i - 1] / new]
        norms[i - 1], norms[i] = new, norms[i - 1] * norms[i] / new
        for row in mu[i + 1:]:
            row[i - 1], row[i] = row[i], row[i - 1] - m * row[i]
            row[i - 1] += mu[i][i - 1] * row[i]
        i = max(i - 1, 1)
    return b


def size_reduce(vector: Sequence[int], basis: Sequence[Sequence[int]]) -> list[int]:
    """Shrink a vector modulo the lattice of `basis` by Babai's nearest plane.

    The basis is used as given (independent rows; LLL-reduce it for a short result).
    """
    z = list(vector)
    mu, _ = gram_schmidt([*basis, z])
    for j in range(len(basis) - 1, -1, -1):
        q = round(mu[-1][j])
        if q:
            z = [a - q * b for a, b in zip(z, basis[j])]
            for l in range(j):
                mu[-1][l] -= q * mu[j][l]
    return z


def enumerate_near(mu, norms, sigma, bound, visit):
    """Visit every integer x with |s + sum_i x_i b_i|^2 <= bound; return the last bound.

    `mu` and `norms` are the Gram-Schmidt data of an independent basis b (as
    `gram_schmidt` gives them) and `sigma` the coordinates of s over the b*_l,
    so the squared length is sum_l norms[l] (sigma[l] + x_l + sum_{i>l}
    mu[i][l] x_i)^2, exact in rationals.  Fincke-Pohst enumeration, each
    level's candidates nearest first (Schnorr-Euchner), so the first leaf is
    Babai's nearest-plane point.  `visit(x, length)` sees the live x and
    returns the bound for the rest of the search: the length itself makes
    this a closest-vector search, a negative bound stops it.  `bound` may be
    math.inf.
    """
    r = len(norms)
    x = [0] * r

    def search(level: int, partial: Fraction) -> None:
        nonlocal bound
        if level < 0:
            bound = visit(x, partial)
            return
        center = -(sigma[level] + sum(mu[i][level] * x[i] for i in range(level + 1, r)))
        near = round(center)
        step = 1 if center >= near else -1
        for offset in itertools.count():
            for cand in (near,) if offset == 0 else (near + step * offset, near - step * offset):
                gap = cand - center
                cost = partial + norms[level] * gap * gap
                if cost > bound:
                    return
                x[level] = cand
                search(level - 1, cost)

    search(r - 1, Fraction(0))
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
