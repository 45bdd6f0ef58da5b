"""Exact integer lattice routines: echelon forms, kernels, diagonalization.

Everything here runs on Python ints (arbitrary precision), so results are
exact.  Matrices are lists of row lists; inputs are never mutated.
"""

from __future__ import annotations

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


def clear_denominators(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """Scale a rational matrix by the lcm of all entry denominators.

    Returns (integer matrix, scale).  The scale is 1 for an integer matrix and
    for empty input.
    """
    scale = 1
    for row in rows:
        for q in row:
            scale = math.lcm(scale, q.denominator)
    out = [[int(q * scale) for q in row] for row in rows]
    return out, scale


def row_echelon(matrix: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """Integer row echelon form by Euclidean pivoting.

    Returns (H, rank).  Pivots are positive and sit in staircase position;
    rows below the staircase are zero.
    """
    H = [list(map(int, row)) for row in matrix]
    m = len(H)
    n = len(H[0]) if m else 0
    r = 0
    for col in range(n):
        if r == m:
            break
        while True:
            nonzero = [i for i in range(r, m) if H[i][col] != 0]
            if not nonzero:
                break
            i0 = min(nonzero, key=lambda i: (abs(H[i][col]), i))
            if i0 != r:
                H[r], H[i0] = H[i0], H[r]
            p = H[r][col]
            settled = True
            for i in range(r + 1, m):
                if H[i][col] != 0:
                    _row_axpy(H, i, r, H[i][col] // p)
                    if H[i][col] != 0:
                        settled = False
            if settled:
                break
        if H[r][col] != 0:
            if H[r][col] < 0:
                H[r] = [-x for x in H[r]]
            r += 1
    return H, r


def hermite_normalize(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Canonical basis of the lattice spanned by the given rows.

    Row-style Hermite form: zero rows dropped, pivots positive, entries above
    each pivot reduced into [0, pivot).
    """
    if not rows:
        return []
    H, rank = row_echelon(rows)
    H = H[:rank]
    n = len(H[0]) if H else 0
    pivots = []
    for row in H:
        for j in range(n):
            if row[j] != 0:
                pivots.append(j)
                break
    for i in range(len(H)):
        p = H[i][pivots[i]]
        for t in range(i):
            q = H[t][pivots[i]] // p
            if q:
                _row_axpy(H, t, i, q)
    return H


def integer_left_kernel(rows: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    """Hermite-reduced basis of {m integer : m^T A = 0} for rational A.

    Empty list when the rows are linearly independent over Q.  The rows of U
    past the rank in U A V = D annihilate A, and U is unimodular, so the
    lattice is saturated: any integer vector annihilating A lies in the span
    returned.
    """
    A, _ = clear_denominators(rows)
    U, _, _, rank = diagonalize(A)
    return hermite_normalize(U[rank:])


def solve_integer_rows(matrix: Sequence[Sequence[int]], rhs: Sequence[int]):
    """Some integer solution z of matrix @ z = rhs (None when there is none), and the kernel.

    Returns (z or None, kernel): the kernel is a Hermite-reduced basis of {v
    integer : matrix @ v = 0}, the columns of V past the rank in U A V = D,
    saturated because V is unimodular.  One diagonalization gives both.
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


def _gram_schmidt(basis: list[list[int]]):
    """Exact Gram-Schmidt data (mu coefficients and squared norms) over Q."""
    n = len(basis)
    dim = len(basis[0]) if n else 0
    mu = [[Fraction(0)] * n for _ in range(n)]
    star: list[list[Fraction]] = []
    norms: list[Fraction] = []
    for i in range(n):
        v = [Fraction(x) for x in basis[i]]
        for j in range(i):
            if norms[j] == 0:
                continue
            mu[i][j] = sum(
                (Fraction(basis[i][k]) * star[j][k] for k in range(dim)), Fraction(0)
            ) / norms[j]
            v = [v[k] - mu[i][j] * star[j][k] for k in range(dim)]
        star.append(v)
        norms.append(sum((x * x for x in v), Fraction(0)))
    return mu, norms, star


def lll_reduce(basis: Sequence[Sequence[int]]):
    """Exact LLL reduction (delta = 3/4) of an independent integer basis."""
    b = [list(map(int, row)) for row in basis]
    if len(b) <= 1:
        return b
    delta = Fraction(3, 4)
    mu, norms, _ = _gram_schmidt(b)
    i = 1
    guard = 0
    while i < len(b):
        guard += 1
        if guard > 10_000:
            break
        for j in range(i - 1, -1, -1):
            q = round(mu[i][j])
            if q:
                b[i] = [x - q * y for x, y in zip(b[i], b[j])]
        mu, norms, _ = _gram_schmidt(b)
        if norms[i] >= (delta - mu[i][i - 1] ** 2) * norms[i - 1]:
            i += 1
        else:
            b[i], b[i - 1] = b[i - 1], b[i]
            mu, norms, _ = _gram_schmidt(b)
            i = max(i - 1, 1)
    return b


def size_reduce(vector: Sequence[int], basis: Sequence[Sequence[int]]) -> list[int]:
    """Shrink a vector modulo a lattice: LLL-reduce, then Babai nearest plane."""
    z = list(vector)
    if not basis:
        return z
    reduced = lll_reduce(basis)
    _, norms, star = _gram_schmidt(reduced)
    for j in range(len(reduced) - 1, -1, -1):
        if norms[j] == 0:
            continue
        coeff = sum(
            (Fraction(z[k]) * star[j][k] for k in range(len(z))), Fraction(0)
        ) / norms[j]
        q = round(coeff)
        if q:
            z = [a - q * b for a, b in zip(z, reduced[j])]
    return z


def diagonalize(matrix: Sequence[Sequence[int]]):
    """Unimodular U, V with U @ matrix @ V diagonal (no divisibility chain).

    Returns (U, diag, V, rank) where diag lists the positive diagonal entries
    d_0..d_{rank-1}.  This is the Smith-style reduction used to decouple
    simultaneous integer congruences; the full divisibility normalization is
    not needed for that and is skipped.  It is the only routine here that
    builds U or V: both kernels and the integer solution are read off it.
    """
    A = [list(map(int, row)) for row in matrix]
    m = len(A)
    n = len(A[0]) if m else 0
    U = _identity(m)
    V = _identity(n)

    def col_axpy(M: list[list[int]], target: int, source: int, q: int) -> None:
        for row in M:
            row[target] -= q * row[source]

    def col_swap(M: list[list[int]], a: int, b: int) -> None:
        for row in M:
            row[a], row[b] = row[b], row[a]

    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < best[0]):
                    best = (abs(A[i][j]), i, j)
        if best is None:
            break
        _, i0, j0 = best
        if i0 != t:
            A[t], A[i0] = A[i0], A[t]
            U[t], U[i0] = U[i0], U[t]
        if j0 != t:
            col_swap(A, t, j0)
            col_swap(V, t, j0)
        dirty = False
        for i in range(t + 1, m):
            if A[i][t] != 0:
                q = A[i][t] // A[t][t]
                _row_axpy(A, i, t, q)
                _row_axpy(U, i, t, q)
                if A[i][t] != 0:
                    dirty = True
        for j in range(t + 1, n):
            if A[t][j] != 0:
                q = A[t][j] // A[t][t]
                col_axpy(A, j, t, q)
                col_axpy(V, j, t, q)
                if A[t][j] != 0:
                    dirty = True
        if dirty or any(A[i][t] for i in range(t + 1, m)) or any(A[t][j] for j in range(t + 1, n)):
            continue
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    diag = [A[i][i] for i in range(t)]
    return U, diag, V, t
