"""Exact integer linear algebra: echelon forms, kernels, diagonalization."""

import itertools
import random
from fractions import Fraction

from bohreq.lattice import (
    clear_denominators,
    diagonalize,
    hermite_normalize,
    integer_left_kernel,
    lll_reduce,
    row_echelon,
    size_reduce,
    solve_integer_rows,
)


def frac_det(matrix) -> Fraction:
    """Independent determinant by fraction-exact Gaussian elimination."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for i in range(col + 1, n):
            f = m[i][col] * inv
            if f:
                for j in range(col, n):
                    m[i][j] -= f * m[col][j]
    return det


def in_lattice(vector, generators) -> bool:
    """Membership of an integer vector in the row span of the generators."""
    if not generators:
        return all(x == 0 for x in vector)
    basis = hermite_normalize(generators)
    v = list(vector)
    n = len(v)
    for row in basis:
        lead = next(j for j in range(n) if row[j] != 0)
        if v[lead] % row[lead] != 0:
            return False
        q = v[lead] // row[lead]
        for j in range(n):
            v[j] -= q * row[j]
    return all(x == 0 for x in v)


def random_fraction_matrix(rng, nrows, ncols, max_den=4):
    return [
        [Fraction(rng.randint(-4, 4), rng.randint(1, max_den)) for _ in range(ncols)]
        for _ in range(nrows)
    ]


class TestIntegerLeftKernel:
    def test_kernel_vectors_annihilate(self):
        rng = random.Random(22)
        for _ in range(60):
            a = random_fraction_matrix(rng, rng.randint(1, 5), rng.randint(1, 3))
            for m in integer_left_kernel(a):
                for j in range(len(a[0])):
                    assert sum(mi * row[j] for mi, row in zip(m, a)) == 0

    def test_kernel_is_saturated(self):
        # every small integer vector annihilating the rows must lie in the
        # span of the returned generators (oracle: box enumeration)
        rng = random.Random(23)
        for _ in range(25):
            nrows = rng.randint(2, 4)
            a = random_fraction_matrix(rng, nrows, rng.randint(1, 2), max_den=3)
            kernel = integer_left_kernel(a)
            for vec in itertools.product(range(-3, 4), repeat=nrows):
                if all(
                    sum(mi * row[j] for mi, row in zip(vec, a)) == 0
                    for j in range(len(a[0]))
                ):
                    assert in_lattice(list(vec), kernel)

    def test_independent_rows_have_empty_kernel(self):
        a = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        assert integer_left_kernel(a) == []

    def test_zero_width_matrix_unconstrained(self):
        assert integer_left_kernel([[], [], []]) == [
            [1, 0, 0],
            [0, 1, 0],
            [0, 0, 1],
        ]


class TestClearDenominators:
    def test_scale_is_minimal_lcm(self):
        a = [[Fraction(1, 2), Fraction(1)], [Fraction(2, 3), Fraction(0)]]
        ints, scale = clear_denominators(a)
        assert scale == 6
        assert ints == [[3, 6], [4, 0]]


def annihilates(matrix, vector) -> bool:
    return all(sum(a * x for a, x in zip(row, vector)) == 0 for row in matrix)


class TestIntegerSolve:
    def test_solution_when_consistent(self):
        rng = random.Random(25)
        for _ in range(40):
            m, n = rng.randint(1, 3), rng.randint(2, 5)
            k = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            z_true = [rng.randint(-5, 5) for _ in range(n)]
            b = [sum(ki * zi for ki, zi in zip(row, z_true)) for row in k]
            z, _ = solve_integer_rows(k, b)
            assert z is not None
            assert [sum(ki * zi for ki, zi in zip(row, z)) for row in k] == b

    def test_none_when_inconsistent(self):
        # 2 z = 1 has no integer solution
        assert solve_integer_rows([[2]], [1]) == (None, [])

    def test_kernel_is_saturated(self):
        # every small integer vector the matrix sends to 0 lies in the span of
        # the returned kernel (oracle: box enumeration)
        rng = random.Random(29)
        for _ in range(25):
            n = rng.randint(2, 4)
            k = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, 2))]
            _, kernel = solve_integer_rows(k, [rng.randint(-5, 5) for _ in k])
            for vec in itertools.product(range(-3, 4), repeat=n):
                if annihilates(k, vec):
                    assert in_lattice(list(vec), kernel)

    def test_kernel_annihilates_and_is_hermite_form_of_transposed_left_kernel(self):
        rng = random.Random(30)
        for _ in range(60):
            m, n = rng.randint(1, 4), rng.randint(1, 5)
            k = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
            transposed = [[Fraction(k[i][j]) for i in range(m)] for j in range(n)]
            _, kernel = solve_integer_rows(k, [rng.randint(-9, 9) for _ in range(m)])
            assert all(any(v) and annihilates(k, v) for v in kernel)
            assert kernel == integer_left_kernel(transposed)


class TestSizeReduce:
    def test_reduces_to_small_representative(self):
        rng = random.Random(26)
        for _ in range(30):
            n = rng.randint(2, 5)
            rank = rng.randint(1, n - 1)
            basis = [
                [rng.randint(-20, 20) for _ in range(n)] for _ in range(rank)
            ]
            small = [rng.randint(-4, 4) for _ in range(n)]
            shifted = list(small)
            for row in basis:
                c = rng.randint(-1000, 1000)
                shifted = [a + c * x for a, x in zip(shifted, row)]
            reduced = size_reduce(shifted, basis)
            # same coset, and no larger than a modest multiple of the original
            assert in_lattice([a - b for a, b in zip(reduced, shifted)], basis)
            norm = sum(x * x for x in reduced) ** 0.5
            assert norm <= 16 * (sum(x * x for x in small) ** 0.5 + max(
                sum(x * x for x in row) ** 0.5 for row in basis
            ))

    def test_lll_spans_same_lattice(self):
        rng = random.Random(27)
        for _ in range(30):
            n = rng.randint(2, 4)
            basis = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(n - 1)]
            _, rank = row_echelon(basis)
            if rank < n - 1:
                continue
            reduced = lll_reduce(basis)
            assert hermite_normalize(reduced) == hermite_normalize(basis)


def gram_schmidt_data(basis):
    """mu coefficients and squared Gram-Schmidt norms, in fractions."""
    star, norms = [], []
    mu = [[Fraction(0)] * len(basis) for _ in basis]
    for i, row in enumerate(basis):
        v = [Fraction(x) for x in row]
        for j in range(i):
            mu[i][j] = sum(Fraction(a) * b for a, b in zip(row, star[j])) / norms[j]
            v = [a - mu[i][j] * b for a, b in zip(v, star[j])]
        star.append(v)
        norms.append(sum(x * x for x in v))
    return mu, norms


class TestLLL:
    def test_output_is_lll_reduced(self):
        # size-reduced (|mu_ij| <= 1/2) and Lovasz (delta = 3/4), same lattice
        rng = random.Random(2811)
        checked = 0
        while checked < 200:
            dim = rng.randint(2, 6)
            count = rng.randint(2, dim)
            basis = [[rng.randint(-50, 50) for _ in range(dim)] for _ in range(count)]
            if row_echelon(basis)[1] < count:
                continue
            reduced = lll_reduce(basis)
            assert hermite_normalize(reduced) == hermite_normalize(basis)
            mu, norms = gram_schmidt_data(reduced)
            for i in range(count):
                assert all(abs(mu[i][j]) <= Fraction(1, 2) for j in range(i))
            for i in range(1, count):
                assert norms[i] >= (Fraction(3, 4) - mu[i][i - 1] ** 2) * norms[i - 1]
            checked += 1


class TestDiagonalize:
    def test_exact_factorization_and_unimodularity(self):
        rng = random.Random(24)
        for _ in range(60):
            nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
            a = [[rng.randint(-8, 8) for _ in range(ncols)] for _ in range(nrows)]
            u, diag, v, rank = diagonalize(a)
            assert abs(frac_det(u)) == 1
            assert abs(frac_det(v)) == 1
            # U A V is diagonal with the reported positive entries
            for i in range(nrows):
                for j in range(ncols):
                    value = sum(
                        u[i][k] * sum(a[k][l] * v[l][j] for l in range(ncols))
                        for k in range(nrows)
                    )
                    if i == j and i < rank:
                        assert value == diag[i] > 0
                    else:
                        assert value == 0
