"""Exact integer linear algebra: Hermite forms, kernels, diagonalization, LLL."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from bohreq.lattice import (
    clear_denominators,
    diagonalize,
    enumerate_near,
    gram_schmidt,
    hermite_normalize,
    integer_left_kernel,
    lll_reduce,
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


class TestHermiteNormalize:
    def test_output_is_hermite_form_spanning_the_input(self):
        # a staircase of positive pivots with the entries above each pivot in
        # [0, pivot) and no zero rows; the same lattice: every input row lies
        # in the output's span, and every output row is an integer
        # combination of the input rows (solved by the diagonalization)
        rng = random.Random(2020)
        for _ in range(300):
            m, n = rng.randint(0, 5), rng.randint(0, 5)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            for i in rng.sample(range(m), rng.randint(0, m)):  # zero or repeated rows
                rows[i] = [0] * n if rng.random() < 0.5 else list(rows[rng.randrange(m)])
            h = hermite_normalize(rows)
            leads = [next(j for j, x in enumerate(row) if x) for row in h]
            assert leads == sorted(set(leads))
            for i, (row, lead) in enumerate(zip(h, leads)):
                assert row[lead] > 0
                assert all(0 <= h[t][lead] < row[lead] for t in range(i))
            assert hermite_normalize(h) == h
            assert all(in_lattice(row, h) for row in rows)
            transposed = [[row[j] for row in rows] for j in range(n)]
            for row in h:
                assert solve_integer_rows(transposed, row)[0] is not None


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
            if len(hermite_normalize(basis)) < n - 1:
                continue
            reduced = lll_reduce(basis)
            assert hermite_normalize(reduced) == hermite_normalize(basis)


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def star_gram_schmidt(basis, inner=dot):
    """mu coefficients, squared norms and the b* vectors themselves, in fractions."""
    star, norms = [], []
    mu = [[Fraction(0)] * len(basis) for _ in basis]
    for i, row in enumerate(basis):
        v = [Fraction(x) for x in row]
        for j in range(i):
            mu[i][j] = inner(row, star[j]) / norms[j]
            v = [a - mu[i][j] * b for a, b in zip(v, star[j])]
        star.append(v)
        norms.append(inner(v, v))
    return mu, norms, star


def gram_schmidt_data(basis):
    """mu coefficients and squared Gram-Schmidt norms, in fractions."""
    mu, norms, _ = star_gram_schmidt(basis)
    return mu, norms


def reference_lll(basis):
    """LLL with the same loop order that recomputes all of Gram-Schmidt after every step."""
    b = [list(row) for row in basis]
    if len(b) <= 1:
        return b
    mu, norms = gram_schmidt_data(b)
    i = 1
    while i < len(b):
        for j in range(i - 1, -1, -1):
            q = round(mu[i][j])
            if q:
                b[i] = [x - q * y for x, y in zip(b[i], b[j])]
                for l in range(j):
                    mu[i][l] -= q * mu[j][l]
        mu, norms = gram_schmidt_data(b)
        if norms[i] >= (Fraction(3, 4) - mu[i][i - 1] ** 2) * norms[i - 1]:
            i += 1
        else:
            b[i], b[i - 1] = b[i - 1], b[i]
            mu, norms = gram_schmidt_data(b)
            i = max(i - 1, 1)
    return b


def reference_babai(vector, basis):
    """Nearest plane on the b* vectors: each coefficient is <z, b*_j> / |b*_j|^2."""
    z = list(vector)
    _, norms, star = star_gram_schmidt(basis)
    for j in range(len(basis) - 1, -1, -1):
        q = round(sum(Fraction(a) * b for a, b in zip(z, star[j])) / norms[j])
        if q:
            z = [a - q * b for a, b in zip(z, basis[j])]
    return z


def reference_enumerate(basis, s, bound, visit, inner=dot):
    """Fincke-Pohst with Schnorr-Euchner order in fractions, on the b* vectors.

    The search is the integral `enumerate_near`'s, level by level, with the
    cost of level l written as norms[l] (sigma[l] + x_l + sum_{i>l} mu[i][l]
    x_i)^2 in the rational Gram-Schmidt data of `star_gram_schmidt`.
    """
    mu, norms, star = star_gram_schmidt(basis, inner)
    sigma = [inner(s, b) / n for b, n in zip(star, norms)]
    r = len(basis)
    x = [0] * r

    def search(level, partial):
        nonlocal bound
        if level < 0:
            bound = visit(x, partial)
            return
        center = -(sigma[level] + sum(mu[i][level] * x[i] for i in range(level + 1, r)))
        near = round(center)
        step = 1 if center >= near else -1
        for offset in itertools.count():
            for cand in (near,) if offset == 0 else (near + step * offset, near - step * offset):
                cost = partial + norms[level] * (cand - center) ** 2
                if cost > bound:
                    return
                x[level] = cand
                search(level - 1, cost)

    search(r - 1, Fraction(0))
    return bound


def tie_basis(rng, count, dim):
    """Independent rows whose first Gram-Schmidt coefficients are halves: ties for rounding.

    Row i has 2 on its diagonal column and odd entries before it (a permuted
    lower triangle padded with zeros), so each mu[i][j] starts at an odd
    multiple of 1/2, +-1/2 or +-3/2 for entries +-1 and +-3.
    """
    rows = [[rng.choice((-3, -1, 1, 3)) for _ in range(i)] + [2] + [0] * (dim - i - 1)
            for i in range(count)]
    perm = rng.sample(range(dim), dim)
    return [[row[p] for p in perm] for row in rows]


def kronecker_basis(rng, count):
    """A basis shaped as the Kronecker search builds it: (w, S alpha_2..S alpha_k) and S e_j.

    S is a power of 2 from 2^30 to 2^60 and the rounded S alpha_j are as large.
    """
    scale = 1 << rng.randint(30, 60)
    weight = rng.randint(1, scale >> rng.randint(0, 20))
    first = [weight] + [rng.randint(-4 * scale, 4 * scale) for _ in range(count - 1)]
    return [first] + [[scale * (i == j) for i in range(count)] for j in range(1, count)]


class TestLLL:
    def test_output_is_lll_reduced(self):
        # size-reduced (|mu_ij| <= 1/2) and Lovasz (delta = 3/4), same lattice
        rng = random.Random(2811)
        checked = 0
        while checked < 200:
            dim = rng.randint(2, 6)
            count = rng.randint(2, dim)
            basis = [[rng.randint(-50, 50) for _ in range(dim)] for _ in range(count)]
            if len(hermite_normalize(basis)) < count:
                continue
            reduced = lll_reduce(basis)
            assert hermite_normalize(reduced) == hermite_normalize(basis)
            mu, norms = gram_schmidt_data(reduced)
            for i in range(count):
                assert all(abs(mu[i][j]) <= Fraction(1, 2) for j in range(i))
            for i in range(1, count):
                assert norms[i] >= (Fraction(3, 4) - mu[i][i - 1] ** 2) * norms[i - 1]
            checked += 1

    def test_in_place_updates_match_recomputed_gram_schmidt(self):
        # the in-place mu and norm updates are exact and run in the reference's
        # order, so LLL gives the very same basis and Babai the same vector;
        # ranks stop at 6 because the reference takes seconds beyond that
        rng = random.Random(1212)
        checked = 0
        while checked < 300:
            dim = rng.randint(2, 8)
            count = rng.randint(1, min(dim, 6))
            basis = [[rng.randint(-40, 40) for _ in range(dim)] for _ in range(count)]
            if len(hermite_normalize(basis)) < count:
                continue
            reduced = lll_reduce(basis)
            assert reduced == reference_lll(basis)
            v = [rng.randint(-10**6, 10**6) for _ in range(dim)]
            assert size_reduce(v, reduced) == reference_babai(v, reference_lll(basis))
            checked += 1

    def test_half_integer_ties_round_to_even_as_the_reference(self):
        # mu of exactly +-1/2 and +-3/2 must round half to even (0 and +-2),
        # as round(Fraction) does in the reference; the Babai vectors have
        # odd entries, so their coordinates hit halves too
        assert lll_reduce([[2, 0], [1, 3]]) == [[2, 0], [1, 3]]  # mu = 1/2: q = 0
        assert lll_reduce([[2, 0], [3, 3]]) == [[2, 0], [-1, 3]]  # mu = 3/2: q = 2
        assert lll_reduce([[2, 0], [-3, 3]]) == [[2, 0], [1, 3]]  # mu = -3/2: q = -2
        assert size_reduce([1, 3], [[2, 0], [0, 2]]) == [1, -1]  # 1/2 -> 0, 3/2 -> 2
        assert size_reduce([-1, -3], [[2, 0], [0, 2]]) == [-1, 1]
        rng = random.Random(3301)
        for _ in range(200):
            dim = rng.randint(2, 6)
            basis = tie_basis(rng, rng.randint(2, dim), dim)
            reduced = lll_reduce(basis)
            assert reduced == reference_lll(basis)
            v = [rng.choice((-3, -1, 1, 3)) * rng.randint(1, 5) for _ in range(dim)]
            assert size_reduce(v, basis) == reference_babai(v, basis)
            assert size_reduce(v, reduced) == reference_babai(v, reduced)

    def test_kronecker_sized_bases_match_the_reference(self):
        # entries of 2^30 to 2^60 at ranks 2-4, where the Gram determinants
        # run to hundreds of bits
        rng = random.Random(3302)
        for _ in range(60):
            count = rng.randint(2, 4)
            basis = kronecker_basis(rng, count)
            reduced = lll_reduce(basis)
            assert reduced == reference_lll(basis)
            assert hermite_normalize(reduced) == hermite_normalize(basis)
            v = [rng.randint(-(1 << 62), 1 << 62) for _ in range(count)]
            assert size_reduce(v, reduced) == reference_babai(v, reduced)

    def test_dependent_rows_raise_value_error(self):
        for basis in ([[1, 2], [2, 4]], [[1, 0], [0, 0]]):
            with pytest.raises(ValueError, match=r"rows 0\.\.1 are linearly dependent"):
                lll_reduce(basis)
        with pytest.raises(ValueError, match=r"rows 0\.\.1 are linearly dependent"):
            size_reduce([3, 1], [[1, 2], [2, 4]])


def rational_data(lam, d):
    """The rational Gram-Schmidt data (mu, norms) that the integral (lam, d) stand for."""
    mu = [[Fraction(x, d[l + 1]) for l, x in enumerate(row)] for row in lam]
    return mu, [Fraction(d[l + 1], d[l]) for l in range(len(d) - 1)]


class TestGramSchmidt:
    def test_matches_star_vectors_with_a_target_row(self):
        rng = random.Random(1213)
        for _ in range(50):
            dim = rng.randint(1, 6)
            basis = [[rng.randint(-9, 9) for _ in range(dim)] for _ in range(rng.randint(1, dim))]
            if len(hermite_normalize(basis)) < len(basis):
                continue
            target = [rng.randint(-99, 99) for _ in range(dim)]
            lam, d = gram_schmidt([*basis, target])
            assert all(isinstance(x, int) for row in [*lam, d] for x in row)
            mu, norms = rational_data(lam, d)
            ref_mu, ref_norms, star = star_gram_schmidt(basis)
            assert norms == ref_norms
            assert all(mu[i] == ref_mu[i][:i] for i in range(len(basis)))
            assert mu[-1] == [
                sum(Fraction(a) * b for a, b in zip(target, s)) / n for s, n in zip(star, ref_norms)
            ]

    def test_trailing_target_may_be_dependent(self):
        lam, d = gram_schmidt([[1, 0], [2, 0]])
        assert lam == [[], [2]] and d == [1, 1]

    def test_inner_product_is_a_parameter(self):
        # <u, v> = u^T diag(1, 4) v
        rows = [[1, 1], [1, 0], [0, 1]]
        lam, d = gram_schmidt(rows, lambda u, v: u[0] * v[0] + 4 * u[1] * v[1])
        assert lam == [[], [1], [4, -4]] and d == [1, 5, 4]
        mu, norms = rational_data(lam, d)
        assert mu == [[], [Fraction(1, 5)], [Fraction(4, 5), -1]]
        assert norms == [5, Fraction(4, 5)]


class TestClearDenominators:
    def test_least_denominator(self):
        assert clear_denominators([Fraction(1, 2), Fraction(1, 3), 5]) == ([3, 2, 30], 6)
        assert clear_denominators([Fraction(-3, 4), 0.5]) == ([-3, 2], 4)
        assert clear_denominators([7, -1]) == ([7, -1], 1)


def metric_inner(gram):
    return lambda u, v: sum(
        u[i] * g * v[j] for i, row in enumerate(gram) for j, g in enumerate(row)
    )


class TestEnumerateNear:
    def test_visits_exactly_the_ball_nearest_first(self):
        # every x with |s + sum x_i b_i|^2 <= bound, against a brute scan of a
        # box that holds the ball, in the order of the fraction reference;
        # the first visit is Babai's point when it is inside
        rng = random.Random(2727)
        checked = 0
        while checked < 30:
            dim = rng.randint(1, 3)
            basis = [[rng.randint(-30, 30) for _ in range(dim)] for _ in range(dim)]
            if len(hermite_normalize(basis)) < dim:
                continue
            basis = lll_reduce(basis)
            s = [Fraction(rng.randint(-40, 40), rng.randint(1, 7)) for _ in range(dim)]
            target, den = clear_denominators(s)
            lam, d = gram_schmidt([*basis, target])
            if min(rational_data(lam, d)[1]) < 36:  # keep the ball inside the brute box
                continue
            bound = Fraction(rng.randint(1, 150))

            def point(x):
                return [a + sum(xi * row[j] for xi, row in zip(x, basis)) for j, a in enumerate(s)]

            seen, ref = [], []
            last = enumerate_near(
                lam, d, lam[dim], den, bound,
                lambda x, length: seen.append((tuple(x), length)) or bound,
            )
            assert last == bound
            reference_enumerate(
                basis, s, bound, lambda x, length: ref.append((tuple(x), length)) or bound
            )
            assert seen == ref
            brute = {}
            for x in itertools.product(range(-8, 9), repeat=dim):
                if (length := sum(c * c for c in point(x))) <= bound:
                    assert max(map(abs, x)) < 8  # the box holds the ball
                    brute[x] = length
            assert dict(seen) == brute and len(seen) == len(brute)
            babai = size_reduce([-a for a in s], basis)  # -s minus its Babai point
            if sum(c * c for c in babai) <= bound:
                assert point(seen[0][0]) == [-c for c in babai]
            checked += 1

    def test_returned_bound_and_stop(self):
        target, den = clear_denominators([Fraction(1, 2), Fraction(1, 3)])
        lam, d = gram_schmidt([[3, 0], [1, 2], target])
        best = enumerate_near(lam, d, lam[2], den, math.inf, lambda x, length: length)
        brute = min((Fraction(1, 2) + 3 * a + b) ** 2 + (Fraction(1, 3) + 2 * b) ** 2
                    for a in range(-5, 6) for b in range(-5, 6))
        assert best == brute
        calls = []
        stop = enumerate_near(lam, d, lam[2], den, 100, lambda x, length: calls.append(x) or -1)
        assert stop == -1
        assert len(calls) == 1

    def test_rational_target_under_a_rational_metric(self):
        # as the closure minimum runs it: s rational, G rational, the metric
        # cleared to integers by the lcm of its denominators and the lengths
        # divided back; the visits, their order and the minimum equal the
        # fraction reference in G itself
        rng = random.Random(2728)
        checked = 0
        while checked < 30:
            dim = rng.randint(1, 3)
            half = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim)]
                    for _ in range(dim)]
            gram = [[sum(half[k][i] * half[k][j] for k in range(dim)) for j in range(dim)]
                    for i in range(dim)]
            basis = [[rng.randint(-9, 9) for _ in range(dim)] for _ in range(dim)]
            if frac_det(half) == 0 or len(hermite_normalize(basis)) < dim:
                continue
            scale = math.lcm(*(g.denominator for row in gram for g in row))
            inner = metric_inner([[int(g * scale) for g in row] for row in gram])
            s = [Fraction(rng.randint(-99, 99), 2 ** rng.randint(0, 9)) for _ in range(dim)]
            target, den = clear_denominators(s)
            lam, d = gram_schmidt([*basis, target], inner)
            best = enumerate_near(lam, d, lam[dim], den, math.inf, lambda x, length: length)
            ref = reference_enumerate(
                basis, s, math.inf, lambda x, length: length, metric_inner(gram)
            )
            assert best / scale == ref
            bound = ref * rng.randint(2, 6)
            seen, ref_seen = [], []
            enumerate_near(
                lam, d, lam[dim], den, bound * scale,
                lambda x, length: seen.append((tuple(x), length / scale)) or bound * scale,
            )
            reference_enumerate(basis, s, bound,
                                lambda x, length: ref_seen.append((tuple(x), length)) or bound,
                                metric_inner(gram))
            assert seen == ref_seen and min(length for _, length in seen) == ref
            checked += 1


class TestDiagonalize:
    def test_exact_factorization_and_unimodularity(self):
        rng = random.Random(24)
        cases = [[[0] * 3, [0] * 3], [[], []]]
        for _ in range(60):
            nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
            cases.append([[rng.randint(-8, 8) for _ in range(ncols)] for _ in range(nrows)])
        for _ in range(20):
            # a row [h_1..h_r, d] as the closure scan's fold solves it, h reduced modulo d
            d = rng.randint(1, 10**6)
            cases.append([[rng.randrange(d) for _ in range(rng.randint(1, 4))] + [d]])
            # a tall column, as the left kernel of one wrapped column once was
            cases.append([[rng.randint(-1000, 1000)] for _ in range(rng.randint(2, 6))])
            nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
            cases.append(
                [[rng.randint(-10**6, 10**6) for _ in range(ncols)] for _ in range(nrows)]
            )
        for a in cases:
            nrows, ncols = len(a), len(a[0])
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
