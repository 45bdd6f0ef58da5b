"""Basis extraction and the exact expansion/selection matrices."""

import math
import random
from fractions import Fraction

import pytest

from bohreq import scenarios
from bohreq.basis import (
    BohrMatrix,
    compute_basis,
    denominator_lcm,
    expand_over_pivots,
    is_integral,
    make_integral_truncated,
    reconstruct_exponent,
)
from bohreq.core import ExponentVector, SymbolTable
from bohreq.errors import EmptyInput, IndexOutOfRange
from helpers import random_exponent_list

L2 = ExponentVector({"L2": 1})
L3 = ExponentVector({"L3": 1})
L6 = ExponentVector({"L2": 1, "L3": 1})


def bohr_exponents(n):
    return [ExponentVector({"ONE": scenarios.bohr_exponent(i)}) for i in range(1, n + 1)]


class TestComputeBasis:
    def test_ordinary_three_term(self):
        basis, r, t = compute_basis([L2, L3, L6])
        assert basis.elements == (L2, L3)
        assert basis.source_indices == (0, 1)
        assert r.dense_rows() == [
            [Fraction(1), Fraction(0)],
            [Fraction(0), Fraction(1)],
            [Fraction(1), Fraction(1)],
        ]
        assert t.dense_rows() == [
            [Fraction(1), Fraction(0), Fraction(0)],
            [Fraction(0), Fraction(1), Fraction(0)],
        ]

    def test_bohr_example_single_column(self):
        basis, r, _ = compute_basis(bohr_exponents(3))
        assert basis.elements == (ExponentVector({"ONE": "3/2"}),)
        assert [r.entry(i, 0) for i in range(3)] == [
            Fraction(1),
            Fraction(19, 9),
            Fraction(17, 5),
        ]

    def test_singleton(self):
        basis, r, t = compute_basis([L2])
        assert basis.elements == (L2,)
        assert r.dense_rows() == [[Fraction(1)]]
        assert t.dense_rows() == [[Fraction(1)]]

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            compute_basis([])

    def test_zero_exponent_gets_zero_row(self):
        basis, r, _ = compute_basis([ExponentVector(), L2])
        assert basis.elements == (L2,)
        assert r.row_items(0) == ()
        assert r.entry(1, 0) == 1

    def test_idempotent_on_basis_elements(self):
        rng = random.Random(33)
        syms = SymbolTable([("A", 1.31), ("B", 2.71), ("C", 0.577)])
        for _ in range(20):
            exps = random_exponent_list(rng, syms)
            basis, _, _ = compute_basis(exps)
            again, r2, _ = compute_basis(list(basis.elements))
            assert again.elements == basis.elements
            identity = [
                [Fraction(int(i == j)) for j in range(len(basis))]
                for i in range(len(basis))
            ]
            assert r2.dense_rows() == identity

    def test_permuting_non_pivot_rows_keeps_basis(self):
        exps = [L2, L3, L6, ExponentVector({"L2": 2, "L3": 1})]
        basis_a, _, _ = compute_basis(exps)
        swapped = [exps[0], exps[1], exps[3], exps[2]]
        basis_b, _, _ = compute_basis(swapped)
        assert set(basis_a.elements) == set(basis_b.elements)


def solve_over(columns, target):
    """Coefficients c with sum_k c_k columns[k] = target, by fraction-exact
    Gauss-Jordan elimination (columns independent), or None when there are none."""
    width = len(columns)
    aug = [[col[i] for col in columns] + [target[i]] for i in range(len(target))]
    for c in range(width):
        p = next(i for i in range(c, len(aug)) if aug[i][c] != 0)
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for i in range(len(aug)):
            if i != c and aug[i][c] != 0:
                aug[i] = [a - aug[i][c] * b for a, b in zip(aug[i], aug[c])]
    if any(row[width] != 0 for row in aug[width:]):
        return None
    return {c: aug[c][width] for c in range(width) if aug[c][width] != 0}


def reference_expansion(vectors):
    """Earliest-first pivots and expressions over them, all in Fractions."""
    keys = sorted({key for vec in vectors for key, _ in vec.items()})
    pivots, columns, rows = [], [], []
    for idx, vec in enumerate(vectors):
        coords = dict(vec.items())
        dense = [Fraction(coords.get(key, 0)) for key in keys]
        expr = solve_over(columns, dense)
        if expr is None:
            rows.append({len(pivots): Fraction(1)})
            pivots.append(idx)
            columns.append(dense)
        else:
            rows.append(expr)
    return pivots, rows


class TestExpandOverPivots:
    @staticmethod
    def random_vectors(rng, keys, count):
        vectors = []
        for _ in range(count):
            roll = rng.random()
            if roll < 0.1:
                vectors.append({})
            elif roll < 0.2 and vectors:
                vectors.append(dict(rng.choice(vectors)))
            elif roll < 0.5 and vectors:
                # a rational combination of earlier vectors: a dependent one
                combo = {}
                for vec in rng.sample(vectors, min(len(vectors), rng.randint(1, 3))):
                    c = Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 1, 2, 3)))
                    for key, q in vec.items():
                        combo[key] = combo.get(key, 0) + c * q
                vectors.append({key: q for key, q in combo.items() if q})
            else:
                vectors.append({
                    key: Fraction(rng.randint(-9, 9) or 1, rng.choice((1, 1, 1, 2, 5, 6)))
                    for key in rng.sample(keys, rng.randint(1, len(keys)))
                })
        return vectors

    def test_matches_fraction_elimination(self):
        rng = random.Random(1101)
        names = ["A", "B", "C", "D", "E"]
        integral = fractional = 0
        for trial in range(150):
            if trial % 2:
                vectors = [ExponentVector(v) for v in
                           self.random_vectors(rng, names, rng.randint(1, 12))]
            else:
                vectors = self.random_vectors(rng, list(range(5)), rng.randint(1, 12))
            pivots, rows = expand_over_pivots(vectors)
            assert (pivots, rows) == reference_expansion(vectors)
            for row in rows:
                assert all(type(q) is Fraction and q != 0 for q in row.values())
                integral += sum(q.denominator == 1 for q in row.values())
                fractional += sum(q.denominator != 1 for q in row.values())
        assert integral > 0 and fractional > 0

    def test_integer_rows(self):
        # int entries take the integer path and still come back as Fractions
        pivots, rows = expand_over_pivots([{0: 2}, {0: 4, 1: 3}, {0: 1}, {1: 6}, {}])
        assert pivots == [0, 1]
        assert rows == [{0: 1}, {1: 1}, {0: Fraction(1, 2)}, {0: -4, 1: 2}, {}]
        assert all(type(q) is Fraction for row in rows for q in row.values())


class TestExactReconstruction:
    def test_random_sets_reconstruct_exactly(self):
        rng = random.Random(2024)
        syms = SymbolTable([("A", 0.9182), ("B", -2.417), ("C", 5.55)])
        for _ in range(60):
            exps = random_exponent_list(rng, syms)
            basis, r, t = compute_basis(exps)
            for i, lam in enumerate(exps):
                assert reconstruct_exponent(r, i, basis) == lam
            # selection really is a 0/1 row picker onto the basis
            for j in range(t.nrows):
                items = t.row_items(j)
                assert len(items) == 1 and items[0][1] == 1
                assert exps[items[0][0]] == basis.elements[j]


class TestIsIntegral:
    def test_ordinary_integral(self):
        _, r, _ = compute_basis([L2, L3, L6])
        assert is_integral(r)

    def test_bohr_not_integral(self):
        _, r, _ = compute_basis(bohr_exponents(3))
        assert not is_integral(r)

    def test_zero_row_is_integral(self):
        assert is_integral(BohrMatrix([{}], ncols=0))


class TestDenominatorLcm:
    def test_bohr_prefixes(self):
        _, r, _ = compute_basis(bohr_exponents(3))
        assert [denominator_lcm(r, h) for h in (1, 2, 3)] == [1, 9, 45]

    def test_integral_always_one(self):
        _, r, _ = compute_basis([L2, L3, L6])
        assert all(denominator_lcm(r, h) == 1 for h in (1, 2, 3))

    def test_two_rows(self):
        m = BohrMatrix([{0: Fraction(1, 2)}, {0: Fraction(1, 3)}], ncols=1)
        assert denominator_lcm(m, 2) == 6

    def test_out_of_range(self):
        _, r, _ = compute_basis([L2])
        with pytest.raises(IndexOutOfRange):
            denominator_lcm(r, 2)
        with pytest.raises(IndexOutOfRange):
            denominator_lcm(r, 0)


class TestMakeIntegralTruncated:
    def test_bohr_h2(self):
        basis, r, _ = compute_basis(bohr_exponents(3))
        nb, nr = make_integral_truncated(basis, r, 2)
        assert nb.elements == (ExponentVector({"ONE": "1/6"}),)
        assert nr.dense_rows() == [[Fraction(9)], [Fraction(19)]]
        # 9 * (1/6) = 3/2 and 19 * (1/6) = 19/6: same exponents, exactly
        for i in range(2):
            assert reconstruct_exponent(nr, i, nb) == bohr_exponents(3)[i]

    def test_bohr_h3(self):
        basis, r, _ = compute_basis(bohr_exponents(3))
        nb, nr = make_integral_truncated(basis, r, 3)
        assert nb.elements == (ExponentVector({"ONE": "1/30"}),)
        assert nr.dense_rows() == [[Fraction(45)], [Fraction(95)], [Fraction(153)]]
        for i in range(3):
            assert reconstruct_exponent(nr, i, nb) == bohr_exponents(3)[i]

    def test_integral_input_unchanged(self):
        basis, r, _ = compute_basis([L2, L3, L6])
        nb, nr = make_integral_truncated(basis, r, 3)
        assert nb.elements == basis.elements
        assert nr.dense_rows() == r.dense_rows()

    def test_prefix_out_of_range(self):
        basis, r, _ = compute_basis([L2, L3])
        with pytest.raises(IndexOutOfRange):
            make_integral_truncated(basis, r, 3)

    def test_result_is_integral_with_unit_lcms(self):
        rng = random.Random(505)
        syms = SymbolTable([("A", 1.234), ("B", 4.321)])
        for _ in range(25):
            exps = random_exponent_list(rng, syms, max_terms=6)
            basis, r, _ = compute_basis(exps)
            h = rng.randint(1, len(exps))
            nb, nr = make_integral_truncated(basis, r, h)
            assert is_integral(nr)
            assert all(denominator_lcm(nr, hh) == 1 for hh in range(1, h + 1))
            for i in range(h):
                assert reconstruct_exponent(nr, i, nb) == exps[i]
