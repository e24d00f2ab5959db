"""Exact dense matrix helpers: products, rank, minimal polynomials."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from schur2.matrices import (
    as_exact,
    bareiss_rank,
    exact_rank,
    first_dependency,
    identity,
    is_integral,
    mat_equal,
    matmul,
    min_poly,
    zeros,
)
from schur2.qpoly import peval, pfrom_roots, pmul, ptrim


def _obj(rows):
    return np.array(rows, dtype=object)


def test_matmul_exact_on_fractions():
    a = _obj([[Fraction(1, 3), Fraction(2)], [Fraction(0), Fraction(1, 7)]])
    b = _obj([[Fraction(3), Fraction(1)], [Fraction(1, 2), Fraction(0)]])
    c = matmul(a, b)
    assert c[0][0] == Fraction(2)
    assert c[0][1] == Fraction(1, 3)
    assert c[1][0] == Fraction(1, 14)
    assert c[1][1] == 0


def test_matmul_matches_numpy_on_big_ints():
    rng = random.Random(31)
    a = _obj([[rng.randint(-(10**12), 10**12) for _ in range(4)] for _ in range(4)])
    b = _obj([[rng.randint(-(10**12), 10**12) for _ in range(4)] for _ in range(4)])
    c = matmul(a, b)
    for i in range(4):
        for j in range(4):
            assert c[i][j] == sum(int(a[i][k]) * int(b[k][j]) for k in range(4))


def test_matvec():
    a = _obj([[1, 2], [3, 4]])
    v = _obj([Fraction(1, 2), 1])
    out = matmul(a, v)
    assert list(out) == [Fraction(5, 2), Fraction(11, 2)]


def test_first_dependency():
    # v2 = v0 + 2 v1 is the first dependency; later vectors are never drawn.
    def vectors():
        yield [Fraction(1), Fraction(0)]
        yield [Fraction(1), Fraction(1)]
        yield [Fraction(3), Fraction(2)]
        raise AssertionError("drew a vector past the first dependency")

    assert first_dependency(vectors()) == ptrim([-1, -2, 1])
    with pytest.raises(ValueError):
        first_dependency([[Fraction(1), Fraction(0)]])


def test_rank_known_cases():
    assert bareiss_rank(zeros(3, 3)) == 0
    assert bareiss_rank(identity(5)) == 5
    # Rank 1: every row a multiple of the first.
    a = _obj([[1, 2, 3], [2, 4, 6], [-1, -2, -3]])
    assert bareiss_rank(a) == 1
    # A case whose leading entry vanishes after the first elimination round.
    b = _obj([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
    assert bareiss_rank(b) == 3
    # Fractions: a singular pair of rows and an invertible one.
    c = _obj([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]])
    assert bareiss_rank(c) == 1
    d = _obj([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2)]])
    assert bareiss_rank(d) == 2


def test_rank_zero_leading_rows():
    # Rows that start with zeros used to be able to desync the fraction-free
    # bookkeeping; keep a direct regression for that shape.
    a = _obj(
        [
            [0, 0, 1, 1],
            [0, 1, 0, 1],
            [1, 0, 0, 1],
            [1, 1, 1, 3],
        ]
    )
    assert bareiss_rank(a) == 3


def test_exact_rank_agrees_with_bareiss():
    rng = random.Random(37)
    for _ in range(30):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        a = _obj([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        assert exact_rank(a) == bareiss_rank(a)


def test_exact_rank_wide_integer_matrix():
    rng = random.Random(41)
    rows = 12
    cols = 300
    a = np.zeros((rows, cols), dtype=object)
    for i in range(rows):
        for j in range(cols):
            a[i][j] = rng.randint(-4, 4)
    assert exact_rank(a) == bareiss_rank(a)


def test_min_poly_base_cases():
    assert min_poly(zeros(3, 3)) == ptrim([0, 1])
    assert min_poly(identity(4)) == pfrom_roots([1])
    diag = _obj([[2, 0, 0], [0, 5, 0], [0, 0, 2]])
    assert min_poly(diag) == pfrom_roots([2, 5])
    nil = _obj([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert min_poly(nil) == ptrim([0, 0, 0, 1])


def test_min_poly_fractions():
    a = _obj([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
    p = min_poly(a)
    assert peval(p, Fraction(1, 2)) == 0
    assert peval(p, Fraction(1, 3)) == 0
    assert len(p) == 3


def test_min_poly_annihilates_random_matrices():
    rng = random.Random(43)
    for _ in range(20):
        n = rng.randint(1, 5)
        a = _obj([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        p = min_poly(a)
        # Evaluate p(A) by Horner and check it is the zero matrix.
        acc = zeros(n, n)
        for c in reversed(p):
            acc = matmul(a, acc)
            for i in range(n):
                acc[i][i] += c
        assert not any(acc[i][j] != 0 for i in range(n) for j in range(n))
        # Minimality: no proper monic divisor obtained by dropping a root
        # can annihilate, so the degree is at most n and at least 1.
        assert 1 <= len(p) - 1 <= n


def test_min_poly_block_lcm():
    # Companion-style block sum: min poly is the lcm of the blocks.
    a = _obj(
        [
            [0, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 0, 0],
        ]
    )
    # Blocks: diag(0,1) with min poly T(T-1); nilpotent 2x2 with min poly T^2.
    assert min_poly(a) == pmul(pfrom_roots([1]), ptrim([0, 0, 1]))


def test_as_exact_and_integrality():
    a = as_exact([[1, 2], [3, 4]])
    assert a.dtype == object
    assert is_integral(a)
    b = as_exact([[Fraction(1, 2), 0], [0, 1]])
    assert not is_integral(b)
    assert is_integral(as_exact([[Fraction(4, 2)]]))


def test_mat_equal():
    a = as_exact([[1, 2], [3, 4]])
    b = as_exact([[Fraction(2, 2), 2], [3, 4]])
    assert mat_equal(a, b)
    b[1][1] = 5
    assert not mat_equal(a, b)
