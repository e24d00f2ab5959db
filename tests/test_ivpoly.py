"""Integer-valued polynomial arithmetic in the binomial basis."""

from __future__ import annotations

import random

import pytest

from schur2.ivpoly import (
    IVPoly,
    binom,
    binom_complement_coeffs,
    binom_product_coeffs,
    binom_shift_coeffs,
    values_to_coeffs,
)


def test_binom_standard():
    assert binom(5, 2) == 10
    assert binom(7, 0) == 1
    assert binom(3, 3) == 1
    assert binom(2, 5) == 0


def test_binom_negative_k_is_zero():
    for n in (-4, -1, 0, 1, 9):
        assert binom(n, -1) == 0
        assert binom(n, -3) == 0


def test_binom_negative_upper():
    # (-1)(-2)(-3)/6
    assert binom(-1, 3) == -1
    assert binom(-2, 2) == 3
    assert binom(-1, 0) == 1


def test_binom_matches_falling_factorial():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(-12, 12)
        k = rng.randint(0, 8)
        prod = 1
        for i in range(k):
            prod *= n - i
        fact = 1
        for i in range(2, k + 1):
            fact *= i
        assert prod % fact == 0
        assert binom(n, k) == prod // fact


def test_from_values_examples():
    assert IVPoly.from_values([0, 1, 4]).coeffs == (0, 1, 2)
    assert IVPoly.from_values([1, 1, 1]).coeffs == (1,)
    assert IVPoly.from_values([0, 1]).coeffs == (0, 1)


def test_from_values_round_trip():
    rng = random.Random(11)
    for _ in range(100):
        deg = rng.randint(0, 6)
        coeffs = tuple(rng.randint(-9, 9) for _ in range(deg + 1))
        p = IVPoly("H2", coeffs)
        values = [p(n) for n in range(len(p.coeffs) + 1)]
        assert IVPoly.from_values(values).coeffs == p.coeffs


def test_product_examples():
    b1 = IVPoly.single(1)
    b2 = IVPoly.single(2)
    assert (b1 * b1).coeffs == (0, 1, 2)
    assert (b1 * b2).coeffs == (0, 0, 2, 3)
    p = IVPoly("H2", (3, -1, 4))
    assert p * IVPoly.constant(1) == p


def test_product_pointwise():
    rng = random.Random(13)
    for _ in range(100):
        p = IVPoly("H2", tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 5))))
        q = IVPoly("H2", tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 5))))
        prod = p * q
        for n in range(len(p.coeffs) + len(q.coeffs) + 1):
            assert prod(n) == p(n) * q(n)


def test_product_variable_mismatch():
    with pytest.raises(ValueError):
        IVPoly.single(1, "H1") * IVPoly.single(1, "H2")


def test_shift_examples():
    assert IVPoly.single(1).shift(-1).coeffs == (-1, 1)
    assert IVPoly.single(4).shift(0) == IVPoly.single(4)
    assert IVPoly.single(2).shift(1).coeffs == (0, 1, 1)


def test_shift_pointwise_and_inverse():
    rng = random.Random(17)
    for _ in range(100):
        p = IVPoly("H1", tuple(rng.randint(-6, 6) for _ in range(rng.randint(1, 5))))
        s = rng.randint(-4, 4)
        shifted = p.shift(s)
        for n in range(-3, 8):
            assert shifted(n) == p(n + s)
        assert shifted.shift(-s) == p


def test_complement_examples():
    assert IVPoly.single(1).complement(2).coeffs == (2, -1)
    assert IVPoly.constant(1).complement(5).coeffs == (1,)
    assert IVPoly.single(2).complement(3).coeffs == (3, -2, 1)


def test_complement_pointwise_and_involution():
    rng = random.Random(19)
    for _ in range(100):
        p = IVPoly("H2", tuple(rng.randint(-6, 6) for _ in range(rng.randint(1, 5))))
        d = rng.randint(0, 6)
        comp = p.complement(d)
        for n in range(-2, 9):
            assert comp(n) == p(d - n)
        assert comp.complement(d) == p


def test_evaluation_is_integral():
    rng = random.Random(23)
    for _ in range(50):
        p = IVPoly("h", tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 6))))
        for n in range(-6, 7):
            assert isinstance(p(n), int)


def test_coefficient_tables_agree_with_definitions():
    # Product table: evaluate both sides on enough points.
    for i in range(5):
        for j in range(5):
            coeffs = binom_product_coeffs(i, j)
            for n in range(i + j + 2):
                lhs = binom(n, i) * binom(n, j)
                rhs = sum(c * binom(n, k) for k, c in enumerate(coeffs))
                assert lhs == rhs
    # Shift and complement tables likewise.
    for b in range(13):
        for s in range(-15, 16):
            coeffs = binom_shift_coeffs(b, s)
            for n in range(-2, b + 5):
                assert binom(n + s, b) == sum(c * binom(n, k) for k, c in enumerate(coeffs))
    for b in range(5):
        for d in range(5):
            coeffs = binom_complement_coeffs(b, d)
            for n in range(-2, b + 5):
                assert binom(d - n, b) == sum(c * binom(n, k) for k, c in enumerate(coeffs))


def test_trailing_zeros_trimmed():
    assert IVPoly("H2", (1, 2, 0, 0)).coeffs == (1, 2)
    assert IVPoly("H2", (0,)).coeffs == ()
    assert values_to_coeffs([0, 0, 0]) == ()


def test_zero_and_degree():
    assert IVPoly("H2", ()).is_zero()
    assert IVPoly("H2", ()).degree == -1
    assert IVPoly.single(3).degree == 3
