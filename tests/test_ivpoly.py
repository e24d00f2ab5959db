"""Integer-valued polynomials as coefficient tuples over the binomial basis."""

from __future__ import annotations

import random

from schur2.ivpoly import binom, binom_complement_coeffs, binom_product_coeffs, values_to_coeffs


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


def _at(p: tuple[int, ...], n: int) -> int:
    """P(n) for P = sum p[b] binom(H,b)."""
    return sum(c * binom(n, b) for b, c in enumerate(p))


def _trim(p: list[int]) -> tuple[int, ...]:
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def _random_poly(rng: random.Random, bound: int, terms: int) -> tuple[int, ...]:
    return _trim([rng.randint(-bound, bound) for _ in range(rng.randint(1, terms))])


def _times(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """P*Q through binom_product_coeffs."""
    out = [0] * (len(p) + len(q))
    for i, ci in enumerate(p):
        for j, cj in enumerate(q):
            for k, ck in enumerate(binom_product_coeffs(i, j)):
                out[k] += ci * cj * ck
    return _trim(out)


def _complement(p: tuple[int, ...], d: int) -> tuple[int, ...]:
    """P(d-H) through binom_complement_coeffs."""
    out = [0] * len(p)
    for b, c in enumerate(p):
        for k, ck in enumerate(binom_complement_coeffs(b, d)):
            out[k] += c * ck
    return _trim(out)


def test_from_values_examples():
    assert values_to_coeffs([0, 1, 4]) == (0, 1, 2)
    assert values_to_coeffs([1, 1, 1]) == (1,)
    assert values_to_coeffs([0, 1]) == (0, 1)


def test_from_values_round_trip():
    rng = random.Random(11)
    for _ in range(100):
        deg = rng.randint(0, 6)
        coeffs = _trim([rng.randint(-9, 9) for _ in range(deg + 1)])
        values = [_at(coeffs, n) for n in range(len(coeffs) + 1)]
        assert values_to_coeffs(values) == coeffs


def test_product_examples():
    assert _times((0, 1), (0, 1)) == (0, 1, 2)
    assert _times((0, 1), (0, 0, 1)) == (0, 0, 2, 3)
    assert _times((3, -1, 4), (1,)) == (3, -1, 4)


def test_product_pointwise():
    rng = random.Random(13)
    for _ in range(100):
        p = _random_poly(rng, 5, 5)
        q = _random_poly(rng, 5, 5)
        prod = _times(p, q)
        for n in range(len(p) + len(q) + 1):
            assert _at(prod, n) == _at(p, n) * _at(q, n)


def _shift(p: tuple[int, ...], s: int) -> tuple[int, ...]:
    """P(H+s) from its values, the way the engine reads moved polynomials."""
    return values_to_coeffs([_at(p, n + s) for n in range(len(p))])


def test_shift_examples():
    assert _shift((0, 1), -1) == (-1, 1)
    assert _shift((0, 0, 0, 0, 1), 0) == (0, 0, 0, 0, 1)
    assert _shift((0, 0, 1), 1) == (0, 1, 1)


def test_shift_pointwise_and_inverse():
    rng = random.Random(17)
    for _ in range(100):
        p = _random_poly(rng, 6, 5)
        s = rng.randint(-4, 4)
        shifted = _shift(p, s)
        for n in range(-3, 8):
            assert _at(shifted, n) == _at(p, n + s)
        assert _shift(shifted, -s) == p


def test_complement_examples():
    assert _complement((0, 1), 2) == (2, -1)
    assert _complement((1,), 5) == (1,)
    assert _complement((0, 0, 1), 3) == (3, -2, 1)


def test_complement_pointwise_and_involution():
    rng = random.Random(19)
    for _ in range(100):
        p = _random_poly(rng, 6, 5)
        d = rng.randint(0, 6)
        comp = _complement(p, d)
        for n in range(-2, 9):
            assert _at(comp, n) == _at(p, d - n)
        assert _complement(comp, d) == p


def test_evaluation_is_integral():
    rng = random.Random(23)
    for _ in range(50):
        p = _random_poly(rng, 9, 6)
        for n in range(-6, 7):
            assert isinstance(_at(p, n), int)


def test_coefficient_tables_agree_with_definitions():
    # Product table: evaluate both sides on enough points.
    for i in range(5):
        for j in range(5):
            coeffs = binom_product_coeffs(i, j)
            for n in range(i + j + 2):
                lhs = binom(n, i) * binom(n, j)
                rhs = sum(c * binom(n, k) for k, c in enumerate(coeffs))
                assert lhs == rhs
    # Complement table likewise.
    for b in range(5):
        for d in range(5):
            coeffs = binom_complement_coeffs(b, d)
            for n in range(-2, b + 5):
                assert binom(d - n, b) == sum(c * binom(n, k) for k, c in enumerate(coeffs))


def test_trailing_zeros_trimmed():
    assert values_to_coeffs([0, 0, 0]) == ()
    assert values_to_coeffs([1, 3, 5, 7]) == (1, 2)
