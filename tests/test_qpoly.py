"""Dense univariate polynomials over the rationals."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import zip_longest

from schur2.qpoly import (
    pdivmod,
    peval,
    pfrom_roots,
    pgcd,
    plcm,
    pmonic,
    pmul,
    prender,
    ptrim,
)


def _f(*ints):
    return tuple(Fraction(n) for n in ints)


def test_trim_and_degree():
    assert ptrim(_f(1, 2, 0, 0)) == _f(1, 2)
    assert ptrim(_f(0,)) == ()


def test_from_roots():
    # (T-1)(T+1) = T^2 - 1
    assert pfrom_roots([1, -1]) == _f(-1, 0, 1)
    # (T-0)(T-2)(T+2) = T^3 - 4T
    assert pfrom_roots([0, 2, -2]) == _f(0, -4, 0, 1)
    assert pfrom_roots([]) == _f(1)


def test_eval_matches_roots():
    rng = random.Random(3)
    for _ in range(50):
        roots = [rng.randint(-5, 5) for _ in range(rng.randint(0, 5))]
        p = pfrom_roots(roots)
        for r in roots:
            assert peval(p, Fraction(r)) == 0
        # A point that is not a root evaluates nonzero.
        probe = max(roots, default=0) + 1
        assert peval(p, Fraction(probe)) != 0


def test_divmod_identity():
    rng = random.Random(5)
    for _ in range(100):
        a = ptrim(tuple(Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(1, 7))))
        b = ptrim(tuple(Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(1, 5))))
        if not b:
            continue
        q, r = pdivmod(a, b)
        assert ptrim([x + y for x, y in zip_longest(pmul(q, b), r, fillvalue=0)]) == a
        assert len(r) < len(b)


def test_gcd_and_lcm():
    p = pfrom_roots([0, 1, 2])
    q = pfrom_roots([1, 2, 3])
    g = pgcd(p, q)
    m = plcm(p, q)
    assert g == pfrom_roots([1, 2])
    assert m == pfrom_roots([0, 1, 2, 3])
    # gcd * lcm = p * q up to the monic normalisation used throughout.
    assert pmul(g, m) == pmonic(pmul(p, q))


def test_monic():
    p = tuple(3 * c for c in pfrom_roots([4]))
    assert pmonic(p) == pfrom_roots([4])
    assert pmonic(()) == ()


def test_render():
    assert prender(pfrom_roots([0, 2, -2])) == "T^3 - 4*T"
    assert prender(pfrom_roots([0, 1, 2, 3])) == "T^4 - 6*T^3 + 11*T^2 - 6*T"
    assert prender(_f(1,)) == "1"
    assert prender(()) == "0"
    assert prender(_f(-1, 1)) == "T - 1"
    assert prender((Fraction(1, 2), Fraction(1))) == "T + 1/2"
    # Negative leading terms, Fraction magnitudes and zero.
    assert prender((Fraction(1), Fraction(-3, 2))) == "-3/2*T + 1"
    assert prender(_f(0, 0, -1)) == "-T^2"
    p = (Fraction(-2, 3), Fraction(0), Fraction(5, 7), Fraction(1))
    assert prender(p) == "T^3 + 5/7*T^2 - 2/3"
