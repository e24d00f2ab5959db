"""Normal-order elements and straightening in the untruncated algebra.

The heavyweight check here re-derives E(r)*F(s) by peeling one plain e at a
time across the f-block, using nothing but the one-step commutation rule
e f^(a) = f^(a) e + f^(a-1) (H1 - H2 - a + 1) together with polynomial
shifts, and compares against the closed-form straightening product.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from schur2 import elements
from schur2.elements import (
    Element,
    Flavor,
    commute_e_past_fdiv,
    commute_poly_left,
    degree_of,
    fdiv_merge,
    height_of,
    mul,
    render_element,
    substitute_offvar,
)
from schur2.ivpoly import IVPoly, binom


def test_fdiv_merge_examples():
    assert fdiv_merge(2, 3) == (10, 5)
    assert fdiv_merge(0, 4) == (1, 4)
    assert fdiv_merge(1, 1) == (2, 2)
    assert fdiv_merge(3, 3) == (20, 6)


def test_fdiv_merge_matches_factorials():
    rng = random.Random(47)
    for _ in range(100):
        i = rng.randint(0, 8)
        j = rng.randint(0, 8)
        coef, total = fdiv_merge(i, j)
        assert total == i + j
        assert coef == math.factorial(i + j) // (math.factorial(i) * math.factorial(j))


def test_commute_poly_left_shifts():
    b1_h2 = IVPoly.single(1, "H2")
    assert commute_poly_left("e", b1_h2).coeffs == (1, 1)  # e binom(H2,1) = (binom(H2,1)+1) e
    assert commute_poly_left("f", b1_h2).coeffs == (-1, 1)
    b1_h1 = IVPoly.single(1, "H1")
    assert commute_poly_left("e", b1_h1).coeffs == (-1, 1)
    assert commute_poly_left("f", b1_h1).coeffs == (1, 1)
    const = IVPoly.constant(5, "H1")
    assert commute_poly_left("e", const) == const


def test_commute_poly_left_pointwise():
    rng = random.Random(53)
    for _ in range(50):
        var = rng.choice(["H1", "H2"])
        p = IVPoly(var, tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 5))))
        for g, shift in (("e", -1 if var == "H1" else 1), ("f", 1 if var == "H1" else -1)):
            q = commute_poly_left(g, p)
            for n in range(-3, 8):
                assert q(n) == p(n + shift)


def test_commute_e_past_fdiv_small():
    one = commute_e_past_fdiv(1)
    assert one.terms == {(1, 0, 0, 1): 1, (0, 1, 0, 0): 1, (0, 0, 1, 0): -1}
    collapsed = commute_e_past_fdiv(1, d=1)
    assert collapsed.terms == {(1, 0, 0, 1): 1, (0, 0, 0, 0): 1, (0, 0, 1, 0): -2}
    two = commute_e_past_fdiv(2)
    assert two.terms == {
        (2, 0, 0, 1): 1,
        (1, 1, 0, 0): 1,
        (1, 0, 1, 0): -1,
        (1, 0, 0, 0): -1,
    }


def test_mul_generator_example():
    e = Element.generator("e")
    f = Element.generator("f")
    ef = mul(e, f)
    assert ef.terms == {(1, 0, 0, 1): 1, (0, 1, 0, 0): 1, (0, 0, 1, 0): -1}


def test_mul_unit_and_divided_powers():
    rng = random.Random(59)
    one = Element.one()
    x = _random_element(rng, Flavor.FHE)
    assert mul(one, x) == x
    assert mul(x, one) == x
    f2 = Element.divided_power("f", 2)
    f3 = Element.divided_power("f", 3)
    assert mul(f2, f3) == Element.divided_power("f", 5).scale(10)
    e1 = Element.divided_power("e", 1)
    e4 = Element.divided_power("e", 4)
    assert mul(e1, e4) == Element.divided_power("e", 5).scale(5)


def test_mul_middle_polynomials_multiply():
    p = Element.h_binomial("H2", 1)
    q = Element.h_binomial("H2", 1)
    # binom(H2,1)^2 = binom(H2,1) + 2 binom(H2,2)
    assert mul(p, q).terms == {(0, 0, 1, 0): 1, (0, 0, 2, 0): 2}


def _random_element(rng, flavor, max_exp=3, nterms=3):
    terms = {}
    for _ in range(nterms):
        key = (
            rng.randint(0, max_exp),
            rng.randint(0, max_exp),
            rng.randint(0, max_exp),
            rng.randint(0, max_exp),
        )
        terms[key] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return Element(flavor, terms)


def test_mul_associative_and_bilinear():
    rng = random.Random(61)
    for flavor in (Flavor.FHE, Flavor.EHF):
        for _ in range(12):
            x = _random_element(rng, flavor, max_exp=2, nterms=2)
            y = _random_element(rng, flavor, max_exp=2, nterms=2)
            z = _random_element(rng, flavor, max_exp=2, nterms=2)
            assert mul(mul(x, y), z) == mul(x, mul(y, z))
            assert mul(x + y, z) == mul(x, z) + mul(y, z)
            assert mul(x, y + z) == mul(x, y) + mul(x, z)
            q = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            assert mul(x.scale(q), y) == mul(x, y).scale(q)


def _per_term_mul(x: Element, y: Element) -> Element:
    """U-mode mul straightened term by term with no pair cache: the reference."""
    flavor = x.flavor
    out = {}
    for (a, b1, b2, c), cx in x.terms.items():
        for (a2, p1, p2, c2), cy in y.terms.items():
            for coef, aa, cc, mid in elements._cross(flavor, c, a2):
                scal = cx * cy * coef * binom(a + aa, a) * binom(cc + c2, cc)
                m = elements._biv_mul(elements._biv_shift({(b1, b2): 1}, aa, flavor), dict(mid))
                m = elements._biv_mul(m, elements._biv_shift({(p1, p2): 1}, cc, flavor))
                for (q1, q2), mc in m.items():
                    key = (a + aa, q1, q2, cc + c2)
                    out[key] = out.get(key, 0) + scal * mc
    return Element(flavor, out)


def test_mul_pair_cache_matches_per_term_body():
    rng = random.Random(73)
    for flavor in (Flavor.FHE, Flavor.EHF):
        for _ in range(8):
            x = _random_element(rng, flavor, max_exp=3, nterms=4)
            y = _random_element(rng, flavor, max_exp=3, nterms=3)
            expected = _per_term_mul(x, y)
            elements._mono_mul.cache_clear()
            assert mul(x, y) == expected  # cold cache
            hits = elements._mono_mul.cache_info().hits
            assert mul(x, y) == expected  # warm cache
            assert elements._mono_mul.cache_info().hits == hits + len(x.terms) * len(y.terms)
        for _ in range(3):
            x, y, z = (_random_element(rng, flavor, max_exp=3, nterms=2) for _ in range(3))
            assert mul(mul(x, y), z) == mul(x, mul(y, z))
    # Cached pair products are integral; scalars enter only in mul.
    assert all(
        isinstance(q, int)
        for key in [((1, 0, 1, 2), (2, 1, 0, 1)), ((0, 2, 0, 3), (3, 0, 2, 0))]
        for _, q in elements._mono_mul(Flavor.FHE, *key)
    )


def _peel_product(r: int, s: int) -> Element:
    """E(r)*F(s) rebuilt from the one-step rule, bypassing the cross table.

    State: {(a, h1_coeffs, h2_coeffs, c): coeff} for f^(a) p1(H1) p2(H2) e^(c).
    Multiplying by a plain e on the left uses only
        e f^(a) = f^(a) e + f^(a-1) (H1 - H2 - a + 1)
    plus commute_poly_left to walk e through the middle and fdiv_merge to fold
    it into e^(c). Applying e r times to F(s) gives r! E(r) F(s).
    """
    state: dict[tuple[int, tuple[int, ...], tuple[int, ...], int], Fraction] = {
        (s, (1,), (1,), 0): Fraction(1)
    }

    def add(dst, key, q):
        v = dst.get(key, Fraction(0)) + q
        if v:
            dst[key] = v
        else:
            dst.pop(key, None)

    for _ in range(r):
        nxt: dict[tuple[int, tuple[int, ...], tuple[int, ...], int], Fraction] = {}
        for (a, t1, t2, c), q in state.items():
            p1 = IVPoly("H1", t1)
            p2 = IVPoly("H2", t2)
            # Piece one: e walks across f^(a) untouched, shifts the middle,
            # then merges with e^(c).
            coef, c_new = fdiv_merge(1, c)
            s1 = commute_poly_left("e", p1)
            s2 = commute_poly_left("e", p2)
            add(nxt, (a, s1.coeffs, s2.coeffs, c_new), q * coef)
            # Piece two: the commutator drops one f and multiplies the middle
            # by H1 - H2 - a + 1.
            if a >= 1:
                q1 = p1 * (IVPoly.single(1, "H1") + IVPoly.constant(1 - a, "H1"))
                add(nxt, (a - 1, q1.coeffs, p2.coeffs, c), q)
                q2 = IVPoly.single(1, "H2") * p2
                add(nxt, (a - 1, p1.coeffs, q2.coeffs, c), -q)
        state = nxt

    terms: dict[tuple[int, int, int, int], Fraction] = {}
    scale = Fraction(1, math.factorial(r))
    for (a, t1, t2, c), q in state.items():
        for i, ci in enumerate(t1):
            if ci == 0:
                continue
            for j, cj in enumerate(t2):
                if cj == 0:
                    continue
                key = (a, i, j, c)
                v = terms.get(key, Fraction(0)) + q * ci * cj * scale
                if v:
                    terms[key] = v
                else:
                    terms.pop(key, None)
    return Element(Flavor.FHE, terms)


def test_straightening_matches_one_step_peeling():
    for r in range(1, 7):
        for s in range(0, 7):
            expected = _peel_product(r, s)
            got = mul(Element.divided_power("e", r), Element.divided_power("f", s))
            assert got == expected, (r, s)


def test_substitute_offvar():
    # binom(H1,1) with H1 = d - H2.
    x = Element.h_binomial("H1", 1)
    assert substitute_offvar(x, 3).terms == {(0, 0, 0, 0): 3, (0, 0, 1, 0): -1}
    # Products of both variables collapse to the flavor's own one.
    y = Element(Flavor.FHE, {(1, 1, 1, 0): 1})
    out = substitute_offvar(y, 2)
    assert all(b1 == 0 for (_, b1, _, _) in out.terms)
    # Pointwise check: evaluate middles at H2 = n, H1 = d - n.
    rng = random.Random(67)
    for _ in range(30):
        d = rng.randint(0, 5)
        z = _random_element(rng, Flavor.FHE, max_exp=3)
        w = substitute_offvar(z, d)
        for n in range(0, d + 3):
            assert _eval_middle(z, n, d) == _eval_middle(w, n, d)


def _eval_middle(x: Element, n: int, d: int):
    """Evaluate every term's middle at H2 = n, H1 = d - n, keyed by (a, c)."""
    from schur2.ivpoly import binom

    out: dict[tuple[int, int], Fraction] = {}
    for (a, b1, b2, c), q in x.terms.items():
        val = q * binom(d - n, b1) * binom(n, b2)
        key = (a, c)
        out[key] = out.get(key, Fraction(0)) + val
    return {k: v for k, v in out.items() if v}


def test_symmetry_examples():
    x = Element(Flavor.FHE, {(2, 0, 1, 1): 1})  # F(2) binom(H2,1) E(1)
    y = x.symmetry()
    assert y.flavor is Flavor.EHF
    assert y.terms == {(2, 1, 0, 1): 1}  # E(2) binom(H1,1) F(1)
    assert y.symmetry() == x


def test_symmetry_is_multiplicative():
    rng = random.Random(71)
    for _ in range(15):
        x = _random_element(rng, Flavor.FHE, max_exp=2, nterms=2)
        y = _random_element(rng, Flavor.FHE, max_exp=2, nterms=2)
        assert mul(x, y).symmetry() == mul(x.symmetry(), y.symmetry())


def test_degree_and_height():
    assert degree_of((1, 2, 0, 3)) == 6
    assert height_of((1, 2, 0, 3)) == 4
    x = Element(Flavor.FHE, {(1, 0, 0, 0): 1, (0, 2, 1, 1): 1})
    assert x.degree() == 4
    assert x.height() == 1
    assert Element.zero().degree() == -1


def test_single_var_terms_guard():
    ok = Element(Flavor.FHE, {(1, 0, 2, 0): 1})
    assert ok.single_var_terms() == {(1, 2, 0): 1}
    bad = Element(Flavor.FHE, {(0, 1, 0, 0): 1})
    with pytest.raises(ValueError):
        bad.single_var_terms()
    ehf = Element(Flavor.EHF, {(1, 2, 0, 0): 1})
    assert ehf.single_var_terms() == {(1, 2, 0): 1}


def test_flavor_mismatch_rejected():
    x = Element.one(Flavor.FHE)
    y = Element.one(Flavor.EHF)
    with pytest.raises(ValueError):
        mul(x, y)
    with pytest.raises(ValueError):
        _ = x + y


def test_render_element():
    x = Element(Flavor.FHE, {(1, 0, 1, 1): 1, (0, 0, 0, 0): -2})
    s = render_element(x)
    assert s == "-2 + F(1)*binom(H2,1)*E(1)"
    assert render_element(Element.zero()) == "0"
    half = Element(Flavor.FHE, {(0, 0, 2, 0): Fraction(1, 2)})
    assert render_element(half) == "1/2*binom(H2,2)"
    # Negative leading terms, Fraction magnitudes and zero.
    lead = Element(Flavor.FHE, {(1, 0, 0, 0): -1, (0, 0, 0, 1): Fraction(-3, 2)})
    assert render_element(lead) == "-3/2*E(1) - F(1)"
    mixed = Element(Flavor.EHF, {(0, 0, 0, 0): Fraction(-5, 3), (1, 1, 0, 0): Fraction(7, 2)})
    assert render_element(mixed) == "-5/3 + 7/2*E(1)*binom(H1,1)"
    assert render_element(Element(Flavor.EHF, {(1, 0, 0, 0): 0})) == "0"


def test_ehf_mul_mirrors_fhe():
    # In EHF the letters swap roles: f e^(1) = e^(1) f + ...
    e = Element.generator("e", Flavor.EHF)
    f = Element.generator("f", Flavor.EHF)
    fe = mul(f, e)
    assert fe.terms == {(1, 0, 0, 1): 1, (0, 0, 1, 0): 1, (0, 1, 0, 0): -1}
