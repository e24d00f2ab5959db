"""Truncated algebra: basis, reduction, products, conversions, relations."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from schur2 import algebra, clear_caches, elements
from schur2.algebra import (
    SchurContext,
    _collision_table,
    basis,
    check_relations,
    dimension,
    expected_h_min_poly,
    expected_h_var_min_poly,
    from_h_basis,
    from_power_basis,
    min_poly,
    mul_bd,
    normalize,
    quotient_map_check,
    reduce_monomial,
    structure_constants,
    to_h_basis,
    to_power_basis,
)
from schur2.elements import Element, Flavor, mul, substitute_offvar
from schur2.qpoly import pfrom_roots, pmul, ptrim


def test_dimension():
    assert [dimension(d) for d in range(6)] == [1, 4, 10, 20, 35, 56]


def test_basis_shape_and_order():
    ctx = SchurContext(2)
    monos = basis(ctx)
    assert len(monos) == dimension(2) == 10
    assert monos == sorted(monos)
    assert monos[0] == (0, 0, 0)
    assert all(a + b + c <= 2 for (a, b, c) in monos)
    assert len(basis(SchurContext(0))) == 1
    for d in range(8):
        assert len(basis(SchurContext(d))) == dimension(d)


def test_reduce_monomial_frozen_cases():
    ctx1 = SchurContext(1)
    assert reduce_monomial(1, 0, 1, ctx1).single_var_terms() == {(0, 1, 0): 1}
    assert reduce_monomial(1, 1, 0, ctx1).is_zero()
    assert reduce_monomial(0, 0, 2, ctx1).is_zero()
    ctx2 = SchurContext(2)
    assert reduce_monomial(1, 1, 1, ctx2).single_var_terms() == {(0, 2, 0): 2}
    # Monomials already inside the span are fixed.
    assert reduce_monomial(1, 1, 0, ctx2).single_var_terms() == {(1, 1, 0): 1}
    for d in range(4):
        ctx = SchurContext(d)
        assert reduce_monomial(0, 0, d + 1, ctx).is_zero()
        assert reduce_monomial(d + 1, 0, 0, ctx).is_zero()


def test_reduce_monomial_drops_degree_and_height():
    for d in range(6):
        ctx = SchurContext(d)
        for a in range(d + 2):
            for b in range(d + 2 - a):
                c = d + 1 - a - b
                out = reduce_monomial(a, b, c, ctx)
                for (aa, bb, cc) in out.single_var_terms():
                    assert aa + bb + cc <= d
                    assert aa + cc < a + c


def test_normalize_frozen_cases():
    ctx1 = SchurContext(1)
    x = Element.monomial(1, 1, 0)
    assert normalize(x, ctx1).is_zero()
    ctx2 = SchurContext(2)
    y = Element.monomial(0, 2, 0) + Element.monomial(1, 1, 1)
    assert normalize(y, ctx2).single_var_terms() == {(0, 2, 0): 3}


def test_normalize_idempotent_and_in_span():
    rng = random.Random(73)
    for _ in range(40):
        d = rng.randint(0, 4)
        ctx = SchurContext(d)
        terms = {}
        for _ in range(3):
            key = (
                rng.randint(0, 3),
                rng.randint(0, 2),
                rng.randint(0, 2),
                rng.randint(0, 3),
            )
            terms[key] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        x = Element(Flavor.FHE, terms)
        y = normalize(x, ctx)
        assert normalize(y, ctx) == y
        assert all(a + b + c <= d for (a, b, c) in y.single_var_terms())


def test_mul_bd_frozen_cases():
    ctx = SchurContext(2)
    e = Element.generator("e")
    f = Element.generator("f")
    ef = mul_bd(e, f, ctx)
    assert ef.single_var_terms() == {(1, 0, 1): 1, (0, 0, 0): 2, (0, 1, 0): -2}
    e2 = Element.divided_power("e", 2)
    assert mul_bd(e2, e, ctx).is_zero()
    one = Element.one()
    x = Element(Flavor.FHE, {(1, 0, 1, 1): Fraction(1, 3), (0, 2, 0, 0): 1})
    assert mul_bd(x, one, ctx) == normalize(x, ctx)
    assert mul_bd(one, x, ctx) == normalize(x, ctx)


def test_mul_bd_agrees_with_untruncated_product():
    # Two engines: mul_bd (Kostant's formula in the flavor's own variable)
    # against U-mode straightening followed by normalize. Inputs leave the
    # basis: exponents run above d, and terms carry the off-flavor variable
    # (H1 in FHE, H2 in EHF).
    rng = random.Random(79)
    for d in range(7):
        for flavor in (Flavor.FHE, Flavor.EHF):
            ctx = SchurContext(d, flavor)
            for _ in range(3):
                x = _random_element(rng, flavor, max_exp=d + 2)
                y = _random_element(rng, flavor, max_exp=d + 2)
                assert mul_bd(x, y, ctx) == normalize(mul(x, y), ctx)


def test_collision_table_matches_u_mode_product():
    # The truncated product's kernel against the U-mode engine, on every
    # collision binom(H,b) R^(c) * L^(a2) binom(H,b2) of two basis monomials.
    for d in range(7):
        for flavor in (Flavor.FHE, Flavor.EHF):
            for b in range(d + 1):
                for c in range(d + 1 - b):
                    left = Element.monomial(0, b, c, flavor)
                    for a2 in range(d + 1):
                        for b2 in range(d + 1 - a2):
                            right = Element.monomial(a2, b2, 0, flavor)
                            product = substitute_offvar(mul(left, right), d)
                            grouped: dict[tuple[int, int], list[tuple[int, int]]] = {}
                            for (aa, m, cc), q in product.single_var_terms().items():
                                grouped.setdefault((aa, cc), []).append((m, q))
                            expected = tuple(
                                (aa, cc, tuple(sorted(mids)))
                                for (aa, cc), mids in sorted(grouped.items())
                            )
                            assert _collision_table(d, b, c, a2, b2) == expected


def _random_element(rng, flavor, max_exp=2, nterms=3):
    terms = {}
    for _ in range(nterms):
        key = (
            rng.randint(0, max_exp),
            rng.randint(0, max_exp),
            rng.randint(0, max_exp),
            rng.randint(0, max_exp),
        )
        terms[key] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return Element(flavor, terms)


# The complete multiplication table at d = 1 over the ordered basis
# 1, E(1), binom(H2,1), F(1); rows absent from this dict are zero products.
_D1_TABLE = {
    (0, 0): ((0, 1),),
    (0, 1): ((1, 1),),
    (0, 2): ((2, 1),),
    (0, 3): ((3, 1),),
    (1, 0): ((1, 1),),
    (1, 2): ((1, 1),),
    (1, 3): ((0, 1), (2, -1)),
    (2, 0): ((2, 1),),
    (2, 2): ((2, 1),),
    (2, 3): ((3, 1),),
    (3, 0): ((3, 1),),
    (3, 1): ((2, 1),),
}


def test_structure_constants_d1_full_table():
    table = structure_constants(SchurContext(1))
    assert table.basis == ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0))
    for i in range(4):
        for j in range(4):
            assert table.products[(i, j)] == _D1_TABLE.get((i, j), ()), (i, j)
    assert table.is_integral()


def test_structure_constants_identity_rows():
    for d in range(4):
        table = structure_constants(SchurContext(d))
        n = len(table.basis)
        assert table.basis[0] == (0, 0, 0)
        for j in range(n):
            assert table.products[(0, j)] == ((j, 1),)
            assert table.products[(j, 0)] == ((j, 1),)


def test_structure_constants_match_mul_bd_pairwise():
    # structure_constants runs the product kernel on basis triples directly;
    # the reference builds every entry from mul_bd on basis elements.
    for flavor in Flavor:
        for d in range(6):
            ctx = SchurContext(d, flavor)
            monos = basis(ctx)
            index = {mono: k for k, mono in enumerate(monos)}
            elems = [Element.monomial(*mono, flavor) for mono in monos]
            expected = {
                (i, j): tuple(
                    sorted((index[m], q) for m, q in mul_bd(x, y, ctx).single_var_terms().items())
                )
                for i, x in enumerate(elems)
                for j, y in enumerate(elems)
            }
            assert structure_constants(ctx).products == expected, (flavor, d)


def test_structure_constants_integral():
    for d in range(5):
        assert structure_constants(SchurContext(d)).is_integral()


def test_flavors_share_one_table():
    for d in range(1, 4):
        fhe = structure_constants(SchurContext(d, Flavor.FHE))
        ehf = structure_constants(SchurContext(d, Flavor.EHF))
        assert fhe.basis == ehf.basis
        assert fhe.products == ehf.products


def test_to_power_basis_frozen():
    ctx = SchurContext(3)
    f2 = Element.divided_power("f", 2)
    assert to_power_basis(f2, ctx) == {(2, 0, 0): Fraction(1, 2)}
    b2 = Element.monomial(0, 2, 0)
    assert to_power_basis(b2, ctx) == {
        (0, 2, 0): Fraction(1, 2),
        (0, 1, 0): Fraction(-1, 2),
    }
    one = Element.one()
    assert to_power_basis(one, ctx) == {(0, 0, 0): Fraction(1)}


def test_power_basis_round_trip():
    rng = random.Random(83)
    ctx = SchurContext(3)
    for _ in range(25):
        x = normalize(_random_element(rng, Flavor.FHE), ctx)
        coeffs = to_power_basis(x, ctx)
        assert from_power_basis(coeffs, ctx) == x


def test_to_h_basis_frozen():
    ctx = SchurContext(2)
    h2 = Element.generator("H2")
    assert to_h_basis(h2, ctx) == {(0, 0, 0): Fraction(1), (0, 1, 0): Fraction(-1, 2)}
    h = Element.generator("h")
    assert to_h_basis(h, ctx) == {(0, 1, 0): Fraction(1)}


def test_h_basis_round_trip():
    rng = random.Random(89)
    for flavor in (Flavor.FHE, Flavor.EHF):
        ctx = SchurContext(2, flavor)
        for _ in range(20):
            x = normalize(_random_element(rng, flavor), ctx)
            coeffs = to_h_basis(x, ctx)
            assert from_h_basis(coeffs, ctx) == x


def test_min_poly_frozen():
    ctx3 = SchurContext(3)
    h1 = Element.generator("H1")
    p = min_poly(h1, ctx3)
    assert p == ptrim([0, -6, 11, -6, 1])
    assert p == expected_h_var_min_poly(3)
    ctx2 = SchurContext(2)
    h = Element.generator("h")
    q = min_poly(h, ctx2)
    assert q == ptrim([0, -4, 0, 1])
    assert q == expected_h_min_poly(2)
    assert min_poly(Element.one(), ctx2) == ptrim([-1, 1])
    assert min_poly(Element.zero(), ctx2) == ptrim([0, 1])


def test_min_poly_degrees():
    for d in range(5):
        ctx = SchurContext(d)
        for name in ("H1", "H2"):
            p = min_poly(Element.generator(name), ctx)
            assert len(p) - 1 == d + 1
            assert p == expected_h_var_min_poly(d)
        h = min_poly(Element.generator("h"), ctx)
        assert h == expected_h_min_poly(d)
        assert len(h) - 1 == d + 1


@pytest.mark.parametrize("d", [6, 10])
def test_min_poly_builds_each_row_once(monkeypatch, d):
    # x = 2h + 3e - 5f is semisimple in sl2 with x^2 acting on weight m as
    # (4 - 15) m^2, so its minimal polynomial on S(2,d), a sum of the simple
    # modules of highest weight d, d-2, ..., is the product of T^2 + 11 m^2
    # over m = d, d-2, ... > 0, times T when d is even.
    ctx = SchurContext(d)
    e, f, h = (Element.generator(g) for g in "efh")
    x = 2 * h + 3 * e - 5 * f
    expected = ptrim([0, 1]) if d % 2 == 0 else ptrim([1])
    for m in range(d, 0, -2):
        expected = pmul(expected, ptrim([11 * m * m, 0, 1]))
    calls = []
    original = algebra._add_product

    def counting_add_product(*args):
        calls.append(1)
        return original(*args)

    def no_mul_bd(*args):
        raise AssertionError("min_poly must not call mul_bd")

    monkeypatch.setattr(algebra, "_add_product", counting_add_product)
    monkeypatch.setattr(algebra, "mul_bd", no_mul_bd)
    assert min_poly(x, ctx) == expected
    assert 0 < len(calls) <= dimension(d) * len(normalize(x, ctx).terms)


def test_expected_min_polys():
    assert expected_h_var_min_poly(1) == pfrom_roots([0, 1])
    assert expected_h_min_poly(1) == pfrom_roots([1, -1])
    assert expected_h_min_poly(3) == pfrom_roots([3, 1, -1, -3])
    # Repeated weights collapse: d = 2 has weights 2, 0, -2 once each.
    assert expected_h_min_poly(2) == pfrom_roots([2, 0, -2])


def test_relations_pass():
    for d in range(5):
        for flavor in (Flavor.FHE, Flavor.EHF):
            report = check_relations(SchurContext(d, flavor))
            assert report.all_passed, [c.name for c in report.failures()]
            assert len(report.checks) >= 14


def test_relation_count_grows_with_d():
    assert len(check_relations(SchurContext(0)).checks) == 18
    assert len(check_relations(SchurContext(2)).checks) == 24


def test_perturbed_relation_fails():
    ctx = SchurContext(2)
    e = Element.generator("e")
    f = Element.generator("f")
    h = Element.generator("h")
    wrong = mul(e, f) - mul(f, e) - h - Element.one()
    assert not normalize(wrong, ctx).is_zero()


def test_quotient_map_check(monkeypatch):
    calls = []

    def counting_mul(x, y):
        calls.append(1)
        return mul(x, y)

    # The (d+2)-truncation product is multiplied inside S(2,d): no U-mode product.
    monkeypatch.setattr(algebra, "mul", counting_mul)
    monkeypatch.setattr(elements, "mul", counting_mul)
    for d in (0, 1, 2, 4, 9):
        assert quotient_map_check(SchurContext(d))
        assert quotient_map_check(SchurContext(d, Flavor.EHF))
    assert not calls
    monkeypatch.undo()

    # Without the truncation the product survives, so the check is not vacuous.
    clear_caches()
    monkeypatch.setattr(algebra, "_reduce_table", lambda d, a, b, c: (((a, b, c), 1),))
    try:
        for d in (0, 1, 4):
            assert not quotient_map_check(SchurContext(d))
            assert not quotient_map_check(SchurContext(d, Flavor.EHF))
    finally:
        monkeypatch.undo()
        clear_caches()
    assert quotient_map_check(SchurContext(4))


def test_context_rejects_negative_d():
    with pytest.raises(ValueError):
        SchurContext(-1)


def test_mul_bd_flavor_mismatch():
    ctx = SchurContext(1)
    x = Element.one(Flavor.EHF)
    with pytest.raises(ValueError):
        mul_bd(x, x, ctx)
    with pytest.raises(ValueError):
        normalize(x, ctx)
