"""Expression parsing, lowering to elements, and printer round-trips."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from schur2.elements import Element, Flavor, mul, render_element
from schur2.exprs import (
    MAX_NESTING,
    DividedPower,
    Gen,
    HBinom,
    Neg,
    ParseError,
    Pow,
    Prod,
    ScalarLit,
    Sum,
    lower,
    parse,
    parse_element,
    render_plain_terms,
)


def test_ast_shapes():
    node = parse("e*f - f*e")
    assert node == Sum(Prod(Gen("e"), Gen("f")), Neg(Prod(Gen("f"), Gen("e"))))
    assert parse("f^2") == Pow(Gen("f"), 2)
    assert parse("E(3)") == DividedPower("e", 3)
    assert parse("binom(H2,4)") == HBinom("H2", 4)
    assert parse("3/4") == ScalarLit(Fraction(3, 4))
    assert parse("7") == ScalarLit(Fraction(7))


def test_precedence():
    # ^ over * over +; subtraction associates left.
    assert parse("e + f*h") == Sum(Gen("e"), Prod(Gen("f"), Gen("h")))
    assert parse("e*f^2") == Prod(Gen("e"), Pow(Gen("f"), 2))
    assert parse("e - f - h") == Sum(Sum(Gen("e"), Neg(Gen("f"))), Neg(Gen("h")))
    assert parse("(e + f)*h") == Prod(Sum(Gen("e"), Gen("f")), Gen("h"))


def test_parens_and_unary_minus():
    assert parse("-e") == Neg(Gen("e"))
    assert parse("-(e + f)") == Neg(Sum(Gen("e"), Gen("f")))
    assert parse("((h))") == Gen("h")
    assert parse("-2*e") == Neg(Prod(ScalarLit(Fraction(2)), Gen("e")))


def test_whitespace_insensitive():
    assert parse(" e * f ") == parse("e*f")
    assert parse("binom( H1 , 2 )") == parse("binom(H1,2)")
    assert parse("e ") == Gen("e")


def test_lower_divided_powers():
    x = parse_element("f^2")
    assert x == Element.divided_power("f", 2).scale(2)
    y = parse_element("e^3")
    assert y == Element.divided_power("e", 3).scale(6)
    z = parse_element("F(2)")
    assert z == Element.divided_power("f", 2)


def test_lower_general_powers():
    x = parse_element("h^2")
    h = Element.generator("h")
    assert x == mul(h, h)
    assert parse_element("h^0") == Element.one()
    assert parse_element("(e*f)^2") == mul(mul(Element.generator("e"), Element.generator("f")), mul(Element.generator("e"), Element.generator("f")))


def test_lower_scalars_and_sums():
    x = parse_element("1/2*binom(H2,1) - 3")
    expected = Element.h_binomial("H2", 1).scale(Fraction(1, 2)) - Element.scalar(3)
    assert x == expected


def test_lower_flavor():
    x = parse_element("e*f", Flavor.EHF)
    e = Element.generator("e", Flavor.EHF)
    f = Element.generator("f", Flavor.EHF)
    assert x == mul(e, f)
    assert x.flavor is Flavor.EHF


def test_parse_error_end_of_input():
    with pytest.raises(ParseError) as info:
        parse("e*")
    err = info.value
    assert err.offset == 2
    assert "end of input" in str(err)
    assert "binom(" in err.expected


def test_long_chains_lower_in_order():
    # Sums and products are folded in a loop, so their length costs no stack.
    assert parse_element("+".join(["e"] * 5000)) == Element.generator("e").scale(5000)
    assert parse_element("*".join(["2", "1/2"] * 2500)) == Element.one()
    # The fold keeps the left-to-right order of the factors.
    e, f, h = (Element.generator(name) for name in "efh")
    assert parse_element("e*f*h*e - f") == mul(mul(mul(e, f), h), e) - f


def test_parse_error_nesting_too_deep():
    # The deepest nesting allowed lowers, with every kind of node at each level.
    text = "e"
    for _ in range(MAX_NESTING):
        text = f"-({text})^1*e + e"
    assert parse_element(text).degree() == MAX_NESTING + 1
    with pytest.raises(ParseError) as info:
        parse("(" * (MAX_NESTING + 1) + "e" + ")" * (MAX_NESTING + 1))
    assert info.value.offset == MAX_NESTING
    assert "nested deeper" in str(info.value)


def test_parse_error_trailing_garbage():
    with pytest.raises(ParseError) as info:
        parse("e f")
    assert info.value.offset == 2


def test_parse_error_unknown_character():
    with pytest.raises(ParseError) as info:
        parse("e @ f")
    assert info.value.offset == 2


def test_parse_error_unknown_name():
    with pytest.raises(ParseError) as info:
        parse("e * g")
    assert info.value.offset == 4
    with pytest.raises(ParseError):
        parse("binom(h,2)")


def test_parse_error_zero_denominator():
    with pytest.raises(ParseError) as info:
        parse("1/0")
    assert "zero denominator" in str(info.value)


def test_parse_error_bad_exponent():
    with pytest.raises(ParseError):
        parse("e^f")
    with pytest.raises(ParseError):
        parse("e^(2)")


def test_rendered_elements_reparse():
    rng = random.Random(103)
    for _ in range(40):
        flavor = rng.choice([Flavor.FHE, Flavor.EHF])
        terms = {}
        for _ in range(rng.randint(1, 4)):
            key = (
                rng.randint(0, 3),
                rng.randint(0, 2),
                rng.randint(0, 2),
                rng.randint(0, 3),
            )
            terms[key] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        x = Element(flavor, terms)
        assert parse_element(render_element(x), flavor) == x
    assert parse_element(render_element(Element.zero())) == Element.zero()


def test_render_plain_terms_reparses():
    coeffs = {(1, 1, 1): Fraction(2), (0, 0, 0): Fraction(-1, 2), (2, 0, 0): 1}
    text = render_plain_terms(coeffs, Flavor.FHE, "H2")
    assert text == "-1/2 + 2*f*H2*e + f^2"
    # Reparse and compare against direct lowering of the same data.
    back = parse_element(text)
    expected = Element.zero()
    for (a, b, c), q in coeffs.items():
        mono = parse_element("*".join(["f"] * a + ["H2"] * b + ["e"] * c) or "1")
        expected = expected + mono.scale(q)
    assert back == expected


def test_render_plain_terms_h_middle():
    coeffs = {(0, 2, 0): 1, (1, 0, 1): -1}
    text = render_plain_terms(coeffs, Flavor.FHE, "h")
    assert text == "h^2 - f*e"
    assert render_plain_terms({}, Flavor.FHE, "h") == "0"
    assert render_plain_terms({(0, 0, 0): 0}, Flavor.FHE, "h") == "0"
    # Negative leading terms, Fraction magnitudes and zero.
    coeffs = {(0, 1, 0): Fraction(-3, 4), (1, 0, 0): Fraction(4, 2)}
    assert render_plain_terms(coeffs, Flavor.FHE, "H2") == "-3/4*H2 + 2*f"
    coeffs = {(0, 0, 0): Fraction(-1), (2, 0, 1): Fraction(-5, 6)}
    assert render_plain_terms(coeffs, Flavor.EHF, "H1") == "-1 - 5/6*e^2*f"
    assert render_plain_terms({(1, 0, 0): Fraction(0)}, Flavor.EHF, "H1") == "0"


def test_lower_rejects_foreign_objects():
    with pytest.raises(TypeError):
        lower("not a node")


def test_power_of_linear_base_makes_no_mul_call(monkeypatch):
    from schur2 import elements, exprs

    def no_mul(x, y):
        raise AssertionError("a power of a degree-one base must not call mul")

    monkeypatch.setattr(exprs, "mul", no_mul)
    monkeypatch.setattr(elements, "mul", no_mul)
    for flavor in (Flavor.FHE, Flavor.EHF):
        x = parse_element("(e + f + h)^8", flavor)
        assert x.degree() == 8
    monkeypatch.undo()
    base = parse_element("e + f + h")
    acc = Element.one()
    for _ in range(8):
        acc = mul(acc, base)
    assert parse_element("(e + f + h)^8") == acc


def test_power_of_product_base_keeps_repeated_mul():
    for flavor in (Flavor.FHE, Flavor.EHF):
        e, f = Element.generator("e", flavor), Element.generator("f", flavor)
        assert parse_element("(e*f)^2", flavor) == mul(mul(e, f), mul(e, f))
