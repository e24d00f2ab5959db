"""Normal-order elements and straightening in the untruncated algebra.

The heavyweight check here re-derives products of monomials by peeling one
plain right letter at a time across the left block, using nothing but the
one-step commutation rule e f^(a) = f^(a) e + f^(a-1) (H1 - H2 - a + 1) (or
its mirror image) together with polynomial shifts on binomial-coefficient
tuples, and compares against the closed-form straightening product.
"""

from __future__ import annotations

import functools
import math
import pickle
import random
from fractions import Fraction

import pytest

from schur2 import elements
from schur2.elements import Element, Flavor, mul, render_element, substitute_offvar
from schur2.ivpoly import binom, binom_product_coeffs

# g P(H1, H2) = P(H1 + s1, H2 + s2) g for the letter g; (s1, s2) by letter.
_SHIFTS = {"e": (-1, 1), "f": (1, -1)}


# The divided-power merge and the polynomial shift past a letter have no
# helper of their own; both are checked on the products mul builds.


def _merge_holds(i: int, j: int, coef: int) -> None:
    """T^(i) T^(j) = coef T^(i+j) for either letter, in both flavors."""
    for flavor in (Flavor.FHE, Flavor.EHF):
        for letter in ("e", "f"):
            x, y = (Element.divided_power(letter, k, flavor) for k in (i, j))
            assert mul(x, y) == Element.divided_power(letter, i + j, flavor).scale(coef)


def test_fdiv_merge_examples():
    for i, j, coef in ((2, 3, 10), (0, 4, 1), (1, 1, 2), (3, 3, 20)):
        _merge_holds(i, j, coef)


def test_fdiv_merge_matches_factorials():
    rng = random.Random(47)
    for _ in range(100):
        i, j = rng.randint(0, 8), rng.randint(0, 8)
        _merge_holds(i, j, math.factorial(i + j) // (math.factorial(i) * math.factorial(j)))


def _poly_element(var: str, coeffs, flavor: Flavor) -> Element:
    """P = sum coeffs[b] binom(var, b) as an element."""
    return Element(flavor, {(0, b, 0, 0) if var == "H1" else (0, 0, b, 0): q for b, q in enumerate(coeffs)})


def test_commute_poly_left_shifts():
    # e binom(H2,1) = (binom(H2,1) + 1) e and binom(H1,1) f = f (binom(H1,1) - 1).
    e, f = Element.generator("e"), Element.generator("f")
    assert mul(e, Element.h_binomial("H2", 1)).terms == {(0, 0, 1, 1): 1, (0, 0, 0, 1): 1}
    assert mul(Element.h_binomial("H1", 1), f).terms == {(1, 1, 0, 0): 1, (1, 0, 0, 0): -1}
    # A constant passes a letter unchanged.
    five = Element.h_binomial("H1", 0).scale(5)
    assert mul(e, five) == mul(five, e) == e.scale(5)


def test_commute_poly_left_pointwise():
    # R P(H) = P(H + s) R for the right letter R, and P(H) L = L P(H - s) for
    # the left letter L, checked pointwise on a grid in H1 and H2.
    rng = random.Random(53)
    for _ in range(50):
        var = rng.choice(["H1", "H2"])
        coeffs = [rng.randint(-4, 4) for _ in range(rng.randint(1, 5))]
        for flavor in (Flavor.FHE, Flavor.EHF):
            left, right = flavor.letters
            p = _poly_element(var, coeffs, flavor)
            for out, key, letter, sign in (
                (mul(Element.divided_power(right, 1, flavor), p), (0, 1), right, 1),
                (mul(p, Element.divided_power(left, 1, flavor)), (1, 0), left, -1),
            ):
                shift = sign * _SHIFTS[letter][var == "H2"]
                for n1 in range(-3, 8):
                    for n2 in range(-3, 8):
                        n = n1 if var == "H1" else n2
                        want = sum(q * binom(n + shift, b) for b, q in enumerate(coeffs))
                        assert _eval_middle_at(out, n1, n2) == ({key: want} if want else {})


def _eval_middle_at(x: Element, n1: int, n2: int) -> dict[tuple[int, int], Fraction]:
    """Every term's middle at H1 = n1, H2 = n2, summed by (a, c); zeros dropped."""
    out: dict[tuple[int, int], Fraction] = {}
    for (a, b1, b2, c), q in x.terms.items():
        out[(a, c)] = out.get((a, c), 0) + q * binom(n1, b1) * binom(n2, b2)
    return {key: v for key, v in out.items() if v}


def test_commute_e_past_fdiv_small():
    # e f^(k) = f^(k) e + f^(k-1) (H1 - H2 - k + 1), and its EHF mirror
    # f e^(k) = e^(k) f + e^(k-1) (H2 - H1 - k + 1).
    def e_past_f(k, flavor=Flavor.FHE):
        left, right = flavor.letters
        return mul(Element.divided_power(right, 1, flavor), Element.divided_power(left, k, flavor))

    assert e_past_f(1).terms == {(1, 0, 0, 1): 1, (0, 1, 0, 0): 1, (0, 0, 1, 0): -1}
    collapsed = substitute_offvar(e_past_f(1), 1)
    assert collapsed.terms == {(1, 0, 0, 1): 1, (0, 0, 0, 0): 1, (0, 0, 1, 0): -2}
    assert e_past_f(2).terms == {
        (2, 0, 0, 1): 1,
        (1, 1, 0, 0): 1,
        (1, 0, 1, 0): -1,
        (1, 0, 0, 0): -1,
    }
    assert e_past_f(1, Flavor.EHF).terms == {(1, 0, 0, 1): 1, (0, 1, 0, 0): -1, (0, 0, 1, 0): 1}


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


def test_mul_pair_cache_matches_per_term_body():
    rng = random.Random(73)
    for flavor in (Flavor.FHE, Flavor.EHF):
        for _ in range(8):
            x = _random_element(rng, flavor, max_exp=3, nterms=4)
            y = _random_element(rng, flavor, max_exp=3, nterms=3)
            expected = _peel_mul(x, y)
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


def _trim(p: list[int]) -> tuple[int, ...]:
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def _shift(p: tuple[int, ...], s: int) -> tuple[int, ...]:
    """P(H+s), by Chu-Vandermonde: binom(H+s,b) = sum_j binom(s,b-j) binom(H,j)."""
    out = [0] * len(p)
    for b, c in enumerate(p):
        for j in range(b + 1):
            out[j] += c * binom(s, b - j)
    return _trim(out)


def _times(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """P*Q over the binomial basis, through binom_product_coeffs."""
    out = [0] * (len(p) + len(q))
    for i, ci in enumerate(p):
        for j, cj in enumerate(q):
            for k, ck in enumerate(binom_product_coeffs(i, j)):
                out[k] += ci * cj * ck
    return _trim(out)


def _peel_mul(x: Element, y: Element) -> Element:
    """x*y rebuilt from the one-step rule, bypassing the pair products of mul.

    A state term q * L^(a) m1(H1) m2(H2) R^(c) is keyed (a, m1, m2, c), with m1
    and m2 coefficient tuples over binom(H1, .) and binom(H2, .). For each term
    L^(a) P R^(c) of x, y is multiplied on the left by c plain right letters
    R, each through
        R L^(a) = L^(a) R + L^(a-1) (D - a + 1),  D = H1 - H2 (FHE), H2 - H1 (EHF),
    a shift of the middle (R through it) and R R^(c) = (c+1) R^(c+1), and
    divided by c!; then by P, moved right past the left letters; then by
    L^(a), with L^(a) L^(a2) = comb(a+a2, a) L^(a+a2).
    """
    flavor = x.flavor
    left, right = flavor.letters
    (r1, r2), (l1, l2) = _SHIFTS[right], _SHIFTS[left]
    one, var = (1,), (0, 1)  # the polynomials 1 and binom(H, 1)
    terms: dict[tuple[int, int, int, int], Fraction] = {}

    def add(dst, key, q):
        dst[key] = dst.get(key, 0) + q

    for (a, b1, b2, c), qx in x.terms.items():
        state = {}
        for (a2, p1, p2, c2), qy in y.terms.items():
            add(state, (a2, (0,) * p1 + one, (0,) * p2 + one, c2), Fraction(qx * qy))
        for _ in range(c):
            nxt = {}
            for (a2, m1, m2, c2), q in state.items():
                add(nxt, (a2, _shift(m1, r1), _shift(m2, r2), c2 + 1), q * math.comb(c2 + 1, 1))
                if a2 >= 1:
                    # D - a2 + 1 = binom(up,1) + (1 - a2) - binom(down,1).
                    lin = (1 - a2, 1)
                    up, down = (_times(m1, lin), m2), (m1, _times(m2, var))
                    if flavor is Flavor.EHF:
                        up, down = (m1, _times(m2, lin)), (_times(m1, var), m2)
                    add(nxt, (a2 - 1, *up, c2), q)
                    add(nxt, (a2 - 1, *down, c2), -q)
            state = nxt
        for (a2, m1, m2, c2), q in state.items():
            p1, p2 = (0,) * b1 + one, (0,) * b2 + one
            p1, p2 = _shift(p1, -a2 * l1), _shift(p2, -a2 * l2)
            q = q * math.comb(a + a2, a) / math.factorial(c)
            for i, ci in enumerate(_times(p1, m1)):
                for j, cj in enumerate(_times(p2, m2)):
                    add(terms, (a + a2, i, j, c2), q * ci * cj)
    return Element(flavor, terms)


def test_straightening_matches_one_step_peeling():
    for flavor in (Flavor.FHE, Flavor.EHF):
        left, right = flavor.letters
        for r in range(1, 7):
            for s in range(0, 7):
                x = Element.divided_power(right, r, flavor)
                y = Element.divided_power(left, s, flavor)
                assert mul(x, y) == _peel_mul(x, y), (flavor, r, s)


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
    assert Element(Flavor.FHE, {(1, 2, 0, 3): 1}).degree() == 6
    x = Element(Flavor.FHE, {(1, 0, 0, 0): 1, (0, 2, 1, 1): 1})
    assert x.degree() == 4
    assert Element.zero().degree() == -1


def test_single_var_terms_guard():
    ok = Element(Flavor.FHE, {(1, 0, 2, 0): 1})
    assert ok.single_var_terms() == {(1, 2, 0): 1}
    bad = Element(Flavor.FHE, {(0, 1, 0, 0): 1})
    with pytest.raises(ValueError):
        bad.single_var_terms()
    ehf = Element(Flavor.EHF, {(1, 2, 0, 0): 1})
    assert ehf.single_var_terms() == {(1, 2, 0): 1}


def test_flavor_hashes_by_identity():
    @functools.lru_cache(maxsize=None)
    def letters(flavor):
        return flavor.letters

    table = {Flavor.FHE: "fhe", Flavor.EHF: "ehf"}
    for flavor in (Flavor.FHE, Flavor.EHF, Flavor.FHE):
        assert hash(flavor) == object.__hash__(flavor)
        assert table[Flavor(flavor.value)] == flavor.value
        assert letters(flavor) == flavor.letters
        assert pickle.loads(pickle.dumps(flavor)) is flavor
    assert letters.cache_info().hits == 1 and letters.cache_info().misses == 2


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


def _repeated_mul(x, shifts):
    """The reference: (x - s_0)(x - s_1)... by U-mode mul, one partial product per prefix."""
    acc = Element.one(x.flavor)
    out = [acc]
    for s in shifts:
        acc = mul(acc, x - Element.scalar(s, x.flavor))
        out.append(acc)
    return out


def _linear_bases(flavor):
    keys = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, 0))

    def element(*coefs):
        return Element(flavor, dict(zip(keys, coefs)))

    return [
        element(-1, 1, -1, 2, 0),  # -e + 2f - h (FHE), integer coefficients
        element(Fraction(1, 2), 0, Fraction(-2, 3), 3, 0),  # Fraction coefficients
        element(2, 0, 0, -1, 5),  # both letters, no H, a constant term
        element(0, Fraction(3, 2), -1, 0, Fraction(-1, 4)),  # Cartan part with a constant
        element(0, 0, 1, 4, 0),  # one letter and its commuting H
        element(1, 1, 0, 0, -3),
        Element.zero(flavor),
        Element.scalar(Fraction(7, 3), flavor),
    ]


def test_linear_product_matches_repeated_mul():
    shift_lists = ([0] * 10, [3, -1, 0, 2, Fraction(1, 2), -4, 1, 0, 5, -2])
    for flavor in (Flavor.FHE, Flavor.EHF):
        for x in _linear_bases(flavor):
            for shifts in shift_lists:
                want = _repeated_mul(x, shifts)
                for k in range(11):
                    assert elements.linear_product(x, shifts[:k]) == want[k], (flavor, x, shifts[:k])


def test_linear_product_moves_to_python_ints(monkeypatch):
    dtypes = []
    apply_right = elements.matrices.apply_right

    def recording(v, *args):
        out = apply_right(v, *args)
        dtypes.append((v.dtype, out.dtype))
        return out

    monkeypatch.setattr(elements.matrices, "apply_right", recording)
    for big, small in ((10**12, 1), (50, 50)):
        runs = []
        for flavor in (Flavor.FHE, Flavor.EHF):
            # big*e + small*f + small*h: the products pass int64 after one step, or after several.
            x = Element(flavor, {(1, 0, 0, 0): big, (0, 0, 0, 1): small, (0, 1, 0, 0): small, (0, 0, 1, 0): -small})
            want = _repeated_mul(x, [0] * 10)
            for k in range(11):
                dtypes.clear()
                assert elements.linear_product(x, [0] * k) == want[k], (big, flavor, k)
                runs.append(list(dtypes))
        # Some run starts in int64 and ends on Python ints.
        assert any(run and run[0][0] != object and run[-1][1] == object for run in runs), big


def test_linear_product_rejects_higher_degree():
    with pytest.raises(ValueError):
        elements.linear_product(mul(Element.generator("e"), Element.generator("f")), [0, 0])
    with pytest.raises(ValueError):
        elements.linear_product(Element.divided_power("e", 2), [0])
    assert elements.linear_product(Element.generator("h"), []) == Element.one()


def test_clear_caches_skips_classes(monkeypatch):
    import schur2

    class WithCacheClear:
        def cache_clear(self):
            raise AssertionError("an instance method is not a function cache")

    monkeypatch.setattr(elements, "WithCacheClear", WithCacheClear, raising=False)
    mul(Element.generator("e"), Element.generator("f"))
    elements.linear_product(Element.generator("h"), [0, 0])
    schur2.clear_caches()
    assert elements._mono_mul.cache_info().currsize == 0
    assert elements._right_letters.cache_info().currsize == 0
