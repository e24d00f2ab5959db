"""Truncated algebra: basis, reduction, products, conversions, relations."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from schur2 import algebra, clear_caches, elements, matrices
from schur2.algebra import (
    SchurContext,
    _collision_table,
    basis,
    dimension,
    expected_h_min_poly,
    expected_h_var_min_poly,
    min_poly,
    mul_bd,
    normalize,
    presentation_relations,
    quotient_map_check,
    structure_constants,
    to_h_basis,
    to_power_basis,
)
from schur2.cli import entry
from schur2.elements import Element, Flavor, mul, substitute_offvar
from schur2.exprs import parse_element, render_plain_terms
from schur2.oracle import eval_element, weight_rep
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


def _reduce(a, b, c, ctx):
    """One monomial f^(a) binom(H,b) e^(c) (or its EHF mirror), normalized."""
    return normalize(Element.monomial(a, b, c, ctx.flavor), ctx)


def test_reduce_monomial_frozen_cases():
    for flavor in Flavor:
        ctx1 = SchurContext(1, flavor)
        assert _reduce(1, 0, 1, ctx1).single_var_terms() == {(0, 1, 0): 1}
        assert _reduce(1, 1, 0, ctx1).is_zero()
        assert _reduce(0, 0, 2, ctx1).is_zero()
        ctx2 = SchurContext(2, flavor)
        assert _reduce(1, 1, 1, ctx2).single_var_terms() == {(0, 2, 0): 2}
        # Monomials already inside the span are fixed.
        assert _reduce(1, 1, 0, ctx2).single_var_terms() == {(1, 1, 0): 1}
        for d in range(4):
            ctx = SchurContext(d, flavor)
            assert _reduce(0, 0, d + 1, ctx).is_zero()
            assert _reduce(d + 1, 0, 0, ctx).is_zero()


def test_reduce_monomial_drops_degree_and_height():
    for flavor in Flavor:
        for d in range(6):
            ctx = SchurContext(d, flavor)
            for a in range(d + 2):
                for b in range(d + 2 - a):
                    c = d + 1 - a - b
                    out = _reduce(a, b, c, ctx)
                    for (aa, bb, cc) in out.single_var_terms():
                        assert aa + bb + cc <= d
                        assert aa + cc < a + c


def test_normalize_drops_terms_beyond_d_before_substitution(monkeypatch):
    # A term with a letter exponent above d reduces to 0, so normalize drops
    # it before collapsing the off-flavor variable: 9,139 of the 12,301 terms
    # of e^40*f^40 at d = 3. e*f carries H1 and still needs the substitution.
    seen = []

    def recorded(x, d):
        seen.append(x)
        return substitute_offvar(x, d)

    monkeypatch.setattr(algebra, "substitute_offvar", recorded)
    for flavor in Flavor:
        ctx = SchurContext(3, flavor)
        big = parse_element("e^40*f^40", flavor)
        small = parse_element("e*f", flavor)
        assert normalize(big, ctx).is_zero()
        assert normalize(big + small, ctx) == normalize(small, ctx) != Element.zero(flavor)
    assert seen
    assert all(a <= 3 and c <= 3 for x in seen for a, _, _, c in x.terms)


def test_normalize_drops_vanishing_cartan_parts(monkeypatch):
    # binom(H1,b1) binom(H2,b2) vanishes on every weight of S(2,d) once
    # b1 + b2 > d, so normalize and both factors of mul_bd drop such a term
    # before collapsing the off-flavor variable.
    calls = []

    def recorded(x, d):
        calls.append(x)
        return substitute_offvar(x, d)

    monkeypatch.setattr(algebra, "substitute_offvar", recorded)
    for flavor in Flavor:
        ctx = SchurContext(3, flavor)
        right = flavor.letters[1]
        x = parse_element(f"binom(H1,2)*binom(H2,2)*{right}", flavor)
        assert list(x.terms) == [(0, 2, 2, 1)]
        assert normalize(x, ctx).is_zero()
        assert mul_bd(x, x, ctx).is_zero()
    assert not calls


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


def test_large_collision_matches_truncated_product():
    # E(12)*F(12) (FHE) and F(12)*E(12) (EHF) collide in full: t runs to 12
    # and every middle grid is 2-D. At d = 24 nothing truncates, and mul_bd
    # shares no code with U-mode mul.
    for flavor in (Flavor.FHE, Flavor.EHF):
        left, right = flavor.letters
        x = Element.divided_power(right, 12, flavor)
        y = Element.divided_power(left, 12, flavor)
        ctx = SchurContext(24, flavor)
        assert normalize(mul(x, y), ctx) == mul_bd(x, y, ctx)


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


def _per_key_collisions(d):
    """_collision_table on every key (b, c, a2, b2) in base d+1, flattened to CSR lists."""
    ptr, aa, cc, m, q = [0], [], [], [], []
    for b, c, a2, b2 in itertools.product(range(d + 1), repeat=4):
        if b + c <= d and a2 + b2 <= d:
            for x, y, middle in _collision_table(d, b, c, a2, b2):
                for mm, qq in middle:
                    aa.append(x), cc.append(y), m.append(mm), q.append(qq)
        ptr.append(len(q))
    return [ptr, aa, cc, m, q]


def test_collision_csr_matches_per_key_table():
    # The batched fill against the per-key path, key for key. Up to d = 10
    # every chunk runs in int64; at d = 11 and 12 the highest degrees pass
    # the bound and run on Python ints.
    for d in range(13):
        got = algebra._collision_csr(d)
        assert [a.tolist() for a in got] == _per_key_collisions(d), d
        assert got[-1].dtype == (object if d >= 11 else np.int64), d
    _collision_table.cache_clear()


def test_collision_csr_python_int_path(monkeypatch):
    monkeypatch.setattr(algebra, "_INT64_BITS", 0)
    for d in range(7):
        got = algebra._collision_csr(d)
        assert got[-1].dtype == object
        assert all(type(q) is int for q in got[-1])
        assert [a.tolist() for a in got] == _per_key_collisions(d), d


def test_reduction_csr_matches_reduce_table():
    # The kernel's reduction rows, built on arrays, against _reduce_table row
    # for row on every code (A, m, C) of base 2d+1; codes of degree above 2d
    # have empty rows.
    for d in range(13):
        monos = basis(SchurContext(d))
        kernel = algebra._TableKernel(d, monos)
        wide = 2 * d + 1
        ptr, ks, qs = kernel.red_ptr.tolist(), kernel.red_k.tolist(), kernel.red_q.tolist()
        for code, (big_a, m, big_c) in enumerate(itertools.product(range(wide), repeat=3)):
            want = algebra._reduce_table(d, big_a, m, big_c) if big_a + m + big_c < wide else ()
            got = tuple(zip((monos[k] for k in ks[ptr[code] : ptr[code + 1]]), qs[ptr[code] : ptr[code + 1]]))
            assert got == want, (d, big_a, m, big_c)
            widest = max((abs(q).bit_length() for _, q in want), default=0)
            assert kernel.red_bits[code] == widest, (d, big_a, m, big_c)
        assert len(ptr) == wide**3 + 1 and ptr[-1] == len(ks) == len(qs), d
        assert kernel.red_q.dtype == np.int64, d
        assert all(type(q) is int for q in qs)


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
    assert all(type(q) is int for row in table.products.values() for _, q in row)


def test_structure_constants_identity_rows():
    for d in range(4):
        table = structure_constants(SchurContext(d))
        n = len(table.basis)
        assert table.basis[0] == (0, 0, 0)
        for j in range(n):
            assert table.products[(0, j)] == ((j, 1),)
            assert table.products[(j, 0)] == ((j, 1),)


def _mul_bd_products(ctx):
    """The table's products, built one pair at a time from mul_bd on basis elements."""
    monos = basis(ctx)
    index = {mono: k for k, mono in enumerate(monos)}
    elems = [Element.monomial(*mono, ctx.flavor) for mono in monos]
    return {
        (i, j): tuple(
            sorted((index[m], q) for m, q in mul_bd(x, y, ctx).single_var_terms().items())
        )
        for i, x in enumerate(elems)
        for j, y in enumerate(elems)
    }


def test_structure_constants_match_mul_bd_pairwise():
    # structure_constants evaluates the product kernel's formulas on all basis
    # pairs at once; the reference builds every entry from mul_bd.
    for flavor in Flavor:
        for d in range(6):
            ctx = SchurContext(d, flavor)
            assert structure_constants(ctx).products == _mul_bd_products(ctx), (flavor, d)


def test_structure_constants_python_int_fallback(monkeypatch):
    # A bit bound of 0 sends every block down the Python-int (object) path;
    # the table must not change, and its coefficients stay plain ints.
    assert algebra._int_array([1, 2**63]).dtype == object
    assert algebra._int_array([1, 2**63 - 1]).dtype == np.int64
    for flavor in Flavor:
        for d in range(6):
            ctx = SchurContext(d, flavor)
            int64_table = structure_constants(ctx).products
            n = dimension(d)
            assert algebra._TableKernel(d, basis(ctx)).products(0, n * n)[2].dtype == np.int64
            monkeypatch.setattr(algebra, "_INT64_BITS", 0)
            assert algebra._TableKernel(d, basis(ctx)).products(0, n * n)[2].dtype == object
            products = structure_constants(ctx).products
            monkeypatch.undo()
            assert products == int64_table == _mul_bd_products(ctx), (flavor, d)
            assert all(type(q) is int for row in products.values() for _, q in row)


@pytest.mark.parametrize("block", [1, 13, 55, 57, 3135])
def test_structure_constants_block_boundaries(monkeypatch, block):
    # Blocks are ranges of (i, j) pairs in row-major order; at d = 5 (56 basis
    # elements) these sizes cut blocks inside a left factor's row, leave a
    # short last block, and make blocks whose products all vanish.
    ctx = SchurContext(5)
    expected = _mul_bd_products(ctx)
    assert () in expected.values()
    monkeypatch.setattr(algebra, "_BLOCK_PAIRS", block)
    assert structure_constants(ctx).products == expected


def test_structure_constants_integral():
    for d in range(5):
        products = structure_constants(SchurContext(d)).products
        assert all(type(q) is int for row in products.values() for _, q in row)


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
        text = render_plain_terms(to_power_basis(x, ctx), Flavor.FHE, "H2")
        assert normalize(parse_element(text), ctx) == x


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
            text = render_plain_terms(to_h_basis(x, ctx), flavor, "h")
            assert normalize(parse_element(text, flavor), ctx) == x


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
    # over m = d, d-2, ... > 0, times T when d is even. -x has the same one.
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

    # The rows are cached for the process, so a first call starts from empty caches.
    clear_caches()
    monkeypatch.setattr(algebra, "_add_product", counting_add_product)
    monkeypatch.setattr(algebra, "mul_bd", no_mul_bd)
    try:
        assert min_poly(x, ctx) == expected
        assert 0 < len(calls) <= dimension(d) * len(normalize(x, ctx).terms)
        # Same d, same Kostant support: every row comes from the cache.
        calls.clear()
        assert min_poly(-1 * x, ctx) == expected
        assert not calls
    finally:
        monkeypatch.undo()
        clear_caches()


def _weight_min_poly(x, d):
    """The reference: matrices.min_poly of x's image in the weight model."""
    return matrices.min_poly(eval_element(x, weight_rep(d)))


def _min_poly_cases(rng, flavor, d):
    texts = ["0", "-7/3", "E(2)", "F(1) + E(3)", "1/2*e + f", "2*h + 3*e - 5*f", "1000000000000*e + f + h"]
    xs = [parse_element(t, flavor) for t in texts]
    xs += [_random_element(rng, flavor) for _ in range(3)]
    # Kostant combinations on one side only (a = 0, or c = 0) and in the Cartan part.
    for keep_a, keep_c in ((False, True), (True, False), (False, False)):
        monos = [m for m in basis(SchurContext(d)) if (keep_a or not m[0]) and (keep_c or not m[2])]
        picked = rng.sample(monos, min(3, len(monos)))
        terms = (Fraction(rng.randint(-5, 5), rng.randint(1, 3)) * Element.monomial(*m, flavor) for m in picked)
        xs.append(sum(terms, Element.zero(flavor)))
    return xs


def test_min_poly_matches_weight_model(monkeypatch):
    rng = random.Random(2027)
    dtypes = []
    krylov = algebra._krylov

    def recording(parts, size):
        dtypes.append([])
        for v in krylov(parts, size):
            dtypes[-1].append(v.dtype)
            yield v

    monkeypatch.setattr(algebra, "_krylov", recording)
    clear_caches()
    try:
        for d in range(9):
            for flavor in (Flavor.FHE, Flavor.EHF):
                ctx = SchurContext(d, flavor)
                for x in _min_poly_cases(rng, flavor, d):
                    assert min_poly(x, ctx) == _weight_min_poly(x, d), (d, flavor, x)
    finally:
        clear_caches()
    # The 10^12 coefficient starts in int64 and moves to Python ints mid-sequence.
    assert any(kinds[0] != object and kinds[-1] == object for kinds in dtypes)


def _first_dependency_min_poly(x, ctx):
    """min_poly by the exact elimination of matrices.first_dependency on the same powers."""
    ys = normalize(x, ctx).single_var_terms()
    assert all(Fraction(q).denominator == 1 for q in ys.values())
    has_a, has_c = any(a for a, _, _ in ys), any(c for _, _, c in ys)
    parts = [(algebra._right_rows(ctx.d, y, has_a, has_c), int(q)) for y, q in ys.items()]
    size = len(algebra._region(ctx.d, has_a, has_c))
    sparse = (dict(zip(np.flatnonzero(v).tolist(), v[v != 0].tolist())) for v in algebra._krylov(parts, size))
    return matrices.first_dependency(sparse, size)


def _tried_primes(monkeypatch):
    """The primes min_poly works with, in order, recorded from matrices._modp_pivots."""
    tried = []
    pivots = matrices._modp_pivots

    def recording(drawn, powers, p):
        tried.append(p)
        return pivots(drawn, powers, p)

    monkeypatch.setattr(matrices, "_modp_pivots", recording)
    return tried


@pytest.mark.parametrize("flavor", list(Flavor))
def test_min_poly_matches_first_dependency(flavor):
    ctx = SchurContext(10, flavor)
    x = parse_element("E(2)+F(3)+h", flavor)
    p = min_poly(x, ctx)
    assert p == _first_dependency_min_poly(x, ctx)
    assert len(p) - 1 == 35


def test_min_poly_rejects_bad_primes(monkeypatch):
    ctx = SchurContext(10)
    x = parse_element("E(2)+F(3)+h", ctx.flavor)
    want = min_poly(x, ctx)
    tried = _tried_primes(monkeypatch)
    # Mod 2 and mod 3 the powers of x fall dependent early (at K = 4 and 9,
    # against 35), so both primes must be rejected before a large one
    # certifies the answer.
    primes = matrices._PRIMES
    monkeypatch.setattr(matrices, "_PRIMES", (2, 3, *primes))
    assert min_poly(x, ctx) == want
    assert tried == [2, 3, primes[0]]


def test_min_poly_never_returns_an_unchecked_answer(monkeypatch, capsys):
    ctx = SchurContext(6)
    x = 2 * Element.generator("h") + 3 * Element.generator("e") - 5 * Element.generator("f")
    want = min_poly(x, ctx)
    tried = _tried_primes(monkeypatch)
    lift = matrices._lift
    spoiled = []

    def off_by_one(*args):
        # One coefficient off by one: only the exact certificate can tell.
        out = lift(*args)
        if out is not None and len(spoiled) < limit:
            spoiled.append(1)
            out[len(out) // 2] += 1
        return out

    monkeypatch.setattr(matrices, "_lift", off_by_one)
    limit = 1
    assert min_poly(x, ctx) == want
    assert tried == list(matrices._PRIMES[:2])
    limit = len(matrices._PRIMES)
    spoiled.clear()
    tried.clear()
    with pytest.raises(ArithmeticError, match="no prime certified"):
        min_poly(x, ctx)
    assert tried == list(matrices._PRIMES)
    spoiled.clear()
    assert entry(["minpoly", "--d", "6", "2*h + 3*e - 5*f"]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: ArithmeticError: no prime certified the minimal polynomial\n")


def test_min_poly_consults_the_int64_guard(monkeypatch):
    ctx = SchurContext(8)
    x = parse_element("E(2)+F(3)+h", ctx.flavor)
    want = min_poly(x, ctx)
    safe = matrices.int64_safe
    calls = []

    def split_residue_products(n, max_a, max_b):
        # The mod-p dot products pass (length, p, p); forcing them to split
        # into single terms must not change the answer.
        calls.append((n, max_a, max_b))
        if max_a == max_b == matrices._PRIMES[0]:
            return n <= 1 and safe(n, max_a, max_b)
        return safe(n, max_a, max_b)

    monkeypatch.setattr(matrices, "int64_safe", split_residue_products)
    assert min_poly(x, ctx) == want
    lengths = {n for n, a, b in calls if a == b == matrices._PRIMES[0]}
    assert max(lengths) == len(want) - 1 and 1 in lengths


def test_expected_min_polys():
    assert expected_h_var_min_poly(1) == pfrom_roots([0, 1])
    assert expected_h_min_poly(1) == pfrom_roots([1, -1])
    assert expected_h_min_poly(3) == pfrom_roots([3, 1, -1, -3])
    # Repeated weights collapse: d = 2 has weights 2, 0, -2 once each.
    assert expected_h_min_poly(2) == pfrom_roots([2, 0, -2])


def test_relations_pass():
    for d in range(5):
        for flavor in (Flavor.FHE, Flavor.EHF):
            ctx = SchurContext(d, flavor)
            relations = presentation_relations(ctx)
            failing = [name for name, rel in relations if not normalize(rel, ctx).is_zero()]
            assert not failing, failing
            assert len(relations) >= 14


def test_relation_count_grows_with_d():
    assert len(presentation_relations(SchurContext(0))) == 18
    assert len(presentation_relations(SchurContext(2))) == 24


def test_presentation_relations_keep_names_and_products():
    def product_over(base, shifts):
        """(base - s_0)(base - s_1)... by U-mode mul, as the relations were built before."""
        acc = Element.one(base.flavor)
        for s in shifts:
            acc = mul(acc, base - Element.scalar(s, base.flavor))
        return acc

    fixed = [
        "h,e,f: he-eh = 2e",
        "h,e,f: ef-fe = h",
        "h,e,f: hf-fh = -2f",
        "h,e,f: (h+d)(h+d-2)...(h-d) = 0",
        "H1,e,f: H1e-eH1 = e",
        "H1,e,f: ef-fe = 2H1-d",
        "H1,e,f: H1f-fH1 = -f",
        "H1,e,f: H1(H1-1)...(H1-d) = 0",
        "H2,e,f: H2e-eH2 = -e",
        "H2,e,f: ef-fe = d-2H2",
        "H2,e,f: H2f-fH2 = f",
        "H2,e,f: H2(H2-1)...(H2-d) = 0",
        "gl2: H1H2 = H2H1",
        "gl2: H1+H2 = d",
    ]
    for d in range(7):
        names = fixed + [f"binom(H1,{b})*binom(H2,{d + 1 - b}) = 0" for b in range(d + 2)]
        for b in range(d + 1):
            names += [f"h*binom(H2,{b}) recursion", f"(-h)*binom(H1,{b}) recursion"]
        for flavor in (Flavor.FHE, Flavor.EHF):
            relations = presentation_relations(SchurContext(d, flavor))
            assert [name for name, _ in relations] == names
            want = {
                3: product_over(Element.generator("h", flavor), [d - 2 * k for k in range(d + 1)]),
                7: product_over(Element.generator("H1", flavor), list(range(d + 1))),
                11: product_over(Element.generator("H2", flavor), list(range(d + 1))),
            }
            for i, rel in want.items():
                assert relations[i][1] == rel, (d, flavor, names[i])


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
    # _own_var_terms drops binom(H,b) with b > d, which on its own is the
    # truncation relation in one H, so the factors keep every term here too.
    clear_caches()
    monkeypatch.setattr(algebra, "_reduce_table", lambda d, a, b, c: (((a, b, c), 1),))
    monkeypatch.setattr(algebra, "_own_var_terms", lambda x, d: substitute_offvar(x, d).single_var_terms())
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
