"""Acceptance battery: one test per criterion, all arithmetic exact.

Every check below compares exact integers or rationals; there are no
tolerances anywhere. Each test prints a single PASS/FAIL line (visible with
pytest -s or on failure) and the wall time it took.
"""

from __future__ import annotations

import contextlib
import random
import time
from fractions import Fraction

import numpy as np

from schur2 import matrices
from schur2.algebra import (
    SchurContext,
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
)
from schur2.elements import Element, Flavor, mul
from schur2.ivpoly import binom, binom_complement_coeffs, binom_product_coeffs, values_to_coeffs
from schur2.oracle import (
    eval_element,
    products_match,
    rank_of_images,
    relations_hold,
    tensor_rep,
    weight_rep,
)


@contextlib.contextmanager
def _criterion(name: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"{name}: FAIL ({time.time() - start:.1f}s)")
        raise
    print(f"{name}: PASS ({time.time() - start:.1f}s)")


def test_criterion_1_dimensions_and_oracle_ranks():
    with _criterion("AC1 dimensions and oracle ranks"):
        start = time.time()
        expected = [1, 4, 10, 20, 35, 56, 84, 120, 165]
        for d in range(9):
            monos = basis(SchurContext(d))
            assert len(monos) == dimension(d) == expected[d]
            assert rank_of_images(monos, tensor_rep(d)) == expected[d]
        for d in range(9, 13):
            monos = basis(SchurContext(d))
            assert len(monos) == dimension(d)
            assert rank_of_images(monos, weight_rep(d)) == dimension(d)
        assert time.time() - start < 120


def test_criterion_2_minimal_polynomials_four_routes():
    with _criterion("AC2 minimal polynomials by four routes"):
        for d in range(1, 9):
            ctx = SchurContext(d)
            reps = (tensor_rep(d), weight_rep(d))
            for gen, closed in (
                ("H1", expected_h_var_min_poly(d)),
                ("H2", expected_h_var_min_poly(d)),
                ("h", expected_h_min_poly(d)),
            ):
                symbolic = min_poly(Element.generator(gen), ctx)
                assert symbolic == closed, (d, gen)
                for rep in reps:
                    got = matrices.min_poly(rep.generator_matrix(gen))
                    assert got == closed, (d, gen, rep.kind)


def test_criterion_3_presentations_hold_everywhere():
    with _criterion("AC3 defining relations, symbolic and in both models"):
        for d in range(9):
            ctx = SchurContext(d)
            relations = presentation_relations(ctx)
            failing = [name for name, rel in relations if not normalize(rel, ctx).is_zero()]
            assert not failing, (d, failing)
            for make in (tensor_rep, weight_rep):
                ok, failures = relations_hold(relations, make(d))
                assert ok, (d, make.__name__, failures)


def test_criterion_4_reduction_formula_against_model():
    with _criterion("AC4 reduction formula vs the word model"):
        start = time.time()
        for d in range(1, 7):
            ctx = SchurContext(d)
            rep = tensor_rep(d)
            for a in range(d + 4):
                for b in range(d + 4 - a):
                    for c in range(d + 4 - a - b):
                        raw = eval_element(Element.monomial(a, b, c), rep)
                        red = eval_element(normalize(Element.monomial(a, b, c), ctx), rep)
                        assert np.array_equal(raw, red), (d, a, b, c)
        assert time.time() - start < 60


def test_criterion_5_integrality_and_all_products():
    with _criterion("AC5 integral structure constants, all products vs models"):
        start = time.time()
        for d in range(1, 7):
            table = structure_constants(SchurContext(d))
            assert all(type(q) is int for row in table.products.values() for _, q in row), d
            for make in (tensor_rep, weight_rep):
                ok, detail = products_match(table, make(d))
                assert ok, (d, make.__name__, detail)
        assert time.time() - start < 120


def test_criterion_6_quotient_maps():
    with _criterion("AC6 quotient maps from d+2"):
        for d in range(7):
            assert quotient_map_check(SchurContext(d)), d


def test_criterion_7_symmetry_exchanges_the_tables():
    with _criterion("AC7 symmetry involution exchanges the flavors"):
        for d in range(1, 6):
            fhe = structure_constants(SchurContext(d, Flavor.FHE))
            ehf = structure_constants(SchurContext(d, Flavor.EHF))
            # The involution fixes every (a,b,c) index, so exchanging the
            # tables means they agree entry for entry.
            assert fhe.basis == ehf.basis, d
            assert fhe.products == ehf.products, d
        # And directly on elements: the involution is multiplicative across
        # the two truncated algebras.
        rng = random.Random(211)
        for _ in range(60):
            d = rng.randint(1, 5)
            ctx_f = SchurContext(d, Flavor.FHE)
            ctx_e = SchurContext(d, Flavor.EHF)
            x = _random_element(rng, Flavor.FHE, max_exp=3)
            y = _random_element(rng, Flavor.FHE, max_exp=3)
            lhs = mul_bd(x, y, ctx_f).symmetry()
            rhs = mul_bd(x.symmetry(), y.symmetry(), ctx_e)
            assert normalize(lhs, ctx_e) == rhs


def _random_element(rng, flavor, max_exp=5, nterms=2):
    terms = {}
    for _ in range(nterms):
        key = (
            rng.randint(0, max_exp),
            rng.randint(0, max_exp),
            rng.randint(0, max_exp),
            rng.randint(0, max_exp),
        )
        terms[key] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return Element(flavor, terms)


def test_criterion_8_property_suites():
    with _criterion("AC8 property suites"):
        rng = random.Random(223)

        # Associativity and bilinearity over >= 1000 sampled triples in the
        # truncated product, exponents up to 5 and d up to 5.
        for _ in range(1050):
            flavor = rng.choice([Flavor.FHE, Flavor.EHF])
            ctx = SchurContext(rng.randint(0, 5), flavor)
            x = _random_element(rng, flavor)
            y = _random_element(rng, flavor)
            z = _random_element(rng, flavor)
            q = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            assert mul_bd(mul_bd(x, y, ctx), z, ctx) == mul_bd(x, mul_bd(y, z, ctx), ctx)
            assert mul_bd(x + y, z, ctx) == mul_bd(x, z, ctx) + mul_bd(y, z, ctx)
            assert mul_bd(x, y + z, ctx) == mul_bd(x, y, ctx) + mul_bd(x, z, ctx)
            assert mul_bd(x.scale(q), z, ctx) == mul_bd(x, z, ctx).scale(q)

        # The untruncated engine underneath gets the same treatment at
        # exponents small enough for its term growth to stay reasonable.
        for _ in range(50):
            flavor = rng.choice([Flavor.FHE, Flavor.EHF])
            x = _random_element(rng, flavor, max_exp=3)
            y = _random_element(rng, flavor, max_exp=3)
            z = _random_element(rng, flavor, max_exp=3)
            assert mul(mul(x, y), z) == mul(x, mul(y, z))
            assert mul(x + y, z) == mul(x, z) + mul(y, z)

        # Normalization is idempotent and lands inside the span.
        for _ in range(300):
            d = rng.randint(0, 5)
            flavor = rng.choice([Flavor.FHE, Flavor.EHF])
            ctx = SchurContext(d, flavor)
            x = _random_element(rng, flavor, nterms=3)
            y = normalize(x, ctx)
            assert normalize(y, ctx) == y
            assert all(a + b + c <= d for (a, b, c) in y.single_var_terms())

        # Every monomial one past the degree bound reduces with strictly
        # smaller degree and height.
        for d in range(6):
            ctx = SchurContext(d)
            for a in range(d + 2):
                for b in range(d + 2 - a):
                    c = d + 1 - a - b
                    out = normalize(Element.monomial(a, b, c), ctx)
                    for (aa, bb, cc) in out.single_var_terms():
                        assert aa + bb + cc < a + b + c
                        assert aa + cc < a + c

        # Integer-valued polynomial round trips on binomial-coefficient tuples.
        def at(p, n):
            return sum(c * binom(n, b) for b, c in enumerate(p))

        def trim(p):
            while p and p[-1] == 0:
                p.pop()
            return tuple(p)

        def complement(p, d):
            out = [0] * len(p)
            for b, c in enumerate(p):
                for k, ck in enumerate(binom_complement_coeffs(b, d)):
                    out[k] += c * ck
            return trim(out)

        for _ in range(300):
            p = trim([rng.randint(-9, 9) for _ in range(rng.randint(1, 6))])
            assert values_to_coeffs([at(p, n) for n in range(len(p) + 1)]) == p
            s = rng.randint(-4, 4)
            shifted = values_to_coeffs([at(p, n + s) for n in range(len(p) + 1)])
            assert values_to_coeffs([at(shifted, n - s) for n in range(len(p) + 1)]) == p
            d = rng.randint(0, 6)
            assert complement(complement(p, d), d) == p
            q = trim([rng.randint(-9, 9) for _ in range(rng.randint(1, 4))])
            prod = [0] * (len(p) + len(q))
            for i, ci in enumerate(p):
                for j, cj in enumerate(q):
                    for k, ck in enumerate(binom_product_coeffs(i, j)):
                        prod[k] += ci * cj * ck
            probe = rng.randint(-3, 9)
            assert at(prod, probe) == at(p, probe) * at(q, probe)
