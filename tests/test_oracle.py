"""Matrix models: construction, exact evaluation, and the verification suite.

The two models are built from different descriptions (word action versus
direct sum of irreducible blocks), so agreement between them and the symbolic
engine is a genuine cross-check rather than the same code run twice.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import schur2
import schur2.algebra as algebra
import schur2.elements as elements
import schur2.ivpoly as ivpoly
import schur2.matrices as matrices
import schur2.oracle as oracle
import schur2.qpoly as qpoly
from schur2.algebra import (
    SchurContext,
    StructureTable,
    basis,
    dimension,
    expected_h_min_poly,
    expected_h_var_min_poly,
    structure_constants,
)
from schur2.elements import Element, Flavor, mul
from schur2.oracle import (
    eval_element,
    products_match,
    rank_of_images,
    relations_hold,
    tensor_rep,
    vanishes,
    verify_suite,
    weight_rep,
)
from schur2.qpoly import ptrim


def test_tensor_rep_d1_matrices():
    rep = tensor_rep(1)
    assert rep.dim == 2
    assert rep.generator_matrix("e").tolist() == [[0, 1], [0, 0]]
    assert rep.generator_matrix("f").tolist() == [[0, 0], [1, 0]]
    assert rep.generator_matrix("H1").tolist() == [[1, 0], [0, 0]]
    assert rep.generator_matrix("H2").tolist() == [[0, 0], [0, 1]]
    assert rep.generator_matrix("h").tolist() == [[1, 0], [0, -1]]


def test_tensor_rep_d0():
    rep = tensor_rep(0)
    assert rep.dim == 1
    assert rep.generator_matrix("e").tolist() == [[0]]
    assert rep.generator_matrix("H1").tolist() == [[0]]


def test_tensor_rep_d2_diagonals():
    rep = tensor_rep(2)
    assert rep.dim == 4
    assert np.diag(rep.generator_matrix("H2")).tolist() == [0, 1, 1, 2]
    assert np.diag(rep.generator_matrix("H1")).tolist() == [2, 1, 1, 0]
    # e lowers the letter-2 count by one in all possible positions.
    e = rep.generator_matrix("e")
    assert e[0, 1] == 1 and e[0, 2] == 1
    assert e[1, 3] == 1 and e[2, 3] == 1
    assert e.sum() == 4


def test_weight_rep_d1_equals_tensor():
    t = tensor_rep(1)
    w = weight_rep(1)
    for name in ("e", "f", "H1", "H2", "h"):
        assert np.array_equal(t.generator_matrix(name), w.generator_matrix(name))


def test_weight_rep_d2_blocks():
    rep = weight_rep(2)
    assert rep.dim == 4
    e = rep.generator_matrix("e")
    f = rep.generator_matrix("f")
    h = rep.generator_matrix("h")
    # Commutator is diagonal with the weights 2, 0, -2, 0.
    comm = e @ f - f @ e
    assert np.array_equal(comm, h)
    assert np.diag(h).tolist() == [2, 0, -2, 0]


def test_rep_dimensions():
    for d in range(7):
        assert tensor_rep(d).dim == 2**d
    for d in range(10):
        blocks = [(d - 2 * k) + 1 for k in range(d // 2 + 1)]
        assert weight_rep(d).dim == sum(blocks)


def _action_generators(rep):
    """e, f and the H2 weights of a model, built here from its action rules."""
    d, n = rep.d, rep.dim
    e = np.zeros((n, n), dtype=np.int64)
    f = np.zeros((n, n), dtype=np.int64)
    if rep.kind == "tensor":
        # e rewrites one letter 2 to 1, f one letter 1 to 2; H2 counts the 2s.
        h2 = [bin(w).count("1") for w in range(n)]
        for w in range(n):
            for bit in (1 << p for p in range(d)):
                if w & bit:
                    e[w ^ bit, w] = 1
                else:
                    f[w | bit, w] = 1
    else:
        # Blocks of highest weight m = d-2k on v_0..v_m, one after another:
        # f v_j = (j+1) v_(j+1), e v_j = (m-j+1) v_(j-1), H2 v_j = (k+j) v_j.
        h2, start = [], 0
        for k in range(d // 2 + 1):
            m = d - 2 * k
            for j in range(m + 1):
                h2.append(k + j)
                if j < m:
                    f[start + j + 1, start + j] = j + 1
                if j > 0:
                    e[start + j - 1, start + j] = m - j + 1
            start += m + 1
    return {"e": e, "f": f}, np.array(h2, dtype=np.int64)


def test_generator_matrices_follow_the_action_rules():
    for d in range(7):
        for make in (tensor_rep, weight_rep):
            rep = make(d)
            gens, h2 = _action_generators(rep)
            gens.update(H1=np.diag(d - h2), H2=np.diag(h2), h=np.diag(d - 2 * h2))
            for name, expected in gens.items():
                got = rep.generator_matrix(name)
                assert got.dtype == np.int64, (d, rep.kind, name)
                assert np.array_equal(got, expected), (d, rep.kind, name)


def _divided_powers(g, top):
    """g^m / m! for m <= top, by object matmul."""
    g = g.astype(object)
    acc = np.eye(len(g), dtype=np.int64).astype(object)
    out = [acc]
    for m in range(1, top + 1):
        acc = acc @ g
        quot = acc // math.factorial(m)
        assert np.array_equal(quot * math.factorial(m), acc), m
        out.append(quot)
    return out


def test_divided_powers_are_integral_quotients():
    # Every closed-form image equals (L^a/a!) binom(H1,b1) binom(H2,b2) (R^c/c!)
    # built here from the action rules, each division exact. Exponents run to
    # d+2, where the divided powers are zero.
    for d in range(6):
        for make in (tensor_rep, weight_rep):
            rep = make(d)
            gens, h2 = _action_generators(rep)
            powers = {g: _divided_powers(gens[g], d + 2) for g in ("e", "f")}
            middles = {
                (b1, b2): np.array(
                    [math.comb(d - int(y), b1) * math.comb(int(y), b2) for y in h2],
                    dtype=object,
                )
                for b1 in range(3)
                for b2 in range(3)
            }
            for flavor in Flavor:
                left, right = flavor.letters
                for a in range(d + 3):
                    for c in range(d + 3):
                        for (b1, b2), mid in middles.items():
                            key = (a, b1, b2, c)
                            expected = (powers[left][a] * mid[None, :]) @ powers[right][c]
                            got = eval_element(Element(flavor, {key: 1}), rep)
                            assert np.array_equal(got, expected), (d, rep.kind, flavor, key)


def _position_swaps(d):
    """Word permutations exchanging two neighbouring positions."""
    words = np.arange(1 << d)
    out = []
    for p in range(d - 1):
        lo, hi = 1 << p, 1 << (p + 1)
        out.append(words ^ ((((words & lo) > 0) != ((words & hi) > 0)) * (lo | hi)))
    return out


def _widen(rep, cols, stack):
    """A `Rep.probes` result at the full model width: zero outside cols."""
    out = np.zeros((len(stack), rep._width), dtype=stack.dtype)
    out[:, cols] = stack
    return out


def _wide_probes(rep, keys):
    """Probe vectors at the full model width, one key at a time from the closed forms."""
    out = np.zeros((len(keys), rep._width), dtype=object)
    for t, (a, b1, b2, c) in enumerate(keys):
        pos, h2, coef = rep._entries(a, c)
        out[t, pos] = rep._h_values(b1, b2)[h2] * coef
    return out


def _wide_groups(monos, rep):
    """The rank groups of `shift_groups`, built per key at the full model width."""
    groups: dict[int, list] = {}
    for a, b, c in monos:
        groups.setdefault(a - c, []).append((a, 0, b, c))
    return [_wide_probes(rep, keys) for keys in groups.values()]


def test_tensor_orbit_columns_fix_the_images():
    # The word action, applied here to the columns at the orbit words
    # 1^(d-k) 2^k, must give at every row U the probe entry of the class
    # (k, |U|, |U & W|). Every image commutes with permuting positions, so
    # those columns fix it.
    for d in range(9):
        rep = tensor_rep(d)
        gens, h2 = _action_generators(rep)
        orbit = np.array([(1 << k) - 1 for k in range(d + 1)])
        count = np.array([bin(w).count("1") for w in range(rep.dim)])
        u = np.arange(rep.dim)[:, None]
        cls = rep._index[np.arange(d + 1), count[u], count[u & orbit]]
        # E^(c) on the orbit columns, each division exact.
        e_cols = [np.eye(rep.dim, dtype=np.int64)[:, orbit]]
        for c in range(1, d + 1):
            step = gens["e"] @ e_cols[-1]
            assert not (step % c).any()
            e_cols.append(step // c)
        keys = [(a, 0, b, c) for a, b, c in basis(SchurContext(d))]
        for key, probe in zip(keys, _widen(rep, *rep.probes(keys))):
            a, _, b, c = key
            cols = np.array([math.comb(int(y), b) for y in h2])[:, None] * e_cols[c]
            for m in range(1, a + 1):
                cols = gens["f"] @ cols
                assert not (cols % m).any()
                cols //= m
            assert np.array_equal(probe[cls], cols), (d, key)
            if d <= 5:
                full = eval_element(Element(Flavor.FHE, {key: 1}), rep)
                for perm in _position_swaps(d):
                    assert np.array_equal(full[np.ix_(perm, perm)], full), (d, key)


def test_counted_products_match_dense_word_products():
    # Schur's counting rule against products of images built from the word
    # action: every basis pair up to d=4, a seeded sample of left factors at
    # d=5, each with every right factor. The product is read at one pair of
    # words per class.
    rng = random.Random(131)
    for d in range(6):
        rep = tensor_rep(d)
        gens, h2 = _action_generators(rep)
        f_pow, e_pow = (_divided_powers(gens[g], d) for g in ("f", "e"))
        monos = basis(SchurContext(d))
        images = [
            ((f_pow[a] * np.array([math.comb(int(y), b) for y in h2])) @ e_pow[c]).astype(np.int64)
            for a, b, c in monos
        ]
        # W = the low k bits, U = the low i bits and u-i bits above bit k.
        k, u, i = rep._k, rep._u, rep._i
        rows, cols = ((1 << i) - 1) | (((1 << (u - i)) - 1) << k), (1 << k) - 1
        probes = _widen(rep, *rep.probes([(a, 0, b, c) for a, b, c in monos]))
        shifts = np.array([a - c for a, _, c in monos])
        lefts = range(len(monos)) if d <= 4 else rng.sample(range(len(monos)), 12)
        for x in lefts:
            counted = rep._compose(probes, shifts, np.full(len(monos), x), np.arange(len(monos)))
            for y, image in enumerate(images):
                dense = images[x] @ image
                assert np.array_equal(counted[y], dense[rows, cols]), (d, monos[x], monos[y])


def test_products_match_catches_each_miscounted_rule_term():
    # The counting rule is tabulated on first use. Each of its counts, one
    # off, must break some structure-table product at d=3.
    table = structure_constants(SchurContext(3))
    rep = tensor_rep(3)
    assert rep._rule is None
    assert products_match(table, rep)[0]
    counts = rep._rule[3]
    for t in range(len(counts)):
        counts[t] += 1
        try:
            assert not products_match(table, rep)[0], t
        finally:
            counts[t] -= 1
    assert products_match(table, rep)[0]


def test_tensor_model_reaches_d24_without_exponential_memory():
    # At d=24 a single array of length 2^d would take 16 MB or more; rank
    # and relations stay far below that, and the counting rule is not built.
    d = 24
    ctx = SchurContext(d)
    relations = algebra.presentation_relations(ctx)
    tracemalloc.start()
    try:
        rep = tensor_rep(d)
        rank = rank_of_images(basis(ctx), rep)
        ok, failures = relations_hold(relations, rep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rank == dimension(d)
    assert ok, failures
    assert rep._rule is None
    assert peak < 2**24, peak


def test_probes_stay_exact_beyond_int64():
    # At d=40, F^(14) binom(H2,10) E^(14) has entries above 2**63: its probe
    # vector keeps Python ints, and equals the divided powers of the
    # bidiagonal generators applied exactly.
    rep = weight_rep(40)
    n = rep.dim
    gens, h2 = _action_generators(rep)
    e_sup = np.diagonal(gens["e"], 1).astype(object)
    f_sub = np.diagonal(gens["f"], -1).astype(object)
    m = np.eye(n, dtype=np.int64).astype(object)
    for k in range(1, 15):
        step = np.zeros((n, n), dtype=object)
        step[:-1] = e_sup[:, None] * m[1:]
        assert not (step % k).any()
        m = step // k
    m = np.array([math.comb(int(h), 10) for h in h2], dtype=object)[:, None] * m
    for k in range(1, 15):
        step = np.zeros((n, n), dtype=object)
        step[1:] = f_sub[:, None] * m[:-1]
        assert not (step % k).any()
        m = step // k
    probe = _widen(rep, *rep.probes([(14, 0, 10, 14)]))[0]
    assert probe.dtype == object
    assert max(probe) > 2**63
    # Shift 0: the image is diagonal, with the probe vector on the diagonal.
    assert np.array_equal(m, np.diag(probe))


def test_eval_element_frozen_cases():
    rep = tensor_rep(1)
    assert np.array_equal(eval_element(Element.one(), rep), np.eye(2, dtype=object))
    h2 = Element.generator("H2")
    assert eval_element(h2, rep).tolist() == [[0, 0], [0, 1]]

    rep2 = tensor_rep(2)
    x = Element(Flavor.FHE, {(1, 0, 1, 1): 1})  # F(1) binom(H2,1) E(1)
    b2 = Element.monomial(0, 2, 0)
    assert np.array_equal(eval_element(x, rep2), eval_element(b2, rep2) * 2)
    # The identity decomposes the weight space: H1 + H2 = d.
    total = Element.generator("H1") + Element.generator("H2")
    assert np.array_equal(eval_element(total, rep2), 2 * np.eye(4, dtype=object))


def test_eval_element_respects_scalars():
    rep = weight_rep(3)
    x = Element(Flavor.FHE, {(0, 0, 1, 0): Fraction(1, 3)})
    out = eval_element(x, rep)
    assert out[1][1] == Fraction(1, 3)


def test_eval_element_is_multiplicative():
    rng = random.Random(97)
    for make in (tensor_rep, weight_rep):
        rep = make(3)
        for _ in range(8):
            x = _random_element(rng, Flavor.FHE)
            y = _random_element(rng, Flavor.FHE)
            lhs = eval_element(mul(x, y), rep)
            rhs = np.asarray(eval_element(x, rep)) @ np.asarray(eval_element(y, rep))
            assert np.array_equal(lhs, rhs)


def _random_element(rng, flavor, max_exp=2, nterms=2):
    terms = {}
    for _ in range(nterms):
        key = (
            rng.randint(0, max_exp),
            rng.randint(0, max_exp),
            rng.randint(0, max_exp),
            rng.randint(0, max_exp),
        )
        terms[key] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Element(flavor, terms)


def test_normalize_preserves_image():
    # The kernel of each model contains everything normalization removes.
    rng = random.Random(101)
    for d in (1, 2, 3):
        ctx = SchurContext(d)
        for make in (tensor_rep, weight_rep):
            rep = make(d)
            for _ in range(6):
                x = _random_element(rng, Flavor.FHE)
                assert np.array_equal(
                    eval_element(x, rep), eval_element(algebra.normalize(x, ctx), rep)
                )


def test_rank_of_images_matches_dimension():
    for d in (0, 1, 2, 3):
        monos = basis(SchurContext(d))
        assert rank_of_images(monos, tensor_rep(d)) == dimension(d)
        assert rank_of_images(monos, weight_rep(d)) == dimension(d)
        # A repeated image defeats the full-row-rank certificate; the
        # Bareiss fallback must still return the exact rank.
        assert rank_of_images(monos + [monos[0]], weight_rep(d)) == dimension(d)
    assert rank_of_images([(0, 0, 0)], tensor_rep(2)) == 1


def test_shift_groups_are_square_over_their_own_columns():
    # Each rank group spans only the columns its shift touches: as many as it
    # has rows, none of them zero, and the same entries as the nonzero columns
    # of the group built at the full model width.
    for d in range(13):
        monos = basis(SchurContext(d))
        for rep in (tensor_rep(d), weight_rep(d)):
            groups = list(oracle.shift_groups(monos, rep))
            wide = _wide_groups(monos, rep)
            assert len(groups) == len(wide) == 2 * d + 1
            for g, w in zip(groups, wide):
                assert g.shape[0] == g.shape[1], (d, rep.kind, g.shape)
                assert g.any(axis=0).all(), (d, rep.kind)
                assert np.array_equal(g, w[:, w.any(axis=0)]), (d, rep.kind)


def test_rank_of_a_deficient_narrow_group(monkeypatch):
    # One zeroed closed-form coefficient leaves its class column empty in the
    # shift-0 group of the word model at d=4. The narrow group keeps that
    # column, the certificate fails, and rank:tensor must FAIL with the rank
    # that Bareiss gives on the groups built at full width.
    d = 4
    original = oracle._TensorRep._entries

    def zeroed(self, a, c):
        pos, h2, coef = original(self, a, c)
        if (a, c) == (0, 0):
            coef = coef.copy()
            coef[0] = 0
        return pos, h2, coef

    schur2.clear_caches()
    monkeypatch.setattr(oracle._TensorRep, "_entries", zeroed)
    try:
        monos = basis(SchurContext(d))
        want = sum(matrices.bareiss_rank(w) for w in _wide_groups(monos, tensor_rep(d)))
        assert want < dimension(d)
        check = next(c for c in verify_suite(d, "tensor").checks if c.name == "rank:tensor")
        assert (check.passed, check.detail) == (False, f"rank {want} vs dimension {dimension(d)}")
    finally:
        monkeypatch.undo()
        schur2.clear_caches()


def test_matrix_min_poly_frozen():
    assert matrices.min_poly(tensor_rep(2).generator_matrix("H1")) == ptrim([0, 2, -3, 1])
    assert matrices.min_poly(tensor_rep(1).generator_matrix("h")) == ptrim([-1, 0, 1])
    assert matrices.min_poly(np.zeros((3, 3), dtype=np.int64)) == ptrim([0, 1])
    # At d=20 the coefficients exceed 2**62.
    rep = weight_rep(20)
    assert matrices.min_poly(rep.generator_matrix("H1")) == expected_h_var_min_poly(20)
    assert matrices.min_poly(rep.generator_matrix("H2")) == expected_h_var_min_poly(20)
    assert matrices.min_poly(rep.generator_matrix("h")) == expected_h_min_poly(20)


def test_diagonal_min_polys_match_krylov():
    # verify reads each minimal polynomial off the model's weights; the
    # Krylov route on the dense diagonal must agree, also at d=0.
    for d in range(9):
        for make in (tensor_rep, weight_rep):
            rep = make(d)
            for gen in ("H1", "H2", "h"):
                want = matrices.min_poly(rep.generator_matrix(gen))
                assert rep.diagonal_min_poly(gen) == want, (d, rep.kind, gen)


def test_verify_suite_catches_a_moved_weight(monkeypatch):
    # One H2 weight moved to d+1 leaves every closed form alone, so exactly
    # the model's H2 minimal polynomial must fail.
    d = 3
    for make in (tensor_rep, weight_rep):
        rep = make(d)
        moved = rep._weights["H2"].copy()
        moved[0] = d + 1
        rep._weights = dict(rep._weights, H2=moved)
        monkeypatch.setattr(oracle, "_selected_reps", lambda d, selection, _rep=rep: [_rep])
        failing = [c.name for c in verify_suite(d).checks if not c.passed]
        assert failing == [f"minpoly:H2:{rep.kind}"], failing


def test_relations_hold_in_models():
    for d in (0, 1, 2, 3):
        relations = algebra.presentation_relations(SchurContext(d))
        for make in (tensor_rep, weight_rep):
            ok, failures = relations_hold(relations, make(d))
            assert ok, failures


def test_probe_vanishing_matches_dense_zero_test():
    # `vanishes` decides on probe vectors what the dense image shows: on the
    # relations at d and at d+1, random elements with keys up to d+2 and
    # Fraction coefficients, and x - normalize(x).
    rng = random.Random(113)
    # F(1) and binom(H1,1) weigh the basis of the d=1 weight model alike;
    # only keeping their shifts apart tells them apart.
    twin = Element(Flavor.FHE, {(1, 0, 0, 0): 1, (0, 1, 0, 0): -1})
    seen = {}
    for d in range(6):
        for flavor in Flavor:
            ctx = SchurContext(d, flavor)
            randoms = [_random_element(rng, flavor, max_exp=d + 2, nterms=3) for _ in range(6)]
            cases = [
                rel
                for k in (d, d + 1)
                for _, rel in algebra.presentation_relations(SchurContext(k, flavor))
            ]
            cases += randoms + [x - algebra.normalize(x, ctx) for x in randoms]
            cases.append(twin if flavor is Flavor.FHE else twin.symmetry())
            for make in (tensor_rep, weight_rep):
                rep = make(d)
                for x in cases:
                    zero = not eval_element(x, rep).any()
                    assert vanishes(x, rep) == zero, (d, flavor, rep.kind, x)
                    key = (rep.kind, flavor, zero)
                    seen[key] = seen.get(key, 0) + 1
    assert len(seen) == 8, seen


def test_products_match_small():
    for d in (0, 1, 2):
        table = structure_constants(SchurContext(d))
        for make in (tensor_rep, weight_rep):
            ok, detail = products_match(table, make(d))
            assert ok, detail


def test_products_match_reports_mismatch():
    table = structure_constants(SchurContext(1))
    # Corrupt one entry and expect the checker to point at a basis pair.
    broken = dict(table.products)
    broken[(1, 3)] = ((0, 2), (2, -1))
    table.products = broken
    ok, detail = products_match(table, tensor_rep(1))
    assert not ok
    assert "basis pair" in detail


def _corrupted_rows(table):
    """Copies of a table with one product row wrong in three ways."""
    shift = [a - c for a, _, c in table.basis]
    i, j = max(table.products, key=lambda ij: len(table.products[ij]))
    terms = table.products[(i, j)]
    k, q = terms[0]
    other = next(
        m for m in range(len(table.basis)) if shift[m] != shift[i] + shift[j]
    )
    rows = {
        "wrong coefficient": ((k, q + 1),) + terms[1:],
        "term of another shift": terms + ((other, 1),),
        "dropped term": terms[1:],
    }
    for name, row in rows.items():
        products = dict(table.products)
        products[(i, j)] = row
        yield name, (i, j), StructureTable(table.d, table.flavor, table.basis, products)


@pytest.mark.parametrize("make", [tensor_rep, weight_rep])
def test_products_match_catches_each_wrong_row(make):
    table = structure_constants(SchurContext(2))
    rep = make(2)
    assert products_match(table, rep)[0]
    for name, (i, j), broken in _corrupted_rows(table):
        ok, detail = products_match(broken, rep)
        assert not ok, name
        assert detail == (
            f"product mismatch at basis pair {table.basis[i]} * {table.basis[j]}"
        ), name


def _stream_with_row(ctx, p, row, size):
    """structure_blocks with pair p's entries replaced by row, re-cut into blocks of `size` pairs."""
    n = dimension(ctx.d)
    pair, k, q = (np.concatenate(a) for a in zip(*algebra.structure_blocks(ctx)))
    keep = pair != p
    at = np.searchsorted(pair[keep], p)
    pair = np.insert(pair[keep], at, [p] * len(row))
    k = np.insert(k[keep], at, [kk for kk, _ in row])
    q = np.insert(q[keep], at, [qq for _, qq in row])
    for lo in range(0, n * n, size):
        sel = (pair >= lo) & (pair < lo + size)
        yield pair[sel], k[sel], q[sel]


@pytest.mark.parametrize("make", [tensor_rep, weight_rep])
def test_streamed_check_agrees_with_the_table_adapter(make):
    # The same wrong rows, once in a held table and once in the block stream
    # (cut into blocks of 7 pairs, so some blocks hold only zero products):
    # the same verdict and the same first failing pair.
    ctx = SchurContext(2)
    table = structure_constants(ctx)
    rep = make(2)
    n = len(table.basis)
    for name, (i, j), broken in _corrupted_rows(table):
        check = oracle.ProductCheck(basis(ctx), rep)
        for block in _stream_with_row(ctx, i * n + j, broken.products[(i, j)], 7):
            check.add(*block)
        streamed = check.result()
        assert streamed == products_match(broken, rep), name
        assert streamed == (
            False, f"product mismatch at basis pair {table.basis[i]} * {table.basis[j]}"
        ), name
    check = oracle.ProductCheck(basis(ctx), rep)
    for block in _stream_with_row(ctx, 0, table.products[(0, 0)], 7):
        check.add(*block)
    assert check.result() == products_match(table, rep) == (True, f"{n * n} products checked")


def test_products_match_rejects_other_shifts_with_equal_weight_probes():
    # At d=1, e (shift -1) and binom(H2,1) (shift 0) have the same weight
    # probe vector (0, 1), so adding e - binom(H2,1) to the product 1 * 1
    # keeps its probe sum. Only the shift test rejects the row.
    table = structure_constants(SchurContext(1))
    rep = weight_rep(1)
    e_probe, h_probe = (_widen(rep, *rep.probes([key])) for key in ((0, 0, 0, 1), (0, 0, 1, 0)))
    assert e_probe.tolist() == h_probe.tolist()
    table.products = dict(table.products)
    table.products[(0, 0)] += ((1, 1), (2, -1))
    for make in (tensor_rep, weight_rep):
        assert products_match(table, make(1)) == (
            False, "product mismatch at basis pair (0, 0, 0) * (0, 0, 0)"
        ), make


def test_verify_suite_passes():
    report = verify_suite(2)
    assert report.all_passed
    names = [c.name for c in report.checks]
    assert "relations:symbolic" in names
    assert "relations:tensor" in names
    assert "relations:weight" in names
    assert "rank:tensor" in names
    assert "products:weight" in names
    assert "minpoly:h:symbolic" in names
    assert "quotient-map" in names
    payload = report.as_dict()
    assert payload["all_passed"] is True
    assert payload["d"] == 2
    assert len(payload["checks"]) == len(report.checks)


def test_package_exports():
    # verify_suite is the package's one relation checker; no second
    # relation-report API is exported beside it.
    assert len(set(schur2.__all__)) == len(schur2.__all__)
    missing = [name for name in schur2.__all__ if not hasattr(schur2, name)]
    assert not missing, missing
    for name in ("check_relations", "RelationReport", "RelationCheck"):
        assert name not in schur2.__all__
        assert not hasattr(schur2, name)
        assert not hasattr(algebra, name)
    # A monomial's reduction is normalize of it, and e f^(k) is one mul.
    for name in ("reduce_monomial", "commute_e_past_fdiv"):
        assert name not in schur2.__all__
        for module in (schur2, algebra, elements):
            assert not hasattr(module, name), (module.__name__, name)
    # Rank takes integer matrices only, so no integrality scan is left.
    for name in ("is_integral", "_clear_denominators"):
        assert not hasattr(matrices, name), name
    # A polynomial in one H is a binomial-coefficient tuple, products go
    # through Kostant's formula, and the power and h-basis printers are
    # inverted by re-parsing their output.
    retired = ("IVPoly", "commute_poly_left", "fdiv_merge", "from_power_basis", "from_h_basis")
    assert not set(retired) & set(schur2.__all__)
    for name in (*retired, "binom_shift_coeffs", "peval", "_power_to_binoms"):
        for module in (schur2, algebra, elements, ivpoly, qpoly):
            assert not hasattr(module, name), (module.__name__, name)


def test_verify_suite_builds_relations_once_and_no_dense_image(monkeypatch):
    calls = {}
    counted_names = (
        (algebra, "presentation_relations"),
        (oracle, "eval_element"),
        (oracle.Rep, "generator_matrix"),
        (matrices, "min_poly"),
    )
    for module, name in counted_names:

        def counted(*args, _name=name, _original=getattr(module, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    for selection in ("auto", "tensor", "weight", "both"):
        calls.update(presentation_relations=0, eval_element=0, generator_matrix=0, min_poly=0)
        assert verify_suite(3, oracle=selection).all_passed, selection
        assert calls == {
            "presentation_relations": 1,
            "eval_element": 0,
            "generator_matrix": 0,
            "min_poly": 0,
        }, selection


def test_verify_suite_never_imports_numpy_random():
    # The rank certificate needs no random weights; numpy.random alone costs
    # about 6 MB of peak memory in a verify run.
    code = (
        "import sys\n"
        "from schur2.oracle import verify_suite\n"
        "if not (verify_suite(14).all_passed and verify_suite(8, 'both').all_passed):\n"
        "    raise SystemExit('verify failed')\n"
        "if 'numpy.random' in sys.modules:\n"
        "    raise SystemExit('numpy.random was imported')\n"
    )
    src = str(Path(schur2.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_verify_suite_oracle_selection():
    tensor_only = verify_suite(1, oracle="tensor")
    kinds = {c.name for c in tensor_only.checks}
    assert "relations:tensor" in kinds
    assert "relations:weight" not in kinds
    weight_only = verify_suite(1, oracle="weight")
    kinds = {c.name for c in weight_only.checks}
    assert "relations:weight" in kinds
    assert "relations:tensor" not in kinds
    with pytest.raises(ValueError):
        verify_suite(1, oracle="nonsense")


def test_verify_suite_catches_injected_sign_error():
    # Flip one sign in each engine's collisions and make sure the battery
    # notices: the U-mode pair products feed the symbolic relation residues, the
    # truncated per-key one feeds mul_bd and the batched one the structure
    # constants. Then restore and confirm it is green again.
    original_mono = elements._mono_mul

    def corrupted_mono(flavor, xkey, ykey):
        rows = original_mono(flavor, xkey, ykey)
        if xkey[3] == ykey[0] == 1:
            # The collision R^(1) L^(1): flip its t = 1 part, the terms whose
            # left exponent dropped by one.
            top = xkey[0] + 1
            rows = tuple((key, -q if key[0] < top else q) for key, q in rows)
        return rows

    # Cached monomial products would hide the swap, so clear every cache
    # before and after each injection.
    schur2.clear_caches()
    elements._mono_mul = corrupted_mono
    try:
        failing = {c.name for c in verify_suite(2).checks if not c.passed}
        assert "relations:symbolic" in failing
    finally:
        elements._mono_mul = original_mono
        schur2.clear_caches()

    original_collision = algebra._collision_table

    def corrupted_collision(d, b, c, a2, b2):
        rows = original_collision(d, b, c, a2, b2)
        if c >= 1 and a2 >= 1:
            aa, cc, mid = rows[-1]
            m, q = mid[-1]
            rows = rows[:-1] + ((aa, cc, mid[:-1] + ((m, -q),)),)
        return rows

    schur2.clear_caches()
    algebra._collision_table = corrupted_collision
    try:
        failing = {c.name for c in verify_suite(2).checks if not c.passed}
        assert "structure:mul_bd" in failing
    finally:
        algebra._collision_table = original_collision
        schur2.clear_caches()

    # The table reads the batched collision fill; flip the same sign there:
    # each key's last term, the entry the per-key table lists last (t = 0, top m).
    original_fill = algebra._collision_csr

    def corrupted_fill(d):
        ptr, aa, cc, m, q = original_fill(d)
        b, c, a2, b2 = np.indices((d + 1,) * 4).reshape(4, -1)
        last = ptr[1:][(c >= 1) & (a2 >= 1) & (ptr[1:] > ptr[:-1])] - 1
        q = q.copy()
        q[last] = -q[last]
        return ptr, aa, cc, m, q

    schur2.clear_caches()
    algebra._collision_csr = corrupted_fill
    try:
        failing = {c.name for c in verify_suite(2).checks if not c.passed}
        assert failing & {"products:tensor", "products:weight"}
    finally:
        algebra._collision_csr = original_fill
        schur2.clear_caches()
    assert verify_suite(2).all_passed


def test_verify_suite_catches_a_wrong_reduction_coefficient():
    # mul_bd and the table stream read the same _reduce_table, so
    # structure:mul_bd cannot see a fault in the reduction rule; the product
    # checks against the two models must. Negate the first coefficient of
    # every row that reduces (a+b+c > d), then restore.
    original = algebra._reduce_table

    def corrupted(d, a, b, c):
        rows = original(d, a, b, c)
        if rows and a + b + c > d:
            (mono, q), *rest = rows
            rows = ((mono, -q), *rest)
        return rows

    schur2.clear_caches()
    algebra._reduce_table = corrupted
    try:
        for d in (2, 3):
            failing = {c.name for c in verify_suite(d, "both").checks if not c.passed}
            assert {"products:weight", "products:tensor"} <= failing, (d, failing)
    finally:
        algebra._reduce_table = original
        schur2.clear_caches()
    assert verify_suite(2).all_passed


def test_verify_suite_catches_off_by_one_collision_in_int64(monkeypatch):
    # At d=7 every block of the stream runs in int64. One collision term of
    # key (b, c, a2, b2) = (1, 1, 1, 1), one off, changes the product
    # binom(H2,1) e * f binom(H2,1); it has no degree-1 left factor, so only
    # the product check can see it.
    d = 7
    original_fill = algebra._collision_csr
    original_blocks = algebra.structure_blocks
    dtypes = set()

    def corrupted_fill(d):
        ptr, aa, cc, m, q = original_fill(d)
        q = q.copy()
        q[ptr[((d + 2) * (d + 1) + 1) * (d + 1) + 1]] += 1
        return ptr, aa, cc, m, q

    def recorded_blocks(ctx):
        for block in original_blocks(ctx):
            dtypes.add(block[2].dtype)
            yield block

    monkeypatch.setattr(algebra, "structure_blocks", recorded_blocks)
    schur2.clear_caches()
    monkeypatch.setattr(algebra, "_collision_csr", corrupted_fill)
    try:
        checks = {c.name: c for c in verify_suite(d).checks}
    finally:
        monkeypatch.setattr(algebra, "_collision_csr", original_fill)
        schur2.clear_caches()
    assert dtypes == {np.dtype(np.int64)}
    assert not checks["products:weight"].passed
    assert checks["products:weight"].detail == "product mismatch at basis pair (0, 1, 1) * (1, 1, 0)"
    assert checks["structure:mul_bd"].passed
    assert checks["structure:integral"].passed


def test_verify_suite_reads_integrality_and_mul_bd_rows_from_the_stream(monkeypatch):
    ctx = SchurContext(2)
    n = dimension(2)
    e = basis(ctx).index((0, 0, 1))
    original_blocks = algebra.structure_blocks

    def stream(change):
        def blocks(ctx):
            for pair, k, q in original_blocks(ctx):
                yield change(pair, k, q)

        return blocks

    def off_by_one(pair, k, q):
        # The first entry of a nonzero product e * x_j.
        q = q.copy()
        q[np.flatnonzero(pair // n == e)[0]] += 1
        return pair, k, q

    monkeypatch.setattr(algebra, "structure_blocks", stream(off_by_one))
    checks = {c.name: c for c in verify_suite(2).checks}
    assert not checks["structure:mul_bd"].passed
    assert "differing: [(1, " in checks["structure:mul_bd"].detail
    assert checks["structure:integral"].passed

    def half(pair, k, q):
        q = q.astype(object)
        q[-1] = Fraction(1, 2)
        return pair, k, q

    monkeypatch.setattr(algebra, "structure_blocks", stream(half))
    checks = {c.name: c for c in verify_suite(2).checks}
    assert not checks["structure:integral"].passed

    # Python-int blocks that hold only ints are integral, and every check passes.
    monkeypatch.setattr(algebra, "structure_blocks", stream(lambda pair, k, q: (pair, k, q.astype(object))))
    assert verify_suite(2, "both").all_passed
    monkeypatch.undo()
    assert verify_suite(2, "both").all_passed


def test_checked_int64_guard_survives_optimize_flag():
    # A product term of coefficient 2**64 wraps to 0 in int64; the operand
    # bound must move products_match to Python ints even under python -O,
    # so the extra term is reported rather than lost.
    # A coefficient 1 + 2**64 in place of the 1 of e * f = 1 - binom(H2,1)
    # at d=1 (pair 7 = (1, 3), term k=0) would wrap to the right value, so
    # the streamed check must take that block on Python ints as well.
    code = (
        "import numpy as np\n"
        "from schur2 import algebra, oracle\n"
        "ctx = algebra.SchurContext(1)\n"
        "table = algebra.structure_constants(ctx)\n"
        "table.products = dict(table.products)\n"
        "table.products[(1, 3)] += ((3, 2**64),)\n"
        "wrapped = algebra.structure_constants(ctx)\n"
        "wrapped.products[(1, 3)] = ((0, 1 + 2**64), (2, -1))\n"
        "pair, k, q = (np.concatenate(a) for a in zip(*algebra.structure_blocks(ctx)))\n"
        "q = q.astype(object)\n"
        "q[(pair == 7) & (k == 0)] += 2**64\n"
        "for rep in (oracle.tensor_rep(1), oracle.weight_rep(1)):\n"
        "    check = oracle.ProductCheck(algebra.basis(ctx), rep)\n"
        "    check.add(pair, k, q)\n"
        "    for ok, detail in (\n"
        "        oracle.products_match(table, rep), oracle.products_match(wrapped, rep), check.result()\n"
        "    ):\n"
        "        if ok or 'basis pair' not in detail:\n"
        "            raise SystemExit(1)\n"
    )
    src = str(Path(schur2.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_derived_matrices_never_share_storage():
    rep = tensor_rep(2)
    e1 = rep.generator_matrix("e")
    e1[0, 0] = 99
    assert rep.generator_matrix("e")[0, 0] == 0


def test_relations_fail_in_wrong_model():
    # Evaluating the d=2 relations in the d=3 model must fail (truncation
    # degree differs), which guards against the models being vacuous.
    relations = algebra.presentation_relations(SchurContext(2))
    ok, failures = relations_hold(relations, tensor_rep(3))
    assert not ok
    assert failures
