"""Exact matrix helpers: rank and minimal polynomials."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import schur2
from schur2 import matrices
from schur2.algebra import SchurContext, basis
from schur2.matrices import (
    bareiss_rank,
    exact_rank,
    first_dependency,
    is_integral,
    min_poly,
    zeros,
)
from schur2.oracle import shift_groups, tensor_rep, weight_rep
from schur2.qpoly import peval, pfrom_roots, pmonic, pmul, ptrim


def _obj(rows):
    return np.array(rows, dtype=object)


def test_first_dependency():
    # v2 = v0 + 2 v1 is the first dependency; later vectors are never drawn.
    def vectors():
        yield {0: Fraction(1)}
        yield {0: Fraction(1), 1: Fraction(1)}
        yield {0: Fraction(3), 1: Fraction(2)}
        raise AssertionError("drew a vector past the first dependency")

    assert first_dependency(vectors(), 2) == ptrim([-1, -2, 1])
    with pytest.raises(ValueError):
        first_dependency([{0: Fraction(1)}], 2)
    # A second independent vector in a space of dimension 1 cannot happen in
    # a Krylov sequence.
    with pytest.raises(ArithmeticError):
        first_dependency([{0: 1}, {1: 1}], 1)


def _fraction_first_dependency(vectors, dim):
    """Elimination with pivot-normalised Fraction rows: the reference."""

    def axpy(y, a, x):
        for i, v in x.items():
            t = y.get(i, 0) + a * v
            if t:
                y[i] = t
            else:
                del y[i]

    reduced = []
    for k, vec in enumerate(vectors):
        vec = dict(vec)
        combo = {k: Fraction(1)}
        for piv, row, row_combo in reduced:
            fac = vec.get(piv)
            if fac:
                axpy(vec, -fac, row)
                axpy(combo, -fac, row_combo)
        if not vec:
            return pmonic(ptrim([combo.get(i, 0) for i in range(k + 1)]))
        if k >= dim:
            raise ArithmeticError("Krylov sequence failed to terminate")
        piv = min(vec)
        inv = 1 / Fraction(vec[piv])
        reduced.append((piv, {i: v * inv for i, v in vec.items()}, {i: q * inv for i, q in combo.items()}))
    raise ValueError("sequence ended before a linear dependency")


def test_first_dependency_matches_fraction_elimination():
    rng = random.Random(89)

    def entry(fractions):
        if fractions and rng.random() < 0.5:
            return Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 6))
        return rng.randint(-9, 9) or 1

    def sparse(dim, fractions):
        return {i: entry(fractions) for i in rng.sample(range(dim), rng.randint(1, min(dim, 4)))}

    cases = []
    for trial in range(60):
        dim = rng.randint(1, 9)
        fractions = trial % 2 == 1
        seq = [sparse(dim, fractions) for _ in range(rng.randint(0, dim - 1))]
        # Close with a random combination of the prefix, which may be zero.
        closing = {}
        for vec in seq:
            q = entry(fractions) if rng.random() < 0.7 else 0
            for i, v in vec.items():
                closing[i] = closing.get(i, 0) + q * v
        seq.append({i: v for i, v in closing.items() if v})
        cases.append((seq, dim))
    # Krylov sequences of sparse integer matrices.
    for _ in range(20):
        n = rng.randint(1, 7)
        cols = [{i: rng.randint(-3, 3) for i in range(n) if rng.random() < 0.4} for _ in range(n)]
        v, seq = {rng.randrange(n): 1}, []
        for _ in range(n + 1):
            seq.append(v)
            out = {}
            for j, x in v.items():
                for i, c in cols[j].items():
                    out[i] = out.get(i, 0) + x * c
            v = {i: x for i, x in out.items() if x}
        cases.append((seq, n))
    cases.append(([{}], 3))  # dependency at k = 0
    cases.append(([{0: Fraction(1, 2)}, {1: 3}, {}], 2))  # a zero vector after two
    for seq, dim in cases:
        expected = _fraction_first_dependency(seq, dim)
        assert first_dependency(iter(seq), dim) == expected
    assert first_dependency([{}], 3) == ptrim([1])
    with pytest.raises(ArithmeticError):
        first_dependency([{0: Fraction(1, 3)}, {1: 2}, {2: 5}], 2)
    with pytest.raises(ArithmeticError):
        _fraction_first_dependency([{0: Fraction(1, 3)}, {1: 2}, {2: 5}], 2)


def test_rank_known_cases():
    assert bareiss_rank(zeros(3, 3)) == 0
    assert bareiss_rank(np.eye(5, dtype=object)) == 5
    # Rank 1: every row a multiple of the first.
    a = _obj([[1, 2, 3], [2, 4, 6], [-1, -2, -3]])
    assert bareiss_rank(a) == 1
    # A case whose leading entry vanishes after the first elimination round.
    b = _obj([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
    assert bareiss_rank(b) == 3
    # Fractions: a singular pair of rows and an invertible one.
    c = _obj([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]])
    assert bareiss_rank(c) == 1
    d = _obj([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2)]])
    assert bareiss_rank(d) == 2


def test_rank_zero_leading_rows():
    # Rows that start with zeros used to be able to desync the fraction-free
    # bookkeeping; keep a direct regression for that shape.
    a = _obj(
        [
            [0, 0, 1, 1],
            [0, 1, 0, 1],
            [1, 0, 0, 1],
            [1, 1, 1, 3],
        ]
    )
    assert bareiss_rank(a) == 3


def test_exact_rank_agrees_with_bareiss():
    rng = random.Random(37)
    for _ in range(30):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        a = _obj([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        assert exact_rank(a) == bareiss_rank(a)

    def rand_rows(m, n, lo=-9, hi=9):
        return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]

    # Block diagonal, one block singular: the certificate must not hide the defect.
    blocks = [rand_rows(3, 3), [[1, 2, 3], [2, 4, 6], [0, 1, 1]], rand_rows(2, 4)]
    block_diag = zeros(8, 10)
    r = c = 0
    for blk in blocks:
        for i, row in enumerate(blk):
            block_diag[r + i, c : c + len(row)] = row
        r, c = r + len(blk), c + len(blk[0])
    cases = [block_diag]
    # Duplicate and all-zero columns around a full-rank core.
    core = rand_rows(4, 4)
    cases.append(_obj([[0, row[0], row[1], row[0], 0, row[2], row[3], row[1]] for row in core]))
    # Full rank, but one row vanishes mod 2**31 - 1, which forces the fallback.
    p = 2**31 - 1
    wide = rand_rows(4, 7)
    wide.append([p * rng.randint(1, 5) for _ in range(7)])
    cases.append(_obj(wide))
    # int64 input: a generic matrix, one with entries near 2**62 and one with a
    # repeated row.
    cases.append(np.array(rand_rows(5, 9), dtype=np.int64))
    cases.append(np.array(rand_rows(4, 6, -(2**62), 2**62), dtype=np.int64))
    twice = rand_rows(3, 5)
    cases.append(np.array(twice + [twice[1]], dtype=np.int64))
    # Full rank only through a column of nonzero multiples of p: the residue
    # filter drops that column, and the answer must still be exact.
    square = _obj([[2, 1, 0, p], [1, 3, 1, -2 * p], [0, 1, 4, 3 * p], [0, 0, 0, 4 * p]])
    cases.append(square)
    # Object input with entries above 2**63, full rank and rank deficient.
    big = [[2**64 + x for x in row] for row in rand_rows(3, 4)]
    cases.append(_obj(big))
    cases.append(_obj([[2**70, 3, -(2**65)], [2**71, 6, -(2**66)]]))
    for a in cases:
        assert exact_rank(a) == bareiss_rank(a)
    assert [exact_rank(a) for a in cases[:3]] == [7, 4, 5]
    assert exact_rank(square) == 4
    assert exact_rank(cases[-1]) == 1


def test_exact_rank_certifies_full_rank_without_bareiss(monkeypatch):
    # Full-rank oracle images, one matrix of probe vectors per shift, must be
    # decided by the mod-p certificate alone.
    def no_bareiss(a):
        raise AssertionError("fell back to Bareiss")

    monkeypatch.setattr(matrices, "bareiss_rank", no_bareiss)
    for rep in (weight_rep(6), tensor_rep(4), weight_rep(20)):
        monos = basis(SchurContext(rep.d))
        groups = list(shift_groups(monos, rep))
        assert len(groups) == 2 * rep.d + 1
        assert sum(len(g) for g in groups) == len(monos)
        for g in groups:
            assert exact_rank(g) == len(g)


def test_exact_rank_wide_integer_matrix():
    rng = random.Random(41)
    rows = 12
    cols = 300
    a = np.zeros((rows, cols), dtype=object)
    for i in range(rows):
        for j in range(cols):
            a[i][j] = rng.randint(-4, 4)
    assert exact_rank(a) == bareiss_rank(a)


def test_min_poly_base_cases():
    assert min_poly(zeros(3, 3)) == ptrim([0, 1])
    assert min_poly(np.eye(4, dtype=object)) == pfrom_roots([1])
    diag = _obj([[2, 0, 0], [0, 5, 0], [0, 0, 2]])
    assert min_poly(diag) == pfrom_roots([2, 5])
    nil = _obj([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert min_poly(nil) == ptrim([0, 0, 0, 1])


def test_min_poly_seeks_no_int64_bound(monkeypatch):
    # The sparse exact arithmetic needs no integrality test of the matrix, so
    # none is made, at any step.
    counts = {"is_integral": 0}
    for name in counts:

        def counted(x, _name=name, _original=getattr(matrices, name)):
            if np.ndim(x) == 2:
                counts[_name] += 1
            return _original(x)

        monkeypatch.setattr(matrices, name, counted)
    companion = _obj([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-2, 3, 1, 1]])
    # Diagonal entries near 2**40 give coefficients far above 2**63.
    diag = [2**40, 2**40 + 1, -(2**40), 3]
    triangular = _obj([[diag[i] if i == j else max(j - i, 0) for j in range(4)] for i in range(4)])
    cases = ((companion, ptrim([2, -3, -1, -1, 1])), (triangular, pfrom_roots(diag)))
    for a, expected in cases:
        for name in counts:
            counts[name] = 0
        assert min_poly(a) == expected
        assert counts == {"is_integral": 0}


def test_min_poly_rejects_non_square_under_optimize_flag():
    with pytest.raises(ValueError, match="square"):
        min_poly(zeros(2, 3))
    # The check must survive python -O, which strips assert statements.
    # Without it a 2x3 matrix fails later in a numpy shape error, and a 0x3
    # matrix returns the polynomial 1.
    code = (
        "from schur2.matrices import min_poly, zeros\n"
        "for shape in ((2, 3), (0, 3)):\n"
        "    try:\n"
        "        min_poly(zeros(*shape))\n"
        "    except ValueError as e:\n"
        "        if 'square' not in str(e):\n"
        "            raise\n"
        "    else:\n"
        "        raise SystemExit(f'no error for shape {shape}')\n"
    )
    src = str(Path(schur2.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_min_poly_fractions():
    a = _obj([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
    p = min_poly(a)
    assert peval(p, Fraction(1, 2)) == 0
    assert peval(p, Fraction(1, 3)) == 0
    assert len(p) == 3


def test_min_poly_annihilates_random_matrices():
    rng = random.Random(43)
    for _ in range(20):
        n = rng.randint(1, 5)
        a = _obj([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        p = min_poly(a)
        # Evaluate p(A) by Horner and check it is the zero matrix.
        acc = zeros(n, n)
        for c in reversed(p):
            acc = a.dot(acc)
            for i in range(n):
                acc[i][i] += c
        assert not any(acc[i][j] != 0 for i in range(n) for j in range(n))
        # Minimality: no proper monic divisor obtained by dropping a root
        # can annihilate, so the degree is at most n and at least 1.
        assert 1 <= len(p) - 1 <= n


def test_min_poly_block_lcm():
    # Companion-style block sum: min poly is the lcm of the blocks.
    a = _obj(
        [
            [0, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 0, 0],
        ]
    )
    # Blocks: diag(0,1) with min poly T(T-1); nilpotent 2x2 with min poly T^2.
    assert min_poly(a) == pmul(pfrom_roots([1]), ptrim([0, 0, 1]))


def test_as_exact_and_integrality():
    a = _obj([[1, 2], [3, 4]])
    assert a.dtype == object
    assert is_integral(a)
    b = _obj([[Fraction(1, 2), 0], [0, 1]])
    assert not is_integral(b)
    assert is_integral(_obj([[Fraction(4, 2)]]))
