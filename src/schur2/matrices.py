"""Exact matrix arithmetic for the representation oracles.

Matrices are numpy arrays of int64 or of Python ints/Fractions (object
dtype). Exactness is non-negotiable, and there is no floating point anywhere.
Arithmetic on the entries themselves runs in int64 only in
`oracle.ProductCheck` and in `apply_right` (the integer steps of the symbolic
engine's Krylov sequences and linear-form products), and only when
`int64_safe` proves from a priori bounds that no overflow can occur; the rank
certificate below works in int64 on residues mod p.

Rank is exact, and `exact_rank` takes integer matrices only: int64, or Python
ints in an object array. For m rows it first tries to certify full row rank
mod p, all in bounded int64: the matrix is reduced mod p once, and the
residues are eliminated, each pivot updating only the rows below it that are
nonzero in its column. Full row rank mod p gives full row rank over Q (a
nonzero minor mod p is a nonzero integer minor), and the rank is m exactly.
No column is selected: the callers pass one stack of probe vectors per shift,
over the columns that shift touches, square on a passing run. A column that
vanishes mod p only makes the certificate fail.

When it fails, fraction-free (Bareiss) elimination on the exact integers
decides.

Minimal polynomials come from Krylov sequences: the lcm of the relative
minimal polynomials of standard basis vectors, skipping seeds the current
candidate already annihilates. The loop terminates with a polynomial that
kills every basis vector, hence the matrix, and divides the true minimal
polynomial throughout, so the result is exact and certified by construction.
The arithmetic is exact and sparse: the matrix is read once into its nonzero
columns, vectors are {index: value} dicts of Python ints and Fractions, and
the cost follows the nonzero entries, not the size of the coefficients. The
dependency search itself runs on integers: rows keep their integer pivots,
each reduction divides out the content gcd, and one monic division at the end
is the only Fraction step.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, NamedTuple

import numpy as np

from .qpoly import Poly, plcm, pmonic, ptrim

_INT64_SAFE = 2**62
_CERT_PRIME = 2**31 - 1


def int64_safe(n: int, max_a: int, max_b: int) -> bool:
    """Whether length-n dot products of entries bounded by max_a and max_b fit int64."""
    return n * max(max_a, 1) * max(max_b, 1) < _INT64_SAFE


class RightAction(NamedTuple):
    """v -> v·M for a sparse integer matrix M, held by column.

    rows and vals are M's entries sorted by column, with one zero entry in
    each column that has none, so column j of v·M is the sum of the terms
    v[rows] * vals from starts[j] up to starts[j+1]. most (entries in the
    fullest column) and largest (max |value|) are the bounds that apply_right
    hands int64_safe.
    """

    rows: np.ndarray
    vals: np.ndarray
    starts: np.ndarray
    most: int
    largest: int


def right_action(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, size: int) -> RightAction:
    """The RightAction of the size x size matrix with the entries (rows, cols, vals).

    Entries that share a position add up. vals may have more axes (one
    matrix per column of vals, on one pattern); their entries travel along.
    """
    counts = np.bincount(cols, minlength=size)
    empty = np.flatnonzero(counts == 0)
    rows = np.concatenate((rows, np.zeros(len(empty), dtype=rows.dtype)))
    vals = np.concatenate((vals, np.zeros((len(empty),) + vals.shape[1:], dtype=vals.dtype)))
    order = np.argsort(np.concatenate((cols, empty)))
    counts[empty] = 1
    most, largest = int(counts.max(initial=0)), int(np.abs(vals).max(initial=0))
    return RightAction(rows[order], vals[order], np.cumsum(counts) - counts, most, largest)


def apply_right(v: np.ndarray, action: RightAction, diag: int = 0, bound: int | None = None) -> np.ndarray:
    """v·M + diag·v for an integer vector v: a gather, a product and one sum per column.

    It runs in int64 while int64_safe bounds every sum (the terms of one
    column, plus diag·v) and on Python ints (dtype object) once it does not;
    an object v stays object. bound, a caller's upper bound on max |v|, spares
    reading v when it already proves the step safe.
    """
    most, largest = action.most + (diag != 0), max(action.largest, abs(diag))
    if v.dtype != object and (bound is None or not int64_safe(most, bound, largest)):
        if not int64_safe(most, int(np.abs(v).max(initial=0)), largest):
            v = v.astype(object)
    out = np.add.reduceat(v[action.rows] * action.vals, action.starts)
    if diag:
        out += diag * v
    return out


def bareiss_rank(a: np.ndarray) -> int:
    """Exact rank of an integer matrix by fraction-free elimination (one-step Bareiss).

    Entries go through operator.index, so a Fraction raises TypeError.
    """
    rows = [list(map(operator.index, r)) for r in np.asarray(a).tolist()]
    m = len(rows)
    n = len(rows[0]) if m else 0
    rank = 0
    prev = 1
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pivot = rows[r][c]
        for i in range(r + 1, m):
            # Every row below gets the fraction-free update, zero leading
            # entry or not: entries must stay minors for divisions to be exact.
            ric = rows[i][c]
            ri, rr = rows[i], rows[r]
            for k in range(c + 1, n):
                num = pivot * ri[k] - ric * rr[k]
                q, rem = divmod(num, prev)
                if rem:
                    raise ArithmeticError("Bareiss exact division failed")
                ri[k] = q
            ri[c] = 0
        prev = pivot
        rank += 1
        r += 1
        if r == m:
            break
    return rank


def _modp_rank(red: np.ndarray, p: int) -> int:
    """Rank of a residue matrix (int64 entries in [0, p)) over GF(p); modifies red."""
    m, n = red.shape
    r = 0
    for c in range(n):
        nz = np.flatnonzero(red[r:, c])
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            red[[r, piv]] = red[[piv, r]]
        red[r, c:] = red[r, c:] * pow(int(red[r, c]), p - 2, p) % p
        # Rows below that need the update; the old row r, now at piv, is zero at c.
        below = r + nz[1:]
        red[below, c:] = (red[below, c:] - red[below, c, None] * red[r, c:]) % p
        r += 1
        if r == m:
            break
    return r


def exact_rank(a: np.ndarray) -> int:
    """Exact rank over Q of an int64 matrix, or of Python ints in an object array.

    The mod-p certificate of full row rank comes first: reduce mod p once and
    eliminate the residues; full row rank there makes the answer the row
    count, exactly. Otherwise Bareiss elimination on the exact matrix gives
    the rank. Object residues go through operator.index, so a Fraction raises
    TypeError rather than being truncated to an integer.
    """
    m, n = a.shape
    if m == 0 or n == 0:
        return 0
    red = a % _CERT_PRIME
    if red.dtype == object:
        red = np.fromiter(map(operator.index, red.flat), np.int64, red.size).reshape(m, n)
    elif red.dtype != np.int64:
        raise TypeError(f"exact_rank takes int64 or object integer matrices, not {a.dtype}")
    if _modp_rank(red, _CERT_PRIME) == m:
        return m
    return bareiss_rank(a)


def first_dependency(vectors: Iterable[dict[int, int | Fraction]], dim: int) -> Poly:
    """Monic c with c_0 v_0 + ... + c_k v_k = 0 for the first dependent prefix.

    Vectors are sparse, {index: value} with nonzero values, in a space of
    dimension `dim`. Each vector is scaled to integers once, beside its
    combination of the v_i, and each stored row keeps its integer pivot on its
    smallest index. A row with pivot p clears entry f as (p/g)*vec - (f/g)*row,
    g = gcd(p, f), and the content gcd of vector and combination is divided out
    after each step; only the final monic division uses fractions. The next
    vector is drawn only after the previous one proved independent, so a lazy
    Krylov sequence is computed no further than its first dependency.
    """
    reduced: list[tuple[int, int, dict[int, int], dict[int, int]]] = []
    for k, vec in enumerate(vectors):
        den = math.lcm(*(v.denominator for v in vec.values()))
        vec = {i: v.numerator * (den // v.denominator) for i, v in vec.items()}
        combo = {k: den}
        for piv, pv, row, row_combo in reduced:
            fac = vec.get(piv)
            if fac:
                g = math.gcd(pv, fac)
                _axpy(vec, -fac // g, row, pv // g)
                _axpy(combo, -fac // g, row_combo, pv // g)
                content = math.gcd(*vec.values(), *combo.values())
                if content != 1:
                    vec = {i: v // content for i, v in vec.items()}
                    combo = {i: q // content for i, q in combo.items()}
        if not vec:
            return pmonic(ptrim([combo.get(i, 0) for i in range(k + 1)]))
        if k >= dim:
            raise ArithmeticError("Krylov sequence failed to terminate")
        piv = min(vec)
        reduced.append((piv, vec[piv], vec, combo))
    raise ValueError("sequence ended before a linear dependency")


def sparse_vector(v: np.ndarray) -> dict[int, int]:
    """An integer array as {index: value} over its nonzero entries, for first_dependency."""
    nz = np.flatnonzero(v)
    return dict(zip(nz.tolist(), v[nz].tolist()))


def _axpy(
    y: dict[int, int | Fraction], a: int | Fraction, x: dict[int, int | Fraction], s: int = 1
) -> None:
    """y = s*y + a*x on sparse vectors; entries that cancel are dropped."""
    if s != 1:
        for i in y:
            y[i] *= s
    for i, v in x.items():
        t = y.get(i, 0) + a * v
        if t:
            y[i] = t
        else:
            del y[i]


def min_poly(a: np.ndarray) -> Poly:
    """Exact minimal polynomial of a square matrix.

    Least common multiple of the relative minimal polynomials of the standard
    basis seeds, each the first dependency of its Krylov sequence; seeds the
    current candidate already annihilates (a Horner test) are skipped. The
    matrix is read once into its nonzero columns, and every mat-vec works on
    sparse vectors of Python ints and Fractions, so the cost follows the
    nonzero entries and no coefficient size needs a bound.
    """
    a = np.asarray(a)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    entries = a.tolist()
    cols = [{i: row[j] for i, row in enumerate(entries) if row[j]} for j in range(n)]

    def apply(v: dict[int, int | Fraction]) -> dict[int, int | Fraction]:
        out: dict[int, int | Fraction] = {}
        for j, x in v.items():
            _axpy(out, x, cols[j])
        return out

    def krylov(s: int):
        v = {s: 1}
        while True:
            yield v
            v = apply(v)

    acc: Poly = ptrim([1])
    for s in range(n):
        w: dict[int, int | Fraction] = {}
        for c in reversed(acc):
            w = apply(w)
            if c:
                # Integral coefficients as ints keep integer work out of Fractions.
                _axpy(w, int(c) if c.denominator == 1 else c, {s: 1})
        if w:
            acc = plcm(acc, first_dependency(krylov(s), n))
    return acc
