"""Exact matrix arithmetic for the representation oracles.

Matrices are numpy arrays of int64 or of Python ints/Fractions (object
dtype). Exactness is non-negotiable, and there is no floating point anywhere.
Arithmetic on the entries themselves runs in int64 only in
`oracle.ProductCheck` and in `apply_right` (the integer steps of the symbolic
engine's Krylov sequences and linear-form products), and only when
`int64_safe` proves from a priori bounds that no overflow can occur; the rank
certificate and the modular minimal polynomial below work in int64 on
residues mod p.

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

The minimal polynomial of a matrix comes from Krylov sequences: the lcm of
the relative minimal polynomials of standard basis vectors, skipping seeds
the current candidate already annihilates. The loop terminates with a
polynomial that kills every basis vector, hence the matrix, and divides the
true minimal polynomial throughout, so the result is exact and certified by
construction. The arithmetic is exact and sparse: the matrix is read once
into its nonzero columns, vectors are {index: value} dicts of Python ints and
Fractions, and the cost follows the nonzero entries, not the size of the
coefficients. The dependency search itself (first_dependency) runs on
integers: rows keep their integer pivots, each reduction divides out the
content gcd, and one monic division at the end is the only Fraction step.

The symbolic engine's minimal polynomial (krylov_min_poly) is modular and
certified instead. Its sequence v, vM, vM^2, ... comes from an integer
matrix M, so the first dependency is monic in Z[T], and its coefficients are
bounded by the eigenvalues of M. A prime p < 2^26 finds the degree K and K
pivot coordinates: each power is reduced mod p against a reduced row-echelon
stack, one int64 dot product of K residues per coordinate, and the first
power that vanishes ends the search. K powers independent mod p are
independent over Q, so K is never above the true degree. Balanced p-adic
(Dixon) lifting then solves the K x K pivot system for integers: each stack
row carries its combination of the powers, which inverts the system mod p,
and each digit costs one exact K x K mat-vec. An
exact check of the relation on every coordinate of the powers certifies the
answer. A prime whose check fails, or whose lifting outruns the coefficient
bound, gives way to the next, and when none is left the result is an
ArithmeticError, never an unchecked polynomial.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .qpoly import Poly, plcm, pmonic, ptrim

_INT64_SAFE = 2**62
_CERT_PRIME = 2**31 - 1
# The largest primes below 2^26, tried in turn by krylov_min_poly. A dot
# product of K residues stays in one int64 step up to K = 1024 (_dot_mod).
_PRIMES = (67108859, 67108837, 67108819, 67108777, 67108763, 67108757, 67108753, 67108747)


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


def _residues(v: np.ndarray, p: int) -> np.ndarray:
    """An integer array (int64 or Python ints) mod p, as int64 in [0, p)."""
    return (v % p).astype(np.int64, copy=False)


def _dot_mod(u: np.ndarray, m: np.ndarray, p: int) -> np.ndarray:
    """u @ m mod p for residues in [0, p): in int64, split in halves until int64_safe bounds each part."""
    if int64_safe(len(u), p, p):
        return u @ m % p
    half = len(u) // 2
    return (_dot_mod(u[:half], m[:half], p) + _dot_mod(u[half:], m[half:], p)) % p


def _modp_pivots(drawn: list[np.ndarray], powers: Iterator[np.ndarray], p: int) -> tuple[list[int], np.ndarray]:
    """Pivot coordinates of v_0, ..., v_{K-1}, the longest prefix independent mod p, and a K x K matrix T.

    drawn caches the powers already taken from the iterator; it is extended
    up to v_K, the first power in the span of the earlier ones mod p. Row i
    of stack is [w_i | t_i], where w_i = sum_k t_ik v_k mod p is in reduced
    row-echelon form: a power r reduces in one dot product, r - r[pivots] @
    stack. As w_i is 1 at pivot i and 0 at the others, T = (t_ik) inverts
    the pivot system A_ik = v_k[pivot_i] mod p: A^-1 = T^t.
    """
    pivots: list[int] = []
    while True:
        k = len(pivots)
        if k == len(drawn):
            drawn.append(next(powers))
        r = _residues(drawn[k], p)
        if not k:
            n = len(r)
            stack = np.zeros((0, n + 1), dtype=np.int64)
        # [v_k | e_k]: stack keeps one zero column for the e_k of the next power.
        r = (np.concatenate((r, np.zeros(k, dtype=np.int64), [1])) - _dot_mod(r[pivots], stack, p)) % p
        nonzero = r[:n].nonzero()[0]
        if not nonzero.size:
            return pivots, stack[:, n:-1]
        c = int(nonzero[0])
        r = r * pow(int(r[c]), -1, p) % p
        grown = np.zeros((k + 1, n + k + 2), dtype=np.int64)
        grown[:k, :-1] = (stack - stack[:, c, None] * r) % p
        grown[k, :-1] = r
        stack = grown
        pivots.append(c)


def _lift(a: np.ndarray, b: np.ndarray, t: np.ndarray, p: int, digits: int) -> np.ndarray | None:
    """The integer x with a @ x = b by balanced p-adic (Dixon) lifting, or None past `digits` digits.

    a and b hold Python ints, and a^-1 = t^t mod p. Each digit is a^-1 r =
    r @ t mod p, taken in (-p/2, p/2), and the residual r = (r - a @ digit)
    / p is an exact division; x is found when r is exactly zero. An integer
    solution with entries below p^digits / 2 in absolute value is found
    within `digits` digits.
    """
    x = np.zeros(len(b), dtype=object)
    r, scale = b, 1
    for _ in range(digits):
        if not r.any():
            break
        digit = _dot_mod(_residues(r, p), t, p)
        digit = (digit - p * (digit > p // 2)).astype(object)
        x += scale * digit
        r = (r - a @ digit) // p
        scale *= p
    return None if r.any() else x


def _annihilates(coeffs: list[int], vectors: list[np.ndarray]) -> bool:
    """Whether sum c_k v_k is zero on every coordinate, computed on Python ints."""
    total = np.zeros(len(vectors[0]), dtype=object)
    for c, v in zip(coeffs, vectors):
        if c:
            total += c * v.astype(object)
    return not total.any()


def krylov_min_poly(powers: Iterator[np.ndarray], rho: int) -> list[int]:
    """The monic integer c_0, ..., c_K = 1 of the first dependency sum c_k v_k = 0 of v_k = v_0 M^k.

    powers yields the integer arrays v_0, v_1, ... (int64 or Python ints),
    drawn only as far as they are needed, for an integer matrix M with no
    eigenvalue above rho in absolute value. The dependency divides M's
    minimal polynomial, so |c_k| <= (1 + rho)^K, which caps the lifting.
    Each prime of _PRIMES in turn finds K and the pivots (_modp_pivots),
    lifts the pivot system (_lift) and checks the relation on every
    coordinate (_annihilates); the first prime that passes gives the answer.
    """
    drawn: list[np.ndarray] = []
    for p in _PRIMES:
        pivots, t = _modp_pivots(drawn, powers, p)
        k = len(pivots)
        a = np.array([v[pivots].tolist() for v in drawn[:k]], dtype=object).reshape(k, k).T
        b = np.array([-x for x in drawn[k][pivots].tolist()], dtype=object)
        bound, digits, scale = 2 * (1 + rho) ** k, 0, 1
        while scale <= bound:
            scale *= p
            digits += 1
        x = _lift(a, b, t, p, digits)
        if x is not None:
            coeffs = [*x.tolist(), 1]
            if _annihilates(coeffs, drawn[: k + 1]):
                return coeffs
    raise ArithmeticError("no prime certified the minimal polynomial")


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
