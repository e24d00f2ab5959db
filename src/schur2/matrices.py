"""Exact dense matrix arithmetic for the representation oracles.

Matrices are numpy arrays. Exactness is non-negotiable: fast paths run in
int64 only when an a priori bound proves no overflow can occur, and otherwise
the code falls back to object-dtype arrays of Python ints/Fractions. No
floating point anywhere.

Rank is computed by fraction-free (Bareiss) elimination. For large integer
matrices a mod-p full-row-rank certificate is tried first: if the residue
matrix mod p has rank equal to the row count then so does the rational matrix
(rank can only drop under reduction), which is an exact conclusion; anything
short of that certificate falls back to Bareiss on the exact entries.

Minimal polynomials come from Krylov sequences: the lcm of the relative
minimal polynomials of standard basis vectors, skipping seeds the current
candidate already annihilates. The loop terminates with a polynomial that
kills every basis vector, hence the matrix, and divides the true minimal
polynomial throughout, so the result is exact and certified by construction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .qpoly import Poly, plcm, pmonic, ptrim

_INT64_SAFE = 2**62
_CERT_PRIME = 2**31 - 1


def as_exact(rows: Sequence[Sequence[int | Fraction]]) -> np.ndarray:
    a = np.empty((len(rows), len(rows[0]) if rows else 0), dtype=object)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            a[i, j] = x
    return a


def identity(n: int) -> np.ndarray:
    a = np.zeros((n, n), dtype=object)
    a[...] = 0
    for i in range(n):
        a[i, i] = 1
    return a


def zeros(n: int, m: int | None = None) -> np.ndarray:
    a = np.empty((n, m if m is not None else n), dtype=object)
    a[...] = 0
    return a


def is_integral(a: np.ndarray) -> bool:
    if a.dtype != object:
        return np.issubdtype(a.dtype, np.integer)
    return all(
        isinstance(x, int) or (isinstance(x, Fraction) and x.denominator == 1)
        for x in a.flat
    )


def max_abs(a: np.ndarray) -> int:
    if a.size == 0:
        return 0
    m = max(abs(x) for x in a.flat)
    return int(m) if isinstance(m, Fraction) else int(m)


def int64_safe(n: int, max_a: int, max_b: int) -> bool:
    """Whether length-n dot products of entries bounded by max_a and max_b fit int64."""
    return n * max(max_a, 1) * max(max_b, 1) < _INT64_SAFE


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact matrix (or matrix-vector) product; int64 under a proven bound."""
    if is_integral(a) and is_integral(b) and int64_safe(a.shape[1], max_abs(a), max_abs(b)):
        return (a.astype(np.int64) @ b.astype(np.int64)).astype(object)
    return a.dot(b)


def mat_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool((np.asarray(a, dtype=object) == np.asarray(b, dtype=object)).all())


def is_zero_matrix(a: np.ndarray) -> bool:
    return bool((np.asarray(a, dtype=object) == 0).all())


def _clear_denominators(rows: list[list[int | Fraction]]) -> list[list[int]]:
    """Row-wise denominator clearing; preserves rank."""
    out = []
    for row in rows:
        lcm = 1
        for x in row:
            if isinstance(x, Fraction):
                d = x.denominator
                lcm = lcm * d // math.gcd(lcm, d)
        out.append([int(x * lcm) for x in row])
    return out


def bareiss_rank(a: np.ndarray) -> int:
    """Exact rank by fraction-free elimination (one-step Bareiss)."""
    rows = _clear_denominators([list(r) for r in np.asarray(a, dtype=object)])
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
                assert rem == 0, "Bareiss exact division failed"
                ri[k] = q
            ri[c] = 0
        prev = pivot
        rank += 1
        r += 1
        if r == m:
            break
    return rank


def _modp_rank(a: np.ndarray, p: int = _CERT_PRIME) -> int:
    """Rank of the residue matrix mod p (a lower bound for the exact rank)."""
    m, n = a.shape
    if m == 0 or n == 0:
        return 0
    red = np.empty((m, n), dtype=np.int64)
    for i in range(m):
        red[i] = [int(x) % p for x in a[i]]
    r = 0
    for c in range(n):
        nz = np.nonzero(red[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            red[[r, piv]] = red[[piv, r]]
        inv = pow(int(red[r, c]), p - 2, p)
        red[r] = (red[r] * inv) % p
        col = red[r + 1 :, c].copy()
        if col.size:
            red[r + 1 :] = (red[r + 1 :] - col[:, None] * red[r][None, :]) % p
        r += 1
        if r == m:
            break
    return r


def exact_rank(a: np.ndarray) -> int:
    """Exact rank over Q.

    Small matrices go straight to Bareiss. Large integer matrices first try
    the mod-p certificate: a full-row-rank residue proves full rational rank
    exactly; otherwise Bareiss on the exact entries decides.
    """
    a = np.asarray(a, dtype=object)
    m, n = a.shape
    if m == 0 or n == 0:
        return 0
    if m * n <= 250_000 or not is_integral(a):
        return bareiss_rank(a)
    if _modp_rank(a) == m:
        return m
    return bareiss_rank(a)


def _poly_matvec(p: Poly, a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """p(a) applied to v by Horner; exact."""
    n = len(v)
    w = np.zeros(n, dtype=object)
    w[...] = 0
    for c in reversed(p):
        w = matmul(a, w)
        if c != 0:
            w = w + v * (int(c) if c.denominator == 1 else c)
    return w


def first_dependency(vectors: Iterable[Sequence[Fraction]]) -> Poly:
    """Monic c with c_0 v_0 + ... + c_k v_k = 0 for the first dependent prefix.

    Exact elimination keeps each stored row beside the combination of the
    v_i it came from. The next vector is drawn only after the previous one
    proved independent, so a lazy Krylov sequence is computed no further
    than its first dependency.
    """
    reduced: list[tuple[int, list[Fraction], list[Fraction]]] = []
    for k, vec in enumerate(vectors):
        vec = list(vec)
        combo = [Fraction(0)] * k + [Fraction(1)]
        for piv, row, row_combo in reduced:
            fac = vec[piv]
            if fac:
                for i, r in enumerate(row):
                    if r:
                        vec[i] -= fac * r
                for i, r in enumerate(row_combo):
                    if r:
                        combo[i] -= fac * r
        piv = next((i for i, v in enumerate(vec) if v), None)
        if piv is None:
            return pmonic(ptrim(combo))
        if k >= len(vec):
            raise ArithmeticError("Krylov sequence failed to terminate")
        inv = 1 / vec[piv]
        reduced.append((piv, [v * inv for v in vec], [q * inv for q in combo]))
    raise ValueError("sequence ended before a linear dependency")


def _relative_min_poly(a: np.ndarray, v: np.ndarray) -> Poly:
    """Monic generator of {p : p(a) v = 0} via Krylov linear dependence."""

    def krylov():
        w = v
        while True:
            yield [Fraction(x) for x in w]
            w = matmul(a, w)

    return first_dependency(krylov())


def _annihilates_i64(p_int: list[int], a64: np.ndarray, max_a: int, seed: int) -> bool | None:
    """Whether p(a) e_seed = 0, in guarded int64; None if a bound would bust."""
    n = a64.shape[0]
    w = np.zeros(n, dtype=np.int64)
    max_w = 0
    for c in reversed(p_int):
        if not int64_safe(n, max_a, max_w) or abs(c) >= _INT64_SAFE:
            return None
        w = a64 @ w
        if c:
            w[seed] += c
        max_w = int(np.abs(w).max(initial=0))
    return not w.any()


def min_poly(a: np.ndarray) -> Poly:
    """Exact minimal polynomial of a square matrix.

    Least common multiple of the relative minimal polynomials of the standard
    basis seeds; seeds the current candidate already annihilates are skipped,
    and that annihilation test runs in guarded int64 when the matrix and the
    candidate are integral (the common case: integer matrices have integer
    monic minimal polynomials).
    """
    a = np.asarray(a, dtype=object)
    n = a.shape[0]
    assert a.shape == (n, n), "matrix must be square"
    a64 = None
    max_a = 0
    if is_integral(a):
        max_a = max_abs(a)
        if int64_safe(n, max_a, 1):
            a64 = np.array([[int(x) for x in row] for row in a], dtype=np.int64)
    acc: Poly = ptrim([1])
    for s in range(n):
        killed = None
        if a64 is not None and all(c.denominator == 1 for c in acc):
            killed = _annihilates_i64([int(c) for c in acc], a64, max_a, s)
        if killed is None:
            v = np.zeros(n, dtype=object)
            v[...] = 0
            v[s] = 1
            killed = not any(_poly_matvec(acc, a, v))
        if killed:
            continue
        v = np.zeros(n, dtype=object)
        v[...] = 0
        v[s] = 1
        acc = plcm(acc, _relative_min_poly(a, v))
    return acc
