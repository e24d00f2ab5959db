"""Exact matrix arithmetic for the representation oracles.

Matrices are numpy arrays of int64 or of Python ints/Fractions (object
dtype). Exactness is non-negotiable, and there is no floating point anywhere.
Arithmetic on the entries themselves runs in int64 only in
`oracle.products_match`, and only when `int64_safe` proves from a priori
bounds that no overflow can occur; the rank certificate below works in int64
on residues mod p.

Rank is exact. For an integral matrix with m rows, `exact_rank` first tries
to certify full row rank mod p, all in bounded int64:

1. Columns: the matrix is reduced mod p once, and columns that are zero mod p
   are dropped. Any column subset S gives rank(M[:,S]) <= rank(M) <= m, so a
   dropped column can cost the certificate, never correctness. Nothing else is
   selected: the callers pass one stack of probe vectors per shift, square
   with no zero column in the weight model, and zero outside its shift's
   columns in the word model. The word model's repeated columns are left in;
   once an earlier copy has pivoted, each costs one scan of a zero column,
   less than building a fingerprint of every column would.
2. Certificate: the kept residues are eliminated mod p, each pivot updating
   only the rows below it that are nonzero in its column. Full row rank mod p
   gives full row rank over Q (a nonzero minor mod p is a nonzero integer
   minor), and the rank is m exactly.

When the certificate fails, and for non-integral input, fraction-free
(Bareiss) elimination on the full exact matrix decides.

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
from fractions import Fraction
from typing import Iterable

import numpy as np

from .qpoly import Poly, plcm, pmonic, ptrim

_INT64_SAFE = 2**62
_CERT_PRIME = 2**31 - 1


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


def int64_safe(n: int, max_a: int, max_b: int) -> bool:
    """Whether length-n dot products of entries bounded by max_a and max_b fit int64."""
    return n * max(max_a, 1) * max(max_b, 1) < _INT64_SAFE


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
    """Exact rank over Q.

    Integral input (any integer dtype, or object ints) first tries the mod-p
    certificate of full row rank: reduce mod p once, drop the columns that are
    zero there and eliminate the rest. Full row rank there makes the answer the
    row count, exactly. The oracles' probe stacks come one per shift, so no
    further column selection pays (module docstring). Otherwise, and for
    Fraction entries, Bareiss elimination on the full exact matrix gives the
    rank.
    """
    a = np.asarray(a)
    if a.dtype != object:
        # The residue arithmetic is int64; a dtype int64 cannot hold goes exact.
        a = a.astype(np.int64 if np.can_cast(a.dtype, np.int64) else object, copy=False)
    m, n = a.shape
    if m == 0 or n == 0:
        return 0
    if is_integral(a):
        red = (a % _CERT_PRIME).astype(np.int64, copy=False)
        if _modp_rank(red[:, red.any(axis=0)], _CERT_PRIME) == m:
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
