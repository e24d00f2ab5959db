"""The truncated algebra: an exact model of the Schur algebra S(2,d).

For a fixed nonnegative integer d, the algebra is the quotient of the
enveloping algebra of gl2 by H1 + H2 = d and the single truncation relation
H1(H1-1)...(H1-d) = 0. Its dimension is binom(d+3,3), with integral basis the
truncated Kostant monomials f^(a) binom(H2,b) e^(c), a+b+c <= d (FHE flavor;
EHF mirrors with e..H1..f).

The workhorse is the reduction formula: for s = a+b+c-d >= 1,

    f^(a) binom(H2,b) e^(c)
        = sum_{k=s}^{min(a,c)} (-1)^(k-s) binom(k-1,s-1) binom(b+k,k)
              f^(a-k) binom(H2,b+k) e^(c-k),

an empty sum (min(a,c) < s) being zero. Every output term has degree
a+b+c-k <= d, since k >= s, so a single pass puts any monomial into the span
of the basis and no loop or check is needed.

Products are assembled from a cached normal form of the collision
binom(H,b) e^(c) * f^(a') binom(H,b') in the flavor's own variable H, given
by Kostant's commutation formula

    e^(c) f^(a') = sum_t f^(a'-t) binom(h - a' - c + 2t, t) e^(c-t),

with h = d - 2H2 (FHE; EHF mirrors with f^(c) e^(a') and -h = d - 2H1),
then reduced term by term. The untruncated U-mode engine of schur2.elements
is not used: that mul_bd equals normalize(mul(x,y)) is a tested property
comparing the two engines, and the structure constants are independently
checked against the matrix oracles.

The single-product kernel _add_product serves mul_bd and min_poly, reading
the cached tables _collision_table and _reduce_table one key at a time. The
full table is a stream of blocks of basis pairs (structure_blocks) that
evaluates the same formulas on arrays: every collision polynomial of one d is
evaluated and differenced in one integer pass (_collision_csr, equal to
_collision_table key for key), the reduction rows are _reduce_table's own,
flattened into arrays, and each block gathers its collision terms, scales
them by the Pascal factors, expands them through the reduction rows and sums
by (pair, k). structure_constants collects the stream into a StructureTable;
`schur2 table` writes it and `verify` checks it block by block. A block, or a
chunk of the collision pass, runs in int64 when an exact bit-length bound
stays within 62 bits, and on Python ints (object arrays) otherwise; no floats
are involved.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from typing import Iterator, Sequence

import numpy as np

from . import matrices
from .elements import (
    Element,
    Flavor,
    Scalar,
    linear_product,
    mul,
    substitute_offvar,
)
from .ivpoly import binom, values_to_coeffs
from .qpoly import Poly, pfrom_roots

Monomial = tuple[int, int, int]


@dataclass(frozen=True)
class SchurContext:
    """The algebra parameter d and the working flavor."""

    d: int
    flavor: Flavor = Flavor.FHE

    def __post_init__(self) -> None:
        if self.d < 0:
            raise ValueError("d must be nonnegative")


def dimension(d: int) -> int:
    return comb(d + 3, 3)


def basis(ctx: SchurContext) -> list[Monomial]:
    """All (a,b,c) with a+b+c <= d, lexicographic; length binom(d+3,3)."""
    return _region(ctx.d, True, True)


@lru_cache(maxsize=None)
def _reduce_table(d: int, a: int, b: int, c: int) -> tuple[tuple[Monomial, int], ...]:
    s = a + b + c - d
    if s <= 0:
        return (((a, b, c), 1),)
    if min(a, c) < s:
        return ()
    out = []
    for k in range(s, min(a, c) + 1):
        coef = (-1) ** (k - s) * binom(k - 1, s - 1) * binom(b + k, k)
        out.append(((a - k, b + k, c - k), coef))
    return tuple(out)


def _flavor_key(flavor: Flavor, a: int, b: int, c: int) -> tuple[int, int, int, int]:
    return (a, 0, b, c) if flavor is Flavor.FHE else (a, b, 0, c)


def normalize(x: Element, ctx: SchurContext) -> Element:
    """Image in the truncated algebra, expressed over the Kostant basis.

    Collapses the off-flavor variable through H1 + H2 = d, then reduces every
    monomial. Idempotent; the result only has terms with a+b+c <= d.
    """
    if x.flavor is not ctx.flavor:
        raise ValueError("flavor mismatch with context")
    out: dict[tuple[int, int, int, int], Scalar] = {}
    for (a, b, c), q in _own_var_terms(x, ctx.d).items():
        for mono, coef in _reduce_table(ctx.d, a, b, c):
            key = _flavor_key(ctx.flavor, *mono)
            out[key] = out.get(key, 0) + q * coef
    return Element(ctx.flavor, out)


@lru_cache(maxsize=None)
def _collision_table(
    d: int, b: int, c: int, a2: int, b2: int
) -> tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]:
    """Normal form of binom(H,b) R^(c) * L^(a2) binom(H,b2), off-var collapsed.

    Returns tuples (aa, cc, middle) with middle = ((m, coef), ...) meaning
    L^(aa) * sum coef*binom(H,m) * R^(cc). By Kostant's formula the collision
    is the sum over t = 0..min(c,a2) of L^(a2-t) P_t(H) R^(c-t) with

        P_t(H) = binom(H+a2-t, b) binom(d-2H-a2-c+2t, t) binom(H+c-t, b2),

    the middle factor being binom(+-h - a2 - c + 2t, t) with +-h = d - 2H in
    both flavors. P_t has degree b+t+b2, so its values at H = 0..b+t+b2 fix
    its (integral) binomial-basis coefficients. Only the middle factor's upper
    argument can be negative; t <= min(c, a2) keeps the outer two >= 0.
    """
    out = []
    for t in range(min(c, a2), -1, -1):
        values = [
            comb(h + a2 - t, b) * binom(d - 2 * h - a2 - c + 2 * t, t) * comb(h + c - t, b2)
            for h in range(b + t + b2 + 1)
        ]
        middle = tuple((m, q) for m, q in enumerate(values_to_coeffs(values)) if q)
        if middle:
            out.append((a2 - t, c - t, middle))
    return tuple(out)


def _own_var_terms(x: Element, d: int) -> dict[Monomial, Scalar]:
    """x as {(a, b, c): coeff} in the flavor's own H; substitutes only if needed.

    Terms with a > d or c > d are dropped first: _reduce_table sends each to 0
    (s > min(a, c)). So are terms with b1 + b2 > d: binom(H1,b1) binom(H2,b2)
    vanishes on every weight (H1, H2) with H1 + H2 = d. The kernel of
    U -> S(2,d) is an ideal, so neither normalize nor a factor of mul_bd
    needs them.
    """
    off = 1 if x.flavor is Flavor.FHE else 2
    terms = {key: q for key, q in x.terms.items() if key[0] <= d and key[3] <= d and key[1] + key[2] <= d}
    x = Element._of_canonical(x.flavor, terms)
    if any(key[off] for key in terms):
        x = substitute_offvar(x, d)
    return x.single_var_terms()


def _add_product(out: dict[Monomial, Scalar], d: int, q: Scalar, x: Monomial, y: Monomial) -> None:
    """Add q * x * y, reduced onto the basis, into out (own-variable triples)."""
    a, b, c = x
    a2, b2, c2 = y
    for aa, cc, middle in _collision_table(d, b, c, a2, b2):
        big_a, big_c = a + aa, cc + c2
        scal = q * comb(big_a, a) * comb(big_c, cc)
        for m, mc in middle:
            qm = scal * mc
            for mono, coef in _reduce_table(d, big_a, m, big_c):
                out[mono] = out.get(mono, 0) + qm * coef


def mul_bd(x: Element, y: Element, ctx: SchurContext) -> Element:
    """Product in the truncated algebra; equals normalize(mul(x, y))."""
    if x.flavor is not ctx.flavor or y.flavor is not ctx.flavor:
        raise ValueError("flavor mismatch with context")
    d, flavor = ctx.d, ctx.flavor
    ys = _own_var_terms(y, d).items()
    out: dict[Monomial, Scalar] = {}
    for xm, qx in _own_var_terms(x, d).items():
        for ym, qy in ys:
            _add_product(out, d, qx * qy, xm, ym)
    return Element(flavor, {_flavor_key(flavor, *mono): q for mono, q in out.items()})


@dataclass
class StructureTable:
    """Structure constants of the truncated Kostant basis."""

    d: int
    flavor: Flavor
    basis: tuple[Monomial, ...]
    products: dict[tuple[int, int], tuple[tuple[int, Scalar], ...]]


# Pairs per block of the table build, polynomials per chunk of the collision
# fill, and the largest bit length a summed structure constant (or a forward
# difference of the fill) may reach for its block or chunk to run in int64.
_BLOCK_PAIRS = 1 << 10
_FILL_ROWS = 1 << 12
_INT64_BITS = 62


def _int_array(values: list[int]) -> np.ndarray:
    """values as int64, or as Python ints (dtype object) when one does not fit."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _bit_lengths(values: list[int]) -> np.ndarray:
    return np.fromiter((abs(v).bit_length() for v in values), dtype=np.int32, count=len(values))


def _gather(ptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each entry of the CSR rows `rows`: its position in `rows` and in the flat arrays."""
    starts, lengths = ptr[rows], ptr[rows + 1] - ptr[rows]
    owner = np.repeat(np.arange(len(rows)), lengths)
    first = np.cumsum(lengths) - lengths
    return owner, np.arange(len(owner)) + (starts - first)[owner]


def _collision_csr(d: int) -> tuple[np.ndarray, ...]:
    """Every _collision_table(d, b, c, a2, b2) with b+c, a2+b2 <= d, in one pass.

    Returns (ptr, aa, cc, m, q): CSR rows keyed by (b, c, a2, b2) in base
    d+1, one entry per nonzero term L^(aa) q*binom(H,m) R^(cc), each row in
    _collision_table's order (t descending, then m ascending); q is int64,
    or Python ints (dtype object) once a chunk ran on them. Every
    polynomial P_t is evaluated at H = 0..deg, deg = b+t+b2, from one Pascal
    table, the middle factor binom(u, t) with u < 0 by upper negation
    (-1)^t binom(t-u-1, t); deg column passes of forward differences turn the
    values into the binomial-basis coefficients. Polynomials are taken by
    degree in chunks. A chunk runs in int64 when its factors' bit lengths
    plus deg stay within _INT64_BITS (a k-th difference of values below 2**v
    is below 2**(v+k)), and on Python ints otherwise.
    """
    base = d + 1
    b, c, a2, b2 = np.indices((base,) * 4).reshape(4, -1)
    count = np.where((b + c <= d) & (a2 + b2 <= d), np.minimum(c, a2) + 1, 0)
    key = np.repeat(np.arange(base**4), count)
    t = (np.cumsum(count) - 1)[key] - np.arange(len(key))
    b, c, a2, b2 = b[key], c[key], a2[key], b2[key]
    deg = b + t + b2
    # Every upper argument below is at most 3d (H <= deg), every lower one at most d.
    pascal = [comb(n, k) for n in range(3 * d + 1) for k in range(base)]
    table = _int_array(pascal).reshape(-1, base)
    table_bits = _bit_lengths(pascal).reshape(-1, base)

    rows, ms, qs = [], [], []
    by_deg = np.argsort(deg, kind="stable")
    starts = np.searchsorted(deg[by_deg], np.arange(2 * d + 2))
    for g in range(2 * d + 1):
        h = np.arange(g + 1)
        for lo in range(starts[g], starts[g + 1], _FILL_ROWS):
            r = by_deg[lo : min(lo + _FILL_ROWS, starts[g + 1])]
            tt = t[r, None]
            up = d - 2 * h - a2[r, None] - c[r, None] + 2 * tt
            at = [
                (h + a2[r, None] - tt, b[r, None]),
                (np.where(up < 0, tt - up - 1, up), tt),
                (h + c[r, None] - tt, b2[r, None]),
            ]
            factors = [table[i] for i in at]
            if int(sum(table_bits[i] for i in at).max()) + g > _INT64_BITS:
                factors = [f.astype(object) for f in factors]
            v = factors[0] * factors[1] * factors[2] * (1 - 2 * ((up < 0) & (tt % 2 == 1)))
            for k in range(1, g + 1):
                v[:, k:] = v[:, k:] - v[:, k - 1 : -1]
            nz, m = np.nonzero(v)
            rows.append(r[nz])
            ms.append(m)
            qs.append(v[nz, m])
    row, m = np.concatenate(rows), np.concatenate(ms)
    order = np.argsort(row * (2 * d + 1) + m)
    row, m, q = row[order], m[order], np.concatenate(qs)[order]
    ptr = np.concatenate(([0], np.cumsum(np.bincount(key[row], minlength=base**4))))
    return ptr, (a2 - t)[row].astype(np.int16), (c - t)[row].astype(np.int16), m.astype(np.int16), q


class _TableKernel:
    """The two tables of mul_bd's kernel at one d, as arrays.

    Collisions are CSR rows keyed by (b, c, a2, b2) in base d+1, one entry per
    term L^(aa) binom(H,m) R^(cc), from _collision_csr; reductions are the
    rows of _reduce_table itself, read once and flattened into CSR
    (_reduction_csr), keyed by the unreduced monomial (A, m, C) in base 2d+1
    (a product has degree <= 2d), one entry per basis index k. Beside the
    values sit their bit lengths (per reduction row, its widest entry), for
    the int64 bound.
    """

    def __init__(self, d: int, monos: list[Monomial]) -> None:
        self.d, self.n = d, len(monos)
        wide = 2 * d + 1
        self.a, self.b, self.c = np.array(monos, dtype=np.int64).reshape(-1, 3).T

        self.col_ptr, self.col_aa, self.col_cc, self.col_m, qs = _collision_csr(d)
        qs = qs.tolist()
        self.col_q, self.col_bits = _int_array(qs), _bit_lengths(qs)

        pascal = [comb(up, low) for up in range(wide) for low in range(wide)]
        self.pascal = _int_array(pascal).reshape(wide, wide)
        self.pascal_bits = _bit_lengths(pascal).reshape(wide, wide)
        self._reduction_csr(monos)

    def _reduction_csr(self, monos: list[Monomial]) -> None:
        """_reduce_table(d, A, m, C) for every code of base 2d+1, flattened.

        A row is empty unless max(A, C) + m <= d: below degree d+1 a monomial
        is its own row, and above it the row's k = s..min(A, C) needs
        A, C >= s = A+m+C-d. So only the codes with A <= d, m <= d - A and
        C <= d - m are read, in code order.
        """
        d, wide = self.d, 2 * self.d + 1
        index = {mono: k for k, mono in enumerate(monos)}
        codes, rows = [], []
        for big_a in range(d + 1):
            for m in range(d + 1 - big_a):
                for big_c in range(d + 1 - m):
                    codes.append((big_a * wide + m) * wide + big_c)
                    rows.append(_reduce_table(d, big_a, m, big_c))
        lengths = np.zeros(wide**3, dtype=np.int64)
        lengths[codes] = [len(row) for row in rows]
        self.red_ptr = np.concatenate(([0], np.cumsum(lengths)))
        self.red_k = np.array([index[mono] for row in rows for mono, _ in row], dtype=np.int64)
        self.red_q = _int_array([q for row in rows for _, q in row])
        self.red_bits = np.zeros(wide**3, dtype=np.int64)
        self.red_bits[codes] = [max((abs(q).bit_length() for _, q in row), default=0) for row in rows]

    def products(self, p0: int, p1: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(pair, k, q) of every nonzero structure constant of the pairs p0 <= p < p1.

        Pair p is (p // n, p % n); the triples come sorted by (pair, k).
        """
        n, base, wide = self.n, self.d + 1, 2 * self.d + 1
        pairs = np.arange(p0, p1)
        i, j = pairs // n, pairs % n
        keys = ((self.b[i] * base + self.c[i]) * base + self.a[j]) * base + self.b[j]
        owner, ent = _gather(self.col_ptr, keys)
        a, cc = self.a[i][owner], self.col_cc[ent]
        big_a, big_c = a + self.col_aa[ent], cc + self.c[j][owner]
        codes = (big_a * wide + self.col_m[ent]) * wide + big_c
        term, red = _gather(self.red_ptr, codes)

        target = owner[term] * n + self.red_k[red]
        order = np.argsort(target)
        target = target[order]
        starts = np.flatnonzero(np.diff(target, prepend=-1))
        if not len(starts):
            return starts, starts, starts
        # Each reduced term is below 2**bits in absolute value, so a sum of at
        # most `most` of them is below 2**(bits + most.bit_length()).
        bits = self.pascal_bits[big_a, a] + self.pascal_bits[big_c, cc] + self.col_bits[ent]
        bits = int((bits + self.red_bits[codes]).max())
        most = int(np.diff(starts, append=len(target)).max())
        factors = [self.pascal[big_a, a], self.pascal[big_c, cc], self.col_q[ent], self.red_q[red]]
        if bits + most.bit_length() > _INT64_BITS:
            factors = [f.astype(object) for f in factors]
        scale = factors[0] * factors[1] * factors[2]
        sums = np.add.reduceat((scale[term] * factors[3])[order], starts)
        keep = np.flatnonzero(sums != 0)
        target = target[starts[keep]]
        return target // n + p0, target % n, sums[keep]


Block = tuple[np.ndarray, np.ndarray, np.ndarray]


def structure_blocks(ctx: SchurContext) -> Iterator[Block]:
    """The structure constants as a stream of blocks of basis pairs.

    Each block is (pair, k, q) for the pairs p0 <= p < p0 + _BLOCK_PAIRS in
    row-major order: pair p is (p // n, p % n) over basis(ctx), and every
    nonzero constant of it is one entry q at basis index k, sorted by (pair,
    k). Pairs whose product vanishes have no entry. q is int64, or Python ints
    (dtype object) where a block's exact bound passes 62 bits. Each block
    gathers its collision terms, scales them by the Pascal factors, expands
    them through the reduction rows and sums by (pair, k): the formulas of
    _add_product, on arrays.
    """
    monos = basis(ctx)
    n = len(monos)
    kernel = _TableKernel(ctx.d, monos)
    for p0 in range(0, n * n, _BLOCK_PAIRS):
        yield kernel.products(p0, min(p0 + _BLOCK_PAIRS, n * n))


def structure_constants(ctx: SchurContext) -> StructureTable:
    """The whole table, collected from structure_blocks."""
    monos = basis(ctx)
    n = len(monos)
    ks = list(range(n))  # one int object per basis index, shared by all rows
    products = dict.fromkeys(itertools.product(range(n), repeat=2), ())
    for pair, k, q in structure_blocks(ctx):
        terms = list(zip(map(ks.__getitem__, k.tolist()), q.tolist()))
        pairs, starts = pair.tolist(), np.flatnonzero(np.diff(pair, prepend=-1)).tolist()
        for lo, hi in zip(starts, starts[1:] + [len(terms)]):
            products[divmod(pairs[lo], n)] = tuple(terms[lo:hi])
    return StructureTable(ctx.d, ctx.flavor, tuple(monos), products)


def mul_bd_row_mismatches(
    ctx: SchurContext, rows: dict[tuple[int, int], Sequence[tuple[int, Scalar]]]
) -> tuple[int, list[tuple[int, int]]]:
    """mul_bd against table rows on every pair (i, j) with x_i of degree 1.

    rows maps (i, j) to its terms ((k, q), ...) sorted by k, as
    StructureTable.products does; a pair it lacks is a zero product. Returns
    the number of pairs compared and those whose row differs. mul_bd reads
    the per-key _collision_table and the table stream the batched
    _collision_csr, so this pins the two collision kernels to each other; the
    left factors e, binom(H,1) and f meet every collision key (b, c, a2, b2)
    with b + c <= 1. Both sides read the same _reduce_table, so a fault in
    the reduction rule shows in the model checks, not here.
    """
    monos = basis(ctx)
    index = {mono: k for k, mono in enumerate(monos)}
    elems = [Element.monomial(*mono, ctx.flavor) for mono in monos]
    pairs = [(i, j) for i, mono in enumerate(monos) if sum(mono) == 1 for j in range(len(elems))]
    return len(pairs), [
        (i, j)
        for i, j in pairs
        if tuple(rows.get((i, j), ()))
        != tuple(sorted((index[m], q) for m, q in mul_bd(elems[i], elems[j], ctx).single_var_terms().items()))
    ]


# -- basis conversions -----------------------------------------------------


@lru_cache(maxsize=None)
def _binom_to_powers(b: int) -> tuple[Fraction, ...]:
    """binom(H,b) as a dense coefficient tuple over 1, H, H^2, ..."""
    poly: tuple[Fraction, ...] = (Fraction(1),)
    for i in range(b):
        poly = tuple(
            (poly[k - 1] if k else Fraction(0)) - i * (poly[k] if k < len(poly) else 0)
            for k in range(len(poly) + 1)
        )
    return tuple(c / factorial(b) for c in poly)


def to_power_basis(x: Element, ctx: SchurContext) -> dict[Monomial, Fraction]:
    """Coefficients over the plain-power monomials f^a H^b e^c, a+b+c <= d.

    H is the flavor's own variable (H2 for FHE, H1 for EHF). The change of
    basis is triangular: divided powers contribute 1/(a! c!), binomials expand
    through falling factorials.
    """
    out: dict[Monomial, Fraction] = {}
    for (a, b, c), q in normalize(x, ctx).single_var_terms().items():
        scale = Fraction(q) / (factorial(a) * factorial(c))
        for m, cm in enumerate(_binom_to_powers(b)):
            out[(a, m, c)] = out.get((a, m, c), 0) + scale * cm
    return {key: v for key, v in out.items() if v}


def to_h_basis(x: Element, ctx: SchurContext) -> dict[Monomial, Fraction]:
    """Coefficients over f^a h^b e^c, a+b+c <= d, via H2 = (d-h)/2 (FHE).

    EHF uses H1 = (d+h)/2; either way the substitution is triangular in the
    power basis and invertible over Q.
    """
    d = ctx.d
    sign = -1 if ctx.flavor is Flavor.FHE else 1
    out: dict[Monomial, Fraction] = {}
    for (a, m, c), q in to_power_basis(x, ctx).items():
        # H^m = ((d + sign*h)/2)^m expanded in powers of h.
        for i in range(m + 1):
            coef = q * comb(m, i) * d ** (m - i) * sign**i / Fraction(2**m)
            out[(a, i, c)] = out.get((a, i, c), 0) + coef
    return {key: v for key, v in out.items() if v}


# -- minimal polynomials ----------------------------------------------------


def _region(d: int, has_a: bool, has_c: bool) -> list[Monomial]:
    """The basis monomials with a = 0 unless has_a and c = 0 unless has_c, in basis order."""
    return [
        (a, b, c)
        for a in range(d + 1 if has_a else 1)
        for b in range(d + 1 - a)
        for c in range(d + 1 - a - b if has_c else 1)
    ]


@lru_cache(maxsize=64)
def _right_rows(d: int, y: Monomial, has_a: bool, has_c: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """(row, col, val) of every nonzero entry of m*y, for m over _region(d, has_a, has_c), and a norm.

    Rows and columns are indices into the region: a product of two of its
    monomials stays in it, since without f^(a) (e^(c)) on either side no
    collision term or reduction creates one. The norm is the largest column
    sum of |val|, which bounds every eigenvalue of right multiplication by y.

    The cache keeps 64 entries of 24 bytes per nonzero (int64; object arrays
    hold Python ints instead). Over the whole basis the largest entry is
    64 KB at d=10 and 263 KB at d=14, so the cache stays under 4.2 MB for
    d <= 10 and under 17 MB for d <= 14; a Cartan entry is under 2 KB there.
    """
    region = _region(d, has_a, has_c)
    index = {mono: k for k, mono in enumerate(region)}
    rows, cols, vals = [], [], []
    sums = [0] * len(region)
    for i, mono in enumerate(region):
        out: dict[Monomial, Scalar] = {}
        _add_product(out, d, 1, mono, y)
        for m, q in out.items():
            if q:
                j = index[m]
                rows.append(i)
                cols.append(j)
                vals.append(q)
                sums[j] += abs(q)
    entry = np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64), _int_array(vals)
    for a in entry:
        a.flags.writeable = False  # cached: every later caller gets these arrays
    return *entry, max(sums)


def _krylov(parts: list[tuple[tuple[np.ndarray, np.ndarray, np.ndarray, int], int]], size: int) -> Iterator[np.ndarray]:
    """1, z, z^2, ... as integer arrays over a region, z = sum q * y_j.

    parts holds (_right_rows of y_j, q) with integer q. Their entries, scaled by q,
    make one matrices.RightAction, so each power is one apply_right step (an
    entry shared by several y_j is summed there too): in int64 while
    int64_safe bounds it, and on Python ints from the first step it does not.
    """
    rows, cols, vals = ([np.zeros(0, dtype=np.int64)] for _ in range(3))
    for (r, c, v, _), q in parts:
        if v.dtype == object or not matrices.int64_safe(1, int(np.abs(v).max(initial=0)), abs(q)):
            v = v.astype(object)
        rows.append(r)
        cols.append(c)
        vals.append(v * q)
    action = matrices.right_action(*(np.concatenate(a) for a in (rows, cols, vals)), size)
    v = np.zeros(size, dtype=np.int64)
    v[0] = 1
    while True:
        yield v
        v = matrices.apply_right(v, action)


def min_poly(x: Element, ctx: SchurContext) -> Poly:
    """Exact minimal polynomial of left multiplication by y = normalize(x).

    Left multiplication is faithful and unital, so its minimal polynomial is
    witnessed entirely by the identity seed: the first linear dependency among
    the basis coordinates of 1, y, y^2, ... is the answer. With D the lcm of
    y's denominators, z = D*y has integer Kostant coordinates, so z is
    integral, its powers are integer vectors and p_y(T) = D^-K p_z(DT).

    The powers live on the monomials they can reach from 1: f^(a) occurs only
    if some term of y has a > 0, e^(c) only if some has c > 0, so y in the
    Cartan part needs the d+1 monomials binom(H,b). The rows m*y_j over that
    region, one set per Kostant monomial y_j of y, are built once by
    _add_product and kept in the process-wide cache of _right_rows, so a later
    call with the same d and support builds none. The powers run on arrays
    (_krylov) and are drawn only as far as matrices.krylov_min_poly needs
    them: a prime finds K and K pivot coordinates, p-adic lifting gives the
    integer coefficients of p_z, and an exact check on every coordinate of
    the powers certifies them. rho, the sum of |q_j| times the norms of the
    y_j's rows, bounds every eigenvalue of z and so caps the lifting.
    """
    d = ctx.d
    ys = normalize(x, ctx).single_var_terms()
    den = lcm(*(Fraction(q).denominator for q in ys.values()))
    has_a, has_c = any(a for a, _, _ in ys), any(c for _, _, c in ys)
    parts = [(_right_rows(d, y, has_a, has_c), int(q * den)) for y, q in ys.items()]
    rho = sum(abs(q) * rows[3] for rows, q in parts)
    combo = matrices.krylov_min_poly(_krylov(parts, len(_region(d, has_a, has_c))), rho)
    top = len(combo) - 1
    return tuple(Fraction(c, den ** (top - k)) for k, c in enumerate(combo))


def expected_h_var_min_poly(d: int) -> Poly:
    """T(T-1)...(T-d): the minimal polynomial of H1 and of H2."""
    return pfrom_roots(list(range(d + 1)))


def expected_h_min_poly(d: int) -> Poly:
    """(T-d)(T-d+2)...(T+d): the minimal polynomial of h = H1-H2."""
    return pfrom_roots(sorted({d - 2 * k for k in range(d + 1)}))


# -- relation checking -------------------------------------------------------


def presentation_relations(ctx: SchurContext) -> list[tuple[str, Element]]:
    """LHS-RHS of every defining relation, as untruncated elements.

    Covers the three presentations (generators e,f,h / e,f,H1 / e,f,H2 with
    their truncation relations), the gl2 commutation relations, the vanishing
    products binom(H1,b1) binom(H2,b2) with b1+b2 = d+1, and the recursion
    h*binom(H,b) = (d-2b) binom(H,b) - (2b+2) binom(H,b+1) for both variables.
    """
    d, flavor = ctx.d, ctx.flavor
    e = Element.generator("e", flavor)
    f = Element.generator("f", flavor)
    h = Element.generator("h", flavor)
    h1 = Element.generator("H1", flavor)
    h2 = Element.generator("H2", flavor)

    def hb(var: str, b: int) -> Element:
        return Element.h_binomial(var, b, flavor)

    rels = [
        ("h,e,f: he-eh = 2e", mul(h, e) - mul(e, h) - 2 * e),
        ("h,e,f: ef-fe = h", mul(e, f) - mul(f, e) - h),
        ("h,e,f: hf-fh = -2f", mul(h, f) - mul(f, h) + 2 * f),
        ("h,e,f: (h+d)(h+d-2)...(h-d) = 0", linear_product(h, [d - 2 * k for k in range(d + 1)])),
        ("H1,e,f: H1e-eH1 = e", mul(h1, e) - mul(e, h1) - e),
        ("H1,e,f: ef-fe = 2H1-d", mul(e, f) - mul(f, e) - 2 * h1 + Element.scalar(d, flavor)),
        ("H1,e,f: H1f-fH1 = -f", mul(h1, f) - mul(f, h1) + f),
        ("H1,e,f: H1(H1-1)...(H1-d) = 0", linear_product(h1, list(range(d + 1)))),
        ("H2,e,f: H2e-eH2 = -e", mul(h2, e) - mul(e, h2) + e),
        ("H2,e,f: ef-fe = d-2H2", mul(e, f) - mul(f, e) + 2 * h2 - Element.scalar(d, flavor)),
        ("H2,e,f: H2f-fH2 = f", mul(h2, f) - mul(f, h2) - f),
        ("H2,e,f: H2(H2-1)...(H2-d) = 0", linear_product(h2, list(range(d + 1)))),
        ("gl2: H1H2 = H2H1", mul(h1, h2) - mul(h2, h1)),
        ("gl2: H1+H2 = d", h1 + h2 - Element.scalar(d, flavor)),
    ]
    for b1 in range(d + 2):
        b2 = d + 1 - b1
        rels.append(
            (f"binom(H1,{b1})*binom(H2,{b2}) = 0", mul(hb("H1", b1), hb("H2", b2)))
        )
    for b in range(d + 1):
        rels.append(
            (
                f"h*binom(H2,{b}) recursion",
                mul(h, hb("H2", b))
                - (d - 2 * b) * hb("H2", b)
                + (2 * b + 2) * hb("H2", b + 1),
            )
        )
        rels.append(
            (
                f"(-h)*binom(H1,{b}) recursion",
                mul(-1 * h, hb("H1", b))
                - (d - 2 * b) * hb("H1", b)
                + (2 * b + 2) * hb("H1", b + 1),
            )
        )
    return rels


def quotient_map_check(ctx: SchurContext) -> bool:
    """Do the defining relations of the (d+2)-algebra die in this one?

    The generator-preserving map (e,f,h fixed) is a quotient map iff every
    relation of the larger e,f,h presentation vanishes here. Its three
    commutators do not involve d and are among `presentation_relations(ctx)`,
    which the relation checks already cover, so only the degree-(d+3)
    truncation product for h is left. It is multiplied out inside S(2,d) with
    mul_bd, one linear factor at a time, so every partial product stays on
    the basis.
    """
    h = Element.generator("h", ctx.flavor)
    acc = Element.one(ctx.flavor)
    for s in range(ctx.d + 2, -ctx.d - 3, -2):
        acc = mul_bd(acc, h - Element.scalar(s, ctx.flavor), ctx)
    return acc.is_zero()
