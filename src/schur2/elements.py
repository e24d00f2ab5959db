"""Normal-order monomials and straightening in the enveloping algebra of gl2.

Generators e, f, H1, H2 (h = H1 - H2), with divided powers e^(m) = e^m/m!,
f^(m) = f^m/m! and binomial elements binom(Hi, b). A normal-order monomial is

    FHE flavor:  f^(a) * binom(H1,b1) * binom(H2,b2) * e^(c)
    EHF flavor:  e^(a) * binom(H1,b1) * binom(H2,b2) * f^(c)

stored as the key (a, b1, b2, c). Elements are finite rational combinations of
such monomials. The generators obey the commutation rules

    e P(H1) = P(H1-1) e,   e P(H2) = P(H2+1) e,
    f P(H1) = P(H1+1) f,   f P(H2) = P(H2-1) f,
    e^(k) f = f e^(k) + (H1-H2-k+1) e^(k-1),
    f^(k) e = e f^(k) + (H2-H1-k+1) f^(k-1).

A product of two monomials is straightened in one step: the right letter of
the first meets the left letter of the second in Kostant's formula

    e^(c) f^(a) = sum_t f^(a-t) binom(H1-H2-a-c+2t, t) e^(c-t)

(EHF: f^(c) e^(a), with H2-H1), and the outer middle polynomials shift past
the letters they cross. Each resulting middle polynomial in H1 and H2 is read
off from its values on a grid by forward differences. No truncation happens
here; this is the untruncated algebra ("U-mode"). The quotient algebras live
in schur2.algebra.

The straightened product of two monomials has integer coefficients and does
not depend on d, so `mul` caches it per (flavor, monomial, monomial) pair and
only scales and adds the cached terms; repeated requests reuse it.

A product of linear forms (x - s_0)(x - s_1)... with x of degree <= 1, such
as a power of e + f + h or a truncation relation H(H-1)...(H-d), is
`linear_product`: the partial product is an integer vector over the keys of
degree <= the number of factors that it can reach from 1, and each factor is
one right multiplication by x on that vector. The right actions of the left
letter, H1, H2 and the right letter come from the rules above, written as
arrays once per (flavor, degree bound, region) and cached.

Coefficients are exact: plain int when integral, fractions.Fraction otherwise.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache
from itertools import compress, zip_longest
from math import lcm
from operator import attrgetter
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import matrices
from .ivpoly import (
    binom,
    binom_complement_coeffs,
    binom_product_coeffs,
    values_to_coeffs,
)
from .qpoly import render_terms

Scalar = int | Fraction
Key = tuple[int, int, int, int]  # (a, b1, b2, c)


class Flavor(enum.Enum):
    """Which normal order is in force: f..e with H2, or e..f with H1."""

    FHE = "fhe"
    EHF = "ehf"

    # Members are singletons and Enum equality is identity, so the identity
    # hash keeps the contract; Enum's own __hash__ runs Python code on every
    # lru_cache and dict lookup keyed by a flavor.
    __hash__ = object.__hash__

    @property
    def letters(self) -> tuple[str, str]:
        """(left letter, right letter) of the normal order."""
        return ("f", "e") if self is Flavor.FHE else ("e", "f")

    @property
    def main_var(self) -> str:
        """The H-variable kept by this flavor's single-variable basis."""
        return "H2" if self is Flavor.FHE else "H1"


# Shift of (H1, H2) when one left-letter crosses a polynomial, which by the
# rules above coincides with the shift when a polynomial crosses one
# right-letter: FHE moves f leftward / past e leftward, both (H1-1, H2+1).
# D in the peeling rule R^(k) L = L R^(k) + (D-k+1) R^(k-1) is sign*(H1-H2),
# and sign is the H2 shift: FHE has (-1, 1) and D = H1-H2, EHF has (1, -1)
# and D = H2-H1.
_LETTER_SHIFT = {Flavor.FHE: (-1, 1), Flavor.EHF: (1, -1)}


def _as_scalar(q: Scalar) -> Scalar:
    """Canonical scalar: ints stay ints, integral Fractions collapse to int."""
    if type(q) is int:  # skips the ABC check below on the common case
        return q
    if isinstance(q, Fraction):
        return int(q) if q.denominator == 1 else q
    return q


class Element:
    """A finite rational combination of normal-order monomials of one flavor."""

    __slots__ = ("flavor", "terms")

    def __init__(self, flavor: Flavor, terms: Mapping[Key, Scalar] | None = None):
        self.flavor = flavor
        clean: dict[Key, Scalar] = {}
        if terms:
            for key, q in terms.items():
                q = _as_scalar(q)
                if q:
                    clean[key] = q
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of_canonical(cls, flavor: Flavor, terms: dict[Key, Scalar]) -> "Element":
        """An element that takes `terms` as they are: nonzero canonical scalars."""
        out = cls.__new__(cls)
        out.flavor, out.terms = flavor, terms
        return out

    @classmethod
    def zero(cls, flavor: Flavor = Flavor.FHE) -> "Element":
        return cls(flavor)

    @classmethod
    def one(cls, flavor: Flavor = Flavor.FHE) -> "Element":
        return cls(flavor, {(0, 0, 0, 0): 1})

    @classmethod
    def scalar(cls, q: Scalar, flavor: Flavor = Flavor.FHE) -> "Element":
        return cls(flavor, {(0, 0, 0, 0): q})

    @classmethod
    def monomial(
        cls, a: int, b: int, c: int, flavor: Flavor = Flavor.FHE, coeff: Scalar = 1
    ) -> "Element":
        """Single-variable monomial (a,b,c): b indexes the flavor's own H."""
        if flavor is Flavor.FHE:
            return cls(flavor, {(a, 0, b, c): coeff})
        return cls(flavor, {(a, b, 0, c): coeff})

    @classmethod
    def divided_power(cls, letter: str, m: int, flavor: Flavor = Flavor.FHE) -> "Element":
        """E(m) or F(m)."""
        left, right = flavor.letters
        if letter == left:
            return cls(flavor, {(m, 0, 0, 0): 1})
        if letter == right:
            return cls(flavor, {(0, 0, 0, m): 1})
        raise ValueError(f"unknown letter {letter!r}")

    @classmethod
    def h_binomial(cls, var: str, b: int, flavor: Flavor = Flavor.FHE) -> "Element":
        """binom(H1,b) or binom(H2,b)."""
        if var == "H1":
            return cls(flavor, {(0, b, 0, 0): 1})
        if var == "H2":
            return cls(flavor, {(0, 0, b, 0): 1})
        raise ValueError(f"unknown variable {var!r}")

    @classmethod
    def generator(cls, name: str, flavor: Flavor = Flavor.FHE) -> "Element":
        if name in ("e", "f"):
            return cls.divided_power(name, 1, flavor)
        if name in ("H1", "H2"):
            return cls.h_binomial(name, 1, flavor)
        if name == "h":
            return cls.h_binomial("H1", 1, flavor) - cls.h_binomial("H2", 1, flavor)
        raise ValueError(f"unknown generator {name!r}")

    # -- ring structure ----------------------------------------------------

    def _expect_flavor(self, other: "Element") -> None:
        if self.flavor is not other.flavor:
            raise ValueError("flavor mismatch")

    def __add__(self, other: "Element") -> "Element":
        self._expect_flavor(other)
        out = dict(self.terms)
        for key, q in other.terms.items():
            out[key] = out.get(key, 0) + q
        return Element(self.flavor, out)

    def __neg__(self) -> "Element":
        return Element(self.flavor, {k: -q for k, q in self.terms.items()})

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def scale(self, q: Scalar) -> "Element":
        q = _as_scalar(q)
        if not q:
            return Element.zero(self.flavor)
        return Element(self.flavor, {k: v * q for k, v in self.terms.items()})

    def __rmul__(self, q: Scalar) -> "Element":
        if isinstance(q, (int, Fraction)):
            return self.scale(q)
        return NotImplemented

    def __mul__(self, other: "Element") -> "Element":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return mul(self, other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.flavor is other.flavor and self.terms == other.terms

    def __hash__(self):
        return hash((self.flavor, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Max degree a+b1+b2+c over terms; -1 for the zero element."""
        return max((sum(k) for k in self.terms), default=-1)

    def sorted_terms(self) -> Iterator[tuple[Key, Scalar]]:
        for key in sorted(self.terms):
            yield key, self.terms[key]

    def single_var_terms(self) -> dict[tuple[int, int, int], Scalar]:
        """View as {(a,b,c): coeff} when only the flavor's own H occurs."""
        out: dict[tuple[int, int, int], Scalar] = {}
        for (a, b1, b2, c), q in self.terms.items():
            if self.flavor is Flavor.FHE:
                if b1 != 0:
                    raise ValueError("element still involves H1 (FHE keeps H2)")
                out[(a, b2, c)] = q
            else:
                if b2 != 0:
                    raise ValueError("element still involves H2 (EHF keeps H1)")
                out[(a, b1, c)] = q
        return out

    def symmetry(self) -> "Element":
        """The automorphism e <-> f, H1 <-> H2 (exchanges the two flavors)."""
        other = Flavor.EHF if self.flavor is Flavor.FHE else Flavor.FHE
        return Element(
            other, {(a, b2, b1, c): q for (a, b1, b2, c), q in self.terms.items()}
        )

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        return render_element(self)

    def __repr__(self) -> str:
        return f"Element({self.flavor.value!r}, {render_element(self)!r})"


def _grid_coeffs(grid: list[list[int]]) -> list[tuple[int, ...]]:
    """out[i][j]: coefficient of binom(H1,i) binom(H2,j) in P, from grid[H1][H2] = P(H1, H2).

    Forward differences along H1, then along H2; the grid must reach P's degree in each variable.
    """
    cols = [values_to_coeffs(col) for col in zip(*grid)]
    return [values_to_coeffs(row) for row in zip_longest(*cols, fillvalue=0)]


@lru_cache(maxsize=None)
def _mono_mul(flavor: Flavor, xkey: Key, ykey: Key) -> tuple[tuple[Key, int], ...]:
    """Straightened product of two monomials, as integer (key, coef) pairs.

    With x = L^(a) P R^(c), y = L^(a2) Q R^(c2), letter shift (s1, s2) and D
    = s2*(H1-H2) (see _LETTER_SHIFT), Kostant's formula
    R^(c) L^(a2) = sum_t L^(a2-t) binom(D-a2-c+2t, t) R^(c-t), t <= min(c, a2),
    gives, with aa = a2-t and cc = c-t,

        x y = sum_t binom(a+aa, a) binom(cc+c2, cc) L^(a+aa) M_t R^(cc+c2),
        M_t = P(H1+s1*aa, H2+s2*aa) binom(D-a2-c+2t, t) Q(H1+s1*cc, H2+s2*cc).

    M_t has degree b1+p1+t in H1 and b2+p2+t in H2, so its values on that
    grid fix its integer coefficients over binom(H1,i) binom(H2,j). At t = 0
    it is one factor per variable, whose tables are differenced apart.
    """
    a, b1, b2, c = xkey
    a2, p1, p2, c2 = ykey
    s1, s2 = _LETTER_SHIFT[flavor]
    out = []
    for t in range(min(c, a2), -1, -1):
        aa, cc = a2 - t, c - t
        f1 = [binom(h + s1 * aa, b1) * binom(h + s1 * cc, p1) for h in range(b1 + p1 + t + 1)]
        f2 = [binom(h + s2 * aa, b2) * binom(h + s2 * cc, p2) for h in range(b2 + p2 + t + 1)]
        if t == 0:
            g2 = values_to_coeffs(f2)
            coeffs = [[u * v for v in g2] for u in values_to_coeffs(f1)]
        else:
            coeffs = _grid_coeffs([
                [u * v * binom(s2 * (h1 - h2) - a2 - c + 2 * t, t) for h2, v in enumerate(f2)]
                for h1, u in enumerate(f1)
            ])
        scale = binom(a + aa, a) * binom(cc + c2, cc)
        out.extend(
            ((a + aa, i, j, cc + c2), scale * q) for i, row in enumerate(coeffs) for j, q in enumerate(row) if q
        )
    return tuple(out)


def mul(x: Element, y: Element) -> Element:
    """Straightened product in the untruncated algebra (U-mode), by cached pairs."""
    x._expect_flavor(y)
    flavor = x.flavor
    ys = y.terms.items()
    out: dict[Key, Scalar] = {}
    for xkey, cx in x.terms.items():
        for ykey, cy in ys:
            cxy = cx * cy
            for key, q in _mono_mul(flavor, xkey, ykey):
                out[key] = out.get(key, 0) + cxy * q
    return Element(flavor, out)


# The degree-one keys, in this order throughout: left letter, binom(H1,1),
# binom(H2,1), right letter.
_LINEAR_KEYS: tuple[Key, ...] = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
_denominator = attrgetter("denominator")  # of an int or a Fraction


def _spread(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each of the sum(counts) slots: its owner i and its offset 0..counts[i]-1."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]


@lru_cache(maxsize=64)
def _right_letters(
    flavor: Flavor, k: int, region: tuple[bool, bool, bool, bool]
) -> tuple[tuple[Key, ...], np.ndarray, np.ndarray, matrices.RightAction]:
    """Right multiplication by the four degree-one keys, on the keys of degree <= k.

    region says which of _LINEAR_KEYS a key may hold a power of, and k >= 1.
    Returns (keys, slot, gen, action): keys lists those keys
    lexicographically (1 first); slot[i] is 1 for the key 1, 2 + g for
    _LINEAR_KEYS[g] and 0 for the rest, so that (0, c, q_0, ..., q_3)[slot]
    is the vector of c + sum q_g _LINEAR_KEYS[g]; action holds M·g for every
    key M of degree < k and every g in the region, and entry i comes from
    g = gen[i] - 2, so that (0, c, q_0, ..., q_3)[gen] * action.vals are the
    entries of M·(sum q_g g). With M = L^(a) P R^(c), P = binom(H1,b1)
    binom(H2,b2), letter shift (s1, s2) and D = H1-H2 (FHE) or H2-H1 (EHF),
    the rules of the module docstring give

        M·R  = (c+1) L^(a) P R^(c+1),
        M·Hi = L^(a) P (Hi + si*c) R^(c),
        M·L  = (a+1) L^(a+1) P(H1+s1, H2+s2) R^(c) + L^(a) P (D-c+1) R^(c-1),

    expanded through binom(H,b) H = (b+1) binom(H,b+1) + b binom(H,b) and
    binom(H+s,b) = sum_j binom(s,b-j) binom(H,j).
    """
    keys, total = np.zeros((1, 0), dtype=np.int64), np.zeros(1, dtype=np.int64)
    for cap in np.array(region) * k:
        owner, value = _spread(np.minimum(cap, k - total) + 1)
        keys, total = np.column_stack((keys[owner], value)), total[owner] + value
    src = np.flatnonzero(total < k)
    a, b1, b2, c = keys[src].T
    shift = _LETTER_SHIFT[flavor]
    sign = shift[1]  # the sign of D (see _LETTER_SHIFT)
    parts = []  # (g, rows, target key, coefficient)
    if region[3]:
        parts.append((3, src, (a, b1, b2, c + 1), c + 1))
    for g, b, up in ((1, b1, (a, b1 + 1, b2, c)), (2, b2, (a, b1, b2 + 1, c))):
        if region[g]:
            parts.append((g, src, up, b + 1))
            parts.append((g, src, (a, b1, b2, c), b + shift[g - 1] * c))
    if region[0]:
        # (a+1) L^(a+1) P(H1+s1, H2+s2) R^(c), one shifted binomial at a time.
        rows, q, cols = src, a + 1, [a + 1, b1, b2, c]
        for i in (1, 2):
            owner, j = _spread(cols[i] + 1)
            coeffs = np.array([binom(shift[i - 1], n) for n in range(k + 1)])
            rows, q, cols = rows[owner], q[owner] * coeffs[cols[i][owner] - j], [col[owner] for col in cols]
            cols[i] = j
        parts.append((0, rows, tuple(cols), q))
        # L^(a) P (D-c+1) R^(c-1), for c >= 1.
        low = c >= 1
        a, b1, b2, c, rows = a[low], b1[low], b2[low], c[low] - 1, src[low]
        parts.append((0, rows, (a, b1 + 1, b2, c), sign * (b1 + 1)))
        parts.append((0, rows, (a, b1, b2 + 1, c), -sign * (b2 + 1)))
        parts.append((0, rows, (a, b1, b2, c), sign * (b1 - b2) - c))

    def code(a, b1, b2, c):
        return ((a * (k + 1) + b1) * (k + 1) + b2) * (k + 1) + c

    # Coefficients stay within 2k+2 in absolute value, so int16 holds them.
    codes = code(*keys.T)
    empty = np.zeros(0, dtype=np.int64)
    rows, cols, vals = [empty], [empty], [np.zeros((0, 4), dtype=np.int16)]
    for g, r, target, q in parts:
        keep = q != 0
        rows.append(r[keep])
        cols.append(np.searchsorted(codes, code(*target)[keep]))
        vals.append(np.zeros((len(rows[-1]), 4), dtype=np.int16))
        vals[-1][:, g] = q[keep]
    rows, cols, vals = map(np.concatenate, (rows, cols, vals))
    action = matrices.right_action(rows.astype(np.int32), cols, vals, len(keys))
    # Each entry has one nonzero column, its g; padding is all zero and gets g = 0.
    gen = np.argmax(action.vals != 0, axis=1)
    action = action._replace(vals=action.vals[np.arange(len(gen)), gen])
    gen += 2
    slot = np.zeros(len(keys), dtype=np.intp)
    slot[0] = 1
    for g, key in enumerate(_LINEAR_KEYS):
        if region[g]:
            slot[np.searchsorted(codes, code(*key))] = 2 + g
    for array in (slot, gen, action.rows, action.vals, action.starts):
        array.flags.writeable = False  # cached: every later caller gets these arrays
    return tuple(map(tuple, keys.tolist())), slot, gen, action


def linear_product(x: Element, shifts: Sequence[Scalar]) -> Element:
    """(x - s_0)(x - s_1)... in the untruncated algebra, for x of degree <= 1.

    With D the lcm of the denominators of x and the shifts, z = D*x is
    integral, and its partial products are integer vectors over the keys of
    degree <= len(shifts) that they can reach from 1: a letter only if x has
    it, binom(Hi, b) only if x has Hi or both letters (whose commutator holds
    H1 - H2). Each factor is one step v <- v·(z - D*s_i) on those arrays, R_z
    assembled from the cached _right_letters, in int64 while
    matrices.int64_safe bounds it and on Python ints after; the product is
    divided by D^len(shifts) once at the end.
    """
    terms = x.terms
    coef = list(map(terms.get, _LINEAR_KEYS, (0, 0, 0, 0)))
    const = terms.get((0, 0, 0, 0), 0)
    if len(terms) != sum(map(bool, coef)) + bool(const):
        raise ValueError("linear_product needs an element of degree <= 1")
    if not shifts:
        return Element.one(x.flavor)
    den = lcm(*map(_denominator, terms.values()), *map(_denominator, shifts))
    if den > 1:
        coef, const = [int(den * q) for q in coef], den * const
    both = bool(coef[0] and coef[3])
    region = (bool(coef[0]), bool(coef[1]) or both, bool(coef[2]) or both, bool(coef[3]))
    keys, slot, gen, action = _right_letters(x.flavor, len(shifts), region)
    # v starts at the coordinates of z - D*s_0; each later factor is one step.
    first = int(const - den * shifts[0])
    top = max(map(abs, coef))
    bound = max(abs(first), top)  # max |v|, carried forward step by step
    largest = top * action.largest
    ext = np.array([0, first, *coef], dtype=np.int64 if matrices.int64_safe(1, max(largest, bound), 1) else object)
    action = matrices.RightAction(action.rows, ext.take(gen) * action.vals, action.starts, action.most, largest)
    v = ext[slot]
    for s in shifts[1:]:
        diag = int(const - den * s)
        v = matrices.apply_right(v, action, diag, bound)
        bound *= action.most * largest + abs(diag)
    values = v.tolist()
    out = dict(compress(zip(keys, values), values))
    if den == 1:
        return Element._of_canonical(x.flavor, out)
    power = den ** len(shifts)
    return Element(x.flavor, {key: Fraction(q, power) for key, q in out.items()})


@lru_cache(maxsize=None)
def _offvar_row(off: int, keep: int, d: int) -> tuple[tuple[int, int], ...]:
    """(m, q) pairs with binom(d-H, off) binom(H, keep) = sum q binom(H, m)."""
    row: dict[int, int] = {}
    for j, cj in enumerate(binom_complement_coeffs(off, d)):
        for m, cm in enumerate(binom_product_coeffs(j, keep)):
            row[m] = row.get(m, 0) + cj * cm
    return tuple((m, q) for m, q in row.items() if q)


def substitute_offvar(x: Element, d: int) -> Element:
    """Collapse the off-flavor variable through H1 + H2 = d.

    FHE rewrites every binom(H1,b1) as binom(d-H2,b1) and merges it into the
    H2 part; EHF does the mirror image. Pure substitution, no truncation.
    """
    out: dict[Key, Scalar] = {}
    fhe = x.flavor is Flavor.FHE
    for (a, b1, b2, c), q in x.terms.items():
        off, keep = (b1, b2) if fhe else (b2, b1)
        for m, cm in _offvar_row(off, keep, d):
            key = (a, 0, m, c) if fhe else (a, m, 0, c)
            out[key] = out.get(key, 0) + q * cm
    return Element(x.flavor, out)


def render_element(x: Element) -> str:
    """Grammar-compatible rendering; terms in lexicographic key order."""
    left, right = x.flavor.letters
    parts: list[tuple[Scalar, str]] = []
    for (a, b1, b2, c), q in x.sorted_terms():
        factors = []
        if a:
            factors.append(f"{left.upper()}({a})")
        if b1:
            factors.append(f"binom(H1,{b1})")
        if b2:
            factors.append(f"binom(H2,{b2})")
        if c:
            factors.append(f"{right.upper()}({c})")
        parts.append((q, "*".join(factors)))
    return render_terms(parts)
