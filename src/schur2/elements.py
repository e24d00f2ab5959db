"""Normal-order monomials and straightening in the enveloping algebra of gl2.

Generators e, f, H1, H2 (h = H1 - H2), with divided powers e^(m) = e^m/m!,
f^(m) = f^m/m! and binomial elements binom(Hi, b). A normal-order monomial is

    FHE flavor:  f^(a) * binom(H1,b1) * binom(H2,b2) * e^(c)
    EHF flavor:  e^(a) * binom(H1,b1) * binom(H2,b2) * f^(c)

stored as the key (a, b1, b2, c). Elements are finite rational combinations of
such monomials; products are straightened back into normal order using the
single-generator commutation rules

    e P(H1) = P(H1-1) e,   e P(H2) = P(H2+1) e,
    f P(H1) = P(H1+1) f,   f P(H2) = P(H2-1) f,
    e^(k) f = f e^(k) + (H1-H2-k+1) e^(k-1),
    f^(k) e = e f^(k) + (H2-H1-k+1) f^(k-1),

one plain generator at a time (divided powers recombine through
fdiv_merge). No truncation happens here; this is the untruncated algebra
("U-mode"). The quotient algebras live in schur2.algebra.

The straightened product of two monomials has integer coefficients and does
not depend on d, so `mul` caches it per (flavor, monomial, monomial) pair and
only scales and adds the cached terms; powers and repeated requests reuse it.

Coefficients are exact: plain int when integral, fractions.Fraction otherwise.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterable, Iterator, Mapping

from .ivpoly import (
    IVPoly,
    binom,
    binom_complement_coeffs,
    binom_product_coeffs,
    binom_shift_coeffs,
)

Scalar = int | Fraction
Key = tuple[int, int, int, int]  # (a, b1, b2, c)


class Flavor(enum.Enum):
    """Which normal order is in force: f..e with H2, or e..f with H1."""

    FHE = "fhe"
    EHF = "ehf"

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
_LETTER_SHIFT = {Flavor.FHE: (-1, 1), Flavor.EHF: (1, -1)}

# D in the peeling rule R^(k) L = L R^(k) + (D-k+1) R^(k-1), as a bivariate
# polynomial over keys (b1, b2): FHE has D = H1-H2, EHF has D = H2-H1.
_D_POLY = {
    Flavor.FHE: {(1, 0): 1, (0, 1): -1},
    Flavor.EHF: {(1, 0): -1, (0, 1): 1},
}


def _as_scalar(q: Scalar) -> Scalar:
    """Canonical scalar: ints stay ints, integral Fractions collapse to int."""
    if isinstance(q, Fraction):
        return int(q) if q.denominator == 1 else q
    return q


def degree_of(key: Key) -> int:
    a, b1, b2, c = key
    return a + b1 + b2 + c


def height_of(key: Key) -> int:
    a, _, _, c = key
    return a + c


def fdiv_merge(i: int, j: int) -> tuple[int, int]:
    """Divided-power recombination T^(i) T^(j) = binom(i+j,i) T^(i+j)."""
    return binom(i + j, i), i + j


def commute_poly_left(g: str, p: IVPoly) -> IVPoly:
    """The polynomial Q with g * P(H) = Q(H) * g, for g one of e, f."""
    s = {("e", "H1"): -1, ("e", "H2"): 1, ("f", "H1"): 1, ("f", "H2"): -1}[
        (g, p.var)
    ]
    return p.shift(s)


# Bivariate middle polynomials: dict {(b1, b2): integer coefficient} meaning
# sum of binom(H1,b1)*binom(H2,b2).

_BivPoly = dict[tuple[int, int], int]


def _biv_add(into: _BivPoly, poly: Mapping[tuple[int, int], int], scale: int = 1) -> None:
    for key, c in poly.items():
        v = into.get(key, 0) + scale * c
        if v:
            into[key] = v
        else:
            into.pop(key, None)


def _biv_mul(p: Mapping[tuple[int, int], int], q: Mapping[tuple[int, int], int]) -> _BivPoly:
    out: _BivPoly = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            c12 = c1 * c2
            for k1, ck1 in enumerate(binom_product_coeffs(i1, i2)):
                if ck1 == 0:
                    continue
                for k2, ck2 in enumerate(binom_product_coeffs(j1, j2)):
                    if ck2 == 0:
                        continue
                    key = (k1, k2)
                    v = out.get(key, 0) + c12 * ck1 * ck2
                    if v:
                        out[key] = v
                    else:
                        out.pop(key, None)
    return out


def _biv_shift(p: Mapping[tuple[int, int], int], m: int, flavor: Flavor) -> _BivPoly:
    """Shift from crossing m letters: (H1, H2) -> (H1 + s1*m, H2 + s2*m)."""
    if m == 0:
        return dict(p)
    s1, s2 = _LETTER_SHIFT[flavor]
    out: _BivPoly = {}
    for (i, j), c in p.items():
        for k1, ck1 in enumerate(binom_shift_coeffs(i, s1 * m)):
            if ck1 == 0:
                continue
            for k2, ck2 in enumerate(binom_shift_coeffs(j, s2 * m)):
                if ck2 == 0:
                    continue
                key = (k1, k2)
                v = out.get(key, 0) + c * ck1 * ck2
                if v:
                    out[key] = v
                else:
                    out.pop(key, None)
    return out


@lru_cache(maxsize=None)
def _cross(flavor: Flavor, c: int, a: int) -> tuple[tuple[int, int, int, tuple[tuple[tuple[int, int], int], ...]], ...]:
    """Normal order of the collision R^(c) * L^(a).

    Returns tuples (coef, aa, cc, middle) meaning coef * L^(aa) * M * R^(cc)
    with M the bivariate middle polynomial. Built by appending one plain left
    letter at a time and dividing by a! at the end; all final coefficients are
    integers (the divided-power form is integral).
    """
    state: dict[tuple[int, int], _BivPoly] = {(0, c): {(0, 0): 1}}
    d_poly = _D_POLY[flavor]
    for _ in range(a):
        new: dict[tuple[int, int], _BivPoly] = {}
        for (aa, cc), poly in state.items():
            # The new letter crosses the middle and merges into L^(aa).
            tgt = new.setdefault((aa + 1, cc), {})
            _biv_add(tgt, _biv_shift(poly, 1, flavor), scale=aa + 1)
            if cc >= 1:
                # R^(cc) L = L R^(cc) + (D - cc + 1) R^(cc-1); second branch.
                factor = dict(d_poly)
                _biv_add(factor, {(0, 0): 1 - cc})
                tgt2 = new.setdefault((aa, cc - 1), {})
                _biv_add(tgt2, _biv_mul(poly, factor))
        state = {k: v for k, v in new.items() if v}
    fact = factorial(a)
    out = []
    for (aa, cc), poly in sorted(state.items()):
        mid = []
        for key, coef in sorted(poly.items()):
            q, r = divmod(coef, fact)
            if r:
                raise ArithmeticError("collision expansion must be integral")
            if q:
                mid.append((key, q))
        if mid:
            out.append((1, aa, cc, tuple(mid)))
    return tuple(out)


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
        return max((degree_of(k) for k in self.terms), default=-1)

    def height(self) -> int:
        """Max height a+c over terms; -1 for the zero element."""
        return max((height_of(k) for k in self.terms), default=-1)

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


@lru_cache(maxsize=None)
def _mono_mul(flavor: Flavor, xkey: Key, ykey: Key) -> tuple[tuple[Key, int], ...]:
    """Straightened product of two monomials, as integer (key, coef) pairs.

    The middle collision R^(c) * L^(a2) comes from _cross; the outer middle
    polynomials shift past the letters that cross them.
    """
    a, b1, b2, c = xkey
    a2, p1, p2, c2 = ykey
    out: dict[Key, int] = {}
    for coef, aa, cc, mid in _cross(flavor, c, a2):
        scal = coef * binom(a + aa, a) * binom(cc + c2, cc)
        m = _biv_mul(_biv_shift({(b1, b2): 1}, aa, flavor), dict(mid))
        m = _biv_mul(m, _biv_shift({(p1, p2): 1}, cc, flavor))
        A, C = a + aa, cc + c2
        for (q1, q2), mc in m.items():
            key = (A, q1, q2, C)
            out[key] = out.get(key, 0) + scal * mc
    return tuple((key, q) for key, q in out.items() if q)


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


def commute_e_past_fdiv(k: int, flavor: Flavor = Flavor.FHE, d: int | None = None) -> Element:
    """The straightening identity for (right letter) * (left letter)^(k).

    FHE: e f^(k) = f^(k) e + f^(k-1) (H1-H2-k+1); EHF is the mirror image.
    With d given, the middle polynomial is collapsed to the flavor's own H
    via H1 + H2 = d (no truncation is applied).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    terms: dict[Key, Scalar] = {(k, 0, 0, 1): 1}
    middle = Element(flavor, {(k - 1, b1, b2, 0): q for (b1, b2), q in _D_POLY[flavor].items()})
    middle = middle + Element(flavor, {(k - 1, 0, 0, 0): 1 - k})
    out = Element(flavor, terms) + middle
    if d is not None:
        out = substitute_offvar(out, d)
    return out


def substitute_offvar(x: Element, d: int) -> Element:
    """Collapse the off-flavor variable through H1 + H2 = d.

    FHE rewrites every binom(H1,b1) as binom(d-H2,b1) and merges it into the
    H2 part; EHF does the mirror image. Pure substitution, no truncation.
    """
    out: dict[Key, Scalar] = {}

    def put(key: Key, q: Scalar) -> None:
        out[key] = out.get(key, 0) + q

    fhe = x.flavor is Flavor.FHE
    for (a, b1, b2, c), q in x.terms.items():
        off, keep = (b1, b2) if fhe else (b2, b1)
        if off == 0:
            put((a, b1, b2, c), q)
            continue
        for j, cj in enumerate(binom_complement_coeffs(off, d)):
            if cj == 0:
                continue
            for m, cm in enumerate(binom_product_coeffs(j, keep)):
                if cm == 0:
                    continue
                key = (a, 0, m, c) if fhe else (a, m, 0, c)
                put(key, q * cj * cm)
    return Element(x.flavor, out)


def render_scalar(q: Scalar) -> str:
    q = _as_scalar(q)
    if isinstance(q, Fraction):
        return f"{q.numerator}/{q.denominator}"
    return str(q)


def render_terms(terms: Iterable[tuple[Scalar, str]]) -> str:
    """Signed sum of (coefficient, monomial) terms, e.g. "-E(1) + 1/2*F(1) - 3".

    An empty monomial is a constant term; zero coefficients are skipped, and
    a sum with no terms is "0".
    """
    out = ""
    for q, mono in terms:
        if not q:
            continue
        mag = -q if q < 0 else q
        if not mono:
            body = render_scalar(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{render_scalar(mag)}*{mono}"
        if out:
            out += (" - " if q < 0 else " + ") + body
        else:
            out = ("-" if q < 0 else "") + body
    return out or "0"


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
