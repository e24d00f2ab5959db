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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from . import matrices
from .elements import (
    Element,
    Flavor,
    Scalar,
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
    d = ctx.d
    return [
        (a, b, c)
        for a in range(d + 1)
        for b in range(d + 1 - a)
        for c in range(d + 1 - a - b)
    ]


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


def reduce_monomial(a: int, b: int, c: int, ctx: SchurContext) -> Element:
    """One application of the reduction formula to a single monomial."""
    return Element(
        ctx.flavor,
        {
            _flavor_key(ctx.flavor, *mono): coef
            for mono, coef in _reduce_table(ctx.d, a, b, c)
        },
    )


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
    for (a, b, c), q in substitute_offvar(x, ctx.d).single_var_terms().items():
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
    its (integral) binomial-basis coefficients.
    """
    out = []
    for t in range(min(c, a2), -1, -1):
        values = [
            binom(h + a2 - t, b) * binom(d - 2 * h - a2 - c + 2 * t, t) * binom(h + c - t, b2)
            for h in range(b + t + b2 + 1)
        ]
        middle = tuple((m, q) for m, q in enumerate(values_to_coeffs(values)) if q)
        if middle:
            out.append((a2 - t, c - t, middle))
    return tuple(out)


def _own_var_terms(x: Element, d: int) -> dict[Monomial, Scalar]:
    """x as {(a, b, c): coeff} in the flavor's own H; substitutes only if needed."""
    off = 1 if x.flavor is Flavor.FHE else 2
    if any(key[off] for key in x.terms):
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

    def is_integral(self) -> bool:
        return all(
            isinstance(q, int) or q.denominator == 1
            for terms in self.products.values()
            for _, q in terms
        )


def structure_constants(ctx: SchurContext) -> StructureTable:
    """Products of all ordered basis pairs, by mul_bd's kernel on the triples."""
    d = ctx.d
    monos = basis(ctx)
    index = {mono: k for k, mono in enumerate(monos)}
    products: dict[tuple[int, int], tuple[tuple[int, Scalar], ...]] = {}
    for i, x in enumerate(monos):
        for j, y in enumerate(monos):
            out: dict[Monomial, Scalar] = {}
            _add_product(out, d, 1, x, y)
            products[(i, j)] = tuple(sorted((index[mono], q) for mono, q in out.items() if q))
    return StructureTable(d, ctx.flavor, tuple(monos), products)


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


@lru_cache(maxsize=None)
def _power_to_binoms(m: int) -> tuple[int, ...]:
    """H^m as integer coefficients over binom(H,0), binom(H,1), ..."""
    return values_to_coeffs([j**m for j in range(m + 1)])


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


def from_power_basis(coeffs: dict[Monomial, Fraction | int], ctx: SchurContext) -> Element:
    """Inverse of to_power_basis."""
    terms: dict[tuple[int, int, int, int], Fraction] = {}
    for (a, m, c), q in coeffs.items():
        scale = Fraction(q) * factorial(a) * factorial(c)
        for b, cb in enumerate(_power_to_binoms(m)):
            key = _flavor_key(ctx.flavor, a, b, c)
            terms[key] = terms.get(key, 0) + scale * cb
    return normalize(Element(ctx.flavor, terms), ctx)


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


def from_h_basis(coeffs: dict[Monomial, Fraction | int], ctx: SchurContext) -> Element:
    """Inverse of to_h_basis."""
    d = ctx.d
    sign = -1 if ctx.flavor is Flavor.FHE else 1
    power: dict[Monomial, Fraction] = {}
    for (a, i, c), q in coeffs.items():
        # h^i = (sign*(2H - d))^i expanded in powers of H.
        for t in range(i + 1):
            coef = Fraction(q) * sign**i * comb(i, t) * 2**t * (-d) ** (i - t)
            power[(a, t, c)] = power.get((a, t, c), 0) + coef
    return from_power_basis({key: v for key, v in power.items() if v}, ctx)


# -- minimal polynomials ----------------------------------------------------


def min_poly(x: Element, ctx: SchurContext) -> Poly:
    """Exact minimal polynomial of left multiplication by normalize(x).

    Left multiplication is faithful and unital, so its minimal polynomial is
    witnessed entirely by the identity seed: the first linear dependency among
    the basis coordinates of 1, x, x^2, ... is the answer. Each next power is
    the last one times the rows m*x of right multiplication, one row per basis
    monomial m, built by the product kernel the first time a power touches m
    and kept for this call only. A power is taken only once the previous one
    proved independent.
    """
    d = ctx.d
    index = {mono: k for k, mono in enumerate(basis(ctx))}
    ys = normalize(x, ctx).single_var_terms().items()
    rows: dict[Monomial, dict[Monomial, Scalar]] = {}

    def powers():
        power: dict[Monomial, Scalar] = {(0, 0, 0): 1}
        while True:
            yield {index[mono]: q for mono, q in power.items()}
            nxt: dict[Monomial, Scalar] = {}
            for mono, q in power.items():
                if mono not in rows:
                    rows[mono] = {}
                    for ym, qy in ys:
                        _add_product(rows[mono], d, qy, mono, ym)
                for m, c in rows[mono].items():
                    nxt[m] = nxt.get(m, 0) + q * c
            power = {m: q for m, q in nxt.items() if q}

    return matrices.first_dependency(powers(), len(index))


def expected_h_var_min_poly(d: int) -> Poly:
    """T(T-1)...(T-d): the minimal polynomial of H1 and of H2."""
    return pfrom_roots(list(range(d + 1)))


def expected_h_min_poly(d: int) -> Poly:
    """(T-d)(T-d+2)...(T+d): the minimal polynomial of h = H1-H2."""
    return pfrom_roots(sorted({d - 2 * k for k in range(d + 1)}))


# -- relation checking -------------------------------------------------------


@dataclass
class RelationCheck:
    name: str
    residual: Element

    @property
    def passed(self) -> bool:
        return self.residual.is_zero()


@dataclass
class RelationReport:
    d: int
    flavor: Flavor
    checks: list[RelationCheck] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[RelationCheck]:
        return [c for c in self.checks if not c.passed]


def _product_over(base: Element, shifts: list[int]) -> Element:
    """(base - s_0)(base - s_1)... in the untruncated algebra."""
    acc = Element.one(base.flavor)
    for s in shifts:
        acc = mul(acc, base - Element.scalar(s, base.flavor))
    return acc


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
        ("h,e,f: (h+d)(h+d-2)...(h-d) = 0", _product_over(h, [d - 2 * k for k in range(d + 1)])),
        ("H1,e,f: H1e-eH1 = e", mul(h1, e) - mul(e, h1) - e),
        ("H1,e,f: ef-fe = 2H1-d", mul(e, f) - mul(f, e) - 2 * h1 + Element.scalar(d, flavor)),
        ("H1,e,f: H1f-fH1 = -f", mul(h1, f) - mul(f, h1) + f),
        ("H1,e,f: H1(H1-1)...(H1-d) = 0", _product_over(h1, list(range(d + 1)))),
        ("H2,e,f: H2e-eH2 = -e", mul(h2, e) - mul(e, h2) + e),
        ("H2,e,f: ef-fe = d-2H2", mul(e, f) - mul(f, e) + 2 * h2 - Element.scalar(d, flavor)),
        ("H2,e,f: H2f-fH2 = f", mul(h2, f) - mul(f, h2) - f),
        ("H2,e,f: H2(H2-1)...(H2-d) = 0", _product_over(h2, list(range(d + 1)))),
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


def check_relations(ctx: SchurContext) -> RelationReport:
    """Normalize LHS-RHS of every defining relation; all must vanish."""
    report = RelationReport(ctx.d, ctx.flavor)
    for name, rel in presentation_relations(ctx):
        report.checks.append(RelationCheck(name, normalize(rel, ctx)))
    return report


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
