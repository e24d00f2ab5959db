"""Dense univariate polynomials over exact rationals.

Coefficient tuples run from the constant term upward and drop trailing zeros.
Just enough arithmetic for minimal-polynomial work: product, division, gcd,
lcm, evaluation, construction from roots, and deterministic rendering. The
signed-sum renderer `render_terms` also writes elements and expressions; this
module imports nothing from the package, so any module may import it first.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Poly = tuple[Fraction, ...]


def ptrim(coeffs: Sequence[Fraction | int]) -> Poly:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def pmul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return ptrim(out)


def pmonic(p: Poly) -> Poly:
    if not p:
        return ()
    lead = p[-1]
    return tuple(c / lead for c in p)


def pdivmod(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quo = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    dq, lead = len(q) - 1, q[-1]
    while len(rem) - 1 >= dq and any(rem):
        shift = len(rem) - 1 - dq
        factor = rem[-1] / lead
        quo[shift] = factor
        for i, c in enumerate(q):
            rem[shift + i] -= factor * c
        while rem and rem[-1] == 0:
            rem.pop()
    return ptrim(quo), ptrim(rem)


def pgcd(p: Poly, q: Poly) -> Poly:
    a, b = p, q
    while b:
        _, a, b = None, b, pdivmod(a, b)[1]
    return pmonic(a)


def plcm(p: Poly, q: Poly) -> Poly:
    if not p:
        return pmonic(q)
    if not q:
        return pmonic(p)
    g = pgcd(p, q)
    return pmonic(pdivmod(pmul(p, q), g)[0])


def pfrom_roots(roots: Sequence[int]) -> Poly:
    """prod (T - r) over the integer roots, expanded on ints and converted once."""
    out = [1]
    for r in roots:
        out = [lo - r * hi for lo, hi in zip([0, *out], [*out, 0])]
    return ptrim(out)


def prender(p: Poly, var: str = "T") -> str:
    """Deterministic descending-power rendering, e.g. "T^3 - 4*T"."""
    return render_terms(
        (p[k], "" if k == 0 else var if k == 1 else f"{var}^{k}") for k in reversed(range(len(p)))
    )


def render_terms(terms: Iterable[tuple[int | Fraction, str]]) -> str:
    """Signed sum of (coefficient, monomial) terms, e.g. "-E(1) + 1/2*F(1) - 3".

    An empty monomial is a constant term; zero coefficients are skipped, and
    a sum with no terms is "0". str writes an integral Fraction as an int.
    """
    out = ""
    for q, mono in terms:
        if not q:
            continue
        mag = -q if q < 0 else q
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if out:
            out += (" - " if q < 0 else " + ") + body
        else:
            out = ("-" if q < 0 else "") + body
    return out or "0"
