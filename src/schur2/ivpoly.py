"""Integer-valued polynomials in the binomial-coefficient basis.

A polynomial P with P(Z) subset Z is an integer combination of the binomial
polynomials binom(H,b) = H(H-1)...(H-b+1)/b!, and that combination is unique.
This module stores such polynomials as their coefficient vector over the
binomial basis and implements the handful of exact operations the rest of the
package needs: decomposition from values (finite differences), products,
argument shifts P(H+s), and the complement substitution P(d-H).

All coefficients are arbitrary-precision integers; nothing here ever rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence


def binom(n: int, k: int) -> int:
    """Binomial coefficient n(n-1)...(n-k+1)/k! for any integer n; 0 if k < 0."""
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k)
    # Upper negation: binom(n,k) = (-1)^k binom(k-n-1, k) for n < 0.
    return (-1) ** k * math.comb(k - n - 1, k)


def _trim(coeffs: Iterable[int]) -> tuple[int, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@lru_cache(maxsize=None)
def binom_product_coeffs(i: int, j: int) -> tuple[int, ...]:
    """Coefficients of binom(H,i)*binom(H,j) over the binomial basis.

    Uses the subset-counting identity
        binom(H,i)*binom(H,j) = sum_k binom(k,i)*binom(i,k-j)*binom(H,k),
    where k runs from max(i,j) to i+j.
    """
    out = [0] * (i + j + 1)
    for k in range(max(i, j), i + j + 1):
        out[k] = binom(k, i) * binom(i, k - j)
    return _trim(out)


@lru_cache(maxsize=None)
def binom_shift_coeffs(b: int, s: int) -> tuple[int, ...]:
    """Coefficients of binom(H+s, b) over the binomial basis in H.

    Chu-Vandermonde: binom(H+s,b) = sum_j binom(s,b-j) binom(H,j), for any integer s.
    """
    return tuple(binom(s, b - j) for j in range(b + 1))


@lru_cache(maxsize=None)
def binom_complement_coeffs(b: int, d: int) -> tuple[int, ...]:
    """Coefficients of binom(d-H, b) over the binomial basis in H.

    binom(d-H,b) = sum_j (-1)^j binom(d-j, b-j) binom(H,j).
    """
    return _trim((-1) ** j * binom(d - j, b - j) for j in range(b + 1))


def values_to_coeffs(values: Sequence[int]) -> tuple[int, ...]:
    """Forward differences at 0: binomial-basis coefficients from P(0..n).

    Differenced in place: after pass r, row[r:] holds the r-th differences
    and row[r-1] is the (r-1)-th difference at 0.
    """
    row = list(values)
    for r in range(1, len(row)):
        for i in range(len(row) - 1, r - 1, -1):
            row[i] -= row[i - 1]
    return _trim(row)


@dataclass(frozen=True)
class IVPoly:
    """An integer-valued polynomial, tagged with the symbol its variable denotes.

    coeffs[b] is the integer coefficient of binom(H,b); trailing zeros are
    trimmed so equal polynomials compare equal. The variable tag ("H1", "H2"
    or "h") only guards against mixing polynomials in different symbols.
    """

    var: str
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _trim(self.coeffs))

    @classmethod
    def from_values(cls, values: Sequence[int], var: str = "H2") -> "IVPoly":
        """The unique polynomial of degree <= n with values P(0), ..., P(n)."""
        return cls(var, values_to_coeffs(values))

    @classmethod
    def single(cls, b: int, var: str = "H2") -> "IVPoly":
        """The basis polynomial binom(H,b)."""
        return cls(var, (0,) * b + (1,))

    @classmethod
    def constant(cls, value: int, var: str = "H2") -> "IVPoly":
        return cls(var, (value,))

    @property
    def degree(self) -> int:
        """Degree as a polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, n: int) -> int:
        return sum(c * binom(n, b) for b, c in enumerate(self.coeffs))

    def __add__(self, other: "IVPoly") -> "IVPoly":
        self._expect_var(other)
        m = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (m - len(self.coeffs))
        b = other.coeffs + (0,) * (m - len(other.coeffs))
        return IVPoly(self.var, tuple(x + y for x, y in zip(a, b)))

    def __neg__(self) -> "IVPoly":
        return IVPoly(self.var, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IVPoly") -> "IVPoly":
        return self + (-other)

    def __rmul__(self, scalar: int) -> "IVPoly":
        return IVPoly(self.var, tuple(scalar * c for c in self.coeffs))

    def __mul__(self, other: "IVPoly") -> "IVPoly":
        """Product, re-expressed in the binomial basis (integer coefficients)."""
        self._expect_var(other)
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, ci in enumerate(self.coeffs):
            if ci == 0:
                continue
            for j, cj in enumerate(other.coeffs):
                if cj == 0:
                    continue
                for k, ck in enumerate(binom_product_coeffs(i, j)):
                    out[k] += ci * cj * ck
        return IVPoly(self.var, tuple(out))

    def shift(self, s: int) -> "IVPoly":
        """P(H+s), through the Chu-Vandermonde coefficients of each binom(H,b)."""
        out = [0] * len(self.coeffs)
        for b, c in enumerate(self.coeffs):
            if c == 0:
                continue
            for k, ck in enumerate(binom_shift_coeffs(b, s)):
                out[k] += c * ck
        return IVPoly(self.var, tuple(out))

    def complement(self, d: int, var: str | None = None) -> "IVPoly":
        """P(d-H), optionally retagged (used for the substitution H1 = d-H2)."""
        out = [0] * len(self.coeffs)
        for b, c in enumerate(self.coeffs):
            if c == 0:
                continue
            for k, ck in enumerate(binom_complement_coeffs(b, d)):
                out[k] += c * ck
        return IVPoly(var if var is not None else self.var, tuple(out))

    def _expect_var(self, other: "IVPoly") -> None:
        if self.var != other.var:
            raise ValueError(
                f"variable mismatch: {self.var!r} vs {other.var!r}"
            )

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for b, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if b == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(f"binom({self.var},{b})")
            else:
                parts.append(f"{c}*binom({self.var},{b})")
        return " + ".join(parts).replace("+ -", "- ")

