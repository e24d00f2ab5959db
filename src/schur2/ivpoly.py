"""Integer-valued polynomials in the binomial-coefficient basis.

A polynomial P with P(Z) subset Z is an integer combination of the binomial
polynomials binom(H,b) = H(H-1)...(H-b+1)/b!, and that combination is unique.
A polynomial is only its coefficient tuple over the binomial basis, with
trailing zeros trimmed. This module holds the coefficient tables the engine
reads: decomposition from values (finite differences), the product
binom(H,i)*binom(H,j) and the complement substitution binom(d-H,b).

All coefficients are arbitrary-precision integers; nothing here ever rounds.
"""

from __future__ import annotations

import math
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
