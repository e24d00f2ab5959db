"""Surface syntax for elements: a small expression language and its printers.

The grammar (whitespace insignificant, ^ binds over * binds over +/-):

    expr   := ["-"] term (("+"|"-") term)*
    term   := factor ("*" factor)*
    factor := atom ("^" NAT)?
    atom   := "e" | "f" | "h" | "H1" | "H2"
            | "E(" NAT ")" | "F(" NAT ")"
            | "binom(" ("H1"|"H2") "," NAT ")"
            | NAT ("/" NAT)? | "(" expr ")"

The leading unary minus is a superset of the written grammar so that every
string the printers emit parses back. Exponents must be nonnegative integer
literals. Plain powers of e and f lower to scaled divided powers
(e^m = m! E(m)). A power of any other base of degree <= 1, such as
(2*e - f + h + 3)^k, is elements.linear_product: repeated right
multiplication by the base on integer arrays. Powers of higher-degree bases
lower to repeated products (elements.mul).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .elements import Element, Flavor, Scalar, linear_product, mul
from .qpoly import render_terms


class ParseError(ValueError):
    """Syntax error with the byte offset and the token set expected there."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = expected
        detail = f"{message} at offset {offset}"
        if expected:
            detail += " (expected " + ", ".join(expected) + ")"
        super().__init__(detail)


# -- AST ---------------------------------------------------------------------


@dataclass(frozen=True)
class Sum:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Neg:
    child: "Node"


@dataclass(frozen=True)
class Prod:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class ScalarLit:
    value: Fraction


@dataclass(frozen=True)
class Gen:
    name: str  # e, f, h, H1, H2


@dataclass(frozen=True)
class DividedPower:
    letter: str  # "e" or "f"
    index: int


@dataclass(frozen=True)
class HBinom:
    var: str  # "H1" or "H2"
    index: int


Node = Sum | Neg | Prod | Pow | ScalarLit | Gen | DividedPower | HBinom


_TOKEN = re.compile(r"(\d+)|([A-Za-z][A-Za-z0-9]*)|([+\-*^/(),])")

# Each open parenthesis costs a few stack frames in the parser and in lower.
MAX_NESTING = 100

_ATOM_EXPECTED = ("e", "f", "h", "H1", "H2", "E(", "F(", "binom(", "NAT", "(")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []  # (kind, value, offset)
        pos = 0
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            m = _TOKEN.match(text, pos)
            if m is None or m.lastindex is None:
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            kind = ("NAT", "NAME", "OP")[m.lastindex - 1]
            self.tokens.append((kind, m.group(), pos))
            pos = m.end()
        self.i = 0
        self.depth = 0  # open parentheses around the current position

    def _peek(self) -> tuple[str, str, int]:
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        return ("EOF", "", len(self.text))

    def _take(self) -> tuple[str, str, int]:
        tok = self._peek()
        self.i += 1
        return tok

    def _expect_op(self, op: str) -> None:
        kind, value, offset = self._peek()
        if kind != "OP" or value != op:
            raise ParseError(f"unexpected {value or 'end of input'!r}", offset, (op,))
        self.i += 1

    def _expect_nat(self) -> int:
        kind, value, offset = self._peek()
        if kind != "NAT":
            raise ParseError(f"unexpected {value or 'end of input'!r}", offset, ("NAT",))
        self.i += 1
        return int(value)

    def parse(self) -> Node:
        node = self.expr()
        kind, value, offset = self._peek()
        if kind != "EOF":
            raise ParseError(f"trailing input {value!r}", offset, ("+", "-", "*", "^", "EOF"))
        return node

    def expr(self) -> Node:
        kind, value, _ = self._peek()
        if kind == "OP" and value == "-":
            self.i += 1
            node: Node = Neg(self.term())
        else:
            node = self.term()
        while True:
            kind, value, _ = self._peek()
            if kind == "OP" and value in ("+", "-"):
                self.i += 1
                rhs = self.term()
                node = Sum(node, Neg(rhs) if value == "-" else rhs)
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            kind, value, _ = self._peek()
            if kind == "OP" and value == "*":
                self.i += 1
                node = Prod(node, self.factor())
            else:
                return node

    def factor(self) -> Node:
        node = self.atom()
        kind, value, _ = self._peek()
        if kind == "OP" and value == "^":
            self.i += 1
            return Pow(node, self._expect_nat())
        return node

    def atom(self) -> Node:
        kind, value, offset = self._take()
        if kind == "NAT":
            num = int(value)
            k2, v2, _ = self._peek()
            if k2 == "OP" and v2 == "/":
                self.i += 1
                _, _, den_off = self._peek()
                den = self._expect_nat()
                if den == 0:
                    raise ParseError("zero denominator", den_off, ("NAT >= 1",))
                return ScalarLit(Fraction(num, den))
            return ScalarLit(Fraction(num))
        if kind == "NAME":
            if value in ("e", "f", "h", "H1", "H2"):
                return Gen(value)
            if value in ("E", "F"):
                self._expect_op("(")
                index = self._expect_nat()
                self._expect_op(")")
                return DividedPower(value.lower(), index)
            if value == "binom":
                self._expect_op("(")
                vkind, vname, voff = self._take()
                if vkind != "NAME" or vname not in ("H1", "H2"):
                    raise ParseError(
                        f"unexpected {vname or 'end of input'!r}", voff, ("H1", "H2")
                    )
                self._expect_op(",")
                index = self._expect_nat()
                self._expect_op(")")
                return HBinom(vname, index)
            raise ParseError(f"unknown name {value!r}", offset, _ATOM_EXPECTED)
        if kind == "OP" and value == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", offset)
            self.depth += 1
            node = self.expr()
            self._expect_op(")")
            self.depth -= 1
            return node
        raise ParseError(
            f"unexpected {value or 'end of input'!r}", offset, _ATOM_EXPECTED
        )


def parse(text: str) -> Node:
    """Parse an expression into its syntax tree; raise ParseError on bad input."""
    return _Parser(text).parse()


def lower(node: Node, flavor: Flavor = Flavor.FHE) -> Element:
    """Evaluate a syntax tree to an element in the chosen normal order."""
    if isinstance(node, (Sum, Prod)):
        # The parser builds left-deep chains; fold them in a loop, left to right.
        chain = type(node)
        rights = []
        while isinstance(node, chain):
            rights.append(node.right)
            node = node.left
        acc = lower(node, flavor)
        for right in reversed(rights):
            acc = acc + lower(right, flavor) if chain is Sum else mul(acc, lower(right, flavor))
        return acc
    if isinstance(node, Neg):
        return -lower(node.child, flavor)
    if isinstance(node, Pow):
        if isinstance(node.base, Gen) and node.base.name in ("e", "f"):
            # Plain power of a lowering/raising generator: e^m = m! E(m).
            return Element.divided_power(node.base.name, node.exponent, flavor).scale(
                factorial(node.exponent)
            )
        base = lower(node.base, flavor)
        if base.degree() <= 1:
            return linear_product(base, [0] * node.exponent)
        acc = Element.one(flavor)
        for _ in range(node.exponent):
            acc = mul(acc, base)
        return acc
    if isinstance(node, ScalarLit):
        return Element.scalar(node.value, flavor)
    if isinstance(node, Gen):
        return Element.generator(node.name, flavor)
    if isinstance(node, DividedPower):
        return Element.divided_power(node.letter, node.index, flavor)
    if isinstance(node, HBinom):
        return Element.h_binomial(node.var, node.index, flavor)
    raise TypeError(f"not an expression node: {node!r}")


def parse_element(text: str, flavor: Flavor = Flavor.FHE) -> Element:
    """parse + lower in one step."""
    return lower(parse(text), flavor)


def render_plain_terms(
    coeffs: dict[tuple[int, int, int], Scalar | Fraction],
    flavor: Flavor,
    middle: str,
) -> str:
    """Print a plain-power expansion f^a M^b e^c (or the EHF mirror).

    `middle` names the inner variable (H1, H2 or h). Terms are ordered by key;
    the output re-parses to the same element.
    """
    left, right = flavor.letters
    parts: list[tuple[Scalar, str]] = []
    for (a, b, c) in sorted(coeffs):
        factors = []
        for sym, power in ((left, a), (middle, b), (right, c)):
            if power == 1:
                factors.append(sym)
            elif power > 1:
                factors.append(f"{sym}^{power}")
        parts.append((coeffs[(a, b, c)], "*".join(factors)))
    return render_terms(parts)
