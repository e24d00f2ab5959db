"""The `queries-mixed` stream: seeded requests, their execution and their check.

A request names a d, a flavor, a kind and one or two expressions. The
expressions are built here as small syntax trees and rendered to text; the
package only ever sees the text. Kinds:

    kostant  normalize, print in the Kostant basis
    dense    normalize a power (c1*e + c2*f + c3*A)^k of a generic element,
             print in the Kostant basis; its cost is dense U-mode lowering
    power    normalize, print in the plain-power basis
    hbasis   normalize, print in the h-basis
    minpoly  exact minimal polynomial
    mulbd    product of two expressions in S(2,d), print in the Kostant basis

The stream is stratified so that two seeds give the same mix: every block of
20 requests holds the same number of each kind, d cycles through 1..10 within
each kind (and the exponent k through DENSE_EXPONENTS within `dense`), and
the flavors alternate. The seed picks the expressions and the order.

The weights in MIX set each layer's share of the time. minpoly (the Fraction
elimination of `algebra.min_poly`) and dense (`exprs.lower` through U-mode
`elements.mul`) have a cost fixed by d and k, so they carry most of the time
and share the latency tail; a slowdown in either moves wall_s and
latency_p99_ms. The random kinds are cheap but many: they cover parsing, the
whole grammar, `mul_bd` on two normalized elements and both basis changes.
On a 2-vCPU Xeon, a 1000-request stream spends about 48% of its time in
minpoly, 34% in dense, 12% in mulbd and 7% in the other three kinds; its top
1% of latencies are about 6 minpoly and 4 dense requests in 10.

The check is independent of the symbolic engine. Each benchmark-side tree is
evaluated directly in the weight model (built from `weight_rep` generator
matrices, with e^m = m! E(m)), one irreducible block at a time, and compared
with `eval_element` of the engine's answer. Power- and h-basis answers are
evaluated as plain-power products in the model; minimal polynomials are
compared with the lcm of `matrices.min_poly` over the blocks of the image,
which is the minimal polynomial of the (block-diagonal) image.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, factorial, lcm

import numpy as np

KINDS = ("kostant", "dense", "power", "hbasis", "minpoly", "mulbd")
# Requests of each kind per block of 20.
MIX = {"kostant": 5, "dense": 3, "power": 2, "hbasis": 2, "minpoly": 3, "mulbd": 5}
MAX_D = 10
# Exponents of the dense requests; the U-mode cost of a power grows about as k^3.
DENSE_EXPONENTS = range(2, 9)

# -- generation ---------------------------------------------------------------
#
# A factor is a nested tuple:
#   ("gen", name)          e, f, h, H1, H2
#   ("dp", letter, m)      E(m), F(m)
#   ("binom", var, b)      binom(H1,b), binom(H2,b)
#   ("pow", base, k)       base^k
#   ("shift", name, n)     (name + n), a parenthesised sum
#   ("ef",)                (e + f)
#   ("lin", ((c, name), ...))  a parenthesised linear combination of generators
# An expression is a list of terms (integer coefficient, [factors]).


def _coef(rng: random.Random) -> int:
    return rng.choice((1, 1, 2, 3, 5)) * rng.choice((1, -1))


def _factor(rng: random.Random, composite: bool):
    r = rng.random() if composite else 0.76 * rng.random()
    if r < 0.30:
        return ("pow", ("gen", rng.choice("ef")), rng.randint(1, 10))
    if r < 0.45:
        return ("dp", rng.choice("EF"), rng.randint(1, 6))
    if r < 0.62:
        return ("gen", rng.choice(("h", "H1", "H2")))
    if r < 0.76:
        return ("binom", rng.choice(("H1", "H2")), rng.randint(1, 4))
    if r < 0.88:
        return ("pow", ("ef",), rng.randint(2, 3))
    return ("pow", ("shift", rng.choice(("h", "H2")), rng.randint(1, 3)), rng.randint(2, 3))


# The most letters e and f one term may hold. It bounds the cost of a request,
# so that a few heavy random terms cannot set the latency tail.
LETTER_DEGREE = 10


def _letter_degree(node) -> int:
    if node[0] == "dp" or (node[0] == "pow" and node[1][0] in ("gen", "ef")):
        return node[2]
    return 0


def _expression(rng: random.Random, max_terms: int, max_factors: int):
    """A random sum of products: at most one power of a parenthesised sum, and
    at most LETTER_DEGREE letters in each term."""
    terms = []
    composite = True
    for _ in range(rng.randint(1, max_terms)):
        factors, degree = [], 0
        for _ in range(rng.randint(1, max_factors)):
            node = _factor(rng, composite)
            if degree + _letter_degree(node) > LETTER_DEGREE:
                node = ("gen", rng.choice(("h", "H1", "H2")))
            degree += _letter_degree(node)
            composite = composite and not (node[0] == "pow" and node[1][0] in ("ef", "shift"))
            factors.append(node)
        terms.append((_coef(rng), factors))
    return terms


def _sl2_element(rng: random.Random):
    """c1*A + c2*e + c3*f with A one of h, H1, H2.

    Every draw is a generic element of the same shape, so the cost of its
    minimal polynomial depends on d and hardly on the seed.
    """
    diagonal = ("gen", rng.choice(("h", "H1", "H2")))
    return [(_coef(rng), [diagonal]), (_coef(rng), [("gen", "e")]), (_coef(rng), [("gen", "f")])]


def _dense_power(rng: random.Random, k: int):
    """(c1*e + c2*f + c3*A)^k: lowering it multiplies dense elements in U-mode,
    at a cost fixed by k."""
    lin = ((_coef(rng), "e"), (_coef(rng), "f"), (_coef(rng), rng.choice(("h", "H1", "H2"))))
    return [(1, [("pow", ("lin", lin), k)])]


def make_stream(seed: int, n: int, max_d: int = MAX_D) -> list[dict]:
    """The request list for one seed; the same seed gives the same list."""
    rng = random.Random(seed)
    slots = []
    counters = {kind: 0 for kind in KINDS}
    block = [kind for kind in KINDS for _ in range(MIX[kind])]
    while len(slots) < n:
        for kind in block:
            k = counters[kind]
            counters[kind] += 1
            flavor = "fhe" if (k // max_d) % 2 == 0 else "ehf"
            exponent = DENSE_EXPONENTS[k % len(DENSE_EXPONENTS)]
            slots.append((kind, 1 + k % max_d, flavor, exponent))
    slots = slots[:n]
    rng.shuffle(slots)
    stream = []
    for kind, d, flavor, exponent in slots:
        if kind == "minpoly":
            exprs = [_sl2_element(rng)]
        elif kind == "dense":
            exprs = [_dense_power(rng, exponent)]
        elif kind == "mulbd":
            exprs = [_expression(rng, 2, 2), _expression(rng, 2, 2)]
        else:
            exprs = [_expression(rng, 3, 3)]
        stream.append(
            {"kind": kind, "d": d, "flavor": flavor, "trees": exprs, "texts": [render(x) for x in exprs]}
        )
    return stream


def _render_factor(node) -> str:
    tag = node[0]
    if tag == "gen":
        return node[1]
    if tag == "dp":
        return f"{node[1]}({node[2]})"
    if tag == "binom":
        return f"binom({node[1]},{node[2]})"
    if tag == "shift":
        return f"({node[1]} + {node[2]})"
    if tag == "ef":
        return "(e + f)"
    if tag == "lin":
        return f"({render([(c, [('gen', name)]) for c, name in node[1]])})"
    if tag == "pow":
        return f"{_render_factor(node[1])}^{node[2]}"
    raise ValueError(f"unknown factor {node!r}")


def render(terms) -> str:
    out = ""
    for i, (coef, factors) in enumerate(terms):
        body = "*".join(_render_factor(f) for f in factors)
        mag = abs(coef)
        text = body if mag == 1 else f"{mag}*{body}"
        if i == 0:
            out = f"-{text}" if coef < 0 else text
        else:
            out += f" - {text}" if coef < 0 else f" + {text}"
    return out


# -- execution (inside the measured process) ----------------------------------


def run_request(req: dict):
    """Do one request with the package; return (printed text, raw answer)."""
    import schur2
    from schur2 import algebra, exprs
    from schur2.qpoly import prender

    flavor = schur2.Flavor(req["flavor"])
    ctx = schur2.SchurContext(req["d"], flavor)
    x = schur2.parse_element(req["texts"][0], flavor)
    kind = req["kind"]
    if kind in ("kostant", "dense"):
        y = algebra.normalize(x, ctx)
        return schur2.render_element(y), y
    if kind == "mulbd":
        y = algebra.mul_bd(x, schur2.parse_element(req["texts"][1], flavor), ctx)
        return schur2.render_element(y), y
    if kind == "minpoly":
        p = algebra.min_poly(x, ctx)
        return prender(p), p
    if kind == "power":
        coeffs = algebra.to_power_basis(x, ctx)
        middle = flavor.main_var
    else:
        coeffs = algebra.to_h_basis(x, ctx)
        middle = "h"
    return exprs.render_plain_terms(coeffs, flavor, middle), coeffs


def answer_payload(kind: str, raw) -> list:
    """A raw answer as JSON-ready lists, with every coefficient as a string."""
    if kind == "minpoly":
        return [str(c) for c in raw]
    terms = raw.terms if kind in ("kostant", "dense", "mulbd") else raw
    return [[*key, str(q)] for key, q in sorted(terms.items())]


# -- the independent check (outside the measured process) ---------------------


def _components(mats: list[np.ndarray]) -> list[np.ndarray]:
    """Index sets of the connected components of the union of nonzero patterns."""
    n = mats[0].shape[0]
    adj = np.zeros((n, n), dtype=bool)
    for m in mats:
        adj |= np.asarray(m != 0)
    adj |= adj.T
    seen = np.zeros(n, dtype=bool)
    out = []
    for start in range(n):
        if seen[start]:
            continue
        comp, todo = [], [start]
        seen[start] = True
        while todo:
            i = todo.pop()
            comp.append(i)
            for j in np.nonzero(adj[i])[0]:
                if not seen[j]:
                    seen[j] = True
                    todo.append(int(j))
        out.append(np.array(sorted(comp)))
    return out


class WeightModel:
    """The weight model of S(2,d), stored block by block as exact object arrays."""

    def __init__(self, d: int):
        from schur2 import oracle

        self.rep = oracle.weight_rep(d)
        dense = {g: self.rep.generator_matrix(g) for g in ("e", "f", "H1", "H2")}
        dense["h"] = dense["H1"] - dense["H2"]
        self.blocks = _components([dense["e"], dense["f"]])
        self.gens = {g: self._split(m) for g, m in dense.items()}
        self._dp: dict[tuple[str, int], list] = {}
        self._pp: dict[tuple[str, int], list] = {}

    def _split(self, mat: np.ndarray) -> list[np.ndarray]:
        return [np.array(mat[np.ix_(ix, ix)], dtype=object) for ix in self.blocks]

    def identity(self, scale=1) -> list[np.ndarray]:
        out = []
        for ix in self.blocks:
            blk = np.zeros((len(ix), len(ix)), dtype=object)
            for i in range(len(ix)):
                blk[i, i] = scale
            out.append(blk)
        return out

    @staticmethod
    def mul(x, y):
        return [a.dot(b) for a, b in zip(x, y)]

    @staticmethod
    def add(x, y):
        return [a + b for a, b in zip(x, y)]

    @staticmethod
    def scale(x, q):
        return [a * q for a in x]

    def power(self, x, k: int):
        acc = self.identity()
        for _ in range(k):
            acc = self.mul(acc, x)
        return acc

    def divided_power(self, letter: str, m: int):
        """letter^m / m!, checked to divide exactly."""
        key = (letter, m)
        if key not in self._dp:
            raw = self.power(self.gens[letter], m)
            fact = factorial(m)
            for blk in raw:
                if any(v % fact for v in blk.flat):
                    raise ArithmeticError(f"{letter}^{m} is not divisible by {m}!")
            self._dp[key] = [blk // fact for blk in raw]
        return self._dp[key]

    def binomial(self, var: str, b: int):
        out = []
        for blk in self.gens[var]:
            diag = np.zeros(blk.shape, dtype=object)
            for i in range(blk.shape[0]):
                diag[i, i] = comb(int(blk[i, i]), b)
            out.append(diag)
        return out

    def factor(self, node):
        tag = node[0]
        if tag == "gen":
            return self.gens[node[1]]
        if tag == "dp":
            return self.divided_power(node[1].lower(), node[2])
        if tag == "binom":
            return self.binomial(node[1], node[2])
        if tag == "shift":
            return self.add(self.gens[node[1]], self.identity(node[2]))
        if tag == "ef":
            return self.add(self.gens["e"], self.gens["f"])
        if tag == "lin":
            acc = self.identity(0)
            for c, name in node[1]:
                acc = self.add(acc, self.scale(self.gens[name], c))
            return acc
        if tag == "pow":
            base = node[1]
            if base[0] == "gen" and base[1] in ("e", "f"):
                # Plain powers of e and f: e^m = m! E(m).
                return self.scale(self.divided_power(base[1], node[2]), factorial(node[2]))
            return self.power(self.factor(base), node[2])
        raise ValueError(f"unknown factor {node!r}")

    def expression(self, terms):
        acc = self.identity(0)
        for coef, factors in terms:
            prod = self.identity(coef)
            for node in factors:
                prod = self.mul(prod, self.factor(node))
            acc = self.add(acc, prod)
        return acc

    def plain_power(self, name: str, k: int):
        key = (name, k)
        if key not in self._pp:
            self._pp[key] = self.power(self.gens[name], k)
        return self._pp[key]

    def plain_terms(self, coeffs, flavor: str, middle: str):
        """Image of sum q * L^a M^b R^c, with L, R the flavor's outer letters.

        Returned scaled by the common denominator of the q, with that
        denominator, so that only integer matrices are multiplied.
        """
        left, right = ("f", "e") if flavor == "fhe" else ("e", "f")
        qs = [Fraction(q) for *_, q in coeffs]
        den = lcm(*(q.denominator for q in qs)) if qs else 1
        acc = self.identity(0)
        for (a, b, c, _), q in zip(coeffs, qs):
            term = self.mul(self.plain_power(left, a), self.plain_power(middle, b))
            term = self.mul(term, self.plain_power(right, c))
            acc = self.add(acc, self.scale(term, int(q * den)))
        return acc, den

    @staticmethod
    def equals_blocks(x, y) -> bool:
        return all(bool((a == b).all()) for a, b in zip(x, y))

    def equals_dense(self, blocks, dense: np.ndarray) -> bool:
        """Whether a dense image equals the block image (zero off the blocks)."""
        rest = np.array(dense, dtype=object)
        for ix, blk in zip(self.blocks, blocks):
            sub = rest[np.ix_(ix, ix)]
            if not bool((sub == blk).all()):
                return False
            rest[np.ix_(ix, ix)] = 0
        return bool((rest == 0).all())

    def min_poly(self, blocks):
        from schur2 import matrices
        from schur2.qpoly import plcm, ptrim

        acc = ptrim([1])
        for blk in blocks:
            acc = plcm(acc, matrices.min_poly(blk))
        return acc


def check_answer(req: dict, answer, models: dict[int, WeightModel]) -> str | None:
    """None if the answer is right, else a one-line reason."""
    import schur2
    from schur2 import oracle

    d, flavor, kind = req["d"], req["flavor"], req["kind"]
    model = models.get(d)
    if model is None:
        model = models[d] = WeightModel(d)
    image = model.expression(req["trees"][0])
    if kind == "mulbd":
        image = model.mul(image, model.expression(req["trees"][1]))
    if kind in ("kostant", "dense", "mulbd"):
        terms = {}
        for a, b1, b2, c, q in answer:
            if (b1 if flavor == "fhe" else b2) or a + b1 + b2 + c > d:
                return f"term {(a, b1, b2, c)} is not a Kostant basis monomial of S(2,{d})"
            terms[(a, b1, b2, c)] = Fraction(q)
        element = schur2.Element(schur2.Flavor(flavor), terms)
        if not model.equals_dense(image, oracle.eval_element(element, model.rep)):
            return "answer differs from the expression in the weight model"
        return None
    if kind == "minpoly":
        got = tuple(Fraction(c) for c in answer)
        want = model.min_poly(image)
        return None if got == want else f"minimal polynomial {got} differs from the model's {want}"
    middle = (("H2" if flavor == "fhe" else "H1") if kind == "power" else "h")
    if any(a + b + c > d for a, b, c, _ in answer):
        return f"{kind} answer has a monomial of degree above {d}"
    scaled, den = model.plain_terms(answer, flavor, middle)
    if not model.equals_blocks(model.scale(image, den), scaled):
        return f"{kind} answer differs from the expression in the weight model"
    return None
