"""Two independent matrix models of the truncated algebra.

The tensor model acts on the 2^d words over the alphabet {1,2}: e rewrites one
letter 2 to 1 (summed over positions), f rewrites one 1 to 2, and H_i counts
letters equal to i. The weight model is the direct sum of the irreducible
sl2 actions of highest weight m = d, d-2, ..., on bases v_0..v_m with

    f v_j = (j+1) v_{j+1},   e v_j = (m-j+1) v_{j-1},   H2 v_j = (k+j) v_j,

where m = d - 2k and H1 = d - H2. Both are faithful, and they are built from
nothing the symbolic engine uses, so agreement between the three routes is
meaningful evidence rather than a tautology.

Divided powers are produced by the integral recurrence T^(m) = T^(m-1) T / m
with an exact-divisibility check, never by dividing floats; binomials of
the diagonal generators act entrywise on the diagonal. Everything stays in
int64 under explicit overflow bounds, spilling to arbitrary-precision objects
when a bound cannot be certified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from . import algebra, matrices
from .algebra import SchurContext, StructureTable
from .elements import Element, Flavor
from .qpoly import Poly, prender

Monomial = tuple[int, int, int]


def _checked_matmul_i64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if not matrices.int64_safe(
        a.shape[1], int(np.abs(a).max(initial=0)), int(np.abs(b).max(initial=0))
    ):
        raise OverflowError("int64 product bound exceeded")
    return a @ b


class Rep:
    """A concrete matrix model with lazy divided-power and binomial caches."""

    def __init__(
        self, kind: str, d: int, e: np.ndarray, f: np.ndarray,
        h1_values: np.ndarray, h2_values: np.ndarray,
    ):
        self.kind = kind
        self.d = d
        self.dim = e.shape[0]
        self._base = {"e": e, "f": f}
        self._diag = {"H1": h1_values, "H2": h2_values}
        eye = np.eye(self.dim, dtype=np.int64)
        self._powers: dict[str, list[np.ndarray]] = {"e": [eye], "f": [eye]}
        self._binoms: dict[tuple[str, int], np.ndarray] = {}

    def generator_matrix(self, name: str) -> np.ndarray:
        """e, f, H1, H2 or h as a dense int64 matrix."""
        if name in ("e", "f"):
            return self._base[name].copy()
        if name in ("H1", "H2"):
            return np.diag(self._diag[name])
        if name == "h":
            return np.diag(self._diag["H1"] - self._diag["H2"])
        raise ValueError(f"unknown generator {name!r}")

    def letter_power(self, letter: str, m: int) -> np.ndarray:
        """The divided power matrix for e or f, built integrally."""
        cache = self._powers[letter]
        while len(cache) <= m:
            k = len(cache)
            raw = _checked_matmul_i64(cache[-1], self._base[letter])
            quot, rem = np.divmod(raw, k)
            if rem.any():
                raise OverflowError("divided power recurrence must divide exactly")
            cache.append(quot)
        return cache[m]

    def h_binom_values(self, var: str, b: int) -> np.ndarray:
        """Diagonal of binom(H_var, b) as an int64 vector."""
        key = (var, b)
        if key not in self._binoms:
            self._binoms[key] = np.array(
                [comb(int(v), b) for v in self._diag[var]], dtype=np.int64
            )
        return self._binoms[key]

    def image_int64(self, key: tuple[int, int, int, int], flavor: Flavor) -> np.ndarray:
        """Image of one normal-order monomial, int64 under checked bounds."""
        a, b1, b2, c = key
        diag = self.h_binom_values("H1", b1) * self.h_binom_values("H2", b2)
        left_letter, right_letter = flavor.letters
        left = self.letter_power(left_letter, a)
        right = self.letter_power(right_letter, c)
        return _checked_matmul_i64(left * diag[None, :], right)


def tensor_rep(d: int) -> Rep:
    """Action on words of length d over {1,2}, indexed lexicographically.

    Word w maps to the index whose bit (d-1-i) records whether position i
    holds the letter 2, so (11,12,21,22) is the d=2 order.
    """
    dim = 1 << d
    e = np.zeros((dim, dim), dtype=np.int64)
    f = np.zeros((dim, dim), dtype=np.int64)
    for w in range(dim):
        for pos in range(d):
            bit = 1 << pos
            if w & bit:
                e[w ^ bit, w] += 1
            else:
                f[w | bit, w] += 1
    counts = np.array([bin(w).count("1") for w in range(dim)], dtype=np.int64)
    return Rep("tensor", d, e, f, d - counts, counts)


def weight_rep(d: int) -> Rep:
    """Direct sum of the irreducible blocks of highest weight d, d-2, ..."""
    blocks = [(k, d - 2 * k) for k in range(d // 2 + 1)]
    dim = sum(m + 1 for _, m in blocks)
    e = np.zeros((dim, dim), dtype=np.int64)
    f = np.zeros((dim, dim), dtype=np.int64)
    h2 = np.zeros(dim, dtype=np.int64)
    off = 0
    for k, m in blocks:
        for j in range(m + 1):
            h2[off + j] = k + j
            if j < m:
                f[off + j + 1, off + j] = j + 1
                e[off + j, off + j + 1] = m - j
        off += m + 1
    return Rep("weight", d, e, f, d - h2, h2)


def eval_element(x: Element, rep: Rep) -> np.ndarray:
    """Exact image of an element: an object ndarray of ints/Fractions.

    Terms are grouped by their (a, c) profile so each group costs one matrix
    product; overflow-safe paths are chosen by matrices.matmul.
    """
    n = rep.dim
    groups: dict[tuple[int, int], np.ndarray] = {}
    for (a, b1, b2, c), q in x.terms.items():
        diag = (
            rep.h_binom_values("H1", b1) * rep.h_binom_values("H2", b2)
        ).astype(object) * q
        key = (a, c)
        if key in groups:
            groups[key] = groups[key] + diag
        else:
            groups[key] = diag
    out = matrices.zeros(n, n)
    left_letter, right_letter = x.flavor.letters
    for (a, c), diag in groups.items():
        if a == 0 and c == 0:
            idx = np.arange(n)
            out[idx, idx] += diag
            continue
        left = rep.letter_power(left_letter, a).astype(object) * diag[None, :]
        out = out + matrices.matmul(left, rep.letter_power(right_letter, c).astype(object))
    return out


def images_int64(monos: list[Monomial], rep: Rep, flavor: Flavor = Flavor.FHE) -> np.ndarray:
    """Stacked images of single-variable monomials, shape (len, dim, dim)."""
    out = np.empty((len(monos), rep.dim, rep.dim), dtype=np.int64)
    for i, (a, b, c) in enumerate(monos):
        key = (a, 0, b, c) if flavor is Flavor.FHE else (a, b, 0, c)
        out[i] = rep.image_int64(key, flavor)
    return out


def rank_of_images(monos: list[Monomial], rep: Rep, flavor: Flavor = Flavor.FHE) -> int:
    """Exact rank of the span of the flattened monomial images."""
    return matrices.exact_rank(images_int64(monos, rep, flavor).reshape(len(monos), -1))


def matrix_min_poly(mat: np.ndarray) -> Poly:
    """Exact minimal polynomial of a matrix (int64 or exact-object entries)."""
    return matrices.min_poly(mat)


def relations_hold(ctx: SchurContext, rep: Rep) -> tuple[bool, list[str]]:
    """Evaluate every defining relation in the model; list any nonzero ones."""
    failures = []
    for name, rel in algebra.presentation_relations(ctx):
        if not matrices.is_zero_matrix(eval_element(rel, rep)):
            failures.append(name)
    return not failures, failures


def products_match(table: StructureTable, rep: Rep) -> tuple[bool, str]:
    """Check every structure-table product against matrix multiplication.

    Streams over index pairs in chunks: the actual side is a batched int64
    matmul, the expected side accumulates the (sparse) table rows. All int64
    work is covered by explicit bounds on the operands.
    """
    monos = list(table.basis)
    n = len(monos)
    stack = images_int64(monos, rep, table.flavor)
    flat = stack.reshape(n, -1)
    max_entry = int(np.abs(stack).max(initial=0))
    if not matrices.int64_safe(rep.dim, max_entry, max_entry):
        raise OverflowError("int64 bound exceeded for the image products")
    max_coef = 1
    for terms in table.products.values():
        for _, q in terms:
            if not isinstance(q, int):
                return False, "structure constants are not integral"
            max_coef = max(max_coef, abs(q))
    if not matrices.int64_safe(n, max_coef, max_entry):
        raise OverflowError("int64 bound exceeded for the expected products")

    pairs = [(i, j) for i in range(n) for j in range(n)]
    chunk = 512
    for start in range(0, len(pairs), chunk):
        batch = pairs[start : start + chunk]
        ii = np.array([p[0] for p in batch])
        jj = np.array([p[1] for p in batch])
        actual = np.matmul(stack[ii], stack[jj]).reshape(len(batch), -1)
        expected = np.zeros_like(actual)
        for row, (i, j) in enumerate(batch):
            for k, q in table.products[(i, j)]:
                expected[row] += q * flat[k]
        if not np.array_equal(actual, expected):
            bad = int(np.nonzero((actual != expected).any(axis=1))[0][0])
            i, j = batch[bad]
            return False, f"product mismatch at basis pair {monos[i]} * {monos[j]}"
    return True, f"{n * n} products checked"


# -- the named verification suite -------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class VerifyReport:
    d: int
    flavor: Flavor
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(name, passed, detail))

    def as_dict(self) -> dict:
        return {
            "d": self.d,
            "flavor": self.flavor.value,
            "all_passed": self.all_passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


def _selected_reps(d: int, oracle: str) -> list[Rep]:
    if oracle == "tensor":
        return [tensor_rep(d)]
    if oracle == "weight":
        return [weight_rep(d)]
    if oracle == "both":
        return [tensor_rep(d), weight_rep(d)]
    if oracle == "auto":
        reps = [tensor_rep(d)] if d <= 6 else []
        reps.append(weight_rep(d))
        return reps
    raise ValueError(f"unknown oracle selection {oracle!r}")


def verify_suite(d: int, oracle: str = "auto", flavor: Flavor = Flavor.FHE) -> VerifyReport:
    """Run the full cross-validation battery for one d.

    Covers: symbolic relation residues, relation images in the selected
    models, dimension/rank agreement, structure-constant integrality, the
    full product table against matrix multiplication, minimal polynomials of
    H1, H2 and h by three routes, and the quotient-map property from d+2.
    """
    ctx = SchurContext(d, flavor)
    report = VerifyReport(d, flavor)
    reps = _selected_reps(d, oracle)

    rel = algebra.check_relations(ctx)
    report.add(
        "relations:symbolic",
        rel.all_passed,
        f"{len(rel.checks)} relations"
        + ("" if rel.all_passed else f"; failing: {[c.name for c in rel.failures()]}"),
    )

    monos = algebra.basis(ctx)
    expected_dim = algebra.dimension(d)
    for rep in reps:
        ok, failures = relations_hold(ctx, rep)
        report.add(
            f"relations:{rep.kind}",
            ok,
            "all vanish" if ok else f"failing: {failures}",
        )
        rank = rank_of_images(monos, rep, flavor)
        report.add(
            f"rank:{rep.kind}",
            rank == expected_dim,
            f"rank {rank} vs dimension {expected_dim}",
        )

    if d <= 8:
        table = algebra.structure_constants(ctx)
        report.add(
            "structure:integral",
            table.is_integral(),
            f"{len(table.basis)}^2 products",
        )
        for rep in reps:
            if rep.kind == "tensor" and d > 6:
                continue
            ok, detail = products_match(table, rep)
            report.add(f"products:{rep.kind}", ok, detail)
    else:
        report.add("structure:integral", True, "skipped (d > 8); run per-product checks instead")

    for gen, expected in (
        ("H1", algebra.expected_h_var_min_poly(d)),
        ("H2", algebra.expected_h_var_min_poly(d)),
        ("h", algebra.expected_h_min_poly(d)),
    ):
        sym = algebra.min_poly(Element.generator(gen, flavor), ctx)
        report.add(
            f"minpoly:{gen}:symbolic",
            sym == expected,
            prender(sym),
        )
        for rep in reps:
            got = matrix_min_poly(rep.generator_matrix(gen))
            report.add(
                f"minpoly:{gen}:{rep.kind}",
                got == expected,
                prender(got),
            )

    report.add("quotient-map", algebra.quotient_map_check(ctx), f"from d={d + 2}")
    return report
