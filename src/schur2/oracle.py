"""Two independent matrix models of the truncated algebra.

The tensor model acts on the 2^d words over the alphabet {1,2}: e rewrites one
letter 2 to 1 (summed over positions), f rewrites one 1 to 2, and H_i counts
letters equal to i. The weight model is the direct sum of the irreducible
sl2 actions of highest weight m = d, d-2, ..., on bases v_0..v_m with

    f v_j = (j+1) v_{j+1},   e v_j = (m-j+1) v_{j-1},   H2 v_j = (k+j) v_j,

where m = d - 2k and H1 = d - H2. Both are faithful, and they are built from
nothing the symbolic engine uses, so agreement between the three routes is
meaningful evidence rather than a tautology. H1, H2 and h act diagonally in
both, so a minimal polynomial is the product of T - v over the distinct
weights v. No model stores a matrix.

Monomial images are closed forms of these actions, not matrix products.
E^(c) v_j = binom(m-j+c,c) v_(j-c) and F^(a) v_i = binom(i+a,a) v_(i+a); on
words, with U and W the sets of 2-positions, E^(c) sends W to its subsets of
size |W|-c and F^(a) sends a set to its supersets with a more elements. So
F^(a) binom(H1,b1) binom(H2,b2) E^(c) acts by

    weight: v_j -> binom(m-i,c) binom(d-k-i,b1) binom(k+i,b2) binom(i+a,a) v_(i+a),
            i = j-c, or 0 unless 0 <= i and i+a <= m;
    tensor: (U, W) entry binom(d-mid,b1) binom(mid,b2) binom(|U & W|,mid)
            if |U| = mid+a, else 0, where mid = |W|-c.

Reversing each weight block, or complementing each word, swaps e with f and
H1 with H2: the EHF image of (a,b1,b2,c) is that conjugate of the FHE image of
(a,b2,b1,c). Ranks, product identities and vanishing survive the
conjugation, so they are checked on FHE images; `eval_element` conjugates back.

An image moves H2 by its shift a-c, so images of different shifts have
disjoint supports and ranks add over shifts. Within a shift an image is fixed
by its probe vector: in the weight model one weight per source index, in the
tensor model its columns at the d+1 orbit representatives 1^(d-k) 2^k. Every
image lies in S(2,d) = End_{Sigma_d}(V^(x)d), where a map is fixed by one
column per Sigma_d-orbit of words (Green, *Polynomial Representations of
GL_n*, ch. 2), so restriction keeps ranks and decides equalities exactly.
Products compose probes: in the weight model as weighted shifts, in the
tensor model as the left image times the right orbit columns. A relation is
zero iff, for every shift, the probe vectors of its terms sum to zero.

Entries are Python ints from a table of binomials. A stack of probe vectors
is narrowed to int64 when its largest entry is below 2^62, as in every shift
of the weight model up to d = 34; the product check uses int64 only under
explicit bounds on its operands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Iterator

import numpy as np

from . import algebra, matrices
from .algebra import SchurContext, StructureTable
from .elements import Element, Flavor
from .qpoly import Poly, pfrom_roots, prender

Monomial = tuple[int, int, int]
Key = tuple[int, int, int, int]


class Rep:
    """A concrete matrix model, defined by the closed forms of its action.

    `_entries(a, c, cols)` of a model lists the support of F^(a) P(H2) E^(c)
    in the given columns as (rows, cols, h2, coef): the entry is coef * P(h2),
    h2 being the H2-value of the intermediate vector. `_probe_index` places
    entries in probe vectors, and `_compose` applies an image to them.
    """

    def __init__(self, d: int, h2: np.ndarray, swap: np.ndarray):
        self.d = d
        self.dim = len(h2)
        # Both models act diagonally on H1, H2 and h; these are their weights.
        self._weights = {"H1": d - h2, "H2": h2, "h": d - 2 * h2}
        self._swap = swap
        # binom(n, k) as Python ints for n <= d and k <= d+1; column d+1 is zero.
        self._binom = np.array(
            [[comb(n, k) for k in range(d + 2)] for n in range(d + 1)], dtype=object
        )

    def generator_matrix(self, name: str) -> np.ndarray:
        """e, f, H1, H2 or h as a dense int64 matrix, from the closed forms."""
        return eval_element(Element.generator(name), self).astype(np.int64)

    def diagonal_min_poly(self, name: str) -> Poly:
        """Minimal polynomial of H1, H2 or h: the product of T - v over its distinct weights."""
        return pfrom_roots(sorted(set(self._weights[name].tolist())))

    def _h_values(self, b1: int, b2: int) -> np.ndarray:
        """binom(H1,b1) binom(H2,b2) at H2 = 0..d."""
        h = np.arange(self.d + 1)
        return self._binom[self.d - h, min(b1, self.d + 1)] * self._binom[h, min(b2, self.d + 1)]

    def _add_image(self, out: np.ndarray, a: int, c: int, p: np.ndarray) -> None:
        """out += F^(a) P(H2) E^(c), with P given by its values p at H2 = 0..d."""
        rows, cols, h2, coef = self._entries(a, c, np.arange(self.dim))
        out[rows, cols] = out[rows, cols] + coef * p[h2]

    def _add_probe(self, out: np.ndarray, a: int, c: int, p: np.ndarray) -> None:
        """out += the probe vector of F^(a) P(H2) E^(c), P as in `_add_image`."""
        rows, cols, h2, coef = self._entries(a, c, self._probe_cols)
        out[self._probe_index(rows, cols)] += coef * p[h2]

    def probes(self, keys: list[Key]) -> np.ndarray:
        """Probe vectors of the FHE images of `keys`, one row each."""
        by_ac: dict[tuple[int, int], list[int]] = {}
        for t, (a, _, _, c) in enumerate(keys):
            by_ac.setdefault((a, c), []).append(t)
        blocks, top = [], 0
        for (a, c), ts in by_ac.items():
            rows, cols, h2, coef = self._entries(a, c, self._probe_cols)
            p = np.array([self._h_values(keys[t][1], keys[t][2]) for t in ts])
            vals = p[:, h2] * coef
            top = max(top, vals.max(initial=0))
            blocks.append((ts, self._probe_index(rows, cols), vals))
        out = np.zeros((len(keys), self._width), dtype=np.int64 if top < 2**62 else object)
        for ts, idx, vals in blocks:
            out[np.ix_(ts, idx)] = vals
        return out


class _WeightRep(Rep):
    kind = "weight"

    def __init__(self, d: int):
        # v_j of the block k (highest weight m = d-2k) sits at pos j, top m-j.
        k, pos, top = np.array(
            [(k, j, d - 2 * k - j) for k in range(d // 2 + 1) for j in range(d - 2 * k + 1)],
            dtype=np.int64,
        ).T
        self._k, self._pos, self._top = k, pos, top
        super().__init__(d, k + pos, np.arange(len(pos)) - pos + top)
        self._probe_cols = np.arange(self.dim)
        self._width = self.dim

    def _entries(self, a: int, c: int, cols: np.ndarray):
        keep = (self._pos[cols] >= c) & (self._top[cols] >= a - c)
        cols = cols[keep]
        i = self._pos[cols] - c
        # E^(m) = F^(m) = 0 for m > d: then no column is kept, and the
        # clamped binomial column stays inside the table.
        coef = self._binom[self._top[cols] + c, min(c, self.d + 1)]
        coef = coef * self._binom[i + a, min(a, self.d + 1)]
        return cols + a - c, cols, self._k[cols] + i, coef

    def _probe_index(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return cols

    def _compose(self, key: Key, probes: np.ndarray, shifts: np.ndarray) -> np.ndarray:
        # B sends v_x to probes[j, x] v_(x+s_j); the left image then weighs v_(x+s_j).
        left = self.probes([key])[0]
        return probes * left[np.clip(np.arange(self.dim) + shifts[:, None], 0, self.dim - 1)]


class _TensorRep(Rep):
    kind = "tensor"

    def __init__(self, d: int):
        dim = 1 << d
        counts = np.array([bin(w).count("1") for w in range(dim)], dtype=np.int64)
        super().__init__(d, counts, np.arange(dim) ^ (dim - 1))
        self._count = counts
        # Word 1^(d-k) 2^k has its 2s in the low k bits, so its popcount is k.
        self._probe_cols = (1 << np.arange(d + 1)) - 1
        self._width = dim * (d + 1)

    def _entries(self, a: int, c: int, cols: np.ndarray):
        mid = self._count[cols] - c
        rows, q = np.nonzero((self._count[:, None] == mid + a) & (mid >= 0))
        cols, mid = cols[q], mid[q]
        coef = self._binom[self._count[rows & cols], mid]
        keep = coef != 0
        return rows[keep], cols[keep], mid[keep], coef[keep]

    def _probe_index(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return rows * (self.d + 1) + self._count[cols]

    def _compose(self, key: Key, probes: np.ndarray, shifts: np.ndarray) -> np.ndarray:
        left = np.zeros((self.dim, self.dim), dtype=probes.dtype)
        a, b1, b2, c = key
        self._add_image(left, a, c, self._h_values(b1, b2))
        n = len(probes)
        return (left @ probes.reshape(n, self.dim, self.d + 1)).reshape(n, -1)


def tensor_rep(d: int) -> Rep:
    """Action on words of length d over {1,2}, indexed lexicographically.

    Word w maps to the index whose bit (d-1-i) records whether position i
    holds the letter 2, so (11,12,21,22) is the d=2 order.
    """
    return _TensorRep(d)


def weight_rep(d: int) -> Rep:
    """Direct sum of the irreducible blocks of highest weight d, d-2, ..."""
    return _WeightRep(d)


def _middles(x: Element, rep: Rep) -> dict[tuple[int, int], np.ndarray]:
    """The terms of x by (a, c), each group as its P(H2) at H2 = 0..d.

    Terms sharing (a, c) differ only in their middle polynomial. EHF terms
    take the P of the FHE key with b1 and b2 swapped (module docstring).
    """
    groups: dict[tuple[int, int], np.ndarray] = {}
    for (a, b1, b2, c), q in x.terms.items():
        p = q * (rep._h_values(b2, b1) if x.flavor is Flavor.EHF else rep._h_values(b1, b2))
        groups[(a, c)] = groups[(a, c)] + p if (a, c) in groups else p
    return groups


def eval_element(x: Element, rep: Rep) -> np.ndarray:
    """Exact image of an element: an object ndarray of ints/Fractions.

    Each (a, c) group costs one closed-form image with entries coef * P(h2).
    """
    out = matrices.zeros(rep.dim)
    for (a, c), p in _middles(x, rep).items():
        rep._add_image(out, a, c, p)
    if x.flavor is Flavor.EHF:
        out = out[np.ix_(rep._swap, rep._swap)]
    return out


def vanishes(x: Element, rep: Rep) -> bool:
    """Whether x acts as zero in the model, decided on probe vectors.

    The (a, c) groups add into one probe vector per shift a-c, and x is zero
    iff each sum is. An EHF image is zero iff its FHE conjugate is.
    """
    sums: dict[int, np.ndarray] = {}
    for (a, c), p in _middles(x, rep).items():
        rep._add_probe(sums.setdefault(a - c, np.zeros(rep._width, dtype=object)), a, c, p)
    return not any(s.any() for s in sums.values())


def shift_groups(monos: list[Monomial], rep: Rep) -> Iterator[np.ndarray]:
    """Probe vectors of the monomial images, one matrix per shift a-c."""
    groups: dict[int, list[Key]] = {}
    for a, b, c in monos:
        groups.setdefault(a - c, []).append((a, 0, b, c))
    for keys in groups.values():
        yield rep.probes(keys)


def rank_of_images(monos: list[Monomial], rep: Rep) -> int:
    """Exact rank of the span of the monomial images: the sum over shifts."""
    return sum(matrices.exact_rank(g) for g in shift_groups(monos, rep))


def relations_hold(relations: list[tuple[str, Element]], rep: Rep) -> tuple[bool, list[str]]:
    """Evaluate every named relation in the model; list any nonzero ones."""
    failures = [name for name, rel in relations if not vanishes(rel, rep)]
    return not failures, failures


def products_match(table: StructureTable, rep: Rep) -> tuple[bool, str]:
    """Check every structure-table product against the model, on probe vectors.

    For each left factor i, the model composes image i with the probe vectors
    of every right factor j (shift s_i + s_j); the table side adds q_k times
    probe k into the slot of shift s_k, and every slot of every pair must then
    cancel. Both sides are int64 under explicit bounds, else Python ints.
    """
    monos = list(table.basis)
    n = len(monos)
    max_coef = 1
    for terms in table.products.values():
        for _, q in terms:
            if not isinstance(q, int):
                return False, "structure constants are not integral"
            max_coef = max(max_coef, abs(q))
    keys = [(a, 0, b, c) for a, b, c in monos]
    shifts = np.array([a - c for a, _, c in monos], dtype=np.int64)
    probes = rep.probes(keys)
    bound = int(np.abs(probes).max(initial=0))
    if not (
        matrices.int64_safe(rep.dim, bound, bound) and matrices.int64_safe(n, max_coef, bound)
    ):
        probes = probes.astype(object)
    # Each pair has 4d+1 slots, slot 2d+s for shift s: products reach -2d..2d.
    slots = 4 * rep.d + 1
    slot = 2 * rep.d + shifts
    for i in range(n):
        terms = [(j, k, q) for j in range(n) for k, q in table.products[(i, j)]]
        jj, kk, qq = np.array(terms, dtype=probes.dtype).reshape(-1, 3).T
        jj, kk = jj.astype(np.int64), kk.astype(np.int64)
        diff = np.zeros((n * slots, probes.shape[1]), dtype=probes.dtype)
        np.add.at(diff, jj * slots + slot[kk], qq[:, None] * probes[kk])
        diff[np.arange(n) * slots + slot + shifts[i]] -= rep._compose(keys[i], probes, shifts)
        bad = np.flatnonzero(diff.reshape(n, -1).any(axis=1))
        if bad.size:
            return False, f"product mismatch at basis pair {monos[i]} * {monos[bad[0]]}"
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

    relations = algebra.presentation_relations(ctx)
    failing = [name for name, rel in relations if not algebra.normalize(rel, ctx).is_zero()]
    report.add(
        "relations:symbolic",
        not failing,
        f"{len(relations)} relations" + (f"; failing: {failing}" if failing else ""),
    )

    monos = algebra.basis(ctx)
    expected_dim = algebra.dimension(d)
    for rep in reps:
        ok, failures = relations_hold(relations, rep)
        report.add(
            f"relations:{rep.kind}",
            ok,
            "all vanish" if ok else f"failing: {failures}",
        )
        rank = rank_of_images(monos, rep)
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
            got = rep.diagonal_min_poly(gen)
            report.add(
                f"minpoly:{gen}:{rep.kind}",
                got == expected,
                prender(got),
            )

    report.add("quotient-map", algebra.quotient_map_check(ctx), f"from d={d + 2}")
    return report
