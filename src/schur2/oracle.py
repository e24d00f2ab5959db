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
tensor model one entry per class (k, u, i) = (|W|, |U|, |U & W|). The classes
are the binom(d+3,3) Sigma_d-orbits on pairs of words, and every map in
S(2,d) = End_{Sigma_d}(V^(x)d) is constant on them (Green's basis xi_A,
*Polynomial Representations of GL_n*, ch. 2), so probe vectors keep ranks and
decide equalities exactly, with no array of length 2^d. A relation is zero
iff, for every shift, the probe vectors of its terms sum to zero. A stack of
probe vectors (`Rep.probes`) spans only the columns its keys touch, so a rank
group holds its own shift's classes or weights, as many as it has rows when
the images are independent, and none of them zero.

Products are checked pair by pair on probe vectors, as the structure table
streams past (`ProductCheck`). An image of shift s times one of shift s' has
shift s+s', so the product of basis elements i and j has only terms k with
s_k = s_i+s_j. A term of another shift fails its pair outright: a probe
vector does not record its shift (at d=1, e and binom(H2,1) have the same
weight probe), so such a term could otherwise cancel unseen. Within that one
shift a probe vector fixes an image, so each pair is one width-long vector
on each side: the table side sums q_k times probe k over the pair's terms,
and the model side composes probes, in the weight model as weighted shifts,
in the tensor model by Schur's counting rule. In (AB)[U,W] = sum over V of
A[U,V] B[V,W], both factors see V only through the sizes x, y, z, t of its
parts in U & W, U - W, W - U and outside U | W, so with v = x+y+z+t

    AB(k,u,i) = sum of binom(i,x) binom(u-i,y) binom(k-i,z) binom(d-u-k+i,t)
                       * A(v,u,x+y) * B(k,v,x+z),

binom(d+7,7) terms in all, tabulated on first use.

Entries are Python ints from a table of binomials. A stack of probe vectors
is narrowed to int64 when its largest entry is below 2^62, as in every shift
of the weight model up to d = 34. The product check uses int64 only under
bounds on its operands for length-2^d sums, which cover the counting rule
too: it adds the same 2^d terms A[U,V] B[V,W], only grouped by class; the
table side is bounded per block by its largest constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Iterator, Sequence

import numpy as np

from . import algebra, matrices
from .algebra import Monomial, SchurContext, StructureTable
from .elements import Element, Flavor, Key
from .qpoly import Poly, pfrom_roots, prender


class Rep:
    """A concrete matrix model, defined by the closed forms of its action.

    `_entries(a, c)` lists the probe vector of F^(a) P(H2) E^(c) as (positions,
    h2, coef): the entry is coef * P(h2), h2 being the H2-value of the
    intermediate vector. `_dense` writes per-shift probe vectors as a matrix,
    and `_compose(probes, shifts, i, j)` gives the probe vector of image i[t]
    times image j[t] for each t, from the probe vectors of all the images.
    """

    def __init__(self, d: int, h2: np.ndarray, dim: int, width: int):
        self.d = d
        self.dim, self._width = dim, width
        # Both models act diagonally on H1, H2 and h; these are their weights.
        self._weights = {"H1": d - h2, "H2": h2, "h": d - 2 * h2}
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

    def probes(self, keys: list[Key]) -> tuple[np.ndarray, np.ndarray]:
        """Probe vectors of the FHE images of `keys` over the model columns they touch.

        Returns (cols, stack): the sorted columns that some key's closed form
        reaches, and one row per key holding its probe vector on them.
        """
        by_ac: dict[tuple[int, int], list[int]] = {}
        for t, (a, _, _, c) in enumerate(keys):
            by_ac.setdefault((a, c), []).append(t)
        blocks, top, hit = [], 0, np.zeros(self._width, dtype=bool)
        for (a, c), ts in by_ac.items():
            pos, h2, coef = self._entries(a, c)
            p = np.array([self._h_values(keys[t][1], keys[t][2]) for t in ts])
            vals = p[:, h2] * coef
            top = max(top, vals.max(initial=0))
            hit[pos] = True
            blocks.append((ts, pos, vals))
        at = np.cumsum(hit) - 1
        out = np.zeros((len(keys), int(at[-1]) + 1), dtype=np.int64 if top < 2**62 else object)
        for ts, pos, vals in blocks:
            out[np.ix_(ts, at[pos])] = vals
        return np.flatnonzero(hit), out


class _WeightRep(Rep):
    kind = "weight"

    def __init__(self, d: int):
        # v_j of the block k (highest weight m = d-2k) sits at pos j, top m-j.
        self._k, self._pos, self._top = np.array(
            [(k, j, d - 2 * k - j) for k in range(d // 2 + 1) for j in range(d - 2 * k + 1)],
            dtype=np.int64,
        ).T
        super().__init__(d, self._k + self._pos, len(self._pos), len(self._pos))

    def _entries(self, a: int, c: int):
        cols = np.flatnonzero((self._pos >= c) & (self._top >= a - c))
        i = self._pos[cols] - c
        # E^(m) = F^(m) = 0 for m > d: then no column is kept, and the
        # clamped binomial column stays inside the table.
        coef = self._binom[self._top[cols] + c, min(c, self.d + 1)]
        coef = coef * self._binom[i + a, min(a, self.d + 1)]
        return cols, self._k[cols] + i, coef

    def _dense(self, sums: dict[int, np.ndarray], conj: bool) -> np.ndarray:
        # Column j of shift s sits at row j+s; reversing each block conjugates.
        out = np.zeros((self.dim, self.dim), dtype=object)
        for s, v in sums.items():
            j = np.flatnonzero(v)
            out[j + s, j] = v[j]
        swap = np.arange(self.dim) - self._pos + self._top
        return out[np.ix_(swap, swap)] if conj else out

    def _compose(self, probes: np.ndarray, shifts: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        # Image j sends v_x to probes[j, x] v_(x+s_j); image i then weighs v_(x+s_j).
        x = np.clip(np.arange(self.dim) + shifts[j][:, None], 0, self.dim - 1)
        return probes[j] * probes[i[:, None], x]


class _TensorRep(Rep):
    kind = "tensor"

    def __init__(self, d: int):
        # Class (k, u, i) holds the pairs (U, W) with |W| = k, |U| = u, |U & W| = i.
        n = range(d + 1)
        classes = [(k, u, i) for k in n for u in n for i in range(max(0, k + u - d), min(k, u) + 1)]
        self._k, self._u, self._i = np.array(classes, dtype=np.int64).T
        self._index = np.zeros((d + 1,) * 3, dtype=np.int64)
        self._index[self._k, self._u, self._i] = np.arange(len(classes))
        self._rule = None
        # The words of each H2-value 0..d form one orbit.
        super().__init__(d, np.arange(d + 1), 1 << d, len(classes))

    def _entries(self, a: int, c: int):
        mid = self._k - c
        pos = np.flatnonzero((mid >= 0) & (self._u == mid + a) & (self._i >= mid))
        return pos, mid[pos], self._binom[self._i[pos], mid[pos]]

    def _dense(self, sums: dict[int, np.ndarray], conj: bool) -> np.ndarray:
        # (U, W) reads the class (|W|, |U|, |U & W|); complementing words conjugates.
        vec = sum(sums.values(), np.zeros(self._width, dtype=object))
        words = np.arange(self.dim) ^ (self.dim - 1 if conj else 0)
        count = np.array([bin(w).count("1") for w in range(self.dim)], dtype=np.int64)
        u, w = words[:, None], words[None, :]
        return vec[self._index[count[w], count[u], count[u & w]]]

    def _compose(self, probes: np.ndarray, shifts: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        if self._rule is None:
            # Schur's counting rule (module docstring) as rows out, left, right, count.
            d, ix, b = self.d, self._index, self._binom
            self._rule = np.array([
                (ix[k, u, i], ix[x + y + z + t, u, x + y], ix[k, x + y + z + t, x + z],
                 b[i, x] * b[u - i, y] * b[k - i, z] * b[d - u - k + i, t])
                for k, u, i in zip(self._k.tolist(), self._u.tolist(), self._i.tolist())
                for x in range(i + 1) for y in range(u - i + 1) for z in range(k - i + 1)
                for t in range(d - u - k + i + 1)
            ], dtype=np.int64).T
        out, lpos, rpos, count = self._rule
        composed = np.empty((len(i), self._width), dtype=probes.dtype)
        for left in np.unique(i).tolist():
            # m[r, o] sums count * left over the rule terms from right class r to class o.
            m = np.zeros((self._width, self._width), dtype=probes.dtype)
            np.add.at(m, (rpos, out), count * probes[left, lpos])
            t = np.flatnonzero(i == left)
            composed[t] = probes[j[t]] @ m
        return composed


def tensor_rep(d: int) -> Rep:
    """Action on words of length d over {1,2}, indexed lexicographically.

    Word w maps to the index whose bit (d-1-i) records whether position i
    holds the letter 2, so (11,12,21,22) is the d=2 order.
    """
    return _TensorRep(d)


def weight_rep(d: int) -> Rep:
    """Direct sum of the irreducible blocks of highest weight d, d-2, ..."""
    return _WeightRep(d)


def _probe_sums(x: Element, rep: Rep) -> dict[int, np.ndarray]:
    """The probe vectors of x's FHE image, one per shift a-c.

    Each (a, c) group of terms costs one closed form. EHF terms take the P of
    the FHE key with b1 and b2 swapped (module docstring).
    """
    groups: dict[tuple[int, int], np.ndarray] = {}
    for (a, b1, b2, c), q in x.terms.items():
        p = q * (rep._h_values(b2, b1) if x.flavor is Flavor.EHF else rep._h_values(b1, b2))
        groups[(a, c)] = groups[(a, c)] + p if (a, c) in groups else p
    sums: dict[int, np.ndarray] = {}
    for (a, c), p in groups.items():
        pos, h2, coef = rep._entries(a, c)
        sums.setdefault(a - c, np.zeros(rep._width, dtype=object))[pos] += coef * p[h2]
    return sums


def eval_element(x: Element, rep: Rep) -> np.ndarray:
    """Exact image of an element: an object ndarray of ints/Fractions."""
    return rep._dense(_probe_sums(x, rep), x.flavor is Flavor.EHF)


def vanishes(x: Element, rep: Rep) -> bool:
    """Whether x acts as zero: iff each per-shift probe sum is, FHE-conjugated for EHF."""
    return not any(s.any() for s in _probe_sums(x, rep).values())


def shift_groups(monos: list[Monomial], rep: Rep) -> Iterator[np.ndarray]:
    """Probe vectors of the monomial images, one matrix per shift a-c, over that shift's columns."""
    groups: dict[int, list[Key]] = {}
    for a, b, c in monos:
        groups.setdefault(a - c, []).append((a, 0, b, c))
    for keys in groups.values():
        yield rep.probes(keys)[1]


def rank_of_images(monos: list[Monomial], rep: Rep) -> int:
    """Exact rank of the span of the monomial images: the sum over shifts."""
    return sum(matrices.exact_rank(g) for g in shift_groups(monos, rep))


def relations_hold(relations: list[tuple[str, Element]], rep: Rep) -> tuple[bool, list[str]]:
    """Evaluate every named relation in the model; list any nonzero ones."""
    failures = [name for name, rel in relations if not vanishes(rel, rep)]
    return not failures, failures


class ProductCheck:
    """The structure constants against one model, fed as blocks of basis pairs.

    A block is (pair, k, q) as algebra.structure_blocks yields it: pair p is
    (p // n, p % n), entries sorted by pair, each an entry q at basis index k.
    A block covers the pairs after the previous block's last pair through its
    own last one; a pair without entries is a zero product, and `result`
    covers the pairs after the last block. Each product has only terms of
    shift s_i + s_j (module docstring), so a pair is one width-long vector on
    each side. Per block, a term of another shift fails its pair; the table
    side is one np.add.reduceat of q times the probe of k over the pair's
    entries, and the model side one `Rep._compose` over the covered pairs
    (one rule matrix per distinct left factor in the tensor model).
    Both run in int64 only while `matrices.int64_safe` bounds the model's
    length-2^d sums of probe products and the table's sums, over a pair's
    terms, of q times a probe entry, and on Python ints otherwise.
    """

    def __init__(self, monos: Sequence[Monomial], rep: Rep):
        self.rep, self.monos, self.n = rep, list(monos), len(monos)
        self._shifts = np.array([a - c for a, _, c in self.monos], dtype=np.int64)
        # _compose indexes model columns, so the stack goes to full width.
        cols, stack = rep.probes([(a, 0, b, c) for a, b, c in self.monos])
        self._probes = np.zeros((self.n, rep._width), dtype=stack.dtype)
        self._probes[:, cols] = stack
        self._bound = int(np.abs(self._probes).max(initial=0))
        if not matrices.int64_safe(rep.dim, self._bound, self._bound):
            self._probes = self._probes.astype(object)
        self._next = 0  # the first pair not yet checked
        self._bad: int | None = None  # the first failing pair

    def add(self, pair: np.ndarray, k: np.ndarray, q: np.ndarray) -> None:
        """Check one block, unless an earlier pair already failed."""
        if self._bad is None and len(pair):
            self._check(int(pair[-1]) + 1, pair, k, q)

    def result(self) -> tuple[bool, str]:
        if self._bad is None:
            empty = np.zeros(0, dtype=np.int64)
            self._check(self.n * self.n, empty, empty, empty)
        if self._bad is None:
            return True, f"{self.n * self.n} products checked"
        i, j = divmod(self._bad, self.n)
        return False, f"product mismatch at basis pair {self.monos[i]} * {self.monos[j]}"

    def _check(self, end: int, pair: np.ndarray, k: np.ndarray, q: np.ndarray) -> None:
        n, probes, shifts = self.n, self._probes, self._shifts
        starts = np.flatnonzero(np.diff(pair, prepend=-1))
        terms, most = int(np.diff(starts, append=len(pair)).max(initial=0)), int(np.abs(q).max(initial=0))
        if probes.dtype == object or not matrices.int64_safe(terms, most, self._bound):
            probes, q = probes.astype(object), q.astype(object)
        else:
            q = q.astype(np.int64)
        span = np.arange(self._next, end)
        diff = self.rep._compose(probes, shifts, span // n, span % n)
        local = pair - self._next
        if len(pair):
            diff[local[starts]] -= np.add.reduceat(q[:, None] * probes[k], starts)
        failing = diff.any(axis=1)
        failing[local[shifts[k] != shifts[pair // n] + shifts[pair % n]]] = True
        bad = np.flatnonzero(failing)
        if bad.size:
            self._bad = self._next + int(bad[0])
        self._next = end


def products_match(table: StructureTable, rep: Rep) -> tuple[bool, str]:
    """Check every structure-table product against the model, on probe vectors.

    The table's products go to a ProductCheck as one block per left factor,
    in row-major pair order, so a held table and the block stream of
    `verify_suite` are checked by the same code: per pair, the terms must all
    have shift s_i + s_j, the only shift of the product's image, and sum to
    the model's probe vector of image i times image j.
    """
    if not all(isinstance(q, int) for terms in table.products.values() for _, q in terms):
        return False, "structure constants are not integral"
    n = len(table.basis)
    check = ProductCheck(table.basis, rep)
    for i in range(n):
        terms = [(i * n + j, k, q) for j in range(n) for k, q in table.products[(i, j)]]
        pair, k, q = zip(*terms) if terms else ((), (), ())
        check.add(np.array(pair, dtype=np.int64), np.array(k, dtype=np.int64), algebra._int_array(list(q)))
    return check.result()


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


def verify_suite(d: int, oracle: str = "auto") -> VerifyReport:
    """Run the full cross-validation battery for one d.

    Covers: symbolic relation residues, relation images in the selected
    models, dimension/rank agreement, and for d <= 8 the structure
    constants: their integrality, every product against the models' and the
    rows with a degree-1 left factor against mul_bd, all read from one pass
    of algebra.structure_blocks with no table held. Then minimal polynomials of
    H1, H2 and h by three routes, and the quotient-map property from d+2.
    It works in the FHE flavor, which the report records.
    """
    ctx = SchurContext(d)
    report = VerifyReport(d, ctx.flavor)
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
        n = len(monos)
        checks = [ProductCheck(monos, rep) for rep in reps if rep.kind == "weight" or d <= 6]
        lefts = [i for i, mono in enumerate(monos) if sum(mono) == 1]
        integral, rows = True, {}
        for pair, k, q in algebra.structure_blocks(ctx):
            integral = integral and (
                q.dtype == np.int64 or (q.dtype == object and all(isinstance(v, int) for v in q.tolist()))
            )
            for check in checks:
                check.add(pair, k, q)
            at = np.isin(pair // n, lefts)
            for p, kq in zip(pair[at].tolist(), zip(k[at].tolist(), q[at].tolist())):
                rows.setdefault(divmod(p, n), []).append(kq)
        report.add("structure:integral", integral, f"{n}^2 products")
        for check in checks:
            report.add(f"products:{check.rep.kind}", *check.result())
        checked, differing = algebra.mul_bd_row_mismatches(ctx, rows)
        report.add(
            "structure:mul_bd",
            not differing,
            f"{checked} products with a degree-1 left factor"
            + (f"; differing: {differing[:5]}" if differing else ""),
        )
    else:
        report.add("structure:integral", True, "skipped (d > 8); run per-product checks instead")

    for gen, expected in (
        ("H1", algebra.expected_h_var_min_poly(d)),
        ("H2", algebra.expected_h_var_min_poly(d)),
        ("h", algebra.expected_h_min_poly(d)),
    ):
        sym = algebra.min_poly(Element.generator(gen, ctx.flavor), ctx)
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
