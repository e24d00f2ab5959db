"""Span tracing of the schur2 package from outside it.

The benchmark never edits the package. Instead, `install` replaces selected
module-level functions with timing wrappers at run time. A function is often
re-imported into other modules (`algebra.mul` and `exprs.mul` are the same
object as `elements.mul`), so every attribute of every loaded `schur2` module
that refers to the original object is replaced by the same wrapper.

Each call records one span: name, start, end, parent span and request id.
Spans stay in memory until the run ends. A span's self time is its duration
minus the time covered by its direct child spans.

Hot scalar helpers (`ivpoly.binom`, `matrices.matmul`, ...) are deliberately
not wrapped: they run millions of times per workload and the wrapper would
cost more than the call. Their layers are measured by cache counters instead.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# Functions wrapped in a traced run, by module. Names missing from a module
# (removed or renamed by a later change) are reported as absent.
TRACED = {
    "cli": ("entry",),
    "exprs": ("parse", "lower", "parse_element"),
    "elements": ("mul", "substitute_offvar"),
    "algebra": (
        "normalize",
        "mul_bd",
        "structure_constants",
        "min_poly",
        "to_power_basis",
        "to_h_basis",
        "check_relations",
        "quotient_map_check",
    ),
    "oracle": (
        "tensor_rep",
        "weight_rep",
        "eval_element",
        "images_int64",
        "rank_of_images",
        "relations_hold",
        "products_match",
        "matrix_min_poly",
        "verify_suite",
    ),
    "matrices": ("exact_rank", "bareiss_rank", "min_poly"),
}

# Module-level lru_caches read through cache_info() after a traced run.
CACHES = {
    "elements.cross_cache": (("elements", "_cross"),),
    "ivpoly.coeff_cache": (
        ("ivpoly", "binom_product_coeffs"),
        ("ivpoly", "binom_shift_coeffs"),
        ("ivpoly", "binom_complement_coeffs"),
    ),
    "algebra.collision_cache": (("algebra", "_collision_table"),),
    "algebra.reduce_cache": (("algebra", "_reduce_table"),),
}


def _nbytes(result) -> int:
    return int(getattr(result, "nbytes", 0))


def _matrix_entries(args) -> int:
    shape = getattr(args[0], "shape", ()) if args else ()
    return int(shape[0] * shape[1]) if len(shape) == 2 else 0


# Extra per-call counters: span name -> (counter name, function of args, result).
_COUNTERS = {
    "oracle.images_int64": ("oracle.images_int64.bytes", lambda args, res: _nbytes(res)),
    "matrices.exact_rank": ("matrices.exact_rank.entries", lambda args, res: _matrix_entries(args)),
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        # (name, start, end, parent index or -1, self seconds, request id)
        self.spans: list[tuple[str, float, float, int, float, int]] = []
        self.counters: dict[str, int] = {}
        self.absent: list[str] = []
        self.request = -1
        self._stack: list[list] = []  # [span index, child seconds]

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[index] = (name, start, end, parent, end - start - frame[1], self.request)
            if counter is not None:
                key, measure = counter
                self.counters[key] = self.counters.get(key, 0) + measure(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in TRACED wherever the package refers to it."""
        for short in TRACED:
            importlib.import_module(f"schur2.{short}")
        modules = [m for n, m in list(sys.modules.items()) if n == "schur2" or n.startswith("schur2.")]
        for short, names in TRACED.items():
            module = sys.modules[f"schur2.{short}"]
            for fname in names:
                original = getattr(module, fname, None)
                if not callable(original):
                    self.absent.append(f"{short}.{fname}")
                    continue
                wrapper = self.wrap(f"{short}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    # -- summaries -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def self_s(self, name: str) -> float:
        return sum(s[4] for s in self.spans if s[0] == name)

    def inclusive_s(self, *names: str) -> float:
        """Time inside any of `names`, counting nested or recursive calls once."""
        group = set(names)
        spans = self.spans
        total = 0.0
        for span in spans:
            if span[0] not in group:
                continue
            parent = span[3]
            while parent >= 0 and spans[parent][0] not in group:
                parent = spans[parent][3]
            if parent < 0:
                total += span[2] - span[1]
        return total

    def dump(self, path) -> None:
        """Write the spans as JSON: one [name, start, end, parent, self, request] each."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "self_s", "request"], "spans": self.spans}, fh)


def cache_counters() -> tuple[dict[str, float], list[str]]:
    """Entries and hit ratio of each cache group; absent caches count as empty."""
    metrics: dict[str, float] = {}
    absent: list[str] = []
    for group, members in CACHES.items():
        entries = hits = misses = 0
        for short, attr in members:
            module = sys.modules.get(f"schur2.{short}")
            info = getattr(getattr(module, attr, None), "cache_info", None)
            if info is None:
                absent.append(f"{short}.{attr}")
                continue
            stats = info()
            entries += stats.currsize
            hits += stats.hits
            misses += stats.misses
        metrics[f"{group}.entries"] = entries
        metrics[f"{group}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return metrics, absent


def layer_metrics(tracer: Tracer, command: str | None) -> dict[str, float]:
    """The per-layer metrics of one traced run (names as in BENCHMARK.json)."""
    t = tracer
    entry_s = t.inclusive_s("cli.entry")
    sc_s = t.inclusive_s("algebra.structure_constants")
    metrics: dict[str, float] = {
        "cli.table_emit_s": entry_s - sc_s if command == "table" else 0.0,
        "exprs.parse_s": t.inclusive_s("exprs.parse"),
        "exprs.lower_s": t.inclusive_s("exprs.lower"),
        "elements.mul.calls": t.calls("elements.mul"),
        "elements.mul.self_s": t.self_s("elements.mul"),
        "elements.substitute_offvar.calls": t.calls("elements.substitute_offvar"),
        "elements.substitute_offvar.self_s": t.self_s("elements.substitute_offvar"),
        "algebra.structure_constants.s": sc_s,
        "algebra.mul_bd.calls": t.calls("algebra.mul_bd"),
        "algebra.mul_bd.self_s": t.self_s("algebra.mul_bd"),
        "algebra.normalize.calls": t.calls("algebra.normalize"),
        "algebra.normalize.self_s": t.self_s("algebra.normalize"),
        "algebra.min_poly.s": t.inclusive_s("algebra.min_poly"),
        "algebra.basis_change.s": t.inclusive_s("algebra.to_power_basis", "algebra.to_h_basis"),
        "algebra.symbolic_checks.s": t.inclusive_s("algebra.check_relations", "algebra.quotient_map_check"),
        "oracle.rep_build.s": t.inclusive_s("oracle.tensor_rep", "oracle.weight_rep"),
        "oracle.images_int64.s": t.inclusive_s("oracle.images_int64"),
        "oracle.images_int64.bytes": t.counters.get("oracle.images_int64.bytes", 0),
        "oracle.relations_hold.s": t.inclusive_s("oracle.relations_hold"),
        "oracle.products_match.s": t.inclusive_s("oracle.products_match"),
        "oracle.matrix_min_poly.s": t.inclusive_s("oracle.matrix_min_poly"),
        "matrices.exact_rank.s": t.inclusive_s("matrices.exact_rank"),
        "matrices.exact_rank.entries": t.counters.get("matrices.exact_rank.entries", 0),
        "matrices.bareiss_rank.calls": t.calls("matrices.bareiss_rank"),
        "matrices.bareiss_rank.s": t.inclusive_s("matrices.bareiss_rank"),
        "matrices.min_poly.s": t.inclusive_s("matrices.min_poly"),
        "trace.spans": len(t.spans),
    }
    caches, absent = cache_counters()
    metrics.update(caches)
    t.absent.extend(absent)
    return metrics
