"""Exact computer algebra for the rank-two Schur algebras S(2,d).

The package models the algebra by its presentation on e, f and the diagonal
generators, normalizes words onto the truncated Kostant basis, multiplies in
the quotient, and cross-checks everything against two independent matrix
models. All arithmetic is integer or rational and exact.
"""

import inspect

from .algebra import (
    SchurContext,
    StructureTable,
    basis,
    dimension,
    expected_h_min_poly,
    expected_h_var_min_poly,
    min_poly,
    mul_bd,
    normalize,
    quotient_map_check,
    structure_constants,
    to_h_basis,
    to_power_basis,
)
from .elements import (
    Element,
    Flavor,
    mul,
    render_element,
    substitute_offvar,
)
from .exprs import ParseError, lower, parse, parse_element
from .ivpoly import binom
from .oracle import (
    Rep,
    VerifyReport,
    eval_element,
    rank_of_images,
    tensor_rep,
    verify_suite,
    weight_rep,
)
from .qpoly import prender

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every module-level lru_cache of the symbolic engine.

    Products, reductions and binomial tables are memoised per process; a test
    that swaps one of those functions clears the caches so that no product
    cached before the swap hides it.
    """
    from . import algebra, elements, ivpoly

    for module in (elements, ivpoly, algebra):
        for value in vars(module).values():
            # An lru_cache wraps a function; a class with a cache_clear method is no cache.
            if inspect.isfunction(getattr(value, "__wrapped__", None)) and hasattr(value, "cache_clear"):
                value.cache_clear()

__all__ = [
    "Element",
    "Flavor",
    "ParseError",
    "Rep",
    "SchurContext",
    "StructureTable",
    "VerifyReport",
    "basis",
    "binom",
    "clear_caches",
    "dimension",
    "eval_element",
    "expected_h_min_poly",
    "expected_h_var_min_poly",
    "lower",
    "min_poly",
    "mul",
    "mul_bd",
    "normalize",
    "parse",
    "parse_element",
    "prender",
    "quotient_map_check",
    "rank_of_images",
    "render_element",
    "structure_constants",
    "substitute_offvar",
    "tensor_rep",
    "verify_suite",
    "weight_rep",
    "__version__",
]
