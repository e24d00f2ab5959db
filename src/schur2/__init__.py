"""Exact computer algebra for the rank-two Schur algebras S(2,d).

The package models the algebra by its presentation on e, f and the diagonal
generators, normalizes words onto the truncated Kostant basis, multiplies in
the quotient, and cross-checks everything against two independent matrix
models. All arithmetic is integer or rational and exact.
"""

from .algebra import (
    RelationReport,
    SchurContext,
    StructureTable,
    basis,
    check_relations,
    dimension,
    expected_h_min_poly,
    expected_h_var_min_poly,
    from_h_basis,
    from_power_basis,
    min_poly,
    mul_bd,
    normalize,
    quotient_map_check,
    reduce_monomial,
    structure_constants,
    to_h_basis,
    to_power_basis,
)
from .elements import (
    Element,
    Flavor,
    commute_e_past_fdiv,
    commute_poly_left,
    fdiv_merge,
    mul,
    render_element,
    substitute_offvar,
)
from .exprs import ParseError, lower, parse, parse_element
from .ivpoly import IVPoly, binom
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
            if hasattr(value, "cache_clear"):
                value.cache_clear()

__all__ = [
    "Element",
    "Flavor",
    "IVPoly",
    "ParseError",
    "RelationReport",
    "Rep",
    "SchurContext",
    "StructureTable",
    "VerifyReport",
    "basis",
    "binom",
    "check_relations",
    "clear_caches",
    "commute_e_past_fdiv",
    "commute_poly_left",
    "dimension",
    "eval_element",
    "expected_h_min_poly",
    "expected_h_var_min_poly",
    "fdiv_merge",
    "from_h_basis",
    "from_power_basis",
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
    "reduce_monomial",
    "render_element",
    "structure_constants",
    "substitute_offvar",
    "tensor_rep",
    "verify_suite",
    "weight_rep",
    "__version__",
]
