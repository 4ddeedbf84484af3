"""Exact invariants of the coadjoint representation of low-dimensional
Lie algebras given by structure constants."""

from .algebra import (
    CoadjointMatrix,
    StructureConstants,
    bracket,
    coadjoint_matrix,
    derived_algebra_dim,
    generic_rank,
    is_perfect,
    jacobi_defect,
    num_invariants,
)
from .expr import (
    ComplexRational,
    Const,
    EvaluationError,
    Expression,
    Ln,
    ParseError,
    Polynomial,
    Pow,
    Prod,
    Sum,
    Var,
    as_polynomial,
    differentiate,
    evaluate,
    is_zero_expr,
    normalize,
    parse,
    rational_form,
    to_text,
)
from .invariants import (
    InvariantCheck,
    SamplingError,
    SearchCapError,
    SemiInvariant,
    StructureError,
    VerificationReport,
    apply_operator,
    combine_semi_invariants,
    functional_independence_rank,
    heisenberg_invariant,
    is_invariant_numeric,
    is_invariant_symbolic,
    missing_label_count,
    polynomial_invariant_search,
    semi_invariant_weights,
    verify_algebra,
)
from .catalog import (
    AlgebraRecord,
    CatalogError,
    ConstraintError,
    ParamSpec,
    default_catalog_path,
    instantiate,
    load_catalog,
    load_catalog_text,
    print_catalog,
    verify_catalog,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
