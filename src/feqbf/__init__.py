"""Forall-exists QBF toolkit.

A decision procedure for prenex QBF with a universal block followed by an
existential block, parameterized by the number of existential variables;
two reductions from DNF validity to bounded-arity QBF; and a brute-force
oracle that certifies both on small instances.
"""

__version__ = "0.1.0"

from .formulas import (
    EXISTS,
    FORALL,
    CnfMatrix,
    DnfFormula,
    QbfInstance,
    QuantifierBlock,
    base_clause,
    binary_clause,
    normalize_prefix,
    split_clause_to_arity,
)
from .generate import random_dnf, random_forall_exists
from .oracle import (
    DEFAULT_VARIABLE_BOUND,
    EquivalenceReport,
    OracleLimitError,
    check_equivalence,
    eval_qbf,
    is_dnf_valid,
)
from .qdimacs import FormatError, emit_dnf, emit_qdimacs, parse_dnf, parse_qdimacs
from .reductions import (
    ReductionOutput,
    provenance_text,
    reduce_dnf_to_4qbf,
    reduce_dnf_to_fe_dqbf,
)
from .solver import (
    FalseCertificate,
    SolverInvariantError,
    SolverStats,
    greedy_disjoint,
    partition_groups,
    preprocess,
    sat_check_core,
    solve,
    threshold,
)

__all__ = [
    "CnfMatrix",
    "DnfFormula",
    "DEFAULT_VARIABLE_BOUND",
    "EXISTS",
    "EquivalenceReport",
    "FORALL",
    "FalseCertificate",
    "FormatError",
    "OracleLimitError",
    "QbfInstance",
    "QuantifierBlock",
    "ReductionOutput",
    "SolverInvariantError",
    "SolverStats",
    "base_clause",
    "binary_clause",
    "check_equivalence",
    "emit_dnf",
    "emit_qdimacs",
    "eval_qbf",
    "greedy_disjoint",
    "is_dnf_valid",
    "normalize_prefix",
    "parse_dnf",
    "parse_qdimacs",
    "partition_groups",
    "preprocess",
    "provenance_text",
    "random_dnf",
    "random_forall_exists",
    "reduce_dnf_to_4qbf",
    "reduce_dnf_to_fe_dqbf",
    "sat_check_core",
    "solve",
    "split_clause_to_arity",
    "threshold",
]
