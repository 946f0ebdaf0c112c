"""Seeded random instance generation.

Randomness comes from CPython's ``random.Random`` (the documented Mersenne
Twister with the version-stable sample/randrange methods), so a seed pins the
generated corpus byte for byte across runs and platforms.
"""

from __future__ import annotations

import random

from .formulas import CnfMatrix, DnfFormula, EXISTS, FORALL, QbfInstance, normalize_prefix


def _random_clause(rng: random.Random, variables, arity: int) -> frozenset[int]:
    width = min(arity, len(variables))
    chosen = rng.sample(variables, width)
    return frozenset(v if rng.randrange(2) == 0 else -v for v in chosen)


def _random_clauses(rng, variables, count, arity):
    if arity < 1:
        raise ValueError(f"arity must be positive, got {arity}")
    return tuple(_random_clause(rng, variables, arity) for _ in range(count))


def random_dnf(num_vars: int, num_terms: int, *, arity: int = 3, seed: int) -> DnfFormula:
    """Uniform random DNF: each term draws ``arity`` distinct variables and
    independent signs."""
    if num_vars < 1:
        raise ValueError(f"num_vars must be positive, got {num_vars}")
    if num_terms < 0:
        raise ValueError(f"num_terms must be non-negative, got {num_terms}")
    rng = random.Random(seed)
    variables = list(range(1, num_vars + 1))
    return DnfFormula(_random_clauses(rng, variables, num_terms, arity), num_vars)


def random_forall_exists(
    num_universal: int,
    num_existential: int,
    num_clauses: int,
    *,
    arity: int = 3,
    seed: int,
) -> QbfInstance:
    """Uniform random forall-exists QBF: universals are 1..n, existentials
    n+1..n+k, and every clause draws ``arity`` distinct variables from the
    whole pool with independent signs."""
    for name, size in (
        ("num_universal", num_universal),
        ("num_existential", num_existential),
        ("num_clauses", num_clauses),
    ):
        if size < 0:
            raise ValueError(f"{name} must be non-negative, got {size}")
    total = num_universal + num_existential
    if total < 1:
        raise ValueError(
            "num_universal + num_existential must be positive, "
            f"got {num_universal} + {num_existential}"
        )
    rng = random.Random(seed)
    variables = list(range(1, total + 1))
    clauses = _random_clauses(rng, variables, num_clauses, arity)
    prefix = normalize_prefix(
        [
            (FORALL, range(1, num_universal + 1)),
            (EXISTS, range(num_universal + 1, total + 1)),
        ]
    )
    return QbfInstance(prefix, CnfMatrix(clauses, total))
