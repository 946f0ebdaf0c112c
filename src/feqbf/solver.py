"""Decision procedure for forall-exists QBF with few existential variables.

Clauses are partitioned into groups sharing an existential core.  If every
group's family of universal parts contains a large pairwise-disjoint
subfamily, the universal player can force every group down to its core, so
the instance reduces to a propositional SAT check over the cores.  Otherwise
some group admits a small hitting set of universal variables and the solver
branches over all of its assignments.  A weight measure (the sum over groups
of the largest universal part) strictly decreases along every branch, which
bounds the recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .formulas import (
    EXISTS,
    FORALL,
    Clause,
    CnfMatrix,
    QbfInstance,
    apply_assignment_cnf,
    is_tautological,
    literal_sort_key,
)
from .oracle import _game, clause_masks, eval_qbf


class SolverInvariantError(RuntimeError):
    """Raised when the search breaks a property its correctness rests on."""


@dataclass(frozen=True)
class FalseCertificate:
    """A non-tautological all-universal clause; the universal player falsifies
    it, so the instance is False without any search."""

    clause: Clause


@dataclass(frozen=True)
class GroupEntry:
    """One group of the clause partition: the clauses sharing an existential
    core, plus their deduplicated universal parts."""

    clause_indices: tuple[int, ...]
    parts: tuple[Clause, ...]


@dataclass(frozen=True)
class DisjointFamily:
    clauses: tuple[Clause, ...]


@dataclass(frozen=True)
class HittingSet:
    variables: frozenset[int]


@dataclass(frozen=True)
class SolverConfig:
    threshold_override: float | None = None
    small_k_cutoff: int = 2

    def __post_init__(self) -> None:
        if self.small_k_cutoff < 1:
            raise ValueError("small_k_cutoff must be at least 1")


@dataclass
class SolverStats:
    """Run statistics.  ``d`` is the arity of the matrix left by ``preprocess``
    (at least 1), or 0 when a false certificate decided the run."""

    leaves: int = 0
    max_depth: int = 0
    branches: int = 0
    weight_trace: tuple[int, ...] = ()
    base_case_hits: int = 0
    d: int = 0


STATS_CSV_COLUMNS = (
    "instance_id",
    "k",
    "d",
    "result",
    "leaves",
    "max_depth",
    "branches",
    "base_case_hits",
    "wall_time_ms",
)


def ae_blocks(instance: QbfInstance) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a forall-exists prefix into (universal, existential) variables."""
    quants = [b.quantifier for b in instance.prefix]
    if quants == []:
        return (), ()
    if quants == [FORALL]:
        return instance.prefix[0].vars, ()
    if quants == [EXISTS]:
        return (), instance.prefix[0].vars
    if quants == [FORALL, EXISTS]:
        return instance.prefix[0].vars, instance.prefix[1].vars
    raise ValueError("prefix must be one universal block followed by one existential block")


def preprocess(instance: QbfInstance) -> QbfInstance | FalseCertificate:
    """Drop tautological clauses; report False if an all-universal clause
    remains (the universal player falsifies it).  Afterwards every clause has
    a non-empty existential core."""
    _, existential = ae_blocks(instance)
    e_set = set(existential)
    kept = []
    for clause in instance.matrix.clauses:
        if is_tautological(clause):
            continue
        if not any(abs(lit) in e_set for lit in clause):
            return FalseCertificate(clause)
        kept.append(clause)
    return QbfInstance(instance.prefix, CnfMatrix(tuple(kept), instance.matrix.num_vars))


def _core_key(core: Clause) -> tuple[tuple[int, bool], ...]:
    return tuple(sorted(literal_sort_key(lit) for lit in core))


def partition_groups(
    matrix: CnfMatrix, existential_vars: frozenset[int]
) -> dict[Clause, GroupEntry]:
    """Partition clauses by existential core; universal parts are deduplicated
    in first-occurrence order.  A purely existential clause contributes the
    empty universal part."""
    indices: dict[Clause, list[int]] = {}
    parts: dict[Clause, list[Clause]] = {}
    seen: dict[Clause, set[Clause]] = {}
    for idx, clause in enumerate(matrix.clauses):
        core = frozenset(lit for lit in clause if abs(lit) in existential_vars)
        part = frozenset(lit for lit in clause if abs(lit) not in existential_vars)
        if core not in indices:
            indices[core] = []
            parts[core] = []
            seen[core] = set()
        indices[core].append(idx)
        if part not in seen[core]:
            seen[core].add(part)
            parts[core].append(part)
    return {
        core: GroupEntry(tuple(indices[core]), tuple(parts[core])) for core in indices
    }


def threshold(k: int, d: int) -> float:
    """Disjoint-family size threshold 2^d * d * ln(k)."""
    if k < 2:
        raise ValueError("threshold is undefined for k < 2; route small k to the oracle")
    if d < 1:
        raise ValueError("arity must be positive")
    return (2**d) * d * math.log(k)


def greedy_disjoint(parts, x_threshold: float) -> DisjointFamily | HittingSet:
    """Greedily collect pairwise variable-disjoint universal parts in input
    order.  Success means ceil(x_threshold) of them; otherwise the variables
    of the maximal family hit every part and come back as a hitting set."""
    if any(not part for part in parts):
        raise ValueError("greedy search is undefined on groups with an empty universal part")
    need = math.ceil(x_threshold)
    chosen: list[Clause] = []
    used: set[int] = set()
    for part in parts:
        if any(abs(lit) in used for lit in part):
            continue
        chosen.append(part)
        used.update(abs(lit) for lit in part)
        if len(chosen) >= need:
            return DisjointFamily(tuple(chosen))
    return HittingSet(frozenset(used))


def core_projection(matrix: CnfMatrix, existential_vars: frozenset[int]) -> CnfMatrix:
    """Replace every clause by its existential core, keeping one copy of each
    resulting clause (first-occurrence order)."""
    seen: set[Clause] = set()
    projected = []
    for clause in matrix.clauses:
        core = frozenset(lit for lit in clause if abs(lit) in existential_vars)
        if core not in seen:
            seen.add(core)
            projected.append(core)
    return CnfMatrix(tuple(projected), matrix.num_vars)


def sat_check_core(core_matrix: CnfMatrix, existential_vars) -> bool:
    """Satisfiability of the core matrix over the existential variables,
    decided by the oracle's backtracking engine with every variable
    existential."""
    bit_of = {v: i for i, v in enumerate(existential_vars)}
    masks = clause_masks(core_matrix.clauses, bit_of)
    if (0, 0) in masks:
        return False  # an empty clause; the engine requires none
    return _game(masks, [EXISTS] * len(bit_of), 0)


def weight(matrix: CnfMatrix, existential_vars: frozenset[int]) -> int:
    """Sum over groups of the largest universal part; the solver's strictly
    decreasing progress measure."""
    groups = partition_groups(matrix, existential_vars)
    return sum(max(len(p) for p in entry.parts) for entry in groups.values())


class _Search:
    """One solver run: fixed threshold and variable split, accumulated stats."""

    def __init__(self, existential: tuple[int, ...], x_threshold: float):
        self.existential = existential
        self.e_set = frozenset(existential)
        self.x_threshold = x_threshold
        self.stats = SolverStats()
        self._trace: list[int] = []
        self._best_trace: tuple[int, ...] = ()

    def decide(self, matrix: CnfMatrix, depth: int) -> bool:
        groups = partition_groups(matrix, self.e_set)
        if frozenset() in groups:
            raise SolverInvariantError("universal-only clause reached the recursion")
        w = sum(max(len(p) for p in entry.parts) for entry in groups.values())
        if self._trace and w >= self._trace[-1]:
            raise SolverInvariantError("weight failed to decrease")
        self._trace.append(w)
        self.stats.max_depth = max(self.stats.max_depth, depth)
        try:
            for core in sorted(groups, key=_core_key):
                entry = groups[core]
                if any(not part for part in entry.parts):
                    # The bare core survives every universal assignment, so the
                    # group needs no disjoint family and cannot be hit.
                    continue
                found = greedy_disjoint(entry.parts, self.x_threshold)
                if isinstance(found, HittingSet):
                    if not all(
                        any(abs(lit) in found.variables for lit in part)
                        for part in entry.parts
                    ):
                        raise SolverInvariantError("hitting set misses a universal part")
                    return self._branch(matrix, found.variables, depth)
            return self._base_case(matrix)
        finally:
            self._trace.pop()

    def _branch(self, matrix: CnfMatrix, hitting: frozenset[int], depth: int) -> bool:
        variables = sorted(hitting)
        for encoding in range(1 << len(variables)):
            sigma = {v: bool(encoding >> i & 1) for i, v in enumerate(variables)}
            self.stats.branches += 1
            if not self.decide(apply_assignment_cnf(matrix, sigma), depth + 1):
                return False
        return True

    def _base_case(self, matrix: CnfMatrix) -> bool:
        self.stats.base_case_hits += 1
        self.stats.leaves += 1
        if len(self._trace) > len(self._best_trace):
            self._best_trace = tuple(self._trace)
        return sat_check_core(core_projection(matrix, self.e_set), self.existential)


def leaf_bound_log2(k: int, d: int, x_threshold: float) -> float:
    """log2 of the bound d^2 * X * k^(d-1) on the search tree's leaf count."""
    return d * d * x_threshold * k ** (d - 1)


def solve(instance: QbfInstance, config: SolverConfig | None = None) -> tuple[bool, SolverStats]:
    """Decide a forall-exists QBF; returns the truth value and run statistics."""
    cfg = config or SolverConfig()
    prepared = preprocess(instance)
    if isinstance(prepared, FalseCertificate):
        return False, SolverStats(leaves=1)
    _, existential = ae_blocks(prepared)
    k = len(existential)
    d = max(prepared.matrix.max_arity(), 1)
    if k <= cfg.small_k_cutoff:
        return eval_qbf(prepared), SolverStats(d=d, leaves=1)
    if cfg.threshold_override is not None:
        x_threshold = cfg.threshold_override
    else:
        x_threshold = threshold(k, d)
    search = _Search(existential, x_threshold)
    result = search.decide(prepared.matrix, depth=0)
    stats = search.stats
    stats.weight_trace = search._best_trace
    stats.d = d
    if stats.max_depth > d * k ** (d - 1):
        raise SolverInvariantError("recursion exceeded the initial weight bound")
    if math.log2(max(stats.leaves, 1)) > leaf_bound_log2(k, d, x_threshold) + 1e-9:
        raise SolverInvariantError("leaf count exceeded the recursion-tree bound")
    return result, stats


def stats_csv_header() -> str:
    return ",".join(STATS_CSV_COLUMNS)


def stats_csv_row(
    instance_id: str,
    k: int,
    d: int,
    result: bool,
    stats: SolverStats,
    wall_time_ms: float,
) -> str:
    values = (
        instance_id,
        k,
        d,
        "TRUE" if result else "FALSE",
        stats.leaves,
        stats.max_depth,
        stats.branches,
        stats.base_case_hits,
        f"{wall_time_ms:.3f}",
    )
    return ",".join(str(v) for v in values)
