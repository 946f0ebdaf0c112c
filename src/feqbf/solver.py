"""Decision procedure for forall-exists QBF with few existential variables.

Clauses are partitioned into groups sharing an existential core.  If every
group's family of universal parts contains a large pairwise-disjoint
subfamily, the universal player can force every group down to its core, so
the instance reduces to a propositional SAT check over the cores.  Otherwise
some group admits a small hitting set of universal variables and the solver
branches over all of its assignments.  A weight measure (the sum over groups
of the largest universal part) strictly decreases along every branch, which
bounds the recursion.

The search branches on universal variables only, so no core ever changes:
the partition is computed once, at the root, and each branch restricts the
universal parts of its parent's groups (``restrict_groups``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .formulas import (
    EXISTS,
    FORALL,
    Assignment,
    Clause,
    CnfMatrix,
    QbfInstance,
    apply_assignment_cnf,  # unused here; perfbench/tracer.py wraps solver.apply_assignment_cnf
    is_tautological,
    literal_sort_key,
)
from .oracle import _play, clause_masks, eval_qbf

Groups = dict[Clause, tuple[Clause, ...]]  # existential core -> universal parts


class SolverInvariantError(RuntimeError):
    """Raised when the search breaks a property its correctness rests on."""


@dataclass(frozen=True)
class FalseCertificate:
    """A non-tautological all-universal clause; the universal player falsifies
    it, so the instance is False without any search."""

    clause: Clause


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
        override = self.threshold_override
        if override is not None and not (math.isfinite(override) and override >= 1):
            raise ValueError(f"threshold_override must be finite and at least 1, got {override}")


@dataclass
class SolverStats:
    """Run statistics.  ``d`` is the arity of the matrix left by ``preprocess``
    (at least 1), or 0 when a false certificate decided the run.
    ``weight0_leaves`` counts the search leaves of weight 0, where every
    clause left is all-existential."""

    leaves: int = 0
    weight0_leaves: int = 0
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


def partition_groups(matrix: CnfMatrix, existential_vars: frozenset[int]) -> Groups:
    """Map each existential core to the universal parts of its clauses.  Cores
    and the deduplicated parts keep first-occurrence order.  A purely
    existential clause contributes the empty universal part."""
    parts: dict[Clause, dict[Clause, None]] = {}
    for clause in matrix.clauses:
        core = frozenset(lit for lit in clause if abs(lit) in existential_vars)
        parts.setdefault(core, {})[clause - core] = None
    return {core: tuple(seen) for core, seen in parts.items()}


def restrict_groups(groups: Groups, sigma: Assignment) -> Groups:
    """The partition of the matrix simplified under ``sigma``, an assignment to
    universal variables: satisfied parts are dropped, falsified literals
    removed from the others, parts deduplicated in order, and a group left
    without parts dropped.  Cores are untouched, so groups keep their order."""
    true_lits = {v if value else -v for v, value in sigma.items()}
    false_lits = {-lit for lit in true_lits}
    restricted = {}
    for core, parts in groups.items():
        kept = dict.fromkeys(part - false_lits for part in parts if part.isdisjoint(true_lits))
        if kept:
            restricted[core] = tuple(kept)
    return restricted


def group_weight(groups: Groups) -> int:
    """Sum over groups of the largest universal part; the solver's strictly
    decreasing progress measure."""
    return sum(max(len(p) for p in parts) for parts in groups.values())


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
    return CnfMatrix(tuple(partition_groups(matrix, existential_vars)), matrix.num_vars)


def sat_check_core(core_matrix: CnfMatrix, existential_vars) -> bool:
    """Satisfiability of the core matrix over the existential variables,
    decided by the oracle's engine (backtracking with unit propagation) with
    every variable existential.  An empty clause makes it False."""
    bit_of = {v: i for i, v in enumerate(existential_vars)}
    return _play(clause_masks(core_matrix.clauses, bit_of), 0, 0, 0)


def weight(matrix: CnfMatrix, existential_vars: frozenset[int]) -> int:
    """``group_weight`` of the matrix's partition."""
    return group_weight(partition_groups(matrix, existential_vars))


class _Search:
    """One solver run: fixed threshold and variable split, accumulated stats.
    A node is the clause partition, ordered by core once at the root."""

    def __init__(self, existential: tuple[int, ...], num_vars: int, x_threshold: float):
        self.existential = existential
        self.num_vars = num_vars
        self.x_threshold = x_threshold
        self.stats = SolverStats()
        self._trace: list[int] = []
        self._best_trace: tuple[int, ...] = ()

    def decide(self, groups: Groups, depth: int) -> bool:
        if frozenset() in groups:
            raise SolverInvariantError("universal-only clause reached the recursion")
        w = group_weight(groups)
        if self._trace and w >= self._trace[-1]:
            raise SolverInvariantError("weight failed to decrease")
        self._trace.append(w)
        self.stats.max_depth = max(self.stats.max_depth, depth)
        try:
            for parts in groups.values():
                if any(not part for part in parts):
                    # The bare core survives every universal assignment, so the
                    # group needs no disjoint family and cannot be hit.
                    continue
                found = greedy_disjoint(parts, self.x_threshold)
                if isinstance(found, HittingSet):
                    if not all(
                        any(abs(lit) in found.variables for lit in part) for part in parts
                    ):
                        raise SolverInvariantError("hitting set misses a universal part")
                    return self._branch(groups, found.variables, depth)
            return self._base_case(groups, w)
        finally:
            self._trace.pop()

    def _branch(self, groups: Groups, hitting: frozenset[int], depth: int) -> bool:
        variables = sorted(hitting)
        for encoding in range(1 << len(variables)):
            sigma = {v: bool(encoding >> i & 1) for i, v in enumerate(variables)}
            self.stats.branches += 1
            if not self.decide(restrict_groups(groups, sigma), depth + 1):
                return False
        return True

    def _base_case(self, groups: Groups, w: int) -> bool:
        self.stats.base_case_hits += 1
        self.stats.leaves += 1
        if w == 0:
            self.stats.weight0_leaves += 1
        if len(self._trace) > len(self._best_trace):
            self._best_trace = tuple(self._trace)
        # The cores are the core projection of the restricted matrix.
        return sat_check_core(CnfMatrix(tuple(groups), self.num_vars), self.existential)


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
    groups = partition_groups(prepared.matrix, frozenset(existential))
    search = _Search(existential, prepared.matrix.num_vars, x_threshold)
    result = search.decide({core: groups[core] for core in sorted(groups, key=_core_key)}, 0)
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
