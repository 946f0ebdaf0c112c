"""Decision procedure for forall-exists QBF with few existential variables.

Clauses are partitioned into groups sharing an existential core.  Every
clause is core or part, so a node whose cores are jointly satisfiable is
TRUE whatever the universals do: each node checks its cores first.  If they
are not and every group's family of universal parts contains a large
pairwise-disjoint subfamily, the universal player can force every group down
to its core, and the node is FALSE.  Otherwise some groups admit a small
hitting set of universal variables, and the solver branches over all the
assignments of the smallest one.  A weight measure (the sum over the live
groups of the largest universal part) strictly decreases along every branch,
which bounds the recursion.  Every k takes this search after
``preprocess``: below k = 2 the threshold and the bounds are those of k = 2.

The search branches on universal variables only, so no core ever changes:
the partition is computed once, at the root (``partition_groups``), which
encodes each clause once with ``oracle.clause_masks``, over the universal
bits and then the existential bits, each in sorted variable order.  A
search node is a list of ``(core, parts, used, heaviest)`` entries, one per
group: the core is a ``(pos, neg)`` mask over the existential bits, each
universal part one over the universal bits, ``used`` is the union of the
parts' variables and ``heaviest`` the size of the largest part.  The root
has the shape of a child: its live groups, their weight and the cores it
forced.  Each branch restricts its parent's node (``restrict_groups``) and
weighs the result in the same pass; a group that shares no variable with
the branch's bits passes through as it is, with its stored summary.

A group one of whose parts is the bare core ``(0, 0)`` is forced: its core
must hold under every universal assignment, and it subsumes the group's
other parts.  Such a group leaves the node, at the root or in the
restriction that empties the part, and weighs nothing; only the live groups
are searched.  The forced cores travel down the search instead.

When the k existential variables number at most ``oracle.TABLE_BITS``, the
root also maps each core to its satisfying set, a 2^k-bit int
(``oracle.satisfying_sets``).  The forced cores then travel as the AND of
their sets, and a node's SAT check ANDs its live cores' sets into it.
Above the cap they travel as a tuple of masks, and a node hands them with
its live cores to the oracle's game as they are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .formulas import (
    EXISTS,
    FORALL,
    Clause,
    CnfMatrix,
    QbfInstance,
    apply_assignment_cnf,  # unused here; perfbench/tracer.py wraps solver.apply_assignment_cnf
    is_tautological,
    normalize_prefix,
)
from .oracle import TABLE_BITS, _game, clause_masks, satisfying_sets, sets_intersect
from .oracle import eval_qbf  # unused here; perfbench/tracer.py wraps solver.eval_qbf

Mask = tuple[int, int]  # (pos, neg), as oracle.clause_masks encodes a clause
# (core, universal parts, union of the parts' variables, largest part size) per group
Node = list[tuple[Mask, tuple[Mask, ...], int, int]]
# The forced cores: the AND of their satisfying sets, or their masks above the table cap
Carried = int | tuple[Mask, ...]


class SolverInvariantError(RuntimeError):
    """Raised when the search breaks a property its correctness rests on."""


@dataclass(frozen=True)
class FalseCertificate:
    """A non-tautological all-universal clause; the universal player falsifies
    it, so the instance is False without any search."""

    clause: Clause


@dataclass(frozen=True)
class DisjointFamily:
    parts: tuple[Mask, ...]


@dataclass(frozen=True)
class SolverConfig:
    """Unused by ``solve``; kept only because perfbench/tracer.py reads
    ``SolverConfig().small_k_cutoff`` to label runs."""

    small_k_cutoff: int = 2

    def __post_init__(self) -> None:
        if self.small_k_cutoff < 1:
            raise ValueError("small_k_cutoff must be at least 1")


@dataclass
class SolverStats:
    """Run statistics.  ``route`` names what decided the run:
    ``false_certificate`` or ``search``.  ``d`` is the arity of the matrix
    left by ``preprocess`` (at least 1), or 0 when a false certificate
    decided the run.  The search leaves come in three kinds, which sum to
    ``leaves``: ``sat_leaves`` are TRUE, their cores jointly satisfiable;
    ``collapse_leaves`` are FALSE with live groups left, each of which holds
    a large disjoint family; ``weight0_leaves`` are FALSE with no live group,
    every group left forced to its core.  A false certificate counts one
    leaf of no kind.  The root is at depth 0: ``max_depth``
    is the depth of the deepest node, and ``weight_trace`` holds the weights
    along the first deepest root-to-leaf path, so on the search route
    ``max_depth == len(weight_trace) - 1``."""

    leaves: int = 0
    sat_leaves: int = 0
    collapse_leaves: int = 0
    weight0_leaves: int = 0
    max_depth: int = 0
    branches: int = 0
    weight_trace: tuple[int, ...] = ()
    d: int = 0
    route: str = "search"


def ae_blocks(instance: QbfInstance) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a forall-exists prefix into (universal, existential) variables.
    An outermost existential block whose variables occur in no clause, such as
    the one ``parse_qdimacs`` binds free variables in, is ignored."""
    prefix = instance.prefix
    if len(prefix) > 1 and prefix[0].quantifier == EXISTS:
        occurring = {abs(lit) for clause in instance.matrix.clauses for lit in clause}
        if occurring.isdisjoint(prefix[0].vars):
            prefix = prefix[1:]
    quants = [b.quantifier for b in prefix]
    if quants == []:
        return (), ()
    if quants == [FORALL]:
        return prefix[0].vars, ()
    if quants == [EXISTS]:
        return (), prefix[0].vars
    if quants == [FORALL, EXISTS]:
        return prefix[0].vars, prefix[1].vars
    raise ValueError("prefix must be one universal block followed by one existential block")


def preprocess(instance: QbfInstance) -> QbfInstance | FalseCertificate:
    """Drop tautological clauses; report False if an all-universal clause
    remains (the universal player falsifies it).  Afterwards every clause has
    a non-empty existential core, and the prefix is the one ``ae_blocks``
    reads: an outer block it ignores is dropped, so every route after it sees
    one universal block followed by one existential block."""
    universal, existential = ae_blocks(instance)
    e_set = set(existential)
    kept = []
    for clause in instance.matrix.clauses:
        if is_tautological(clause):
            continue
        if not any(abs(lit) in e_set for lit in clause):
            return FalseCertificate(clause)
        kept.append(clause)
    prefix = normalize_prefix([(FORALL, universal), (EXISTS, existential)])
    return QbfInstance(prefix, CnfMatrix(tuple(kept), instance.matrix.num_vars))


def _summary(parts: tuple[Mask, ...]) -> tuple[int, int]:
    """``(used, heaviest)`` of a group: the union of its parts' variables and
    the size of its largest part."""
    used = heaviest = 0
    for pos, neg in parts:
        used |= pos | neg
        heaviest = max(heaviest, (pos | neg).bit_count())
    return used, heaviest


def partition_groups(
    matrix: CnfMatrix, universal: Sequence[int], existential: Sequence[int]
) -> tuple[Node, int, list[Mask]]:
    """The search root of ``matrix``, in the shape ``restrict_groups`` gives a
    child: the live groups, their weight, and the cores of the forced groups.
    Each clause is encoded once, over the universal bits and then the
    existential bits, each in sorted variable order: its core is the high
    bits shifted down, its universal part the low bits.  Parts are
    deduplicated in first-occurrence order.  A group holding the bare part
    ``(0, 0)``, from a purely existential clause, is forced.  The groups come
    in core order: literals by variable, positive first, compared as tuples."""
    u = len(universal)
    low = (1 << u) - 1
    bit_of = {v: i for i, v in enumerate([*sorted(universal), *sorted(existential)])}
    groups: dict[Mask, dict[Mask, None]] = {}
    for pos, neg in clause_masks(matrix.clauses, bit_of):
        groups.setdefault((pos >> u, neg >> u), {})[pos & low, neg & low] = None

    def core_key(core: Mask) -> list[tuple[int, int]]:
        pos, neg = core
        both = pos | neg
        return [(bit, neg >> bit & 1) for bit in range(both.bit_length()) if both >> bit & 1]

    live, forced, weight = [], [], 0
    for core in sorted(groups, key=core_key):
        if (0, 0) in groups[core]:
            forced.append(core)
            continue
        parts = tuple(groups[core])
        used, heaviest = _summary(parts)
        live.append((core, parts, used, heaviest))
        weight += heaviest
    return live, weight, forced


def restrict_groups(node: Node, bits: int, true_bits: int) -> tuple[Node, int, list[Mask]]:
    """The live groups of the node simplified under the assignment of the
    universal ``bits``, those in ``true_bits`` true and the others false,
    their weight, and the cores of the groups it forced.  No group of
    ``node`` may hold the bare core ``(0, 0)``.  Satisfied parts are dropped,
    falsified literals removed from the others, parts deduplicated in order,
    and a group left without parts dropped.  A group one of whose parts
    becomes the bare core is forced: its core must hold whatever the other
    universals do, so it leaves the node and its other parts, which the core
    subsumes, are not restricted further.  Cores are untouched, so groups keep
    their order.  A group whose ``used`` misses ``bits`` passes through as the
    same entry and adds its stored ``heaviest`` to the weight; a touched group
    gets its summary rebuilt in the pass that restricts it."""
    false_bits = bits & ~true_bits
    keep = ~bits
    live, forced, weight = [], [], 0
    for group in node:
        core, parts, used, heaviest = group
        if not used & bits:
            live.append(group)
            weight += heaviest
            continue
        kept = {}
        used = heaviest = 0
        for pos, neg in parts:
            if pos & true_bits or neg & false_bits:
                continue
            pos &= keep
            neg &= keep
            variables = pos | neg
            if not variables:
                forced.append(core)
                break
            kept[pos, neg] = None
            used |= variables
            size = variables.bit_count()
            if size > heaviest:
                heaviest = size
        else:
            if kept:
                live.append((core, tuple(kept), used, heaviest))
                weight += heaviest
    return live, weight, forced


def threshold(k: int, d: int) -> float:
    """Disjoint-family size threshold 2^d * d * ln(k).  The collapse needs it:
    at this size a union bound over the cores shows that one universal
    assignment falsifies a part in every group."""
    if k < 2:
        raise ValueError("threshold is undefined for k < 2; solve uses the threshold of k = 2")
    if d < 1:
        raise ValueError("arity must be positive")
    return (2**d) * d * math.log(k)


def greedy_disjoint(parts: tuple[Mask, ...], x_threshold: float) -> DisjointFamily | int:
    """Greedily collect pairwise variable-disjoint universal parts in input
    order.  Success means ceil(x_threshold) of them; otherwise the variables
    of the maximal family hit every part and come back as a hitting set: the
    mask of their universal bits."""
    if (0, 0) in parts:
        raise ValueError("greedy search is undefined on groups with an empty universal part")
    need = math.ceil(x_threshold)
    chosen: list[Mask] = []
    used = 0
    for pos, neg in parts:
        variables = pos | neg
        if variables & used:
            continue
        chosen.append((pos, neg))
        used |= variables
        if len(chosen) >= need:
            return DisjointFamily(tuple(chosen))
    return used


def core_projection(matrix: CnfMatrix, existential_vars: frozenset[int]) -> CnfMatrix:
    """Replace every clause by its existential core, keeping one copy of each
    resulting clause (first-occurrence order)."""
    cores = (frozenset(lit for lit in c if abs(lit) in existential_vars) for c in matrix.clauses)
    return CnfMatrix(tuple(dict.fromkeys(cores)), matrix.num_vars)


def sat_check_core(
    cores: Sequence[Mask], sets: dict[Mask, int] | None = None, carried: Carried | None = None
) -> bool:
    """Satisfiability of the ``(pos, neg)``-encoded clauses ``cores``, together
    with the clauses ``carried`` stands for.  Given ``sets``, each core's
    satisfying set from ``oracle.satisfying_sets``, ``carried`` is the AND of
    the other clauses' sets, and the answer is whether the AND of the cores'
    sets with it is nonzero.  Without ``sets``, ``carried`` is a tuple of
    masks, and the oracle's engine decides (backtracking with unit
    propagation) with every variable existential.  An empty clause makes it
    False."""
    if sets is None:
        return _game([*cores, *(carried or ())], 0)
    return sets_intersect([-1 if carried is None else carried, *map(sets.__getitem__, cores)])


class _Search:
    """One solver run: fixed threshold, accumulated stats.  A node holds the
    live groups of the partition.  ``partition_groups`` builds the root,
    encoding each clause once with the existential bits in sorted variable
    order and ordering the groups by core, and hands it over in the shape
    ``restrict_groups`` gives every child.  ``sets`` maps each root core to
    its satisfying set, or is None when the existential bits are too many for
    truth tables.  The cores of the forced groups travel from parent to child
    as ``carried``: the AND of their sets, or above the table cap a tuple of
    their masks.  Each node also gets ``path``, the weights of the nodes
    above it, from the root down."""

    def __init__(self, x_threshold: float, sets: dict[Mask, int] | None):
        self.x_threshold = x_threshold
        self.sets = sets
        self.stats = SolverStats()

    def decide(
        self, node: Node, w: int, forced: list[Mask], carried: Carried, path: tuple[int, ...]
    ) -> bool:
        """The value of ``node``, of weight ``w``, whose restriction forced
        the cores ``forced``; ``carried`` stands for the cores forced above
        and ``path`` holds the weights above, each larger than ``w``.  The
        node is a TRUE leaf if its live and carried cores are jointly
        satisfiable, and otherwise a FALSE leaf unless some group yields a
        hitting set; it branches on the one with the fewest bits, the first
        such in group order."""
        if path and w >= path[-1]:
            raise SolverInvariantError("weight failed to decrease")
        for core in forced:
            carried = carried + (core,) if self.sets is None else carried & self.sets[core]
        path += (w,)
        # Every clause is core or part: a core model satisfies the restricted
        # matrix whatever the universals do.
        if sat_check_core([core for core, _, _, _ in node], self.sets, carried):
            return self._base_case(node, True, path)
        best = None
        for _, parts, _, _ in node:
            hitting = greedy_disjoint(parts, self.x_threshold)
            if isinstance(hitting, DisjointFamily):
                continue
            size = hitting.bit_count()
            if best is None or size < best[0]:
                best = size, hitting, parts
                if size == 1:
                    break
        if best is None:
            return self._base_case(node, False, path)
        _, hitting, parts = best
        for pos, neg in parts:
            if not (pos | neg) & hitting:
                raise SolverInvariantError("hitting set misses a universal part")
        return self._branch(node, hitting, carried, path)

    def _branch(self, node: Node, hitting: int, carried: Carried, path: tuple[int, ...]) -> bool:
        # The assignments to the hitting bits, as submasks of ``hitting`` in
        # increasing order: the lowest bit, the smallest variable, flips first.
        true_bits = 0
        while True:
            self.stats.branches += 1
            if not self.decide(*restrict_groups(node, hitting, true_bits), carried, path):
                return False
            if true_bits == hitting:
                return True
            true_bits = (true_bits - hitting) & hitting

    def _base_case(self, node: Node, result: bool, path: tuple[int, ...]) -> bool:
        """Count a leaf of value ``result`` by its kind, record ``path`` if it
        is the deepest yet, and return ``result``: TRUE where the cores were
        jointly satisfiable, otherwise FALSE, by a collapse of the live groups
        or with none left.  Every inner node has a child, so the deepest node
        is a leaf."""
        self.stats.leaves += 1
        if result:
            self.stats.sat_leaves += 1
        elif node:
            self.stats.collapse_leaves += 1
        else:
            self.stats.weight0_leaves += 1
        if len(path) > len(self.stats.weight_trace):
            self.stats.weight_trace = path
            self.stats.max_depth = len(path) - 1
        return result


def leaf_bound_log2(k: int, d: int, x_threshold: float) -> float:
    """d^2 * X * k^(d-1): the log2 of the bound 2^(d^2 * X * k^(d-1)) on the
    search tree's leaf count."""
    return d * d * x_threshold * k ** (d - 1)


def solve(instance: QbfInstance) -> tuple[bool, SolverStats]:
    """Decide a forall-exists QBF; returns the truth value and run statistics.
    The threshold and the depth and leaf bounds take k as at least 2.  The
    union bound behind the collapse holds at the threshold of k = 2: a node
    with k <= 2 has at most 8 live cores, and a random universal assignment
    leaves each one's disjoint family unfalsified with probability at most
    4^(-d)."""
    prepared = preprocess(instance)  # looked up by name: perfbench/tracer.py labels routes here
    if isinstance(prepared, FalseCertificate):
        return False, SolverStats(leaves=1, route="false_certificate")
    universal, existential = ae_blocks(prepared)
    k = len(existential)
    kk = max(k, 2)
    d = max(prepared.matrix.max_arity(), 1)
    x_threshold = threshold(kk, d)
    live, weight, forced = partition_groups(prepared.matrix, universal, existential)
    # Cores never change below the root, so they are checked and their
    # satisfying sets built once.
    cores = [core for core, _, _, _ in live] + forced
    if (0, 0) in cores:
        raise SolverInvariantError("universal-only clause reached the recursion")
    sets = dict(zip(cores, satisfying_sets(cores, 0, k))) if k <= TABLE_BITS else None
    search = _Search(x_threshold, sets)
    result = search.decide(live, weight, forced, () if sets is None else -1, ())
    stats = search.stats
    stats.d = d
    if stats.max_depth > d * kk ** (d - 1):
        raise SolverInvariantError("recursion exceeded the initial weight bound")
    if math.log2(max(stats.leaves, 1)) > leaf_bound_log2(kk, d, x_threshold) + 1e-9:
        raise SolverInvariantError("leaf count exceeded the recursion-tree bound")
    return result, stats
