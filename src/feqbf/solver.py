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
encodes each clause once into one int through a table from literals to bits.
With u universal and k existential variables, each block in sorted variable
order, the low 2u bits hold the clause's universal part as ``pos | neg << u``
and the bits above them its existential core as ``pos << k | neg``.  The core
puts ``pos`` above ``neg`` so that the order of the core ints is the order of
their ``(pos, neg)`` pairs: the groups come in that order.  Any fixed order is
sound, since it only breaks ties between equally small hitting sets, and this
one depends on neither the order of the clauses nor the order of the
variables inside a block; the parts of a group keep the order of their
clauses.  A part holds no variable in both polarities (``preprocess`` drops
tautologies), so its bit count is its number of variables.  A search node is
a list of ``(core, parts, used, heaviest)`` entries, one per group: the core,
its universal parts as ints, ``used``, the OR of the parts, and
``heaviest``, the size of the largest part.  The root has the shape of a
child: its live groups, their weight and the cores it forced.  Each branch
restricts its parent's node (``restrict_groups``) and weighs the result in
the same pass; a group that shares no variable with the branch's bits
passes through as it is, with its stored summary.

A group one of whose parts is 0, the bare core, is forced: its core must
hold under every universal assignment, and it subsumes the group's
other parts.  Such a group leaves the node, at the root or in the
restriction that empties the part, and weighs nothing; only the live groups
are searched.  The forced cores travel down the search instead.

When the k existential variables number at most ``oracle.TABLE_BITS``, the
table cap, the root replaces each core by its satisfying set, a 2^k-bit int
built from the oracle's per-bit tables, once: below the cap a core is its
table from the root on.  The forced cores then travel as the AND of their
tables, and a node's SAT check ANDs its live cores' tables into it.  Above
the cap the root splits each core into its ``(pos, neg)`` mask, the forced
ones travel as a tuple of them, and a node hands them with its live cores to
the oracle's game as they are.  The type of ``carried``, an int or a tuple,
tells which kind of core a search holds.

Groups whose parts are equal, in the same order, are twins: every
restriction drops or forces them together and leaves their parts equal, and
their greedy hitting sets are equal.  Theorem 2's index gadget makes many, as
it pads the m terms to r^(d-1) indices by repeating the last.  Below the
table cap the root merges twins into the first of them (``merge_twins``),
whose table becomes the AND of theirs; above it twins stay apart.  The
weight counts a merged group once.  The search already branches on the
first of equally small hitting sets and each SAT check tests the same
conjunction, so the merge changes no tree, only its weights.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from itertools import compress, repeat
from typing import Sequence

from .formulas import (
    EXISTS,
    FORALL,
    Clause,
    CnfMatrix,
    QbfInstance,
    apply_assignment_cnf,  # unused here; perfbench/tracer.py wraps solver.apply_assignment_cnf
    bound_prefix,
    normalize_prefix,
)
from .oracle import TABLE_BITS, OracleLimitError, _bit_tables, _game, _satisfying_set, sets_intersect
from .oracle import eval_qbf  # unused here; perfbench/tracer.py wraps solver.eval_qbf

Mask = tuple[int, int]  # (pos, neg), as oracle.clause_masks encodes a clause
# A universal part is one int, pos | neg << u over the u universal bits; a core
# is pos << k | neg over the k existential bits at the root, then its
# satisfying set below the table cap and its (pos, neg) mask above.
Core = int | Mask
# (core, universal parts, OR of the parts, largest part size) per group
Node = list[tuple[Core, tuple[int, ...], int, int]]
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
    """Pairwise variable-disjoint universal parts, each the int
    ``pos | neg << u``."""

    parts: tuple[int, ...]


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
    ``max_depth == len(weight_trace) - 1``.  A group merged with its twins
    at the root weighs once."""

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
    """Split a forall-exists prefix into (universal, existential) variables,
    ignoring an outer block that ``bound_prefix`` drops.  The blocks left
    must be one of the shapes (none), ``a``, ``e`` and ``a e``; an error
    names the shape it found."""
    prefix = bound_prefix(instance)
    quants = " ".join(b.quantifier for b in prefix)
    if quants not in ("", FORALL, EXISTS, f"{FORALL} {EXISTS}"):
        raise ValueError(
            f"prefix must be one universal block followed by one existential block, not {quants}"
        )
    blocks = {b.quantifier: b.vars for b in prefix}
    return blocks.get(FORALL, ()), blocks.get(EXISTS, ())


def preprocess(instance: QbfInstance) -> QbfInstance | FalseCertificate:
    """Drop tautological clauses; report False if an all-universal clause
    remains (the universal player falsifies it).  Afterwards every clause has
    a non-empty existential core, and the prefix is the one ``ae_blocks``
    reads: an outer block it ignores is dropped, so every route after it sees
    one universal block followed by one existential block.  Two passes that
    iterate in C do the work: the first keeps each clause disjoint from its
    own negation, the second names the first kept clause with no existential
    literal as the certificate.  An instance that loses no clause and whose
    prefix ``bound_prefix`` keeps whole comes back as it is, without a second
    run of ``QbfInstance``'s checks: ``ae_blocks`` has checked its shape."""
    universal, existential = ae_blocks(instance)
    clauses = instance.matrix.clauses
    negations = map(map, repeat(operator.neg), clauses)
    kept = list(compress(clauses, map(frozenset.isdisjoint, clauses, negations)))
    e_lits = frozenset([*existential, *map(operator.neg, existential)])
    universal_only = next(compress(kept, map(e_lits.isdisjoint, kept)), None)
    if universal_only is not None:
        return FalseCertificate(universal_only)
    if len(kept) == len(clauses) and bound_prefix(instance) is instance.prefix:
        return instance
    prefix = normalize_prefix([(FORALL, universal), (EXISTS, existential)])
    return QbfInstance(prefix, CnfMatrix(tuple(kept), instance.matrix.num_vars))


def partition_groups(
    matrix: CnfMatrix, universal: Sequence[int], existential: Sequence[int]
) -> tuple[Node, int, list[int]]:
    """The search root of ``matrix``, in the shape ``restrict_groups`` gives a
    child: the live groups, their weight, and the cores of the forced groups.
    Each clause is encoded once into one int, the sum of its literals' bits,
    u universal and k existential variables each taking their bits in sorted
    variable order: its universal part ``pos | neg << u`` in the low 2u bits
    and its core ``pos << k | neg`` above them.  Parts are deduplicated in
    first-occurrence order.  A group holding the bare part 0, from a purely
    existential clause, is forced.  The groups come in the order of their
    core ints, that is, of their ``(pos, neg)`` core masks, which no clause
    order changes.  A tautological part, which ``preprocess`` drops, raises
    ``SolverInvariantError``: its bit count is not its size."""
    u, k = len(universal), len(existential)
    shift = 2 * u
    bit = {}
    for i, v in enumerate(sorted(universal)):
        bit[v], bit[-v] = 1 << i, 1 << (u + i)
    for j, v in enumerate(sorted(existential)):
        bit[v], bit[-v] = 1 << (shift + k + j), 1 << (shift + j)
    low = (1 << shift) - 1
    groups: dict[int, dict[int, None]] = {}
    for clause in map(sum, map(map, repeat(bit.__getitem__), matrix.clauses)):
        groups.setdefault(clause >> shift, {})[clause & low] = None

    live, forced, weight = [], [], 0
    for core in sorted(groups):
        parts = groups[core]
        if 0 in parts:
            forced.append(core)
            continue
        used = heaviest = 0
        for part in parts:
            if part & part >> u:
                raise SolverInvariantError("tautological universal part reached the search")
            used |= part
            size = part.bit_count()
            if size > heaviest:
                heaviest = size
        live.append((core, tuple(parts), used, heaviest))
        weight += heaviest
    return live, weight, forced


def restrict_groups(
    node: Node, bits: int, true_bits: int, u: int
) -> tuple[Node, int, list[Core]]:
    """The live groups of the node simplified under the assignment of the
    universal ``bits``, those in ``true_bits`` true and the others false,
    their weight, and the cores of the groups it forced.  The parts are ints
    ``pos | neg << u`` over the ``u`` universal bits, and no group of
    ``node`` may hold the bare part 0.  Satisfied parts are dropped,
    falsified literals removed from the others, parts deduplicated in order,
    and a group left without parts dropped.  A group one of whose parts
    becomes the bare part is forced: its core must hold whatever the other
    universals do, so it leaves the node and its other parts, which the core
    subsumes, are not restricted further.  Cores are untouched, so groups keep
    their order.  A group whose ``used`` misses ``bits`` in both polarities
    passes through as the same entry and adds its stored ``heaviest`` to the
    weight; a touched group gets its summary rebuilt in the pass that
    restricts it."""
    touched = bits | bits << u
    satisfied = true_bits | (bits & ~true_bits) << u
    keep = ~touched
    live, forced, weight = [], [], 0
    for group in node:
        core, parts, used, heaviest = group
        if not used & touched:
            live.append(group)
            weight += heaviest
            continue
        kept = {}
        used = heaviest = 0
        for part in parts:
            if part & satisfied:
                continue
            part &= keep
            if not part:
                forced.append(core)
                break
            kept[part] = None
            used |= part
            size = part.bit_count()
            if size > heaviest:
                heaviest = size
        else:
            if kept:
                live.append((core, tuple(kept), used, heaviest))
                weight += heaviest
    return live, weight, forced


def _as_float(value: int) -> float:
    """``value`` as a float, ``math.inf`` past the float range, so that no
    bound of a wide clause overflows."""
    return math.inf if value > sys.float_info.max else float(value)


def threshold(k: int, d: int) -> float:
    """Disjoint-family size threshold 2^d * d * ln(k).  The collapse needs it:
    at this size a union bound over the cores shows that one universal
    assignment falsifies a part in every group."""
    if k < 2:
        raise ValueError("threshold is undefined for k < 2; solve uses the threshold of k = 2")
    if d < 1:
        raise ValueError("arity must be positive")
    return _as_float(2**d) * d * math.log(k)


def greedy_disjoint(parts: tuple[int, ...], x_threshold: float, u: int) -> DisjointFamily | int:
    """Greedily collect pairwise variable-disjoint universal parts, the ints
    ``pos | neg << u``, in input order.  Success means at least x_threshold
    of them; otherwise the variables of the maximal family hit every part and
    come back as a hitting set: the mask of their universal bits."""
    if 0 in parts:
        raise ValueError("greedy search is undefined on groups with an empty universal part")
    chosen: list[int] = []
    used = 0
    for part in parts:
        # The low u bits hold the part's variables; the bits above, its
        # negative literals, meet ``used`` only where the low bits do.
        variables = part | part >> u
        if variables & used:
            continue
        chosen.append(part)
        used |= variables
        if len(chosen) >= x_threshold:
            return DisjointFamily(tuple(chosen))
    return used & ((1 << u) - 1)


def core_projection(matrix: CnfMatrix, existential_vars: frozenset[int]) -> CnfMatrix:
    """Replace every clause by its existential core, keeping one copy of each
    resulting clause (first-occurrence order)."""
    cores = (frozenset(lit for lit in c if abs(lit) in existential_vars) for c in matrix.clauses)
    return CnfMatrix(tuple(dict.fromkeys(cores)), matrix.num_vars)


def sat_check_core(cores: Sequence[Core], carried: Carried | None = None) -> bool:
    """Satisfiability of the clauses ``cores``, together with the clauses
    ``carried`` stands for.  When ``carried`` is an int, each core is a
    satisfying set from ``oracle.satisfying_sets`` and ``carried`` the AND of
    the other clauses' sets, and the answer is whether the AND of all of them
    is nonzero.  Otherwise the cores are ``(pos, neg)`` masks, ``carried`` is
    None or a tuple of masks, and the oracle's engine decides (backtracking
    with unit propagation) with every variable existential; it recurses once
    per branching variable, and a check that branches deeper than Python's
    recursion limit raises ``OracleLimitError``.  An empty clause makes it
    False."""
    if isinstance(carried, int):
        return sets_intersect([carried, *cores])
    try:
        return _game([*cores, *(carried or ())], 0)
    except RecursionError:
        raise OracleLimitError(
            "the core SAT check branches deeper than Python's recursion limit "
            f"({sys.getrecursionlimit()})"
        ) from None


def merge_twins(node: Node, tables: list[int], w: int) -> tuple[Node, int]:
    """``node`` with each core replaced by its satisfying set in ``tables``
    and every live group merged into the first group whose parts equal its
    own, in the same order, and the weight of the result, which counts a
    merged group once.  The first twin's table becomes the AND of theirs, so
    its core stands for the conjunction of theirs."""
    first: dict[tuple[int, ...], int] = {}
    merged: Node = []
    for table, (_, parts, used, heaviest) in zip(tables, node):
        i = first.setdefault(parts, len(merged))
        if i < len(merged):
            merged[i] = (merged[i][0] & table, parts, used, heaviest)
            w -= heaviest
        else:
            merged.append((table, parts, used, heaviest))
    return merged, w


class _Search:
    """One solver run: fixed threshold, accumulated stats.  A node holds the
    live groups of the partition.  ``partition_groups`` builds the root,
    encoding each clause once into one int and ordering the groups by core,
    and hands it over in the shape ``restrict_groups`` gives every child;
    ``solve`` has replaced its cores by their satisfying sets below the table
    cap and by their ``(pos, neg)`` masks above it.  The parts are ints over
    the ``u`` universal bits.  The cores of the forced groups travel from
    parent to child as ``carried``: the AND of their sets, or above the table
    cap a tuple of their masks.  Each node also gets ``path``, the weights of
    the nodes above it, from the root down."""

    def __init__(self, x_threshold: float, u: int):
        self.x_threshold = x_threshold
        self.u = u
        self.stats = SolverStats()

    def decide(
        self, node: Node, w: int, forced: list[Core], carried: Carried, path: tuple[int, ...]
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
            carried = carried & core if isinstance(carried, int) else carried + (core,)
        path += (w,)
        # Every clause is core or part: a core model satisfies the restricted
        # matrix whatever the universals do.
        if sat_check_core([core for core, _, _, _ in node], carried):
            return self._base_case(node, True, path)
        best = None
        for _, parts, _, _ in node:
            hitting = greedy_disjoint(parts, self.x_threshold, self.u)
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
        touched = hitting | hitting << self.u
        for part in parts:
            if not part & touched:
                raise SolverInvariantError("hitting set misses a universal part")
        return self._branch(node, hitting, carried, path)

    def _branch(self, node: Node, hitting: int, carried: Carried, path: tuple[int, ...]) -> bool:
        # The assignments to the hitting bits, as submasks of ``hitting`` in
        # increasing order: the lowest bit, the smallest variable, flips first.
        true_bits = 0
        while True:
            self.stats.branches += 1
            if not self.decide(*restrict_groups(node, hitting, true_bits, self.u), carried, path):
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
    return d * d * x_threshold * _as_float(k ** (d - 1))


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
    # Cores never change below the root, so they are checked and replaced
    # once: by their satisfying sets below the table cap, by their masks above.
    cores = forced + [core for core, _, _, _ in live]
    if 0 in cores:
        raise SolverInvariantError("universal-only clause reached the recursion")
    low = (1 << k) - 1
    if k <= TABLE_BITS:
        bit_tables = _bit_tables(k)
        tables = [_satisfying_set(core >> k, core & low, bit_tables) for core in cores]
        live, weight = merge_twins(live, tables[len(forced) :], weight)
        forced, carried = tables[: len(forced)], -1
    else:
        masks = [(core >> k, core & low) for core in cores]
        live = [(mask, *group[1:]) for mask, group in zip(masks[len(forced) :], live)]
        forced, carried = masks[: len(forced)], ()
    search = _Search(x_threshold, len(universal))
    result = search.decide(live, weight, forced, carried, ())
    stats = search.stats
    stats.d = d
    if stats.max_depth > d * kk ** (d - 1):
        raise SolverInvariantError("recursion exceeded the initial weight bound")
    if math.log2(max(stats.leaves, 1)) > leaf_bound_log2(kk, d, x_threshold) + 1e-9:
        raise SolverInvariantError("leaf count exceeded the recursion-tree bound")
    return result, stats
