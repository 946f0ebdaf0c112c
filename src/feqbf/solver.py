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
clauses.  The root drops every tautology, a clause whose part or core holds a
variable in both polarities, so a part's bit count is its number of
variables, and the largest bit count of a clause left is d.  A search node is
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

The root replaces each core by its value from ``oracle.clause_values``,
once, and a core is that value from then on.  When the k existential
variables number at most ``oracle.TABLE_BITS``, the table cap, the value is
the core's satisfying set, a 2^k-bit int; above the cap it is ``~(1 << i)``
for the i-th core, and the oracle's ``decide`` plays the game once per
distinct set of cores it is asked about.  Either way the forced cores travel
down the search as the AND of their values, and a node's SAT check ANDs its
live cores' values into it.  Below the cap the cores are satisfiable
together iff that AND is nonzero; above it the complement of the AND is the
set of cores that ``decide`` checks.

Groups whose parts are equal, in the same order, are twins: every
restriction drops or forces them together and leaves their parts equal, and
their greedy hitting sets are equal.  Theorem 2's index gadget makes many, as
it pads the m terms to r^(d-1) indices by repeating the last.  The root
merges twins into the first of them (``merge_twins``), whose value becomes
the AND of theirs, on both sides of the table cap.  The weight counts a
merged group once.  The search already branches on the first of equally
small hitting sets and each SAT check tests the same conjunction, so the
merge changes no tree, only its weights.
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
from .oracle import OracleLimitError, clause_values
from .oracle import eval_qbf  # unused here; perfbench/tracer.py wraps solver.eval_qbf

# A universal part is one int, pos | neg << u over the u universal bits; a core
# is pos << k | neg over the k existential bits at the root, then its value
# from oracle.clause_values.
# (core, universal parts, OR of the parts, largest part size) per group
Node = list[tuple[int, tuple[int, ...], int, int]]


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
    ``false_certificate`` or ``search``.  ``d`` is the arity of the clauses
    the search root keeps, every tautology dropped (at least 1), or 0 when a
    false certificate decided the run.  The search leaves come in three
    kinds, which sum to ``leaves``: ``sat_leaves`` are TRUE, their cores
    jointly satisfiable; ``collapse_leaves`` are FALSE with live groups
    left, each of which holds a large disjoint family; ``weight0_leaves``
    are FALSE with no live group, every group left forced to its core.  A
    false certificate counts one leaf of no kind.  The root is at depth 0:
    ``max_depth`` is the depth of the deepest node, and ``weight_trace`` holds the weights
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
    """Report False if a clause is all-universal and not a tautology: the
    universal player falsifies it.  The certificate is the first such clause
    in clause order, found by one pass that iterates in C over the clauses
    with no existential literal, and a tautology test on those alone.  The
    matrix is kept as it is, tautologies included (``partition_groups`` drops
    them), and the prefix becomes the one ``ae_blocks`` reads: an outer block
    it ignores is dropped, so every route after it sees one universal block
    followed by one existential block.  An instance whose prefix
    ``bound_prefix`` keeps whole comes back as it is, without a second run of
    ``QbfInstance``'s checks: ``ae_blocks`` has checked its shape."""
    universal, existential = ae_blocks(instance)
    clauses = instance.matrix.clauses
    e_lits = frozenset([*existential, *map(operator.neg, existential)])
    for clause in compress(clauses, map(e_lits.isdisjoint, clauses)):
        if clause.isdisjoint(map(operator.neg, clause)):
            return FalseCertificate(clause)
    if bound_prefix(instance) is instance.prefix:
        return instance
    prefix = normalize_prefix([(FORALL, universal), (EXISTS, existential)])
    return QbfInstance(prefix, instance.matrix)


def partition_groups(
    matrix: CnfMatrix, universal: Sequence[int], existential: Sequence[int]
) -> tuple[Node, int, list[int], int]:
    """The search root of ``matrix``, in the shape ``restrict_groups`` gives a
    child: the live groups, their weight, and the cores of the forced groups;
    and d, the arity of the clauses it keeps (at least 1).  Each clause is
    encoded once into one int, the sum of its literals' bits, u universal and
    k existential variables each taking their bits in sorted variable order:
    its universal part ``pos | neg << u`` in the low 2u bits and its core
    ``pos << k | neg`` above them.  A tautology, whose part or core holds a
    variable in both polarities (``part & part >> u`` or ``core & core >>
    k``), is dropped, so a kept part's bit count is its size.  d is the
    largest bit count of a kept clause, the forced groups' included.  Parts
    are deduplicated in first-occurrence order.  A group holding the bare
    part 0, from a purely existential clause, is forced.  The groups come in
    the order of their core ints, that is, of their ``(pos, neg)`` core
    masks, which no clause order changes."""
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

    live, forced, weight, d = [], [], 0, 1
    for core in sorted(groups):
        if core & core >> k:
            continue  # every clause of the group is a tautology
        parts = groups[core]
        used = heaviest = 0
        tautologies = False
        for part in parts:
            if part & part >> u:
                tautologies = True
                continue
            used |= part
            size = part.bit_count()
            if size > heaviest:
                heaviest = size
        if tautologies:
            parts = [part for part in parts if not part & part >> u]
            if not parts:
                continue
        size = core.bit_count() + heaviest
        if size > d:
            d = size
        if 0 in parts:
            forced.append(core)
            continue
        live.append((core, tuple(parts), used, heaviest))
        weight += heaviest
    return live, weight, forced, d


def restrict_groups(
    node: Node, bits: int, true_bits: int, u: int
) -> tuple[Node, int, list[int]]:
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


def sat_check_core(cores: Sequence[int], carried: int = -1, decide=None) -> bool:
    """Satisfiability of the clauses ``cores``, together with the clauses
    ``carried`` stands for: each core is its value from
    ``oracle.clause_values`` and ``carried`` the AND of the others' values.
    They are satisfiable iff the AND of all of them is nonzero and, with
    ``decide``, ``decide`` holds on its complement, the set of their ids.
    ``decide`` plays the oracle's game (backtracking with unit propagation
    and pure literals) with every variable existential; it recurses once per
    branching variable, and a check that branches deeper than Python's
    recursion limit raises ``OracleLimitError``.  An empty clause makes it
    False."""
    for core in cores:
        carried &= core
    if decide is None or not carried:
        return carried != 0
    try:
        return decide(~carried)
    except RecursionError:
        raise OracleLimitError(
            "the core SAT check branches deeper than Python's recursion limit "
            f"({sys.getrecursionlimit()})"
        ) from None


def merge_twins(node: Node, values: list[int], w: int) -> tuple[Node, int]:
    """``node`` with each core replaced by its value in ``values`` and every
    live group merged into the first group whose parts equal its own, in the
    same order, and the weight of the result, which counts a merged group
    once.  The first twin's value becomes the AND of theirs, so its core
    stands for the conjunction of theirs."""
    first: dict[tuple[int, ...], int] = {}
    merged: Node = []
    for value, (_, parts, used, heaviest) in zip(values, node):
        i = first.setdefault(parts, len(merged))
        if i < len(merged):
            merged[i] = (merged[i][0] & value, parts, used, heaviest)
            w -= heaviest
        else:
            merged.append((value, parts, used, heaviest))
    return merged, w


class _Search:
    """One solver run: fixed threshold, accumulated stats.  A node holds the
    live groups of the partition.  ``partition_groups`` builds the root,
    encoding each clause once into one int and ordering the groups by core,
    and hands it over in the shape ``restrict_groups`` gives every child;
    ``solve`` has replaced its cores by their values from
    ``oracle.clause_values``, whose ``decide`` is ``game``.  The parts are
    ints over the ``u`` universal bits.  The cores of the forced groups
    travel from parent to child as ``carried``, the AND of their values.
    Each node also gets ``path``, the weights of the nodes above it, from the
    root down."""

    def __init__(self, x_threshold: float, u: int, game):
        self.x_threshold = x_threshold
        self.u = u
        self.game = game
        self.stats = SolverStats()

    def decide(
        self, node: Node, w: int, forced: list[int], carried: int, path: tuple[int, ...]
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
            carried &= core
        path += (w,)
        # Every clause is core or part: a core model satisfies the restricted
        # matrix whatever the universals do.
        if sat_check_core([core for core, _, _, _ in node], carried, self.game):
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

    def _branch(self, node: Node, hitting: int, carried: int, path: tuple[int, ...]) -> bool:
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
    live, weight, forced, d = partition_groups(prepared.matrix, universal, existential)
    x_threshold = threshold(kk, d)
    # Cores never change below the root, so they are checked and replaced by
    # their values once.
    cores = forced + [core for core, _, _, _ in live]
    if 0 in cores:
        raise SolverInvariantError("universal-only clause reached the recursion")
    low = (1 << k) - 1
    values, game = clause_values([(core >> k, core & low) for core in cores], 0, 0, k)
    live, weight = merge_twins(live, values[len(forced) :], weight)
    search = _Search(x_threshold, len(universal), game)
    result = search.decide(live, weight, values[: len(forced)], -1, ())
    stats = search.stats
    stats.d = d
    if stats.max_depth > d * kk ** (d - 1):
        raise SolverInvariantError("recursion exceeded the initial weight bound")
    if math.log2(max(stats.leaves, 1)) > leaf_bound_log2(kk, d, x_threshold) + 1e-9:
        raise SolverInvariantError("leaf count exceeded the recursion-tree bound")
    return result, stats
