"""Ground-truth evaluation of QBF and DNF validity.

Clauses and terms are encoded as ``(pos, neg)`` bitmasks by ``clause_masks``.
The solver's search root encodes each clause into one int instead, universal
part and core side by side (``solver.partition_groups``), and builds its
cores' truth tables from ``_bit_tables`` below the table cap; above the cap
it splits each core into the mask ``_game`` reads.  ``eval_qbf`` and
``check_equivalence`` encode a matrix once and play the QBF game on it
(``_game``): backtracking with unit propagation (Davis, Logemann and
Loveland, 1962).  A clause reduced to one existential literal forces it; one
reduced to a universal literal is False, as the universal player falsifies
it.

A purely existential clause set over at most ``TABLE_BITS`` bits is decided
from truth tables instead: ``satisfying_sets`` maps each clause to the
2^width-bit int of the assignments that satisfy it, and the set is
satisfiable iff the AND of those ints is nonzero (``sets_intersect``).  The
solver's core SAT check and ``check_equivalence`` use them below the cap and
the game above it.

``check_equivalence`` splits each clause into its part over the source
variables, an outermost stretch of the prefix, and its residual over the
rest.  One walk over the source bits, highest first, builds phi's truth table
over all source assignments as one int: a node stands for the block of
assignments that agree on the bits assigned so far, and carries the AND of
the residual truth tables of the clauses whose source part the block
falsifies, so a block whose AND is 0 is False as a whole, a block whose AND
meets that of every clause still to be tested is True as a whole, and a
block below every source part is decided at once.  The walk stops at a
cut, a level that no source part spans, at most halfway down where one is
free and its rows fit ``_ROW_BITS``: the parts below it are combined once
per low assignment, and a node at the cut emits its rows from those
products.  The residual bits above those of every clause with a source
literal, which only source-free clauses use, are projected out of the
tables first, so a table ends at the highest bit the source parts' residuals
use.
When the residuals need the game, a part carries instead the complement of
the set of its residuals' ids, or 0 if one of them is the empty clause, so
the same AND is the complement of the residuals a block leaves, and the walk
plays one game per distinct set of them.
psi's table is built without a walk, by whole-table operations on per-bit
tables (``falsifying_table``), and the mismatches are the XOR of the two.
DNF validity is decided by the game instead: a DNF is valid iff the CNF of
its negated terms is unsatisfiable, and the game prunes where a table would
not.  The tests check all of them against the unpruned evaluators in
``tests/oracle_helpers.py``.  A configurable variable bound refuses inputs
with more variables to branch on than it allows: the game's time and its
recursion depth grow with them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .formulas import (
    EXISTS,
    FORALL,
    CnfMatrix,
    DnfFormula,
    QbfInstance,
    apply_assignment_cnf,  # unused here; perfbench/tracer.py wraps oracle.apply_assignment_cnf
    bound_prefix,
)

DEFAULT_VARIABLE_BOUND = 24
# The widest pure-existential clause set decided from truth tables: one set
# over 16 bits is a 2^16-bit int, 8 KB.  Wider sets go to the game.
TABLE_BITS = 16
# The mismatching assignments an EquivalenceReport lists; it counts them all.
MAX_MISMATCHES = 32
# The low bits over which falsifying_table builds one chunk of its table: a
# 2^16-bit chunk is 8 KB.  Fixed apart from TABLE_BITS, which only gates the
# choice between tables and the game.
_CHUNK_BITS = 16
# The most bits that check_equivalence's walk holds in the tables of its rows
# below the cut, one table per row: 2^22 bits, 512 KB.
_ROW_BITS = 1 << 22


class OracleLimitError(ValueError):
    """Raised when an input exceeds the configured brute-force bound."""


def clause_masks(clauses, bit_of: dict[int, int]) -> list[tuple[int, int]]:
    """Encode each clause or term as ``(pos, neg)``: bit ``bit_of[v]`` of
    ``pos`` is set for a literal v, of ``neg`` for a literal -v."""
    masks = []
    for clause in clauses:
        pos = neg = 0
        for lit in clause:
            if lit > 0:
                pos |= 1 << bit_of[lit]
            else:
                neg |= 1 << bit_of[-lit]
        masks.append((pos, neg))
    return masks


def eval_qbf(instance: QbfInstance, *, var_bound: int = DEFAULT_VARIABLE_BOUND) -> bool:
    """Evaluate a prenex QBF by game-tree search with unit propagation.
    Universal variables take the AND of both branches, existential ones the OR.
    Only the variables that occur in some clause count against ``var_bound``."""
    return _game(*_encode(instance.prefix, instance.matrix, 0, var_bound))


def _encode(prefix, matrix: CnfMatrix, n: int, var_bound: int) -> tuple[list, int]:
    """``matrix`` as masks for the game under ``prefix``, a tuple of
    quantifier blocks, and its universal bits.  The first ``n`` prefix
    variables take bits 0..n-1, whether or not they occur in a clause; every
    later variable in ``matrix.variables`` follows in prefix order.  Only
    those later ones count against ``var_bound``; the game never branches on
    a variable that occurs in no clause."""
    order = [(v, b.quantifier) for b in prefix for v in b.vars]
    rest = [(v, q) for v, q in order[n:] if v in matrix.variables]
    if len(rest) > var_bound:
        raise OracleLimitError(
            f"{len(rest)} quantified variables remain in the game; bound is {var_bound}"
        )
    order = order[:n] + rest
    universal = sum(1 << i for i, (_, q) in enumerate(order) if q == FORALL)
    return clause_masks(matrix.clauses, {v: i for i, (v, _) in enumerate(order)}), universal


def _game(clauses: list[tuple[int, int]], universal: int, index: int = 0) -> bool:
    """Play the QBF game on mask-encoded clauses from bit ``index`` onwards;
    the bits set in ``universal`` are universal, the others existential.  An
    empty clause makes the result False.

    Unit clauses are propagated first.  A unit's value is forced in the whole
    subtree whatever its depth in the prefix: the existential player must make
    it true, and the universal player makes it false and wins.  A tautology
    over one variable, x | -x, is not a unit; branching on x drops it."""
    while True:
        if not clauses:
            return True
        occupied = true_units = false_units = 0
        for pos, neg in clauses:
            lits = pos | neg
            occupied |= lits
            if not lits & (lits - 1) and not pos & neg:
                true_units |= pos
                false_units |= neg
        units = true_units | false_units
        if not units:
            break
        if units & universal:
            return False
        # Units x and -x together leave an emptied clause, hence None.
        clauses = _assign_bits(clauses, units, true_units)
        if clauses is None:
            return False
    if not occupied:
        return False  # every clause left is empty
    while not (occupied >> index) & 1:
        index += 1  # variable absent from the matrix: both branches coincide
    bit = 1 << index
    first = _assign_bits(clauses, bit, 0)
    if universal & bit:
        if first is None or not _game(first, universal, index + 1):
            return False
        second = _assign_bits(clauses, bit, bit)
        return second is not None and _game(second, universal, index + 1)
    if first is not None and _game(first, universal, index + 1):
        return True
    second = _assign_bits(clauses, bit, bit)
    return second is not None and _game(second, universal, index + 1)


def _assign_bits(clauses, bits: int, true_bits: int):
    """Simplify mask-encoded clauses under the assignment of ``bits``, those in
    ``true_bits`` true and the others false; None signals an emptied clause."""
    false_bits = bits & ~true_bits
    keep = ~bits
    result = []
    for pos, neg in clauses:
        if pos & true_bits or neg & false_bits:
            continue
        pos &= keep
        neg &= keep
        if not pos and not neg:
            return None
        result.append((pos, neg))
    return result


def satisfying_sets(masks, shift: int, width: int) -> list[int]:
    """The satisfying set of each ``(pos, neg)``-encoded clause over bits
    ``shift .. shift + width - 1``, as a 2^width-bit int: bit tau is set iff
    the assignment tau (bit i of tau holds bit ``shift + i``) satisfies the
    clause.  The empty clause maps to 0, and clauses are satisfiable together
    iff the AND of their sets is nonzero (``sets_intersect``).  Clauses must
    have no bits above the window."""
    if width > TABLE_BITS:
        raise ValueError(f"a truth table over {width} bits exceeds TABLE_BITS = {TABLE_BITS}")
    tables = _bit_tables(width)
    return [_satisfying_set(pos >> shift, neg >> shift, tables) for pos, neg in masks]


def _satisfying_set(pos: int, neg: int, tables) -> int:
    """The OR of the per-bit tables ``tables = (true_of, false_of)`` of the
    literals of a ``(pos, neg)``-encoded clause: its satisfying set."""
    true_of, false_of = tables
    satisfied = 0
    while pos:
        low = pos & -pos
        satisfied |= true_of[low.bit_length() - 1]
        pos ^= low
    while neg:
        low = neg & -neg
        satisfied |= false_of[low.bit_length() - 1]
        neg ^= low
    return satisfied


@functools.cache
def _bit_tables(width: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(true_of, false_of)`` over 2^width-bit tables: bit tau of
    ``true_of[i]`` is bit i of tau, and ``false_of[i]`` is its complement.
    Kept per width; width 16 holds 32 tables of 8 KB."""
    full = (1 << (1 << width)) - 1
    size = 1 << max(width - 3, 0)  # bytes per table
    true_of = []
    for i in range(width):
        # For i < 3 the pattern repeats within each byte; above, it
        # alternates runs of 2^(i-3) zero bytes and 2^(i-3) 0xff bytes.
        if i < 3:
            pattern = bytes((0xAA, 0xCC, 0xF0)[i : i + 1]) * size
        else:
            half = 1 << (i - 3)
            pattern = (bytes(half) + b"\xff" * half) * (size // (2 * half))
        true_of.append(int.from_bytes(pattern, "little") & full)
    return tuple(true_of), tuple(full ^ table for table in true_of)


def sets_intersect(sets) -> bool:
    """True iff some assignment lies in every one of the satisfying sets
    ``sets``: their AND is nonzero.  With no sets it is True."""
    common = -1  # every bit set
    for satisfied in sets:
        common &= satisfied
        if not common:
            return False
    return True


def is_dnf_valid(formula: DnfFormula, *, var_bound: int = DEFAULT_VARIABLE_BOUND) -> bool:
    """True iff every total assignment satisfies some term: iff the CNF of
    the negated terms is unsatisfiable, which the game decides with every
    variable existential.  An empty term negates to the empty clause, and
    a contradictory term x & -x to a tautology.  Only the variables that
    occur in some term count against ``var_bound``: a declared variable
    that none holds changes no term's value."""
    variables = sorted(formula.variables)
    if len(variables) > var_bound:
        raise OracleLimitError(
            f"{len(variables)} occurring variables exceed the brute-force bound {var_bound}"
        )
    masks = clause_masks(formula.terms, {var: i for i, var in enumerate(variables)})
    return not _game([(neg, pos) for pos, neg in masks], 0)


def falsifying_table(terms, variables) -> int:
    """A 2^n-bit int, n = len(variables), whose bit a is set iff no term
    holds under the assignment a, bit i of a holding ``variables[i]``.

    No term holds exactly where each term's negation, a clause, is
    satisfied, so the result is the AND of those clauses' satisfying sets
    (``_satisfying_set``).  Above ``_CHUNK_BITS`` variables the table is
    built in chunks over the low ``_CHUNK_BITS`` bits, one per assignment to
    the high bits: a clause's set over the low bits is built once and ANDed
    into each chunk whose high assignment falsifies the clause's high
    literals.  The chunks are joined as bytes, so no int wider than a chunk
    is built before the join."""
    n = len(variables)
    width = min(n, _CHUNK_BITS)
    tables = _bit_tables(width)
    low = (1 << width) - 1
    chunks = [(1 << (1 << width)) - 1] * (1 << (n - width))
    for pos, neg in clause_masks(terms, {var: i for i, var in enumerate(variables)}):
        satisfied = _satisfying_set(neg & low, pos & low, tables)
        high_pos, high_neg = pos >> width, neg >> width
        for high, chunk in enumerate(chunks):
            if not (high_pos & ~high or high_neg & high):
                chunks[high] = chunk & satisfied
    if len(chunks) == 1:
        return chunks[0]
    size = 1 << (width - 3)  # bytes per chunk
    return int.from_bytes(b"".join(chunk.to_bytes(size, "little") for chunk in chunks), "little")


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of a per-assignment comparison between a DNF and a QBF.

    ``mismatches`` is truncated to ``MAX_MISMATCHES`` entries; ``mismatch_count``
    is the untruncated total.  Assignments are reported over the source DNF's
    variables and sorted by their integer encoding (bit i-1 holds x_i).
    """

    total_assignments: int
    mismatch_count: int
    mismatches: tuple[dict[int, bool], ...]
    passed: bool

    def mismatch_encodings(self) -> tuple[int, ...]:
        return tuple(
            sum(1 << (var - 1) for var, value in sigma.items() if value)
            for sigma in self.mismatches
        )

    def summary(self) -> str:
        verdict = "PASSED" if self.passed else "FAILED"
        lines = [
            f"equivalence {verdict}: {self.total_assignments} assignments checked, "
            f"{self.mismatch_count} mismatches"
        ]
        for sigma, enc in zip(self.mismatches, self.mismatch_encodings()):
            bits = " ".join(f"x{var}={int(value)}" for var, value in sorted(sigma.items()))
            lines.append(f"  mismatch at encoding {enc}: {bits}")
        if self.mismatch_count > len(self.mismatches):
            lines.append(f"  ... {self.mismatch_count - len(self.mismatches)} more not shown")
        return "\n".join(lines)


def check_equivalence(
    psi: DnfFormula,
    phi: QbfInstance,
    mode: str = "general",
    *,
    var_bound: int = DEFAULT_VARIABLE_BOUND,
) -> EquivalenceReport:
    """Compare psi(sigma) with phi(sigma) for every assignment to psi's variables.

    psi's variable i corresponds to the i-th variable of phi's outermost
    universal block.  An outer block that ``bound_prefix`` drops is ignored,
    as ``solve`` ignores it.  The variables of one block commute, so
    reordering that block maps them differently.  In ``forall_exists`` mode
    the remainder of the prefix must be exactly one existential block;
    ``general`` mode allows any suffix.

    Both sides are 2^n-bit truth tables, bit sigma holding the value at
    sigma, built rather than evaluated sigma by sigma; the mismatches are
    the set bits of their XOR.  psi's side is the complement of
    ``falsifying_table``.  phi's side is one walk over blocks of source
    assignments (``_walk``) down to a level that no clause's source
    literals straddle, which carries the AND of the residual truth tables
    of the clauses a block leaves unsatisfied, or, when the residual
    clauses need the game, plays one game per distinct set of them
    (``_phi_table``).  The residual variables after all those of the clauses
    with a source literal are projected out of those tables.  ``var_bound``
    limits the source variables and, separately, the non-source variables
    that occur in some clause.
    """
    if mode not in ("general", "forall_exists"):
        raise ValueError(f"unknown mode {mode!r}")
    prefix = bound_prefix(phi)
    n = psi.num_vars
    if n > var_bound:
        raise OracleLimitError(f"{n} source variables exceed the brute-force bound {var_bound}")
    if n:
        if not prefix or prefix[0].quantifier != FORALL:
            raise ValueError(
                "variable mapping incomplete: the QBF's outermost block must be universal"
            )
        outer = len(prefix[0].vars)
        if outer < n:
            raise ValueError(
                f"variable mapping incomplete: outermost block binds {outer} "
                f"variables but the DNF has {n}"
            )
    if mode == "forall_exists":
        # Without source variables there is no universal x: all of the prefix is suffix.
        suffix = [b.quantifier for b in (prefix[1:] if n else prefix)]
        if (n and len(prefix[0].vars) != n) or suffix not in ([], [EXISTS]):
            raise ValueError("forall_exists mode requires prefix shape: universal x, one existential block")
    masks, universal = _encode(prefix, phi.matrix, n, var_bound)
    not_psi = falsifying_table(psi.terms, range(1, n + 1))
    diff = _phi_table(masks, universal, n) ^ not_psi ^ ((1 << (1 << n)) - 1)
    mismatch_count = diff.bit_count()
    mismatched: list[dict[int, bool]] = []
    while diff and len(mismatched) < MAX_MISMATCHES:
        low = diff & -diff
        encoding = low.bit_length() - 1
        mismatched.append({i + 1: bool(encoding >> i & 1) for i in range(n)})
        diff ^= low
    return EquivalenceReport(
        total_assignments=1 << n,
        mismatch_count=mismatch_count,
        mismatches=tuple(mismatched),
        passed=mismatch_count == 0,
    )


def _phi_table(masks, universal: int, n: int) -> int:
    """The game's value after fixing bits ``0..n-1`` to each encoding sigma,
    as a 2^n-bit int whose bit sigma is set iff the game is won.

    Each clause splits into its source part, over bits ``0..n-1``, and its
    residual over the rest.  sigma leaves exactly the residuals of the
    clauses whose source part it falsifies.  When no residual bit is
    universal and the residuals span at most ``TABLE_BITS`` bits, a source
    part carries the AND of its residuals' satisfying sets, and sigma wins
    iff the AND over the parts it falsifies is nonzero; the residual
    ``(0, 0)`` of a clause with only source literals has the set 0.
    Otherwise a part carries 0 if one of its residuals is ``(0, 0)`` and
    ``~ids`` if not, ``ids`` being the bit set of its residuals' ids, so the
    AND over the parts sigma falsifies is the complement of the residuals
    sigma leaves, and one game is played per distinct set of residuals left
    that no part has emptied.

    On the table path, the residual bits above every bit of the clauses
    with a source literal, which only the residuals of the source-free part
    ``(0, 0)`` use, are projected out: the tables are built over the whole
    window, and every part keeps the low 2^w-bit chunk of its AND, w being
    the number of residual bits below them.  No other part depends on those
    bits, so the source-free part's AND is OR-folded over its chunks
    (``_project``): a chunk bit is set iff some assignment to the projected
    bits extends it into every source-free residual's set.  Theorem 2 and
    its gadget draw the split links, the bits so projected, last."""
    src = (1 << n) - 1
    residual_ids: dict[tuple[int, int], int] = {}
    # The residuals left behind by each distinct source part, as a bit set.
    parts: dict[tuple[int, int], int] = {}
    bearing = occupied = 0  # the bits of clauses with a source literal, of all clauses
    for pos, neg in masks:
        residual = residual_ids.setdefault((pos & ~src, neg & ~src), len(residual_ids))
        source = (pos & src, neg & src)
        parts[source] = parts.get(source, 0) | 1 << residual
        occupied |= pos | neg
        if source != (0, 0):
            bearing |= pos | neg
    residuals = list(residual_ids)
    width = max(occupied.bit_length() - n, 0)
    if not universal >> n and width <= TABLE_BITS:
        narrow = max(bearing.bit_length() - n, 0)
        chunk = (1 << (1 << narrow)) - 1
        tables = satisfying_sets(residuals, n, width)
        carried = []
        for source, ids in parts.items():
            common = -1
            while ids:
                low = ids & -ids
                common &= tables[low.bit_length() - 1]
                ids ^= low
            if source == (0, 0):
                common = _project(common, width, narrow)
            carried.append((source, common & chunk))
        return _walk(carried, n)
    emptied = 1 << residual_ids[(0, 0)] if (0, 0) in residual_ids else 0
    values: dict[int, bool] = {}

    def game(ids: int) -> bool:
        value = values.get(ids)
        if value is None:
            clauses = []
            rest = ids
            while rest:
                low = rest & -rest
                clauses.append(residuals[low.bit_length() - 1])
                rest ^= low
            value = values[ids] = _game(clauses, universal, n)
        return value

    carried = [(source, 0 if ids & emptied else ~ids) for source, ids in parts.items()]
    return _walk(carried, n, game)


def _project(table: int, width: int, narrow: int) -> int:
    """The 2^narrow-bit OR of the 2^narrow-bit chunks of a 2^width-bit
    table: bit tau is set iff the table has a set bit whose low ``narrow``
    bits are tau, that is, iff some assignment to the bits from ``narrow``
    up extends tau into the table."""
    while width > narrow:
        width -= 1
        half = 1 << width
        table = (table | table >> half) & (1 << half) - 1
    return table


def _walk(parts, n: int, decide=None) -> int:
    """A 2^n-bit int whose bit sigma is set iff the AND of the values of
    the ``(source, value)`` parts whose ``(pos, neg)`` source mask sigma
    falsifies is nonzero and, with ``decide``, ``decide`` holds on the
    complement of that AND.

    On the table path a part's value is a truth table.  On the game path it
    is 0 for a part that leaves an emptied residual and otherwise ``~ids``,
    the complement of the bit set of the residuals it leaves, so the AND is
    the complement of their union: ``decide`` gets the set of residuals that
    sigma leaves.

    The walk assigns the bits from n-1 down to a cut, a level that no part
    spans (has literals both below and at or above it).  The cut is the
    highest such level up to n // 2 whose rows' values fit ``_ROW_BITS``,
    or the lowest bit of any part if that is higher, below which every
    block agrees; the budget counts the bits of the widest value, a table
    or an id set.  A part is tested at the node of its lowest bit, where
    all its literals are assigned, so a node carries the AND of the parts
    falsified so far.  A node whose AND is 0 is 0 for its whole block.
    Without ``decide`` a node whose AND meets ``rest[b]``, the AND of the
    tables of every part still to be tested, is 1 for its whole block:
    whichever of those parts an assignment in the block falsifies, one
    residual assignment lies in all their tables.  The parts below the cut
    are falsified by the low bits alone, so the AND of the parts each low
    assignment falsifies is built once, and a node at the cut emits its rows
    from them, one per distinct low assignment, asking ``decide`` once per
    row."""
    common = -1
    buckets: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    floor = n
    spanned = 0  # bit h set iff some part has literals below h and at or above it
    widest = 0
    for (pos, neg), value in parts:
        if pos & neg:
            continue  # x and -x: no assignment falsifies it
        lits = pos | neg
        if not lits:
            common &= value
            continue
        low = (lits & -lits).bit_length() - 1
        buckets[low].append((pos, neg, value))
        floor = min(floor, low)
        spanned |= (1 << lits.bit_length()) - (2 << low)
        widest = max(widest, value.bit_length())
    # No part has literals below the floor, so none spans it.
    cut = n // 2
    while cut > floor and (spanned >> cut & 1 or widest << cut - floor > _ROW_BITS):
        cut -= 1
    cut = max(cut, floor)
    # rest[b]: the AND of the values of the parts whose lowest bit is below b.
    rest = [-1]
    for bucket in buckets:
        below = rest[-1]
        for _, _, value in bucket:
            below &= value
        rest.append(below)
    # Row j at the cut is the block of low assignments j << floor .. (j + 1) << floor;
    # lows[j] is the AND of the parts it falsifies.
    count = 1 << (cut - floor)
    lows = [-1] * count
    for bucket in buckets[floor:cut]:
        for pos, neg, value in bucket:
            pos >>= floor
            neg >>= floor
            for j in range(count):
                if not j & pos and j & neg == neg:
                    lows[j] &= value
    block = (1 << (1 << floor)) - 1
    rows = [block << (j << floor) for j in range(count)]

    def node(b: int, a: int, common: int) -> int:
        # Bits b..n-1 of a are assigned, and so is every part whose lowest bit is b or above.
        if not common:
            return 0
        if decide is None:
            if common & rest[b]:
                return (1 << (1 << b)) - 1
            if b == cut:
                return sum([row for row, low in zip(rows, lows) if common & low])
        elif b == cut:
            return sum(
                [row for row, low in zip(rows, lows) if common & low and decide(~(common & low))]
            )
        b -= 1
        halves = []
        for a in (a, a | 1 << b):
            c = common
            for pos, neg, value in buckets[b]:
                if not a & pos and a & neg == neg:
                    c &= value
            halves.append(node(b, a, c))
        return halves[0] | halves[1] << (1 << b)

    try:
        return node(n, 0, common)
    finally:
        del node  # node refers to itself: without this, each walk is a reference cycle
