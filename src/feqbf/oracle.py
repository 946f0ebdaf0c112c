"""Ground-truth evaluation of QBF and DNF validity.

Clauses and terms are encoded as ``(pos, neg)`` bitmasks by ``clause_masks``,
the package's only such encoder.  ``eval_qbf`` and ``check_equivalence``
encode a matrix once and play the QBF game on it (``_play``): backtracking
with unit propagation (Davis, Logemann and Loveland, 1962).  A clause reduced
to one existential literal forces it; one reduced to a universal literal is
False, as the universal player falsifies it.

A purely existential clause set over at most ``TABLE_BITS`` bits is decided
from truth tables instead: ``satisfying_sets`` maps each clause to the
2^width-bit int of the assignments that satisfy it, and the set is
satisfiable iff the AND of those ints is nonzero (``sets_intersect``).  The
solver's core SAT check and ``check_equivalence`` use them below the cap and
the game above it.

``check_equivalence`` splits each clause into its part over the source
variables, an outermost stretch of the prefix, and its residual over the
rest; it decides each distinct set of residuals that some source assignment
leaves once, not once per source assignment.  DNF validity is decided by
enumerating all assignments.  The tests check both against the
unpruned evaluators in ``tests/oracle_helpers.py``.  A configurable variable
bound turns oversized inputs into errors rather than silently approximating.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formulas import (
    EXISTS,
    FORALL,
    DnfFormula,
    QbfInstance,
    apply_assignment_cnf,  # unused here; perfbench/tracer.py wraps oracle.apply_assignment_cnf
)

DEFAULT_VARIABLE_BOUND = 24
# The widest pure-existential clause set decided from truth tables: one set
# over 16 bits is a 2^16-bit int, 8 KB.  Wider sets go to the game.
TABLE_BITS = 16
# The mismatching assignments an EquivalenceReport lists; it counts them all.
MAX_MISMATCHES = 32


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


def some_term_holds(assignment: int, term_masks) -> bool:
    """True iff the assignment (bit i holds variable i's value) satisfies
    some ``(pos, neg)``-encoded term."""
    return any(assignment & pos == pos and assignment & neg == 0 for pos, neg in term_masks)


def eval_qbf(instance: QbfInstance, *, var_bound: int = DEFAULT_VARIABLE_BOUND) -> bool:
    """Evaluate a prenex QBF by game-tree search with unit propagation.
    Universal variables take the AND of both branches, existential ones the OR.
    Only the variables that occur in some clause count against ``var_bound``."""
    return _play(*_encode(instance, 0, var_bound))


def _encode(instance: QbfInstance, n: int, var_bound: int) -> tuple[list, int]:
    """The matrix of ``instance`` as masks for the game, and its universal
    bits.  The first ``n`` prefix variables take bits 0..n-1, whether or not
    they occur in a clause; every later variable that occurs in some clause
    follows in prefix order.  Only those later ones count against
    ``var_bound``; the game never branches on a variable that occurs in no
    clause."""
    occurring = {abs(lit) for clause in instance.matrix.clauses for lit in clause}
    prefix = [(v, b.quantifier) for b in instance.prefix for v in b.vars]
    rest = [(v, q) for v, q in prefix[n:] if v in occurring]
    if len(rest) > var_bound:
        raise OracleLimitError(
            f"{len(rest)} quantified variables remain in the game; bound is {var_bound}"
        )
    order = prefix[:n] + rest
    universal = sum(1 << i for i, (_, q) in enumerate(order) if q == FORALL)
    return clause_masks(instance.matrix.clauses, {v: i for i, (v, _) in enumerate(order)}), universal


def _play(masks, universal: int) -> bool:
    """Play the QBF game on mask-encoded clauses; the bits set in ``universal``
    are universal, the others existential.  An empty clause makes the result
    False."""
    return (0, 0) not in masks and _game(masks, universal, 0)


def _game(clauses: list[tuple[int, int]], universal: int, index: int) -> bool:
    """Play the QBF game on mask-encoded clauses from bit ``index`` onwards.
    An empty clause makes the result False.

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
    full = (1 << (1 << width)) - 1
    size = 1 << max(width - 3, 0)  # bytes per table
    true_of = []
    for i in range(width):
        # Bit tau of the table for bit i is bit i of tau.  For i < 3 the
        # pattern repeats within each byte; above, it alternates runs of
        # 2^(i-3) zero bytes and 2^(i-3) 0xff bytes.
        if i < 3:
            pattern = bytes((0xAA, 0xCC, 0xF0)[i : i + 1]) * size
        else:
            half = 1 << (i - 3)
            pattern = (bytes(half) + b"\xff" * half) * (size // (2 * half))
        true_of.append(int.from_bytes(pattern, "little") & full)
    false_of = [full ^ table for table in true_of]
    sets = []
    for pos, neg in masks:
        satisfied = 0
        for bits, tables in ((pos >> shift, true_of), (neg >> shift, false_of)):
            while bits:
                low = bits & -bits
                satisfied |= tables[low.bit_length() - 1]
                bits ^= low
        sets.append(satisfied)
    return sets


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
    """True iff every total assignment satisfies some term."""
    n = formula.num_vars
    if n > var_bound:
        raise OracleLimitError(f"{n} variables exceed the brute-force bound {var_bound}")
    if any(not term for term in formula.terms):
        return True
    term_masks = clause_masks(formula.terms, {var: var - 1 for var in range(1, n + 1)})
    return all(some_term_holds(assignment, term_masks) for assignment in range(1 << n))


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
    universal block.  The variables of one block commute, so reordering that
    block maps them differently.  In ``forall_exists`` mode the remainder of
    the prefix must be exactly one existential block; ``general`` mode allows
    any suffix.

    phi(sigma) is decided once per distinct set of residual clauses, the
    parts over the non-source variables of the clauses that sigma leaves
    unsatisfied, rather than once per sigma (``_residual_games``).
    ``var_bound`` limits the source variables and, separately, the
    non-source variables that occur in some clause.
    """
    if mode not in ("general", "forall_exists"):
        raise ValueError(f"unknown mode {mode!r}")
    n = psi.num_vars
    if n > var_bound:
        raise OracleLimitError(f"{n} source variables exceed the brute-force bound {var_bound}")
    if n:
        if not phi.prefix or phi.prefix[0].quantifier != FORALL:
            raise ValueError(
                "variable mapping incomplete: the QBF's outermost block must be universal"
            )
        outer = len(phi.prefix[0].vars)
        if outer < n:
            raise ValueError(
                f"variable mapping incomplete: outermost block binds {outer} "
                f"variables but the DNF has {n}"
            )
    if mode == "forall_exists":
        # Without source variables there is no universal x: all of the prefix is suffix.
        suffix = [b.quantifier for b in (phi.prefix[1:] if n else phi.prefix)]
        if (n and len(phi.prefix[0].vars) != n) or suffix not in ([], [EXISTS]):
            raise ValueError("forall_exists mode requires prefix shape: universal x, one existential block")
    masks, universal = _encode(phi, n, var_bound)
    term_masks = clause_masks(psi.terms, {var: var - 1 for var in range(1, n + 1)})
    mismatched: list[dict[int, bool]] = []
    mismatch_count = 0
    for encoding, value in enumerate(_residual_games(masks, universal, n)):
        if some_term_holds(encoding, term_masks) != value:
            mismatch_count += 1
            if len(mismatched) < MAX_MISMATCHES:
                mismatched.append({i + 1: bool(encoding >> i & 1) for i in range(n)})
    return EquivalenceReport(
        total_assignments=1 << n,
        mismatch_count=mismatch_count,
        mismatches=tuple(mismatched),
        passed=mismatch_count == 0,
    )


def _residual_games(masks, universal: int, n: int) -> list[bool]:
    """The game's value after fixing bits ``0..n-1`` to each encoding in turn.

    Each clause splits into its source part, over bits ``0..n-1``, and its
    residual over the rest.  An encoding leaves exactly the residuals of the
    clauses whose source part it falsifies, so each distinct set of residuals
    left is decided once.  When no residual bit is universal and the
    residuals span at most ``TABLE_BITS`` bits, a set is decided by the AND
    of its members' satisfying sets, built once per call; the residual
    ``(0, 0)`` of a clause with only source literals has the set 0.
    Otherwise a game is played per set, and that residual makes a set False
    without one."""
    src = (1 << n) - 1
    residual_ids: dict[tuple[int, int], int] = {}
    # The residuals left behind by each distinct source part, as a bit set.
    parts: dict[tuple[int, int], int] = {}
    for pos, neg in masks:
        residual = residual_ids.setdefault((pos & ~src, neg & ~src), len(residual_ids))
        source = (pos & src, neg & src)
        parts[source] = parts.get(source, 0) | 1 << residual
    residuals = list(residual_ids)
    occupied = 0
    for pos, neg in residuals:
        occupied |= pos | neg
    width = max(occupied.bit_length() - n, 0)
    tables = None
    if not universal >> n and width <= TABLE_BITS:
        tables = satisfying_sets(residuals, n, width)
    emptied = 1 << residual_ids[(0, 0)] if (0, 0) in residual_ids else 0
    values: dict[int, bool] = {}
    result = []
    for encoding in range(1 << n):
        key = 0
        for (pos, neg), bits in parts.items():
            if not encoding & pos and encoding & neg == neg:
                key |= bits
        value = values.get(key)
        if value is None:
            if tables is not None:
                value = sets_intersect(t for i, t in enumerate(tables) if key >> i & 1)
            else:
                value = not (key & emptied) and _game(
                    [r for i, r in enumerate(residuals) if key >> i & 1], universal, n
                )
            values[key] = value
        result.append(value)
    return result
