"""Ground-truth evaluation of QBF and DNF validity.

Clauses and terms are encoded as ``(pos, neg)`` bitmasks by ``clause_masks``,
the package's only such encoder.  ``eval_qbf``, ``check_equivalence`` and the
solver's core SAT check encode a matrix once, fix an outermost stretch of its
bits (``_play``) and play the QBF game on the rest: backtracking with unit
propagation (Davis, Logemann and Loveland, 1962).  A clause reduced to one
existential literal forces it; one reduced to a universal literal is False,
as the universal player falsifies it.  DNF validity is decided by enumerating
all assignments.  The tests check both against the unpruned evaluators in
``tests/oracle_helpers.py``.  A configurable variable bound turns oversized
inputs into errors rather than silently approximating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .formulas import (
    EXISTS,
    FORALL,
    Assignment,
    DnfFormula,
    QbfInstance,
    apply_assignment_cnf,  # unused here; perfbench/tracer.py wraps oracle.apply_assignment_cnf
)

DEFAULT_VARIABLE_BOUND = 24


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


def eval_qbf(
    instance: QbfInstance,
    partial: Assignment | None = None,
    *,
    var_bound: int = DEFAULT_VARIABLE_BOUND,
) -> bool:
    """Evaluate a prenex QBF by game-tree search with unit propagation.

    ``partial`` may pre-assign an outermost stretch of the prefix (every
    assigned variable must precede every unassigned one); the game is then
    played over the remaining variables.  Universal variables take the AND of
    both branches, existential ones the OR.
    """
    partial = dict(partial or {})
    sequence = [(v, block.quantifier) for block in instance.prefix for v in block.vars]
    prefix_vars = {v for v, _ in sequence}
    for var in partial:
        if var not in prefix_vars:
            raise ValueError(f"partial assignment mentions unbound variable {var}")
    seen_unassigned = False
    remaining: list[tuple[int, str]] = []
    for var, quant in sequence:
        if var in partial:
            if seen_unassigned:
                raise ValueError(
                    f"partial assignment out of prefix order: variable {var} is assigned "
                    "but an earlier prefix variable is not"
                )
        else:
            seen_unassigned = True
            remaining.append((var, quant))
    if len(remaining) > var_bound:
        raise OracleLimitError(
            f"{len(remaining)} unassigned variables exceed the brute-force bound {var_bound}"
        )

    # The assigned variables come first in the prefix, so they take the low bits.
    bit_of = {var: i for i, (var, _) in enumerate(sequence)}
    masks = clause_masks(instance.matrix.clauses, bit_of)
    fixed = sum(1 << bit_of[var] for var, value in partial.items() if value)
    return _play(masks, _universal_mask(q for _, q in sequence), len(partial), fixed)


def _universal_mask(quantifiers) -> int:
    """The bits quantified universally, given each bit's quantifier in order."""
    return sum(1 << i for i, q in enumerate(quantifiers) if q == FORALL)


def _play(masks, universal: int, shift: int, fixed: int) -> bool:
    """Fix bits ``0..shift-1`` to those of ``fixed`` (which has no higher bit),
    then play the QBF game on the rest; the bits set in ``universal`` are
    universal, the others existential.  An emptied clause, even one empty
    from the start, makes the result False."""
    clauses = _assign_bits(masks, (1 << shift) - 1, fixed)
    return clauses is not None and _game(clauses, universal, shift)


def _game(clauses: list[tuple[int, int]], universal: int, index: int) -> bool:
    """Play the QBF game on mask-encoded clauses from bit ``index`` onwards.
    No clause may be empty.

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

    ``mismatches`` is truncated to ``max_mismatches`` entries; ``mismatch_count``
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

    def to_csv(self) -> str:
        lines = ["sigma_encoding"]
        lines.extend(str(enc) for enc in self.mismatch_encodings())
        return "\n".join(lines) + "\n"


def check_equivalence(
    psi: DnfFormula,
    phi: QbfInstance,
    mode: str = "general",
    *,
    x_map: Sequence[int] | None = None,
    var_bound: int = DEFAULT_VARIABLE_BOUND,
    max_mismatches: int = 32,
) -> EquivalenceReport:
    """Compare psi(sigma) with phi(sigma) for every assignment to psi's variables.

    The mapping is positional by default: psi's variable i corresponds to the
    i-th variable of phi's outermost universal block.  ``x_map`` overrides it
    with an explicit image for each source variable (any variables of the
    outermost universal block, in any order).  In ``forall_exists`` mode the
    remainder of the prefix must be exactly one existential block; ``general``
    mode allows any suffix.
    """
    if mode not in ("general", "forall_exists"):
        raise ValueError(f"unknown mode {mode!r}")
    n = psi.num_vars
    if n > var_bound:
        raise OracleLimitError(f"{n} source variables exceed the brute-force bound {var_bound}")
    if n == 0:
        if x_map:
            raise ValueError("explicit map must be empty for a variable-free DNF")
        x_ids: tuple[int, ...] = ()
    else:
        if not phi.prefix or phi.prefix[0].quantifier != FORALL:
            raise ValueError(
                "variable mapping incomplete: the QBF's outermost block must be universal"
            )
        outer = phi.prefix[0].vars
        if x_map is None:
            if len(outer) < n:
                raise ValueError(
                    f"variable mapping incomplete: outermost block binds {len(outer)} "
                    f"variables but the DNF has {n}"
                )
            x_ids = outer[:n]
        else:
            x_ids = tuple(x_map)
            if len(x_ids) != n or len(set(x_ids)) != n:
                raise ValueError(f"explicit map must name {n} distinct variables")
            missing = set(x_ids) - set(outer)
            if missing:
                raise ValueError(
                    f"mapped variables {sorted(missing)} are not in the outermost universal block"
                )
    if mode == "forall_exists":
        # Without source variables there is no universal x: all of the prefix is suffix.
        suffix = [b.quantifier for b in (phi.prefix[1:] if n else phi.prefix)]
        if (n and len(phi.prefix[0].vars) != n) or suffix not in ([], [EXISTS]):
            raise ValueError("forall_exists mode requires prefix shape: universal x, one existential block")
    remaining = sum(len(b.vars) for b in phi.prefix) - n
    if remaining > var_bound:
        raise OracleLimitError(
            f"{remaining} quantified variables remain after the shared block; bound is {var_bound}"
        )
    # The mapped variables take bits 0..n-1.  They all lie in the outermost
    # universal block, whose variables commute, so this reordering is sound.
    quantifier_of = {v: b.quantifier for b in phi.prefix for v in b.vars}
    order = list(x_ids) + [v for v in quantifier_of if v not in x_ids]
    universal = _universal_mask(quantifier_of[v] for v in order)
    masks = clause_masks(phi.matrix.clauses, {v: i for i, v in enumerate(order)})
    term_masks = clause_masks(psi.terms, {var: var - 1 for var in range(1, n + 1)})
    mismatched: list[dict[int, bool]] = []
    mismatch_count = 0
    for encoding in range(1 << n):
        if some_term_holds(encoding, term_masks) != _play(masks, universal, n, encoding):
            mismatch_count += 1
            if len(mismatched) < max_mismatches:
                mismatched.append({i + 1: bool(encoding >> i & 1) for i in range(n)})
    return EquivalenceReport(
        total_assignments=1 << n,
        mismatch_count=mismatch_count,
        mismatches=tuple(mismatched),
        passed=mismatch_count == 0,
    )
