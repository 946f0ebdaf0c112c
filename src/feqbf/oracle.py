"""Ground-truth evaluation of QBF and DNF validity.

Clauses and terms are encoded as ``(pos, neg)`` bitmasks, as defined by
``clause_masks``.  QBF is decided by a pruned backtracking engine over that
encoding: it skips variables absent from the matrix and abandons a branch as
soon as a clause is falsified.  The solver's core SAT check runs the same
engine with every variable existential.  DNF validity is decided by
enumerating all assignments.  The tests check both against the unpruned
dictionary-based evaluators in ``tests/oracle_helpers.py``.  A configurable
variable bound turns oversized inputs into errors rather than silently
approximating.
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
    apply_assignment_cnf,
    normalize_prefix,
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
    """Evaluate a prenex QBF by pruned game-tree search.

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

    bit_of = {var: i for i, (var, _) in enumerate(remaining)}
    # Not clause_masks: folding `partial` in this same pass keeps verify faster.
    clauses: list[tuple[int, int]] = []
    for clause in instance.matrix.clauses:
        pos = neg = 0
        satisfied = False
        for lit in clause:
            var = abs(lit)
            if var in partial:
                if partial[var] == (lit > 0):
                    satisfied = True
                    break
            elif lit > 0:
                pos |= 1 << bit_of[var]
            else:
                neg |= 1 << bit_of[var]
        if satisfied:
            continue
        if pos == 0 and neg == 0:
            return False
        clauses.append((pos, neg))
    quantifiers = [q for _, q in remaining]
    return _game(clauses, quantifiers, 0)


def _game(clauses: list[tuple[int, int]], quantifiers: list[str], index: int) -> bool:
    """Play the QBF game on mask-encoded clauses from bit ``index`` onwards;
    ``quantifiers[i]`` quantifies bit i.  No clause may be empty."""
    if not clauses:
        return True
    occupied = 0
    for pos, neg in clauses:
        occupied |= pos | neg
    while index < len(quantifiers) and not (occupied >> index) & 1:
        index += 1  # variable absent from the matrix: both branches coincide
    bit = 1 << index
    first = _assign_bit(clauses, bit, False)
    if quantifiers[index] == FORALL:
        if first is None or not _game(first, quantifiers, index + 1):
            return False
        second = _assign_bit(clauses, bit, True)
        return second is not None and _game(second, quantifiers, index + 1)
    if first is not None and _game(first, quantifiers, index + 1):
        return True
    second = _assign_bit(clauses, bit, True)
    return second is not None and _game(second, quantifiers, index + 1)


def _assign_bit(clauses, bit: int, value: bool):
    """Simplify mask-encoded clauses; None signals an empty (falsified) clause."""
    satisfied_mask, falsified_mask = (bit, 0) if value else (0, bit)
    result = []
    for pos, neg in clauses:
        if pos & satisfied_mask or neg & falsified_mask:
            continue
        new_pos = pos & ~bit
        new_neg = neg & ~bit
        if new_pos == 0 and new_neg == 0:
            return None
        result.append((new_pos, new_neg))
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
        extra_outer = len(phi.prefix[0].vars) - n if phi.prefix else 0
        suffix_ok = extra_outer == 0 and len(phi.prefix) <= 2
        if suffix_ok and len(phi.prefix) == 2:
            suffix_ok = phi.prefix[1].quantifier == EXISTS
        if not suffix_ok:
            raise ValueError("forall_exists mode requires prefix shape: universal x, one existential block")
    remaining = sum(len(b.vars) for b in phi.prefix) - n
    if remaining > var_bound:
        raise OracleLimitError(
            f"{remaining} quantified variables remain after the shared block; bound is {var_bound}"
        )
    if x_map is not None and tuple(x_map) != phi.prefix[0].vars[: len(x_map)]:
        # An arbitrary image inside the block breaks the prefix-order rule of
        # partial evaluation, so strip the mapped variables up front instead.
        stripped = tuple(v for v in phi.prefix[0].vars if v not in set(x_map))
        tail_prefix = ((FORALL, stripped),) + tuple(
            (b.quantifier, b.vars) for b in phi.prefix[1:]
        )

        def evaluate(sigma):
            simplified = apply_assignment_cnf(phi.matrix, sigma)
            reduced = QbfInstance(normalize_prefix(tail_prefix), simplified)
            return eval_qbf(reduced, var_bound=var_bound)

    else:

        def evaluate(sigma):
            return eval_qbf(phi, sigma, var_bound=var_bound)

    term_masks = clause_masks(psi.terms, {var: var - 1 for var in range(1, n + 1)})
    mismatched: list[dict[int, bool]] = []
    mismatch_count = 0
    for encoding in range(1 << n):
        psi_true = some_term_holds(encoding, term_masks)
        sigma = {x_ids[i]: bool(encoding >> i & 1) for i in range(n)}
        phi_true = evaluate(sigma)
        if psi_true != phi_true:
            mismatch_count += 1
            if len(mismatched) < max_mismatches:
                mismatched.append({i + 1: bool(encoding >> i & 1) for i in range(n)})
    return EquivalenceReport(
        total_assignments=1 << n,
        mismatch_count=mismatch_count,
        mismatches=tuple(mismatched),
        passed=mismatch_count == 0,
    )
