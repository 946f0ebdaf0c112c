"""Propositional and prenex-quantified formula values.

Variables are positive integers and a literal is a signed integer whose sign
carries the polarity (DIMACS convention).  Clauses and terms are frozensets of
literals.  Every container here is immutable after construction and every
operation is a pure function, so values can be shared freely across threads.

The constructors check their literals in bulk: ``CnfMatrix`` and
``DnfFormula`` test the union of their rows for 0 and for variables beyond
``num_vars``.  Both keep the variables of that union as ``variables``:
``CnfMatrix``'s is the one set that ``QbfInstance`` tests against the prefix
and that ``bound_prefix`` and the oracle read, and ``is_dnf_valid`` reads
``DnfFormula``'s.  ``QbfInstance`` checks its prefix in bulk too: one step
per block for the alternation of its quantifiers, then the set, count and
largest of its variables for a second binding, the range and the matrix's
coverage.  The rows and the prefix are walked one by one only when a test
fails, to name the first offender.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Iterator, Mapping, Sequence

FORALL = "a"
EXISTS = "e"

Literal = int
Clause = frozenset[int]
Term = frozenset[int]
Assignment = Mapping[int, bool]


def literal_sort_key(lit: int) -> tuple[int, bool]:
    """Sort literals by variable, positive polarity first."""
    return (abs(lit), lit < 0)


def is_tautological(clause: Clause) -> bool:
    """True when the clause contains a variable in both polarities, that is,
    when it has fewer variables than literals."""
    return len(set(map(abs, clause))) < len(clause)


def _check_literals(rows: tuple[frozenset[int], ...], num_vars: int, what: str) -> frozenset[int]:
    """The variables of ``rows``.  Reject the literal 0 and variables beyond
    ``num_vars``, naming the first offender in row order."""
    lits = frozenset().union(*rows)
    if 0 not in lits and (not lits or -num_vars <= min(lits) and max(lits) <= num_vars):
        return frozenset(map(abs, lits))
    for row in rows:
        for lit in row:
            if lit == 0:
                raise ValueError(f"{what} may not contain the literal 0")
            if abs(lit) > num_vars:
                raise ValueError(f"variable {abs(lit)} exceeds declared count {num_vars}")


@dataclass(frozen=True)
class CnfMatrix:
    """Ordered conjunction of clauses over variables 1..num_vars.

    Duplicate clauses are allowed (reductions pad by repetition); literals
    within one clause are deduplicated by the frozenset representation.  The
    empty clause denotes the constant False.  ``variables``, the variables
    that occur in some clause, is derived and takes no part in ``==``.
    """

    clauses: tuple[Clause, ...]
    num_vars: int
    variables: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "clauses", tuple(map(frozenset, self.clauses)))
        if self.num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        object.__setattr__(self, "variables", _check_literals(self.clauses, self.num_vars, "a clause"))


@dataclass(frozen=True)
class DnfFormula:
    """Ordered disjunction of terms over variables 1..num_vars.

    Term positions 0..m-1 give the term numbering used by the reductions.
    The empty term denotes the constant True.  ``variables``, the variables
    that occur in some term, is derived and takes no part in ``==``.
    """

    terms: tuple[Term, ...]
    num_vars: int
    variables: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(map(frozenset, self.terms)))
        if self.num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        object.__setattr__(self, "variables", _check_literals(self.terms, self.num_vars, "a term"))


@dataclass(frozen=True)
class QuantifierBlock:
    quantifier: str
    vars: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vars", tuple(self.vars))
        if self.quantifier not in (FORALL, EXISTS):
            raise ValueError(f"quantifier must be {FORALL!r} or {EXISTS!r}")
        if not self.vars:
            raise ValueError("quantifier block must bind at least one variable")
        if min(self.vars) < 1:
            raise ValueError("variables are positive integers")


def normalize_prefix(
    blocks: Iterable[QuantifierBlock | tuple[str, Sequence[int]]],
) -> tuple[QuantifierBlock, ...]:
    """Drop empty blocks and merge adjacent blocks with the same quantifier."""
    merged: list[tuple[str, list[int]]] = []
    for block in blocks:
        quant, vars_ = (block.quantifier, block.vars) if isinstance(block, QuantifierBlock) else block
        vars_ = list(vars_)
        if not vars_:
            continue
        if merged and merged[-1][0] == quant:
            merged[-1][1].extend(vars_)
        else:
            merged.append((quant, vars_))
    return tuple(QuantifierBlock(q, tuple(v)) for q, v in merged)


@dataclass(frozen=True)
class QbfInstance:
    """Prenex QBF: an alternating quantifier prefix over a CNF matrix."""

    prefix: tuple[QuantifierBlock, ...]
    matrix: CnfMatrix

    def __post_init__(self) -> None:
        prefix = tuple(self.prefix)
        object.__setattr__(self, "prefix", prefix)
        num_vars = self.matrix.num_vars
        bound: list[int] = []
        previous = None
        for block in prefix:
            if block.quantifier == previous:
                _name_prefix_offender(prefix, num_vars)
            previous = block.quantifier
            bound += block.vars
        seen = set(bound)
        if len(seen) < len(bound) or bound and max(bound) > num_vars:
            _name_prefix_offender(prefix, num_vars)
        if seen.issuperset(self.matrix.variables):
            return
        for clause in self.matrix.clauses:
            for lit in clause:
                if abs(lit) not in seen:
                    raise ValueError(f"matrix variable {abs(lit)} is not bound by the prefix")


def _name_prefix_offender(prefix: tuple[QuantifierBlock, ...], num_vars: int) -> None:
    """Walk ``prefix`` block by block and variable by variable, and raise for
    the first repeated quantifier, variable bound twice or variable beyond
    ``num_vars``."""
    seen: set[int] = set()
    previous = None
    for block in prefix:
        if block.quantifier == previous:
            raise ValueError("adjacent prefix blocks must alternate (normalize first)")
        previous = block.quantifier
        for v in block.vars:
            if v in seen:
                raise ValueError(f"variable {v} bound twice in the prefix")
            if v > num_vars:
                raise ValueError(f"prefix variable {v} exceeds declared count {num_vars}")
            seen.add(v)


def bound_prefix(instance: QbfInstance) -> tuple[QuantifierBlock, ...]:
    """The prefix without an outermost existential block whose variables
    occur in no clause, as a file's explicit prefix line or an instance built
    in code may bind.  Such a block changes no value, so it is ignored."""
    prefix = instance.prefix
    if len(prefix) > 1 and prefix[0].quantifier == EXISTS:
        if instance.matrix.variables.isdisjoint(prefix[0].vars):
            return prefix[1:]
    return prefix


def apply_assignment_cnf(matrix: CnfMatrix, sigma: Assignment) -> CnfMatrix:
    """Simplify a CNF under a partial assignment.

    A clause with a satisfied literal is removed; falsified literals are
    removed from the surviving clauses, possibly yielding the empty clause.
    """
    _check_domain(sigma, matrix.num_vars)
    result = []
    for clause in matrix.clauses:
        kept = []
        satisfied = False
        for lit in clause:
            value = sigma.get(abs(lit))
            if value is None:
                kept.append(lit)
            elif value == (lit > 0):
                satisfied = True
                break
        if not satisfied:
            result.append(frozenset(kept))
    return CnfMatrix(tuple(result), matrix.num_vars)


def _check_domain(sigma: Assignment, num_vars: int) -> None:
    for var in sigma:
        if var < 1 or var > num_vars:
            raise ValueError(f"assignment mentions variable {var} outside 1..{num_vars}")


def binary_clause(i: int, variables: Sequence[int]) -> Clause:
    """Clause over ``variables`` whose unique falsifying assignment encodes ``i``.

    The first variable carries the most significant bit; a zero bit yields a
    positive literal and a one bit a negated one, so the clause is falsified
    exactly by the big-endian binary representation of ``i``.
    """
    n = len(variables)
    if not 0 <= i < 2**n:
        raise ValueError(f"integer {i} not representable over {n} variables")
    lits = []
    for pos, var in enumerate(variables):
        bit = (i >> (n - 1 - pos)) & 1
        lits.append(-var if bit else var)
    return frozenset(lits)


def base_clause(i: int, tuples: Sequence[Sequence[int]]) -> Clause:
    """Clause encoding ``i`` written in base ``n`` over ``t`` variable tuples.

    Each base-``n`` digit of ``i`` indexes one tuple (the first tuple holds
    the most significant digit) and contributes that variable negated, so the
    clause is falsified exactly when every digit-indexed variable is True.
    """
    n = _tuple_size(tuples)
    t = len(tuples)
    if not 0 <= i < n**t:
        raise ValueError(f"integer {i} not representable in base {n} with {t} digits")
    lits = []
    remainder = i
    for tp in reversed(tuples):
        remainder, digit = divmod(remainder, n)
        lits.append(-tp[digit])
    return frozenset(lits)


def base_clauses(tuples: Sequence[Sequence[int]]) -> list[Clause]:
    """``base_clause(i, tuples)`` for every i from 0 to n**t - 1, in order,
    with the tuples checked once: ``product`` varies the last tuple fastest,
    and the last tuple holds the least significant digit."""
    _tuple_size(tuples)
    return [frozenset([-var for var in chosen]) for chosen in product(*tuples)]


def _tuple_size(tuples: Sequence[Sequence[int]]) -> int:
    """The size n shared by the tuples of a base-n index."""
    if not tuples:
        raise ValueError("at least one variable tuple is required")
    sizes = {len(tp) for tp in tuples}
    if len(sizes) != 1:
        raise ValueError("all tuples must have the same size")
    return sizes.pop()


def split_clause_to_arity(
    clause: Clause, d: int, fresh: Iterator[int]
) -> tuple[list[Clause], list[int]]:
    """Split a clause into an equisatisfiable chain of clauses of arity <= d.

    While the clause is longer than ``d``, the first ``d - 1`` literals are
    chained off through a fresh linking variable drawn from ``fresh``.  A
    clause already within the arity bound is returned unchanged.
    """
    if d < 3:
        raise ValueError("target arity must be at least 3")
    if len(clause) <= d:
        return [frozenset(clause)], []
    lits = sorted(clause, key=literal_sort_key)
    pieces: list[Clause] = []
    new_vars: list[int] = []
    while len(lits) > d:
        link = next(fresh)
        new_vars.append(link)
        pieces.append(frozenset(lits[: d - 1] + [link]))
        lits = [-link] + lits[d - 1 :]
    pieces.append(frozenset(lits))
    return pieces, new_vars
