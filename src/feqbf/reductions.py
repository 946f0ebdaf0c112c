"""DNF-validity-to-QBF reduction constructions.

Both reductions turn a DNF over variables x into a closed prenex QBF whose
matrix has bounded arity, preserving truth pointwise: for every assignment to
x, the DNF holds iff the QBF's quantified suffix evaluates to True.

Both end in one index gadget (``_index_gadget``): for every assignment to its
DNF's variables, some assignment to its fresh existential index variables
satisfies its clauses iff some term holds.  ``reduce_dnf_to_fe_dqbf`` is that
gadget at arity d, after one universal block.  ``reduce_dnf_to_4qbf`` reaches
arity 4 with O(log m) existential variables per level by encoding term
indices in two universal selector vectors, adding a DNF that detects selector
cheating, and recursing on that cheat formula while it is smaller; the last
level is the gadget at arity 4.  The recursion stops at the latest at a
fixed point (23, 49), (41, 129) or (75, 321) (variables, terms), whose
gadget has 12, 21 or 27 variables.

Both keep the DNF's variables 1..n and draw every introduced variable from
one counter starting at n + 1.  Each introduced variable's role goes into
one dict as it is drawn, so the dict ascends and the provenance sidecar
lists the variables in id order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, islice

from .formulas import (
    EXISTS,
    FORALL,
    Clause,
    CnfMatrix,
    DnfFormula,
    QbfInstance,
    Term,
    base_clause,
    binary_clause,
    literal_sort_key,
    normalize_prefix,
    split_clause_to_arity,
)


@dataclass(frozen=True)
class ReductionOutput:
    """A closed QBF equivalent to the source DNF, plus bookkeeping.

    The DNF's variable i is the instance's variable i, so variables 1..n
    lead the outermost universal block.  ``provenance`` maps each introduced
    variable, in ascending order, to its role.  ``recursion_trace`` records
    (variables, terms) of the DNF at each recursion level, ending with the
    base case.
    """

    instance: QbfInstance
    provenance: dict[int, str]
    recursion_trace: tuple[tuple[int, int], ...] = ()

    @property
    def existential_count(self) -> int:
        return sum(len(b.vars) for b in self.instance.prefix if b.quantifier == EXISTS)

    @property
    def alternations(self) -> int:
        return len(self.instance.prefix)


def lambda_pair(i: int, m: int) -> tuple[int, int]:
    """The bijection i -> (i // sqrt(m), i mod sqrt(m)) for perfect squares m."""
    root = math.isqrt(m)
    if root * root != m:
        raise ValueError(f"{m} is not a perfect square")
    if not 0 <= i < m:
        raise ValueError(f"index {i} out of range 0..{m - 1}")
    return i // root, i % root


def pad_terms(psi: DnfFormula, target: int) -> DnfFormula:
    """Duplicate the last term until the formula has ``target`` terms."""
    m = len(psi.terms)
    if target < m:
        raise ValueError(f"cannot pad {m} terms down to {target}")
    if target > m and m == 0:
        raise ValueError("cannot pad an empty formula")
    return DnfFormula(psi.terms + (psi.terms[-1],) * (target - m), psi.num_vars)


def _sorted_lits(term: Term) -> list[int]:
    return sorted(term, key=literal_sort_key)


def _index_gadget(terms, d, ids, tag):
    """Clauses of arity d over fresh existential index variables that some
    index satisfies exactly when some term holds.

    The term count is padded up to r**(d-1) for r = ceil(m**(1/(d-1))).  Each
    term index is encoded by d-1 blocks of r index variables; a term literal
    l of term i becomes the clause (l or base_clause(i, blocks)).  One
    all-positive clause per block forces the chosen index to exist; those
    clauses are split down to arity d with fresh link variables.  Returns the
    fresh variables' roles, prefixed by ``tag``, in id order, and the clauses.
    """
    m = len(terms)
    r = 1
    while r ** (d - 1) < m:
        r += 1
    padded = tuple(terms) + (terms[-1],) * (r ** (d - 1) - m)
    index_blocks = [tuple(islice(ids, r)) for _ in range(d - 1)]
    roles = {
        var: f"{tag}y{j + 1}[{i}]"
        for j, block in enumerate(index_blocks)
        for i, var in enumerate(block)
    }

    clauses: list[Clause] = []
    for i, term in enumerate(padded):
        gadget = base_clause(i, index_blocks)
        for lit in _sorted_lits(term):
            clauses.append(frozenset({lit}) | gadget)

    for j, block in enumerate(index_blocks):
        pieces, fresh = split_clause_to_arity(frozenset(block), d, ids)
        clauses.extend(pieces)
        roles.update((var, f"{tag}split_y{j + 1}") for var in fresh)
    return roles, clauses


def reduce_dnf_to_fe_dqbf(psi: DnfFormula, d: int) -> ReductionOutput:
    """Reduce a DNF to an equivalent forall-exists QBF of arity d: the
    source variables, then the index gadget's variables."""
    if d < 3:
        raise ValueError("target arity must be at least 3")
    if not psi.terms:
        raise ValueError("source DNF must have at least one term")
    n = psi.num_vars
    ids = count(n + 1)
    provenance, clauses = _index_gadget(psi.terms, d, ids, "")
    prefix = normalize_prefix([(FORALL, range(1, n + 1)), (EXISTS, provenance)])
    instance = QbfInstance(prefix, CnfMatrix(tuple(clauses), next(ids) - 1))
    return ReductionOutput(instance, provenance, ((n, len(psi.terms)),))


def reduce_dnf_to_4qbf(psi: DnfFormula, base_threshold: int = 20) -> ReductionOutput:
    """Reduce a DNF to an equivalent 4-ary QBF.

    Recursive: while variables + terms exceed ``base_threshold`` and the
    cheat-detection DNF would be smaller, the term index is binary-encoded in
    existential variables y, mirrored by two universal selector vectors z1/z2
    (plus an escape variable w), and the construction recurses on that DNF
    over (y, z1, z2, w).  Otherwise the level's DNF becomes theorem 2's index
    gadget at arity 4, the innermost existential block.  The cheat DNF's
    size depends on m alone, so the recursion stops at the latest at a fixed
    point (23, 49), (41, 129) or (75, 321), and every input reduces.
    """
    if base_threshold < 4:
        raise ValueError("base threshold must be at least 4")
    if not psi.terms:
        raise ValueError("source DNF must have at least one term")
    n = psi.num_vars
    universe = tuple(range(1, n + 1))
    ids = count(n + 1)
    provenance: dict[int, str] = {}
    suffix, clauses, trace = _construct_level(
        psi.terms, universe, ids, provenance, base_threshold, level=0
    )
    prefix = normalize_prefix([(FORALL, universe)] + suffix)
    instance = QbfInstance(prefix, CnfMatrix(tuple(clauses), next(ids) - 1))
    return ReductionOutput(instance, provenance, tuple(trace))


def _construct_level(terms, universe, ids, provenance, base_threshold, level):
    n, m = len(universe), len(terms)
    length = 0
    while 4**length < m:
        length += 1
    m_padded = 4**length
    root = 2**length  # sqrt of the padded term count
    # The cheat DNF's variables and terms, known before any id is drawn, so a
    # level that stops here leaves no hole in the numbering.
    n_next, m_next = 2 * length + 2 * root + 1, 1 + 2 * root * length
    if n + m <= base_threshold or n_next + m_next >= n + m:
        roles, clauses = _index_gadget(terms, 4, ids, f"L{level}.base.")
        provenance.update(roles)
        return [(EXISTS, roles)], clauses, [(n, m)]

    padded = tuple(terms) + (terms[-1],) * (m_padded - m)
    y = tuple(islice(ids, 2 * length))
    z1 = tuple(islice(ids, root))
    z2 = tuple(islice(ids, root))
    w = next(ids)
    provenance.update((v, f"L{level}.y[{i}]") for i, v in enumerate(y))
    provenance.update((v, f"L{level}.z1[{j}]") for j, v in enumerate(z1))
    provenance.update((v, f"L{level}.z2[{j}]") for j, v in enumerate(z2))
    provenance[w] = f"L{level}.w"

    clauses: list[Clause] = []
    for i, term in enumerate(padded):
        j1, j2 = lambda_pair(i, m_padded)
        gadget = frozenset({-z1[j1], -z2[j2], w})
        for lit in _sorted_lits(term):
            clauses.append(frozenset({lit}) | gadget)

    # Cheat-detection DNF: true when w is off, or some selector bit is raised
    # whose index disagrees with the binary encoding carried by y.
    cheat_terms: list[Term] = [frozenset({-w})]
    halves = (y[:length], y[length:])
    for selector, half in zip((z1, z2), halves):
        for j in range(root):
            for lit in _sorted_lits(binary_clause(j, half)):
                cheat_terms.append(frozenset({selector[j], lit}))

    sub_suffix, sub_clauses, sub_trace = _construct_level(
        cheat_terms, y + z1 + z2 + (w,), ids, provenance, base_threshold, level + 1
    )
    suffix = [(EXISTS, y), (FORALL, z1 + z2), (EXISTS, (w,))] + sub_suffix
    return suffix, clauses + sub_clauses, [(n, m)] + sub_trace


def provenance_text(output: ReductionOutput) -> str:
    """Sidecar format: one line per introduced variable, 'id role block'."""
    block_of: dict[int, int] = {}
    for index, block in enumerate(output.instance.prefix):
        for var in block.vars:
            block_of[var] = index
    lines = [f"{var} {role} {block_of[var]}" for var, role in output.provenance.items()]
    return "\n".join(lines) + ("\n" if lines else "")
