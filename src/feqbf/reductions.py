"""DNF-validity-to-QBF reduction constructions.

Both reductions turn a DNF over variables x into a closed prenex QBF whose
matrix has bounded arity, preserving truth pointwise: for every assignment to
x, the DNF holds iff the QBF's quantified suffix evaluates to True.

Both select a term by its index, one digit per block of variables, through
one encoder (``_selection``): literal l of term i becomes the clause (l or
base_clause(i, blocks)).  Both end in one index gadget (``_index_gadget``),
the selection over fresh existential blocks, which some index satisfies iff
some term holds; ``_gadget_size`` sizes it.  ``reduce_dnf_to_fe_dqbf`` is
that gadget at arity d, after one universal block.  ``reduce_dnf_to_4qbf``
reaches arity 4 with O(log m) existential variables per level: a cheat level
selects through two universal blocks z1, z2, the index's two base-sqrt(m)
digits, and hands a DNF that detects selector cheating to the next level
while it is smaller; the last level is the gadget at arity 4.  One loop
sizes, chooses and builds the levels.  They go on at the latest to a fixed
point (23, 49), (41, 129) or (75, 321) (variables, terms), whose gadget has
12, 21 or 27 variables; by default they stop at the first level that does not
lower the existential count, which is the count with the fewest existential
variables for every m up to 4**60 (checked from the size recurrence).

Both keep the DNF's variables 1..n and draw every introduced variable from
one counter starting at n + 1.  Each introduced variable's role goes into
one dict as it is drawn (``_draw``), so the dict ascends and the provenance
sidecar lists the variables in id order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice

from .formulas import (
    EXISTS,
    FORALL,
    Clause,
    CnfMatrix,
    DnfFormula,
    QbfInstance,
    base_clauses,
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
    (variables, terms) of the DNF at each level, ending with the level that
    places the index gadget.
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


def _draw(ids, size, role, roles):
    """The next ``size`` ids, each recorded in ``roles`` as ``role[i]``."""
    block = tuple(islice(ids, size))
    roles.update((var, f"{role}[{i}]") for i, var in enumerate(block))
    return block


def _selection(terms, blocks, extra: Clause = frozenset()) -> list[Clause]:
    """The clauses (l or base_clause(i, blocks) or extra) for each literal l
    of term i, literals in ``literal_sort_key`` order.  The terms are padded
    by repeating the last one up to one per index, r**len(blocks) for blocks
    of r variables; each term is sorted once, before the padding."""
    padded = [sorted(term, key=literal_sort_key) for term in terms]
    padded += [padded[-1]] * (len(blocks[0]) ** len(blocks) - len(terms))
    clauses = []
    for lits, index in zip(padded, base_clauses(blocks), strict=True):
        index |= extra
        for lit in lits:
            clauses.append(frozenset({lit}) | index)
    return clauses


def _gadget_size(m: int, d: int) -> tuple[int, int]:
    """The index gadget's block size r for m terms at arity d, the least r
    with r**(d-1) >= m, and its existential count: d-1 blocks of r index
    variables, each block's clause split to arity d with ceil((r-d)/(d-2))
    links when r > d."""
    r = 1
    while r ** (d - 1) < m:
        r += 1
    return r, (d - 1) * (r + max(0, r - 3) // (d - 2))


def _index_gadget(terms, d, ids, tag):
    """Clauses of arity d over fresh existential index variables that some
    index satisfies exactly when some term holds.

    Each term index is written in d-1 blocks of r index variables, r from
    ``_gadget_size``, and selected by ``_selection``.  One all-positive
    clause per block forces the chosen index to exist; those clauses are
    split down to arity d with fresh link variables.  Returns the fresh
    variables' roles, prefixed by ``tag``, in id order, and the clauses.
    """
    r, _ = _gadget_size(len(terms), d)
    roles: dict[int, str] = {}
    blocks = [_draw(ids, r, f"{tag}y{j + 1}", roles) for j in range(d - 1)]
    clauses = _selection(terms, blocks)
    for j, block in enumerate(blocks):
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


def reduce_dnf_to_4qbf(psi: DnfFormula, levels: int | None = None) -> ReductionOutput:
    """Reduce a DNF to an equivalent 4-ary QBF.

    Each cheat level binary-encodes the term index in 2L existential
    variables y, for the least L with 4**L >= m, mirrored by two universal
    selector blocks z1/z2 of 2**L variables (plus an escape variable w) that
    select the term; the next level takes the cheat DNF over (y, z1, z2, w).
    The last level's DNF becomes theorem 2's index gadget at arity 4, the
    innermost existential block.  The cheat DNF's size depends on m alone,
    and a level follows only while it is smaller than the last, so the
    levels end at the latest at a fixed point (23, 49), (41, 129) or (75,
    321), and every input reduces.

    Each pass sizes the next level and builds it unless it stops there.
    ``levels`` is the number of cheat levels, ended sooner by the fixed
    point.  By default a level is built only if it lowers the existential
    count: its 2L + 1 variables plus the next gadget's must be fewer than
    this level's gadget.  Stopping at the first level that does not pay
    takes the count with the fewest existentials, the fewest levels on a
    tie.  That was checked from the size recurrence for every m up to 16,384
    at n in {1, 24, 10**6}, and for 4**7 < m <= 4**60, where every level
    pays up to the fixed point.
    """
    if not psi.terms:
        raise ValueError("source DNF must have at least one term")
    if levels is not None and levels < 0:
        raise ValueError("levels must be at least 0")
    terms = psi.terms
    ids = count(psi.num_vars + 1)
    provenance: dict[int, str] = {}
    blocks = [(FORALL, range(1, psi.num_vars + 1))]
    clauses: list[Clause] = []
    trace = [(psi.num_vars, len(terms))]
    while levels is None or len(trace) <= levels:
        n, m = trace[-1]
        length = ((m - 1).bit_length() + 1) // 2  # the least L with 4**L >= m
        root = 2**length  # sqrt of the padded term count
        n_next, m_next = 2 * length + 2 * root + 1, 1 + 2 * root * length
        if n_next + m_next >= n + m:
            break
        if levels is None and 2 * length + 1 + _gadget_size(m_next, 4)[1] >= _gadget_size(m, 4)[1]:
            break
        tag = f"L{len(trace) - 1}."
        y = _draw(ids, 2 * length, tag + "y", provenance)
        z1 = _draw(ids, root, tag + "z1", provenance)
        z2 = _draw(ids, root, tag + "z2", provenance)
        w = next(ids)
        provenance[w] = tag + "w"
        clauses += _selection(terms, (z1, z2), frozenset({w}))
        blocks += [(EXISTS, y), (FORALL, z1 + z2), (EXISTS, (w,))]

        # Cheat-detection DNF: true when w is off, or some selector bit is raised
        # whose index disagrees with the binary encoding carried by y.
        terms = [frozenset({-w})]
        for selector, half in zip((z1, z2), (y[:length], y[length:])):
            for j in range(root):
                for lit in sorted(binary_clause(j, half), key=literal_sort_key):
                    terms.append(frozenset({selector[j], lit}))
        trace.append((n_next, m_next))

    roles, gadget = _index_gadget(terms, 4, ids, f"L{len(trace) - 1}.base.")
    prefix = normalize_prefix(blocks + [(EXISTS, roles)])
    instance = QbfInstance(prefix, CnfMatrix(tuple(clauses + gadget), next(ids) - 1))
    return ReductionOutput(instance, provenance | roles, tuple(trace))


def provenance_text(output: ReductionOutput) -> str:
    """Sidecar format: one line per introduced variable, 'id role block'."""
    block_of: dict[int, int] = {}
    for index, block in enumerate(output.instance.prefix):
        for var in block.vars:
            block_of[var] = index
    lines = [f"{var} {role} {block_of[var]}" for var, role in output.provenance.items()]
    return "\n".join(lines) + ("\n" if lines else "")
