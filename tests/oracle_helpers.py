"""Independent brute-force helpers used as test oracles.

These deliberately avoid the library's evaluation code paths: everything is
done by exhaustive enumeration, over assignment dictionaries or, in
``falsifying_table_reference``, over integer encodings, so the tests check
the package against a second, slower route."""

from __future__ import annotations

import itertools

from feqbf.formulas import FORALL, QbfInstance


def all_assignments(variables):
    variables = list(variables)
    for values in itertools.product((False, True), repeat=len(variables)):
        yield dict(zip(variables, values))


def literal_true(lit, sigma):
    return sigma[abs(lit)] == (lit > 0)


def clause_falsifiers(clause, variables):
    """All total assignments over ``variables`` making every literal false."""
    return [
        sigma
        for sigma in all_assignments(variables)
        if all(not literal_true(lit, sigma) for lit in clause)
    ]


def cnf_true_under(clauses, sigma):
    return all(any(literal_true(lit, sigma) for lit in clause) for clause in clauses)


def dnf_true_under(terms, sigma):
    return any(all(literal_true(lit, sigma) for lit in term) for term in terms)


def dnf_valid_reference(terms, variables):
    return all(dnf_true_under(terms, sigma) for sigma in all_assignments(variables))


def falsifying_table_reference(terms, variables):
    """An int whose bit a is set iff no term holds under the assignment a,
    bit i of a holding ``variables[i]``.

    It tests every encoding a against every term in turn, as ``a & mask ==
    value`` over the term's own literals, and builds the int once from the
    bits, so that it stays usable at 20 variables."""
    position = {var: i for i, var in enumerate(variables)}
    checks = []
    for term in terms:
        if any(-lit in term for lit in term):
            continue  # x and -x: the term holds under no assignment
        mask = value = 0
        for lit in term:
            mask |= 1 << position[abs(lit)]
            value |= (lit > 0) << position[abs(lit)]
        checks.append((mask, value))
    bits = []
    for a in range(1 << len(position)):
        for mask, value in checks:
            if a & mask == value:
                bits.append("0")
                break
        else:
            bits.append("1")
    return int("".join(reversed(bits)), 2)


def cnf_satisfiable(clauses, variables):
    return any(cnf_true_under(clauses, sigma) for sigma in all_assignments(variables))


def qbf_eval_reference(instance: QbfInstance, fixed=None) -> bool:
    """Plain game-tree evaluation over assignment dictionaries; no pruning.
    ``fixed`` pins variables to values wherever they sit in the prefix."""
    order = [(v, b.quantifier) for b in instance.prefix for v in b.vars]
    fixed = fixed or {}

    def walk(index: int, sigma: dict) -> bool:
        if index == len(order):
            return cnf_true_under(instance.matrix.clauses, sigma)
        var, quant = order[index]
        values = (fixed[var],) if var in fixed else (False, True)
        branches = (walk(index + 1, {**sigma, var: value}) for value in values)
        return all(branches) if quant == FORALL else any(branches)

    return walk(0, {})
