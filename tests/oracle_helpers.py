"""Independent brute-force helpers used as test oracles.

These deliberately avoid the library's evaluation code paths: everything is
done by exhaustive enumeration over assignment dictionaries, so the tests
check the package against a second, slower route."""

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
