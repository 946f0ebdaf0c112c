"""The benchmark's tracer wraps library functions by module attribute name and
reads a few more names while it derives routes and leaf kinds; every name it
looks up must still exist and behave as it expects."""

import importlib.util
from pathlib import Path

import feqbf
from feqbf.formulas import EXISTS, FORALL, CnfMatrix, QbfInstance, QuantifierBlock

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def forall_exists(universal, existential, clauses):
    prefix = (QuantifierBlock(FORALL, universal), QuantifierBlock(EXISTS, existential))
    num_vars = len(universal) + len(existential)
    return QbfInstance(prefix, CnfMatrix(tuple(frozenset(c) for c in clauses), num_vars))


def test_every_wrapped_name_resolves():
    tracer = load_tracer()
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in tracer.WRAPPED
        if not hasattr(getattr(feqbf, module, None), attr)
    ]
    assert tracer.WRAPPED and missing == []


def test_tracer_counts_one_call_per_route():
    instances = (
        # The all-universal clause (1) is a false certificate.
        forall_exists((1,), (2,), [(1,), (2,)]),
        # k = 2 reaches the search too; the tracer labels it small_k_oracle
        # from the k that preprocess leaves.
        forall_exists((1,), (2, 3), [(1, 2), (-2, 3)]),
        # k = 3 reaches the search, whose groups have universal parts.
        forall_exists((1, 2), (3, 4, 5), [(1, 3), (-1, 4), (2, 5), (-3, -4, -5)]),
    )
    tracer = load_tracer().Tracer(feqbf)
    with tracer:
        for op, instance in enumerate(instances):
            tracer.op = op
            feqbf.solver.solve(instance)
    counts = tracer.counts()
    assert counts["routes"] == {"false_certificate": 1, "small_k_oracle": 1, "search": 1}
    assert counts["calls"]["solver.solve"] == 3
    assert counts["calls"]["solver.greedy_disjoint"] >= 1
    assert counts["leaves"] >= 1
