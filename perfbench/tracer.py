"""Outside-in tracing of feqbf's public functions.

The tracer replaces a function at the module attribute its caller looks up
(``feqbf.solver.partition_groups`` is read by the search on every call) with
a wrapper that records one span per call.  Spans stay in memory until the
traced pass ends; self time and counts are derived from them afterwards.
Nothing inside ``src/`` is changed.

A span is a list ``[name, parent, op, start_ns, end_ns, done_ns, attr]``.
``end_ns`` closes the call itself; ``done_ns`` also covers the work the
tracer does after the call (deriving ``attr``), which is charged to no layer:
a parent's self time is its duration minus the ``done - start`` intervals of
its children.
"""

from __future__ import annotations

import gzip
import json
from time import perf_counter_ns

NAME, PARENT, OP, START, END, DONE, ATTR = range(7)


def _route(args, result, lib):
    """Which path decides the instance, read from what ``preprocess`` returns."""
    if isinstance(result, lib.solver.FalseCertificate):
        return "false_certificate"
    k = sum(len(b.vars) for b in result.prefix if b.quantifier == lib.formulas.EXISTS)
    if k <= lib.solver.SolverConfig().small_k_cutoff:
        return "small_k_oracle"
    return "search"


def _is_family(args, result, lib):
    return isinstance(result, lib.solver.DisjointFamily)


def _leaf_weight0(args, result, lib):
    """A leaf has weight 0 when every clause of its matrix is all-existential."""
    matrix, existential = args[0], args[1]
    return all(abs(lit) in existential for clause in matrix.clauses for lit in clause)


def _search_shape(args, result, lib):
    stats = result[1]
    return (stats.leaves, stats.branches, stats.max_depth)


# (module, attribute, span name, attribute derived from the call).  The same
# span name appears twice where two callers look the function up in their own
# module: the search reads ``solver.eval_qbf``, the equivalence check reads
# ``oracle.eval_qbf``.
WRAPPED = (
    ("qdimacs", "parse_qdimacs", "qdimacs.parse_qdimacs", None),
    ("solver", "solve", "solver.solve", _search_shape),
    ("solver", "preprocess", "solver.preprocess", _route),
    ("solver", "partition_groups", "solver.partition_groups", None),
    ("solver", "greedy_disjoint", "solver.greedy_disjoint", _is_family),
    ("solver", "core_projection", "solver.core_projection", _leaf_weight0),
    ("solver", "sat_check_core", "solver.sat_check_core", None),
    ("solver", "apply_assignment_cnf", "formulas.apply_assignment_cnf", None),
    ("oracle", "apply_assignment_cnf", "formulas.apply_assignment_cnf", None),
    ("solver", "eval_qbf", "oracle.eval_qbf", None),
    ("oracle", "eval_qbf", "oracle.eval_qbf", None),
    ("oracle", "check_equivalence", "oracle.check_equivalence", None),
    ("reductions", "reduce_dnf_to_fe_dqbf", "reductions.reduce_dnf_to_fe_dqbf", None),
    ("reductions", "reduce_dnf_to_4qbf", "reductions.reduce_dnf_to_4qbf", None),
)

LAYERS = tuple(dict.fromkeys(name for _, _, name, _ in WRAPPED))


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self, lib):
        self.lib = lib
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module_name, attr, name, derive in WRAPPED:
            module = getattr(self.lib, module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, derive))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, original, name, derive):
        spans, stack, lib = self.spans, self._stack, self.lib

        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.op, 0, 0, 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = span[DONE] = perf_counter_ns()
                stack.pop()
            if derive is not None:
                span[ATTR] = derive(args, result, lib)
                span[DONE] = perf_counter_ns()
            return result

        return wrapper

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name: duration minus the children's intervals."""
        covered = [0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[DONE] - span[START]
        totals = dict.fromkeys(LAYERS, 0)
        for span, child_ns in zip(self.spans, covered):
            totals[span[NAME]] += span[END] - span[START] - child_ns
        return {name: ns / 1e9 for name, ns in totals.items()}

    def counts(self) -> dict:
        """Call counts, routes, leaf kinds and search shape from the spans."""
        calls = dict.fromkeys(LAYERS, 0)
        routes = dict.fromkeys(("false_certificate", "small_k_oracle", "search"), 0)
        route_of_op: dict[int, str] = {}
        families = weight0 = 0
        for span in self.spans:
            name = span[NAME]
            calls[name] += 1
            if span[ATTR] is None:
                continue  # the call raised, or its layer derives nothing
            if name == "solver.preprocess":
                routes[span[ATTR]] += 1
                route_of_op[span[OP]] = span[ATTR]
            elif name == "solver.greedy_disjoint":
                families += span[ATTR]
            elif name == "solver.core_projection":
                weight0 += span[ATTR]
        leaves = branches = max_depth = 0
        for span in self.spans:
            if span[NAME] == "solver.solve" and span[ATTR] and route_of_op.get(span[OP]) == "search":
                leaves += span[ATTR][0]
                branches += span[ATTR][1]
                max_depth = max(max_depth, span[ATTR][2])
        return {
            "calls": calls,
            "routes": routes,
            "family_ratio": _ratio(families, calls["solver.greedy_disjoint"]),
            "weight0_ratio": _ratio(weight0, calls["solver.core_projection"]),
            "leaves": leaves,
            "branches": branches,
            "max_depth": max_depth,
        }

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines, one span per line."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(json.dumps(["name", "parent", "op", "start_ns", "end_ns", "done_ns", "attr"]))
            out.write("\n")
            for span in self.spans:
                out.write(json.dumps(span))
                out.write("\n")


def _ratio(part: int, whole: int) -> float:
    """``part / whole``, and 0.0 when the layer was never called."""
    return part / whole if whole else 0.0
