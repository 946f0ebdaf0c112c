"""Seeded instances for the three workloads, and the operation each runs.

Every workload is a fixed, repeating pattern of instance kinds, so a run that
stops part-way through its pool still sees the same mix.  All randomness
comes from ``random.Random`` seeded with the workload name and the seed, so
a seed pins every instance.  The reference answer of each instance is
computed here, during set-up, and is never part of a timed operation.

Kinds and the operation they run:

* ``d3_true``/``d3_false``/``d4_true``/``d4_false`` (workload ``reduced``):
  the theorem-2 output of a random 3-DNF at arity 3 (k = 14) or 4 (k = 12),
  as QDIMACS text, drawn until ``is_dnf_valid`` (the reference) gives the
  answer the kind names.  Operation: ``parse_qdimacs`` then ``solve``.
* ``planted``/``twin``/``k2`` (workload ``planted``): random forall-exists
  instances in which every clause has an existential literal, so
  ``preprocess`` never ends the run.  ``planted`` fixes an existential
  assignment that satisfies every clause (TRUE by construction; the search
  walks the whole tree).  ``twin`` is drawn the same way without planting
  (reference: ``eval_qbf``; almost always FALSE after one leaf).  ``k2`` is
  planted with two existential variables, which ``solve`` hands to the
  small-k oracle route.  Operation: ``parse_qdimacs`` then ``solve``.
* ``thm2``/``thm1`` (workload ``verify``): a random 3-DNF, reduced by
  theorem 2 (``reduce_dnf_to_fe_dqbf``, d = 3) or theorem 1
  (``reduce_dnf_to_4qbf``, base threshold 20), then certified by
  ``check_equivalence``.  Reference: the report must pass, since both
  reductions preserve truth for every assignment.  Theorem 1 alternates
  n = 7 (13 terms) and n = 6 (8-12 terms).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Large enough for every theorem-1 output at n <= 7: its base case adds at
# most two link variables per falsifying assignment of the source DNF.
VERIFY_VAR_BOUND = 256


@dataclass(frozen=True)
class Case:
    kind: str
    payload: object  # QDIMACS text for the solver kinds, a DnfFormula for verify
    expected: bool


@dataclass(frozen=True)
class Workload:
    name: str
    pattern: tuple[str, ...]
    ops_per_second: float  # as measured on a 2-core x86-64 VM; sizes the pool and traced pass


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "reduced", ("d3_true", "d4_true", "d3_true", "d4_true", "d3_false", "d4_false"), 3.5
        ),
        Workload("planted", ("planted", "twin", "planted", "k2", "planted"), 5.0),
        Workload("verify", ("thm2", "thm2", "thm1"), 2.0),
    )
}


def pool_size(workload: Workload, seconds: float) -> int:
    """Cases to generate: a quarter more than a run is expected to use.  A
    faster run wraps around to the first case."""
    return _whole_patterns(workload, 1.25 * workload.ops_per_second * seconds)


def traced_pass_size(workload: Workload, seconds: float) -> int:
    """Cases in the traced pass; it runs once untraced and once traced."""
    return _whole_patterns(workload, 0.4 * workload.ops_per_second * seconds)


def _whole_patterns(workload: Workload, ops: float) -> int:
    width = len(workload.pattern)
    return max(width, round(ops / width) * width)


def build_cases(lib, workload: Workload, seed: int, count: int) -> list[Case]:
    rng = random.Random(f"{workload.name}:{seed}")
    make = {"reduced": _reduced_case, "planted": _planted_case, "verify": _verify_case}[
        workload.name
    ]
    pattern = workload.pattern
    return [make(lib, rng, pattern[i % len(pattern)], i // len(pattern)) for i in range(count)]


def run_case(lib, case: Case) -> bool:
    """The timed operation; returns the answer to compare with ``case.expected``."""
    if case.kind == "thm2":
        out = lib.reductions.reduce_dnf_to_fe_dqbf(case.payload, 3)
        report = lib.oracle.check_equivalence(
            case.payload, out.instance, mode="forall_exists", var_bound=VERIFY_VAR_BOUND
        )
        return report.passed
    if case.kind == "thm1":
        out = lib.reductions.reduce_dnf_to_4qbf(case.payload, 20)
        report = lib.oracle.check_equivalence(
            case.payload, out.instance, var_bound=VERIFY_VAR_BOUND
        )
        return report.passed
    value, _ = lib.solver.solve(lib.qdimacs.parse_qdimacs(case.payload))
    return value


def _reduced_case(lib, rng: random.Random, kind: str, round_no: int) -> Case:
    # The kind fixes the answer.  A TRUE instance walks the whole search tree
    # and its time varies little; a FALSE one stops at a varying point.  Two
    # thirds TRUE keeps the median inside the TRUE times.
    wanted = kind.endswith("_true")
    d, m_range = (3, (18, 24)) if kind.startswith("d3") else (4, (28, 40))
    while True:
        psi = lib.generate.random_dnf(6, rng.randint(*m_range), seed=rng.getrandbits(32))
        if lib.oracle.is_dnf_valid(psi) == wanted:
            break
    out = lib.reductions.reduce_dnf_to_fe_dqbf(psi, d)
    return Case(kind, lib.qdimacs.emit_qdimacs(out.instance), wanted)


def _planted_case(lib, rng: random.Random, kind: str, round_no: int) -> Case:
    if kind == "k2":
        n = 12 + round_no % 4
        instance = core_forall_exists(lib, rng, n, 2, 3 * n, planted=True)
        return Case(kind, lib.qdimacs.emit_qdimacs(instance), True)
    planted = kind == "planted"
    instance = core_forall_exists(lib, rng, 10, 6, rng.randint(40, 60), planted=planted)
    expected = True if planted else lib.oracle.eval_qbf(instance)
    return Case(kind, lib.qdimacs.emit_qdimacs(instance), expected)


def _verify_case(lib, rng: random.Random, kind: str, round_no: int) -> Case:
    if kind == "thm2":
        psi = lib.generate.random_dnf(10, 20, seed=rng.getrandbits(32))
    elif round_no % 2 == 0:
        # At n=7 with 12 terms, one instance in twenty takes over 1.5 s and
        # some take 10-90 s; 13 terms keeps the tail but not those outliers.
        psi = lib.generate.random_dnf(7, 13, seed=rng.getrandbits(32))
    else:
        psi = lib.generate.random_dnf(6, rng.randint(8, 12), seed=rng.getrandbits(32))
    return Case(kind, psi, True)


def core_forall_exists(lib, rng: random.Random, n: int, k: int, m: int, *, planted: bool):
    """A random forall-exists 3-CNF in which every clause has an existential
    literal.  Universals are 1..n, existentials n+1..n+k.

    ``generate.random_forall_exists`` draws clauses from the whole pool, so
    almost every instance it makes has an all-universal clause and is decided
    by ``preprocess`` before any search.  With ``planted``, a hidden
    existential assignment satisfies every clause, so the instance is TRUE.
    """
    existential = range(n + 1, n + k + 1)
    hidden = {v: rng.random() < 0.5 for v in existential}
    pool = list(range(1, n + k + 1))
    clauses = []
    while len(clauses) < m:
        chosen = rng.sample(pool, 3)
        exist_vars = [v for v in chosen if v > n]
        if not exist_vars:
            continue
        lits = [v if rng.random() < 0.5 else -v for v in chosen]
        if planted and not any(abs(l) > n and hidden[abs(l)] == (l > 0) for l in lits):
            flip = rng.choice(exist_vars)
            lits = [-l if abs(l) == flip else l for l in lits]
        clauses.append(frozenset(lits))
    prefix = lib.formulas.normalize_prefix(
        [(lib.formulas.FORALL, range(1, n + 1)), (lib.formulas.EXISTS, existential)]
    )
    return lib.formulas.QbfInstance(prefix, lib.formulas.CnfMatrix(tuple(clauses), n + k))
