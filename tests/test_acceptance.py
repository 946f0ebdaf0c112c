"""Acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and prints
one PASS line (run with ``pytest -s`` to see them; any failure fails the
test).  Derived expectations are computed by the brute-force oracle, never by
the code path under test.
"""

import math
import random

from feqbf.formulas import CnfMatrix, DnfFormula, QbfInstance, base_clause, binary_clause
from feqbf.generate import random_dnf, random_forall_exists
from feqbf.oracle import check_equivalence, eval_qbf, is_dnf_valid
from feqbf.reductions import reduce_dnf_to_4qbf, reduce_dnf_to_fe_dqbf
from feqbf.solver import ae_blocks, solve
from oracle_helpers import all_assignments, literal_true


def F(*lits):
    return frozenset(lits)


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def solver_corpus(seed: int, count: int, arity: int, max_k: int):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 8)
        k = rng.randint(1, max_k)
        m = rng.randint(1, 18)
        yield random_forall_exists(n, k, m, arity=arity, seed=rng.randrange(2**32))


def test_solver_correctness_against_oracle():
    """500 random forall-exists 3-QBF and 200 4-QBF instances: solve() must
    equal eval_qbf() on every single one."""
    disagreements = 0
    total = 0
    for instance in solver_corpus(10_001, 500, arity=3, max_k=5):
        result, _ = solve(instance)
        disagreements += result != eval_qbf(instance)
        total += 1
    for instance in solver_corpus(10_002, 200, arity=4, max_k=4):
        result, _ = solve(instance)
        disagreements += result != eval_qbf(instance)
        total += 1
    assert disagreements == 0
    report("solver-correctness", f"{total} instances, 0 disagreements")


def test_theorem2_reduction():
    """100 seeded 3-DNFs (n <= 8, m <= 16) at d in {3, 4}: per-assignment
    equivalence, arity bound, and the existential budget 2(d-1)*ceil(m^(1/(d-1)))."""
    rng = random.Random(20_002)
    runs = 0
    for _ in range(100):
        n = rng.randint(1, 8)
        m = rng.randint(1, 16)
        psi = random_dnf(n, m, seed=rng.randrange(2**32))
        for d in (3, 4):
            output = reduce_dnf_to_fe_dqbf(psi, d)
            assert all(len(c) <= d for c in output.instance.matrix.clauses)
            r = 1
            while r ** (d - 1) < m:
                r += 1
            assert output.existential_count <= 2 * (d - 1) * r
            rep = check_equivalence(
                psi, output.instance, mode="forall_exists", var_bound=40
            )
            assert rep.passed, rep.summary()
            runs += 1
    report("theorem2-reduction", f"{runs} reductions verified on all assignments")


def test_theorem1_reduction():
    """60 seeded 3-DNFs (n <= 6, m <= 10) at 0 and 1 cheat levels and the default.

    Every output must pass per-assignment equivalence, keep arity <= 4,
    and shrink n+m strictly at every recursion level.  The
    harness reports the fitted constant of the 6*log2(n+m) + c budget and
    checks the budget is non-decreasing but sub-linear across an m-sweep.
    """
    rng = random.Random(30_003)
    fitted = []
    verified = 0
    for _ in range(60):
        n = rng.randint(1, 6)
        m = rng.randint(1, 10)
        psi = random_dnf(n, m, seed=rng.randrange(2**32))
        for levels in (0, 1, None):
            output = reduce_dnf_to_4qbf(psi, levels)
            assert all(len(c) <= 4 for c in output.instance.matrix.clauses)
            sizes = [a + b for a, b in output.recursion_trace]
            assert all(x > y for x, y in zip(sizes, sizes[1:]))
            rep = check_equivalence(psi, output.instance, var_bound=120)
            assert rep.passed, rep.summary()
            fitted.append(output.existential_count - 6 * math.log2(n + m))
            verified += 1
    assert verified == 180
    constant = max(fitted)

    # m-sweep at fixed n by repeating the last term (semantics preserved)
    base = random_dnf(6, 5, seed=424242)
    counts = []
    sweep = [5, 8, 12, 16, 20, 26, 30, 34]
    for m in sweep:
        padded = DnfFormula(base.terms + base.terms[-1:] * (m - len(base.terms)), base.num_vars)
        output = reduce_dnf_to_4qbf(padded)
        counts.append(output.existential_count)
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    assert counts[-1] - counts[0] < sweep[-1] - sweep[0]
    report(
        "theorem1-reduction",
        f"{verified} verified, "
        f"fitted constant c = {constant:.2f}, sweep counts {counts}",
    )


def test_binary_and_base_encoders_exhaustive():
    """binary_clause: for every n <= 10 and i < 2^n there is exactly one
    falsifying assignment and it encodes i.  base_clause: full digit
    characterization for n <= 4, t <= 3."""
    for n in range(1, 11):
        variables = tuple(range(1, n + 1))
        for i in range(2**n):
            clause = binary_clause(i, variables)
            # each variable occurs exactly once, so the falsifier is unique
            assert {abs(l) for l in clause} == set(variables)
            assert len(clause) == n
            value = sum(1 << (n - 1 - pos) for pos, v in enumerate(variables) if -v in clause)
            assert value == i
    # independent cross-check by enumeration at small n
    for n in range(1, 7):
        variables = tuple(range(1, n + 1))
        for i in range(2**n):
            clause = binary_clause(i, variables)
            falsifiers = [
                sigma
                for sigma in all_assignments(variables)
                if all(not literal_true(lit, sigma) for lit in clause)
            ]
            assert len(falsifiers) == 1
            assert sum(1 << (n - 1 - p) for p, v in enumerate(variables) if falsifiers[0][v]) == i

    checked = 0
    for n in range(1, 5):
        for t in range(1, 4):
            tuples = [tuple(range(1 + j * n, 1 + (j + 1) * n)) for j in range(t)]
            flat = [v for tp in tuples for v in tp]
            for i in range(n**t):
                clause = base_clause(i, tuples)
                digits = []
                remainder = i
                for _ in range(t):
                    remainder, digit = divmod(remainder, n)
                    digits.append(digit)
                digits.reverse()
                for sigma in all_assignments(flat):
                    falsified = all(not literal_true(lit, sigma) for lit in clause)
                    assert falsified == all(sigma[tuples[j][digits[j]]] for j in range(t))
                checked += 1
    report("b-function", f"binary n<=10 exhaustive, base encodings checked: {checked}")


def test_solver_instrumentation():
    """Weight trace strictly decreases, depth respects the initial weight
    bound d*k^(d-1), and an all-universal clause at input is FALSE with no
    recursion at all."""
    rng = random.Random(50_005)
    inspected = searched = 0
    for instance in solver_corpus(50_006, 150, arity=3, max_k=5):
        result, stats = solve(instance)
        trace = stats.weight_trace
        assert all(a > b for a, b in zip(trace, trace[1:]))
        if stats.route == "search":
            assert len(trace) == stats.max_depth + 1
            searched += 1
        _, existential = ae_blocks(instance)
        k = len(existential)
        d = max(map(len, instance.matrix.clauses), default=1)
        assert stats.max_depth <= d * k ** (d - 1)
        inspected += 1

    certified = 0
    for _ in range(20):
        n = rng.randint(2, 6)
        k = rng.randint(1, 4)
        instance = random_forall_exists(n, k, rng.randint(1, 8), arity=3, seed=rng.randrange(2**32))
        width = rng.randint(1, min(3, n))
        blocker = F(*(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), width)))
        spiked = QbfInstance(
            instance.prefix,
            CnfMatrix(instance.matrix.clauses + (blocker,), instance.matrix.num_vars),
        )
        result, stats = solve(spiked)
        assert result is False
        assert stats.branches == 0
        assert stats.max_depth == 0
        assert stats.leaves == 1
        certified += 1
    report(
        "solver-instrumentation",
        f"{inspected} traces/depth bounds checked ({searched} searched), "
        f"{certified} universal-clause certificates",
    )


def test_end_to_end_lower_bound_pipeline():
    """20 small 3-DNFs with oracle-known validity; both reductions close to a
    QBF whose truth value equals the validity answer in all 40 runs."""
    rng = random.Random(60_006)
    runs = 0
    for _ in range(20):
        n = rng.randint(1, 5)
        m = rng.randint(1, 6)
        psi = random_dnf(n, m, seed=rng.randrange(2**32))
        expected = is_dnf_valid(psi)
        one = reduce_dnf_to_4qbf(psi)
        assert eval_qbf(one.instance, var_bound=80) == expected
        runs += 1
        two = reduce_dnf_to_fe_dqbf(psi, 3)
        assert eval_qbf(two.instance, var_bound=80) == expected
        runs += 1
    assert runs == 40
    report("end-to-end-pipeline", f"{runs} closed evaluations matched DNF validity")
