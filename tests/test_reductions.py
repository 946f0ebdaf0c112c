import hashlib
import math
import random
import re
import time

import pytest

from feqbf.formulas import DnfFormula, EXISTS, FORALL
from feqbf.generate import random_dnf
from feqbf.oracle import check_equivalence, eval_qbf, is_dnf_valid
from feqbf.reductions import (
    ReductionError,
    lambda_pair,
    pad_terms,
    provenance_text,
    reduce_dnf_to_4qbf,
    reduce_dnf_to_fe_dqbf,
)
from feqbf.qdimacs import emit_qdimacs


def F(*lits):
    return frozenset(lits)


class TestLambdaPair:
    def test_values(self):
        assert lambda_pair(0, 16) == (0, 0)
        assert lambda_pair(5, 16) == (1, 1)
        assert lambda_pair(15, 16) == (3, 3)

    def test_round_trip(self):
        for m in (1, 4, 16, 64, 256, 1024, 4096):
            root = math.isqrt(m)
            for i in range(m):
                j1, j2 = lambda_pair(i, m)
                assert root * j1 + j2 == i

    def test_errors(self):
        with pytest.raises(ValueError, match="square"):
            lambda_pair(0, 8)
        with pytest.raises(ValueError, match="range"):
            lambda_pair(16, 16)


class TestPadTerms:
    def test_pads_by_duplicating_last(self):
        psi = DnfFormula((F(1), F(2), F(3)), 3)
        padded = pad_terms(psi, 4)
        assert padded.terms == (F(1), F(2), F(3), F(3))

    def test_exact_size_unchanged(self):
        psi = DnfFormula((F(1), F(2)), 2)
        assert pad_terms(psi, 2) == psi

    def test_rejects_shrinking(self):
        with pytest.raises(ValueError):
            pad_terms(DnfFormula((F(1), F(2)), 2), 1)

    def test_validity_preserved(self):
        rng = random.Random(37)
        for _ in range(25):
            psi = random_dnf(rng.randint(1, 6), rng.randint(1, 8), seed=rng.randrange(2**32))
            padded = pad_terms(psi, len(psi.terms) + rng.randint(0, 5))
            assert is_dnf_valid(padded) == is_dnf_valid(psi)


def structural_checks(output, psi, max_arity):
    instance = output.instance
    assert all(len(c) <= max_arity for c in instance.matrix.clauses)
    source = tuple(range(1, psi.num_vars + 1))
    assert instance.prefix[0].quantifier == FORALL
    assert instance.prefix[0].vars[: psi.num_vars] == source
    bound = {v for b in instance.prefix for v in b.vars}
    assert bound == set(range(1, instance.matrix.num_vars + 1))
    introduced = set(output.provenance)
    assert introduced == set(range(psi.num_vars + 1, instance.matrix.num_vars + 1))
    existential = {
        v for b in instance.prefix if b.quantifier == EXISTS for v in b.vars
    }
    assert output.existential_count == len(existential - set(source))
    assert output.alternations == len(instance.prefix)


class TestTheorem2:
    def test_single_term_worked_example(self):
        psi = DnfFormula((F(1, 2),), 2)
        output = reduce_dnf_to_fe_dqbf(psi, 3)
        # r = 1: one index variable per block (ids 3 and 4)
        assert set(output.instance.matrix.clauses) == {
            F(1, -3, -4),
            F(2, -3, -4),
            F(3),
            F(4),
        }
        assert output.existential_count == 2
        assert output.alternations == 2
        report = check_equivalence(psi, output.instance, mode="forall_exists")
        assert report.passed
        structural_checks(output, psi, 3)

    def test_tautology_closes_to_true(self):
        psi = DnfFormula((F(1), F(-1)), 1)
        output = reduce_dnf_to_fe_dqbf(psi, 3)
        assert eval_qbf(output.instance) is True

    def test_nine_terms_need_no_splitting(self):
        psi = DnfFormula(tuple(F(v % 3 + 1) for v in range(9)), 3)
        output = reduce_dnf_to_fe_dqbf(psi, 3)
        assert output.existential_count == 6
        structural_checks(output, psi, 3)

    def test_splitting_keeps_two_blocks(self):
        # m = 25 forces r = 5 > d = 3, so the index clauses must be split
        psi = DnfFormula(tuple(F(1 + (i % 4)) for i in range(25)), 4)
        output = reduce_dnf_to_fe_dqbf(psi, 3)
        assert output.alternations == 2
        structural_checks(output, psi, 3)
        r = 5
        assert output.existential_count <= 2 * (3 - 1) * r

    def test_budget_bound(self):
        rng = random.Random(41)
        for d in (3, 4):
            for _ in range(10):
                psi = random_dnf(rng.randint(1, 6), rng.randint(1, 16), seed=rng.randrange(2**32))
                output = reduce_dnf_to_fe_dqbf(psi, d)
                m = len(psi.terms)
                r = math.ceil(m ** (1 / (d - 1)) - 1e-9)
                while r ** (d - 1) < m:
                    r += 1
                assert output.existential_count <= 2 * (d - 1) * r
                structural_checks(output, psi, d)

    def test_equivalence_small_corpus(self):
        rng = random.Random(43)
        for d in (3, 4):
            for _ in range(6):
                psi = random_dnf(rng.randint(1, 6), rng.randint(1, 8), seed=rng.randrange(2**32))
                output = reduce_dnf_to_fe_dqbf(psi, d)
                report = check_equivalence(psi, output.instance, mode="forall_exists", var_bound=40)
                assert report.passed, report.summary()

    def test_wide_terms_still_yield_arity_d(self):
        # each term literal gets its own clause, so term arity never matters
        psi = DnfFormula((F(1, -2, 3, 4), F(-1, 2, -3, -4)), 4)
        output = reduce_dnf_to_fe_dqbf(psi, 3)
        assert all(len(c) <= 3 for c in output.instance.matrix.clauses)
        assert check_equivalence(psi, output.instance, var_bound=40).passed

    def test_empty_terms_supported(self):
        psi = DnfFormula((F(), F(1)), 1)
        output = reduce_dnf_to_fe_dqbf(psi, 3)
        assert check_equivalence(psi, output.instance, var_bound=40).passed
        assert eval_qbf(output.instance) is True

    def test_rejects_small_arity_and_empty_source(self):
        with pytest.raises(ValueError, match="arity"):
            reduce_dnf_to_fe_dqbf(DnfFormula((F(1),), 1), 2)
        with pytest.raises(ValueError, match="term"):
            reduce_dnf_to_fe_dqbf(DnfFormula((), 1), 3)

    def test_deterministic(self):
        psi = random_dnf(5, 7, seed=99)
        first = reduce_dnf_to_fe_dqbf(psi, 3)
        second = reduce_dnf_to_fe_dqbf(psi, 3)
        assert emit_qdimacs(first.instance) == emit_qdimacs(second.instance)
        assert provenance_text(first) == provenance_text(second)


class TestTheorem1:
    def test_single_term_base_case(self):
        psi = DnfFormula((F(1),), 1)
        output = reduce_dnf_to_4qbf(psi, 20)
        assert [b.quantifier for b in output.instance.prefix] == [FORALL]
        assert output.instance.matrix.clauses == (F(1),)
        assert output.existential_count == 0
        assert eval_qbf(output.instance) is False
        assert is_dnf_valid(psi) is False

    def test_tautology_closes_to_true(self):
        psi = DnfFormula((F(1), F(-1)), 1)
        output = reduce_dnf_to_4qbf(psi, 20)
        assert eval_qbf(output.instance) is True

    def test_base_case_splits_long_clauses(self):
        psi = random_dnf(6, 4, seed=7)
        output = reduce_dnf_to_4qbf(psi, 20)
        assert all(len(c) <= 4 for c in output.instance.matrix.clauses)
        assert output.recursion_trace == ((6, 4),)
        report = check_equivalence(psi, output.instance, var_bound=80)
        assert report.passed, report.summary()
        structural_checks(output, psi, 4)

    def test_recursive_level_exercised(self):
        # n + m = 6 > 4 recurses; the cheat DNF over (z1, z2, w) has size 4
        # and lands in the base case, strictly smaller.
        psi = DnfFormula((F(1, -3, 5),), 5)
        output = reduce_dnf_to_4qbf(psi, 4)
        assert output.recursion_trace == ((5, 1), (3, 1))
        assert all(
            earlier[0] + earlier[1] > later[0] + later[1]
            for earlier, later in zip(output.recursion_trace, output.recursion_trace[1:])
        )
        report = check_equivalence(psi, output.instance, var_bound=40)
        assert report.passed, report.summary()
        structural_checks(output, psi, 4)

    def test_recursive_level_agrees_with_validity(self):
        rng = random.Random(53)
        for _ in range(8):
            n = rng.randint(4, 7)
            term_width = rng.randint(1, 3)
            vars_ = rng.sample(range(1, n + 1), term_width)
            psi = DnfFormula(
                (F(*(v if rng.random() < 0.5 else -v for v in vars_)),), n
            )
            output = reduce_dnf_to_4qbf(psi, 4)
            assert len(output.recursion_trace) == 2
            assert check_equivalence(psi, output.instance, var_bound=40).passed

    def test_rejects_non_shrinking_threshold(self):
        psi = random_dnf(6, 5, seed=11)
        with pytest.raises(ReductionError, match="raise base_threshold"):
            reduce_dnf_to_4qbf(psi, 10)

    @pytest.mark.parametrize(
        "base_threshold, message",
        [
            # Level 1 cannot shrink (75, 321), and no threshold makes its
            # base case of 75 variables enumerable.
            (160, r"stuck at \(75, 321\), and a base case of 75 variables exceeds"),
            # 396 = 75 + 321 makes level 1 the base case, of 2^75 assignments.
            (396, r"base case at level 1 has 75 variables and 321 terms"),
        ],
    )
    def test_fixed_point_raises_at_once(self, base_threshold, message):
        psi = random_dnf(16, 1024, seed=1)
        start = time.perf_counter()
        with pytest.raises(ReductionError, match=message):
            reduce_dnf_to_4qbf(psi, base_threshold)
        assert time.perf_counter() - start < 5.0

    def test_rejects_tiny_threshold_and_empty_source(self):
        with pytest.raises(ValueError, match="threshold"):
            reduce_dnf_to_4qbf(DnfFormula((F(1),), 1), 3)
        with pytest.raises(ValueError, match="term"):
            reduce_dnf_to_4qbf(DnfFormula((), 1), 20)

    def test_deterministic(self):
        psi = random_dnf(5, 6, seed=77)
        first = reduce_dnf_to_4qbf(psi, 20)
        second = reduce_dnf_to_4qbf(psi, 20)
        assert emit_qdimacs(first.instance) == emit_qdimacs(second.instance)


# SHA-256 of emit_qdimacs + provenance_text for theorem-1 outputs, as the
# per-assignment base case emitted them: (n, m, seed, base_threshold), the
# recursion trace, the existential count and the digest.
THEOREM1_DIGESTS = [
    ((16, 64, 1, 72), ((16, 64), (23, 49)), 2567,
     "6d7e0dcfc0f35c16ca4d8be3a3356fe4097fd0d483d08cb97e36378274ab9e87"),
    ((12, 3, 1, 20), ((12, 3),), 11200,
     "d76ad596e2a55ef553c5e92acda1c85d9fd8f5bd0263907d562349cb048c2bdd"),
    ((14, 2, 5, 20), ((14, 2),), 62720,
     "3587a46b3826d44f363d602ecb2b383d969eddd653827a74bff2a502eefa61ca"),
    ((7, 13, 1, 20), ((7, 13),), 52,
     "5aed1e0e5a3af7d43e44e8b9731ea8a32ae4f88644661150334c8ce3b3147c7b"),
    ((9, 17, 4, 30), ((9, 17),), 297,
     "c668cbcddff550677fafcc905fea8a252120de90ffc89cb81d66c1278c1a7ab2"),
    ((6, 8, 1, 20), ((6, 8),), 20,
     "94bb23899edcb5b33dc571a21c2c34eb0ca87bed374e92c852c45b229f257df2"),
    ((5, 20, 2, 30), ((5, 20),), 4,
     "e2e601873a94426ae02cf49123f99e8db5d282d3540358aeab2cf246cf9fcdda"),
    ((10, 40, 3, 60), ((10, 40),), 0,
     "fb728611e33092d51490e64aaf4ea3d8f8f7e791555c2d15e9bad20e5770db6e"),
]


@pytest.mark.parametrize(
    "case, trace, existential_count, digest",
    THEOREM1_DIGESTS,
    ids=["n{}-m{}-seed{}-t{}".format(*case) for case, *_ in THEOREM1_DIGESTS],
)
def test_theorem1_output_is_pinned(case, trace, existential_count, digest):
    n, m, seed, base_threshold = case
    output = reduce_dnf_to_4qbf(random_dnf(n, m, seed=seed), base_threshold)
    assert output.recursion_trace == trace
    assert output.existential_count == existential_count
    text = emit_qdimacs(output.instance) + provenance_text(output)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestProvenance:
    def test_sidecar_format(self):
        psi = DnfFormula((F(1, 2),), 2)
        output = reduce_dnf_to_fe_dqbf(psi, 3)
        lines = provenance_text(output).splitlines()
        assert lines == ["3 y1[0] 1", "4 y2[0] 1"]

    def test_recursive_roles_are_level_tagged(self):
        psi = DnfFormula((F(1, -3, 5),), 5)
        output = reduce_dnf_to_4qbf(psi, 4)
        roles = set(output.provenance.values())
        assert any(role.startswith("L0.z1") for role in roles)
        assert "L0.w" in roles

    @pytest.mark.parametrize(
        "build, some_roles",
        [
            # m = 25 at d = 3 gives r = 5 > d, so split_y roles appear.
            (
                lambda: reduce_dnf_to_fe_dqbf(DnfFormula(tuple(F(1 + i % 4) for i in range(25)), 4), 3),
                {"y1[0]", "y2[4]", "split_y1", "split_y2"},
            ),
            # One recursion level, then a base case: trace ((5, 1), (3, 1)).
            (
                lambda: reduce_dnf_to_4qbf(DnfFormula((F(1, -3, 5),), 5), 4),
                {"L0.z1[0]", "L0.z2[0]", "L0.w"},
            ),
            # Trace ((16, 64), (23, 49)): y bits, then a base case that splits.
            (
                lambda: reduce_dnf_to_4qbf(random_dnf(16, 64, seed=1), 72),
                {"L0.y[0]", "L0.z1[7]", "L0.w", "L1.split"},
            ),
        ],
        ids=["theorem2-split", "theorem1-recursing", "theorem1-to-base-23"],
    )
    def test_roles_match_their_blocks(self, build, some_roles):
        output = build()
        quantifier_of = {v: b.quantifier for b in output.instance.prefix for v in b.vars}
        roles = output.provenance
        assert some_roles <= set(roles.values())
        assert list(roles) == sorted(roles)
        for var, role in roles.items():
            selector = re.fullmatch(r"L\d+\.z[12]\[\d+\]", role)
            assert quantifier_of[var] == (FORALL if selector else EXISTS), (var, role)
