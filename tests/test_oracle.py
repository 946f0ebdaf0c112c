import gc
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from feqbf.formulas import (
    CnfMatrix,
    DnfFormula,
    EXISTS,
    FORALL,
    QbfInstance,
    apply_assignment_cnf,
    normalize_prefix,
)
from feqbf import oracle
from feqbf.generate import random_dnf, random_forall_exists
from feqbf.oracle import (
    OracleLimitError,
    check_equivalence,
    eval_qbf,
    is_dnf_valid,
)
from feqbf.qdimacs import parse_qdimacs
from feqbf.reductions import reduce_dnf_to_4qbf, reduce_dnf_to_fe_dqbf
from oracle_helpers import (
    cnf_satisfiable,
    dnf_true_under,
    dnf_valid_reference,
    falsifying_table_reference,
    qbf_eval_reference,
)


def F(*lits):
    return frozenset(lits)


def make(prefix, clauses, num_vars):
    return QbfInstance(normalize_prefix(prefix), CnfMatrix(tuple(clauses), num_vars))


def random_clauses(rng, n, count, widths=None, tautologies=0.0):
    """Random clauses over 1..n.  A width is drawn from ``widths`` (capped at
    n), or uniformly from 1..min(3, n) without it.  With probability
    ``tautologies`` a clause also gets the negation of its first literal."""
    clauses = []
    for _ in range(count):
        width = rng.randint(1, min(3, n)) if widths is None else min(rng.choice(widths), n)
        vars_ = rng.sample(range(1, n + 1), width)
        clause = [v if rng.random() < 0.5 else -v for v in vars_]
        if tautologies and rng.random() < tautologies:
            clause.append(-clause[0])
        clauses.append(F(*clause))
    return clauses


def random_mixed_qbf(rng, max_vars=9, max_clauses=10, widths=None, tautologies=0.0):
    n = rng.randint(1, max_vars)
    quants = [rng.choice((FORALL, EXISTS)) for _ in range(n)]
    clauses = random_clauses(rng, n, rng.randint(1, max_clauses), widths, tautologies)
    prefix = normalize_prefix([(q, (v,)) for v, q in zip(range(1, n + 1), quants)])
    return QbfInstance(prefix, CnfMatrix(tuple(clauses), n))


# Unit and binary clauses are what propagation acts on.
UNIT_HEAVY = (1, 1, 2, 2, 2, 3)


def mapped_first(prefix, x_map):
    """``prefix`` with ``x_map``, variables of its outermost universal block,
    moved to the front of that block in order; check_equivalence then maps
    source variable i to ``x_map[i - 1]``."""
    rest = [v for v in prefix[0].vars if v not in x_map]
    return normalize_prefix([(FORALL, (*x_map, *rest)), *prefix[1:]])


def reference_mismatches(psi, phi, x_map):
    """The encodings of the assignments to psi's variables on which psi and
    phi, with source variable i fixed at ``x_map[i - 1]``, disagree, by the
    unpruned reference evaluator."""
    expected = []
    for encoding in range(1 << psi.num_vars):
        bits = [bool(encoding >> i & 1) for i in range(psi.num_vars)]
        psi_true = dnf_true_under(psi.terms, {i + 1: b for i, b in enumerate(bits)})
        if psi_true != qbf_eval_reference(phi, dict(zip(x_map, bits))):
            expected.append(encoding)
    return tuple(expected)


class TestEvalQbf:
    def test_forall_exists_true(self):
        instance = make([(FORALL, (1,)), (EXISTS, (2,))], [F(2, 1), F(-2, -1)], 2)
        assert eval_qbf(instance) is True

    def test_contradiction_false(self):
        instance = make([(EXISTS, (1,))], [F(1), F(-1)], 1)
        assert eval_qbf(instance) is False

    def test_two_universals_one_existential_false(self):
        # y1=0, y2=0 leaves (x) and (-x)
        instance = make(
            [(FORALL, (1, 2)), (EXISTS, (3,))], [F(3, 1), F(-3, 2)], 3
        )
        assert eval_qbf(instance) is False

    def test_variable_bound_is_enforced(self):
        # 25 variables, each occurring in a clause.
        instance = make([(EXISTS, tuple(range(1, 26)))], [F(v) for v in range(1, 26)], 25)
        with pytest.raises(OracleLimitError):
            eval_qbf(instance)
        assert eval_qbf(instance, var_bound=25) is True

    def test_all_existential_prefix_equals_sat(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(1, 12)
            m = rng.randint(1, 12)
            instance = random_forall_exists(0, n, m, arity=3, seed=rng.randrange(2**32))
            expected = cnf_satisfiable(instance.matrix.clauses, range(1, n + 1))
            assert eval_qbf(instance) == expected

    def test_matches_reference_game_tree(self):
        rng = random.Random(6)
        for _ in range(40):
            instance = random_mixed_qbf(rng, max_vars=7)
            assert eval_qbf(instance) == qbf_eval_reference(instance)

    def test_matches_reference_on_unit_heavy_instances(self):
        rng = random.Random(8)
        for _ in range(1200):
            instance = random_mixed_qbf(rng, widths=UNIT_HEAVY, tautologies=0.1)
            assert eval_qbf(instance) == qbf_eval_reference(instance), instance

    def test_tautological_clauses_are_satisfied(self):
        # x | -x holds whoever picks x, and is not a unit clause.
        assert eval_qbf(make([(FORALL, (1,))], [F(1, -1)], 1)) is True
        assert eval_qbf(make([(EXISTS, (1,))], [F(1, -1), F(-1)], 1)) is True
        # Propagating (-2) first leaves 1 | -1 of the wider tautology.
        wider = make([(EXISTS, (2,)), (FORALL, (1,))], [F(1, -1, 2), F(-2)], 2)
        assert eval_qbf(wider) is True

    def test_weakening_exists_to_forall_is_antitone(self):
        rng = random.Random(7)
        checked = 0
        while checked < 200:
            instance = random_mixed_qbf(rng)
            sequence = [(v, b.quantifier) for b in instance.prefix for v in b.vars]
            existentials = [v for v, q in sequence if q == EXISTS]
            if not existentials:
                continue
            flip = rng.choice(existentials)
            flipped_prefix = normalize_prefix(
                [(FORALL if v == flip else q, (v,)) for v, q in sequence]
            )
            flipped = QbfInstance(flipped_prefix, instance.matrix)
            if not eval_qbf(instance):
                assert not eval_qbf(flipped)
            checked += 1


class TestUnitPropagation:
    CHAIN = [F(i, i + 1) for i in range(1, 40)]  # satisfiable in many ways

    @pytest.fixture
    def limited(self, monkeypatch):
        """Make more than 1000 assignment passes fail the test."""
        calls = []
        original = oracle._assign_bits

        def counting(*args):
            calls.append(args)
            if len(calls) > 1000:
                raise AssertionError("more than 1000 assignment passes")
            return original(*args)

        monkeypatch.setattr(oracle, "_assign_bits", counting)
        return calls

    def test_existential_units_refute_without_search(self, limited):
        clauses = self.CHAIN + [F(41), F(-41, 42), F(-42)]
        instance = make([(EXISTS, tuple(range(1, 43)))], clauses, 42)
        assert eval_qbf(instance, var_bound=64) is False
        assert len(limited) <= 2  # two rounds of units

    def test_universal_unit_under_outer_existential(self, limited):
        instance = make([(EXISTS, tuple(range(1, 41))), (FORALL, (41,))], self.CHAIN + [F(41)], 41)
        assert eval_qbf(instance, var_bound=64) is False
        assert len(limited) == 0  # refuted before any assignment pass


class TestGame:
    def test_only_empty_clauses_are_false_and_return(self):
        # A child process, so that a hang fails the test at the timeout
        # instead of stalling the suite.
        root = Path(__file__).resolve().parents[1]
        completed = subprocess.run(
            [sys.executable, "-c",
             "from feqbf.oracle import _game; "
             "print(_game([(0, 0)], 0, 0), _game([(0, 0), (0, 0)], 1, 0))"],
            cwd=root,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.split() == ["False", "False"]

    def test_empty_clause_beside_others_is_false(self):
        assert oracle._game([(0, 0), (0b1, 0)], 0, 0) is False
        assert oracle._game([(0, 0), (0b11, 0)], 0b1, 0) is False


class TestSatisfyingSets:
    def test_matches_clause_evaluation(self):
        # Each bit of each set against the clause evaluated under that
        # assignment, with the window shifted above some bits left unused.
        rng = random.Random(41)
        for width in range(0, 9):
            shift = rng.randint(0, 3)
            masks = [(0, 0)]
            for _ in range(6):
                pos = neg = 0
                for i in rng.sample(range(width), rng.randint(0, min(3, width))):
                    if rng.random() < 0.5:
                        pos |= 1 << (shift + i)
                    else:
                        neg |= 1 << (shift + i)
                masks.append((pos, neg))
            for (pos, neg), satisfied in zip(masks, oracle.satisfying_sets(masks, shift, width)):
                assert satisfied >> (1 << width) == 0
                for tau in range(1 << width):
                    value = tau << shift
                    assert (satisfied >> tau & 1) == bool(value & pos or ~value & neg)

    def test_tautology_is_every_assignment(self):
        assert oracle.satisfying_sets([(0b1, 0b1)], 0, 5) == [(1 << 32) - 1]

    def test_sets_intersect(self):
        assert oracle.sets_intersect([]) is True
        assert oracle.sets_intersect([0]) is False
        assert oracle.sets_intersect([0b0110, 0b1100]) is True
        assert oracle.sets_intersect([0b0110, 0b1001]) is False

    def test_width_above_the_cap_raises(self):
        with pytest.raises(ValueError, match="TABLE_BITS"):
            oracle.satisfying_sets([(0b1, 0)], 0, oracle.TABLE_BITS + 1)
        assert len(oracle.satisfying_sets([(0b1, 0)], 0, oracle.TABLE_BITS)) == 1


class TestIsDnfValid:
    def test_tautology(self):
        assert is_dnf_valid(DnfFormula((F(1), F(-1)), 1)) is True

    def test_single_term_not_valid(self):
        assert is_dnf_valid(DnfFormula((F(1, 2),), 2)) is False

    def test_three_term_cover(self):
        formula = DnfFormula((F(1, 2), F(-1), F(1, -2)), 2)
        assert is_dnf_valid(formula) is True

    def test_empty_term_makes_valid(self):
        assert is_dnf_valid(DnfFormula((F(1, 2), F()), 2)) is True

    def test_no_terms_is_invalid(self):
        assert is_dnf_valid(DnfFormula((), 3)) is False

    def test_bound(self):
        # Only the variables that occur in some term count: 25 of them raise,
        # while 30 declared and 2 used do not.
        formula = DnfFormula((F(*range(1, 26)),), 25)
        with pytest.raises(OracleLimitError):
            is_dnf_valid(formula)
        assert is_dnf_valid(DnfFormula((F(1), F(-1)), 30)) is True

    def test_sparse_invalid_at_the_bound(self):
        # Every term needs x1, so x1 = False falsifies them all.
        rng = random.Random(24)
        terms = [
            F(1, *(v if rng.random() < 0.5 else -v for v in rng.sample(range(2, 25), 2)))
            for _ in range(8)
        ]
        assert is_dnf_valid(DnfFormula(tuple(terms), 24)) is False


def random_dnf_terms(rng, n):
    """Zero to twelve terms over 1..n, some of them empty or contradictory."""
    terms = random_clauses(rng, n, rng.randint(0, 12), tautologies=0.1) if n else []
    return [F() if rng.random() < 0.05 else term for term in terms]


class TestDnfAgainstReference:
    def test_is_dnf_valid_matches_reference(self):
        rng = random.Random(16)
        for _ in range(400):
            n = rng.randint(0, 10)
            terms = random_dnf_terms(rng, n)
            expected = dnf_valid_reference(terms, range(1, n + 1))
            assert is_dnf_valid(DnfFormula(tuple(terms), n)) is expected, (terms, n)

    def test_falsifying_table_matches_reference(self):
        rng = random.Random(61)
        for _ in range(400):
            n = rng.randint(0, 10)
            terms = random_dnf_terms(rng, n)
            variables = rng.sample(range(1, n + 1), n)  # any order of the bits
            expected = falsifying_table_reference(terms, variables)
            assert oracle.falsifying_table(terms, variables) == expected, (terms, variables)

    @pytest.mark.parametrize("n", [17, 18, 20])
    def test_chunked_falsifying_table_matches_reference(self, n):
        # Above 16 variables the table is built in chunks over the low 16
        # bits, one per assignment to the high ones.  Random terms mix low and
        # high literals; one term has high literals only, one both kinds, and
        # two are contradictory.  With the empty term no assignment is left.
        rng = random.Random(f"chunks-{n}")
        variables = list(range(1, n + 1))
        terms = random_clauses(rng, n, 12)
        terms += [F(*range(17, n + 1)), F(-n, 2), F(3, -3), F(n, -n, 1)]
        expected = falsifying_table_reference(terms, variables)
        assert 0 < expected < (1 << (1 << n)) - 1
        assert oracle.falsifying_table(terms, variables) == expected
        terms.insert(0, F())
        assert oracle.falsifying_table(terms, variables) == falsifying_table_reference(terms, variables) == 0


class TestCheckEquivalence:
    def test_matching_pair_passes(self):
        psi = DnfFormula((F(1),), 1)
        phi = make([(FORALL, (1,)), (EXISTS, (2,))], [F(1, 2), F(1, -2)], 2)
        report = check_equivalence(psi, phi, mode="forall_exists")
        assert report.passed
        assert report.total_assignments == 2
        assert report.mismatches == ()

    def test_constant_false_right_side_fails_at_one(self):
        psi = DnfFormula((F(1),), 1)
        phi = make([(FORALL, (1,)), (EXISTS, (2,))], [F(2), F(-2)], 2)
        report = check_equivalence(psi, phi)
        assert not report.passed
        assert report.mismatch_count == 1
        assert report.mismatches == ({1: True},)
        assert report.mismatch_encodings() == (1,)

    def test_passed_pair_agrees_on_validity(self):
        psi = DnfFormula((F(1), F(-1)), 1)
        phi = make([(FORALL, (1,)), (EXISTS, (2,))], [F(1, 2), F(-1, 2), F(1, -2), F(-1, -2)], 2)
        report = check_equivalence(psi, phi)
        if report.passed:
            assert is_dnf_valid(psi) == eval_qbf(phi)

    def test_mapping_must_cover_sources(self):
        psi = DnfFormula((F(1, 2),), 2)
        phi = make([(FORALL, (1,)), (EXISTS, (2,))], [F(1, 2)], 2)
        with pytest.raises(ValueError, match="mapping incomplete"):
            check_equivalence(psi, phi)

    def test_forall_exists_mode_rejects_inner_universals(self):
        psi = DnfFormula((F(1),), 1)
        phi = make([(FORALL, (1, 2)), (EXISTS, (3,))], [F(1, 3), F(2, 3)], 3)
        with pytest.raises(ValueError, match="forall_exists"):
            check_equivalence(psi, phi, mode="forall_exists")
        check_equivalence(psi, phi, mode="general")

    def test_unknown_mode(self):
        psi = DnfFormula((F(1),), 1)
        phi = make([(FORALL, (1,))], [F(1)], 1)
        with pytest.raises(ValueError, match="mode"):
            check_equivalence(psi, phi, mode="sideways")

    def test_mismatch_list_truncated_at_32(self):
        psi = DnfFormula((F(),), 6)  # constant True over 6 variables
        phi = make([(FORALL, tuple(range(1, 7))), (EXISTS, (7,))], [F(7), F(-7)], 7)
        report = check_equivalence(psi, phi)
        assert report.mismatch_count == 64
        assert len(report.mismatches) == 32
        assert not report.passed
        assert "64 mismatches" in report.summary()
        assert "more not shown" in report.summary()

    def test_explicit_map_permutes_sources(self):
        # psi's x1 plays instance variable 2, x2 plays variable 1, once the
        # outermost block lists 2 first.
        psi = DnfFormula((F(1, -2),), 2)
        clauses = [F(2), F(-1), F(3)]
        assert not check_equivalence(psi, make([(FORALL, (1, 2)), (EXISTS, (3,))], clauses, 3)).passed
        assert check_equivalence(psi, make([(FORALL, (2, 1)), (EXISTS, (3,))], clauses, 3)).passed

    def test_explicit_map_matches_per_assignment_reference(self):
        # Each case draws a non-positional mapping and lists it first in the
        # outermost block.
        rng = random.Random(9)
        checked = 0
        while checked < 300:
            n = rng.randint(1, 4)
            outer = rng.randint(n, n + 2)
            total = outer + rng.randint(0, 9 - outer)
            inner = [(rng.choice((FORALL, EXISTS)), (v,)) for v in range(outer + 1, total + 1)]
            prefix = normalize_prefix([(FORALL, tuple(range(1, outer + 1)))] + inner)
            x_map = tuple(rng.sample(prefix[0].vars, n))
            if x_map == prefix[0].vars[:n]:
                continue  # the positional mapping
            clauses = random_clauses(rng, total, rng.randint(1, 8), UNIT_HEAVY, 0.1)
            phi = QbfInstance(mapped_first(prefix, x_map), CnfMatrix(tuple(clauses), total))
            psi = DnfFormula(tuple(random_clauses(rng, n, rng.randint(0, 4))), n)
            expected = reference_mismatches(psi, phi, x_map)
            report = check_equivalence(psi, phi)
            assert report.mismatch_count == len(expected), (psi, phi, x_map)
            assert report.mismatch_encodings() == expected, (psi, phi, x_map)
            checked += 1

    def test_source_bits_follow_the_outer_block_by_count(self):
        # x2 occurs in no clause, and the outer block also binds universal 4:
        # x3 keeps bit 2, so phi = x1 and psi = x1 & x3 differ at x1=1, x3=0.
        psi = DnfFormula((F(1, 3),), 3)
        phi = make([(FORALL, (1, 2, 3, 4)), (EXISTS, (5,))], [F(1, 5), F(3, -5), F(-4, 1)], 5)
        expected = reference_mismatches(psi, phi, (1, 2, 3))
        assert expected == (1, 3)
        report = check_equivalence(psi, phi)
        assert (report.mismatch_count, report.mismatch_encodings()) == (2, expected)

    def test_tautological_clause_under_source_assignment(self):
        # At x1 = 0 the first clause becomes 2 | -2, which (-2) must not refute.
        psi = DnfFormula((F(1), F(-1)), 1)
        phi = make([(FORALL, (1,)), (EXISTS, (2,))], [F(1, 2, -2), F(-2)], 2)
        report = check_equivalence(psi, phi)
        assert report.passed and report.mismatch_count == 0

    def test_forall_exists_mode_accepts_variable_free_dnf(self):
        psi = DnfFormula((F(),), 0)
        phi = reduce_dnf_to_fe_dqbf(psi, 3).instance
        assert [b.quantifier for b in phi.prefix] == [EXISTS]
        report = check_equivalence(psi, phi, mode="forall_exists")
        assert report.passed and report.total_assignments == 1
        with pytest.raises(ValueError, match="forall_exists"):
            check_equivalence(psi, make([(FORALL, (1,)), (EXISTS, (2,))], [F(1, 2)], 2), mode="forall_exists")

    def test_report_serialization(self):
        psi = DnfFormula((F(1),), 1)
        phi = make([(FORALL, (1,)), (EXISTS, (2,))], [F(2), F(-2)], 2)
        report = check_equivalence(psi, phi)
        assert "FAILED" in report.summary()
        passing = check_equivalence(psi, make([(FORALL, (1,)), (EXISTS, (2,))], [F(1, 2), F(1, -2)], 2))
        assert "PASSED" in passing.summary()

    def test_unused_variables_do_not_count_against_the_bound(self):
        # 28 declared existentials never occur in a clause.
        psi = DnfFormula((F(1),), 1)
        phi = make([(FORALL, (1,)), (EXISTS, tuple(range(2, 31)))], [F(1, 2), F(1, -2)], 30)
        report = check_equivalence(psi, phi, mode="forall_exists")
        assert report.passed and report.total_assignments == 2

    @pytest.mark.parametrize("mode", ["general", "forall_exists"])
    def test_outer_block_of_unused_free_variables_is_ignored(self, mode):
        # The file binds variable 4, which no clause names, in an outer
        # existential block; solve reads past that block.
        phi = parse_qdimacs("p cnf 4 3\ne 4 0\na 1 2 0\ne 3 0\n1 3 0\n1 -3 0\n2 0\n")
        assert [(b.quantifier, b.vars) for b in phi.prefix][0] == (EXISTS, (4,))
        assert check_equivalence(DnfFormula((F(1, 2),), 2), phi, mode=mode).passed
        report = check_equivalence(DnfFormula((F(1),), 2), phi, mode=mode)
        assert report.mismatches == ({1: True, 2: False},)

    def test_existential_outer_block_leaves_the_mapping_incomplete(self):
        psi = DnfFormula((F(1),), 1)
        phi = make([(EXISTS, (2,)), (FORALL, (1,))], [F(1, 2)], 2)
        with pytest.raises(ValueError, match="^variable mapping incomplete: the QBF's outermost block must be universal$"):
            check_equivalence(psi, phi)

    def test_occurring_variables_over_the_bound_raise(self):
        psi = DnfFormula((F(1), F(-1)), 1)  # phi is true at both values of x1
        clauses = [F(1, v) for v in range(2, 27)]
        phi = make([(FORALL, (1,)), (EXISTS, tuple(range(2, 27)))], clauses, 26)
        with pytest.raises(OracleLimitError, match="25 quantified variables remain"):
            check_equivalence(psi, phi, mode="forall_exists")
        assert check_equivalence(psi, phi, mode="forall_exists", var_bound=25).passed


def shared_residual_pair(rng, forall_exists, positional):
    """A random psi/phi pair whose clauses draw their non-source parts from a
    pool of three, so several clauses share one residual; the empty part in
    the pool makes some clauses source-only.  Returns psi, phi and the
    variables of phi that psi's variables map to: the first of the outermost
    block, or, unless ``positional``, a random choice of them that phi's
    outermost block then lists first."""
    n = rng.randint(1, 4)
    outer = n if forall_exists else rng.randint(n, n + 2)
    total = outer + rng.randint(1, 8 - outer)
    if forall_exists:
        inner = [(EXISTS, tuple(range(outer + 1, total + 1)))]
    else:
        inner = [(rng.choice((FORALL, EXISTS)), (v,)) for v in range(outer + 1, total + 1)]
    prefix = normalize_prefix([(FORALL, tuple(range(1, outer + 1)))] + inner)
    x_map = prefix[0].vars[:n] if positional else tuple(rng.sample(prefix[0].vars, n))
    prefix = mapped_first(prefix, x_map)
    others = [v for v in range(1, total + 1) if v not in x_map]

    def clause_over(variables):
        return F(*(v if rng.random() < 0.5 else -v for v in variables))

    pool = [frozenset()]
    pool += [clause_over(rng.sample(others, rng.randint(1, min(2, len(others))))) for _ in range(2)]
    clauses = [
        clause_over(rng.sample(x_map, rng.randint(1, min(2, n)))) | rng.choice(pool)
        for _ in range(rng.randint(2, 9))
    ]
    phi = QbfInstance(prefix, CnfMatrix(tuple(clauses), total))
    psi = DnfFormula(tuple(random_clauses(rng, n, rng.randint(0, 4))), n)
    return psi, phi, x_map


def check_against_reference(mode, positional):
    """Run check_equivalence on 150 random shared-residual pairs and compare
    each report with the per-assignment reference."""
    rng = random.Random(f"{mode}:{positional}")
    for _ in range(150):
        psi, phi, x_map = shared_residual_pair(rng, mode == "forall_exists", positional)
        expected = reference_mismatches(psi, phi, x_map)
        report = check_equivalence(psi, phi, mode)
        assert report.mismatch_count == len(expected), (psi, phi, x_map)
        assert report.mismatch_encodings() == expected, (psi, phi, x_map)


def surviving_residual_sets(psi, phi):
    """The distinct clause sets that the source assignments leave without an
    emptied clause, computed clause by clause."""
    sources = phi.prefix[0].vars[: psi.num_vars]
    surviving = set()
    for encoding in range(1 << psi.num_vars):
        sigma = {v: bool(encoding >> i & 1) for i, v in enumerate(sources)}
        clauses = apply_assignment_cnf(phi.matrix, sigma).clauses
        if frozenset() not in clauses:
            surviving.add(frozenset(clauses))
    return surviving


class TestSharedResidualGames:
    """check_equivalence decides phi from truth tables when no residual bit is
    universal and at most ``TABLE_BITS`` of them occur, and by one game per
    distinct residual set otherwise.  These tests pin its answers on both
    paths and which path runs."""

    @pytest.mark.parametrize("mode", ["general", "forall_exists"])
    @pytest.mark.parametrize("positional", [True, False])
    def test_matches_per_assignment_reference(self, monkeypatch, mode, positional):
        # Every pair has at most 8 variables, so the forall_exists pairs take
        # the table path and play no game; the general ones take it when no
        # residual is universal.
        if mode == "forall_exists":
            monkeypatch.setattr(oracle, "_game", None)
        check_against_reference(mode, positional)

    @pytest.mark.parametrize("mode", ["general", "forall_exists"])
    @pytest.mark.parametrize("positional", [True, False])
    def test_matches_per_assignment_reference_by_games(self, monkeypatch, mode, positional):
        monkeypatch.setattr(oracle, "TABLE_BITS", -1)
        monkeypatch.setattr(oracle, "satisfying_sets", None)  # the table path would fail
        check_against_reference(mode, positional)

    def test_one_root_game_per_distinct_residual_set(self, monkeypatch):
        psi = random_dnf(10, 20, seed=11)
        phi = reduce_dnf_to_fe_dqbf(psi, 3).instance
        monkeypatch.setattr(oracle, "TABLE_BITS", -1)
        root_games = []
        original = oracle._game

        def counting(clauses, universal, index):
            if index == psi.num_vars:
                root_games.append(clauses)
            return original(clauses, universal, index)

        monkeypatch.setattr(oracle, "_game", counting)
        assert check_equivalence(psi, phi, mode="forall_exists").passed
        assert len(root_games) == len(surviving_residual_sets(psi, phi)) == 267
        assert len(root_games) < 1 << psi.num_vars

    def test_table_path_builds_the_residual_tables_once(self, monkeypatch):
        # Theorem 2 gives forall 10 exists 14: the table path, with no game,
        # over the same 267 residual sets that the game path plays.
        psi = random_dnf(10, 20, seed=11)
        phi = reduce_dnf_to_fe_dqbf(psi, 3).instance
        assert len(surviving_residual_sets(psi, phi)) == 267
        monkeypatch.setattr(oracle, "_game", None)
        builds = []
        original = oracle.satisfying_sets
        monkeypatch.setattr(
            oracle,
            "satisfying_sets",
            lambda masks, shift, width: builds.append((shift, width)) or original(masks, shift, width),
        )
        assert check_equivalence(psi, phi, mode="forall_exists").passed
        assert builds == [(10, 14)]


def wide_pair(rng, n):
    """A random psi/phi pair over n source variables for the block walk: phi
    is forall x1..xn exists over 1-3 more variables, and each clause joins a
    source part of 0-3 literals to a residual drawn from a pool of three
    nonempty parts and, with sources, the empty part.  Parts of 0 literals
    are rare, as one that meets the empty residual makes phi False
    everywhere.  psi has 0-6 random terms, and sometimes the empty term."""
    total = n + rng.randint(1, 3)
    inner = tuple(range(n + 1, total + 1))
    outer = [(FORALL, tuple(range(1, n + 1)))] if n else []
    prefix = normalize_prefix(outer + [(EXISTS, inner)])

    def clause_over(variables):
        return F(*(v if rng.random() < 0.5 else -v for v in variables))

    # With no sources the empty part would only make the empty clause.
    pool = [frozenset()] if n else []
    pool += [clause_over(rng.sample(inner, rng.randint(1, min(2, len(inner))))) for _ in range(3)]
    widths = rng.choices((0, 1, 2, 3), (1, 5, 7, 7), k=rng.randint(1, 12))
    clauses = [
        clause_over(rng.sample(range(1, n + 1), min(width, n))) | rng.choice(pool)
        for width in widths
    ]
    terms = random_clauses(rng, n, rng.randint(0, 6)) if n else []
    if rng.random() < 0.2:
        terms.append(frozenset())
    return DnfFormula(tuple(terms), n), QbfInstance(prefix, CnfMatrix(tuple(clauses), total))


def cut_pair(rng, n):
    """A random psi/phi pair for the walk's cut and the table path's
    projection.  phi is forall x1..xn exists over 2-4 more variables, of
    which 1-3, at random places, occur only in clauses without a source
    literal.  Each other clause joins a source part of 1-3 literals over
    neighbouring variables to a residual over the remaining variables or to
    the empty residual; with n > 1, a part over x1 and a variable above
    n // 2 sometimes joins them, which spans every level the cut may take."""
    inner = list(range(n + 1, n + rng.randint(2, 4) + 1))
    free = rng.sample(inner, rng.randint(1, len(inner) - 1))
    bearing = [v for v in inner if v not in free]
    prefix = normalize_prefix([(FORALL, tuple(range(1, n + 1))), (EXISTS, tuple(inner))])

    def clause_over(variables):
        return F(*(v if rng.random() < 0.5 else -v for v in variables))

    pool = [frozenset()]
    pool += [clause_over(rng.sample(bearing, rng.randint(1, min(2, len(bearing))))) for _ in range(3)]
    clauses = []
    for _ in range(rng.randint(2, 10)):
        start = rng.randint(1, n)
        near = range(start, min(start + rng.choices((0, 1, 2), (4, 2, 1))[0], n) + 1)
        clauses.append(clause_over(rng.sample(near, rng.randint(1, len(near)))) | rng.choice(pool))
    if n > 1 and rng.random() < 0.3:
        clauses.append(clause_over((1, rng.randint(n // 2 + 1, n))) | rng.choice(pool))
    for _ in range(rng.randint(1, 3)):
        variables = rng.sample(free, rng.randint(1, len(free)))
        clauses.append(clause_over(variables + rng.sample(bearing, rng.randint(0, 1))))
    rng.shuffle(clauses)
    terms = random_clauses(rng, n, rng.randint(0, 6))
    return DnfFormula(tuple(terms), n), QbfInstance(prefix, CnfMatrix(tuple(clauses), inner[-1]))


class TestBlockWalk:
    """check_equivalence builds both truth tables by one walk over blocks of
    source assignments and reports the lowest set bits of their XOR."""

    def test_matches_per_assignment_reference_at_larger_n(self, monkeypatch):
        rng = random.Random("block-walk")
        pairs = [wide_pair(rng, 0) for _ in range(8)]
        pairs += [wide_pair(rng, rng.randint(6, 12)) for _ in range(24)]
        truncated = 0
        root_games = []
        original = oracle._game

        def counting(clauses, universal, index):
            if index == n:
                root_games.append(clauses)
            return original(clauses, universal, index)

        for psi, phi in pairs:
            n = psi.num_vars
            expected = reference_mismatches(psi, phi, tuple(range(1, n + 1)))
            truncated += len(expected) > oracle.MAX_MISMATCHES
            root_games.clear()
            for by_games in (False, True):
                with monkeypatch.context() as patched:
                    if by_games:
                        patched.setattr(oracle, "TABLE_BITS", -1)
                        patched.setattr(oracle, "satisfying_sets", None)
                        patched.setattr(oracle, "_game", counting)
                    else:
                        patched.setattr(oracle, "_game", None)
                    report = check_equivalence(psi, phi, mode="forall_exists")
                assert report.total_assignments == 1 << n
                assert report.mismatch_count == len(expected), (psi, phi, by_games)
                assert report.mismatch_encodings() == expected[: oracle.MAX_MISMATCHES], (psi, phi)
            # A residual set with an emptied clause is False without a game.
            assert len(root_games) == len(surviving_residual_sets(psi, phi)), (psi, phi)
        assert truncated >= 5
        assert any(frozenset() in psi.terms for psi, _ in pairs)

    def test_twenty_sources_stay_within_two_megabytes(self):
        # forall x1..x20 exists e. (x20 | e)(-x20 | -e)(x19 | e) is False
        # exactly when x20 holds and x19 does not: 2^18 of the 2^20 sources.
        psi = DnfFormula((frozenset(),), 20)
        phi = make(
            [(FORALL, tuple(range(1, 21))), (EXISTS, (21,))],
            [F(20, 21), F(-20, -21), F(19, 21)],
            21,
        )
        tracemalloc.start()
        try:
            report = check_equivalence(psi, phi, mode="forall_exists")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.mismatch_count == 2**18
        assert report.mismatch_encodings() == tuple(range(1 << 19, (1 << 19) + 32))
        assert peak < 2 * 1024 * 1024

    @pytest.mark.parametrize("reaches_cut", [False, True])
    def test_wide_rows_below_the_cut_stay_within_two_megabytes(self, reaches_cut):
        # forall x1..x20 exists e1..e16: twelve parts (xi | ei) lie below
        # every level the cut may take, and every residual table is 2^16
        # bits, 8 KB.  One row per assignment to x1..x10 would hold 8 MB of
        # tables; the rows' budget lowers the cut instead.
        low = [F(i, 20 + i) for i in range(1, 13)] + [F(19, 33, 34, 35, 36)]
        if reaches_cut:
            # False iff one of x13..x18 is, or x20, x1 and x2 all are: the
            # walk runs down to the cut along x13..x18 = 1.
            high = frozenset(range(13, 19))
            terms = (high | {20}, high | {1}, high | {2})
            clauses = [F(20, -21, -22)] + [F(i) for i in range(13, 19)] + low
        else:
            # (x20)(-x20): False everywhere, pruned at the root.
            terms, clauses = (), [F(20), F(-20)] + low
        psi = DnfFormula(terms, 20)
        phi = make([(FORALL, tuple(range(1, 21))), (EXISTS, tuple(range(21, 37)))], clauses, 36)
        tracemalloc.start()
        try:
            report = check_equivalence(psi, phi, mode="forall_exists")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 2 * 1024 * 1024

    def test_twenty_variable_falsifying_table_stays_within_two_megabytes(self):
        # The 2^20-bit table is 128 KB; it is built from sixteen 8 KB chunks,
        # and the peak counts the per-bit tables built afresh.
        oracle._bit_tables.cache_clear()
        terms = random_clauses(random.Random("chunk-memory"), 20, 40, widths=(3,))
        tracemalloc.start()
        try:
            table = oracle.falsifying_table(terms, range(1, 21))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < table < 1 << (1 << 20)
        assert peak < 2 * 1024 * 1024

    def test_all_win_cut_hides_no_mismatch(self):
        # A block is won as a whole when one residual assignment satisfies
        # every clause it can leave.  Breaking one clause of a theorem-2
        # output must still show every mismatch the reference finds.
        rng = random.Random("all-win-cut")
        failing = 0
        for n in range(6, 13):
            for _ in range(2 if n < 10 else 1):
                psi = random_dnf(n, rng.randint(2, 8 if n < 10 else 4), seed=rng.getrandbits(32))
                phi = reduce_dnf_to_fe_dqbf(psi, 3).instance
                clauses = list(phi.matrix.clauses)
                i = rng.randrange(len(clauses))
                if rng.random() < 0.5:
                    del clauses[i]
                else:
                    lit = rng.choice(sorted(clauses[i]))
                    clauses[i] = clauses[i] - {lit} | {-lit}
                broken = QbfInstance(phi.prefix, CnfMatrix(tuple(clauses), phi.matrix.num_vars))
                expected = reference_mismatches(psi, broken, tuple(range(1, n + 1)))
                report = check_equivalence(psi, broken, mode="forall_exists")
                assert report.mismatch_count == len(expected), (psi, broken)
                assert report.mismatch_encodings() == expected[: oracle.MAX_MISMATCHES], (psi, broken)
                failing += bool(expected)
        assert failing >= 5

    def test_cut_and_projection_match_reference(self, monkeypatch):
        # The walk stops at the highest level up to n // 2 that no source
        # part spans, and the table path projects out the residual variables
        # above those of every source-bearing clause, which only source-free
        # clauses use.  Such variables below one of theirs stay in the tables.
        rng = random.Random("walk-cut")
        spanning = cut = kept = projected = 0
        for _ in range(40):
            psi, phi = cut_pair(rng, rng.randint(1, 10))
            n = psi.num_vars
            expected = reference_mismatches(psi, phi, tuple(range(1, n + 1)))
            for by_games in (False, True):
                with monkeypatch.context() as patched:
                    if by_games:
                        patched.setattr(oracle, "TABLE_BITS", -1)
                        patched.setattr(oracle, "satisfying_sets", None)
                    else:
                        patched.setattr(oracle, "_game", None)
                    report = check_equivalence(psi, phi, mode="forall_exists")
                assert report.mismatch_count == len(expected), (psi, phi, by_games)
                assert report.mismatch_encodings() == expected[: oracle.MAX_MISMATCHES], (psi, phi)
            bearing, free, parts = set(), set(), []
            for clause in phi.matrix.clauses:
                sources = {abs(lit) for lit in clause if abs(lit) <= n}
                (bearing if sources else free).update(abs(lit) for lit in clause if abs(lit) > n)
                if sources:
                    parts.append((min(sources), max(sources)))
            free -= bearing
            # Level h splits x1..xh from the rest; a part over both spans it.
            spanning += all(any(low <= h < high for low, high in parts) for h in range(1, n // 2 + 1))
            cut += any(
                all(not low <= h < high for low, high in parts) and any(high <= h for _, high in parts)
                for h in range(1, n // 2 + 1)
            )
            if free and bearing and min(free) < max(bearing):
                kept += 1
            elif free:
                projected += 1
        counts = spanning, cut, kept, projected
        assert min(counts) >= 5, counts

    def test_game_path_contract(self):
        # On the game path a part's value is 0 when it empties a residual and
        # otherwise ~ids, the complement of its residual ids.  Bit sigma must
        # be set iff no part sigma falsifies is emptied and decide holds on
        # the union of their ids, and decide must see only such unions.
        rng = random.Random(61)
        checked = 0
        for _ in range(400):
            n = rng.randint(0, 8)
            parts = []
            for _ in range(rng.randint(0, 10)):
                pos = neg = 0
                for bit in rng.sample(range(n), rng.randint(0, min(n, 3))):
                    if rng.random() < 0.5:
                        pos |= 1 << bit
                    else:
                        neg |= 1 << bit
                if n and rng.random() < 0.1:
                    bit = 1 << rng.randrange(n)
                    pos, neg = pos | bit, neg | bit  # x and -x
                ids = rng.getrandbits(6)
                parts.append(((pos, neg), 0 if rng.random() < 0.1 else ~ids))
            if rng.random() < 0.3:
                parts.append(((0, 0), ~rng.getrandbits(6)))
            wins = [rng.random() < 0.7 for _ in range(64)]
            keys = []

            def decide(ids):
                keys.append(ids)
                return wins[ids]

            table = oracle._walk(parts, n, decide)
            unions = set()
            for sigma in range(1 << n):
                values = [
                    value
                    for (pos, neg), value in parts
                    if not pos & neg and not sigma & pos and sigma & neg == neg
                ]
                won = 0 not in values
                if won:
                    union = 0
                    for value in values:
                        union |= ~value
                    unions.add(union)
                    won = wins[union]
                assert (table >> sigma & 1) == won, (n, parts, sigma)
                checked += won
            assert set(keys) <= unions, (n, parts)
        assert checked > 1000

    def test_theorem_two_walk_receives_ten_bit_tables(self, monkeypatch):
        # forall 10 exists 14: the 4 split links occur only in the
        # at-least-one clauses, which have no source literal, so the walk
        # gets tables over the 10 index variables alone.
        psi = random_dnf(10, 20, seed=11)
        phi = reduce_dnf_to_fe_dqbf(psi, 3).instance
        assert [len(b.vars) for b in phi.prefix] == [10, 14]
        lengths = []
        original = oracle._walk

        def recording(parts, n, decide=None):
            lengths.extend(table.bit_length() for _, table in parts)
            return original(parts, n, decide)

        monkeypatch.setattr(oracle, "_walk", recording)
        assert check_equivalence(psi, phi, mode="forall_exists").passed
        assert 1 << 9 < max(lengths) <= 1 << 10


def test_verify_leaves_no_reference_cycles(monkeypatch):
    # Every object of a verify operation is freed by reference counting, so
    # with the cyclic collector off nothing is left for it to find: on the
    # table path (theorem 2) and the game path (theorem 1, whose selectors
    # are universal after the source: prefix A10 E2 A4 E7).
    psi2 = random_dnf(10, 20, seed=11)
    psi1 = random_dnf(10, 3, seed=5)
    games = []
    original = oracle._game

    def counting(clauses, universal, index):
        games.append(index)
        return original(clauses, universal, index)

    monkeypatch.setattr(oracle, "_game", counting)
    gc.collect()
    gc.disable()
    try:
        phi2 = reduce_dnf_to_fe_dqbf(psi2, 3).instance
        assert gc.collect() == 0
        assert check_equivalence(psi2, phi2, mode="forall_exists").passed
        assert gc.collect() == 0
        assert not games
        phi1 = reduce_dnf_to_4qbf(psi1, 1).instance
        assert [len(b.vars) for b in phi1.prefix] == [10, 2, 4, 7]
        assert gc.collect() == 0
        assert check_equivalence(psi1, phi1).passed
        assert gc.collect() == 0
        assert games
    finally:
        gc.enable()
