import random

import pytest

from feqbf.formulas import (
    CnfMatrix,
    DnfFormula,
    EXISTS,
    FORALL,
    QbfInstance,
    normalize_prefix,
)
from feqbf import oracle
from feqbf.generate import random_forall_exists
from feqbf.oracle import (
    OracleLimitError,
    check_equivalence,
    eval_qbf,
    is_dnf_valid,
)
from feqbf.reductions import reduce_dnf_to_fe_dqbf
from oracle_helpers import cnf_satisfiable, dnf_true_under, qbf_eval_reference


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

    def test_partial_assignment(self):
        instance = make([(FORALL, (1,)), (EXISTS, (2,))], [F(1, 2)], 2)
        assert eval_qbf(instance, {1: False}) is True
        assert eval_qbf(instance, {1: True}) is True
        contradiction = make([(FORALL, (1,)), (EXISTS, (2,))], [F(1), F(2)], 2)
        assert eval_qbf(contradiction, {1: False}) is False

    def test_partial_must_respect_prefix_order(self):
        instance = make([(FORALL, (1,)), (EXISTS, (2,))], [F(1, 2)], 2)
        with pytest.raises(ValueError, match="prefix order"):
            eval_qbf(instance, {2: True})

    def test_partial_rejects_unbound_variable(self):
        instance = make([(EXISTS, (1,))], [F(1)], 1)
        with pytest.raises(ValueError, match="unbound"):
            eval_qbf(instance, {5: True})

    def test_variable_bound_is_enforced(self):
        instance = make([(EXISTS, tuple(range(1, 26)))], [F(1)], 25)
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
            # Pre-assign an outermost stretch of the prefix.
            order = instance.prefix_vars()
            partial = {v: rng.random() < 0.5 for v in order[: rng.randint(0, len(order))]}
            assert eval_qbf(instance, partial) == qbf_eval_reference(instance, partial), (
                instance,
                partial,
            )

    def test_tautological_clauses_are_satisfied(self):
        # x | -x holds whoever picks x, and is not a unit clause.
        assert eval_qbf(make([(FORALL, (1,))], [F(1, -1)], 1)) is True
        assert eval_qbf(make([(EXISTS, (1,))], [F(1, -1), F(-1)], 1)) is True
        # Propagating (-2) first leaves 1 | -1 of the wider tautology.
        wider = make([(EXISTS, (2,)), (FORALL, (1,))], [F(1, -1, 2), F(-2)], 2)
        assert eval_qbf(wider) is True
        # So does fixing 2 false in the partial assignment.
        fixed = make([(FORALL, (2, 1))], [F(1, -1, 2)], 2)
        assert eval_qbf(fixed, {2: False}) is True

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
        assert len(limited) <= 3  # the fixing pass and two rounds of units

    def test_universal_unit_under_outer_existential(self, limited):
        instance = make([(EXISTS, tuple(range(1, 41))), (FORALL, (41,))], self.CHAIN + [F(41)], 41)
        assert eval_qbf(instance, var_bound=64) is False
        assert len(limited) == 1  # the fixing pass only


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
        formula = DnfFormula((F(1),), 25)
        with pytest.raises(OracleLimitError):
            is_dnf_valid(formula)


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
        # psi's x1 plays instance variable 2, x2 plays variable 1
        psi = DnfFormula((F(1, -2),), 2)
        phi = make([(FORALL, (1, 2)), (EXISTS, (3,))], [F(2), F(-1), F(3)], 3)
        assert not check_equivalence(psi, phi).passed
        assert check_equivalence(psi, phi, x_map=(2, 1)).passed

    def test_explicit_map_matches_per_assignment_reference(self):
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
            phi = QbfInstance(prefix, CnfMatrix(tuple(clauses), total))
            psi = DnfFormula(tuple(random_clauses(rng, n, rng.randint(0, 4))), n)
            expected = []
            for encoding in range(1 << n):
                bits = [bool(encoding >> i & 1) for i in range(n)]
                psi_true = dnf_true_under(psi.terms, {i + 1: b for i, b in enumerate(bits)})
                if psi_true != qbf_eval_reference(phi, dict(zip(x_map, bits))):
                    expected.append(encoding)
            report = check_equivalence(psi, phi, x_map=x_map)
            assert report.mismatch_count == len(expected), (psi, phi, x_map)
            assert report.mismatch_encodings() == tuple(expected), (psi, phi, x_map)
            checked += 1

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

    def test_explicit_map_validation(self):
        psi = DnfFormula((F(1, 2),), 2)
        phi = make([(FORALL, (1, 2)), (EXISTS, (3,))], [F(1, 2, 3)], 3)
        with pytest.raises(ValueError, match="distinct"):
            check_equivalence(psi, phi, x_map=(1, 1))
        with pytest.raises(ValueError, match="outermost"):
            check_equivalence(psi, phi, x_map=(1, 3))

    def test_report_serialization(self):
        psi = DnfFormula((F(1),), 1)
        phi = make([(FORALL, (1,)), (EXISTS, (2,))], [F(2), F(-2)], 2)
        report = check_equivalence(psi, phi)
        assert "FAILED" in report.summary()
        assert report.to_csv() == "sigma_encoding\n1\n"
        passing = check_equivalence(psi, make([(FORALL, (1,)), (EXISTS, (2,))], [F(1, 2), F(1, -2)], 2))
        assert "PASSED" in passing.summary()
        assert passing.to_csv() == "sigma_encoding\n"
