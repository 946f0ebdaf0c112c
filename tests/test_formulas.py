import dataclasses
import itertools
import math
import random

import pytest

from feqbf.formulas import (
    CnfMatrix,
    DnfFormula,
    QbfInstance,
    QuantifierBlock,
    apply_assignment_cnf,
    base_clause,
    base_clauses,
    binary_clause,
    bound_prefix,
    is_tautological,
    normalize_prefix,
    split_clause_to_arity,
)
from oracle_helpers import all_assignments, clause_falsifiers, literal_true


def F(*lits):
    return frozenset(lits)


class TestApplyAssignmentCnf:
    def test_satisfied_literal_removes_clause(self):
        matrix = CnfMatrix((F(1, 2), F(-1, 3)), 3)
        result = apply_assignment_cnf(matrix, {1: True})
        assert result.clauses == (F(3),)

    def test_empty_assignment_is_identity(self):
        matrix = CnfMatrix((F(1, 2), F(-1, 3)), 3)
        assert apply_assignment_cnf(matrix, {}) == matrix

    def test_fully_falsified_clause_becomes_empty(self):
        matrix = CnfMatrix((F(1, 2), F(-1)), 2)
        result = apply_assignment_cnf(matrix, {1: True, 2: False})
        assert result.clauses == (F(),)

    def test_composition_of_disjoint_assignments(self):
        rng = random.Random(11)
        for _ in range(50):
            num_vars = rng.randint(3, 8)
            clauses = []
            for _ in range(rng.randint(1, 10)):
                width = rng.randint(1, min(3, num_vars))
                vars_ = rng.sample(range(1, num_vars + 1), width)
                clauses.append(F(*(v if rng.random() < 0.5 else -v for v in vars_)))
            matrix = CnfMatrix(tuple(clauses), num_vars)
            split = rng.randint(0, num_vars)
            pool = rng.sample(range(1, num_vars + 1), num_vars)
            sigma1 = {v: rng.random() < 0.5 for v in pool[:split]}
            sigma2 = {v: rng.random() < 0.5 for v in pool[split:]}
            via_steps = apply_assignment_cnf(apply_assignment_cnf(matrix, sigma1), sigma2)
            at_once = apply_assignment_cnf(matrix, {**sigma1, **sigma2})
            assert via_steps == at_once

    def test_rejects_foreign_variable(self):
        with pytest.raises(ValueError):
            apply_assignment_cnf(CnfMatrix((F(1),), 1), {2: True})


class TestBinaryClause:
    def test_zero_over_one_variable(self):
        assert binary_clause(0, (1,)) == F(1)

    def test_five_over_three_variables(self):
        clause = binary_clause(5, (1, 2, 3))
        assert clause == F(-1, 2, -3)
        falsifiers = clause_falsifiers(clause, (1, 2, 3))
        assert falsifiers == [{1: True, 2: False, 3: True}]

    def test_three_over_two_variables(self):
        clause = binary_clause(3, (1, 2))
        assert clause == F(-1, -2)
        assert clause_falsifiers(clause, (1, 2)) == [{1: True, 2: True}]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_unique_falsifier_matches_big_endian_value(self, n):
        variables = tuple(range(1, n + 1))
        for i in range(2**n):
            clause = binary_clause(i, variables)
            falsifiers = clause_falsifiers(clause, variables)
            assert len(falsifiers) == 1
            value = sum(
                1 << (n - 1 - pos)
                for pos, var in enumerate(variables)
                if falsifiers[0][var]
            )
            assert value == i

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            binary_clause(8, (1, 2, 3))
        with pytest.raises(ValueError):
            binary_clause(-1, (1,))


class TestBaseClause:
    def test_single_tuple_base_case(self):
        assert base_clause(2, [(4, 5, 6)]) == F(-6)

    def test_two_tuples_of_three(self):
        # 5 in base 3 is (1, 2): first tuple holds the most significant digit
        assert base_clause(5, [(1, 2, 3), (4, 5, 6)]) == F(-2, -6)

    def test_zero_selects_first_entry_everywhere(self):
        assert base_clause(0, [(1, 2), (3, 4)]) == F(-1, -3)

    def test_digit_characterization_exhaustive(self):
        for n in range(1, 4):
            for t in range(1, 3):
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
                        expected = all(
                            sigma[tuples[j][digits[j]]] for j in range(t)
                        )
                        assert falsified == expected

    def test_two_selector_blocks_split_the_index(self):
        # Theorem 1's selection over (z1, z2) of sqrt(m) variables each picks
        # z1[i // sqrt(m)] and z2[i % sqrt(m)] for term i.
        for m in (1, 4, 16, 64, 256, 1024, 4096):
            root = math.isqrt(m)
            z1 = tuple(range(1, root + 1))
            z2 = tuple(range(root + 1, 2 * root + 1))
            for i in range(m):
                assert base_clause(i, (z1, z2)) == F(-z1[i // root], -z2[i % root])

    def test_errors(self):
        with pytest.raises(ValueError):
            base_clause(9, [(1, 2, 3), (4, 5, 6)])
        with pytest.raises(ValueError):
            base_clause(0, [(1, 2), (3,)])
        with pytest.raises(ValueError):
            base_clause(0, [])

    def test_base_clauses_list_every_index_in_order(self):
        for tuples in ([(4, 5, 6)], [(1, 2, 3), (4, 5, 6)], [(1, 2), (3, 4), (5, 6)]):
            size = len(tuples[0]) ** len(tuples)
            assert base_clauses(tuples) == [base_clause(i, tuples) for i in range(size)]

    def test_base_clauses_check_the_tuples_as_base_clause_does(self):
        for tuples, message in (
            ([(1, 2), (3,)], "all tuples must have the same size"),
            ([], "at least one variable tuple is required"),
        ):
            for build in (lambda: base_clause(0, tuples), lambda: base_clauses(tuples)):
                with pytest.raises(ValueError, match=message):
                    build()


def _chain_equisatisfiable(original, pieces, fresh):
    """For every assignment to the original literals, the chain must be
    satisfiable by some assignment to the fresh link variables iff the
    original clause is satisfied."""
    original_vars = sorted({abs(l) for l in original})
    for sigma in all_assignments(original_vars):
        original_sat = any(literal_true(lit, sigma) for lit in original)
        chain_sat = False
        for extension in all_assignments(fresh):
            full = {**sigma, **extension}
            if all(any(literal_true(l, full) for l in piece) for piece in pieces):
                chain_sat = True
                break
        assert chain_sat == original_sat


class TestSplitClause:
    def test_short_clause_unchanged(self):
        pieces, fresh = split_clause_to_arity(F(1, 2, 3), 4, iter(range(10, 20)))
        assert pieces == [F(1, 2, 3)]
        assert fresh == []

    def test_five_literals_arity_four(self):
        clause = F(1, 2, 3, 4, 5)
        pieces, fresh = split_clause_to_arity(clause, 4, iter(range(10, 20)))
        assert fresh == [10]
        assert pieces == [F(1, 2, 3, 10), F(-10, 4, 5)]
        _chain_equisatisfiable(clause, pieces, fresh)

    def test_seven_literals_arity_three(self):
        # Each application replaces d-1 literals by one link, so a 7-literal
        # clause needs 4 links before every piece fits in arity 3.
        clause = F(1, 2, 3, 4, 5, 6, 7)
        pieces, fresh = split_clause_to_arity(clause, 3, iter(range(10, 20)))
        assert len(fresh) == 4
        assert all(len(piece) <= 3 for piece in pieces)
        _chain_equisatisfiable(clause, pieces, fresh)

    def test_rejects_small_arity(self):
        with pytest.raises(ValueError):
            split_clause_to_arity(F(1, 2, 3, 4), 2, iter(range(10, 20)))

    @pytest.mark.parametrize("size,d", [(6, 3), (8, 4), (10, 4), (9, 5), (10, 3)])
    def test_equisatisfiable_with_mixed_signs(self, size, d):
        rng = random.Random(size * 31 + d)
        clause = F(*(v if rng.random() < 0.5 else -v for v in range(1, size + 1)))
        pieces, fresh = split_clause_to_arity(clause, d, iter(itertools.count(100)))
        assert all(len(piece) <= d for piece in pieces)
        _chain_equisatisfiable(clause, pieces, fresh)


class TestPrefixAndInstances:
    def test_normalize_merges_and_drops(self):
        prefix = normalize_prefix([("a", (1,)), ("a", (2,)), ("e", ()), ("e", (3,))])
        assert prefix == (QuantifierBlock("a", (1, 2)), QuantifierBlock("e", (3,)))

    def test_instance_rejects_double_binding(self):
        with pytest.raises(ValueError):
            QbfInstance(
                (QuantifierBlock("a", (1,)), QuantifierBlock("e", (1,))),
                CnfMatrix((F(1),), 1),
            )

    def test_instance_rejects_unbound_matrix_variable(self):
        with pytest.raises(ValueError):
            QbfInstance((QuantifierBlock("a", (1,)),), CnfMatrix((F(2),), 2))

    def test_instance_rejects_non_alternating_prefix(self):
        with pytest.raises(ValueError):
            QbfInstance(
                (QuantifierBlock("a", (1,)), QuantifierBlock("a", (2,))),
                CnfMatrix((), 2),
            )

    def test_matrix_rejects_out_of_range_literal(self):
        with pytest.raises(ValueError):
            CnfMatrix((F(3),), 2)
        with pytest.raises(ValueError):
            DnfFormula((F(0),), 2)

    def test_tautology_detection(self):
        assert is_tautological(F(1, -1, 2))
        assert not is_tautological(F(1, 2))
        assert not is_tautological(F())
        assert is_tautological(F(-3, 3))


class TestValidationMessages:
    """Where several literals are at fault, the message names the first in
    clause order, each clause read in its frozenset's iteration order."""

    @pytest.mark.parametrize("cls,what", [(CnfMatrix, "a clause"), (DnfFormula, "a term")])
    def test_literal_zero(self, cls, what):
        with pytest.raises(ValueError) as caught:
            cls((F(1), F(0)), 2)
        assert str(caught.value) == f"{what} may not contain the literal 0"

    @pytest.mark.parametrize("cls", [CnfMatrix, DnfFormula])
    @pytest.mark.parametrize("lit", [3, -3])
    def test_variable_beyond_the_count(self, cls, lit):
        with pytest.raises(ValueError) as caught:
            cls((F(1, 2), F(lit)), 2)
        assert str(caught.value) == "variable 3 exceeds declared count 2"

    @pytest.mark.parametrize("cls", [CnfMatrix, DnfFormula])
    @pytest.mark.parametrize(
        "rows,message",
        [
            ((F(1, 2), F(5, -7)), "variable 7 exceeds declared count 4"),
            ((F(5, -7, 9, -11),), "variable 7 exceeds declared count 4"),
            ((F(5), F(0)), "variable 5 exceeds declared count 4"),
            ((F(0, 5),), "may not contain the literal 0"),
        ],
    )
    def test_first_offender_is_named(self, cls, rows, message):
        with pytest.raises(ValueError) as caught:
            cls(rows, 4)
        assert str(caught.value).endswith(message)

    def test_negative_count(self):
        with pytest.raises(ValueError, match="num_vars must be non-negative"):
            CnfMatrix((), -1)

    @pytest.mark.parametrize(
        "quantifier,vars_,message",
        [
            ("x", (1,), "quantifier must be 'a' or 'e'"),
            ("a", (), "quantifier block must bind at least one variable"),
            ("e", (2, 0), "variables are positive integers"),
            ("e", (-1,), "variables are positive integers"),
        ],
    )
    def test_quantifier_block(self, quantifier, vars_, message):
        with pytest.raises(ValueError) as caught:
            QuantifierBlock(quantifier, vars_)
        assert str(caught.value) == message

    def test_unbound_matrix_variable(self):
        with pytest.raises(ValueError) as caught:
            QbfInstance((QuantifierBlock("a", (1,)),), CnfMatrix((F(1, -2), F(3)), 3))
        assert str(caught.value) == "matrix variable 2 is not bound by the prefix"
        with pytest.raises(ValueError) as caught:
            QbfInstance((QuantifierBlock("a", (2,)),), CnfMatrix((F(1, -3), F(4)), 4))
        assert str(caught.value) == "matrix variable 1 is not bound by the prefix"

    def test_prefix_variable_beyond_the_count(self):
        with pytest.raises(ValueError) as caught:
            QbfInstance((QuantifierBlock("a", (1, 3)),), CnfMatrix((F(1),), 2))
        assert str(caught.value) == "prefix variable 3 exceeds declared count 2"

    def test_variable_bound_twice(self):
        with pytest.raises(ValueError) as caught:
            QbfInstance(
                (QuantifierBlock("a", (1, 2)), QuantifierBlock("e", (3, 2))),
                CnfMatrix((F(1),), 3),
            )
        assert str(caught.value) == "variable 2 bound twice in the prefix"


def random_clauses(rng, num_vars):
    """Up to eight clauses over 1..num_vars, each possibly empty."""
    return tuple(
        frozenset(rng.choice((v, -v)) for v in rng.sample(range(1, num_vars + 1), size))
        for size in (rng.randint(0, num_vars) for _ in range(rng.randint(0, 8)))
    )


class TestMatrixVariables:
    def test_variables_are_those_of_the_clauses(self):
        rng = random.Random(30)
        cases = [((), 0), ((), 3), ((F(),), 2), ((F(), F(-2)), 2)]
        cases += [(random_clauses(rng, n), n) for n in (rng.randint(1, 9) for _ in range(200))]
        for clauses, num_vars in cases:
            matrix = CnfMatrix(clauses, num_vars)
            assert matrix.variables == {abs(lit) for clause in clauses for lit in clause}
            assert isinstance(matrix.variables, frozenset)
            assert DnfFormula(clauses, num_vars).variables == matrix.variables

    def test_variables_take_no_part_in_equality_hash_or_repr(self):
        a = CnfMatrix((F(1, -2), F(3)), 4)
        b = CnfMatrix([F(-2, 1), F(3)], 4)
        assert a == b and hash(a) == hash(b)
        assert repr(a) == f"CnfMatrix(clauses={a.clauses!r}, num_vars=4)"
        assert a != CnfMatrix((F(1, -2), F(3)), 5)
        assert [f.name for f in dataclasses.fields(DnfFormula) if f.compare] == ["terms", "num_vars"]

    def test_replace_builds_the_set_again(self):
        matrix = CnfMatrix((F(1, -2), F(3)), 4)
        replaced = dataclasses.replace(matrix, clauses=(F(-4), F(4, 2)))
        assert replaced.variables == {2, 4}
        assert dataclasses.replace(matrix, clauses=()).variables == frozenset()


class TestBoundPrefix:
    def test_outer_existential_block_of_absent_variables_is_dropped(self):
        prefix = normalize_prefix([("e", (4, 5)), ("a", (1,)), ("e", (2, 3))])
        instance = QbfInstance(prefix, CnfMatrix((F(1, 2), F(-1, 3)), 5))
        assert bound_prefix(instance) == prefix[1:]

    def test_outer_existential_block_with_one_occurring_variable_is_kept(self):
        prefix = normalize_prefix([("e", (4, 5)), ("a", (1,)), ("e", (2, 3))])
        instance = QbfInstance(prefix, CnfMatrix((F(1, 2), F(-1, 3, 5)), 5))
        assert bound_prefix(instance) == prefix

    def test_one_block_prefix_is_kept(self):
        prefix = (QuantifierBlock("e", (1, 2)),)
        for clauses in ((), (F(1),)):
            assert bound_prefix(QbfInstance(prefix, CnfMatrix(clauses, 2))) == prefix

    def test_outer_universal_block_is_kept(self):
        prefix = (QuantifierBlock("a", (4, 5)), QuantifierBlock("e", (1, 2)))
        instance = QbfInstance(prefix, CnfMatrix((F(1, 2),), 5))
        assert bound_prefix(instance) == prefix
