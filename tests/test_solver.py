import math
import os
import random
import subprocess
import sys
from functools import reduce
from operator import and_, or_
from pathlib import Path

import pytest

from feqbf.formulas import (
    CnfMatrix,
    EXISTS,
    FORALL,
    QbfInstance,
    apply_assignment_cnf,
    is_tautological,
    normalize_prefix,
)
from feqbf.generate import random_dnf, random_forall_exists
from feqbf import oracle, solver
from feqbf.reductions import reduce_dnf_to_fe_dqbf
from feqbf.oracle import (
    TABLE_BITS,
    OracleLimitError,
    _game,
    clause_masks,
    clause_values,
    eval_qbf,
    is_dnf_valid,
    satisfying_sets,
)
from feqbf.solver import (
    DisjointFamily,
    FalseCertificate,
    SolverConfig,
    SolverInvariantError,
    ae_blocks,
    core_projection,
    greedy_disjoint,
    leaf_bound_log2,
    partition_groups,
    preprocess,
    restrict_groups,
    sat_check_core,
    solve,
    threshold,
)
from oracle_helpers import cnf_satisfiable, qbf_eval_reference


def F(*lits):
    return frozenset(lits)


def make(prefix, clauses, num_vars):
    return QbfInstance(normalize_prefix(prefix), CnfMatrix(tuple(clauses), num_vars))


def masks(*clauses):
    """Encode clauses as ``(pos, neg)`` masks with variable v at bit v - 1."""
    return tuple(clause_masks(clauses, {v: v - 1 for v in range(1, 64)}))


def M(u, *clauses):
    """Encode clauses over universals 1..u as the search's parts, the ints
    ``pos | neg << u``, with variable v at bit v - 1."""
    return tuple(pos | neg << u for pos, neg in masks(*clauses))


def encode(groups, universal, existential):
    """The search node of ``groups``, a dict from each existential core to its
    universal parts, in its order, with bits in the order of the given
    universal and existential variables: each core the int ``pos << k | neg``
    and each part the int ``pos | neg << u``."""
    u, k = len(universal), len(existential)
    universal_bit = {v: i for i, v in enumerate(universal)}
    existential_bit = {v: i for i, v in enumerate(existential)}
    node = []
    for core, (pos, neg) in zip(groups, clause_masks(groups, existential_bit)):
        parts = tuple(pos | neg << u for pos, neg in clause_masks(groups[core], universal_bit))
        node.append((pos << k | neg, parts, *summary(parts, u)))
    return node


def variable_count(part, u):
    """The number of variables of the part ``pos | neg << u``."""
    return ((part | part >> u) & ((1 << u) - 1)).bit_count()


def group_weight(node, u):
    """Sum over the live groups of the largest universal part, recomputed from
    the parts: the search's strictly decreasing progress measure."""
    return sum(max(variable_count(part, u) for part in parts) for _, parts, _, _ in node)


def sigma_bits(sigma):
    """``(bits, true_bits)`` of an assignment to universals, v at bit v - 1."""
    bits = sum(1 << (v - 1) for v in sigma)
    return bits, sum(1 << (v - 1) for v, value in sigma.items() if value)


def summary(parts, u):
    """``(used, heaviest)`` of a group, recomputed from its parts: their OR
    and the largest number of variables of one part."""
    return reduce(or_, parts, 0), max(variable_count(part, u) for part in parts)


def threshold_instance(n):
    """forall x1..xn exists e1 e2 e3. (xi | e1) for each i, (-e1), (e2 | e3):
    d = 2 and k = 3, so the collapse needs ceil(8 ln 3) = 9 disjoint parts."""
    e1, e2, e3 = n + 1, n + 2, n + 3
    clauses = [F(x, e1) for x in range(1, n + 1)] + [F(-e1), F(e2, e3)]
    return make([(FORALL, range(1, n + 1)), (EXISTS, (e1, e2, e3))], clauses, n + 3)


class TestPreprocess:
    def test_tautologies_are_kept(self):
        # The search root drops them (TestPartitionGroups).
        instance = make(
            [(FORALL, (1, 2)), (EXISTS, (3, 4))], [F(1, -1, 3), F(3, -3, 1), F(4, -4), F(3, 1)], 4
        )
        assert preprocess(instance) is instance

    def test_universal_only_clause_certifies_false(self):
        instance = make([(FORALL, (1, 2)), (EXISTS, (3,))], [F(1, 2), F(3)], 3)
        result = preprocess(instance)
        assert isinstance(result, FalseCertificate)
        assert result.clause == F(1, 2)

    def test_clean_instance_unchanged(self):
        instance = make([(FORALL, (1,)), (EXISTS, (2,))], [F(1, 2), F(2)], 2)
        assert preprocess(instance) is instance

    def test_ignored_outer_block_is_dropped(self):
        # The outer existential block binds variable 3, which no clause holds.
        instance = make([(EXISTS, (3,)), (FORALL, (1,)), (EXISTS, (2,))], [F(1, 2)], 3)
        result = preprocess(instance)
        assert result.prefix == normalize_prefix([(FORALL, (1,)), (EXISTS, (2,))])
        assert result.matrix == instance.matrix

    def test_certificate_skips_an_earlier_universal_tautology(self):
        instance = make(
            [(FORALL, (1, 2)), (EXISTS, (3,))], [F(1, -1), F(1, 3), F(-2, 1), F(2)], 3
        )
        assert preprocess(instance) == FalseCertificate(F(-2, 1))

    def test_rejects_wrong_prefix_shape(self):
        # Each outer existential block binds a variable that the clause holds,
        # so it is not ignored, and the error names every block left.
        cases = (
            ([(EXISTS, (1,)), (FORALL, (2,))], "e a"),
            ([(EXISTS, (1,)), (FORALL, (2,)), (EXISTS, (3,))], "e a e"),
            ([(FORALL, (1,)), (EXISTS, (2,)), (FORALL, (3,))], "a e a"),
        )
        for prefix, shape in cases:
            variables = [v for _, block in prefix for v in block]
            instance = make(prefix, [F(*variables)], len(variables))
            with pytest.raises(ValueError, match=f"^prefix must be .* block, not {shape}$"):
                preprocess(instance)


def preprocess_per_clause(instance):
    """``preprocess`` as one test per clause, the reference for its bulk
    pass: certify the first all-universal clause that is not a tautology,
    and otherwise keep every clause."""
    universal, existential = ae_blocks(instance)
    for clause in instance.matrix.clauses:
        tautology = len(set(map(abs, clause))) < len(clause)
        if not tautology and set(existential).isdisjoint(map(abs, clause)):
            return FalseCertificate(clause)
    clauses = instance.matrix.clauses
    return make([(FORALL, universal), (EXISTS, existential)], clauses, instance.matrix.num_vars)


def tautology_instances():
    """2,000 seeded forall-exists instances over at most 7 variables, about
    one clause in five a tautology, and some clauses all-universal."""
    rng = random.Random(29)
    for _ in range(2000):
        n, k = rng.randint(1, 4), rng.randint(0, 3)
        universal, existential = range(1, n + 1), range(n + 1, n + k + 1)
        clauses = []
        for _ in range(rng.randint(0, 6)):
            pool = rng.choice([universal, range(1, n + k + 1)])
            chosen = rng.sample(pool, rng.randint(1, len(pool)))
            lits = {v if rng.random() < 0.5 else -v for v in chosen}
            if rng.random() < 0.2:
                v = rng.choice(pool)
                lits |= {v, -v}
            clauses.append(frozenset(lits))
        yield make([(FORALL, universal), (EXISTS, existential)], clauses, n + k)


class TestPreprocessBulk:
    def test_matches_the_per_clause_reference(self):
        seen = set()
        for instance in tautology_instances():
            clauses = instance.matrix.clauses
            expected = preprocess_per_clause(instance)
            assert preprocess(instance) == expected, clauses
            e_set = set(ae_blocks(instance)[1])
            for clause in clauses:
                tautology = len(set(map(abs, clause))) < len(clause)
                seen.add((tautology, e_set.isdisjoint(map(abs, clause))))
            seen.add(type(expected))
        # Tautologies with and without an existential literal, all-universal
        # clauses, and both outcomes all occur.
        assert seen >= {(True, True), (True, False), (False, True), (False, False)}
        assert seen >= {FalseCertificate, QbfInstance}

    def test_tautological_all_universal_clause_is_no_certificate(self):
        instance = make([(FORALL, (1, 2)), (EXISTS, (3,))], [F(1, -1, 2), F(2, 3)], 3)
        assert preprocess(instance) is instance


class TestPartitionGroups:
    def test_mixed_polarity_cores(self):
        # existential x1 is variable 3; universals y1=1, y2=2
        matrix = CnfMatrix((F(3, 1), F(3, -2), F(-3, 1)), 3)
        live, weight, forced, d = partition_groups(matrix, (1, 2), (3,))
        # Core -x1, the int 0b01 for the mask (0, 1), sorts before core x1,
        # 0b10 for (1, 0).  Part -y2 is neg bit 1, shifted up by u = 2.
        assert live == [(0b01, M(2, F(1)), 0b0001, 1), (0b10, M(2, F(1), F(-2)), 0b1001, 1)]
        assert M(2, F(1), F(-2)) == (0b0001, 0b1000)
        assert (weight, forced, d) == (2, [], 2)
        assert weight == group_weight(live, 2)

    def test_purely_existential_clause_has_empty_part(self):
        matrix = CnfMatrix((F(1, 2),), 2)
        # The core's pos 0b11 sits above its neg 0b00.
        assert partition_groups(matrix, (), (1, 2)) == ([], 0, [0b1100], 2)

    def test_duplicate_universal_parts_collapse(self):
        matrix = CnfMatrix((F(3, 1), F(3, 1)), 3)
        live, weight, forced, d = partition_groups(matrix, (1, 2), (3,))
        assert live == [(0b10, M(2, F(1)), 0b01, 1)]
        assert (weight, forced, d) == (1, [], 2)

    def test_cores_in_mask_order_whatever_the_block_order(self):
        # Both blocks given out of order: each takes its bits in sorted
        # variable order, universals 1, 2, 3 at bits 0-2, existentials
        # 5, 6, 7 at bits 0-2 of the core's pos and neg.  The cores come in
        # the order of their (pos, neg) masks, the order of the ints
        # pos << 3 | neg.
        matrix = CnfMatrix((F(7, 3), F(6, 2), F(-5, 1), F(5, 6, 3), F(5, 2)), 7)
        live, weight, forced, d = partition_groups(matrix, (3, 1, 2), (7, 5, 6))
        # {-5}, {5}, {6}, {5, 6}, {7}
        cores = [0b001, 0b001 << 3, 0b010 << 3, 0b011 << 3, 0b100 << 3]
        assert [core for core, _, _, _ in live] == cores
        assert [parts for _, parts, _, _ in live] == [
            M(3, F(1)), M(3, F(2)), M(3, F(2)), M(3, F(3)), M(3, F(3))
        ]
        assert (weight, forced, d) == (5, [], 3)
        assert weight == group_weight(live, 3)

    def test_tautology_removed(self):
        # The universal part x1 | -x1 has two bits for one variable.
        matrix = CnfMatrix((F(1, -1, 3), F(3, 1)), 3)
        root = partition_groups(matrix, (1, 2), (3,))
        assert root == ([(0b10, M(2, F(1)), 0b01, 1)], 1, [], 2)
        assert root == partition_groups(CnfMatrix((F(3, 1),), 3), (1, 2), (3,))

    def test_tautology_with_an_existential_literal_removed(self):
        # The cores x3 | -x3 and x4 | -x4 each have two bits for one variable,
        # and so does the core, not the part, of the first clause.
        matrix = CnfMatrix((F(3, -3, 1), F(4, -4), F(1, 4)), 4)
        root = partition_groups(matrix, (1, 2), (3, 4))
        assert root == ([(0b10 << 2, M(2, F(1)), 0b01, 1)], 1, [], 2)
        assert root == partition_groups(CnfMatrix((F(1, 4),), 4), (1, 2), (3, 4))

    def test_a_variable_that_occurs_only_in_a_tautology_is_dropped(self):
        # Universal 2 occurs only in (2 | -2 | 3): no part holds it.
        matrix = CnfMatrix((F(1, 3), F(2, -2, 3)), 3)
        assert matrix.variables == {1, 2, 3}
        live, weight, forced, d = partition_groups(matrix, (1, 2), (3,))
        assert live == [(0b10, M(2, F(1)), 0b01, 1)]
        assert (weight, forced, d) == (1, [], 2)

    def test_drops_exactly_the_tautologies(self):
        # The root of a matrix is that of the matrix without its tautologies:
        # groups, parts, order, weight, forced cores and d.
        dropped = 0
        for instance in tautology_instances():
            universal, existential = ae_blocks(instance)
            clauses = instance.matrix.clauses
            kept = tuple(clause for clause in clauses if not is_tautological(clause))
            without = CnfMatrix(kept, instance.matrix.num_vars)
            root = partition_groups(instance.matrix, universal, existential)
            assert root == partition_groups(without, universal, existential), clauses
            dropped += len(kept) < len(clauses)
        assert dropped > 500


def core_matrix(rng, n, k):
    """A random matrix over universals 1..n and existentials n+1..n+k in which
    every clause has an existential literal."""
    clauses = []
    for _ in range(rng.randint(1, 12)):
        vars_ = [rng.randint(n + 1, n + k)]
        others = [v for v in range(1, n + k + 1) if v != vars_[0]]
        vars_ += rng.sample(others, rng.randint(0, min(2, len(others))))
        clauses.append(F(*(v if rng.random() < 0.5 else -v for v in vars_)))
    return CnfMatrix(tuple(clauses), n + k)


def root_node(matrix, universal, existential):
    """The live groups of ``matrix``'s partition: a search node."""
    return partition_groups(matrix, universal, existential)[0]


class TestRestrictGroups:
    def test_matches_partition_of_simplified_matrix(self):
        rng = random.Random(41)
        for _ in range(300):
            n, k = rng.randint(1, 5), rng.randint(1, 3)
            matrix = core_matrix(rng, n, k)
            universal, existential = range(1, n + 1), range(n + 1, n + k + 1)
            sigma = {v: rng.random() < 0.5 for v in rng.sample(range(1, n + 1), rng.randint(0, n))}
            node = root_node(matrix, universal, existential)
            restricted, weight, forced = restrict_groups(node, *sigma_bits(sigma), n)
            expected, _, expected_forced, _ = partition_groups(
                apply_assignment_cnf(matrix, sigma), universal, existential
            )
            # Same live groups with the same parts in the same order; the
            # groups keep the order they had before the restriction.
            assert sorted(restricted) == sorted(expected)
            expected_cores = {core for core, _, _, _ in expected}
            assert [core for core, _, _, _ in restricted] == [
                core for core, _, _, _ in node if core in expected_cores
            ]
            # The groups the assignment forced, in node order.
            assert forced == [core for core, _, _, _ in node if core in expected_forced]
            assert all(0 not in parts for _, parts, _, _ in restricted)
            assert weight == group_weight(restricted, n)

    def test_weight_equals_group_weight_of_result(self):
        rng = random.Random(43)
        for _ in range(300):
            n, k = rng.randint(1, 8), rng.randint(1, 4)
            matrix = core_matrix(rng, n, k)
            universal, existential = range(1, n + 1), range(n + 1, n + k + 1)
            node = root_node(matrix, universal, existential)
            # Restrict twice, so that the second pass starts from restricted parts.
            for _ in range(2):
                sigma = {v: rng.random() < 0.5 for v in rng.sample(universal, rng.randint(0, n))}
                node, weight, _ = restrict_groups(node, *sigma_bits(sigma), n)
                assert weight == group_weight(node, n)
                assert all(0 not in parts for _, parts, _, _ in node)

    def test_summaries_follow_chains_of_restrictions(self):
        rng = random.Random(47)
        for _ in range(300):
            n, k = rng.randint(1, 8), rng.randint(1, 4)
            matrix = core_matrix(rng, n, k)
            universal, existential = range(1, n + 1), range(n + 1, n + k + 1)
            node = root_node(matrix, universal, existential)
            assert all(group[2:] == summary(group[1], n) for group in node)
            for _ in range(rng.randint(1, 4)):
                hit = rng.sample(universal, rng.randint(0, min(2, n)))
                sigma = {v: rng.random() < 0.5 for v in hit}
                bits, true_bits = sigma_bits(sigma)
                restricted, weight, _ = restrict_groups(node, bits, true_bits, n)
                assert all(group[2:] == summary(group[1], n) for group in restricted)
                assert weight == group_weight(restricted, n)
                # A group none of whose parts holds a variable the assignment
                # sets comes back as the same object.
                missed = [
                    group for group in node
                    if not any((part | part >> n) & bits for part in group[1])
                ]
                assert [g for g in restricted if any(g is group for group in missed)] == missed
                node = restricted

    def test_drops_satisfied_groups_and_falsified_literals(self):
        groups = {F(5): (F(1, 2), F(-1, 3), F(3)), F(6): (F(1),)}
        node = encode(groups, (1, 2, 3), (5, 6))
        core5, core6 = 0b01 << 2, 0b10 << 2
        assert restrict_groups(node, *sigma_bits({1: True}), 3) == (
            [(core5, M(3, F(3)), 0b100, 1)],
            1,
            [],
        )
        # x1 false leaves core6 bare: the group is forced and leaves the node.
        assert restrict_groups(node, *sigma_bits({1: False}), 3) == (
            [(core5, M(3, F(2), F(3)), 0b110, 1)],
            1,
            [core6],
        )

    def test_deduplicates_parts_in_order(self):
        # x1 false turns (1, 2) into (2), a copy of the third part.
        node = encode({F(5): (F(1, 2), F(3), F(2))}, (1, 2, 3), (5,))
        assert restrict_groups(node, *sigma_bits({1: False}), 3) == (
            [(0b10, M(3, F(2), F(3)), 0b110, 1)],
            1,
            [],
        )


class TestThreshold:
    def test_small_values(self):
        assert threshold(2, 3) == pytest.approx(8 * 3 * math.log(2))
        assert math.ceil(threshold(2, 3)) == 17

    def test_larger_values(self):
        assert threshold(16, 4) == pytest.approx(177.445, abs=1e-3)
        assert math.ceil(threshold(16, 4)) == 178

    def test_rejects_k_below_two(self):
        with pytest.raises(ValueError):
            threshold(1, 3)

    def test_rejects_arity_zero(self):
        with pytest.raises(ValueError, match="arity must be positive"):
            threshold(2, 0)

    def test_wide_clauses_reach_infinity(self):
        # 2^d passes the float range at d = 1024, and k^(d-1) passes it at
        # (k, d) = (100, 160); neither bound raises.
        assert threshold(2, 1024) == math.inf
        assert leaf_bound_log2(100, 160, threshold(100, 160)) == math.inf

    def test_leaf_bound_formula(self):
        # log2 of d^2 * X * k^(d-1) leaves.
        assert leaf_bound_log2(3, 2, 9.0) == 4 * 9.0 * 3
        assert leaf_bound_log2(14, 3, threshold(14, 3)) == pytest.approx(
            9 * threshold(14, 3) * 14**2
        )


class TestGreedyDisjoint:
    def test_family_found(self):
        parts = M(4, F(1, 2), F(2, 3), F(4))
        result = greedy_disjoint(parts, 2, 4)
        assert isinstance(result, DisjointFamily)
        assert result.parts == M(4, F(1, 2), F(4))

    def test_hitting_set_on_failure(self):
        parts = M(3, F(1, 2), F(2, 3))
        result = greedy_disjoint(parts, 2, 3)
        assert result == 0b11  # variables 1 and 2
        assert all((part | part >> 3) & result for part in parts)

    def test_opposite_literals_share_their_variable(self):
        # -x1 and x1 meet in x1, and the hitting set holds the variables 1
        # and 2 of the family -x1, -x2, with no bit of a negative literal.
        parts = M(2, F(-1), F(1, -2), F(-2))
        assert greedy_disjoint(parts, 3, 2) == 0b11
        assert greedy_disjoint(parts, 2, 2) == DisjointFamily(M(2, F(-1), F(-2)))

    def test_single_clause_family(self):
        result = greedy_disjoint(M(1, F(1)), 1, 1)
        assert isinstance(result, DisjointFamily)
        assert result.parts == M(1, F(1))

    def test_rejects_empty_part(self):
        with pytest.raises(ValueError):
            greedy_disjoint(M(1, F()), 1, 1)

    def test_fractional_threshold_uses_ceiling(self):
        parts = M(2, F(1), F(2))
        assert isinstance(greedy_disjoint(parts, 1.2, 2), DisjointFamily)
        assert len(greedy_disjoint(parts, 1.2, 2).parts) == 2


class TestCoreProjection:
    def test_projection_with_dedup(self):
        # x1=4, x2=5 existential; y1=1, y2=2 universal
        matrix = CnfMatrix((F(4, 1), F(4, 2), F(-5, -1)), 5)
        projected = core_projection(matrix, frozenset({4, 5}))
        assert projected.clauses == (F(4), F(-5))

    def test_purely_existential_matrix_unchanged(self):
        matrix = CnfMatrix((F(1, 2), F(-1)), 2)
        assert core_projection(matrix, frozenset({1, 2})) == matrix

    def test_single_projection(self):
        matrix = CnfMatrix((F(1, 2, 3),), 3)
        assert core_projection(matrix, frozenset({1, 2})).clauses == (F(1, 2),)


def game_check(*clauses):
    """``sat_check_core`` on ``clauses`` through the game: their values from
    ``clause_values`` over a window wider than the table cap, and its
    ``decide``."""
    values, decide = clause_values(masks(*clauses), 0, 0, 63)
    return sat_check_core(values, -1, decide)


class TestSatCheckCore:
    def test_contradiction(self):
        assert game_check(F(1), F(-1)) is False

    def test_satisfiable(self):
        assert game_check(F(1, 2), F(-1, 2)) is True

    def test_empty_clause(self):
        assert game_check(F()) is False

    def test_early_conflict_beyond_enumeration(self):
        # 2^40 assignments are out of reach; the conflict on x1 is found at once.
        clauses = [F(v) for v in range(1, 40)] + [F(-1)]
        assert game_check(*clauses) is False

    def test_matches_brute_force_on_random_cnf(self):
        rng = random.Random(17)
        for _ in range(40):
            k = rng.randint(1, 10)
            clauses = []
            for _ in range(rng.randint(1, 14)):
                width = rng.randint(1, min(3, k))
                vars_ = rng.sample(range(1, k + 1), width)
                clauses.append(F(*(v if rng.random() < 0.5 else -v for v in vars_)))
            expected = cnf_satisfiable(clauses, range(1, k + 1))
            assert game_check(*clauses) == expected


def random_cores(rng, k, count):
    """``count`` random cores of arity 1 to 3 over the existential bits 0..k-1."""
    cores = []
    for _ in range(count):
        pos = neg = 0
        for bit in rng.sample(range(k), rng.randint(1, min(3, k))):
            if rng.random() < 0.5:
                pos |= 1 << bit
            else:
                neg |= 1 << bit
        cores.append((pos, neg))
    return cores


class TestSatCheckCoreTables:
    def check(self, cores, k):
        return sat_check_core(satisfying_sets(cores, 0, k), -1)

    def test_matches_play_on_random_cores(self):
        rng = random.Random(53)
        answers = set()
        for k in range(0, TABLE_BITS + 1):
            for _ in range(12):
                # Around 4.3 clauses per variable sits near the 3-SAT threshold.
                cores = random_cores(rng, k, rng.randint(0, 5 * k)) if k else []
                expected = _game(cores, 0)
                assert self.check(cores, k) == expected, (k, cores)
                answers.add(expected)
        assert answers == {True, False}

    def test_no_cores_is_true(self):
        assert self.check([], 0) is True
        assert self.check([], 4) is True

    def test_empty_core_is_false(self):
        assert self.check([(0, 0)], 0) is False
        assert self.check([(0b1, 0), (0, 0)], 3) is False


class TestWeight:
    def test_sums_group_maxima(self):
        # cores {x1}={5}: parts (1,2) and (3); {-x2}={-6}: part (1)
        matrix = CnfMatrix((F(5, 1, 2), F(5, 3), F(-6, 1)), 6)
        live, weight, _, _ = partition_groups(matrix, (1, 2, 3), (5, 6))
        assert weight == group_weight(live, 3) == 3

    def test_purely_existential_weighs_nothing(self):
        matrix = CnfMatrix((F(1, 2), F(-2)), 2)
        live, weight, forced, _ = partition_groups(matrix, (), (1, 2))
        assert weight == group_weight(live, 0) == 0
        assert len(forced) == 2


def corpus(rng, count, *, arity, max_universal=7, max_existential=5, max_clauses=14):
    instances = []
    for _ in range(count):
        n = rng.randint(1, max_universal)
        k = rng.randint(1, max_existential)
        m = rng.randint(1, max_clauses)
        instances.append(
            random_forall_exists(n, k, m, arity=arity, seed=rng.randrange(2**32))
        )
    return instances


def wide_clause_instance(k, d):
    """forall x1..xd exists e1..ek with the clauses (x1 | ... | x(d-1) | e1)
    and (e1 | e2): TRUE at e1, with one clause of width d."""
    e1, e2 = d + 1, d + 2
    clauses = [F(*range(1, d), e1), F(e1, e2)]
    return make([(FORALL, tuple(range(1, d + 1))), (EXISTS, tuple(range(e1, d + k + 1)))], clauses, d + k)


class TestSolve:
    @pytest.mark.parametrize("k, d", [(100, 160), (300, 130), (40, 200), (3, 1100)])
    def test_wide_clauses_stay_in_range(self, k, d):
        # k^(d-1), and at d = 1100 also 2^d, pass the float range.
        result, stats = solve(wide_clause_instance(k, d))
        assert result is True
        assert stats.d == d

    def test_single_existential_clause(self):
        instance = make([(FORALL, tuple(range(1, 6))), (EXISTS, (6,))], [F(6)], 6)
        result, stats = solve(instance)
        assert result is True
        assert stats.leaves == 1

    def test_universal_controls_outcome(self):
        instance = make([(FORALL, (1,)), (EXISTS, (2,))], [F(2, 1), F(-2, 1)], 2)
        result, _ = solve(instance)
        assert result is False
        assert eval_qbf(instance) is False

    def test_universal_only_clause_is_false_without_search(self):
        instance = make(
            [(FORALL, (1, 2)), (EXISTS, (3, 4, 5))],
            [F(1, 2), F(3, 1), F(4, -2)],
            5,
        )
        result, stats = solve(instance)
        assert result is False
        assert stats.route == "false_certificate"
        assert stats.branches == 0
        assert stats.max_depth == 0
        assert stats.leaves == 1

    def test_agrees_with_oracle_on_random_corpus(self):
        rng = random.Random(23)
        for instance in corpus(rng, 60, arity=3) + corpus(rng, 20, arity=2):
            result, _ = solve(instance)
            assert result == eval_qbf(instance), emit_failure(instance)

    def test_branching_instance_statistics(self):
        # The root cores x2 and -x2 are jointly unsatisfiable, so the search
        # branches on x1; each branch forces one core and is TRUE.
        instance = make(
            [(FORALL, (1,)), (EXISTS, (2, 3, 4))],
            [F(2, 1), F(-2, -1)],
            4,
        )
        result, stats = solve(instance)
        assert result is True
        assert stats.route == "search"
        assert stats.branches == 2
        assert stats.max_depth == 1
        assert (stats.leaves, stats.sat_leaves) == (2, 2)
        assert stats.weight_trace and all(
            a > b for a, b in zip(stats.weight_trace, stats.weight_trace[1:])
        )

    def test_natural_base_case_triggers_and_agrees(self):
        # d = 2, k = 3: threshold is ceil(8 ln 3) = 9, and thirteen pairwise
        # disjoint universal parts exist, so the core projection would fire;
        # the cores e1 and e2|-e3 are jointly satisfiable, so the root's SAT
        # check decides first.
        universals = tuple(range(1, 14))
        clauses = [F(14, u) for u in universals]
        clauses.append(F(15, -16))
        instance = make([(FORALL, universals), (EXISTS, (14, 15, 16))], clauses, 16)
        result, stats = solve(instance)
        assert stats.leaves == 1
        assert stats.sat_leaves == 1
        assert stats.branches == 0
        assert result is True
        assert eval_qbf(instance) == result

    def test_paper_threshold_collapses_to_false(self):
        # d = 2, k = 3 needs ceil(8 ln 3) = 9 disjoint parts: core e1 has the
        # parts x1..x9, so the root collapses, and the cores e1, -e1, e2|e3 are
        # unsatisfiable (all xi false forces e1).
        instance = threshold_instance(9)
        result, stats = solve(instance)
        assert result is False
        assert (stats.leaves, stats.branches) == (1, 0)
        assert stats.collapse_leaves == 1
        assert eval_qbf(instance) is False

    def test_small_k_takes_the_search(self):
        # k = 0 (a tautology, dropped at the root), k = 1 and k = 2 all
        # reach the search, with the threshold of k = 2.
        instances = (
            make([(FORALL, (1, 2))], [F(1, -1)], 2),
            make([(FORALL, (1,)), (EXISTS, (2,))], [F(1, 2)], 2),
            make([(FORALL, (1,)), (EXISTS, (2,))], [F(1, 2), F(-1, -2)], 2),
            make([(FORALL, (1, 2)), (EXISTS, (3, 4))], [F(1, 3), F(2, -3), F(-3, 4), F(-2, -4)], 4),
            make([(FORALL, (1, 2)), (EXISTS, (3, 4))], [F(1, 3), F(-1, -3), F(2, 4), F(-2, 3, -4)], 4),
        )
        assert {len(instance.prefix[-1].vars) for instance in instances[1:]} == {1, 2}
        runs = [solve(instance) for instance in instances]
        for instance, (result, stats) in zip(instances, runs):
            assert stats.route == "search"
            assert result == eval_qbf(instance), emit_failure(instance)
        assert {result for result, _ in runs} == {True, False}
        # One clause, satisfied by its core: one TRUE leaf at the root.
        stats = runs[1][1]
        assert (stats.leaves, stats.sat_leaves, stats.branches) == (1, 1, 0)

    def test_agrees_with_reference_on_core_instances(self):
        # Every clause keeps an existential literal, so preprocess passes each
        # instance to the search; the reference shares no code with the solver.
        rng = random.Random(31)
        leaves = 0
        for _ in range(60):
            n, k = rng.randint(1, 4), rng.randint(3, 5)
            clauses = []
            for _ in range(rng.randint(1, 10)):
                width = rng.randint(1, 3)
                vars_ = [rng.randint(n + 1, n + k)]
                vars_ += rng.sample([v for v in range(1, n + k + 1) if v != vars_[0]], width - 1)
                clauses.append(F(*(v if rng.random() < 0.5 else -v for v in vars_)))
            instance = make([(FORALL, range(1, n + 1)), (EXISTS, range(n + 1, n + k + 1))],
                            clauses, n + k)
            result, stats = solve(instance)
            assert result == qbf_eval_reference(instance), emit_failure(instance)
            leaves += stats.leaves
        assert leaves > 60

    def test_arity_counts_the_forced_groups(self):
        # forall x1 x2 exists e1 e2: (e1), (e1 | x1 | x2), (e2 | x1) and a
        # width-5 tautology.  The widest clause left sits in the group (e1),
        # which its bare core forces: the live groups alone give arity 2.
        instance = make(
            [(FORALL, (1, 2)), (EXISTS, (3, 4))],
            [F(3), F(3, 1, 2), F(4, 1), F(1, -1, 2, 3, 4)],
            4,
        )
        live, _, forced, d = partition_groups(instance.matrix, (1, 2), (3, 4))
        assert max(core.bit_count() + heaviest for core, _, _, heaviest in live) == 2
        assert (len(forced), d) == (1, 3)
        result, stats = solve(instance)
        assert (result, stats.route, stats.d) == (eval_qbf(instance), "search", 3)

    def test_arity_is_that_of_the_clauses_left(self):
        searched = wider = 0
        for instance in tautology_instances():
            _, stats = solve(instance)
            if stats.route != "search":
                continue
            clauses = instance.matrix.clauses
            arities = [len(clause) for clause in clauses if not is_tautological(clause)]
            assert stats.d == max(arities, default=1), clauses
            searched += 1
            wider += any(len(clause) > stats.d for clause in clauses)
        # Many searched instances, and in some a tautology is wider than d.
        assert searched > 500 and wider > 50

    def test_empty_matrix_is_true(self):
        instance = make([(FORALL, (1,)), (EXISTS, (2, 3, 4))], [], 4)
        result, _ = solve(instance)
        assert result is True

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(small_k_cutoff=0)

    def test_leaf_kinds_partition_the_leaves(self):
        # A search stops at its first FALSE leaf, so a FALSE run has exactly
        # one leaf that is not a TRUE leaf.
        rng = random.Random(29)
        instances = [
            *corpus(rng, 60, arity=3),
            *corpus(rng, 20, arity=2),
            *TestSearchTree.corpus(),
            threshold_instance(8),
            threshold_instance(9),
        ]
        seen = set()
        for instance in instances:
            result, s = solve(instance)
            kinds = (s.sat_leaves, s.collapse_leaves, s.weight0_leaves)
            if s.route != "search":
                assert kinds == (0, 0, 0)
                continue
            assert sum(kinds) == s.leaves
            assert s.sat_leaves == s.leaves - (not result)
            seen.update(name for name, count in zip("scw", kinds) if count)
        assert seen == {"s", "c", "w"}

    def test_true_with_a_skolem_function_of_the_universals(self):
        # Copy constraints (xi | -yi)(-xi | yi) make yi = xi the only choice,
        # so the cores yi and -yi are jointly unsatisfiable at the root and
        # the search must branch.  The noise clauses each hold a literal of
        # the planted z = (1, 0), so the instance stays TRUE.
        rng = random.Random(5)
        xs, ys, zs = range(1, 7), (7, 8, 9), (10, 11)
        clauses = [F(x, -y) for x, y in zip(xs, ys)] + [F(-x, y) for x, y in zip(xs, ys)]
        for _ in range(12):
            z = rng.choice(zs)
            clauses.append(F(z if z == 10 else -z, *(u if rng.random() < 0.5 else -u
                                                    for u in rng.sample(xs, 2))))
        instance = make([(FORALL, xs), (EXISTS, (*ys, *zs))], clauses, 11)
        result, s = solve(instance)
        assert result is True
        assert eval_qbf(instance) is True
        assert s.route == "search"
        assert s.branches > 0
        assert s.sat_leaves == s.leaves > 1

    def test_counts_weight0_leaves(self):
        # Eight parts fall short of the nine needed, so the search branches on
        # x1..x8; the first branch (all false) empties every part of core e1,
        # leaving weight 0, and its unsatisfiable cores end the search.
        instance = threshold_instance(8)
        result, stats = solve(instance)
        assert result is False
        assert (stats.leaves, stats.branches, stats.weight0_leaves) == (1, 1, 1)
        assert eval_qbf(instance) is False


def disjoint_parts_adversary(parts):
    """forall a1..aP b1..bP x exists y1 y2: (y1 | ai | bi) for each i, then
    (y2 | x) and (-y2 | -x).  TRUE: y1 true and y2 = -x.  The group of y1
    holds P disjoint parts, too few to collapse, so its hitting set has 2P
    bits; the group of y2 is hit by x alone."""
    a, b = range(1, parts + 1), range(parts + 1, 2 * parts + 1)
    x, y1, y2 = 2 * parts + 1, 2 * parts + 2, 2 * parts + 3
    clauses = [F(y1, ai, bi) for ai, bi in zip(a, b)] + [F(y2, x), F(-y2, -x)]
    return make([(FORALL, range(1, x + 1)), (EXISTS, (y1, y2))], clauses, y2)


def copy_instance(rng, n, k, *, clash):
    """forall x1..xn exists y1..yk: each yi copies its own universal by
    (-x | y)(x | -y), and 3n noise clauses each hold a literal of some yi and
    the opposite literal of its source, so the copy satisfies them.  TRUE;
    with ``clash``, y1 also copies a second universal, and the instance is
    FALSE: the universals set the two sources apart."""
    universal, ys = range(1, n + 1), range(n + 1, n + k + 1)
    sources = rng.sample(universal, k + 1)
    copies = list(zip(sources, ys))
    if clash:
        copies.append((sources[k], ys[0]))
    clauses = [c for x, y in copies for c in (F(-x, y), F(x, -y))]
    for _ in range(3 * n):
        x, y = rng.choice(copies[:k])
        sign = rng.choice((1, -1))
        others = rng.sample([u for u in universal if u != x], rng.randint(0, 2))
        clauses.append(F(sign * y, -sign * x, *(u if rng.random() < 0.5 else -u for u in others)))
    return make([(FORALL, universal), (EXISTS, ys)], clauses, n + k)


def small_k_instance(rng):
    """A random instance with k in {0, 1, 2} and 6-14 universals.  Half of
    those with k > 0 are arity 2 at first: each core literal, with
    probability 1/2, gets 6 or more parts of one distinct universal each,
    enough for the collapse at the threshold of k = 2, ceil(8 ln 2) = 6.
    Then come random clauses of width 1-3, each with an existential literal
    while k > 0."""
    k, n = rng.randint(0, 2), rng.randint(6, 14)
    existential = range(n + 1, n + k + 1)

    def sign(v):
        return v if rng.random() < 0.5 else -v

    clauses = []
    if k and rng.random() < 0.5:
        for y in existential:
            for lit in (y, -y):
                if rng.random() < 0.5:
                    clauses += [F(lit, sign(u)) for u in rng.sample(range(1, n + 1), rng.randint(6, n))]
    for _ in range(rng.randint(0 if clauses else 1, 6)):
        vars_ = rng.sample(range(1, n + k + 1), rng.randint(1, 3))
        if k and not any(v > n for v in vars_):
            vars_[0] = rng.choice(existential)
        clauses.append(F(*map(sign, dict.fromkeys(vars_))))
    return make([(FORALL, range(1, n + 1)), (EXISTS, existential)], clauses, n + k)


class TestSmallK:
    """At most two existentials: the search decides them with the threshold
    and bounds of k = 2, and reaches sizes past the oracle's bound."""

    def test_disjoint_parts_adversary(self):
        # Branching on the smallest hitting set, x, decides it in two leaves
        # whatever P is; the first group's 2P bits would give 2^(2P) leaves.
        instance = disjoint_parts_adversary(10)
        result, stats = solve(instance)
        assert result is eval_qbf(instance) is True
        assert (stats.leaves, stats.branches, stats.route) == (2, 2, "search")
        instance = disjoint_parts_adversary(14)
        assert instance.matrix.num_vars == 31
        with pytest.raises(OracleLimitError):
            eval_qbf(instance)
        result, stats = solve(instance)
        assert result is True
        assert (stats.leaves, stats.sat_leaves, stats.branches) == (2, 2, 2)

    @pytest.mark.parametrize("n", [30, 60, 100])
    @pytest.mark.parametrize("k", [1, 2])
    def test_copy_constraints_past_the_oracle_bound(self, n, k):
        rng = random.Random(n + k)
        for clash in (False, True):
            instance = copy_instance(rng, n, k, clash=clash)
            result, stats = solve(instance)
            assert result is not clash, emit_failure(instance)
            assert stats.route == "search"
            assert stats.branches > 0

    def test_depth_bound_takes_k_as_two(self):
        # k = 1 and d = 3: the tree reaches depth 4, past d * 1^(d-1) = 3
        # and within d * 2^(d-1) = 12.
        instance = make(
            [(FORALL, range(1, 9)), (EXISTS, (9,))],
            [F(-9, -7, 2), F(-9, -4), F(-9, -2), F(-9, 4, 6), F(-8, -2, 9), F(-8, 3, 9)],
            9,
        )
        result, stats = solve(instance)
        assert result == eval_qbf(instance)
        assert (stats.d, stats.max_depth) == (3, 4)

    def test_agrees_with_oracle_on_seeded_small_k(self):
        rng = random.Random(37)
        results, collapses, searched = set(), 0, 0
        for _ in range(300):
            instance = small_k_instance(rng)
            result, stats = solve(instance)
            assert result == eval_qbf(instance), emit_failure(instance)
            results.add(result)
            collapses += stats.collapse_leaves > 0
            searched += stats.route == "search"
        assert results == {True, False}
        assert collapses > 0
        assert searched > 150


class TestTableCap:
    """The search checks its nodes' cores with truth tables up to
    ``TABLE_BITS`` existential variables and with ``_game`` above."""

    @staticmethod
    def solve_corpus(monkeypatch, k, seed, pure):
        """Solve 12 random instances with k existentials and check them
        against ``eval_qbf``; with ``pure`` each also gets 1-3 purely
        existential clauses.  Returns ``(tables, carried)`` of every node's
        SAT check, ``tables`` telling whether its cores were truth tables,
        that is, whether it had no ``decide``."""
        calls = []
        original = solver.sat_check_core

        def spying(cores, carried=-1, decide=None):
            calls.append((decide is None, carried))
            return original(cores, carried, decide)

        monkeypatch.setattr(solver, "sat_check_core", spying)
        rng = random.Random(seed)
        n = 6  # n + k stays within the oracle's 24-variable bound
        existential = range(n + 1, n + k + 1)
        results = set()
        nodes = 0
        for _ in range(12):
            clauses = []
            for _ in range(rng.randint(30, 50)):
                vars_ = [rng.randint(n + 1, n + k)]
                vars_ += rng.sample([v for v in range(1, n + k + 1) if v != vars_[0]], 2)
                clauses.append(F(*(v if rng.random() < 0.5 else -v for v in vars_)))
            for _ in range(rng.randint(1, 3) if pure else 0):
                pair = rng.sample(existential, 2)
                clauses.append(F(*(v if rng.random() < 0.5 else -v for v in pair)))
            instance = make([(FORALL, range(1, n + 1)), (EXISTS, existential)], clauses, n + k)
            result, stats = solve(instance)
            assert stats.route == "search"
            assert result == eval_qbf(instance), emit_failure(instance)
            results.add(result)
            nodes += stats.branches + 1
        assert results == {True, False}
        # One SAT check per node: the root and one child per branch.
        assert len(calls) == nodes
        return calls

    @pytest.mark.parametrize("k", [TABLE_BITS, TABLE_BITS + 1])
    def test_agrees_with_oracle_on_both_sides_of_the_cap(self, monkeypatch, k):
        calls = self.solve_corpus(monkeypatch, k, k, pure=False)
        assert all(tables == (k <= TABLE_BITS) for tables, _ in calls)

    def test_forced_cores_carried_above_the_cap(self, monkeypatch):
        # Purely existential clauses force their groups at the root, so every
        # node's SAT check gets the AND of their values, which leaves out
        # their ids.
        calls = self.solve_corpus(monkeypatch, TABLE_BITS + 1, 5, pure=True)
        assert all(carried != -1 for _, carried in calls)

    def test_core_check_deeper_than_the_limit_names_its_cause(self):
        # forall 1 exists 2..301: (1 | 2), and (1+i | 151+i) and
        # (-(1+i) | -(151+i)) for i = 1..150, pairs that leave no unit and no
        # pure literal.  TRUE, above the table cap, and the root's core check
        # branches once per pair, past the recursion limit of 120.
        script = (
            "import sys\n"
            "from feqbf.formulas import CnfMatrix, QbfInstance, normalize_prefix\n"
            "from feqbf.oracle import OracleLimitError\n"
            "from feqbf.solver import solve\n"
            "P = 150\n"
            "clauses = [frozenset((1, 2))] + [\n"
            "    frozenset((s * (1 + i), s * (1 + P + i))) for i in range(1, P + 1) for s in (1, -1)\n"
            "]\n"
            "prefix = normalize_prefix([('a', (1,)), ('e', range(2, 2 * P + 2))])\n"
            "instance = QbfInstance(prefix, CnfMatrix(tuple(clauses), 2 * P + 1))\n"
            "sys.setrecursionlimit(120)\n"
            "try:\n"
            "    solve(instance)\n"
            "except OracleLimitError as exc:\n"
            "    print(exc)\n"
        )
        root = Path(__file__).resolve().parents[1]
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert completed.returncode == 0, completed.stderr
        assert "core SAT check" in completed.stdout
        assert "recursion limit (120)" in completed.stdout


class TestSearchShape:
    # (result, leaves, branches, max_depth, sat_leaves, collapse_leaves,
    # weight0_leaves, weight_trace) of the instances below.  A node branches
    # on the smallest hitting set among its groups.  A node whose cores are
    # jointly satisfiable is a TRUE leaf, so every FALSE leaf here is left
    # with no live group.  Each row's tree has no more leaves or branches
    # than the one the search built before it checked the cores at every
    # node, except the last: it has 3 branches where the first group's
    # hitting set gave 2.  Groups with equal universal parts merge at the
    # root and weigh once, which lowers the weights of rows 1, 6 and 7
    # (counted from 0).
    PINNED = (
        (False, 1, 1, 1, 0, 0, 1, (1, 0)),
        (False, 2, 4, 3, 1, 0, 1, (4, 2, 1, 0)),
        (True, 1, 0, 0, 1, 0, 0, (1,)),
        (False, 1, 1, 1, 0, 0, 1, (1, 0)),
        (False, 1, 1, 1, 0, 0, 1, (1, 0)),
        (True, 1, 0, 0, 1, 0, 0, (5,)),
        (False, 1, 3, 3, 0, 0, 1, (3, 2, 1, 0)),
        (False, 1, 3, 3, 0, 0, 1, (7, 4, 2, 0)),
        (True, 1, 0, 0, 1, 0, 0, (2,)),
        (False, 1, 3, 3, 0, 0, 1, (5, 4, 1, 0)),
    )

    def test_matches_pinned_shapes(self):
        rng = random.Random(7)
        shapes = []
        for _ in self.PINNED:
            n, k = rng.randint(6, 10), rng.randint(3, 6)
            matrix = core_matrix(rng, n, k)
            instance = make(
                [(FORALL, range(1, n + 1)), (EXISTS, range(n + 1, n + k + 1))],
                matrix.clauses,
                n + k,
            )
            result, s = solve(instance)
            shapes.append(
                (result, s.leaves, s.branches, s.max_depth, s.sat_leaves,
                 s.collapse_leaves, s.weight0_leaves, s.weight_trace)
            )
        assert tuple(shapes) == self.PINNED


class TestSearchTree:
    """``(result, leaves, branches, max_depth)`` of a seeded corpus, each node
    branching on the smallest hitting set among its groups.  The results
    have not changed since the search began.  Each tree has no more leaves
    or branches than the one built before every node checked its cores,
    except rows 9 and 28 (counted from 0): each has one branch more than
    with the first group's hitting set."""

    PINNED = (
        # 24 core matrices, n 6-10 and k 3-6
        (True, 1, 0, 0), (False, 2, 4, 3), (False, 1, 3, 3), (False, 1, 2, 2),
        (True, 1, 0, 0), (False, 1, 3, 3), (False, 2, 3, 2), (True, 1, 0, 0),
        (True, 1, 0, 0), (False, 2, 4, 3), (True, 1, 0, 0), (True, 1, 0, 0),
        (False, 1, 1, 1), (False, 1, 3, 3), (False, 1, 3, 3), (False, 2, 5, 4),
        (False, 2, 2, 1), (True, 1, 0, 0), (True, 1, 0, 0), (True, 1, 0, 0),
        (False, 1, 3, 3), (False, 2, 5, 4), (True, 1, 0, 0), (False, 1, 2, 2),
        # theorem 2 at d = 3 (k = 14) and d = 4 (k = 12)
        (False, 2, 4, 3), (False, 3, 6, 4), (False, 20, 34, 4), (False, 2, 4, 3),
        (False, 2, 5, 4), (True, 20, 32, 4), (True, 19, 30, 4), (True, 18, 28, 4),
        # theorem 2 of random_dnf(6, 32) at d = 3: k = 18, above the table cap
        (True, 16, 24, 3), (True, 15, 22, 3), (False, 20, 33, 4), (False, 7, 11, 4),
    )

    @staticmethod
    def corpus():
        rng = random.Random(17)
        for _ in range(24):
            n, k = rng.randint(6, 10), rng.randint(3, 6)
            matrix = core_matrix(rng, n, k)
            yield make(
                [(FORALL, range(1, n + 1)), (EXISTS, range(n + 1, n + k + 1))],
                matrix.clauses,
                n + k,
            )
        for d, m in ((3, 18), (3, 21), (3, 24), (3, 20), (4, 28), (4, 32), (4, 36), (4, 40)):
            yield reduce_dnf_to_fe_dqbf(random_dnf(6, m, seed=m + d), d).instance
        for seed in range(1, 5):
            yield reduce_dnf_to_fe_dqbf(random_dnf(6, 32, seed=seed), 3).instance

    def test_matches_pinned_trees(self):
        trees = []
        for instance in self.corpus():
            result, s = solve(instance)
            assert s.route == "search"
            trees.append((result, s.leaves, s.branches, s.max_depth))
        assert tuple(trees) == self.PINNED
        ks = [len(instance.prefix[-1].vars) for instance in self.corpus()]
        assert ks[24:] == [14] * 4 + [12] * 4 + [18] * 4

    def test_trees_ignore_the_order_inside_a_prefix_block(self):
        # Each block takes its bits in sorted variable order, so three
        # shuffles of every block give each instance the same tree.
        rng = random.Random(3)
        reordered = 0
        for instance in self.corpus():
            result, s = solve(instance)
            expected = (result, s.leaves, s.branches, s.max_depth, s.weight_trace)
            for _ in range(3):
                prefix = [(b.quantifier, rng.sample(b.vars, len(b.vars))) for b in instance.prefix]
                shuffled = make(prefix, instance.matrix.clauses, instance.matrix.num_vars)
                reordered += shuffled.prefix != instance.prefix
                result, s = solve(shuffled)
                assert (result, s.leaves, s.branches, s.max_depth, s.weight_trace) == expected
        assert reordered == 3 * 36

    def test_group_order_ignores_the_clause_order(self):
        # Five seeded shuffles of every instance's clauses give the same
        # cores in the same order, the same weight and the same forced
        # cores.  Only the order of the parts inside a group may change.
        rng = random.Random(11)
        for instance in self.corpus():
            universal, existential = ae_blocks(instance)
            live, weight, forced, d = partition_groups(instance.matrix, universal, existential)
            expected = ([core for core, _, _, _ in live], weight, forced, d)
            for _ in range(5):
                clauses = rng.sample(instance.matrix.clauses, len(instance.matrix.clauses))
                shuffled = CnfMatrix(tuple(clauses), instance.matrix.num_vars)
                live, weight, forced, d = partition_groups(shuffled, universal, existential)
                assert ([core for core, _, _, _ in live], weight, forced, d) == expected


def pair_partition(matrix, universal, existential):
    """The search root with each core, part and ``used`` a ``(pos, neg)`` or
    variable mask, built on ``oracle.clause_masks``: the reference for
    ``partition_groups``' ints.  Each clause is encoded over the universal
    bits and then the existential bits, each in sorted variable order; the
    groups come in the order of their core masks, and ``used`` is the union
    of the parts' variables."""
    u = len(universal)
    low = (1 << u) - 1
    bit_of = {v: i for i, v in enumerate([*sorted(universal), *sorted(existential)])}
    groups = {}
    for pos, neg in clause_masks(matrix.clauses, bit_of):
        groups.setdefault((pos >> u, neg >> u), {})[pos & low, neg & low] = None
    live, forced, weight = [], [], 0
    for core in sorted(groups):
        parts = groups[core]
        if (0, 0) in parts:
            forced.append(core)
            continue
        heaviest = max((pos | neg).bit_count() for pos, neg in parts)
        live.append((core, tuple(parts), reduce(or_, (pos | neg for pos, neg in parts)), heaviest))
        weight += heaviest
    return live, weight, forced


def decoded_root(matrix, universal, existential):
    """``partition_groups``' root with each core int ``pos << k | neg`` and
    each part int ``pos | neg << u`` split into its ``(pos, neg)`` mask, and
    ``used`` into the mask of the variables of the parts."""
    u, k = len(universal), len(existential)

    def core(c):
        return c >> k, c & ((1 << k) - 1)

    def part(p):
        return p & ((1 << u) - 1), p >> u

    live, weight, forced, _ = partition_groups(matrix, universal, existential)
    live = [
        (core(c), tuple(map(part, parts)), (used | used >> u) & ((1 << u) - 1), heaviest)
        for c, parts, used, heaviest in live
    ]
    return live, weight, [core(c) for c in forced]


class TestIntRoot:
    def test_matches_the_pair_reference(self):
        # Five seeded clause shuffles of every TestSearchTree instance, on
        # both sides of the table cap: the cores and their order, the parts
        # and their order, used, heaviest, the weight and the forced cores.
        rng = random.Random(13)
        ks, forced_seen = set(), 0
        for instance in TestSearchTree.corpus():
            universal, existential = ae_blocks(instance)
            ks.add(len(existential) <= TABLE_BITS)
            for _ in range(5):
                clauses = rng.sample(instance.matrix.clauses, len(instance.matrix.clauses))
                matrix = CnfMatrix(tuple(clauses), instance.matrix.num_vars)
                expected = pair_partition(matrix, universal, existential)
                assert decoded_root(matrix, universal, existential) == expected
                forced_seen += bool(expected[2])
        assert ks == {True, False}
        assert forced_seen > 0


def leaf_tree(result, s):
    """``(result, leaves, branches, max_depth)`` and the three leaf kinds."""
    return (result, s.leaves, s.branches, s.max_depth,
            s.sat_leaves, s.collapse_leaves, s.weight0_leaves)


def unmerged_tree(instance):
    """The tree ``_Search.decide`` builds from the root ``partition_groups``
    gives, and the d it reads, with no group merged into its twin: the
    reference for ``solve``'s."""
    prepared = preprocess(instance)
    universal, existential = ae_blocks(prepared)
    k = len(existential)
    live, weight, forced, d = partition_groups(prepared.matrix, universal, existential)
    # Each core int pos << k | neg as its (pos, neg) mask, and that as its value.
    cores = [(core >> k, core & ((1 << k) - 1)) for core in forced + [core for core, _, _, _ in live]]
    values, decide = clause_values(cores, 0, 0, k)
    live = [(value, *group[1:]) for value, group in zip(values[len(forced) :], live)]
    search = solver._Search(threshold(max(k, 2), d), len(universal), decide)
    result = search.decide(live, weight, values[: len(forced)], -1, ())
    return leaf_tree(result, search.stats)


def root_parts(instance):
    """The live groups' cores at the root, and their distinct parts tuples."""
    universal, existential = ae_blocks(instance)
    live = root_node(instance.matrix, universal, existential)
    return [core for core, _, _, _ in live], {parts for _, parts, _, _ in live}


class TestTwins:
    """Live groups whose universal parts are equal, in the same order, merge
    at the root into the first of them, and the merged group weighs once."""

    @staticmethod
    def corpus():
        yield from TestSearchTree.corpus()
        rng = random.Random(29)
        for _ in range(200):
            n, k = rng.randint(6, 10), rng.randint(3, 6)
            yield make(
                [(FORALL, range(1, n + 1)), (EXISTS, range(n + 1, n + k + 1))],
                core_matrix(rng, n, k).clauses,
                n + k,
            )
        for d, m in ((3, 18), (3, 24), (4, 28), (4, 32), (4, 36), (4, 40)):
            for seed in range(1, 4):
                yield reduce_dnf_to_fe_dqbf(random_dnf(6, m, seed=seed), d).instance

    def test_trees_match_the_unmerged_search(self):
        with_twins = 0
        for instance in self.corpus():
            result, s = solve(instance)
            assert leaf_tree(result, s) == unmerged_tree(instance), emit_failure(instance)
            cores, parts = root_parts(instance)
            with_twins += len(parts) < len(cores)
        # 12 of the 36 TestSearchTree instances, 20 of the 200 core matrices
        # and all 18 theorem-2 outputs have twins.
        assert with_twins == 50

    @pytest.mark.parametrize("seed", range(1, 7))
    def test_index_gadget_twins_weigh_once(self, seed):
        # Theorem 2 at d = 4 pads the 28 terms to 64 indices, so the root has
        # 64 live groups and at most 28 distinct parts tuples, each part one
        # source literal.
        instance = reduce_dnf_to_fe_dqbf(random_dnf(6, 28, seed=seed), 4).instance
        cores, parts = root_parts(instance)
        _, s = solve(instance)
        assert len(cores) == 64
        assert s.weight_trace[0] == len(parts) <= 28

    @pytest.mark.parametrize("seed", range(1, 13))
    def test_twins_above_the_cap(self, seed):
        # k = 18: the twins merge above the table cap too, so the tree is the
        # unmerged search's and the root weighs each distinct parts tuple once.
        psi = random_dnf(6, 32, seed=seed)
        instance = reduce_dnf_to_fe_dqbf(psi, 3).instance
        cores, parts = root_parts(instance)
        universal, existential = ae_blocks(instance)
        assert len(existential) == 18 > TABLE_BITS
        assert len(parts) < len(cores)
        result, s = solve(instance)
        assert result == is_dnf_valid(psi)
        assert leaf_tree(result, s) == unmerged_tree(instance)
        live, unmerged, _, _ = partition_groups(instance.matrix, universal, existential)
        merged = {group[1]: group[3] for group in live}  # parts tuple -> heaviest
        assert s.weight_trace[0] == sum(merged.values()) < unmerged

    @pytest.mark.parametrize("seed", range(1, 5))
    def test_one_game_per_distinct_core_set_above_the_cap(self, monkeypatch, seed):
        # Theorem 2 of a negated random 3-CNF at (14, 60, 3) has k = 26.  A
        # node whose cores do not decide at once hands the set of their ids
        # to the game, and each distinct set is played once.
        psi = random_dnf(14, 60, seed=seed)
        instance = reduce_dnf_to_fe_dqbf(psi, 3).instance
        assert len(ae_blocks(instance)[1]) == 26 > TABLE_BITS
        expected, reference = is_dnf_valid(psi), unmerged_tree(instance)
        checked, games = [], []
        original_check, original_game = solver.sat_check_core, oracle._game

        def spying(cores, carried=-1, decide=None):
            common = reduce(and_, cores, carried)
            if common:
                checked.append(~common)
            return original_check(cores, carried, decide)

        def counting(clauses, universal, index):
            if index == 0:
                games.append(clauses)
            return original_game(clauses, universal, index)

        monkeypatch.setattr(solver, "sat_check_core", spying)
        monkeypatch.setattr(oracle, "_game", counting)
        result, s = solve(instance)
        assert result == expected
        assert leaf_tree(result, s) == reference
        assert len(games) == len(set(checked)) < len(checked)


class TestInvariants:
    def test_hitting_set_missing_a_part_raises(self, monkeypatch):
        monkeypatch.setattr(
            "feqbf.solver.greedy_disjoint",
            lambda parts, x_threshold, u: 0,
        )
        # The group of core x2, whose universal parts {x1} and {-x1} need a
        # hitting set; the cores x2 and -x2 are jointly unsatisfiable, so the
        # root reaches greedy_disjoint.
        instance = make(
            [(FORALL, (1,)), (EXISTS, (2, 3, 4))], [F(2, 1), F(2, -1), F(-2, 1)], 4
        )
        with pytest.raises(SolverInvariantError, match="hitting set misses a universal part"):
            solve(instance)

    def test_weight_failing_to_decrease_raises(self, monkeypatch):
        # A restriction that hands back its parent's node and weight: the
        # root's cores x2 and -x2 are jointly unsatisfiable, so the search
        # branches on x1, and the first child weighs what the root did.
        monkeypatch.setattr(
            "feqbf.solver.restrict_groups",
            lambda node, bits, true_bits, u: (node, sum(group[3] for group in node), []),
        )
        instance = make(
            [(FORALL, (1,)), (EXISTS, (2, 3, 4))], [F(2, 1), F(2, -1), F(-2, 1)], 4
        )
        with pytest.raises(SolverInvariantError, match="weight failed to decrease"):
            solve(instance)

    def test_universal_only_clause_reaching_the_search_raises(self, monkeypatch):
        # Without preprocess the all-universal clause (x1) reaches the search
        # at k = 3 as the bare core.
        monkeypatch.setattr("feqbf.solver.preprocess", lambda instance: instance)
        instance = make(
            [(FORALL, (1,)), (EXISTS, (2, 3, 4))], [F(1), F(1, 2), F(3, 4)], 4
        )
        with pytest.raises(SolverInvariantError, match="universal-only clause reached the recursion"):
            solve(instance)

    def test_tautology_reaching_the_root_is_dropped(self, monkeypatch):
        # Without preprocess the clause (x1 | -x1 | e2) reaches the root with
        # the universal part x1 | -x1, which has two bits for one variable:
        # the root drops it, not preprocess.
        monkeypatch.setattr("feqbf.solver.preprocess", lambda instance: instance)
        instance = make(
            [(FORALL, (1,)), (EXISTS, (2, 3))], [F(1, -1, 2), F(3), F(-2, 1)], 3
        )
        live, weight, forced, d = partition_groups(instance.matrix, (1,), (2, 3))
        assert live == [(0b001, M(1, F(1)), 0b1, 1)]
        assert (weight, forced, d) == (1, [0b10 << 2], 2)
        result, stats = solve(instance)
        assert (result, stats.route, stats.d) == (eval_qbf(instance), "search", 2)

    def test_hitting_set_check_survives_optimized_mode(self):
        root = Path(__file__).resolve().parents[1]
        completed = subprocess.run(
            [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
             f"{__file__}::TestInvariants::test_hitting_set_missing_a_part_raises",
             f"{__file__}::TestInvariants::test_weight_failing_to_decrease_raises",
             f"{__file__}::TestInvariants::test_universal_only_clause_reaching_the_search_raises",
             f"{__file__}::TestInvariants::test_tautology_reaching_the_root_is_dropped"],
            cwd=root,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr
        assert "4 passed" in completed.stdout


def emit_failure(instance):
    from feqbf.qdimacs import emit_qdimacs

    return "solver/oracle disagree on:\n" + emit_qdimacs(instance)

