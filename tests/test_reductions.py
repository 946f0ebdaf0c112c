import hashlib
import math
import random
import re
import time

import pytest

from feqbf.formulas import DnfFormula, EXISTS, FORALL
from feqbf.generate import random_dnf
from feqbf.oracle import check_equivalence, eval_qbf, is_dnf_valid
from feqbf.reductions import _gadget_size, provenance_text, reduce_dnf_to_4qbf, reduce_dnf_to_fe_dqbf
from feqbf.qdimacs import emit_qdimacs
from feqbf.solver import solve


def F(*lits):
    return frozenset(lits)


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


# SHA-256 of emit_qdimacs + provenance_text for theorem-2 outputs:
# (n, m, seed, d), the existential count and the digest.  The rows at
# (6, 25, d=3) and (10, 80, d=4) have r > d, so their index blocks are split.
THEOREM2_DIGESTS = [
    ((3, 1, 7, 3), 2, "223494f03f6023c702eaf210448a60465420c1cbb656b11dabc6a4274cf7317c"),
    ((5, 9, 1, 3), 6, "950eaf4df9e8a5aee4a36efcc903d09f64e05afcbcb33471dd1cbe426d490ade"),
    ((6, 25, 2, 3), 14, "b2b46207965d74ef0cb462d5935eda0022e9f151c5f127f5ed21abb1318b838e"),
    ((8, 27, 3, 4), 9, "b17a40f8a09e1e910ae51da63bd7e56a501b5cabfde68067ad06c017f6bbf325"),
    ((10, 80, 4, 4), 18, "6a70aee9b30921daa80088e24514096650ff034d14b489ac8d899d13351be761"),
    ((7, 16, 5, 5), 8, "d4ccac07841a7c0a4eee0adcf2b6ad24888a1b8d3497415b9057584681ef9efb"),
    ((9, 80, 6, 5), 12, "9909d0b737c502a0e4e9e9f724c760ff657192a775418600636e1a71018d0d5d"),
]


@pytest.mark.parametrize(
    "case, existential_count, digest",
    THEOREM2_DIGESTS,
    ids=["n{}-m{}-seed{}-d{}".format(*case) for case, *_ in THEOREM2_DIGESTS],
)
def test_theorem2_output_is_pinned(case, existential_count, digest):
    n, m, seed, d = case
    output = reduce_dnf_to_fe_dqbf(random_dnf(n, m, seed=seed), d)
    assert output.recursion_trace == ((n, m),)
    assert output.existential_count == existential_count
    text = emit_qdimacs(output.instance) + provenance_text(output)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _model_length(m):
    """The least L with 4**L >= m."""
    length = 0
    while 4**length < m:
        length += 1
    return length


def _model_gadget(m):
    """The arity-4 gadget's existentials: 3 blocks of r, the least r with
    r**3 >= m (by integer bisection), and ceil((r - 4) / 2) links each."""
    low, high = 1, 1 << (m.bit_length() // 3 + 1)
    while low < high:
        mid = (low + high) // 2
        low, high = (low, mid) if mid**3 >= m else (mid + 1, high)
    return 3 * low + 3 * max(0, -((4 - low) // 2))


def _model_sizes(n, m):
    """(variables, terms) of every level up to the fixed point."""
    sizes = [(n, m)]
    while True:
        length = _model_length(m)
        n_next, m_next = 2 * length + 2 * 2**length + 1, 1 + 2 * 2**length * length
        if n_next + m_next >= n + m:
            return sizes
        n, m = n_next, m_next
        sizes.append((n, m))


def _model_totals(sizes):
    """The existential count of stopping at each level."""
    totals, spent = [], 0
    for _, m in sizes:
        totals.append(spent + _model_gadget(m))
        spent += 2 * _model_length(m) + 1
    return totals


def _model_stop(sizes):
    """The first level whose next cheat level does not lower the count."""
    totals = _model_totals(sizes)
    level = 0
    while level + 1 < len(sizes) and totals[level + 1] < totals[level]:
        level += 1
    return level


class TestTheorem1:
    def test_single_term_base_case(self):
        # The index gadget at arity 4 with r = 1: one index variable per block.
        psi = DnfFormula((F(1),), 1)
        output = reduce_dnf_to_4qbf(psi)
        assert [b.quantifier for b in output.instance.prefix] == [FORALL, EXISTS]
        assert output.instance.matrix.clauses == (F(1, -2, -3, -4), F(2), F(3), F(4))
        assert output.existential_count == 3
        assert eval_qbf(output.instance) is False
        assert is_dnf_valid(psi) is False

    def test_tautology_closes_to_true(self):
        psi = DnfFormula((F(1), F(-1)), 1)
        output = reduce_dnf_to_4qbf(psi)
        assert eval_qbf(output.instance) is True

    def test_base_case_splits_long_clauses(self):
        psi = random_dnf(6, 4, seed=7)
        output = reduce_dnf_to_4qbf(psi)
        assert all(len(c) <= 4 for c in output.instance.matrix.clauses)
        assert output.recursion_trace == ((6, 4),)
        report = check_equivalence(psi, output.instance, var_bound=80)
        assert report.passed, report.summary()
        structural_checks(output, psi, 4)

    def test_recursive_level_exercised(self):
        # One cheat level: the cheat DNF over (z1, z2, w) has size 4, smaller
        # than n + m = 6, and places the gadget.
        psi = DnfFormula((F(1, -3, 5),), 5)
        output = reduce_dnf_to_4qbf(psi, 1)
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
            output = reduce_dnf_to_4qbf(psi, 1)
            assert len(output.recursion_trace) == 2
            assert check_equivalence(psi, output.instance, var_bound=40).passed

    def test_non_shrinking_level_places_the_gadget(self):
        # One level is asked for, but the cheat DNF would have 13 variables +
        # 17 terms, more than 6 + 5.
        psi = random_dnf(6, 5, seed=11)
        output = reduce_dnf_to_4qbf(psi, 1)
        assert output.recursion_trace == ((6, 5),)
        report = check_equivalence(psi, output.instance, var_bound=40)
        assert report.passed, report.summary()
        structural_checks(output, psi, 4)

    # Level 1 cannot shrink (75, 321), so it places the gadget however many
    # levels are asked for past it.
    @pytest.mark.parametrize("levels", [160, 396, 1])
    def test_fixed_point_ends_in_the_gadget(self, levels):
        psi = random_dnf(16, 1024, seed=1)
        start = time.perf_counter()
        output = reduce_dnf_to_4qbf(psi, levels)
        assert time.perf_counter() - start < 5.0
        assert output.recursion_trace == ((16, 1024), (75, 321))
        # Level 0's y and w, then 3 blocks of 7 index variables and 2 links each.
        assert output.existential_count == 11 + 21 + 6 == 38
        structural_checks(output, psi, 4)

    @pytest.mark.parametrize(
        "n, m, seed, trace, existential_count",
        [
            ((16, 64, 1, ((16, 64),), 12)),
            ((16, 256, 1, ((16, 256),), 27)),
            ((16, 1024, 1, ((16, 1024), (75, 321)), 38)),
            ((20, 4096, 1, ((20, 4096), (141, 769), (75, 321)), 51)),
            ((16, 16, 1, ((16, 16),), 9)),
            ((24, 16384, 1, ((24, 16384), (271, 1793), (141, 769), (75, 321)), 66)),
        ],
    )
    def test_logarithmic_existentials(self, n, m, seed, trace, existential_count):
        psi = random_dnf(n, m, seed=seed)
        start = time.perf_counter()
        output = reduce_dnf_to_4qbf(psi)
        assert time.perf_counter() - start < 1.0
        assert output.recursion_trace == trace
        assert output.existential_count == existential_count
        structural_checks(output, psi, 4)

    def test_existentials_follow_the_trace(self):
        # Each recursing level adds its 2L y bits and w; the gadget adds
        # 3 blocks of r = ceil(m**(1/3)) and, for r > 4, ceil((r - 4) / 2)
        # links per block.
        for m in (1, 2, 3, 5, 9, 17, 40, 64, 100, 256, 300, 600, 1024, 1500):
            for asked in (0, 1, 2, 3, None):
                psi = random_dnf(16, m, seed=m)
                output = reduce_dnf_to_4qbf(psi, asked)
                *levels, (_, m_base) = output.recursion_trace
                expected = 0
                for _, m_level in levels:
                    length = math.ceil(math.log(m_level, 4) - 1e-9)
                    expected += 2 * length + 1
                r = 1
                while r**3 < m_base:
                    r += 1
                expected += 3 * r + 3 * max(0, math.ceil((r - 4) / 2))
                assert output.existential_count == expected, (m, asked)
                assert all(len(c) <= 4 for c in output.instance.matrix.clauses)
                structural_checks(output, psi, 4)

    def test_default_has_the_fewest_existentials(self):
        # Among 0 levels up to the fixed point, the default takes the count
        # with the fewest existentials, the fewest levels on a tie.  Any
        # levels value from the fixed point on gives the fixed-point output.
        rng = random.Random(71)
        sizes = [(16, 16), (16, 64), (16, 256), (16, 1024), (20, 4096), (24, 16384)]
        sizes += [(rng.randint(1, 24), rng.randint(1, 1200)) for _ in range(20)]
        for n, m in sizes:
            psi = random_dnf(n, m, seed=1)
            deepest = reduce_dnf_to_4qbf(psi, 10**6)
            outputs = [reduce_dnf_to_4qbf(psi, levels) for levels in range(len(deepest.recursion_trace))]
            assert outputs[-1] == deepest, (n, m)
            counts = [output.existential_count for output in outputs]
            assert reduce_dnf_to_4qbf(psi) == outputs[counts.index(min(counts))], (n, m, counts)

    def test_stopping_rule_is_the_fewest_existentials(self):
        # From the size recurrence alone: stopping at the first cheat level
        # that does not lower k picks the level count that the argmin over
        # every count up to the fixed point picks.  n only decides whether
        # level 0 already is the fixed point, so n = 1 and 10**6 cover both
        # branches.
        for n in (1, 24, 10**6):
            for m in range(1, 16385):
                sizes = _model_sizes(n, m)
                totals = _model_totals(sizes)
                assert _model_stop(sizes) == totals.index(min(totals)), (n, m)
        # Above 4**7 terms, level 1's size depends on L0 alone.  The smallest
        # gadget of the class 4**(L0-1) < m <= 4**L0 costs more than that
        # level, and the later totals fall strictly to the fixed point, so
        # both rules take every level.
        for length in range(8, 61):
            smallest = 4 ** (length - 1) + 1
            sizes = _model_sizes(0, smallest)
            totals = _model_totals(sizes)
            assert sizes[1] == _model_sizes(0, 4**length)[1]
            assert sum(sizes[1]) < smallest
            assert totals[0] > totals[1]
            assert all(earlier > later for earlier, later in zip(totals[1:], totals[2:]))
            assert _model_stop(sizes) == len(sizes) - 1
        # The model is the reduction's own: its default trace for n = 16.
        for m in (1, 5, 17, 64, 300, 1024, 4096):
            sizes = _model_sizes(16, m)
            output = reduce_dnf_to_4qbf(random_dnf(16, m, seed=m))
            assert output.recursion_trace == tuple(sizes[: _model_stop(sizes) + 1])

    def test_gadget_size_matches_theorem2(self):
        # The stopping rule's count of the gadget's existentials is the count
        # the gadget draws.
        for d in (3, 4, 5):
            for m in range(1, 301):
                psi = DnfFormula(tuple(F(1 + i % 4) for i in range(m)), 4)
                r, existentials = _gadget_size(m, d)
                assert (r - 1) ** (d - 1) < m <= r ** (d - 1)
                assert existentials == reduce_dnf_to_fe_dqbf(psi, d).existential_count, (m, d)

    def test_recursing_outputs_match_the_source(self):
        # At one level, n = 9..12 and m = 1..4 recurse once at L = 0 or 1
        # (or place the gadget at level 0) and the gadget ends the trace.
        rng = random.Random(59)
        depths = set()
        for _ in range(40):
            n, m = rng.randint(9, 12), rng.randint(1, 4)
            psi = random_dnf(n, m, seed=rng.randrange(2**32))
            output = reduce_dnf_to_4qbf(psi, 1)
            depths.add(len(output.recursion_trace))
            report = check_equivalence(psi, output.instance, var_bound=40)
            assert report.passed, report.summary()
            structural_checks(output, psi, 4)
        assert depths == {1, 2}

    def test_one_level_at_length_two(self):
        # m = 5..16 pads to 16 terms (L = 2), whose cheat DNF has 13 variables
        # and 17 terms.  Vacuous low variables bring level 0 to n + m = 31, so
        # it recurses once; the walk decides the vacuous bits as one block.
        rng = random.Random(61)
        for m in (5, 8):
            n = 31 - m
            inner = random_dnf(6, m, seed=rng.randrange(2**32))
            shift = n - 6
            psi = DnfFormula(
                tuple(frozenset(lit + shift if lit > 0 else lit - shift for lit in term) for term in inner.terms),
                n,
            )
            output = reduce_dnf_to_4qbf(psi, 1)
            assert output.recursion_trace == ((n, m), (13, 17))
            report = check_equivalence(psi, output.instance, var_bound=40)
            assert report.passed, report.summary()

    def test_solver_agrees_on_level_zero_gadgets(self):
        rng = random.Random(67)
        for _ in range(30):
            psi = random_dnf(rng.randint(1, 8), rng.randint(1, 12), seed=rng.randrange(2**32))
            output = reduce_dnf_to_4qbf(psi, 0)
            assert len(output.recursion_trace) == 1
            assert [b.quantifier for b in output.instance.prefix] == [FORALL, EXISTS]
            result, _ = solve(output.instance)
            assert result == is_dnf_valid(psi)

    def test_rejects_negative_levels_and_empty_source(self):
        with pytest.raises(ValueError, match="levels"):
            reduce_dnf_to_4qbf(DnfFormula((F(1),), 1), -1)
        with pytest.raises(ValueError, match="term"):
            reduce_dnf_to_4qbf(DnfFormula((), 1))

    def test_deterministic(self):
        psi = random_dnf(5, 6, seed=77)
        first = reduce_dnf_to_4qbf(psi)
        second = reduce_dnf_to_4qbf(psi)
        assert emit_qdimacs(first.instance) == emit_qdimacs(second.instance)


# SHA-256 of emit_qdimacs + provenance_text for theorem-1 outputs, each
# ending in the index gadget at arity 4: (n, m, seed, levels), the recursion
# trace, the existential count and the digest.  A levels value past the fixed
# point pins the fixed-point output, as the positional 20 of perfbench's
# verify workload does.  Each id ends in t and the levels value.
THEOREM1_DIGESTS = [
    ((16, 64, 1, 72), ((16, 64), (23, 49)), 19,
     "8c92b320097eccd0208a15aaba2ad2fd2acddfb917b4416bc029a7bc429a7d01"),
    ((12, 3, 1, 0), ((12, 3),), 6,
     "04b3683f3a0391357bf856a923433972c76474cb660d8372f6db45ff56fd289d"),
    ((14, 2, 5, 0), ((14, 2),), 6,
     "453f4388360689ded923639dc038f29d7ad2702927528914090569f5f50e6677"),
    ((7, 13, 1, 20), ((7, 13),), 9,
     "e1f13b5b35360fa553eff94fd17955ac0909929a77d2f72caad5e4c5fe68735e"),
    ((9, 17, 4, 30), ((9, 17),), 9,
     "7857ff2495a314e880513f1017772f53e28a89a2080f2c3ceaeb78f303ff1d34"),
    ((6, 8, 1, 20), ((6, 8),), 6,
     "086258423b1a50622170fbaa8d461b8f60e326df00ddf907a7753c6f75239c46"),
    ((5, 20, 2, 30), ((5, 20),), 9,
     "362bc22529a9590ed02f4ccfda8e3bbb1a7bb7b6e519d6de17200fd1affda7c5"),
    ((10, 40, 3, 60), ((10, 40),), 12,
     "d38a043d08dcba9cf6dd9d043d9919a27787d19940e97aeb8ff94397a859f59e"),
    # One cheat level, then two: the fixed point.
    ((16, 1024, 1, 20), ((16, 1024), (75, 321)), 38,
     "39411248a87636de7dc29e79cd57752982e090a97fd345e083efc4eaa60c83fe"),
    ((20, 4096, 1, 20), ((20, 4096), (141, 769), (75, 321)), 51,
     "93cc3d5b20a421eb0c7dc91cfa59077d56a9a83e66c070a65ca8e4daca49e42d"),
]


@pytest.mark.parametrize(
    "case, trace, existential_count, digest",
    THEOREM1_DIGESTS,
    ids=["n{}-m{}-seed{}-t{}".format(*case) for case, *_ in THEOREM1_DIGESTS],
)
def test_theorem1_output_is_pinned(case, trace, existential_count, digest):
    n, m, seed, levels = case
    output = reduce_dnf_to_4qbf(random_dnf(n, m, seed=seed), levels)
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
        output = reduce_dnf_to_4qbf(psi, 1)
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
                lambda: reduce_dnf_to_4qbf(DnfFormula((F(1, -3, 5),), 5), 1),
                {"L0.z1[0]", "L0.z2[0]", "L0.w"},
            ),
            # Trace ((16, 64), (23, 49)): y bits, then a gadget with r = 4.
            (
                lambda: reduce_dnf_to_4qbf(random_dnf(16, 64, seed=1), 1),
                {"L0.y[0]", "L0.z1[7]", "L0.w", "L1.base.y1[0]", "L1.base.y3[3]"},
            ),
            # Trace ((16, 256), (41, 129)): a gadget with r = 6 > 4 splits.
            (
                lambda: reduce_dnf_to_4qbf(random_dnf(16, 256, seed=1), 1),
                {"L0.y[7]", "L1.base.y3[5]", "L1.base.split_y1", "L1.base.split_y3"},
            ),
        ],
        ids=["theorem2-split", "theorem1-recursing", "theorem1-to-base-23", "theorem1-to-base-41"],
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
