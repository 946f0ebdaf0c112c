import pytest

from feqbf.formulas import EXISTS, FORALL
from feqbf.generate import random_dnf, random_forall_exists
from feqbf.qdimacs import emit_dnf, emit_qdimacs


class TestRandomDnf:
    def test_deterministic_under_seed(self):
        a = random_dnf(6, 8, seed=1)
        b = random_dnf(6, 8, seed=1)
        assert emit_dnf(a) == emit_dnf(b)
        assert emit_dnf(random_dnf(6, 8, seed=2)) != emit_dnf(a)

    def test_term_shape(self):
        formula = random_dnf(5, 20, arity=3, seed=9)
        assert formula.num_vars == 5
        assert len(formula.terms) == 20
        for term in formula.terms:
            assert 1 <= len(term) <= 3
            assert len({abs(l) for l in term}) == len(term)

    def test_arity_clamped_to_variable_count(self):
        formula = random_dnf(2, 5, arity=4, seed=3)
        assert all(len(t) == 2 for t in formula.terms)

    def test_size_validation(self):
        for sizes, message in [
            ((0, 4), "num_vars must be positive, got 0"),
            ((-2, 4), "num_vars must be positive, got -2"),
            ((3, -1), "num_terms must be non-negative, got -1"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                random_dnf(*sizes, seed=1)
        with pytest.raises(ValueError, match="^arity must be positive, got 0$"):
            random_dnf(3, 2, arity=0, seed=1)
        assert random_dnf(3, 0, seed=1).terms == ()


class TestRandomForallExists:
    def test_prefix_shape(self):
        instance = random_forall_exists(4, 3, 10, arity=3, seed=5)
        assert [b.quantifier for b in instance.prefix] == [FORALL, EXISTS]
        assert instance.prefix[0].vars == (1, 2, 3, 4)
        assert instance.prefix[1].vars == (5, 6, 7)
        assert all(len(c) <= 3 for c in instance.matrix.clauses)

    def test_deterministic_under_seed(self):
        a = random_forall_exists(4, 4, 12, seed=6)
        b = random_forall_exists(4, 4, 12, seed=6)
        assert emit_qdimacs(a) == emit_qdimacs(b)

    def test_single_block_edges(self):
        only_exists = random_forall_exists(0, 3, 4, seed=7)
        assert [b.quantifier for b in only_exists.prefix] == [EXISTS]
        only_forall = random_forall_exists(3, 0, 2, seed=8)
        assert [b.quantifier for b in only_forall.prefix] == [FORALL]

    def test_size_validation(self):
        for sizes, message in [
            ((0, 0, 1), r"num_universal \+ num_existential must be positive, got 0 \+ 0"),
            ((-1, 3, 1), "num_universal must be non-negative, got -1"),
            ((3, -1, 1), "num_existential must be non-negative, got -1"),
            ((3, 3, -1), "num_clauses must be non-negative, got -1"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                random_forall_exists(*sizes, seed=1)
        with pytest.raises(ValueError, match="^arity must be positive, got -1$"):
            random_forall_exists(3, 3, 1, arity=-1, seed=1)
