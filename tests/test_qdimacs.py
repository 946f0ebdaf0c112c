import random

import pytest

from feqbf import qdimacs
from feqbf.formulas import CnfMatrix, DnfFormula, QuantifierBlock
from feqbf.generate import random_dnf, random_forall_exists
from feqbf.qdimacs import (
    FormatError,
    emit_dnf,
    emit_qdimacs,
    parse_dnf,
    parse_qdimacs,
)


def F(*lits):
    return frozenset(lits)


class TestParseQdimacs:
    def test_basic_instance(self):
        instance = parse_qdimacs("p cnf 2 1\na 1 0\ne 2 0\n1 2 0\n")
        assert instance.prefix == (
            QuantifierBlock("a", (1,)),
            QuantifierBlock("e", (2,)),
        )
        assert instance.matrix == CnfMatrix((F(1, 2),), 2)

    def test_comments_and_blank_lines_ignored(self):
        text = "c hello\n\np cnf 1 1\nc again\ne 1 0\n1 0\n"
        instance = parse_qdimacs(text)
        assert instance.matrix.clauses == (F(1),)

    def test_undeclared_variables_become_outer_existentials(self):
        # Variable 3 occurs undeclared; variable 1 occurs nowhere.
        instance = parse_qdimacs("p cnf 3 1\na 2 0\n2 3 0\n")
        assert instance.prefix == (
            QuantifierBlock("e", (3,)),
            QuantifierBlock("a", (2,)),
        )
        assert all(1 not in block.vars for block in instance.prefix)

    def test_unused_header_variables_are_not_bound(self):
        instance = parse_qdimacs("p cnf 100000 1\na 1 0\ne 2 0\n1 2 0\n")
        assert sum(len(block.vars) for block in instance.prefix) == 2
        assert instance.matrix.num_vars == 100000

    def test_plain_cnf_reads_as_sat(self):
        instance = parse_qdimacs("p cnf 2 2\n1 -2 0\n2 0\n")
        assert instance.prefix == (QuantifierBlock("e", (1, 2)),)

    def test_empty_clause_line(self):
        instance = parse_qdimacs("p cnf 1 1\ne 1 0\n0\n")
        assert instance.matrix.clauses == (F(),)

    def test_variable_out_of_range(self):
        with pytest.raises(FormatError, match="line 2.*out of range"):
            parse_qdimacs("p cnf 1 1\n2 0\n")

    def test_malformed_header(self):
        with pytest.raises(FormatError, match="line 1"):
            parse_qdimacs("p dnf 2 1\n1 0\n")

    def test_unterminated_clause(self):
        with pytest.raises(FormatError, match="line 2.*terminated"):
            parse_qdimacs("p cnf 2 1\n1 2\n")

    def test_clause_count_mismatch(self):
        with pytest.raises(FormatError, match="declares 2 clauses"):
            parse_qdimacs("p cnf 2 2\n1 0\n")

    def test_prefix_after_clause(self):
        with pytest.raises(FormatError, match="line 3.*prefix"):
            parse_qdimacs("p cnf 2 1\n1 0\na 2 0\n")

    def test_duplicate_declaration(self):
        with pytest.raises(FormatError, match="already declared"):
            parse_qdimacs("p cnf 2 1\na 1 0\ne 1 0\n1 0\n")

    def test_missing_header(self):
        with pytest.raises(FormatError, match="header"):
            parse_qdimacs("1 0\n")


class TestRoundTrip:
    def test_emit_then_parse_is_identity_on_corpus(self):
        rng = random.Random(2024)
        for i in range(1000):
            n = rng.randint(0, 6)
            k = rng.randint(0 if n else 1, 5)
            m = rng.randint(0, 12)
            instance = random_forall_exists(
                n, k, m, arity=rng.randint(1, 4), seed=rng.randrange(2**32)
            )
            assert parse_qdimacs(emit_qdimacs(instance)) == instance, f"corpus item {i}"

    def test_source_text_round_trip_up_to_normalization(self):
        text = "p cnf 3 2\na 1 0\na 2 0\ne 3 0\n1 3 0\n-2 3 0\n"
        once = parse_qdimacs(text)
        again = parse_qdimacs(emit_qdimacs(once))
        assert once == again
        # same-quantifier neighbours were merged during normalization
        assert [b.quantifier for b in once.prefix] == ["a", "e"]


class TestDnfFormat:
    def test_basic(self):
        formula, dropped = parse_dnf("p dnf 2 2\n1 2 0\n-1 0\n")
        assert formula == DnfFormula((F(1, 2), F(-1)), 2)
        assert dropped == 0

    def test_empty_term_is_true(self):
        formula, dropped = parse_dnf("p dnf 2 1\n0\n")
        assert formula.terms == (F(),)
        assert dropped == 0

    def test_contradictory_term_dropped_with_count(self):
        formula, dropped = parse_dnf("p dnf 1 2\n1 -1 0\n1 0\n")
        assert formula.terms == (F(1),)
        assert dropped == 1

    def test_round_trip(self):
        formula = DnfFormula((F(1, -2, 3), F(), F(-3)), 4)
        parsed, dropped = parse_dnf(emit_dnf(formula))
        assert parsed == formula
        assert dropped == 0

    def test_term_count_mismatch(self):
        with pytest.raises(FormatError, match="declares 3 terms"):
            parse_dnf("p dnf 1 3\n1 0\n")

    def test_variable_out_of_range(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_dnf("p dnf 1 1\n-4 0\n")


class TestErrorMessages:
    """Each check names its line and, where several literals are at fault,
    the first in line order."""

    @pytest.mark.parametrize(
        "text,line_no,message",
        [
            ("p cnf 2 1\na 1 0\ne 2 0\n1 -3 0\n", 4, "variable 3 out of range 1..2"),
            ("p cnf 2 1\na 1 3 0\ne 2 0\n1 2 0\n", 2, "variable 3 out of range 1..2"),
            ("p cnf 2 1\na -1 0\n1 0\n", 2, "variable -1 out of range 1..2"),
            ("p cnf 4 1\n3 -7 5 -9 0\n", 2, "variable 7 out of range 1..4"),
            ("p cnf 2 1\na 1 1 3 0\n1 0\n", 2, "variable 1 already declared on line 2"),
            ("p cnf 2 1\na 1 0\ne 1 3 0\n1 0\n", 3, "variable 1 already declared on line 2"),
            ("p cnf 2 1\n1 0 2 0\n", 2, "unexpected 0 before the line terminator"),
            ("p cnf 2 1\na 1 0 2 0\n1 0\n", 2, "unexpected 0 before the line terminator"),
            ("p cnf 2 2\n1 0\n0 0\n", 3, "unexpected 0 before the line terminator"),
            ("p cnf 2 1\n1 2\n", 2, "line must be terminated by 0"),
            ("p cnf 2 1\na 1\n1 0\n", 2, "line must be terminated by 0"),
            ("p cnf 2 1\ne\n1 0\n", 2, "line must be terminated by 0"),
            ("p cnf 2 1\n1 x 0\n", 2, "non-integer field"),
            ("p cnf 2 1\na1 2 0\n1 0\n", 2, "non-integer field"),
            ("p cnf 2 1\nab 0\n1 0\n", 2, "non-integer field"),
            ("p cnf 2 x\n", 1, "header counts must be integers"),
            ("c\np cnf -1 0\n", 2, "header counts must be non-negative"),
            ("p cnf 2 -1\n", 1, "header counts must be non-negative"),
            # No header line at all: only a comment and a blank line.
            ("c nothing here\n\n", 1, "missing 'p cnf' header"),
            ("", 1, "missing 'p cnf' header"),
        ],
    )
    def test_qdimacs(self, text, line_no, message):
        with pytest.raises(FormatError) as caught:
            parse_qdimacs(text)
        assert str(caught.value) == f"line {line_no}: {message}"
        assert caught.value.line_no == line_no

    @pytest.mark.parametrize(
        "text,message",
        [
            ("p dnf 2 1\n-3 0\n", "variable 3 out of range 1..2"),
            ("p dnf 4 1\n3 -7 5 -9 0\n", "variable 7 out of range 1..4"),
            ("p dnf 2 1\n1 0 0\n", "unexpected 0 before the line terminator"),
            # A DNF has no prefix lines.
            ("p dnf 2 1\na 1 0\n", "non-integer field"),
        ],
    )
    def test_dnf(self, text, message):
        with pytest.raises(FormatError) as caught:
            parse_dnf(text)
        assert str(caught.value) == f"line 2: {message}"

    def test_tab_after_the_quantifier(self):
        # Variable 2 occurs in no clause, so no block binds it.
        instance = parse_qdimacs("p cnf 2 1\ne\t1 0\n1 0\n")
        assert instance.prefix == (QuantifierBlock("e", (1,)),)


def outcome(parse, text):
    """What ``parse`` makes of ``text``: its value, or its error's text."""
    try:
        return parse(text)
    except FormatError as error:
        return str(error)


def first_row(lines):
    """The index of the first row of emitted text, after its header and
    prefix lines."""
    return next((i for i, line in enumerate(lines) if line[0] not in "pae"), len(lines))


def perturb(text, rng):
    """``text`` with one edit among its rows, of a kind that the bulk read
    declines or that the per-line walk reads in its own way."""
    lines = text.splitlines()
    i = rng.randrange(first_row(lines), len(lines) + 1)
    row = i < len(lines)
    kind = rng.choice(
        ["comment", "blank", "crlf", "tab", "trailing", "plus", "zero_pad", "minus_zero",
         "lone_zero", "late_line", "wide_header"]
    )
    if kind == "comment":
        lines.insert(i, "c a comment 0")
    elif kind == "blank":
        lines.insert(i, rng.choice(["", "   "]))
    elif kind == "crlf":
        return "\r\n".join(lines) + "\r\n"
    elif kind == "tab" and row:
        lines[i] = lines[i].replace(" ", "\t")
    elif kind == "trailing" and row:
        lines[i] += rng.choice([" ", "  \t"])
    elif kind in ("plus", "zero_pad") and row:
        fields = lines[i].split()
        j = rng.randrange(len(fields))
        lit = fields[j]
        sign, digits = ("-", lit[1:]) if lit.startswith("-") else ("", lit)
        fields[j] = "+" + lit if kind == "plus" else sign + "0" + digits
        lines[i] = " ".join(fields)
    elif kind == "minus_zero" and row:
        # A terminator the walk accepts, or a 0 before the terminator.
        fields = lines[i].split()
        fields.insert(rng.choice([len(fields) - 1, 0]), "-0")
        lines[i] = " ".join(fields[:-1] if rng.random() < 0.5 else fields)
    elif kind == "lone_zero":
        lines.insert(i, "0")
        if rng.random() < 0.5:
            fields = lines[0].split()
            lines[0] = " ".join(fields[:3] + [str(int(fields[3]) + 1)])
    elif kind == "late_line":
        lines.insert(i, rng.choice([lines[0], "a 1 0", "e 1 0"]))
    elif kind == "wide_header":
        fields = lines[0].split()
        lines[0] = " ".join(fields[:2] + [str(int(fields[2]) + 1000), fields[3]])
    return "\n".join(lines) + "\n"


def decline(lines, num_vars):
    return None


def qdimacs_corpus():
    rng = random.Random(29)
    return [
        emit_qdimacs(
            random_forall_exists(
                rng.randint(0, 8), rng.randint(1, 8), rng.randint(0, 30),
                arity=rng.randint(1, 4), seed=rng.randrange(2**32),
            )
        )
        for _ in range(300)
    ]


def dnf_corpus():
    rng = random.Random(29)
    return [
        emit_dnf(
            random_dnf(rng.randint(1, 10), rng.randint(0, 30), arity=rng.randint(1, 4),
                       seed=rng.randrange(2**32))
        )
        for _ in range(300)
    ]


class TestBulkRead:
    """From the first row on, ``_read`` hands the rest of the text to one bulk
    pass; where that pass declines, the per-line walk reads it."""

    @pytest.mark.parametrize(
        "parse,corpus", [(parse_qdimacs, qdimacs_corpus), (parse_dnf, dnf_corpus)]
    )
    def test_bulk_read_matches_the_per_line_walk(self, monkeypatch, parse, corpus):
        rng = random.Random(7)
        texts = corpus()
        texts += [perturb(text, rng) for text in texts for _ in range(4)]
        bulk = [outcome(parse, text) for text in texts]
        monkeypatch.setattr(qdimacs, "_bulk_rows", decline)
        walk = [outcome(parse, text) for text in texts]
        for text, a, b in zip(texts, bulk, walk):
            assert a == b, text
        # Both kinds of outcome occur among the perturbed texts.
        assert any(isinstance(a, str) for a in bulk) and any(not isinstance(a, str) for a in bulk)

    def test_emitted_text_takes_the_bulk_read(self):
        for text in qdimacs_corpus() + dnf_corpus():
            lines = text.splitlines()
            rows = lines[first_row(lines) :]
            num_vars = int(lines[0].split()[2])
            if rows and 2 * num_vars <= sum(len(line.split()) - 1 for line in rows):
                assert qdimacs._bulk_rows(rows, num_vars) is not None, text

    @pytest.mark.parametrize(
        "lines",
        [
            ["1 -1 0", "0"],
            ["1 -1 0", ""],
            ["1 -1 0", "c 0"],
            ["1 -1  ", "1 0"],
            ["1 -1", "1 0 -1 0"],
            ["1 -1 0 0"],
            ["1\t0 -1 0"],
            ["0 1 -1 0"],
            ["+1 -1 0"],
            ["01 -1 0"],
            ["1 -0 -1 0"],
            ["1 -1 -0"],
            ["1 2 0", "-1 -1 0"],
            ["e 1 0", "-1 1 0"],
        ],
    )
    def test_declines(self, lines):
        # Over one variable the table has two entries, which every case here
        # reaches but the first five.
        assert qdimacs._bulk_rows(lines, 1) is None

    def test_table_only_within_the_token_count(self):
        # Four table entries for two variables: two tokens are too few.
        assert qdimacs._bulk_rows(["1 -2 0"], 2) is None
        assert qdimacs._bulk_rows(["1 -2 0", "2 0", " -1 0"], 2) == [F(1, -2), F(2), F(-1)]

    @pytest.mark.parametrize(
        "parse,corpus", [(parse_qdimacs, qdimacs_corpus), (parse_dnf, dnf_corpus)]
    )
    def test_trailing_blank_lines_keep_the_bulk_read(self, monkeypatch, parse, corpus):
        bulk_rows = qdimacs._bulk_rows
        returned = []

        def spy(lines, num_vars):
            returned.append(bulk_rows(lines, num_vars))
            return returned[-1]

        monkeypatch.setattr(qdimacs, "_bulk_rows", spy)
        bulk_reads = 0
        for text in corpus():
            returned.clear()
            expected = parse(text)
            took_bulk = [rows is not None for rows in returned]
            for tail in ("\n\n", "\n  \n\t\n"):
                returned.clear()
                assert parse(text + tail) == expected, text
                assert [rows is not None for rows in returned] == took_bulk, text
            bulk_reads += any(took_bulk)
        assert bulk_reads > 0

    def test_trailing_blank_lines_keep_the_count_error_line(self):
        with pytest.raises(FormatError) as caught:
            parse_qdimacs("p cnf 2 2\na 1 0\ne 2 0\n1 2 0\n\n\n")
        assert str(caught.value) == "line 6: header declares 2 clauses but 1 were given"
