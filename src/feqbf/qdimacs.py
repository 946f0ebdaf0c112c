"""QDIMACS and DNF exchange formats.

QDIMACS follows the standard: comment lines ``c ...``, a header
``p cnf <nvars> <nclauses>``, prefix lines starting with ``a`` or ``e``
terminated by 0, and clause lines of integers terminated by 0.  The DNF
format has the same shape with header ``p dnf <nvars> <nterms>`` and terms
in place of clauses.

From the first clause or term line to the last non-blank line, the text is
read in one pass (``_bulk_rows``): every line must end in `` 0`` and hold no
other `` 0``, and every other token must be a key of a table from the
strings of the nonzero literals in range to their values.  Anything else,
such as a comment or blank line among the rows, a tab before the
terminator, ``+3``, ``03``, ``-0``, a lone ``0`` or a late header or prefix
line, makes the pass decline, and the per-line walk reads the section from
its first line, so every error names its line as before.  The walk checks
each line as a whole: its integers are parsed in one ``map``, and the
terminator, a 0 inside the line and the range of its literals are tested on
the list (``0 in``, ``min``, ``max``).  A row is walked literal by literal
only when the range test fails, to name the first offender.  A prefix
line's variables are checked the same way, for their range with ``min`` and
``max`` and for a second declaration with a dict of the line's variables,
its length and its overlap with the variables declared before; they are
walked one by one only when a test fails.
"""

from __future__ import annotations

from itertools import repeat

from .formulas import (
    EXISTS,
    FORALL,
    CnfMatrix,
    DnfFormula,
    QbfInstance,
    is_tautological,
    literal_sort_key,
    normalize_prefix,
)


class FormatError(ValueError):
    """Parse failure, carrying the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _parse_header(line_no: int, line: str, kind: str) -> tuple[int, int]:
    fields = line.split()
    if len(fields) != 4 or fields[0] != "p" or fields[1] != kind:
        raise FormatError(line_no, f"malformed header, expected 'p {kind} <nvars> <ncount>'")
    try:
        num_vars, count = int(fields[2]), int(fields[3])
    except ValueError:
        raise FormatError(line_no, "header counts must be integers") from None
    if num_vars < 0 or count < 0:
        raise FormatError(line_no, "header counts must be non-negative")
    return num_vars, count


def _parse_int_line(line_no: int, line: str) -> list[int]:
    """The integers of a 0-terminated line, without the terminator."""
    try:
        values = list(map(int, line.split()))
    except ValueError:
        raise FormatError(line_no, "non-integer field") from None
    if not values or values.pop() != 0:
        raise FormatError(line_no, "line must be terminated by 0")
    if 0 in values:
        raise FormatError(line_no, "unexpected 0 before the line terminator")
    return values


def _bulk_rows(lines: list[str], num_vars: int) -> list[frozenset[int]] | None:
    """The rows of ``lines``, a section of row lines each ending in `` 0``, read
    in one pass, or None to hand the section to the per-line walk.  The lines
    are joined at line ends and split once at `` 0`` and a line end: one
    piece per line, the last ending in `` 0``, means every line ends in
    `` 0``.  Each token is then looked up in a table of the strings of the
    nonzero literals over 1..num_vars, which rejects anything but a nonzero
    literal in range written as ``str`` writes it, so a 0 left inside a line
    declines too.  The table is built only while it has no more entries than
    the section has tokens."""
    pieces = "\n".join(lines).split(" 0\n")
    if len(pieces) != len(lines) or not pieces[-1].endswith(" 0"):
        return None
    pieces[-1] = pieces[-1][:-2]
    fields = list(map(str.split, pieces))
    if 2 * num_vars > sum(map(len, fields)):
        return None
    table = {str(lit): lit for lit in range(-num_vars, num_vars + 1)}
    del table["0"]
    try:
        return list(map(frozenset, map(map, repeat(table.__getitem__), fields)))
    except KeyError:
        return None


def _read(text: str, kind: str, noun: str, prefix_line=None) -> tuple[int, list[frozenset[int]]]:
    """The header ``p <kind> <nvars> <count>`` and the ``count`` rows (``noun``)
    of literals over 1..nvars after it, as ``(nvars, rows)``.  A line whose
    first field is ``a`` or ``e`` goes to ``prefix_line(line_no, line,
    num_vars, rows)`` when it is given, and is read as a row otherwise.  The
    lines from the first row to the last non-blank one go to ``_bulk_rows``
    once; where it declines, they are walked one by one."""
    num_vars = None
    rows: list[frozenset[int]] = []
    lines = text.splitlines()
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        head = line[0]
        if head == "c":
            continue
        if head == "p":
            if num_vars is not None:
                raise FormatError(line_no, "duplicate header")
            num_vars, count = _parse_header(line_no, line, kind)
            continue
        if num_vars is None:
            raise FormatError(line_no, f"missing 'p {kind}' header")
        if prefix_line is not None and head in "ae" and not line[1:2].strip():
            prefix_line(line_no, line, num_vars, rows)
            continue
        if not rows:  # the first row: the walk appends it or raises
            end = next(i for i in range(len(lines), 0, -1) if lines[i - 1].strip())
            bulk = _bulk_rows(lines[line_no - 1 : end], num_vars)
            if bulk is not None:
                rows = bulk
                break
        row = _parse_int_line(line_no, line)
        if row and (min(row) < -num_vars or max(row) > num_vars):
            for lit in row:
                if abs(lit) > num_vars:
                    raise FormatError(line_no, f"variable {abs(lit)} out of range 1..{num_vars}")
        rows.append(frozenset(row))
    if num_vars is None:
        raise FormatError(1, f"missing 'p {kind}' header")
    if len(rows) != count:
        raise FormatError(
            len(lines) or 1,
            f"header declares {count} {noun} but {len(rows)} were given",
        )
    return num_vars, rows


def _emit(kind: str, num_vars: int, rows, prefix_lines=()) -> str:
    lines = [f"p {kind} {num_vars} {len(rows)}", *prefix_lines]
    for row in rows:
        lits = sorted(row, key=literal_sort_key)
        lines.append(" ".join(map(str, lits)) + (" 0" if lits else "0"))
    return "\n".join(lines) + "\n"


def parse_qdimacs(text: str) -> QbfInstance:
    """Parse QDIMACS text into a QbfInstance.

    Variables that occur in a clause but on no prefix line are bound in an
    outermost existential block, per the usual free-variable convention; a
    file without prefix lines therefore reads as plain SAT.  A variable that
    the header counts but nothing names is bound nowhere.
    """
    blocks: list[tuple[str, list[int]]] = []
    declared: dict[int, int] = {}

    def prefix_line(line_no: int, line: str, num_vars: int, clauses) -> None:
        if clauses:
            raise FormatError(line_no, "prefix line after the first clause")
        vars_ = _parse_int_line(line_no, line[1:])
        fresh = dict.fromkeys(vars_, line_no)
        if vars_ and (
            min(vars_) < 1
            or max(vars_) > num_vars
            or len(fresh) < len(vars_)
            or not declared.keys().isdisjoint(fresh)
        ):
            for v in vars_:
                if v < 1 or v > num_vars:
                    raise FormatError(line_no, f"variable {v} out of range 1..{num_vars}")
                if v in declared:
                    raise FormatError(line_no, f"variable {v} already declared on line {declared[v]}")
                declared[v] = line_no
        declared.update(fresh)
        blocks.append((FORALL if line[0] == "a" else EXISTS, vars_))

    num_vars, clauses = _read(text, "cnf", "clauses", prefix_line)
    matrix = CnfMatrix(tuple(clauses), num_vars)
    free = sorted(matrix.variables.difference(declared))
    return QbfInstance(normalize_prefix([(EXISTS, free)] + blocks), matrix)


def emit_qdimacs(instance: QbfInstance) -> str:
    prefix_lines = [f"{b.quantifier} {' '.join(map(str, b.vars))} 0" for b in instance.prefix]
    return _emit("cnf", instance.matrix.num_vars, instance.matrix.clauses, prefix_lines)


def parse_dnf(text: str) -> tuple[DnfFormula, int]:
    """Parse the DNF format; returns the formula and the number of dropped
    contradictory terms (a term containing both x and -x is unsatisfiable)."""
    num_vars, rows = _read(text, "dnf", "terms")
    terms = [term for term in rows if not is_tautological(term)]
    return DnfFormula(tuple(terms), num_vars), len(rows) - len(terms)


def emit_dnf(formula: DnfFormula) -> str:
    return _emit("dnf", formula.num_vars, formula.terms)
