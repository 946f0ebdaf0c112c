"""Command-line interface.

Exit codes follow the SAT-solver convention: 10 for TRUE, 20 for FALSE,
0 for successful auxiliary commands, 2 for a verification mismatch, and 1
for any error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .formulas import DnfFormula, QbfInstance
from .generate import random_dnf, random_forall_exists
from .oracle import DEFAULT_VARIABLE_BOUND, check_equivalence, eval_qbf
from .qdimacs import emit_dnf, emit_qdimacs, parse_dnf, parse_qdimacs
from .reductions import (
    ReductionOutput,
    provenance_text,
    reduce_dnf_to_4qbf,
    reduce_dnf_to_fe_dqbf,
)
from .solver import ae_blocks, solve

EXIT_TRUE = 10
EXIT_FALSE = 20
EXIT_ERROR = 1
EXIT_MISMATCH = 2


def _load_qbf(path: str) -> QbfInstance:
    return parse_qdimacs(Path(path).read_text())


def _load_dnf(path: str) -> DnfFormula:
    formula, dropped = parse_dnf(Path(path).read_text())
    if dropped:
        print(f"warning: dropped {dropped} contradictory term(s)", file=sys.stderr)
    return formula


def _result_line(value: bool) -> int:
    print("TRUE" if value else "FALSE")
    return EXIT_TRUE if value else EXIT_FALSE


def cmd_solve(args) -> int:
    instance = _load_qbf(args.path)
    start = time.perf_counter()
    result, stats = solve(instance)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    if args.stats_json:
        _, existential = ae_blocks(instance)
        report = {
            "instance_id": Path(args.path).stem,
            "k": len(existential),
            "result": result,
            "wall_time_ms": elapsed_ms,
            **asdict(stats),
        }
        Path(args.stats_json).write_text(json.dumps(report, indent=2) + "\n")
    return _result_line(result)


def cmd_oracle(args) -> int:
    instance = _load_qbf(args.path)
    return _result_line(eval_qbf(instance, var_bound=args.bound))


def _negate_cnf(instance: QbfInstance) -> DnfFormula:
    # The complement of a CNF is the DNF of its negated clauses; validity of
    # the result is unsatisfiability of the input.
    terms = tuple(frozenset(-lit for lit in clause) for clause in instance.matrix.clauses)
    return DnfFormula(terms, instance.matrix.num_vars)


def cmd_reduce(args) -> int:
    if args.negate_cnf:
        psi = _negate_cnf(_load_qbf(args.path))
    else:
        psi = _load_dnf(args.path)
    if args.theorem == 1:
        output: ReductionOutput = reduce_dnf_to_4qbf(psi)
    else:
        output = reduce_dnf_to_fe_dqbf(psi, args.d)
    text = emit_qdimacs(output.instance)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if args.provenance:
        Path(args.provenance).write_text(provenance_text(output))
    # Without --out, stdout holds the instance alone, so it pipes into solve.
    summary = f"existential_count={output.existential_count} alternations={output.alternations}"
    print(summary, file=sys.stdout if args.out else sys.stderr)
    return 0


def cmd_verify(args) -> int:
    psi = _load_dnf(args.dnf)
    phi = _load_qbf(args.qbf)
    report = check_equivalence(psi, phi, mode=args.mode, var_bound=args.bound)
    print(report.summary())
    return 0 if report.passed else EXIT_MISMATCH


def cmd_gen(args) -> int:
    if args.kind == "dnf":
        formula = random_dnf(args.n, args.m, arity=args.d, seed=args.seed)
        text = emit_dnf(formula)
    else:
        instance = random_forall_exists(args.n, args.k, args.m, arity=args.d, seed=args.seed)
        text = emit_qdimacs(instance)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="feqbf",
        description="Forall-exists QBF toolkit: solver, reductions, brute-force oracle",
    )
    parser.add_argument("--version", action="version", version=f"feqbf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="decide a forall-exists QDIMACS instance")
    p_solve.add_argument("path")
    p_solve.add_argument("--stats-json", default=None, help="write the run report as JSON")
    p_solve.set_defaults(func=cmd_solve)

    p_oracle = sub.add_parser("oracle", help="decide any QDIMACS instance by brute force")
    p_oracle.add_argument("path")
    p_oracle.add_argument("--bound", type=int, default=DEFAULT_VARIABLE_BOUND)
    p_oracle.set_defaults(func=cmd_oracle)

    p_reduce = sub.add_parser("reduce", help="reduce a DNF file to a QDIMACS instance")
    p_reduce.add_argument("path")
    p_reduce.add_argument("--theorem", type=int, choices=(1, 2), required=True)
    p_reduce.add_argument("--d", type=int, default=3, help="target arity (theorem 2)")
    p_reduce.add_argument("--out", default=None)
    p_reduce.add_argument("--provenance", default=None)
    p_reduce.add_argument("--negate-cnf", action="store_true",
                          help="read a DIMACS CNF and reduce its complement DNF")
    p_reduce.set_defaults(func=cmd_reduce)

    p_verify = sub.add_parser("verify", help="check a DNF against a reduction output")
    p_verify.add_argument("dnf")
    p_verify.add_argument("qbf")
    p_verify.add_argument("--mode", choices=("general", "forall_exists"), default="general")
    p_verify.add_argument("--bound", type=int, default=DEFAULT_VARIABLE_BOUND)
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", help="generate a seeded random instance")
    p_gen.add_argument("--kind", choices=("dnf", "feqbf"), required=True)
    p_gen.add_argument("--n", type=int, required=True, help="variables (dnf) or universals (feqbf)")
    p_gen.add_argument("--m", type=int, required=True, help="terms or clauses")
    p_gen.add_argument("--k", type=int, default=0, help="existential variables (feqbf)")
    p_gen.add_argument("--d", type=int, default=3, help="arity")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
