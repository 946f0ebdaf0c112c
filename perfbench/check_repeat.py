"""Check that the traced run's counts repeat exactly for a seed.

    python3 perfbench/check_repeat.py --workload planted --seed 1 --seconds 30

Runs ``run.py --trace 1`` twice with the same arguments and compares every
per-layer metric that is a count, or a ratio of counts.  Self times may
differ between the two runs; nothing else may.  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
# Ratios of two counts; every other ratio (trace overhead) is a timing.
COUNT_RATIOS = {"solver.greedy_disjoint.family_ratio", "solver.leaf.weight0_ratio", "failed_frac"}


def traced_counts(args) -> dict:
    command = [
        sys.executable, str(RUN),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "1",
    ]
    done = subprocess.run(command, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if m["unit"] == "count" or name in COUNT_RATIOS
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    first, second = traced_counts(args), traced_counts(args)
    differing = {name: (first[name], second.get(name)) for name in first if first[name] != second.get(name)}
    for name, (a, b) in sorted(differing.items()):
        print(f"{name}: {a} != {b}")
    print(f"{len(first)} counts compared, {len(differing)} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
