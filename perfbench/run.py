"""Seeded solve/verify benchmark for feqbf.

    python3 perfbench/run.py --workload reduced --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
One process, one closed-loop client, one operation at a time.

``--trace 0`` runs the workload's cases in order for ``--seconds`` and
reports the end-to-end metrics, with times scaled to a reference machine
speed (see ``SPEED_REFERENCE_S``).  ``--trace 1`` runs a fixed prefix of the
same cases twice, untraced and then traced (see ``tracer.py``), and reports
the per-layer metrics from the traced pass; its counts repeat exactly for a
seed.  Either way the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``, and a fuller
record goes to ``perfbench/out/BENCH_<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
# The host's speed drifts by a third over minutes.  Timed metrics are scaled
# to a reference speed: a short fixed loop is read next to every timed
# operation, and the time is multiplied by SPEED_REFERENCE_S over the local
# reading.  Raw times are kept in the record.
SPEED_ITERATIONS = 30_000
SPEED_REFERENCE_S = 0.0025  # typical reading of that loop on a 2-core x86-64 VM


def load_library():
    """Import ``feqbf`` from this checkout afresh, dropping cached modules,
    so that each set-up pays the import."""
    for name in [n for n in sys.modules if n == "feqbf" or n.startswith("feqbf.")]:
        del sys.modules[name]
    lib = importlib.import_module("feqbf")
    if Path(lib.__file__).resolve().parent != SRC / "feqbf":
        raise SystemExit(f"feqbf was imported from {lib.__file__}, not from {SRC}")
    return lib


def speed_reading(iterations: int = SPEED_ITERATIONS) -> float:
    """Seconds taken by a fixed pure-Python loop: a reading of machine speed."""
    start = perf_counter()
    total = 0
    for i in range(iterations):
        total += i * i & 7
    return perf_counter() - start


def calibrate(repeats: int = 3) -> list[float]:
    """The readings behind ``machine.calib_s``: a loop ten times as long."""
    return [speed_reading(10 * SPEED_ITERATIONS) for _ in range(repeats)]


def set_up(workload, seed: int, count: int):
    """Import, instance generation and reference answers, repeated; returns
    the last library and cases with each repetition's time."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # the previous repetition's modules and cases
        start = perf_counter()
        lib = load_library()
        cases = workloads.build_cases(lib, workload, seed, count)
        times.append(perf_counter() - start)
    return lib, cases, times


def run_op(lib, case, log, errors) -> None:
    """Time one operation and log ``[kind, seconds, outcome]``, where the
    outcome is ``ok``, ``wrong`` or the name of the exception raised."""
    start = perf_counter()
    try:
        answer = workloads.run_case(lib, case)
    except Exception as exc:  # an operation that raises is a counted failure
        log.append([case.kind, perf_counter() - start, type(exc).__name__])
        errors.append(traceback.format_exc())
        return
    elapsed = perf_counter() - start
    log.append([case.kind, elapsed, "ok" if answer == case.expected else "wrong"])


def closed_loop(lib, cases, seconds: float):
    """Run the cases in order, wrapping around, until ``seconds`` have passed.
    A short speed reading precedes each operation."""
    log, errors, speed = [], [], []
    start = perf_counter()
    i = 0
    while perf_counter() - start < seconds:
        speed.append(speed_reading())
        run_op(lib, cases[i % len(cases)], log, errors)
        i += 1
    return log, errors, speed


def at_reference_speed(log, speed) -> list[float]:
    """Each operation's time at reference speed, using the median of the five
    speed readings around it."""
    scaled = []
    for j, (_, seconds, _) in enumerate(log):
        local = statistics.median(speed[max(0, j - 2) : j + 3])
        scaled.append(seconds * SPEED_REFERENCE_S / local)
    return scaled


def one_pass(lib, cases, trace=None):
    """Run every case once; with a tracer, tag its spans with the case index."""
    log, errors = [], []
    start = perf_counter()
    for i, case in enumerate(cases):
        if trace is not None:
            trace.op = i
        run_op(lib, case, log, errors)
    return log, errors, perf_counter() - start


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    ``(percentile, value)`` by nearest rank; the maximum when there are
    fewer than eleven samples."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(log, speed, setup_times: list[float], calib_before: list[float]):
    scaled = at_reference_speed(log, speed)
    ok_times = [t for t, (_, _, outcome) in zip(scaled, log) if outcome == "ok"]
    if not ok_times:
        raise SystemExit(f"all {len(log)} operations failed; no latency to report")
    raw_ok = [t for _, t, outcome in log if outcome == "ok"]
    # Set-up runs right after the calibration loop, which reads ten times
    # the speed loop.
    setup_scale = 10 * SPEED_REFERENCE_S / statistics.median(calib_before)
    percentile, tail_s = tail(ok_times)
    metrics = {
        "op_p50_ms": metric(statistics.median(ok_times) * 1e3, "ms"),
        "op_tail_ms": metric(tail_s * 1e3, "ms"),
        "throughput_ops_s": metric(len(ok_times) / sum(scaled), "1/s"),
        "ok_frac": metric(len(ok_times) / len(log), "ratio"),
        "setup_s": metric(statistics.median(setup_times) * setup_scale, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "tail_percentile": percentile,
        "latency_samples": len(ok_times),
        "speed_readings_s": speed,
        "raw": {
            "op_p50_ms": statistics.median(raw_ok) * 1e3,
            "op_tail_ms": tail(raw_ok)[1] * 1e3,
            "throughput_ops_s": len(raw_ok) / sum(t for _, t, _ in log),
            "setup_s": statistics.median(setup_times),
        },
    }
    return metrics, detail


def per_layer(trace, log, traced_s: float, untraced_s: float, calib: list[float]):
    self_s = trace.self_seconds()
    counts = trace.counts()
    calls = counts["calls"]
    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = metric(self_s[layer], "s")
    for layer in (
        "solver.sat_check_core",
        "solver.partition_groups",
        "formulas.apply_assignment_cnf",
        "oracle.eval_qbf",
    ):
        metrics[f"{layer}.calls"] = metric(calls[layer], "count")
    metrics["solver.greedy_disjoint.family_ratio"] = metric(counts["family_ratio"], "ratio")
    for shape in ("leaves", "branches", "max_depth"):
        metrics[f"solver.search.{shape}"] = metric(counts[shape], "count")
    for route, n in counts["routes"].items():
        metrics[f"solver.route.{route}"] = metric(n, "count")
    metrics["solver.leaf.weight0_ratio"] = metric(counts["weight0_ratio"], "ratio")
    failed = sum(outcome != "ok" for _, _, outcome in log)
    metrics["failed_frac"] = metric(failed / len(log), "ratio")
    metrics["trace.overhead_ratio"] = metric(traced_s / untraced_s, "ratio")
    metrics["machine.calib_s"] = metric(statistics.median(calib), "s")
    return metrics, {"self_s": self_s, "counts": counts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = workloads.WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))

    calib_before = calibrate()
    count = workloads.pool_size(workload, args.seconds)
    lib, cases, setup_times = set_up(workload, args.seed, count)
    record = {
        "argv": sys.argv[1:],
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
        },
        "setup_s_each": setup_times,
    }
    if args.trace == 0:
        log, errors, speed = closed_loop(lib, cases, args.seconds)
        calib_after = calibrate()
        metrics, detail = end_to_end(log, speed, setup_times, calib_before)
        record.update(detail)
    else:
        traced_cases = cases[: workloads.traced_pass_size(workload, args.seconds)]
        untraced_log, errors, untraced_s = one_pass(lib, traced_cases)
        with tracing.Tracer(lib) as trace:
            traced_log, traced_errors, traced_s = one_pass(lib, traced_cases, trace)
        calib_after = calibrate()
        errors += traced_errors
        log = untraced_log + traced_log
        metrics, detail = per_layer(
            trace, traced_log, traced_s, untraced_s, calib_before + calib_after
        )
        record.update(detail, untraced_s=untraced_s, traced_s=traced_s)

    wrong = sum(outcome == "wrong" for _, _, outcome in log)
    failed = sum(outcome != "ok" for _, _, outcome in log)
    result = {"correct": wrong == 0, "attempted": len(log), "failed": failed, "metrics": metrics}
    record.update(
        calib_before_s=calib_before,
        calib_after_s=calib_after,
        ops=log,
        errors=errors[:20],
        result=result,
    )
    OUT.mkdir(exist_ok=True)
    stem = f"BENCH_{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace == 1:
        trace.write(OUT / f"{stem}-spans.jsonl.gz")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for error in errors[:3]:
        print(error, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
