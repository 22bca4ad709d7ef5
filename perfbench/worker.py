"""Run one workload in this (fresh, single-threaded) process; print its result.

Started by ``run.py``, which sets the environment and passes ``--t0``, the
CLOCK_MONOTONIC reading just before this process was started, so that
``setup_s`` covers interpreter start, imports and input construction.

Wall time on a small shared VM drifts by tens of percent over minutes, for
identical work, so one absolute time per run is not steady.  Each operation
of the program is therefore paired with the same operation, on the same
inputs, run by ``reference/kacrice_ref``: a frozen copy of ``src/kacrice``
as it was when the benchmark was added.  The two sides alternate (and swap
which goes first), so both see the same machine state; ``wall_ratio`` is the
median over pairs of program time / reference time.  Absolute medians are
printed on standard error and kept in the README.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference")
OUT = os.path.join(HERE, "out")

LAYERS = ("cli", "config", "fields", "formulas", "level_sets", "linalg", "oracle",
          "quadrature")


def import_package(name: str, directory: str):
    """Import ``name`` and its layers from ``directory``, never from elsewhere."""
    sys.path.insert(0, directory)
    package = importlib.import_module(name)
    for layer in LAYERS:
        importlib.import_module(f"{name}.{layer}")
    if not os.path.abspath(package.__file__).startswith(directory + os.sep):
        raise SystemExit(f"{name} was imported from {package.__file__}, not {directory}")
    return package


def import_kacrice():
    return import_package("kacrice", SRC)


@dataclass
class Pair:
    label: str
    seconds_a: float
    seconds_b: float
    failed_a: bool
    output_a: object
    failed_b: bool
    output_b: object


def timed(op, tracer=None):
    """(seconds, failed, output) of one operation; only ``op.run`` is timed."""
    if tracer is not None:
        tracer.begin_op()
    t = time.perf_counter()
    raw = op.run()
    elapsed = time.perf_counter() - t
    if tracer is not None:
        tracer.end_op()
    return (elapsed, *op.outcome(raw))


def run_pairs(round_a, round_b, budget: float, tracer=None) -> list[Pair]:
    """Alternate matching operations of sides a and b in whole rounds until
    ``budget`` seconds have passed; the side that goes first alternates.
    Side a is traced when a tracer is given."""
    pairs = []
    start = time.perf_counter()
    while time.perf_counter() - start < budget:
        for op_a, op_b in zip(round_a, round_b):
            if len(pairs) % 2 == 0:
                a = timed(op_a, tracer)
                b = timed(op_b)
            else:
                b = timed(op_b)
                a = timed(op_a, tracer)
            pairs.append(Pair(op_a.label, a[0], b[0], a[1], a[2], b[1], b[2]))
    return pairs


def by_label(pairs: list[Pair], side: str) -> dict:
    out: dict = {}
    for p in pairs:
        out.setdefault(p.label, []).append(getattr(p, f"output_{side}"))
    return out


def median_ratio(pairs: list[Pair]) -> float:
    return statistics.median(p.seconds_a / p.seconds_b for p in pairs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)

    import tracing
    import workloads

    kacrice = import_kacrice()
    os.makedirs(OUT, exist_ok=True)
    make = workloads.WORKLOADS[args.workload]
    program = make(kacrice, args.seed, OUT, "program")
    setup_s = time.monotonic() - args.t0
    sides = [program]
    try:
        for op in program.round:  # warm-up: untimed and not counted
            op.run()
        # Every program operation is identical, so the warm-up reaches the
        # peak; the reference side is loaded only after it is read.
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        if not args.trace:
            reference = make(import_package("kacrice_ref", REFERENCE), args.seed, OUT,
                             "reference")
            sides.append(reference)
            for op in reference.round:
                op.run()
            tracer = None
            pairs = run_pairs(program.round, reference.round, args.seconds)
            errors = program.check(by_label(pairs, "a"))
            attempted = [p.failed_a for p in pairs]
            errors += program.statistical_check()
        else:
            # Traced and untraced operations of the program alternate; the
            # wrappers are installed throughout and record only when enabled.
            tracer = tracing.Tracer()
            tracer.install({name: getattr(kacrice, name) for name in LAYERS})
            pairs = run_pairs(program.round, program.round, args.seconds, tracer)
            errors = program.check(by_label(pairs, "b"))
            errors += program.check_traced(by_label(pairs, "b"), by_label(pairs, "a"),
                                           tracer.samples)
            attempted = [p.failed_a for p in pairs] + [p.failed_b for p in pairs]
            errors += program.statistical_check()
    finally:
        for side in sides:
            side.close()

    program_s = statistics.median(p.seconds_a for p in pairs)
    other_s = statistics.median(p.seconds_b for p in pairs)
    if tracer is None:
        metrics = {
            "wall_ratio": {"value": median_ratio(pairs), "unit": "ratio"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
        print(f"median wall time of one operation: program {program_s:.4f} s, "
              f"reference {other_s:.4f} s, {len(pairs)} pairs", file=sys.stderr)
    else:
        metrics = tracer.metrics()
        metrics[tracing.OVERHEAD_METRIC] = {
            "value": 100.0 * (median_ratio(pairs) - 1.0), "unit": "%"}
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "traced_wall_s": program_s, "untraced_wall_s": other_s,
                            "metrics": metrics})
        for name in tracer.absent:
            print(f"trace: helper {name} is absent; its metrics read 0", file=sys.stderr)
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": len(attempted),
        "failed": sum(attempted),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
