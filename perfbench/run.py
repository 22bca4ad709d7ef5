"""Benchmark entry point: run one workload in a fresh single-threaded process.

    python3 perfbench/run.py --workload circle_zeros --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload runs in a child Python
process with every BLAS/OpenMP pool capped at one thread (the program is
single-threaded by design; a second BLAS thread on a small shared VM only
adds noise).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("circle_zeros", "sphere_zeros", "kinematic", "kac_rice_density")
TIMEOUT_S = 175.0

SINGLE_THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "KACRICE_THREADS": "1",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "kacrice", "__init__.py")):
        print(f"error: no kacrice sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    env = dict(os.environ, **SINGLE_THREAD_ENV)
    env.pop("KACRICE_SEED", None)
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
