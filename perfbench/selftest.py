"""Show that every correctness check of the benchmark can fail.

    python3 perfbench/selftest.py [--seed N]

Runs one real operation of each workload, confirms that its output passes
every check, then feeds each check a perturbed copy of that output and
confirms that the check rejects it.  Also confirms that BENCHMARK.json
names exactly the metrics the benchmark prints.  Exits 1 if any case
behaves otherwise.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import checks
import tracing
import worker
import workloads

CASES: list[tuple[str, bool]] = []


def expect(name: str, errors: list[str], reject: str | None) -> None:
    """``reject`` is None when the output must pass, else a substring the
    errors must contain."""
    ok = not errors if reject is None else any(reject in e for e in errors)
    CASES.append((name, ok))
    verdict = "passes" if not errors else f"rejected: {errors[0]}"
    print(f"[{'ok' if ok else 'WRONG'}] {name}: {verdict}")


def rewrite(record_bytes: bytes, **changes) -> bytes:
    """The same CSV records with some fields of the first record replaced."""
    rows = list(csv.reader(io.StringIO(record_bytes.decode())))
    header, first = rows[0], rows[1]
    for key, fn in changes.items():
        col = header.index(key)
        first[col] = repr(fn(float(first[col])))
    lines = [",".join(row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def run_real(seed: int):
    kacrice = worker.import_kacrice()
    os.makedirs(worker.OUT, exist_ok=True)
    tracer = tracing.Tracer()
    tracer.install({name: getattr(kacrice, name) for name in worker.LAYERS})
    cli_runs = {}
    for name in ("circle_zeros", "sphere_zeros", "kinematic"):
        wl = workloads.WORKLOADS[name](kacrice, seed, worker.OUT, "selftest")
        try:
            op = wl.round[0]
            tracer.begin_op()
            raw = op.run()
            tracer.end_op()
            _, records = op.outcome(raw)
            config_path, records_path = wl.check_paths
            code = wl.main(["run", "--config", config_path])
            with open(records_path, "rb") as fh:
                check_records = fh.read()
        finally:
            wl.close()
        cli_runs[name] = (wl, op.label, records, tracer.samples[-1], code, check_records)
    density = workloads.DensityWorkload(kacrice, seed, worker.OUT, "selftest")
    estimates = {op.label: op.outcome(op.run())[1] for op in density.round}
    return cli_runs, density, estimates


def cli_cases(name, wl, label, records, samples, code, check_records):
    se = checks.parse_records(check_records.decode())[0]["oracle_se"]

    def check(*outputs):
        return wl.check({label: list(outputs)})

    def traced(samples_, untraced=records, traced_records=records):
        return wl.check_traced({label: [untraced]}, {label: [traced_records]}, [samples_])

    expect(f"{name}: real output", check(records, records), None)
    expect(f"{name}: real check operation", wl.check_statistics(code, check_records), None)
    expect(f"{name}: real per-realization counts", traced(samples), None)
    expect(f"{name}: formula off by 1%",
           check(rewrite(records, formula=lambda v: 1.01 * v)), "formula")
    expect(f"{name}: check operation's formula off by 1%",
           wl.check_statistics(code, rewrite(check_records, formula=lambda v: 1.01 * v)),
           "formula")
    expect(f"{name}: check operation's oracle_mean 5 SE from the expected value",
           wl.check_statistics(code, rewrite(check_records,
                                             oracle_mean=lambda v: wl.expected + 5 * se)),
           "SE")
    expect(f"{name}: check operation exits 3", wl.check_statistics(3, check_records), "exited")
    expect(f"{name}: record seed changed",
           check(rewrite(records, seed=lambda v: int(v) + 1)), "seed")
    expect(f"{name}: second operation differs",
           check(records, rewrite(records, oracle_se=lambda v: v + abs(v) * 1e-12)),
           "differ")
    expect(f"{name}: traced records differ",
           traced(samples, traced_records=rewrite(records, n=lambda v: int(v) + 1)), "differ")
    odd = [(samples[0][0] + 1, samples[0][1])] + samples[1:]
    expect(f"{name}: an odd count", traced(odd), "odd")
    big = [(wl.max_count + 2, samples[0][1])] + samples[1:]
    expect(f"{name}: a count above {wl.max_count}", traced(big), "outside")
    moved = rewrite(records, oracle_mean=lambda v: v * (1 + 1e-9))
    expect(f"{name}: record mean differs from its per-realization counts",
           traced(samples, untraced=moved, traced_records=moved), "mean of per-realization")
    expect(f"{name}: one per-realization count missing", traced(samples[1:]), "record n")


def density_cases(density, estimates):
    outputs = {label: [est, est] for label, est in estimates.items()}
    expect("kac_rice_density: real estimates", density.check(outputs), None)
    for label, (value, se, flagged) in estimates.items():
        off = dict(outputs, **{label: [(1.01 * value, se, flagged)] * 2})
        expect(f"kac_rice_density: {label} estimate off by 1%", density.check(off), "SE")
        drift = dict(outputs, **{label: [(value, se, flagged), (value + se, se, flagged)]})
        expect(f"kac_rice_density: {label} second operation differs",
               density.check(drift), "differ")
        traced = {label: [(value, 1.5 * se, flagged)]}
        expect(f"kac_rice_density: {label} traced estimate differs",
               density.check_traced(outputs, dict(outputs, **traced), []), "differ")


def benchmark_json_cases():
    with open(os.path.join(worker.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    printed = {name: unit for name, (unit, _, _) in tracing.LAYER_METRICS.items()}
    printed[tracing.OVERHEAD_METRIC] = "%"
    errors = [] if layer == printed else [f"per_layer {layer} != printed {printed}"]
    expect("BENCHMARK.json per_layer matches the traced metrics", errors, None)
    e2e = {m["name"] for m in spec["end_to_end"]}
    errors = [] if e2e == {"wall_ratio", "setup_s", "peak_rss_mb"} else [f"end_to_end {e2e}"]
    expect("BENCHMARK.json end_to_end matches the untraced metrics", errors, None)
    names = {w["name"] for w in spec["workloads"]}
    errors = [] if names == set(workloads.WORKLOADS) else [f"workloads {names}"]
    expect("BENCHMARK.json workloads match the benchmark's", errors, None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    benchmark_json_cases()
    cli_runs, density, estimates = run_real(args.seed)
    for name, run in cli_runs.items():
        cli_cases(name, *run)
    density_cases(density, estimates)
    wrong = [name for name, ok in CASES if not ok]
    print(f"{len(CASES) - len(wrong)}/{len(CASES)} cases behave as expected")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
