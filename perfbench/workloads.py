"""The benchmark's workloads: inputs made from the seed, operations, checks.

A workload is a list of operations that make one round.  Every run times
whole rounds, so the share of failed operations is the same in every run.
Operations of one kind in a run have identical inputs, so their outputs
must be identical; the seed changes the inputs from run to run.

Timed operations take about 0.1-1.2 s each on a 2-vCPU VM.
"""

from __future__ import annotations

import json
import os

import checks

# Timed operations are small, so that a run holds many of them; the 4-SE
# test of the oracle mean runs once per run on a larger, untimed operation,
# where the t-statistic's tails are close to normal: false alarms 1e-4 to
# 3e-4 per run by bootstrap, against 1e-3 (circle, 20) to 2e-2 (sphere, 6).
CIRCLE_DEGREE = 25
CIRCLE_REALIZATIONS = 20
CIRCLE_CHECK_REALIZATIONS = 200

SPHERE_DEGREES = (2, 3)
SPHERE_REALIZATIONS = 6
SPHERE_CHECK_REALIZATIONS = 60

KINEMATIC_RHO = 1.0
KINEMATIC_ROTATIONS = 80    # candidate search dominates from about this many on
KINEMATIC_CHECK_ROTATIONS = 400
KINEMATIC_MAX_SEGMENT = 1e-3

DENSITY_DEGREE = 4
DENSITY_REGION_NODES = 16
DENSITY_FIBER_NODES = 256
DENSITY_JETS = 20_000
DENSITY_CIRCLE_RADIUS = 1.0
DENSITY_SEGMENT_HALF_LENGTH = 6.0


class Operation:
    """One timed call; ``run`` is timed, ``outcome`` turns its result into
    (failed, output) outside the timed region."""

    def __init__(self, label, run, outcome):
        self.label = label
        self.run = run
        self.outcome = outcome


class CliWorkload:
    """One in-process ``kacrice run --config`` per operation.

    ``expected`` is the closed-form value the record's formula side must
    match to ``formula_rel`` and its oracle mean must match to 4 SE;
    ``max_count`` bounds the count of a single realization.
    """

    def __init__(self, kacrice, seed: int, workdir: str, tag: str, config: dict,
                 check_params: dict, expected: float, formula_rel: float, max_count: int):
        self.seed = seed
        self.experiment = config["experiment"]
        self.expected = expected
        self.formula_rel = formula_rel
        self.max_count = max_count
        self.main = kacrice.cli.main
        self.paths = []
        self.config_path, self.records_path = self._write(workdir, tag, "timed", config)
        check_config = dict(config, params=dict(config["params"], **check_params))
        self.check_paths = self._write(workdir, tag, "check", check_config)
        argv = ["run", "--config", self.config_path]
        self.round = [Operation(self.experiment, lambda: self.main(argv), self._outcome)]

    def _write(self, workdir, tag, kind, config):
        stem = os.path.join(workdir, f"{self.experiment}-{tag}-{kind}-{os.getpid()}")
        config_path, records_path = f"{stem}.config.json", f"{stem}.records.csv"
        config = dict(config, seed=self.seed, output={"path": records_path, "format": "csv"})
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        self.paths += [config_path, records_path]
        return config_path, records_path

    def _outcome(self, code):
        with open(self.records_path, "rb") as fh:
            return code != 0, fh.read()

    def _check_record(self, records: list[dict]) -> list[str]:
        return checks.check_record(records, self.experiment, self.expected,
                                   self.formula_rel, self.seed)

    def check(self, outputs: dict) -> list[str]:
        (label, runs), = outputs.items()
        errors = checks.identical(f"{label} records", runs)
        return errors + self._check_record(checks.parse_records(runs[0].decode()))

    def statistical_check(self) -> list[str]:
        """Run the larger, untimed check operation and test its record."""
        config_path, records_path = self.check_paths
        code = self.main(["run", "--config", config_path])
        with open(records_path, "rb") as fh:
            return self.check_statistics(code, fh.read())

    def check_statistics(self, code: int, records: bytes) -> list[str]:
        """The check operation's oracle mean must lie within 4 SE of the
        expected value."""
        parsed = checks.parse_records(records.decode())
        errors = [] if code == 0 else [f"{self.experiment} check operation exited {code}"]
        errors += self._check_record(parsed)
        if not errors:
            rec = parsed[0]
            errors += checks.within_se(f"{self.experiment} oracle_mean", rec["oracle_mean"],
                                       rec["oracle_se"], self.expected)
        return errors

    def check_traced(self, outputs: dict, traced: dict, samples: list) -> list[str]:
        (label, runs), = outputs.items()
        errors = checks.identical(f"{label} traced records", runs[:1] + traced[label])
        record = checks.parse_records(runs[0].decode())[0]
        for op, op_samples in enumerate(samples):
            errors += checks.check_per_realization(f"{label} traced op {op}", op_samples,
                                                   self.max_count, record)
        return errors

    def close(self):
        for path in self.paths:
            if os.path.exists(path):
                os.remove(path)


def circle_zeros(kacrice, seed, workdir, tag):
    config = {
        "schema_version": 1,
        "experiment": "point_count",
        "model": {"kind": "kostlan", "m": 1, "degree": CIRCLE_DEGREE, "k": 1},
        "target": {"kind": "point", "y": [0.0]},
        "params": {"n_realizations": CIRCLE_REALIZATIONS},
    }
    return CliWorkload(kacrice, seed, workdir, tag, config,
                       {"n_realizations": CIRCLE_CHECK_REALIZATIONS},
                       checks.point_count_expected(CIRCLE_DEGREE), 1e-12,
                       max_count=2 * CIRCLE_DEGREE)


def sphere_zeros(kacrice, seed, workdir, tag):
    config = {
        "schema_version": 1,
        "experiment": "sphere_count",
        "model": {"kind": "kostlan", "m": 2, "degrees": list(SPHERE_DEGREES)},
        "params": {"n_realizations": SPHERE_REALIZATIONS},
    }
    # Bezout: at most d1 d2 projective common zeros, as many as d1 d2 mod 2.
    return CliWorkload(kacrice, seed, workdir, tag, config,
                       {"n_realizations": SPHERE_CHECK_REALIZATIONS},
                       checks.sphere_count_expected(SPHERE_DEGREES), 1e-12,
                       max_count=SPHERE_DEGREES[0] * SPHERE_DEGREES[1])


def kinematic(kacrice, seed, workdir, tag):
    config = {
        "schema_version": 1,
        "experiment": "kinematic",
        "target": {"kind": "curve_pair",
                   "curve1": {"kind": "latitude", "rho": KINEMATIC_RHO},
                   "curve2": {"kind": "great_circle"}},
        "params": {"n_rotations": KINEMATIC_ROTATIONS, "max_segment": KINEMATIC_MAX_SEGMENT},
    }
    # A rotated circle meets a great circle in 0 or 2 points.
    return CliWorkload(kacrice, seed, workdir, tag, config,
                       {"n_rotations": KINEMATIC_CHECK_ROTATIONS},
                       checks.kinematic_expected(KINEMATIC_RHO), 1e-4, max_count=2)


class DensityWorkload:
    """Library calls to ``formulas.expected_count``, alternating a compact
    and a truncated non-compact target; a flagged estimate is a failure."""

    def __init__(self, kacrice, seed: int, workdir: str, tag: str):
        fields, formulas = kacrice.fields, kacrice.formulas
        level_sets, quadrature = kacrice.level_sets, kacrice.quadrature
        model = fields.kostlan_model(1, DENSITY_DEGREE, k=2)
        region = quadrature.circle_region(DENSITY_REGION_NODES)
        self.expected = {
            "circle_target": checks.circle_target_expected(
                DENSITY_DEGREE, DENSITY_CIRCLE_RADIUS),
            "segment_target": checks.segment_target_expected(
                DENSITY_DEGREE, DENSITY_SEGMENT_HALF_LENGTH),
        }
        targets = {
            "circle_target": level_sets.circle_target(DENSITY_CIRCLE_RADIUS),
            "segment_target": level_sets.line_segment_target(DENSITY_SEGMENT_HALF_LENGTH),
        }

        def call(target):
            return lambda: formulas.expected_count(
                model, target, region, n_samples=DENSITY_JETS,
                fiber_nodes=DENSITY_FIBER_NODES, seed=seed)

        self.round = [Operation(label, call(target), self._outcome)
                      for label, target in targets.items()]

    @staticmethod
    def _outcome(est):
        return bool(est.flagged), (float(est.value), float(est.std_error), bool(est.flagged))

    def check(self, outputs: dict) -> list[str]:
        errors = []
        for label, runs in outputs.items():
            errors += checks.identical(f"{label} estimates", runs)
            value, se, _ = runs[0]
            errors += checks.within_se(f"{label} estimate", value, se, self.expected[label])
        return errors

    def statistical_check(self) -> list[str]:
        return []  # each timed estimate is already tested against 4 SE

    def check_traced(self, outputs: dict, traced: dict, samples: list) -> list[str]:
        errors = []
        for label, runs in outputs.items():
            errors += checks.identical(f"{label} traced estimates", runs[:1] + traced[label])
        return errors

    def close(self):
        pass


WORKLOADS = {
    "circle_zeros": circle_zeros,
    "sphere_zeros": sphere_zeros,
    "kinematic": kinematic,
    "kac_rice_density": DensityWorkload,
}
