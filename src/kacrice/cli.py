"""Experiment runner: `kacrice run|sweep|selfcheck`.

Each experiment computes a formula-side value, an oracle-side Monte Carlo
estimate where applicable, and their discrepancy in standard-error units,
then writes one record per result row.  Records carry a fixed field set

    experiment, x, formula, oracle_mean, oracle_se, discrepancy_se, n, seed

in both CSV (fixed column order, LF endings) and JSON-lines encodings.
Same config + same seed produces byte-identical output.

Exit codes: 0 success, 2 validation error, 3 flagged or diverged estimates.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np

from . import curves, formulas, level_sets, linalg, oracle
from .config import ExperimentConfig, check_seed
from .errors import ConfigurationError, DomainError, KacRiceError
from .estimate import Estimate
from .fields import (
    custom_monomial_model,
    isotropic_model,
    isotropic_sigmas,
    kostlan_model,
    sample,
    unit_sphere,
)
from .quadrature import circle_region

LATITUDE_RHO = 1.0  # polar radius of a latitude curve that sets no rho
CSV_COLUMNS = ("experiment", "x", "formula", "oracle_mean", "oracle_se",
               "discrepancy_se", "n", "seed")


def _record(experiment: str, x: float, formula: float, est: Estimate | None,
            seed: int) -> dict:
    if est is None:
        oracle_mean, oracle_se, n = formula, 0.0, 0
        disc = 0.0
    else:
        oracle_mean, oracle_se, n = est.value, est.std_error, est.n
        disc = est.discrepancy_se(formula)
    return {
        "experiment": experiment,
        "x": float(x),
        "formula": float(formula),
        "oracle_mean": float(oracle_mean),
        "oracle_se": float(oracle_se),
        "discrepancy_se": float(disc),
        "n": int(n),
        "seed": int(seed),
    }


# ---------------------------------------------------------------------------
# Model and target construction from config specs
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _invalid_at(path: str):
    """Report an error raised while building from a config value as an invalid
    value at path (exit 2); DomainErrors raised later keep exit 3."""
    try:
        yield
    except (DomainError, ConfigurationError) as exc:
        raise ConfigurationError(f"{exc} at {path}") from exc


def build_model(spec: dict):
    with _invalid_at("$.model"):
        if spec["kind"] == "kostlan":
            return kostlan_model(spec["m"], spec["degree"], spec["k"])
        if spec["kind"] == "mixed_kostlan":
            mats = [np.atleast_2d(np.asarray(a, dtype=float)) for a in spec["coeff_mats"]]
            return isotropic_model(mats, m=spec["m"])
        return custom_monomial_model(unit_sphere(spec["m"]), spec["exponents"], spec["coeff_cov"])


def build_curve(spec: dict):
    axis = tuple(spec.get("axis", (0.0, 0.0, 1.0)))
    with _invalid_at("$.target"):
        if spec["kind"] == "great_circle":
            return curves.great_circle(axis)
        return curves.latitude_circle(float(spec.get("rho", LATITUDE_RHO)), axis)


def _model_sigmas(spec: dict):
    if spec["kind"] == "kostlan":
        return np.eye(spec["k"]), spec["degree"] * np.eye(spec["k"])
    return isotropic_sigmas([np.atleast_2d(np.asarray(a, float)) for a in spec["coeff_mats"]])


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def _run_point_count(cfg: ExperimentConfig):
    spec = cfg.model
    model = build_model(spec)
    if model.output_dim != 1 or model.domain.m != 1:
        raise ConfigurationError("point_count needs a scalar model on the circle at $.model")
    levels = np.atleast_1d(np.asarray(cfg.target["y"], float))
    if levels.size != 1:
        raise ConfigurationError("point_count needs exactly one level at $.target.y")
    y = float(levels[0])
    s0, s1 = _model_sigmas(spec)
    formula = formulas.isotropic_point_count(s0, s1, [y])
    x = spec["degree"] if spec["kind"] == "kostlan" else len(spec["coeff_mats"]) - 1
    return _circle_counts(cfg, "point_count", [(x, formula, model)], level=y)


def _run_sphere_count(cfg: ExperimentConfig):
    if cfg.model["m"] != 2:
        raise ConfigurationError("sphere_count needs model.m = 2 at $.model.m")
    d1, d2 = degrees = cfg.model["degrees"]
    model1 = kostlan_model(2, d1)
    model2 = kostlan_model(2, d2)
    formula = formulas.shub_smale(degrees)

    def counter_by_seed(s: int):
        return oracle.count_common_zeros_sphere(sample(model1, s), sample(model2, s + 0x9E3779B9))

    est = oracle.mc_expected_count_seeded(counter_by_seed, cfg.param("n_realizations"),
                                          cfg.seed)
    return [_record("sphere_count", d1 * d2, formula, est, cfg.seed)], est.flagged


def _run_signed_count(cfg: ExperimentConfig):
    spec = cfg.model
    model = build_model(spec)
    if model.output_dim != 1 or model.domain.m != 1:
        raise ConfigurationError("signed_count needs a scalar model on the circle at $.model")
    est = oracle.mc_expected_count(model, oracle.count_signed_zeros_circle,
                                   cfg.param("n_realizations"), cfg.seed)
    weighted = formulas.expected_count(
        model, level_sets.point_target([0.0]), circle_region(cfg.param("region_nodes")),
        n_samples=cfg.param("n_samples"), weight=formulas.sign_weight(), seed=cfg.seed)
    rec = _record("signed_count", spec.get("degree", 0), weighted.value, est, cfg.seed)
    # The oracle's SE is exactly 0 (transverse signed counts are all 0), so
    # the discrepancy needs the formula estimate's SE as well.
    rec["discrepancy_se"] = float(est.discrepancy_se(weighted))
    return [rec], est.flagged or weighted.flagged


def _run_kinematic(cfg: ExperimentConfig):
    c1 = build_curve(cfg.target["curve1"])
    c2 = build_curve(cfg.target["curve2"])
    formula = formulas.kinematic_rhs_sphere(c1, c2)
    est = oracle.kinematic_mc(c1, c2, cfg.param("n_rotations"), cfg.seed,
                              max_segment=cfg.param("max_segment"))
    spec1 = cfg.target["curve1"]
    x = spec1.get("rho", LATITUDE_RHO) if spec1["kind"] == "latitude" else 0.0
    return [_record("kinematic", x, formula, est, cfg.seed)], est.flagged


def _mixture_mats(eps: float, d_low: int, d_high: int):
    mats = [np.zeros((1, 1)) for _ in range(d_high + 1)]
    mats[d_low] = math.sqrt(1.0 - eps) * np.eye(1)
    mats[d_high] = math.sqrt(eps) * np.eye(1)
    return mats


def _run_continuity_sweep(cfg: ExperimentConfig):
    grid = cfg.param("epsilon_grid")
    d_low, d_high = cfg.model["degrees"]
    if d_low >= d_high:
        raise ConfigurationError("continuity_sweep needs d_low < d_high at $.model.degrees")
    mixtures = [_mixture_mats(float(eps), d_low, d_high) for eps in grid]
    return _circle_counts(cfg, "continuity_sweep", [
        (eps, formulas.mixed_kostlan_count(mats), isotropic_model(mats, m=1))
        for eps, mats in zip(grid, mixtures)])


def _run_degree_sweep(cfg: ExperimentConfig):
    return _circle_counts(cfg, "degree_sweep", [
        (float(d), formulas.isotropic_point_count([[1.0]], [[float(d)]], [0.0]),
         kostlan_model(1, int(d))) for d in cfg.param("degree_grid")])


def _circle_counts(cfg: ExperimentConfig, experiment: str, cases, level: float = 0.0):
    """One record per case (x, formula, model): the formula against the mean
    number of solutions of X = level on the circle over realizations of model."""
    counter = functools.partial(oracle.count_zeros_circle, level=level)
    records = []
    flagged = False
    for x, formula, model in cases:
        est = oracle.mc_expected_count(model, counter, cfg.param("n_realizations"), cfg.seed)
        records.append(_record(experiment, x, formula, est, cfg.seed))
        flagged |= est.flagged
    return records, flagged


def _build_growth_target(spec: dict):
    with _invalid_at("$.target"):
        if spec["kind"] == "subspace":
            return level_sets.linear_subspace_target(spec["ambient_dim"],
                                                     spec["subspace_dim"]), 0.0
        if spec["kind"] == "exp_growth":
            return level_sets.synthetic_growth_target(lambda r: math.exp(r * r)), 1.0
        return level_sets.circle_target(float(spec["radius"])), 0.0


def _run_subgaussian(cfg: ExperimentConfig):
    grid = cfg.param("R_grid")
    target, expected = _build_growth_target(cfg.target)
    with _invalid_at("$.params.R_grid"):
        fit = formulas.subgaussian_diagnostic(target, grid)
    rec = _record("subgaussian", 0.0, expected, None, cfg.seed)
    rec["oracle_mean"] = float(fit.eps_hat)
    rec["n"] = len(grid)
    return [rec], False


def _run_selfcheck(cfg: ExperimentConfig):
    records = []
    ok = True
    for m in range(1, 9):
        lhs, rhs = formulas.gamma_identity_check(m)
        rec = _record("selfcheck_gamma", float(m), rhs, None, cfg.seed)
        rec["oracle_mean"] = lhs
        rec["discrepancy_se"] = abs(lhs - rhs) / rhs
        records.append(rec)
        ok &= abs(lhs - rhs) / rhs < 1e-12

    rng = np.random.default_rng(cfg.seed)
    worst_perp, worst_proj, worst_sym = 0.0, 0.0, 0.0
    for _ in range(400):
        n = int(rng.integers(4, 8))
        V = linalg.Subspace.span(rng.standard_normal((int(rng.integers(1, n)), n)))
        W = linalg.Subspace.span(rng.standard_normal((int(rng.integers(1, n)), n)))
        s = linalg.principal_angle(V, W)
        worst_sym = max(worst_sym, abs(s - linalg.principal_angle(W, V)))
        worst_perp = max(worst_perp, abs(s - linalg.principal_angle(
            V.orthogonal_complement(), W.orthogonal_complement())))
        inter = linalg.intersect(V, W)
        if W.dim - inter.dim > 0:  # projection form needs W not contained in V
            worst_proj = max(worst_proj, abs(s - linalg.angle_via_projection(V, W)))
    for label, worst in (("angle_symmetry", worst_sym),
                         ("angle_complement", worst_perp),
                         ("angle_projection", worst_proj)):
        rec = _record(f"selfcheck_{label}", 0.0, 0.0, None, cfg.seed)
        rec["oracle_mean"] = worst
        records.append(rec)
        ok &= worst < 1e-9
    return records, not ok


_RUNNERS = {
    "point_count": _run_point_count,
    "sphere_count": _run_sphere_count,
    "signed_count": _run_signed_count,
    "kinematic": _run_kinematic,
    "continuity_sweep": _run_continuity_sweep,
    "degree_sweep": _run_degree_sweep,
    "subgaussian": _run_subgaussian,
    "selfcheck": _run_selfcheck,
}


# ---------------------------------------------------------------------------
# Output and entry points
# ---------------------------------------------------------------------------

def _format_value(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def write_records(records: list[dict], path: str, fmt: str) -> None:
    if fmt == "csv":
        lines = [",".join(CSV_COLUMNS)]
        lines += [",".join(_format_value(r[c]) for c in CSV_COLUMNS) for r in records]
        text = "\n".join(lines) + "\n"
    else:
        text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    if path:
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigurationError(f"cannot write output {path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def run(cfg: ExperimentConfig) -> tuple[int, list[dict]]:
    """Execute one experiment; returns (exit_code, records)."""
    records, flagged = _RUNNERS[cfg.experiment](cfg)
    return (3 if flagged else 0), records


def _load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return ExperimentConfig.from_json(fh.read())
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    env_seed = os.environ.get("KACRICE_SEED")
    if args.seed is not None:
        cfg.seed = check_seed(args.seed, "--seed")
    elif env_seed is not None:
        with contextlib.suppress(ValueError):
            env_seed = int(env_seed)
        cfg.seed = check_seed(env_seed, "KACRICE_SEED")
    if args.out is not None:
        cfg.output["path"] = args.out
    if args.format is not None:
        cfg.output["format"] = args.format
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kacrice",
        description="Expected intersection counts of Gaussian fields: formulas vs oracles.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_config in (("run", True), ("sweep", True), ("selfcheck", False)):
        p = sub.add_parser(name)
        if needs_config:
            p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("csv", "json"), default=None)
    args = parser.parse_args(argv)

    try:
        if args.command == "selfcheck":
            cfg = ExperimentConfig(experiment="selfcheck")
        else:
            cfg = _load_config(args.config)
            if args.command == "sweep" and not cfg.experiment.endswith("_sweep"):
                raise ConfigurationError(
                    "sweep needs a continuity_sweep or degree_sweep experiment")
        cfg = _apply_overrides(cfg, args)
        path = cfg.output.get("path", "")
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise ConfigurationError(f"cannot write output {path}: no such directory")
        code, records = run(cfg)
        write_records(records, path, cfg.output.get("format", "csv"))
        return code
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KacRiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
