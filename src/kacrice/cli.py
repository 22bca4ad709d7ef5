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
import functools
import json
import math
import os
import sys

import numpy as np

from . import curves, formulas, level_sets, linalg, oracle
from .config import ExperimentConfig
from .errors import ConfigurationError, KacRiceError
from .estimate import Estimate
from .fields import (
    circle_domain,
    custom_monomial_model,
    isotropic_model,
    isotropic_sigmas,
    kostlan_model,
    sample,
    sphere_domain,
)
from .quadrature import circle_region

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

def build_model(spec: dict):
    kind = spec.get("kind")
    m = spec.get("m", 1)
    if kind == "kostlan":
        return kostlan_model(m, spec.get("degree", 1), spec.get("k", 1))
    if kind == "mixed_kostlan":
        mats = [np.atleast_2d(np.asarray(a, dtype=float)) for a in spec["coeff_mats"]]
        return isotropic_model(mats, m=m)
    if kind == "custom_basis":
        domain = circle_domain() if m == 1 else sphere_domain()
        return custom_monomial_model(domain, spec["exponents"], spec["coeff_cov"])
    raise ConfigurationError(f"cannot build model of kind {kind!r}")


def build_curve(spec: dict):
    axis = tuple(spec.get("axis", (0.0, 0.0, 1.0)))
    if spec["kind"] == "great_circle":
        return curves.great_circle(axis)
    return curves.latitude_circle(float(spec.get("rho", 1.0)), axis)


def _model_sigmas(spec: dict):
    if spec["kind"] == "kostlan":
        d, k = spec.get("degree", 1), spec.get("k", 1)
        return np.eye(k), d * np.eye(k)
    if spec["kind"] == "mixed_kostlan":
        return isotropic_sigmas([np.atleast_2d(np.asarray(a, float))
                                 for a in spec["coeff_mats"]])
    raise ConfigurationError("formula side needs an isotropic (kostlan/mixed) model")


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def _run_point_count(cfg: ExperimentConfig):
    spec = cfg.model
    if spec.get("m", 1) != 1 or spec.get("k", 1) != 1:
        raise ConfigurationError("point_count needs a scalar model on the circle")
    model = build_model(spec)
    y = float(np.atleast_1d(np.asarray(cfg.target.get("y", [0.0]), float))[0])
    s0, s1 = _model_sigmas(spec)
    formula = formulas.isotropic_point_count(s0, s1, [y])
    counter = functools.partial(oracle.count_zeros_circle,
                                grid_n=cfg.param("grid_n"), level=y)
    est = oracle.mc_expected_count(model, counter, cfg.param("n_realizations"), cfg.seed)
    x = spec.get("degree", len(spec.get("coeff_mats", [])) - 1)
    return [_record("point_count", x, formula, est, cfg.seed)], est.flagged


def _run_sphere_count(cfg: ExperimentConfig):
    degrees = cfg.model.get("degrees")
    if not degrees or len(degrees) != 2:
        raise ConfigurationError("sphere_count needs model.degrees = [d1, d2]")
    d1, d2 = degrees
    model1 = kostlan_model(2, d1)
    model2 = kostlan_model(2, d2)
    formula = formulas.shub_smale(degrees)
    n_seeds = cfg.param("n_seeds")

    def counter_by_seed(s: int):
        return oracle.count_common_zeros_sphere(
            sample(model1, s), sample(model2, s + 0x9E3779B9), n_seeds=n_seeds)

    est = oracle.mc_expected_count_seeded(counter_by_seed, cfg.param("n_realizations"),
                                          cfg.seed)
    return [_record("sphere_count", d1 * d2, formula, est, cfg.seed)], est.flagged


def _run_signed_count(cfg: ExperimentConfig):
    spec = cfg.model
    model = build_model(spec)
    if model.output_dim != 1 or model.domain.m != 1:
        raise ConfigurationError("signed_count needs a scalar model on the circle")
    counter = functools.partial(oracle.count_signed_zeros_circle,
                                grid_n=cfg.param("grid_n"))
    est = oracle.mc_expected_count(model, counter, cfg.param("n_realizations"), cfg.seed)
    weighted = formulas.expected_count(
        model, level_sets.point_target([0.0]), circle_region(cfg.param("region_nodes")),
        n_samples=cfg.param("n_samples"), weight=formulas.sign_weight(), seed=cfg.seed)
    rec = _record("signed_count", spec.get("degree", 0), weighted.value, est, cfg.seed)
    # The oracle's SE is exactly 0 (transverse signed counts are all 0), so
    # the discrepancy needs the formula estimate's SE as well.
    rec["discrepancy_se"] = float(est.discrepancy_se(weighted))
    return [rec], est.flagged or weighted.flagged


def _run_kinematic(cfg: ExperimentConfig):
    if cfg.target.get("kind") != "curve_pair":
        raise ConfigurationError("kinematic needs target.kind = curve_pair")
    c1 = build_curve(cfg.target["curve1"])
    c2 = build_curve(cfg.target["curve2"])
    formula = formulas.kinematic_rhs_sphere(c1, c2)
    est = oracle.kinematic_mc(c1, c2, cfg.param("n_rotations"), cfg.seed,
                              max_segment=cfg.param("max_segment"))
    x = cfg.target["curve1"].get("rho", 0.0)
    return [_record("kinematic", x, formula.value, est, cfg.seed)], est.flagged


def _mixture_mats(eps: float, d_low: int, d_high: int):
    mats = [np.zeros((1, 1)) for _ in range(d_high + 1)]
    mats[d_low] = math.sqrt(1.0 - eps) * np.eye(1)
    mats[d_high] = math.sqrt(eps) * np.eye(1)
    return mats


def _run_continuity_sweep(cfg: ExperimentConfig):
    grid = cfg.param("epsilon_grid")
    if not grid:
        raise ConfigurationError("continuity_sweep needs params.epsilon_grid")
    d_low, d_high = cfg.model.get("degrees", [4, 9])
    records = []
    flagged = False
    for eps in grid:
        mats = _mixture_mats(float(eps), d_low, d_high)
        formula = formulas.mixed_kostlan_count(mats)
        model = isotropic_model(mats, m=1)
        counter = functools.partial(oracle.count_zeros_circle, grid_n=cfg.param("grid_n"))
        est = oracle.mc_expected_count(model, counter, cfg.param("n_realizations"), cfg.seed)
        records.append(_record("continuity_sweep", float(eps), formula, est, cfg.seed))
        flagged |= est.flagged
    return records, flagged


def _run_degree_sweep(cfg: ExperimentConfig):
    grid = cfg.param("degree_grid")
    if not grid:
        raise ConfigurationError("degree_sweep needs params.degree_grid")
    records = []
    flagged = False
    for d in grid:
        formula = formulas.isotropic_point_count([[1.0]], [[float(d)]], [0.0])
        model = kostlan_model(1, int(d))
        counter = functools.partial(oracle.count_zeros_circle, grid_n=cfg.param("grid_n"))
        est = oracle.mc_expected_count(model, counter, cfg.param("n_realizations"), cfg.seed)
        records.append(_record("degree_sweep", float(d), formula, est, cfg.seed))
        flagged |= est.flagged
    return records, flagged


def _build_growth_target(spec: dict):
    kind = spec.get("kind", "subspace")
    if kind == "subspace":
        return level_sets.linear_subspace_target(
            int(spec.get("ambient_dim", 3)), int(spec.get("subspace_dim", 2))), 0.0
    if kind == "exp_growth":
        return level_sets.synthetic_growth_target(lambda r: math.exp(r * r)), 1.0
    if kind == "circle":
        return level_sets.circle_target(float(spec.get("radius", 1.0))), 0.0
    raise ConfigurationError(f"subgaussian cannot use target kind {kind!r}")


def _run_subgaussian(cfg: ExperimentConfig):
    grid = cfg.param("R_grid")
    if not grid:
        raise ConfigurationError("subgaussian needs params.R_grid")
    target, expected = _build_growth_target(cfg.target)
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
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
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
        cfg.seed = args.seed
    elif env_seed is not None:
        try:
            cfg.seed = int(env_seed)
        except ValueError:
            raise ConfigurationError(f"KACRICE_SEED must be an integer, got {env_seed!r}")
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
        code, records = run(cfg)
        write_records(records, cfg.output.get("path", ""), cfg.output.get("format", "csv"))
        return code
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KacRiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
