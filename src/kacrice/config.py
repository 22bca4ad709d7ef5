"""Experiment configuration: a versioned JSON schema with strict validation.

Configs are plain dicts on disk; ``ExperimentConfig.from_dict`` validates
every key (unknown keys are rejected with their path) and fills documented
defaults, so a config round-trips bit-identically through serialization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import ConfigurationError

SCHEMA_VERSION = 1

EXPERIMENTS = (
    "point_count",
    "sphere_count",
    "signed_count",
    "kinematic",
    "continuity_sweep",
    "degree_sweep",
    "subgaussian",
    "selfcheck",
)

MODEL_KINDS = ("kostlan", "mixed_kostlan", "custom_basis")
TARGET_KINDS = ("point", "circle", "subspace", "exp_growth", "curve_pair")
CURVE_KINDS = ("great_circle", "latitude")

# Every numeric parameter with its documented default.  The counting oracles
# take none: a circle or sphere count is the unit-circle roots of one
# polynomial, with no grid or seed set to choose.
PARAM_DEFAULTS: dict[str, Any] = {
    "n_realizations": 2000,   # realizations per Monte Carlo oracle estimate
    "n_samples": 20000,       # inner Monte Carlo jets per density evaluation
    "region_nodes": 16,       # outer cubature nodes on the base manifold
    "n_rotations": 400,       # Haar rotations for the kinematic oracle
    "max_segment": 1e-3,      # polyline resolution on the sphere
    "R_grid": [],             # radii for the sub-Gaussian diagnostic
    "epsilon_grid": [],       # kernel mixture weights for the continuity sweep
    "degree_grid": [],        # degrees for the degree sweep
}

# The parameters each experiment reads; a config that sets any other exits 2.
EXPERIMENT_PARAMS = {
    "point_count": {"n_realizations"},
    "sphere_count": {"n_realizations"},
    "signed_count": {"n_realizations", "n_samples", "region_nodes"},
    "kinematic": {"n_rotations", "max_segment"},
    "continuity_sweep": {"n_realizations", "epsilon_grid"},
    "degree_sweep": {"n_realizations", "degree_grid"},
    "subgaussian": {"R_grid"},
    "selfcheck": set(),
}

# Per grid parameter: the entries it accepts (JSON numbers, not bools or NaN).
GRID_ENTRIES = {
    "R_grid": ("finite positive numbers",
               lambda v: type(v) in (int, float) and 0 < v < float("inf")),
    "epsilon_grid": ("numbers in [0, 1]", lambda v: type(v) in (int, float) and 0 <= v <= 1),
    "degree_grid": ("integers >= 0", lambda v: type(v) is int and v >= 0),
}


@dataclass
class ExperimentConfig:
    experiment: str
    model: dict = field(default_factory=dict)
    target: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    seed: int = 0
    output: dict = field(default_factory=lambda: {"path": "", "format": "csv"})
    schema_version: int = SCHEMA_VERSION

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        _require_keys(raw, "$", allowed={"schema_version", "experiment", "model",
                                         "target", "params", "seed", "output"})
        version = raw.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigurationError(f"unsupported schema_version {version} at $.schema_version")
        experiment = raw.get("experiment")
        if experiment not in EXPERIMENTS:
            raise ConfigurationError(f"unknown experiment {experiment!r} at $.experiment")
        model = _validate_model(raw.get("model", {}))
        target = _validate_target(raw.get("target", {}))
        params = _validate_params(raw.get("params", {}), experiment)
        seed = raw.get("seed", 0)
        if type(seed) is not int or seed < 0:
            raise ConfigurationError("seed must be a nonnegative integer at $.seed")
        output = raw.get("output", {})
        _require_keys(output, "$.output", allowed={"path", "format"})
        output = {"path": "", "format": "csv", **output}
        if not isinstance(output["path"], str):
            raise ConfigurationError("output path must be a string at $.output.path")
        if output["format"] not in ("csv", "json"):
            raise ConfigurationError(
                f"unknown format {output['format']!r} at $.output.format")
        return cls(experiment=experiment, model=model, target=target,
                   params=params, seed=seed, output=output, schema_version=version)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "experiment": self.experiment,
            "model": self.model,
            "target": self.target,
            "params": self.params,
            "seed": self.seed,
            "output": self.output,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def param(self, name: str):
        if name not in PARAM_DEFAULTS:
            raise ConfigurationError(f"unknown parameter {name!r}")
        return self.params.get(name, PARAM_DEFAULTS[name])


def _require_keys(obj: dict, path: str, allowed: set):
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{path} must be a JSON object")
    for key in obj:
        if key not in allowed:
            raise ConfigurationError(f"unknown key {key!r} at {path}.{key}")


def _int(value, path: str, low: int) -> int:
    if type(value) is not int or value < low:
        raise ConfigurationError(f"{path} must be an integer >= {low}")
    return value


def _numbers(value, path: str, ndims: tuple, kinds: str = "if") -> None:
    """Reject value unless it is a non-empty rectangular array of finite JSON
    numbers (of dtype kinds: "if" any number, "i" integers) with ndim in ndims."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = None
    if (arr is None or arr.ndim not in ndims or arr.size == 0
            or arr.dtype.kind not in kinds or not np.isfinite(arr).all()):
        raise ConfigurationError(f"{path} must be a rectangular array of finite numbers")


def _validate_model(model: dict) -> dict:
    if not model:
        return {}
    _require_keys(model, "$.model",
                  allowed={"kind", "m", "degree", "degrees", "k", "coeff_mats",
                           "exponents", "coeff_cov"})
    kind = model.get("kind")
    if kind not in MODEL_KINDS:
        raise ConfigurationError(f"unknown model kind {kind!r} at $.model.kind")
    m = model.get("m", 1)
    if type(m) is not int or m not in (1, 2):
        raise ConfigurationError("model dimension m must be 1 or 2 at $.model.m")
    out = {"kind": kind, "m": m}
    if kind == "kostlan":
        out["degree"] = _int(model.get("degree", 1), "$.model.degree", 0)
        out["k"] = _int(model.get("k", 1), "$.model.k", 1)
    elif kind == "mixed_kostlan":
        mats = model.get("coeff_mats")
        if not mats or not isinstance(mats, list):
            raise ConfigurationError("mixed_kostlan needs coeff_mats at $.model.coeff_mats")
        for i, a in enumerate(mats):
            _numbers(a, f"$.model.coeff_mats[{i}]", (0, 1, 2))
        out["coeff_mats"] = mats
    else:  # custom_basis
        if "exponents" not in model or "coeff_cov" not in model:
            raise ConfigurationError(
                "custom_basis needs exponents and coeff_cov at $.model")
        _numbers(model["exponents"], "$.model.exponents", (2,), kinds="i")
        _numbers(model["coeff_cov"], "$.model.coeff_cov", (2,))
        out["exponents"] = model["exponents"]
        out["coeff_cov"] = model["coeff_cov"]
    if "degrees" in model:
        degrees = model["degrees"]
        if not isinstance(degrees, list) or len(degrees) != 2:
            raise ConfigurationError("model.degrees must be two integers at $.model.degrees")
        out["degrees"] = [_int(d, f"$.model.degrees[{i}]", 1) for i, d in enumerate(degrees)]
    return out


def _validate_target(target: dict) -> dict:
    if not target:
        return {}
    _require_keys(target, "$.target",
                  allowed={"kind", "y", "radius", "ambient_dim", "subspace_dim",
                           "curve1", "curve2"})
    kind = target.get("kind")
    if kind not in TARGET_KINDS:
        raise ConfigurationError(f"unknown target kind {kind!r} at $.target.kind")
    _numbers(target.get("y", [0.0]), "$.target.y", (0, 1))
    _numbers(target.get("radius", 1.0), "$.target.radius", (0,))
    for key in ("ambient_dim", "subspace_dim"):
        _int(target.get(key, 1), f"$.target.{key}", 1)
    if kind == "curve_pair":
        for name in ("curve1", "curve2"):
            curve = target.get(name)
            if not isinstance(curve, dict) or curve.get("kind") not in CURVE_KINDS:
                raise ConfigurationError(
                    f"curve spec must have kind in {CURVE_KINDS} at $.target.{name}")
            _require_keys(curve, f"$.target.{name}", allowed=(
                {"kind", "axis"} if curve["kind"] == "great_circle" else {"kind", "rho", "axis"}))
            _numbers(curve.get("rho", 1.0), f"$.target.{name}.rho", (0,))
            _numbers(curve.get("axis", [0.0, 0.0, 1.0]), f"$.target.{name}.axis", (1,))
    return dict(target)


def _validate_params(params: dict, experiment: str) -> dict:
    _require_keys(params, "$.params", allowed=set(PARAM_DEFAULTS))
    for key, value in params.items():
        kind = type(PARAM_DEFAULTS[key])  # type(True) is bool, so bools are rejected
        if kind is list:
            entries, ok = GRID_ENTRIES[key]
            if not (isinstance(value, list) and all(map(ok, value))):
                raise ConfigurationError(f"$.params.{key} must be a list of {entries}")
        elif not (type(value) in (int, kind) and 0 < value < float("inf")):
            raise ConfigurationError(f"$.params.{key} must be a finite positive {kind.__name__}")
        if key not in EXPERIMENT_PARAMS[experiment]:
            raise ConfigurationError(f"{experiment} does not read $.params.{key}")
    return dict(params)
