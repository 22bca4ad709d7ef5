"""Experiment configuration: a versioned JSON schema with strict validation.

Configs are plain dicts on disk; ``ExperimentConfig.from_dict`` validates
every key (unknown keys are rejected with their path) and fills documented
defaults, so a config round-trips bit-identically through serialization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

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
TARGET_KINDS = ("point", "circle", "subspace", "exp_growth", "curve_pair", "half_line")
CURVE_KINDS = ("great_circle", "latitude")

# Every numeric parameter with its documented default.
PARAM_DEFAULTS: dict[str, Any] = {
    "n_realizations": 2000,   # realizations per Monte Carlo oracle estimate
    "n_samples": 20000,       # inner Monte Carlo jets per density evaluation
    "fiber_nodes": 256,       # cubature nodes on the target submanifold
    "grid_n": 1024,           # circle grid for sign-change root counting
    "n_seeds": 1500,          # Newton seed grid size on the sphere
    "region_nodes": 16,       # outer cubature nodes on the base manifold
    "n_rotations": 400,       # Haar rotations for the kinematic oracle
    "max_segment": 1e-3,      # polyline resolution on the sphere
    "R_grid": [],             # radii for the sub-Gaussian diagnostic
    "epsilon_grid": [],       # kernel mixture weights for the continuity sweep
    "degree_grid": [],        # degrees for the degree sweep
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
        params = _validate_params(raw.get("params", {}))
        seed = raw.get("seed", 0)
        if not isinstance(seed, int) or seed < 0:
            raise ConfigurationError("seed must be a nonnegative integer at $.seed")
        output = dict(raw.get("output", {}))
        _require_keys(output, "$.output", allowed={"path", "format"})
        output.setdefault("path", "")
        output.setdefault("format", "csv")
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
        if not isinstance(raw, dict):
            raise ConfigurationError("config root must be a JSON object")
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
    for key in obj:
        if key not in allowed:
            raise ConfigurationError(f"unknown key {key!r} at {path}.{key}")


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
    if m not in (1, 2):
        raise ConfigurationError("model dimension m must be 1 or 2 at $.model.m")
    out = {"kind": kind, "m": m}
    if kind == "kostlan":
        out["degree"] = int(model.get("degree", 1))
        out["k"] = int(model.get("k", 1))
    elif kind == "mixed_kostlan":
        mats = model.get("coeff_mats")
        if not mats:
            raise ConfigurationError("mixed_kostlan needs coeff_mats at $.model.coeff_mats")
        out["coeff_mats"] = mats
    else:  # custom_basis
        if "exponents" not in model or "coeff_cov" not in model:
            raise ConfigurationError(
                "custom_basis needs exponents and coeff_cov at $.model")
        out["exponents"] = model["exponents"]
        out["coeff_cov"] = model["coeff_cov"]
    if "degrees" in model:
        out["degrees"] = [int(d) for d in model["degrees"]]
    return out


def _validate_target(target: dict) -> dict:
    if not target:
        return {}
    _require_keys(target, "$.target",
                  allowed={"kind", "y", "radius", "ambient_dim", "subspace_dim",
                           "curve1", "curve2", "threshold"})
    kind = target.get("kind")
    if kind not in TARGET_KINDS:
        raise ConfigurationError(f"unknown target kind {kind!r} at $.target.kind")
    out = dict(target)
    if kind == "curve_pair":
        for name in ("curve1", "curve2"):
            curve = target.get(name)
            if not isinstance(curve, dict) or curve.get("kind") not in CURVE_KINDS:
                raise ConfigurationError(
                    f"curve spec must have kind in {CURVE_KINDS} at $.target.{name}")
    return out


def _validate_params(params: dict) -> dict:
    _require_keys(params, "$.params", allowed=set(PARAM_DEFAULTS))
    for key, value in params.items():
        kind = type(PARAM_DEFAULTS[key])  # type(True) is bool, so bools are rejected
        if kind is not list and not (type(value) in (int, kind) and 0 < value < float("inf")):
            raise ConfigurationError(f"$.params.{key} must be a finite positive {kind.__name__}")
    return dict(params)
