"""Experiment configuration: a versioned JSON schema with strict validation.

Configs are plain dicts on disk; ``ExperimentConfig.from_dict`` rejects every
key that ``EXPERIMENTS`` does not list for the experiment, with its path, then
fills the documented defaults of the keys the experiment reads, so a config
round-trips bit-identically through serialization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import AbstractSet, Any, Mapping, NamedTuple

import numpy as np

from .errors import ConfigurationError

SCHEMA_VERSION = 1

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

# Per grid parameter: the entries it accepts (JSON numbers, not bools or NaN).
GRID_ENTRIES = {
    "R_grid": ("finite positive numbers",
               lambda v: type(v) in (int, float) and 0 < v < float("inf")),
    "epsilon_grid": ("numbers in [0, 1]", lambda v: type(v) in (int, float) and 0 <= v <= 1),
    "degree_grid": ("integers >= 0", lambda v: type(v) is int and v >= 0),
}


class Reads(NamedTuple):
    """What one experiment reads of a config.

    ``model`` and ``target`` map each kind the experiment builds to the keys
    it reads of that kind, with their defaults (None: the key must be set).
    ``params`` names the PARAM_DEFAULTS it reads, and ``requires`` the
    sections and grids that a config must set.  A section that the
    experiment reads but that a config omits takes its first kind's defaults.
    """

    params: AbstractSet[str] = frozenset()
    model: Mapping[str, Mapping[str, Any]] = {}
    target: Mapping[str, Mapping[str, Any]] = {}
    requires: AbstractSet[str] = frozenset()


_KOSTLAN = {"m": 1, "degree": 1, "k": 1}
_MIXED_KOSTLAN = {"m": 1, "coeff_mats": None}

# Every experiment and what it reads; a config that sets anything else exits 2.
EXPERIMENTS = {
    "point_count": Reads({"n_realizations"},
                         model={"kostlan": _KOSTLAN, "mixed_kostlan": _MIXED_KOSTLAN},
                         target={"point": {"y": [0.0]}}, requires={"model", "target"}),
    "sphere_count": Reads({"n_realizations"}, model={"kostlan": {"m": 1, "degrees": None}},
                          requires={"model"}),
    "signed_count": Reads({"n_realizations", "n_samples", "region_nodes"},
                          model={"kostlan": _KOSTLAN, "mixed_kostlan": _MIXED_KOSTLAN,
                                 "custom_basis": {"m": 1, "exponents": None, "coeff_cov": None}},
                          requires={"model"}),
    "kinematic": Reads({"n_rotations", "max_segment"},
                       target={"curve_pair": {"curve1": None, "curve2": None}},
                       requires={"target"}),
    "continuity_sweep": Reads({"n_realizations", "epsilon_grid"},
                              model={"mixed_kostlan": {"degrees": [4, 9]}},
                              requires={"epsilon_grid"}),
    "degree_sweep": Reads({"n_realizations", "degree_grid"}, requires={"degree_grid"}),
    "subgaussian": Reads({"R_grid"}, target={"subspace": {"ambient_dim": 3, "subspace_dim": 2},
                                             "exp_growth": {}, "circle": {"radius": 1.0}},
                         requires={"R_grid"}),
    "selfcheck": Reads(),
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
        if not isinstance(experiment, str) or experiment not in EXPERIMENTS:
            raise ConfigurationError(f"unknown experiment {experiment!r} at $.experiment")
        params = _validate_params(raw.get("params", {}), experiment)
        model = _validate_section(raw.get("model", {}), "model", experiment)
        target = _validate_section(raw.get("target", {}), "target", experiment)
        seed = check_seed(raw.get("seed", 0), "$.seed")
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


def _require_keys(obj: dict, path: str, allowed: AbstractSet[str], reader: str = "kacrice"):
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{path} must be a JSON object")
    unread = [f"{path}.{key}" for key in obj if key not in allowed]
    if unread:
        raise ConfigurationError(f"{reader} does not read {', '.join(unread)}")


def check_seed(value, source: str) -> int:
    """value if it is a nonnegative integer, else a ConfigurationError naming source."""
    if type(value) is not int or value < 0:
        raise ConfigurationError(f"seed must be a nonnegative integer at {source}")
    return value


def _int(value, path: str, low: int, high: float = float("inf")) -> None:
    if type(value) is not int or not low <= value <= high:
        raise ConfigurationError(f"{path} must be an integer in [{low}, {high}]")


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


def _coeff_mats(value, path: str) -> None:
    if not value or not isinstance(value, list):
        raise ConfigurationError(f"coeff_mats must be a non-empty list at {path}")
    for i, a in enumerate(value):
        _numbers(a, f"{path}[{i}]", (0, 1, 2))


def _degrees(value, path: str) -> None:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigurationError(f"model.degrees must be two integers at {path}")
    for i, d in enumerate(value):
        _int(d, f"{path}[{i}]", 1)


def _curve(curve, path: str) -> None:
    if not isinstance(curve, dict) or curve.get("kind") not in CURVE_KINDS:
        raise ConfigurationError(f"curve spec must have kind in {CURVE_KINDS} at {path}")
    _require_keys(curve, path, {"kind", "axis"} if curve["kind"] == "great_circle"
                  else {"kind", "rho", "axis"}, reader=curve["kind"])
    _numbers(curve.get("rho", 1.0), f"{path}.rho", (0,))
    _numbers(curve.get("axis", [0.0, 0.0, 1.0]), f"{path}.axis", (1,))


# The value check of each model and target key; each names the path it rejects.
KEY_CHECKS = {
    "m": lambda v, path: _int(v, path, 1, 2),
    "degree": lambda v, path: _int(v, path, 0),
    "k": lambda v, path: _int(v, path, 1),
    "degrees": _degrees,
    "coeff_mats": _coeff_mats,
    "exponents": lambda v, path: _numbers(v, path, (2,), kinds="i"),
    "coeff_cov": lambda v, path: _numbers(v, path, (2,)),
    "y": lambda v, path: _numbers(v, path, (0, 1)),
    "radius": lambda v, path: _numbers(v, path, (0,)),
    "ambient_dim": lambda v, path: _int(v, path, 1),
    "subspace_dim": lambda v, path: _int(v, path, 1),
    "curve1": _curve,
    "curve2": _curve,
}


def _validate_section(raw, section: str, experiment: str) -> dict:
    """Check the kind and keys of a model or target section against what the
    experiment reads of it, then fill the defaults of the keys it reads."""
    path = f"$.{section}"
    reads = EXPERIMENTS[experiment]
    kinds = getattr(reads, section)
    if not kinds or not isinstance(raw, dict):
        _require_keys(raw, path, set(), experiment)
        return {}
    if not raw:
        if section in reads.requires:
            raise ConfigurationError(f"{experiment} needs {path}.kind")
        raw = {"kind": next(iter(kinds))}
    kind = raw.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigurationError(f"{experiment} cannot use {section} kind {kind!r} at {path}.kind")
    _require_keys(raw, path, {"kind", *kinds[kind]}, experiment)
    out = {"kind": kind}
    for key, default in kinds[kind].items():
        if key in raw:
            KEY_CHECKS[key](raw[key], f"{path}.{key}")
            out[key] = raw[key]
        elif default is None:
            raise ConfigurationError(f"{experiment} needs {path}.{key}")
        else:
            out[key] = default
    return out


def _validate_params(params: dict, experiment: str) -> dict:
    reads = EXPERIMENTS[experiment]
    _require_keys(params, "$.params", reads.params, experiment)
    for key, value in params.items():
        kind = type(PARAM_DEFAULTS[key])  # type(True) is bool, so bools are rejected
        if kind is list:
            entries, ok = GRID_ENTRIES[key]
            if not (isinstance(value, list) and all(map(ok, value))):
                raise ConfigurationError(f"$.params.{key} must be a list of {entries}")
        elif not (type(value) in (int, kind) and 0 < value < float("inf")):
            raise ConfigurationError(f"$.params.{key} must be a finite positive {kind.__name__}")
        elif key == "max_segment" and value < 1e-5:  # a great circle in 6.3e5 segments
            raise ConfigurationError("$.params.max_segment must be at least 1e-5")
    for key in reads.params & reads.requires:
        if not params.get(key):
            raise ConfigurationError(f"{experiment} needs a non-empty $.params.{key}")
    return dict(params)
