import contextlib
import copy
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kacrice import cli
from kacrice.cli import main, run, write_records
from kacrice.config import EXPERIMENTS, ExperimentConfig, PARAM_DEFAULTS
from kacrice.errors import ConfigurationError


def write_config(tmp_path, cfg: dict) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def point_count_config(tmp_path, out_name="out.csv", fmt="csv", n=60):
    return {
        "schema_version": 1,
        "experiment": "point_count",
        "model": {"kind": "kostlan", "m": 1, "degree": 9, "k": 1},
        "target": {"kind": "point", "y": [0.0]},
        "params": {"n_realizations": n},
        "seed": 123,
        "output": {"path": str(tmp_path / out_name), "format": fmt},
    }


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

def test_config_roundtrip_is_bit_identical(tmp_path):
    # Validation fills only defaults the experiment reads, so a filled config
    # validates again to itself.
    for raw in [point_count_config(tmp_path)] + [dict(small, experiment=name)
                                                 for name, small in SMALL_CONFIGS.items()]:
        cfg = ExperimentConfig.from_dict(raw)
        again = ExperimentConfig.from_dict(json.loads(cfg.to_json()))
        assert cfg.to_json() == again.to_json()
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


def test_config_rejects_unknown_experiment():
    with pytest.raises(ConfigurationError, match=r"\$\.experiment"):
        ExperimentConfig.from_dict({"experiment": "nope"})


def test_config_rejects_unknown_key_with_path():
    with pytest.raises(ConfigurationError, match=r"\$\.params\.bogus"):
        ExperimentConfig.from_dict({"experiment": "point_count",
                                    "params": {"bogus": 1}})


def test_readme_example_config_validates():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```json\n", 1)[1].split("```", 1)[0]
    cfg = ExperimentConfig.from_dict(json.loads(block))
    assert cfg.experiment == "point_count"


def test_config_rejects_bad_model_kind():
    with pytest.raises(ConfigurationError, match=r"\$\.model\.kind"):
        ExperimentConfig.from_dict({"experiment": "point_count",
                                    "model": {"kind": "spline"}})


def test_config_defaults_documented():
    cfg = ExperimentConfig.from_dict({"experiment": "selfcheck"})
    for name in PARAM_DEFAULTS:
        assert cfg.param(name) == PARAM_DEFAULTS[name]


# ---------------------------------------------------------------------------
# Experiments through the public entry point
# ---------------------------------------------------------------------------

def test_run_point_count_end_to_end(tmp_path):
    path = write_config(tmp_path, point_count_config(tmp_path))
    assert main(["run", "--config", path]) == 0
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert lines[0] == "experiment,x,formula,oracle_mean,oracle_se,discrepancy_se,n,seed"
    fields = lines[1].split(",")
    assert fields[0] == "point_count"
    assert float(fields[2]) == pytest.approx(6.0)  # 2 sqrt(9)
    assert float(fields[5]) < 4.0  # oracle within a few standard errors


def test_run_byte_identical_reruns(tmp_path):
    cfg = point_count_config(tmp_path)
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", path]) == 0
    first = (tmp_path / "out.csv").read_bytes()
    assert main(["run", "--config", path]) == 0
    assert (tmp_path / "out.csv").read_bytes() == first


def test_csv_and_json_carry_identical_fields(tmp_path):
    cfg = point_count_config(tmp_path, n=30)
    code, records = run(ExperimentConfig.from_dict(cfg))
    assert code == 0
    write_records(records, str(tmp_path / "r.csv"), "csv")
    write_records(records, str(tmp_path / "r.json"), "json")
    header = (tmp_path / "r.csv").read_text().splitlines()[0].split(",")
    json_keys = sorted(json.loads((tmp_path / "r.json").read_text().splitlines()[0]))
    assert sorted(header) == json_keys


def test_seed_flag_and_env_override(tmp_path, monkeypatch):
    cfg = point_count_config(tmp_path, n=30)
    path = write_config(tmp_path, cfg)
    main(["run", "--config", path, "--seed", "999"])
    flag_out = (tmp_path / "out.csv").read_text()
    assert ",999" in flag_out.splitlines()[1]
    monkeypatch.setenv("KACRICE_SEED", "555")
    main(["run", "--config", path])
    env_out = (tmp_path / "out.csv").read_text()
    assert ",555" in env_out.splitlines()[1]


@pytest.mark.parametrize("argv, env, source", [
    (["--seed", "-1"], None, "--seed"),
    ([], "-3", "KACRICE_SEED"),
    ([], "abc", "KACRICE_SEED"),
])
def test_bad_seed_override_exits_2(tmp_path, monkeypatch, capsys, argv, env, source):
    path = write_config(tmp_path, point_count_config(tmp_path, n=5))
    if env is not None:
        monkeypatch.setenv("KACRICE_SEED", env)
    assert main(["run", "--config", path, *argv]) == 2
    err = capsys.readouterr().err
    assert f"seed must be a nonnegative integer at {source}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


def test_unwritable_output_exits_2(tmp_path, capsys, monkeypatch):
    # A missing output directory exits 2 before the experiment runs.
    ran = []
    for name in cli._RUNNERS:
        monkeypatch.setitem(cli._RUNNERS, name, lambda cfg, name=name: ran.append(name))
    out = str(tmp_path / "missing" / "x.csv")
    assert main(["selfcheck", "--out", out]) == 2
    cfg = dict(point_count_config(tmp_path, n=5), output={"path": out, "format": "csv"})
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count(f"cannot write output {out}") == 2
    assert "Traceback" not in err
    assert ran == []


def test_signed_count_discrepancy_uses_formula_se(tmp_path):
    # Every transverse signed count is 0, so the oracle SE is 0 and only
    # the formula estimate's SE can scale the discrepancy.
    cfg = {
        "experiment": "signed_count",
        "model": {"kind": "kostlan", "m": 1, "degree": 7, "k": 1},
        "params": {"n_realizations": 200},
        "seed": 707,
        "output": {"path": str(tmp_path / "signed.csv"), "format": "csv"},
    }
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 0
    row = (tmp_path / "signed.csv").read_text().splitlines()[1].split(",")
    assert float(row[4]) == 0.0
    assert 0.0 < float(row[5]) < 4.0


def test_invalid_config_exits_2(tmp_path):
    path = write_config(tmp_path, {"experiment": "bogus"})
    assert main(["run", "--config", path]) == 2


@pytest.mark.parametrize("key, value", [
    ("n_realizations", 0), ("n_samples", "10"), ("n_samples", None),
    ("n_seeds", -1), ("region_nodes", 0), ("n_rotations", 1.0),
    ("max_segment", 0.0), ("max_segment", -1e-3), ("max_segment", float("inf")),
    ("max_segment", float("nan")), ("max_segment", False),
])
def test_bad_count_params_exit_2(tmp_path, capsys, key, value):
    cfg = point_count_config(tmp_path)
    cfg["params"][key] = value
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert f"$.params.{key}" in err
    assert "Traceback" not in err


KOSTLAN = {"kind": "kostlan", "m": 1, "k": 1}
CUSTOM = {"kind": "custom_basis", "m": 1, "exponents": [[1, 0], [0, 1]]}
CURVES = {"kind": "curve_pair", "curve2": {"kind": "great_circle"}}


@pytest.mark.parametrize("section, value, path", [
    ("params", {"n_realizations": 60, "fiber_nodes": 3}, "$.params.fiber_nodes"),
    ("target", {"kind": "half_line", "y": [0.0]}, "$.target.kind"),
    ("target", {"kind": "point", "y": [0.0], "threshold": 0.7}, "$.target.threshold"),
    ("params", {"n_realizations": 60, "n_seeds": 1500}, "$.params.n_seeds"),
    ("params", {"n_realizations": 5, "n_rotations": 7, "max_segment": 0.5, "R_grid": [1, 2, 3]},
     "$.params.n_rotations"),
    ("$", {"experiment": "sphere_count", "model": {"kind": "kostlan", "m": 2, "degrees": [2, 3]},
           "target": {}, "params": {"n_realizations": 60, "grid_n": 256}}, "$.params.grid_n"),
    ("$", {"experiment": "signed_count", "model": {"kind": "kostlan", "degree": 3},
           "target": {"kind": "point", "y": [0.7]}, "params": {"n_realizations": 5}},
     "$.target.y"),
    ("$", {"experiment": "sphere_count",
           "model": {"kind": "kostlan", "m": 2, "degree": 7, "k": 3, "degrees": [2, 3]},
           "target": {}, "params": {"n_realizations": 5}}, "$.model.degree"),
    ("$", {"experiment": "sphere_count",
           "model": {"kind": "kostlan", "m": 2, "degree": 7, "k": 3, "degrees": [2, 3]},
           "target": {}, "params": {"n_realizations": 5}}, "$.model.k"),
    ("model", {"kind": "kostlan", "m": 1, "degree": 9, "degrees": [2, 3]}, "$.model.degrees"),
    ("target", {"kind": "point", "y": [0.0], "radius": 2.0}, "$.target.radius"),
    ("$", {"experiment": "continuity_sweep", "target": {},
           "model": {"kind": "mixed_kostlan", "coeff_mats": [[[1.0]]], "degrees": [4, 9]},
           "params": {"n_realizations": 5, "epsilon_grid": [0.5]}}, "$.model.coeff_mats"),
    ("$", {"experiment": "degree_sweep", "model": {"kind": "kostlan", "degree": 3}, "target": {},
           "params": {"n_realizations": 5, "degree_grid": [1]}}, "$.model.degree"),
    ("$", {"experiment": "degree_sweep", "model": {}, "target": {"kind": "point", "y": [0.7]},
           "params": {"n_realizations": 5, "degree_grid": [1]}}, "$.target.y"),
    ("$", {"experiment": "kinematic", "model": {"kind": "kostlan", "degree": 3},
           "target": dict(CURVES, curve1={"kind": "latitude"}), "params": {"n_rotations": 3}},
     "$.model.degree"),
    ("$", {"experiment": "subgaussian", "model": {},
           "target": {"kind": "circle", "radius": 0.5, "y": [0.7]}, "params": {"R_grid": [1, 2, 3]}},
     "$.target.y"),
])
def test_unread_config_values_exit_2(tmp_path, capsys, section, value, path):
    # The experiment does not read these values, so a config that sets them
    # is rejected.  Section "$" replaces top-level keys of the whole config.
    cfg = point_count_config(tmp_path)
    if section == "$":
        cfg.update(value)
    else:
        cfg[section] = value
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert path in err
    assert "Traceback" not in err


# Valid models and params for the rows that test another section of these experiments.
VALID_MODELS = {"point_count": dict(KOSTLAN, degree=4),
                "sphere_count": {"kind": "kostlan", "m": 2, "degrees": [2, 3]}}
VALID_TARGETS = {"point_count": {"kind": "point", "y": [0.0]}}
VALID_PARAMS = {"point_count": {"n_realizations": 10}, "sphere_count": {"n_realizations": 10},
                "signed_count": {"n_realizations": 10}, "kinematic": {"n_rotations": 10},
                "subgaussian": {"R_grid": [1, 2, 3]},
                "degree_sweep": {"n_realizations": 10, "degree_grid": [1]},
                "continuity_sweep": {"n_realizations": 10, "epsilon_grid": [0.5]}}


# A small config per experiment that sets every section and param it reads.
SMALL_CONFIGS = {
    "point_count": {"model": dict(KOSTLAN, degree=2), "target": {"kind": "point", "y": [0.0]},
                    "params": {"n_realizations": 5}},
    "sphere_count": {"model": {"kind": "kostlan", "m": 2, "degrees": [1, 2]},
                     "params": {"n_realizations": 5}},
    "signed_count": {"model": dict(KOSTLAN, degree=3),
                     "params": {"n_realizations": 5, "n_samples": 200, "region_nodes": 4}},
    "kinematic": {"target": dict(CURVES, curve1={"kind": "latitude"}),
                  "params": {"n_rotations": 3, "max_segment": 1e-2}},
    "continuity_sweep": {"model": {"kind": "mixed_kostlan", "degrees": [4, 9]},
                         "params": {"n_realizations": 5, "epsilon_grid": [0.5]}},
    "degree_sweep": {"params": {"n_realizations": 5, "degree_grid": [1]}},
    "subgaussian": {"target": {"kind": "exp_growth"}, "params": {"R_grid": [1.0, 2.0, 3.0]}},
}


# The sections of the model and target kinds that SMALL_CONFIGS does not build.
MIXED = {"kind": "mixed_kostlan", "coeff_mats": [[[1.0]], [[0.0]], [[1.0]]]}
OTHER_KINDS = {
    "point_count": [{"model": MIXED}],
    "signed_count": [{"model": MIXED}, {"model": dict(CUSTOM, coeff_cov=[[1.0, 0.0], [0.0, 1.0]])}],
    "subgaussian": [{"target": {"kind": "subspace"}}, {"target": {"kind": "circle", "radius": 0.5}}],
}


class RecordingDict(dict):
    """A dict that records which of its keys are read."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        if key in self:
            self.read.add(key)
        return super().get(key, default)


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_experiment_params_lists_what_each_runner_reads(monkeypatch, experiment):
    # config.EXPERIMENTS decides which params, and which keys of each model and
    # target kind, a config may set; it must name exactly what the experiment's
    # runner reads, for every kind it lists.
    reads = EXPERIMENTS[experiment]
    read = set()
    param = ExperimentConfig.param
    monkeypatch.setattr(ExperimentConfig, "param",
                        lambda self, name: read.add(name) or param(self, name))
    kinds = {"model": set(), "target": set()}
    for sections in [{}] + OTHER_KINDS.get(experiment, []):
        read.clear()
        cfg = ExperimentConfig.from_dict(dict(SMALL_CONFIGS.get(experiment, {}), **sections,
                                              experiment=experiment))
        cfg.model, cfg.target = RecordingDict(cfg.model), RecordingDict(cfg.target)
        run(cfg)
        assert read == reads.params
        for section, kind_keys in kinds.items():
            spec = getattr(cfg, section)
            if spec:
                kind_keys.add(spec["kind"])
                assert spec.read - {"kind"} == set(getattr(reads, section)[spec["kind"]])
    assert kinds == {"model": set(reads.model), "target": set(reads.target)}


KINDS = ["kostlan", "mixed_kostlan", "custom_basis", "point", "circle", "subspace",
         "exp_growth", "curve_pair", "spline"]
WRONG_VALUES = [None, "x", True, -1, 1.5, 1e200, [], [[1, "a"]]]
# Keys whose default is a large run: dropping them tests nothing the others do not.
COSTLY_DEFAULTS = {"params", "n_realizations", "n_samples", "region_nodes", "n_rotations",
                   "max_segment"}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_small_configs_exit_cleanly(tmp_path_factory, data):
    # One mutation of a small config: add an unread key, drop a key, swap a
    # kind or put in a wrong-typed value.  Every case exits 0, 2 or 3 without
    # an uncaught exception, and an added unread key exits 2 naming its path.
    experiment = data.draw(st.sampled_from(sorted(SMALL_CONFIGS)))
    raw = copy.deepcopy(dict(SMALL_CONFIGS[experiment], experiment=experiment))
    section = data.draw(st.sampled_from(["$", "model", "target", "params"]))
    obj = raw if section == "$" else raw.setdefault(section, {})
    mutation = data.draw(st.sampled_from(["add", "drop", "swap", "retype"]))
    if mutation == "add":
        obj["unread"] = 1
    elif mutation == "swap":
        obj["kind"] = data.draw(st.sampled_from(KINDS))
    elif mutation == "drop" and set(obj) - COSTLY_DEFAULTS:
        del obj[data.draw(st.sampled_from(sorted(set(obj) - COSTLY_DEFAULTS)))]
    elif mutation == "retype" and obj:
        obj[data.draw(st.sampled_from(sorted(obj)))] = data.draw(st.sampled_from(WRONG_VALUES))
    path = tmp_path_factory.mktemp("fuzz") / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["run", "--config", str(path)])
    assert code in (0, 2, 3)
    if mutation == "add":
        assert code == 2
        assert ("$.unread" if section == "$" else f"$.{section}.unread") in err.getvalue()


@pytest.mark.parametrize("experiment, section, value, x", [
    ("point_count", "model", dict(KOSTLAN, degree=200), "200.0"),
    ("degree_sweep", "params", {"n_realizations": 5, "degree_grid": [171]}, "171.0"),
])
def test_degrees_past_float_factorials_are_answered(tmp_path, capsys, experiment, section,
                                                    value, x):
    # 171! is past the float range; the Kostlan weights take log a! of the exact integer.
    cfg = {"experiment": experiment, "model": VALID_MODELS.get(experiment, {}),
           "target": VALID_TARGETS.get(experiment, {}), "params": VALID_PARAMS[experiment],
           "seed": 3, "output": {"path": str(tmp_path / "out.csv"), "format": "csv"}}
    cfg[section] = value
    assert main(["run", "--config", write_config(tmp_path, cfg)]) in (0, 3)
    assert "Traceback" not in capsys.readouterr().err
    assert (tmp_path / "out.csv").read_text().splitlines()[1].split(",")[:2] == [experiment, x]


@pytest.mark.parametrize("experiment, section, value, path", [
    ("point_count", "model", dict(KOSTLAN, degree="x"), "$.model.degree"),
    ("point_count", "model", dict(KOSTLAN, degree=2.7), "$.model.degree"),
    ("point_count", "model", dict(KOSTLAN, degree=True), "$.model.degree"),
    ("point_count", "model", dict(KOSTLAN, degree=-3), "$.model.degree"),
    ("sphere_count", "model", {"kind": "kostlan", "m": 2, "degrees": [0, 3]},
     "$.model.degrees"),
    ("degree_sweep", "params", {"degree_grid": [0, -2]}, "$.params.degree_grid"),
    ("continuity_sweep", "params", {"epsilon_grid": [2.0]}, "$.params.epsilon_grid"),
    ("continuity_sweep", "params", {"epsilon_grid": ["a"]}, "$.params.epsilon_grid"),
    ("point_count", "target", {"kind": "point", "y": ["a"]}, "$.target.y"),
    ("signed_count", "model", dict(CUSTOM, coeff_cov=[[1.0, 0.0], [0.0, -1.0]]), "$.model"),
    ("signed_count", "model", dict(CUSTOM, coeff_cov=[[1.0, float("nan")], [float("nan"), 1.0]]),
     "$.model"),
    ("signed_count", "model", dict(CUSTOM, coeff_cov=[[1.0, 5.0], [0.0, 1.0]]), "$.model"),
    ("kinematic", "target", dict(CURVES, curve1={"kind": "latitude", "rho": 5.0}), "$.target"),
    ("point_count", "model", {"kind": "mixed_kostlan", "coeff_mats": [[[1.0]], [[1.0, 0.0]]]},
     "$.model"),
    ("point_count", "model", {"kind": "mixed_kostlan", "coeff_mats": [[[1.0, 0.0], [0.0]]]},
     "$.model.coeff_mats[0]"),
    ("subgaussian", "target", {"kind": "subspace", "ambient_dim": 3, "subspace_dim": 5},
     "$.target"),
    ("point_count", "model", 5, "$.model"),
    ("point_count", "model", {"kind": "mixed_kostlan", "coeff_mats": [[[1, 0], [0, 1]]] * 2},
     "$.model"),
    ("continuity_sweep", "model", {"kind": "mixed_kostlan", "degrees": [9, 4]},
     "$.model.degrees"),
    ("kinematic", "target", dict(CURVES, curve1={"kind": "latitude", "axis": [0, 0, 0]}),
     "$.target"),
    ("point_count", "target", {"kind": "circle", "radius": 2.0}, "$.target.kind"),
    ("point_count", "target", {"kind": "point", "y": [0.3, 5.0]}, "$.target.y"),
    ("sphere_count", "model", {"kind": "mixed_kostlan", "m": 2, "coeff_mats": [[[1.0]]],
                               "degrees": [2, 3]}, "$.model.kind"),
    ("sphere_count", "model", {"kind": "kostlan", "m": 1, "degrees": [2, 3]}, "$.model.m"),
    ("kinematic", "target", dict(CURVES, curve1={"kind": "great_circle", "rho": 0.5}),
     "$.target.curve1.rho"),
    ("kinematic", "target", {"kind": "curve_pair", "curve1": {"kind": "latitude"},
                             "curve2": {"kind": "great_circle", "rho": 0.5}},
     "$.target.curve2.rho"),
    ("point_count", "model", dict(CUSTOM, coeff_cov=[[1.0, 0.0], [0.0, 1.0]]), "$.model.kind"),
    ("signed_count", "model", {}, "$.model.kind"),
    ("kinematic", "target", {}, "$.target.kind"),
    ("continuity_sweep", "params", {"epsilon_grid": []}, "$.params.epsilon_grid"),
    ("degree_sweep", "params", {"degree_grid": []}, "$.params.degree_grid"),
    ("subgaussian", "params", {"R_grid": []}, "$.params.R_grid"),
    ("subgaussian", "params", {"R_grid": [1, 2]}, "$.params.R_grid"),
    # A circle of radius 2 has no volume in the ball of radius 1, so the
    # growth fit over R_grid [1, 2, 3] is undefined.
    ("subgaussian", "target", {"kind": "circle", "radius": 2.0}, "$.params.R_grid"),
    # Radii at which e^(R^2), or R^2 and R^j, overflow a float ("$" sets several sections).
    ("subgaussian", "$", {"target": {"kind": "exp_growth"}, "params": {"R_grid": [1, 2, 27]}},
     "$.params.R_grid"),
    ("subgaussian", "$", {"target": {"kind": "subspace"}, "params": {"R_grid": [1, 2, 1e200]}},
     "$.params.R_grid"),
    # sum_l A_l A_l^T overflows: the formula would see an infinite covariance.
    ("point_count", "model",
     {"kind": "mixed_kostlan", "coeff_mats": [[[1e160]], [[0.0]], [[1e160]]]}, "$.model"),
])
def test_bad_model_target_and_grid_values_exit_2(tmp_path, capsys, experiment, section,
                                                 value, path):
    cfg = {"experiment": experiment, "model": VALID_MODELS.get(experiment, {}),
           "target": VALID_TARGETS.get(experiment, {}),
           "params": VALID_PARAMS[experiment],
           "output": {"path": str(tmp_path / "out.csv"), "format": "csv"}}
    cfg.update(value if section == "$" else {section: value})
    if section == "params":
        cfg["params"] = dict(VALID_PARAMS[experiment], **value)
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert path in err
    assert "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


# The sphere_count record of the Newton oracle that the resultant count replaced.
SPHERE_COUNT_RECORD = (
    b"experiment,x,formula,oracle_mean,oracle_se,discrepancy_se,n,seed\n"
    b"sphere_count,6.0,2.449489742783178,2.62,0.1412641340027806,1.2070314834016251,100,2024\n")


def test_sphere_count_record_is_pinned(tmp_path):
    cfg = {
        "experiment": "sphere_count",
        "model": {"kind": "kostlan", "m": 2, "degrees": [2, 3]},
        "params": {"n_realizations": 100},
        "seed": 2024,
        "output": {"path": str(tmp_path / "sphere.csv"), "format": "csv"},
    }
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 0
    assert (tmp_path / "sphere.csv").read_bytes() == SPHERE_COUNT_RECORD


# point_count records: the README example (Kostlan 25 at level 0, whose
# trigonometric polynomial is antipodally symmetric, so its zeros come from
# the degree-25 form in tan(phi)) and Kostlan 9 at level 0.8 (not symmetric:
# the degree-18 form in tan(phi / 2)).
README_POINT_COUNT_RECORD = (
    b"experiment,x,formula,oracle_mean,oracle_se,discrepancy_se,n,seed\n"
    b"point_count,25.0,10.0,10.134,0.07455065995985698,1.797435462974504,2000,20260808\n")
LEVEL_POINT_COUNT_RECORD = (
    b"experiment,x,formula,oracle_mean,oracle_se,discrepancy_se,n,seed\n"
    b"point_count,9.0,4.356894222442145,4.433333333333334,0.0978968735183479,"
    b"0.7808125851625088,300,12\n")

# The degree-4/9 mixture 0.8 psi_4 + 0.6 psi_9 at level 0.3: its one basis
# holds both degrees' monomials, so its samples sum them in one product.
MIXED_49 = {"kind": "mixed_kostlan", "m": 1,
            "coeff_mats": [[[0.0]]] * 4 + [[[0.8]]] + [[[0.0]]] * 4 + [[[0.6]]]}
MIXED_POINT_COUNT_RECORD = (
    b"experiment,x,formula,oracle_mean,oracle_se,discrepancy_se,n,seed\n"
    b"point_count,9.0,4.604693637832217,4.584,0.08121008654294505,0.2548161036778934,500,1\n")


def test_readme_point_count_record_is_pinned(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    cfg = json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])
    cfg["output"]["path"] = str(tmp_path / "results.csv")
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 0
    assert (tmp_path / "results.csv").read_bytes() == README_POINT_COUNT_RECORD


def test_level_point_count_record_is_pinned(tmp_path):
    cfg = dict(point_count_config(tmp_path, n=300), seed=12,
               target={"kind": "point", "y": [0.8]})
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 0
    assert (tmp_path / "out.csv").read_bytes() == LEVEL_POINT_COUNT_RECORD


def test_mixed_point_count_record_is_pinned(tmp_path):
    cfg = dict(point_count_config(tmp_path, n=500), seed=1, model=MIXED_49,
               target={"kind": "point", "y": [0.3]})
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 0
    assert (tmp_path / "out.csv").read_bytes() == MIXED_POINT_COUNT_RECORD


# A scalar circle model with correlated coefficients: its value and derivative
# are correlated, so the formula side conditions the jet on the value.
CORRELATED_CUSTOM = {"kind": "custom_basis", "m": 1, "exponents": [[0, 0], [1, 0], [0, 1]],
                     "coeff_cov": [[1.0, 0.2, 0.0], [0.2, 1.0, 0.0], [0.0, 0.0, 1.0]]}
# signed_count runs the density_point fiber loop: 40 realizations, 2000 jets
# and 8 region nodes each.
SIGNED_COUNT_RECORDS = {
    "kostlan": (dict(KOSTLAN, degree=7), 707,
                b"experiment,x,formula,oracle_mean,oracle_se,discrepancy_se,n,seed\n"
                b"signed_count,7.0,-0.015228283810412345,0.0,0.0,0.2908447844033486,40,707\n"),
    "custom_basis": (CORRELATED_CUSTOM, 8,
                     b"experiment,x,formula,oracle_mean,oracle_se,discrepancy_se,n,seed\n"
                     b"signed_count,0.0,0.007274384619366192,0.0,0.0,0.5155116544262263,40,8\n"),
    "mixed_kostlan": (MIXED_49, 49,
                      b"experiment,x,formula,oracle_mean,oracle_se,discrepancy_se,n,seed\n"
                      b"signed_count,0.0,0.01757918044181507,0.0,0.0,0.3676097216405161,40,49\n"),
}


@pytest.mark.parametrize("name", sorted(SIGNED_COUNT_RECORDS))
def test_signed_count_record_is_pinned(tmp_path, name):
    model, seed, record = SIGNED_COUNT_RECORDS[name]
    cfg = {"experiment": "signed_count", "model": model,
           "params": {"n_realizations": 40, "n_samples": 2000, "region_nodes": 8},
           "seed": seed, "output": {"path": str(tmp_path / "signed.csv"), "format": "csv"}}
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 0
    assert (tmp_path / "signed.csv").read_bytes() == record


# Latitude rho 1.0 against a great circle: 80 rotations, seed 101, max_segment 1e-3.
KINEMATIC_RECORD = (
    b"experiment,x,formula,oracle_mean,oracle_se,discrepancy_se,n,seed\n"
    b"kinematic,1.0,1.6829419696157928,1.65,0.0854992782558922,0.38528944673895743,80,101\n")


def kinematic_config(tmp_path, curve1, n_rotations, seed, name):
    return {"experiment": "kinematic",
            "target": {"kind": "curve_pair", "curve1": curve1, "curve2": {"kind": "great_circle"}},
            "params": {"n_rotations": n_rotations, "max_segment": 1e-3}, "seed": seed,
            "output": {"path": str(tmp_path / name), "format": "csv"}}


def test_kinematic_record_is_pinned(tmp_path):
    cfg = kinematic_config(tmp_path, {"kind": "latitude", "rho": 1.0}, 80, 101, "kin.csv")
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 0
    assert (tmp_path / "kin.csv").read_bytes() == KINEMATIC_RECORD


def test_max_segment_below_floor_exits_2(tmp_path, capsys):
    cfg = kinematic_config(tmp_path, {"kind": "latitude", "rho": 1.0}, 5, 1, "kin.csv")
    cfg["params"]["max_segment"] = 1e-6
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "$.params.max_segment" in err
    assert "Traceback" not in err
    assert not (tmp_path / "kin.csv").exists()
    cfg["params"]["max_segment"] = 1e-5
    assert ExperimentConfig.from_dict(cfg).param("max_segment") == 1e-5


def test_huge_finite_values_are_answered(tmp_path):
    # Level 1e200 is never hit: its formula's quadratic form is past the float
    # range, and the count is 0.  A max_segment of 1e200 draws 16-point polylines.
    cfg = dict(point_count_config(tmp_path, n=5), target={"kind": "point", "y": 1e200})
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 0
    assert (tmp_path / "out.csv").read_text().split("\n")[1].split(",")[2:4] == ["0.0", "0.0"]
    cfg = kinematic_config(tmp_path, {"kind": "latitude", "rho": 1.0}, 3, 1, "kin.csv")
    cfg["params"]["max_segment"] = 1e200
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 0


def test_kinematic_record_x_is_the_rho_used(tmp_path):
    # A latitude curve without rho is built at rho 1.0, so its record is the
    # record of rho 1.0: x = 1.0 and formula 2 sin 1.
    records = []
    for i, curve1 in enumerate(({"kind": "latitude"}, {"kind": "latitude", "rho": 1.0})):
        cfg = kinematic_config(tmp_path, curve1, 5, 1, f"kin{i}.csv")
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == 0
        records.append((tmp_path / f"kin{i}.csv").read_text())
    assert records[0] == records[1]
    row = records[0].splitlines()[1].split(",")
    assert float(row[1]) == 1.0
    assert float(row[2]) == pytest.approx(2.0 * math.sin(1.0), rel=1e-5)

def test_missing_config_file_exits_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2


def test_selfcheck_passes(tmp_path):
    out = tmp_path / "self.csv"
    assert main(["selfcheck", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert any(r.startswith("selfcheck_gamma,8.0") for r in rows)
    assert any(r.startswith("selfcheck_angle_complement") for r in rows)


def test_degree_sweep_formula_column(tmp_path):
    cfg = {
        "experiment": "degree_sweep",
        "params": {"degree_grid": [1, 4, 9, 16, 25], "n_realizations": 20},
        "seed": 3,
        "output": {"path": str(tmp_path / "sweep.csv"), "format": "csv"},
    }
    path = write_config(tmp_path, cfg)
    assert main(["sweep", "--config", path]) == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    formulas = [float(r.split(",")[2]) for r in rows]
    assert formulas == pytest.approx([2.0, 4.0, 6.0, 8.0, 10.0], abs=1e-12)


SWEEP_RECORDS = {
    "continuity_sweep": (
        {"model": {"kind": "mixed_kostlan", "degrees": [4, 9]},
         "params": {"epsilon_grid": [0.3, 1.0], "n_realizations": 200}, "seed": 17},
        b"experiment,x,formula,oracle_mean,oracle_se,discrepancy_se,n,seed\n"
        b"continuity_sweep,0.3,4.69041575982343,4.71,0.12351428619585816,0.15855850185228984,200,17\n"
        b"continuity_sweep,1.0,6.000000000000001,6.16,0.19197989844521526,0.8334205888001237,200,17\n"),
    "degree_sweep": (
        {"params": {"degree_grid": [5, 25], "n_realizations": 200}, "seed": 29},
        b"experiment,x,formula,oracle_mean,oracle_se,discrepancy_se,n,seed\n"
        b"degree_sweep,5.0,4.472135954999579,4.58,0.14976698819756257,0.7202124199635659,200,29\n"
        b"degree_sweep,25.0,10.0,10.12,0.24704891383923494,0.4857337688118242,200,29\n"),
}


@pytest.mark.parametrize("experiment", sorted(SWEEP_RECORDS))
def test_sweep_record_is_pinned(tmp_path, experiment):
    cfg, record = SWEEP_RECORDS[experiment]
    cfg = dict(cfg, experiment=experiment,
               output={"path": str(tmp_path / "sweep.csv"), "format": "csv"})
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 0
    assert (tmp_path / "sweep.csv").read_bytes() == record


def test_sweep_rejects_non_sweep_experiment(tmp_path):
    path = write_config(tmp_path, point_count_config(tmp_path))
    assert main(["sweep", "--config", path]) == 2


def test_continuity_sweep_monotone(tmp_path):
    cfg = {
        "experiment": "continuity_sweep",
        "model": {"kind": "mixed_kostlan", "degrees": [4, 9]},
        "params": {"epsilon_grid": [0.0, 0.3, 0.7, 1.0], "n_realizations": 15},
        "seed": 5,
        "output": {"path": str(tmp_path / "cont.csv"), "format": "csv"},
    }
    path = write_config(tmp_path, cfg)
    assert main(["sweep", "--config", path]) == 0
    rows = (tmp_path / "cont.csv").read_text().splitlines()[1:]
    formulas = [float(r.split(",")[2]) for r in rows]
    assert formulas[0] == pytest.approx(4.0)
    assert formulas[-1] == pytest.approx(6.0)
    assert all(a < b for a, b in zip(formulas, formulas[1:]))


def test_continuity_sweep_counts_a_field_below_its_top_degree(tmp_path):
    # At epsilon 0 the degree-6 block has weight 0, so the field is a
    # trigonometric polynomial of degree 4 in a degree-6 model.
    cfg = {
        "experiment": "continuity_sweep",
        "model": {"kind": "mixed_kostlan", "degrees": [4, 6]},
        "params": {"epsilon_grid": [0.0], "n_realizations": 20},
        "seed": 5,
        "output": {"path": str(tmp_path / "cont.csv"), "format": "csv"},
    }
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 0
    row = (tmp_path / "cont.csv").read_text().splitlines()[1].split(",")
    assert int(row[6]) == 20


def test_subgaussian_experiment(tmp_path):
    cfg = {
        "experiment": "subgaussian",
        "target": {"kind": "exp_growth"},
        "params": {"R_grid": [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]},
        "seed": 1,
        "output": {"path": str(tmp_path / "sg.csv"), "format": "csv"},
    }
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", path]) == 0
    row = (tmp_path / "sg.csv").read_text().splitlines()[1].split(",")
    assert 0.9 <= float(row[3]) <= 1.1


def test_single_point_grid_single_record(tmp_path):
    cfg = {
        "experiment": "degree_sweep",
        "params": {"degree_grid": [4], "n_realizations": 10},
        "seed": 2,
        "output": {"path": str(tmp_path / "one.csv"), "format": "csv"},
    }
    path = write_config(tmp_path, cfg)
    assert main(["sweep", "--config", path]) == 0
    assert len((tmp_path / "one.csv").read_text().splitlines()) == 2


def test_signed_count_with_custom_basis_model(tmp_path):
    # custom monomial models (explicit exponents + full coefficient
    # covariance) are accepted wherever a scalar circle model is needed
    cfg = {
        "experiment": "signed_count",
        "model": CORRELATED_CUSTOM,
        "params": {"n_realizations": 40, "n_samples": 2000},
        "seed": 8,
        "output": {"path": str(tmp_path / "signed.csv"), "format": "csv"},
    }
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", path]) == 0
    row = (tmp_path / "signed.csv").read_text().splitlines()[1].split(",")
    assert float(row[3]) == 0.0  # signed counts vanish realization by realization


def test_kinematic_experiment(tmp_path):
    cfg = {
        "experiment": "kinematic",
        "target": {
            "kind": "curve_pair",
            "curve1": {"kind": "great_circle"},
            "curve2": {"kind": "great_circle", "axis": [0.0, 1.0, 0.0]},
        },
        "params": {"n_rotations": 20},
        "seed": 9,
        "output": {"path": str(tmp_path / "kin.csv"), "format": "csv"},
    }
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", path]) == 0
    row = (tmp_path / "kin.csv").read_text().splitlines()[1].split(",")
    assert float(row[2]) == 2.0  # formula
    assert float(row[3]) == 2.0  # oracle mean
    assert float(row[5]) == 0.0  # discrepancy_se
