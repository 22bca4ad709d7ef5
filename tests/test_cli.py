import json

import pytest

from kacrice.cli import main, run, write_records
from kacrice.config import ExperimentConfig, PARAM_DEFAULTS
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
        "params": {"n_realizations": n, "grid_n": 512},
        "seed": 123,
        "output": {"path": str(tmp_path / out_name), "format": fmt},
    }


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

def test_config_roundtrip_is_bit_identical(tmp_path):
    raw = point_count_config(tmp_path)
    cfg = ExperimentConfig.from_dict(raw)
    again = ExperimentConfig.from_dict(json.loads(cfg.to_json()))
    assert cfg.to_json() == again.to_json()


def test_config_rejects_unknown_experiment():
    with pytest.raises(ConfigurationError, match=r"\$\.experiment"):
        ExperimentConfig.from_dict({"experiment": "nope"})


def test_config_rejects_unknown_key_with_path():
    with pytest.raises(ConfigurationError, match=r"\$\.params\.bogus"):
        ExperimentConfig.from_dict({"experiment": "point_count",
                                    "params": {"bogus": 1}})


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
    ("grid_n", 0), ("grid_n", -4), ("grid_n", 2.5), ("grid_n", True),
    ("n_realizations", 0), ("n_samples", "10"), ("fiber_nodes", None),
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
        "model": {"kind": "kostlan", "m": 1, "degree": 1, "k": 1},
        "params": {"degree_grid": [1, 4, 9, 16, 25], "n_realizations": 20, "grid_n": 512},
        "seed": 3,
        "output": {"path": str(tmp_path / "sweep.csv"), "format": "csv"},
    }
    path = write_config(tmp_path, cfg)
    assert main(["sweep", "--config", path]) == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    formulas = [float(r.split(",")[2]) for r in rows]
    assert formulas == pytest.approx([2.0, 4.0, 6.0, 8.0, 10.0], abs=1e-12)


def test_sweep_rejects_non_sweep_experiment(tmp_path):
    path = write_config(tmp_path, point_count_config(tmp_path))
    assert main(["sweep", "--config", path]) == 2


def test_continuity_sweep_monotone(tmp_path):
    cfg = {
        "experiment": "continuity_sweep",
        "model": {"kind": "mixed_kostlan", "m": 1, "coeff_mats": [[[1.0]]],
                  "degrees": [4, 9]},
        "params": {"epsilon_grid": [0.0, 0.3, 0.7, 1.0], "n_realizations": 15,
                   "grid_n": 512},
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
        "params": {"degree_grid": [4], "n_realizations": 10, "grid_n": 512},
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
        "model": {"kind": "custom_basis", "m": 1,
                  "exponents": [[0, 0], [1, 0], [0, 1]],
                  "coeff_cov": [[1.0, 0.2, 0.0], [0.2, 1.0, 0.0], [0.0, 0.0, 1.0]]},
        "params": {"n_realizations": 40, "grid_n": 512, "n_samples": 2000},
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
    assert float(row[2]) == pytest.approx(2.0, rel=0.01)  # formula
    assert float(row[3]) == 2.0                           # oracle mean
