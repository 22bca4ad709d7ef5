import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import kacrice
from kacrice.cli import main

SRC = str(Path(kacrice.__file__).resolve().parent.parent)


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_every_exported_name_imports():
    module = importlib.reload(kacrice)
    assert module.__all__
    for name in module.__all__:
        assert getattr(module, name) is not None, name


def test_importing_the_cli_loads_no_scipy():
    proc = run_python("import sys, kacrice.cli; "
                      "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


KOSTLAN = {"kind": "kostlan", "m": 1, "k": 1}
# Kostlan and mixed-Kostlan experiments: identity coefficient covariances and,
# for signed_count, a diagonal conditional jet law.
UNCORRELATED_CONFIGS = {
    "point_count": {"model": dict(KOSTLAN, degree=4), "target": {"kind": "point", "y": [0.3]},
                    "params": {"n_realizations": 5}},
    "mixed_point_count": {"experiment": "point_count",
                          "model": {"kind": "mixed_kostlan",
                                    "coeff_mats": [[[1.0]], [[0.5]], [[1.0]]]},
                          "target": {"kind": "point", "y": [0.0]}, "params": {"n_realizations": 5}},
    "sphere_count": {"model": {"kind": "kostlan", "m": 2, "degrees": [1, 2]},
                     "params": {"n_realizations": 5}},
    "kinematic": {"target": {"kind": "curve_pair", "curve1": {"kind": "latitude"},
                             "curve2": {"kind": "great_circle"}},
                  "params": {"n_rotations": 3, "max_segment": 1e-2}},
    "signed_count": {"model": dict(KOSTLAN, degree=3),
                     "params": {"n_realizations": 5, "n_samples": 200, "region_nodes": 4}},
}

SCIPY_BLOCKED_RUN = """
import json, sys
sys.modules["scipy"] = None  # every scipy import now raises ImportError
from kacrice.cli import main
print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_uncorrelated_experiments_run_without_scipy(tmp_path):
    argvs = [["selfcheck"]]
    for name, cfg in UNCORRELATED_CONFIGS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dict({"experiment": name}, **cfg, seed=5)), encoding="utf-8")
        argvs.append(["run", "--config", str(path)])

    def with_out(side):
        return [argv + ["--out", str(tmp_path / f"{i}.{side}")] for i, argv in enumerate(argvs)]

    proc = run_python(SCIPY_BLOCKED_RUN, json.dumps(with_out("blocked")))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0] * len(argvs)
    assert [main(argv) for argv in with_out("unblocked")] == [0] * len(argvs)
    for i, argv in enumerate(argvs):
        blocked = (tmp_path / f"{i}.blocked").read_bytes()
        assert blocked and blocked == (tmp_path / f"{i}.unblocked").read_bytes(), argv
