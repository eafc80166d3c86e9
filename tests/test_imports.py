"""Start-up stays free of scipy: only the two paths that call its LAPACK
routines load it, both through scipy's table of LAPACK function pointers,
and no path loads scipy.linalg's __init__ or scipy.optimize.

Each check runs in a fresh interpreter, since a module once imported stays
in ``sys.modules`` for the rest of the process.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Prints, as its last line, the scipy modules loaded by the imports and then
# after each CLI run (with the run's exit code).
_SCRIPT = """
import json, sys
import deteq, deteq.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")

loaded = [[None, scipy_modules()]]
for argv in json.loads(sys.argv[1]):
    loaded.append([deteq.cli.main(argv), scipy_modules()])
print(json.dumps(loaded))
"""

_HERM = "constant:n=8,m=8,hermitian=true"


def _last_line(tmp_path, script: str, argvs) -> str:
    """The last line that ``script`` prints in a fresh interpreter."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def _scipy_after(tmp_path, *argvs) -> list:
    return json.loads(_last_line(tmp_path, _SCRIPT, argvs))


def test_importing_deteq_loads_no_scipy(tmp_path):
    assert _scipy_after(tmp_path) == [[None, []]]


def test_commands_without_lapack_calls_load_no_scipy(tmp_path):
    # a dense Y off the real axis takes numpy's inverse, not Bunch-Kaufman
    a = np.random.default_rng(0).standard_normal((8, 8))
    np.savetxt(tmp_path / "y.csv", (a + a.T) / 8.0, delimiter=",")
    runs = (
        ["profile", "--kind", "constant", "--n", "4", "--m", "4", "--out", "p.csv"],
        ["density", "--profile", _HERM, "--grid", "0:1:0.5", "--out", "d.csv"],
        ["density", "--profile", _HERM, "--y", "csv:y.csv", "--grid", "0:1:0.5",
         "--out", "dy.csv"],
        # the sweeps find a root each, so Brent's method runs
        ["outliers", "--model", "constant:n=16,m=20", "--theta-list", "2.0,2.5",
         "--window", "1.5:4.0", "--out", "o.json"],
        ["outliers", "--model", _HERM, "--y", "diag:0.3", "--vectors", "e1",
         "--theta-list", "2.0,2.5", "--out", "od.json"],
        ["sample", "--profile", _HERM, "--count", "2", "--seed", "1", "--out", "s.txt"],
        ["validate", "--what", "master", "--n", "8", "--samples", "20", "--seed", "1",
         "--out", "m.json"],
    )
    loaded = _scipy_after(tmp_path, *runs)
    assert [code for code, _ in loaded[1:]] == [0] * len(runs)
    assert all(modules == [] for _, modules in loaded)
    report = json.loads((tmp_path / "o.json").read_text())["reports"]
    assert all(any(c["accepted"] for c in r["candidates"]) for r in report)


_CONCENTRATION = ["validate", "--what", "concentration", "--n", "8", "--samples", "4",
                  "--seed", "1", "--lambda-im", "1", "--min-pass-rate", "0", "--out", "c.json"]


_DENSE_Y = ["outliers", "--model", _HERM, "--y", "csv:y.csv", "--vectors", "e1",
            "--theta-list", "2.0,2.5", "--out", "o.json"]
_LAPACK_PATHS = pytest.mark.parametrize("argv", [_DENSE_Y, _CONCENTRATION],
                                        ids=["outliers-dense-y", "validate-concentration"])


def _dense_y(tmp_path) -> None:
    np.savetxt(tmp_path / "y.csv", np.full((8, 8), 0.05), delimiter=",")


# both paths load scipy's table of LAPACK function pointers from its file, so
# scipy.linalg's __init__ does not run
@_LAPACK_PATHS
def test_lapack_paths_load_scipy_linalg_but_not_optimize(tmp_path, argv):
    _dense_y(tmp_path)
    (_, before), (code, after) = _scipy_after(tmp_path, argv)
    assert before == [] and code == 0
    assert "scipy.linalg.cython_lapack" in after and "scipy.linalg" not in after
    assert not [m for m in after if m.startswith("scipy.optimize")]


def _scipy_linalg_after(tmp_path, argv) -> list:
    _dense_y(tmp_path)
    script = """
import json, sys
import numpy as np
import deteq.cli
code = deteq.cli.main(json.loads(sys.argv[1]))
loaded = sys.modules["scipy.linalg.cython_lapack"]
import scipy.linalg
from scipy.linalg import cython_lapack
# the one quirk: scipy.linalg never imported the submodule, so has no attribute for it
print(json.dumps([code, cython_lapack is loaded, hasattr(scipy.linalg, "cython_lapack"),
                  scipy.linalg.det(np.eye(2) * 3.0)]))
"""
    return json.loads(_last_line(tmp_path, script, argv))


def test_scipy_linalg_imports_after_the_concentration_check(tmp_path):
    assert _scipy_linalg_after(tmp_path, _CONCENTRATION) == [0, True, False, 9.0]


def test_scipy_linalg_imports_after_a_dense_y_outliers_run(tmp_path):
    assert _scipy_linalg_after(tmp_path, _DENSE_Y) == [0, True, False, 9.0]
