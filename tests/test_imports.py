"""No deteq path loads scipy: deteq calls LAPACK through numpy's own
OpenBLAS, so scipy is a dependency of the tests only.  ``import deteq``
loads deteq's own modules and not the thread pool's, and re-exports each
module's public names.

Each check of what is loaded runs in a fresh interpreter, since a module
once imported stays in ``sys.modules`` for the rest of the process.
"""

import json
import os
import subprocess
import sys

import numpy as np

import deteq
from deteq import density, dilation, dyson, outliers, profiles, sampling

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


def test_the_package_exports_each_public_name_of_its_modules_once():
    modules = (profiles, dyson, density, dilation, outliers, sampling)
    assert sorted(deteq.__all__) == sorted(name for m in modules for name in m.__all__)
    assert len(set(deteq.__all__)) == len(deteq.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(deteq, name) is getattr(module, name)


# Prints the deteq modules that the imports load, and which of the thread
# pool's modules they load.
_LOADED = """
import json, sys
import deteq, deteq.cli

print(json.dumps([sorted(m for m in sys.modules if m.partition(".")[0] == "deteq"),
                  [m for m in ("concurrent.futures", "logging") if m in sys.modules]]))
"""


def test_importing_deteq_loads_its_own_modules_and_no_thread_pool(tmp_path):
    # the Monte Carlo checks import concurrent.futures, which loads logging,
    # on first use
    deteq_modules, pool_modules = json.loads(_last_line(tmp_path, _LOADED, []))
    assert deteq_modules == ["deteq"] + [f"deteq.{name}" for name in (
        "_lapack", "cli", "density", "dilation", "dyson", "outliers", "profiles", "sampling")]
    assert pool_modules == []


# the two paths that call LAPACK: Bunch-Kaufman for a dense Y on the real
# axis, and the LU trace of the concentration check
_DENSE_Y = ["outliers", "--model", _HERM, "--y", "csv:y.csv", "--vectors", "e1",
            "--theta-list", "2.0,2.5", "--out", "oy.json"]
_CONCENTRATION = ["validate", "--what", "concentration", "--n", "8", "--samples", "4",
                  "--seed", "1", "--lambda-im", "1", "--min-pass-rate", "0", "--out", "c.json"]


def _y_csv(tmp_path) -> None:
    a = np.random.default_rng(0).standard_normal((8, 8))
    np.savetxt(tmp_path / "y.csv", (a + a.T) / 8.0, delimiter=",")


def test_no_command_loads_scipy(tmp_path):
    _y_csv(tmp_path)
    runs = (
        ["profile", "--kind", "constant", "--n", "4", "--m", "4", "--out", "p.csv"],
        ["density", "--profile", _HERM, "--grid", "0:1:0.5", "--out", "d.csv"],
        # a dense Y off the real axis takes numpy's inverse, not Bunch-Kaufman
        ["density", "--profile", _HERM, "--y", "csv:y.csv", "--grid", "0:1:0.5",
         "--out", "dy.csv"],
        # the sweeps find a root each, so Brent's method runs
        ["outliers", "--model", "constant:n=16,m=20", "--theta-list", "2.0,2.5",
         "--window", "1.5:4.0", "--out", "o.json"],
        ["outliers", "--model", _HERM, "--y", "diag:0.3", "--vectors", "e1",
         "--theta-list", "2.0,2.5", "--out", "od.json"],
        _DENSE_Y,
        ["sample", "--profile", _HERM, "--count", "2", "--seed", "1", "--out", "s.txt"],
        ["validate", "--what", "master", "--n", "8", "--samples", "20", "--seed", "1",
         "--out", "m.json"],
        _CONCENTRATION,
    )
    loaded = _scipy_after(tmp_path, *runs)
    assert [code for code, _ in loaded[1:]] == [0] * len(runs)
    assert all(modules == [] for _, modules in loaded)
    report = json.loads((tmp_path / "o.json").read_text())["reports"]
    assert all(any(c["accepted"] for c in r["candidates"]) for r in report)


# Put first on sys.meta_path, this finder makes every scipy import fail.
_NO_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is not installed here")
        return None

sys.meta_path.insert(0, NoScipy())
"""


def test_the_lapack_paths_run_where_scipy_cannot_be_imported(tmp_path):
    _y_csv(tmp_path)
    loaded = json.loads(_last_line(tmp_path, _NO_SCIPY + _SCRIPT,
                                   [_DENSE_Y, _CONCENTRATION]))
    assert loaded == [[None, []], [0, []], [0, []]]
