"""The benchmark's workloads: seeded CLI argv and the gates each pass must meet.

A workload is the list of ``deteq`` CLI invocations that make up one pass.
The seed fixes the argv; every pass of a run repeats it, so every pass must
write byte-identical files.  Each gate returns one ``(item, ok)`` pair per
item, where an item is a grid point, a spike strength or a validation check.
The reference values are written out here, not taken from the library, so a
change to the library cannot move its own goalposts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Constant profile with aspect ratio c = n / m = 0.9 (both 360 x 400 and
# 180 x 200).  Singular values fill [1 - sqrt(c), 1 + sqrt(c)]; a spike of
# strength theta >= c^(1/4) ~ 0.974 leaves an outlier at
# sqrt((1 + theta^2)(c + theta^2)) / theta (Benaych-Georges & Nadakuditi).
_C = 0.9
_EDGE_LO, _EDGE_HI = 1.0 - math.sqrt(_C), 1.0 + math.sqrt(_C)
_SV_SUPPORT = ((-_EDGE_HI, -_EDGE_LO), (_EDGE_LO, _EDGE_HI))

_SV_ETA = 0.01
_SV_GRID = (0.0, 3.0, 0.05)
_MASS_TOL = 5e-2
_MIN_BULK_SHARE = 0.95
_ROOT_TOL = 1e-3
_LOW_THETA = (0.3, 0.8)
_HIGH_THETA = (1.3, 3.0)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Closed-form support of the spectrum in Re(lambda); the traced run
    # splits solver iterations into inside and outside it.
    support: tuple
    make_argvs: Callable[[int], list]
    check: Callable[[list, list, dict], list]


def closed_form_root(theta: float) -> float | None:
    if theta < _C ** 0.25:
        return None
    return math.sqrt((1.0 + theta * theta) * (_C + theta * theta)) / theta


def _seeded(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([salt, seed])


# ------------------------------------------------------------- sv_density

def _sv_argvs(seed: int) -> list:
    # The seed does not enter: this is acceptance criterion 5's model on a
    # fixed 61-point grid, so its iteration counts repeat exactly.
    lo, hi, step = _SV_GRID
    return [["density", "--profile", "constant:n=360,m=400",
             "--grid", f"{lo:g}:{hi:g}:{step:g}", "--eta", f"{_SV_ETA:g}",
             "--tolerance", "1e-9", "--out", "density.csv"]]


def _sv_check(argvs: list, codes: list, files: dict) -> list:
    lo, hi, step = _SV_GRID
    points = int(round((hi - lo) / step)) + 1
    converged = [False] * points
    grid = values = None
    if codes == [0]:
        try:
            meta = json.loads(files["density.csv.meta.json"])
            rows = files["density.csv"].decode().split("\n")[1:-1]
            table = np.array([[float(x) for x in r.split(",")] for r in rows])
            if len(meta["converged"]) == points and table.shape == (points, 2):
                converged = [bool(f) for f in meta["converged"]]
                grid, values = table[:, 0], table[:, 1]
        except (KeyError, TypeError, ValueError):
            pass
    items = [(f"t={lo + i * step:.2f}", ok) for i, ok in enumerate(converged)]
    mass_ok = share_ok = False
    if grid is not None:
        mass = float(np.trapezoid(values, grid))
        inside = (grid >= _EDGE_LO - 3 * _SV_ETA) & (grid <= _EDGE_HI + 3 * _SV_ETA)
        share = float(np.trapezoid(values[inside], grid[inside])) / mass
        mass_ok = abs(mass - 1.0) <= _MASS_TOL
        share_ok = share >= _MIN_BULK_SHARE
    return items + [("mass", mass_ok), ("bulk_share", share_ok)]


# ---------------------------------------------------------- outlier_sweep

def _outlier_thetas(seed: int) -> list:
    rng = _seeded(seed, 2)
    low = round(float(rng.uniform(*_LOW_THETA)), 3)
    high = round(float(rng.uniform(*_HIGH_THETA)), 3)
    return [low, high]


def _outlier_argvs(seed: int) -> list:
    thetas = ",".join(f"{t:g}" for t in _outlier_thetas(seed))
    return [["outliers", "--model", "constant:n=180,m=200",
             "--theta-list", thetas, "--window", "1.4:5.4",
             "--max-iterations", "3000", "--out", "outliers.json"]]


def _outlier_check(argvs: list, codes: list, files: dict) -> list:
    thetas = [float(t) for t in argvs[0][argvs[0].index("--theta-list") + 1].split(",")]
    roots = None
    if codes == [0]:
        try:
            payload = json.loads(files["outliers.json"])
            if payload["theta"] == thetas and len(payload["reports"]) == len(thetas):
                roots = [[c["lambda"] for c in report["candidates"] if c["accepted"]]
                         for report in payload["reports"]]
        except (KeyError, TypeError, ValueError):
            pass
    items = []
    for i, theta in enumerate(thetas):
        expect = closed_form_root(theta)
        if roots is None:
            ok = False
        elif expect is None:
            ok = not roots[i]
        else:
            ok = any(abs(r - expect) <= _ROOT_TOL for r in roots[i])
        items.append((f"theta={theta:g}", ok))
    return items


# ------------------------------------------------------------ monte_carlo

def _mc_argvs(seed: int) -> list:
    rng = _seeded(seed, 3)
    conc_seed, master_seed = (int(s) for s in rng.integers(0, 2 ** 31, size=2))
    return [["validate", "--what", "concentration", "--n", "400", "--samples", "100",
             "--lambda-im", "0.5", "--seed", str(conc_seed), "--out", "concentration.json"],
            ["validate", "--what", "master", "--n", "50", "--samples", "2000",
             "--seed", str(master_seed), "--out", "master.json"]]


def _mc_check(argvs: list, codes: list, files: dict) -> list:
    items = []
    for argv, code in zip(argvs, codes):
        out = argv[argv.index("--out") + 1]
        ok = False
        if code == 0:
            try:
                ok = json.loads(files[out])["result"]["passed"] is True
            except (KeyError, TypeError, ValueError):
                pass
        items.append((out.removesuffix(".json"), ok))
    return items


WORKLOADS = {w.name: w for w in (
    Workload("sv_density",
             "criterion-5 singular-value density: 61 warm-started solves, dense "
             "operator beyond L2; iteration cost and count dominate",
             _SV_SUPPORT, _sv_argvs, _sv_check),
    Workload("outlier_sweep",
             "determinant search for seeded spikes: shared solve cache, cheap solves "
             "outside the bulk, capped ones inside; per-solve overhead shows",
             _SV_SUPPORT, _outlier_argvs, _outlier_check),
    Workload("monte_carlo",
             "seeded concentration and master-identity checks: draws and eigvalsh "
             "dominate, one Dyson solve; solver changes must not move it",
             ((-2.0, 2.0),), _mc_argvs, _mc_check),
)}
