import hashlib
import json

import numpy as np
import pytest

from deteq import cli, outliers
from deteq.cli import _parse_profile_spec, _spike_vector, _write_json, main
from deteq.dilation import RectangularModel, RectangularSpikes, dilate_model
from deteq.outliers import HermitianModel, SpikeSet, locate_outliers
from deteq.profiles import constant_profile, read_profile_csv
from deteq.sampling import SampleBatch, sample_rect_gaussian

# Outlier location for theta = 2 at aspect ratio 16/20.
_ROOT_16_20 = np.sqrt((1.0 + 4.0) * (0.8 + 4.0)) / 2.0


def _run(*argv) -> int:
    return main(list(argv))


def test_profile_command_writes_csv_and_metadata(tmp_path):
    out = tmp_path / "ds.csv"
    code = _run("profile", "--kind", "doubly-stochastic", "--n", "24",
                "--k", "4", "--seed", "7", "--out", str(out))
    assert code == 0
    prof = read_profile_csv(out)
    assert prof.rows == prof.cols == 24
    assert np.allclose(prof.entries.sum(axis=0), 24.0)
    meta = json.loads((tmp_path / "ds.csv.meta.json").read_text())
    assert meta["command"] == "profile"
    assert meta["gamma_max_sq"] == prof.gamma_max_sq
    assert len(meta["config_hash"]) == 16


def test_profile_command_is_reproducible(tmp_path):
    args = ("profile", "--kind", "bernoulli", "--n", "16", "--m", "20",
            "--p", "0.4", "--seed", "3")
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert _run(*args, "--out", str(out_a)) == 0
    assert _run(*args, "--out", str(out_b)) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_config_file_fills_flags_and_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "constant", "n": 4, "m": 4,
                               "value": 2.0}))
    out = tmp_path / "p.csv"
    assert _run("profile", "--config", str(cfg), "--out", str(out)) == 0
    assert read_profile_csv(out).entries[0, 0] == 2.0
    assert _run("profile", "--config", str(cfg), "--value", "3.0",
                "--out", str(out)) == 0
    assert read_profile_csv(out).entries[0, 0] == 3.0


def test_config_file_rejects_unknown_fields(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "constant", "n": 4, "m": 4,
                               "gamma": 1.0}))
    code = _run("profile", "--config", str(cfg), "--out",
                str(tmp_path / "p.csv"))
    assert code == 1
    assert "unknown field" in capsys.readouterr().err


def test_config_file_values_are_checked_like_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out = str(tmp_path / "d.csv")
    base = {"profile": "constant:n=4,m=4,hermitian=true", "grid": "0:1:0.5"}
    for body in ("[1]", json.dumps(dict(base, max_iterations=2.7))):
        cfg.write_text(body)
        assert _run("density", "--config", str(cfg), "--out", out) == 1
        assert "config:" in capsys.readouterr().err
    # an integral float stays an integer
    cfg.write_text(json.dumps(dict(base, max_iterations=3000.0)))
    assert _run("density", "--config", str(cfg), "--out", out) == 0
    # each value has its flag's type: no list, string or bool for a number
    model = {"model": "constant:n=4,m=4", "theta_list": "2"}
    for field, value, needs in (("threshold", [1], "a number"),
                                ("tolerance", "abc", "a number"),
                                ("max_iterations", "12", "a number"),
                                ("scan_points", True, "a number"),
                                ("theta_list", 2, "a string"),
                                ("hermitian", "yes", "true or false")):
        command = "profile" if field == "hermitian" else "outliers"
        cfg.write_text(json.dumps({field: value} if field == "hermitian"
                                  else dict(model, **{field: value})))
        assert _run(command, "--config", str(cfg), "--out", out) == 1
        assert f"config: field '{field}' needs {needs}" in capsys.readouterr().err


def test_missing_required_field_exits_one(tmp_path):
    assert _run("profile", "--kind", "constant", "--n", "4", "--m", "4") == 1
    assert _run("profile", "--out", str(tmp_path / "p.csv")) == 1


def test_unknown_subcommand_exits_one():
    assert _run("frobnicate") == 1


def test_density_hermitian_profile(tmp_path):
    out = tmp_path / "density.csv"
    code = _run("density", "--profile", "constant:n=24,m=24,hermitian=true",
                "--y", "diag:0.3", "--grid=-3:3:0.1", "--eta", "0.05",
                "--out", str(out))
    assert code == 0
    rows = out.read_text().strip().split("\n")
    assert rows[0] == "t,density"
    assert len(rows) == 62
    values = np.array([float(r.split(",")[1]) for r in rows[1:]])
    assert np.all(values >= -1e-12)
    meta = json.loads((tmp_path / "density.csv.meta.json").read_text())
    assert meta["dilated"] is False
    assert all(meta["converged"])


def test_density_rectangular_profile_is_dilated(tmp_path):
    out = tmp_path / "sv.csv"
    code = _run("density", "--profile", "constant:n=8,m=12", "--grid",
                "0:3:0.05", "--eta", "0.05", "--out", str(out))
    assert code == 0
    meta = json.loads((tmp_path / "sv.csv.meta.json").read_text())
    assert meta["dilated"] is True
    code = _run("density", "--profile", "constant:n=8,m=12", "--grid",
                "-1:3:0.05", "--eta", "0.05", "--out", str(out))
    assert code == 1  # singular-value grids start at zero


def test_density_nonconvergence_exits_two(tmp_path, capsys):
    out = tmp_path / "density.csv"
    code = _run("density", "--profile", "constant:n=24,m=24,hermitian=true",
                "--grid=-1:1:0.5", "--eta", "0.01",
                "--max-iterations", "3", "--out", str(out))
    assert code == 2
    diag = json.loads((tmp_path / "density.csv.diagnostics.json").read_text())
    assert diag["failed_count"] > 0
    assert "diagnostics" in capsys.readouterr().err


def test_density_rerun_is_byte_identical(tmp_path):
    args = ("density", "--profile", "constant:n=16,m=16,hermitian=true",
            "--grid=-2.5:2.5:0.25", "--eta", "0.1")
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert _run(*args, "--out", str(out_a)) == 0
    assert _run(*args, "--out", str(out_b)) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_outliers_single_strength_report_and_curve(tmp_path):
    out = tmp_path / "outliers.json"
    code = _run("outliers", "--model", "constant:n=16,m=20", "--theta-list",
                "2.0", "--window", "1.5:4.0", "--out", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["dilated"] is True
    accepted = [c for c in report["reports"][0]["candidates"] if c["accepted"]]
    assert len(accepted) == 1
    assert abs(accepted[0]["lambda"] - _ROOT_16_20) <= 1e-3
    curve = (tmp_path / "outliers.json.curve.csv").read_text().strip().split("\n")
    assert curve[0] == "lambda,det_abs"
    assert len(curve) >= 201


def test_outliers_sweep_writes_one_row_per_strength(tmp_path):
    out = tmp_path / "sweep.json"
    code = _run("outliers", "--model", "constant:n=16,m=20", "--theta-list",
                "0.5,2.0", "--window", "1.5:4.0", "--out", str(out))
    assert code == 0
    curve = (tmp_path / "sweep.json.curve.csv").read_text().strip().split("\n")
    assert curve[0] == "theta,lambda,det_abs,accepted"
    rows = [ln.split(",") for ln in curve[1:]]
    assert len(rows) == 2
    by_theta = {float(r[0]): int(r[3]) for r in rows}
    assert by_theta[0.5] == 0  # below the detection threshold (16/20)^(1/4)
    assert by_theta[2.0] == 1


def test_outliers_prepares_the_model_once_for_every_strength(tmp_path, monkeypatch):
    spec, thetas = "bernoulli:n=180,m=200,p=0.3,seed=1", [0.8, 1.5, 3.0]
    calls = []
    prepare = outliers._prepare

    def counted(*args):
        calls.append(args)
        return prepare(*args)

    monkeypatch.setattr(outliers, "_prepare", counted)
    out = tmp_path / "sweep.json"
    assert _run("outliers", "--model", spec, "--theta-list", ",".join(map(str, thetas)),
                "--out", str(out)) == 0
    assert len(calls) == 1
    monkeypatch.undo()

    # the reference prepares one model per strength, sharing one cache
    profile = _parse_profile_spec(spec)
    dilated = dilate_model(RectangularModel(profile=profile, y=None, spikes=RectangularSpikes(
        u=_spike_vector("constant", 180), theta=[1.0], v=_spike_vector("constant", 200))))
    cache: dict = {}
    reports = [locate_outliers(HermitianModel(
        profile=dilated.profile, y=dilated.y,
        spikes=SpikeSet(u=dilated.w, theta=dilated.theta_signed * theta)), cache=cache)
        for theta in thetas]
    payload = json.loads(out.read_text())
    payload["reports"] = [r.to_json_dict() for r in reports]
    _write_json(tmp_path / "reference.json", payload)
    assert out.read_bytes() == (tmp_path / "reference.json").read_bytes()


def test_outliers_hermitian_profile_with_e1_vectors(tmp_path):
    out = tmp_path / "e1.json"
    code = _run("outliers", "--model", "constant:n=40,m=40,hermitian=true",
                "--theta-list", "1.8", "--vectors", "e1",
                "--window", "2.05:3.0", "--out", str(out))
    assert code == 0


def test_outliers_failure_exits_two(tmp_path, capsys):
    out = tmp_path / "fail.json"
    code = _run("outliers", "--model", "constant:n=16,m=20", "--theta-list",
                "2.0", "--window", "0.0:0.4", "--max-iterations", "5",
                "--out", str(out))
    assert code == 2
    diag = json.loads((tmp_path / "fail.json.diagnostics.json").read_text())
    assert "error" in diag
    assert "diagnostics" in capsys.readouterr().err


def test_outliers_custom_vector_csv(tmp_path):
    vec = tmp_path / "vectors.csv"
    n, m = 16, 20
    u = np.full(n, 1.0 / np.sqrt(n))
    v = np.full(m, 1.0 / np.sqrt(m))
    vec.write_text("\n".join(f"{x:.17g}" for x in np.concatenate([u, v])))
    out = tmp_path / "custom.json"
    code = _run("outliers", "--model", "constant:n=16,m=20", "--theta-list",
                "2.0", "--vectors", f"csv:{vec}", "--window", "1.5:4.0",
                "--out", str(out))
    assert code == 0
    bad = tmp_path / "short.csv"
    bad.write_text("1.0\n0.0\n")
    code = _run("outliers", "--model", "constant:n=16,m=20", "--theta-list",
                "2.0", "--vectors", f"csv:{bad}", "--window", "1.5:4.0",
                "--out", str(out))
    assert code == 1


def test_sample_hermitian_eigenvalues(tmp_path):
    out = tmp_path / "eigs.txt"
    code = _run("sample", "--profile", "constant:n=6,m=6,hermitian=true",
                "--count", "3", "--seed", "9", "--out", str(out))
    assert code == 0
    values = [float(v) for v in out.read_text().split()]
    assert len(values) == 18
    meta = json.loads((tmp_path / "eigs.txt.meta.json").read_text())
    assert meta["kind"] == "eigenvalues"
    out_b = tmp_path / "eigs2.txt"
    _run("sample", "--profile", "constant:n=6,m=6,hermitian=true",
         "--count", "3", "--seed", "9", "--out", str(out_b))
    assert out.read_bytes() == out_b.read_bytes()


def test_sample_rectangular_singular_values(tmp_path):
    out = tmp_path / "svals.txt"
    code = _run("sample", "--profile", "constant:n=4,m=6", "--count", "2",
                "--seed", "1", "--out", str(out))
    assert code == 0
    values = np.array([float(v) for v in out.read_text().split()])
    assert values.shape == (8,)
    assert np.all(values >= 0.0)
    meta = json.loads((tmp_path / "svals.txt.meta.json").read_text())
    assert meta["kind"] == "singular_values"


def test_validate_master(tmp_path):
    out = tmp_path / "master.json"
    code = _run("validate", "--what", "master", "--n", "20", "--samples",
                "200", "--seed", "5", "--out", str(out))
    assert code == 0
    result = json.loads(out.read_text())["result"]
    assert result["passed"] is True
    assert result["deviation"] <= result["bound"]


def test_validate_concentration(tmp_path):
    out = tmp_path / "conc.json"
    code = _run("validate", "--what", "concentration", "--n", "50",
                "--samples", "20", "--seed", "2", "--out", str(out))
    assert code == 0
    result = json.loads(out.read_text())["result"]
    assert result["passed"] is True
    assert result["pass_rate"] >= result["min_pass_rate"]


def test_validate_failure_exits_three(tmp_path, capsys):
    out = tmp_path / "master.json"
    code = _run("validate", "--what", "master", "--n", "20", "--samples",
                "200", "--seed", "5", "--bound-factor", "1e-6", "--out", str(out))
    assert code == 3
    assert json.loads(out.read_text())["result"]["passed"] is False
    assert "FAIL" in capsys.readouterr().out


def test_validate_rejects_bad_arguments(tmp_path):
    out = tmp_path / "v.json"
    assert _run("validate", "--what", "master", "--lambda-im", "-1.0",
                "--out", str(out)) == 1
    assert _run("validate", "--what", "master", "--profile",
                "constant:n=4,m=6", "--out", str(out)) == 1


def test_grid_and_window_specs_are_validated(tmp_path):
    out = tmp_path / "x.csv"
    assert _run("density", "--profile", "constant:n=4,m=4,hermitian=true",
                "--grid", "3:1", "--out", str(out)) == 1
    assert _run("density", "--profile", "constant:n=4,m=4,hermitian=true",
                "--grid", "nonsense", "--out", str(out)) == 1
    assert _run("outliers", "--model", "constant:n=4,m=6", "--theta-list",
                "2.0", "--window", "1-3", "--out", str(out)) == 1
    assert _run("outliers", "--model", "constant:n=4,m=6", "--theta-list", "",
                "--out", str(out)) == 1


def test_profile_spec_parse_errors(tmp_path):
    out = tmp_path / "x.csv"
    assert _run("density", "--profile", "mystery:n=4", "--grid", "0:1:0.5",
                "--out", str(out)) == 1
    assert _run("density", "--profile", "constant:n=4,m=4,oops=1", "--grid",
                "0:1:0.5", "--out", str(out)) == 1
    missing = tmp_path / "missing.csv"
    assert _run("density", "--profile", str(missing), "--grid", "0:1:0.5",
                "--out", str(out)) == 1


@pytest.mark.parametrize("argv, message", [
    (("density", "--profile", "bernoulli:n=4,m=4,p=0.5,seed=1,hermitian=true",
      "--grid", "0:1:0.5"),
     "error: profile: hermitian: does not apply to profile kind 'bernoulli'"),
    (("density", "--profile", "doubly-stochastic:n=4,seed=1,hermitian=true",
      "--grid", "0:1:0.5"),
     "error: profile: hermitian: does not apply to profile kind 'doubly-stochastic'"),
    (("profile", "--kind", "bernoulli", "--n", "4", "--m", "4", "--p", "0.5", "--seed", "1",
      "--hermitian"),
     "error: hermitian: does not apply to profile kind 'bernoulli'"),
    (("density", "--profile", "constant:n=4,m=4,hermitian=maybe", "--grid", "0:1:0.5"),
     "error: profile: hermitian: needs true or false"),
    (("density", "--profile", "piecewise:n=4,m=4,hermitian=", "--grid", "0:1:0.5"),
     "error: profile: hermitian: needs true or false"),
    (("density", "--profile", "constant:n=abc,m=4", "--grid", "0:1:0.5"),
     "error: profile: n: needs an integer"),
    (("density", "--profile", "constant:n=2.5,m=4", "--grid", "0:1:0.5"),
     "error: profile: n: needs an integer"),
    (("density", "--profile", "bernoulli:n=4,m=4,p=x,seed=1", "--grid", "0:1:0.5"),
     "error: profile: p: needs a number"),
    (("density", "--profile", "constant:n=4,m=4,value=x,hermitian=true", "--grid", "0:1:0.5"),
     "error: profile: value: needs a number"),
    (("outliers", "--model", "doubly-stochastic:n=4,k=1,seed=s", "--theta-list", "2.0"),
     "error: profile: seed: needs an integer"),
])
def test_the_hermitian_option_is_validated_as_given(tmp_path, capsys, argv, message):
    assert _run(*argv, "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err.strip() == message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("spec, hermitian", [
    ("constant:n=4,m=4,hermitian=TRUE", True), ("constant:n=4,m=4,hermitian=no", False),
    ("piecewise:n=4,m=4,hermitian=1", True), ("piecewise:n=4,m=4", False),
])
def test_the_hermitian_option_reads_its_spellings(spec, hermitian):
    assert (_parse_profile_spec(spec).mode == "hermitian") is hermitian


@pytest.mark.parametrize("argv, message", [
    (("validate", "--what", "master", "--n", "4", "--samples", "2", "--seed", "-4"),
     "error: seed: must be >= 0"),
    (("sample", "--profile", "constant:n=3,m=3,hermitian=true", "--seed", "-1"),
     "error: seed: must be >= 0"),
    (("density", "--profile", "bernoulli:n=4,m=4,p=0.5,seed=-3", "--grid", "0:1:0.5"),
     "error: profile: seed: must be >= 0"),
    (("profile", "--kind", "doubly-stochastic", "--n", "4", "--seed", "-2"),
     "error: seed: must be >= 0"),
])
def test_a_negative_seed_is_named(tmp_path, capsys, argv, message):
    assert _run(*argv, "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err.strip() == message


_HERM4 = "constant:n=4,m=4,hermitian=true"


@pytest.mark.parametrize("argv, message", [
    (("density", "--profile", _HERM4, "--grid", "0:1:0.5", "--y", "diag:inf"),
     "error: y: deformation must be finite"),
    (("density", "--profile", _HERM4, "--grid", "0:1:0.5", "--y", "diag:0,nan,0,0"),
     "error: y: deformation must be finite"),
    (("outliers", "--model", _HERM4, "--theta-list", "2.0", "--y", "diag:inf"),
     "error: y: deformation must be finite"),
    (("outliers", "--model", _HERM4, "--theta-list", "2.0", "--y", "diag:nan"),
     "error: y: deformation must be finite"),
    (("outliers", "--model", _HERM4, "--theta-list", "2.0", "--window", "1:inf"),
     "error: window: needs finite values and hi > lo"),
    (("outliers", "--model", _HERM4, "--theta-list", "2.0", "--window", "nan:3"),
     "error: window: needs finite values and hi > lo"),
    (("outliers", "--model", _HERM4, "--theta-list", "2.0", "--window", "3:1"),
     "error: window: needs finite values and hi > lo"),
    (("density", "--profile", _HERM4, "--grid", "0:1:0.5", "--y", "diag:abc"),
     "error: y: could not convert string to float: 'abc'"),
    (("outliers", "--model", _HERM4, "--theta-list", "abc"),
     "error: theta_list: could not convert string to float: 'abc'"),
    (("density", "--profile", _HERM4, "--grid", "0:1:5e-324"),
     "error: grid: needs at most 10000000 points"),
    (("density", "--profile", _HERM4, "--grid", "0:1:1e-300"),
     "error: grid: needs at most 10000000 points"),
    (("outliers", "--model", "constant:n=8,m=8,hermitian=true", "--theta-list", "1,0"),
     "error: theta_list: spike strengths must be nonzero"),
])
def test_non_finite_deformations_and_windows_are_named(tmp_path, capsys, argv, message):
    assert _run(*argv, "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err.strip() == message
    assert not (tmp_path / "out").exists()


def test_a_non_finite_csv_deformation_is_named(tmp_path, capsys):
    y = tmp_path / "y.csv"
    y.write_text("0,1,0,0\n1,0,0,0\n0,0,inf,0\n0,0,0,0\n")
    out = str(tmp_path / "out")
    assert _run("density", "--profile", _HERM4, "--grid", "0:1:0.5", "--y", f"csv:{y}",
                "--out", out) == 1
    assert capsys.readouterr().err.strip() == "error: y: deformation must be finite"
    rect = tmp_path / "rect.csv"
    rect.write_text("0,nan,0\n0,0,0\n")
    assert _run("outliers", "--model", "constant:n=2,m=3", "--theta-list", "2.0",
                "--y", f"csv:{rect}", "--out", out) == 1
    assert capsys.readouterr().err.strip() == "error: y: deformation must be finite"


@pytest.mark.parametrize("argv", [
    ("density", "--profile", _HERM4, "--grid", "0:1:0.5"),
    ("outliers", "--model", _HERM4, "--theta-list", "2.0"),
    ("sample", "--profile", _HERM4, "--seed", "1"),
])
def test_a_non_hermitian_csv_deformation_is_named(tmp_path, capsys, argv):
    y = tmp_path / "y.csv"
    y.write_text("0,1,0,0\n2,0,0,0\n0,0,0,0\n0,0,0,0\n")
    out = tmp_path / "out"
    assert _run(*argv, "--y", f"csv:{y}", "--out", str(out)) == 1
    assert capsys.readouterr().err.strip() == "error: y: deformation matrix must be Hermitian"
    assert not out.exists()


def test_a_zero_deformation_writes_the_files_of_an_absent_one(tmp_path):
    # Y = 0 given as a diagonal is the absent Y, to the last bit
    files = {}
    for y in ("zero", "diag:0"):
        out = tmp_path / y.replace(":", "")
        out.mkdir()
        assert _run("density", "--profile", _HERM4, "--grid=-3:3:0.25", "--y", y,
                    "--out", str(out / "d.csv")) == 0
        assert _run("outliers", "--model", _HERM4, "--vectors", "e1", "--theta-list", "2.0",
                    "--y", y, "--out", str(out / "o.json")) == 0
        report = json.loads((out / "o.json").read_text())
        files[y] = ((out / "d.csv").read_bytes(), (out / "o.json.curve.csv").read_bytes(),
                    json.dumps(report["reports"]))
    assert files["zero"] == files["diag:0"]


# sha256 prefixes of the files these runs wrote before the dense-Y solves
# moved from scipy's f2py wrappers to the ctypes LAPACK table
@pytest.mark.parametrize("argv, digests", [
    (("outliers", "--model", "constant:n=8,m=8,hermitian=true", "--y", "csv:y.csv",
      "--vectors", "e1", "--theta-list", "2.0,2.5", "--out", "o.json"),
     {"o.json": "86d08ae49b616c39", "o.json.curve.csv": "6a83faac8e2ec23c"}),
    (("outliers", "--model", "constant:n=18,m=20", "--y", "csv:rect.csv",
      "--theta-list", "2.0", "--window", "1.5:4.0", "--out", "r.json"),
     {"r.json": "55a5dda07c74b0ce", "r.json.curve.csv": "bfe6b9e286a705b2"}),
    (("density", "--profile", "constant:n=18,m=20", "--y", "csv:rect.csv",
      "--grid", "0:2.5:0.25", "--out", "d.csv"),
     {"d.csv": "903c4804609b1372", "d.csv.meta.json": "6e562a374deb3ab6"}),
], ids=["outliers-dense-y", "outliers-rectangular-y", "density-rectangular-y"])
def test_deformed_runs_keep_their_bytes(tmp_path, monkeypatch, argv, digests):
    rng = np.random.default_rng(5)
    a = rng.standard_normal((8, 8))
    np.savetxt(tmp_path / "y.csv", (a + a.T) / 16.0, delimiter=",")
    u, v = rng.standard_normal(18), rng.standard_normal(20)
    np.savetxt(tmp_path / "rect.csv",
               0.8 * np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v)), delimiter=",")
    monkeypatch.chdir(tmp_path)
    assert _run(*argv) == 0
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:16]
            for name in digests} == digests


@pytest.mark.parametrize("argv", [
    ("density", "--profile", _HERM4, "--grid", "0:1:0.5", "--eta", "0"),
    ("density", "--profile", _HERM4, "--grid", "0:1:0.5", "--tolerance", "0"),
    ("density", "--profile", _HERM4, "--grid", "0:1:0.5", "--max-iterations", "0"),
    ("outliers", "--model", "constant:n=4,m=6", "--theta-list", "2.0",
     "--window", "1.5:3.0", "--scan-points", "0"),
    ("outliers", "--model", "constant:n=4,m=6", "--theta-list", "2.0",
     "--window", "1.5:3.0", "--eta-eval", "0"),
    ("sample", "--profile", _HERM4, "--seed", "1", "--count", "0"),
    ("validate", "--what", "master", "--lambda-im", "0"),
    ("validate", "--what", "concentration", "--lambda-im", "0"),
    ("validate", "--what", "master", "--n", "0"),
    ("validate", "--what", "master", "--samples", "0"),
    ("validate", "--what", "concentration", "--d", "0"),
    ("validate", "--what", "concentration", "--delta", "0"),
    ("profile", "--kind", "doubly-stochastic", "--n", "4", "--k", "0", "--seed", "1"),
    ("profile", "--kind", "constant", "--n", "4", "--m", "4", "--seed", "3"),
    ("density", "--profile", _HERM4, "--grid", "0:1:0.5", "--tolerance", "nan"),
    ("outliers", "--model", "constant:n=4,m=6", "--theta-list", "nan",
     "--window", "1.5:3.0"),
    ("outliers", "--model", _HERM4, "--theta-list", "inf", "--window", "1.5:3.0"),
    ("outliers", "--model", "constant:n=4,m=6", "--theta-list", "2.0",
     "--window", "1.5:3.0", "--threshold", "-1"),
    ("outliers", "--model", "constant:n=4,m=6", "--theta-list", "2.0",
     "--window", "1.5:3.0", "--threshold", "nan"),
    ("validate", "--what", "master", "--bound-factor", "-1"),
    ("validate", "--what", "master", "--bound-factor", "0"),
    ("validate", "--what", "concentration", "--min-pass-rate", "-1"),
    ("validate", "--what", "concentration", "--min-pass-rate", "2"),
    ("validate", "--what", "master", "--d", "7"),
    ("validate", "--what", "master", "--delta", "0.9"),
    ("validate", "--what", "master", "--min-pass-rate", "0.5"),
    ("validate", "--what", "concentration", "--bound-factor", "5"),
    ("validate", "--what", "master", "--n", "7", "--profile",
     "constant:n=20,m=20,hermitian=true"),
    ("validate", "--what", "concentration", "--d", "inf"),
    ("validate", "--what", "concentration", "--d", "nan"),
    ("density", "--profile", _HERM4, "--grid", "0:1:0.5", "--eta", "nan"),
    ("validate", "--what", "concentration", "--n", "400", "--samples", "5",
     "--lambda-im", "1e-9"),
    ("validate", "--what", "master", "--lambda-re", "nan"),
    ("validate", "--what", "master", "--lambda-im", "inf"),
    ("outliers", "--model", "constant:n=4,m=6", "--theta-list", "2.0",
     "--window", "1.5:3.0", "--scan-points", "2"),
    ("profile", "--kind", "constant", "--n", "0", "--m", "4"),
    ("density", "--profile", "constant:n=4,m=0", "--grid", "0:1:0.5"),
])
def test_zero_and_unused_flags_are_validated_not_defaulted(tmp_path, capsys, argv):
    assert _run(*argv, "--out", str(tmp_path / "out")) == 1
    # the message opens with the name of a field that was given
    field = capsys.readouterr().err.strip().removeprefix("error: ").split(":")[0]
    assert field in {flag[2:].replace("-", "_") for flag in argv if flag.startswith("--")}


_CONC = ("validate", "--what", "concentration")
_MASTER = ("validate", "--what", "master")
_OUTLIERS46 = ("outliers", "--model", "constant:n=4,m=6", "--theta-list", "2.0",
               "--window", "1.5:3.0")


@pytest.mark.parametrize("argv, field, value", [
    (("density", "--profile", _HERM4, "--grid", "0:1:0.5"), "eta", 0.0),
    (("density", "--profile", _HERM4, "--grid", "0:1:0.5"), "eta", float("nan")),
    (("density", "--profile", _HERM4, "--grid", "0:1:0.5"), "tolerance", 0.0),
    (("density", "--profile", _HERM4, "--grid", "0:1:0.5"), "tolerance", float("nan")),
    (("density", "--profile", _HERM4, "--grid", "0:1:0.5"), "max_iterations", 0),
    (_OUTLIERS46, "scan_points", 0),
    (_OUTLIERS46, "scan_points", 2),
    (_OUTLIERS46, "eta_eval", 0.0),
    (_OUTLIERS46, "threshold", -1.0),
    (_OUTLIERS46, "threshold", float("nan")),
    (("sample", "--profile", _HERM4, "--seed", "1"), "count", 0),
    (("sample", "--profile", _HERM4), "seed", -1),
    (_MASTER, "lambda_im", 0.0),
    (_CONC, "lambda_im", 0.0),
    (_MASTER, "lambda_im", float("inf")),
    (_MASTER, "lambda_re", float("nan")),
    (_MASTER, "n", 0),
    (_MASTER, "samples", 0),
    (_MASTER, "seed", -4),
    (_CONC, "d", 0.0),
    (_CONC, "d", float("inf")),
    (_CONC, "d", float("nan")),
    (_CONC, "delta", 0.0),
    (_MASTER, "bound_factor", -1.0),
    (_MASTER, "bound_factor", 0.0),
    (_CONC, "min_pass_rate", -1.0),
    (_CONC, "min_pass_rate", 2.0),
    (("profile", "--kind", "doubly-stochastic", "--n", "4", "--seed", "1"), "k", 0),
    (("profile", "--kind", "doubly-stochastic", "--n", "4"), "seed", -2),
    (("profile", "--kind", "constant", "--m", "4"), "n", 0),
])
def test_a_range_holds_alike_for_flags_and_config_values(tmp_path, capsys, argv, field,
                                                         value):
    out = str(tmp_path / "out")
    assert _run(*argv, "--" + field.replace("_", "-"), str(value), "--out", out) == 1
    message = capsys.readouterr().err
    assert message.startswith(f"error: {field}: ")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({field: value}))
    assert _run(*argv, "--config", str(cfg), "--out", out) == 1
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("kind, opts, field", [
    ("constant", {"n": 0, "m": 4}, "n"),
    ("constant", {"n": 4, "m": 0}, "m"),
    ("doubly-stochastic", {"n": 4, "k": 0, "seed": 1}, "k"),
    ("bernoulli", {"n": 4, "m": 4, "p": 0.5, "seed": -1}, "seed"),
])
def test_a_range_holds_alike_for_profile_spec_options(tmp_path, capsys, kind, opts, field):
    out = str(tmp_path / "out")
    flags = [arg for key, value in opts.items() for arg in (f"--{key}", str(value))]
    assert _run("profile", "--kind", kind, *flags, "--out", out) == 1
    message = capsys.readouterr().err.strip().removeprefix("error: ")
    assert message.startswith(f"{field}: must be")
    spec = kind + ":" + ",".join(f"{key}={value}" for key, value in opts.items())
    for argv in (("density", "--profile", spec, "--grid", "0:1:0.5"),
                 ("sample", "--profile", spec, "--seed", "1"),
                 ("outliers", "--model", spec, "--theta-list", "2.0")):
        assert _run(*argv, "--out", out) == 1
        assert capsys.readouterr().err.strip() == f"error: profile: {message}"


def test_density_at_a_tiny_eta_is_finite(tmp_path):
    # eta^2 underflows to 0 here, so neither the contraction test nor the
    # Cauchy atom of the singular-value correction may square eta.
    out = tmp_path / "density.csv"
    assert _run("density", "--profile", "constant:n=20,m=20", "--grid", "0:3:0.5",
                "--eta", "1e-300", "--out", str(out)) == 0
    values = [float(r.split(",")[1]) for r in out.read_text().strip().split("\n")[1:]]
    assert len(values) == 7
    assert np.all(np.isfinite(values))
    # the quarter-circle law of a square model: 2 / pi at the origin
    assert values[0] == pytest.approx(2.0 / np.pi, rel=1e-6)


def test_grid_writes_no_point_beyond_its_max(tmp_path):
    out = tmp_path / "density.csv"
    for spec, ts in (("0:1:0.35", [0.0, 0.35, 0.7]), ("0:0.3:0.1", [0.0, 0.1, 0.2, 0.3]),
                     ("0:3:0.05", 0.05 * np.arange(61))):
        assert _run("density", "--profile", _HERM4, "--grid", spec, "--eta", "0.1",
                    "--out", str(out)) == 0
        written = [float(r.split(",")[0]) for r in out.read_text().strip().split("\n")[1:]]
        assert len(written) == len(ts)
        assert np.allclose(written, ts, rtol=0.0, atol=1e-12)


def test_removed_options_are_unknown(tmp_path):
    out = str(tmp_path / "out")
    assert _run("density", "--profile", _HERM4, "--grid", "0:1:0.5",
                "--workers", "2", "--out", out) == 1
    assert _run("outliers", "--model", "constant:n=4,m=6", "--theta-list", "2.0",
                "--window", "1.5:3.0", "--use-tilde", "--out", out) == 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"workers": 2}))
    assert _run("density", "--profile", _HERM4, "--grid", "0:1:0.5",
                "--config", str(cfg), "--out", out) == 1


def test_zero_flag_values_are_kept(tmp_path):
    out = tmp_path / "p.csv"
    assert _run("profile", "--kind", "constant", "--n", "4", "--m", "4",
                "--value", "0", "--out", str(out)) == 0
    assert not read_profile_csv(out).entries.any()
    assert _run("profile", "--kind", "piecewise", "--n", "8", "--m", "8",
                "--gamma-ratio", "0", "--out", str(out)) == 0
    entries = read_profile_csv(out).entries
    assert not entries[:2, 2:].any() and entries[:2, :2].all()
    report = tmp_path / "o.json"
    assert _run("outliers", "--model", "constant:n=16,m=20", "--theta-list",
                "2.0", "--window", "1.5:4.0", "--threshold", "0",
                "--out", str(report)) == 0
    assert json.loads(report.read_text())["reports"][0]["threshold"] == 0.0


def test_a_divergent_density_solve_writes_its_diagnostics(tmp_path, capsys):
    # psi overflows at the first iterate; the solve reports it, with no
    # floating-point warning on the way
    out = tmp_path / "d.csv"
    assert _run("density", "--profile", "constant:n=4,m=4,value=1e307,hermitian=true",
                "--grid", "0:1:0.5", "--out", str(out)) == 2
    diag_path = tmp_path / "d.csv.diagnostics.json"
    diag = json.loads(diag_path.read_text())
    assert diag["command"] == "density" and len(diag["config_hash"]) == 16
    assert diag["error"].startswith("fixed-point iterate became non-finite")
    assert capsys.readouterr().err.strip() == \
        f"solver error: {diag['error']}; diagnostics in {diag_path}"
    assert not out.exists()


def test_an_outlier_search_stopped_by_the_iteration_cap_writes_its_diagnostics(tmp_path,
                                                                              capsys):
    # at a cap of 10 the walk's complex seeds do not converge; such a seed
    # says nothing about whether its lambda lies in the support
    out = tmp_path / "o.json"
    assert _run("outliers", "--model", "bernoulli:n=180,m=200,p=0.3,seed=1",
                "--theta-list", "1.05", "--max-iterations", "10", "--out", str(out)) == 2
    diag_path = tmp_path / "o.json.diagnostics.json"
    diag = json.loads(diag_path.read_text())
    assert diag["command"] == "outliers" and diag["completed_thetas"] == []
    assert diag["error"].startswith("the complex seed at lambda = ")
    assert diag["error"].endswith("did not converge within max_iterations = 10")
    assert capsys.readouterr().err.strip() == \
        f"outlier search failed: {diag['error']}; diagnostics in {diag_path}"
    assert not out.exists()


# each run exits 1 and names its input on the last line of stderr
@pytest.mark.parametrize("argv, message", [
    (("density", "--config", "missing.json", "--profile", _HERM4, "--grid", "0:1:0.5"),
     "error: config: cannot read missing.json: "),
    (("density", "--config", "broken.json", "--profile", _HERM4, "--grid", "0:1:0.5"),
     "error: config: cannot read broken.json: "),
    (("density", "--profile", "constant", "--grid", "0:1:0.5"),
     "error: profile: n: required field is missing"),
    (("density", "--profile", "constant:n=4,m", "--grid", "0:1:0.5"),
     "error: profile: malformed option 'm'"),
    (("density", "--profile", "constant:n=4,m=5", "--grid=-1:1:0.5"),
     "error: grid: singular-value grids need min >= 0"),
])
def test_unreadable_configs_and_malformed_specs_are_named(tmp_path, monkeypatch, capsys,
                                                          argv, message):
    (tmp_path / "broken.json").write_text("{not json")
    monkeypatch.chdir(tmp_path)
    assert _run(*argv, "--out", "out") == 1
    assert capsys.readouterr().err.strip().split("\n")[-1].startswith(message)
    assert not (tmp_path / "out").exists()


def test_a_singular_value_density_with_more_rows_than_columns_is_refused_before_solving(
        tmp_path, monkeypatch, capsys):
    def refused(*args, **kwargs):
        raise AssertionError("a profile with rows > cols must be rejected before any solve")

    monkeypatch.setattr(cli, "density_curve", refused)
    monkeypatch.chdir(tmp_path)
    assert _run("density", "--profile", "constant:n=440,m=400", "--grid", "0:3:0.05",
                "--out", "d.csv") == 1
    assert capsys.readouterr().err.strip().split("\n")[-1] == \
        "error: profile: singular-value densities need rows <= cols"
    assert list(tmp_path.iterdir()) == []


def test_an_outlier_search_with_no_converged_scan_point_writes_its_diagnostics(tmp_path,
                                                                              capsys):
    # the window lies inside the bulk [-2, 2], so no real solve converges
    out = tmp_path / "o.json"
    assert _run("outliers", "--model", "constant:n=40,m=40,hermitian=true",
                "--theta-list", "1.0", "--window=-1:1", "--out", str(out)) == 2
    diag_path = tmp_path / "o.json.diagnostics.json"
    diag = json.loads(diag_path.read_text())
    assert diag["command"] == "outliers" and diag["completed_thetas"] == []
    assert diag["error"].startswith("no scan point converged; widen the window")
    assert capsys.readouterr().err.strip() == \
        f"outlier search failed: {diag['error']}; diagnostics in {diag_path}"
    assert not out.exists()


def test_an_unconverged_curve_point_exits_two_after_writing_the_outputs(tmp_path, capsys):
    # the root converges, but at a cap of 60 the curve's first point,
    # lambda = 0.2 inside the bulk, does not
    out = tmp_path / "o.json"
    assert _run("outliers", "--model", "constant:n=16,m=20", "--theta-list", "2.0",
                "--window", "0.2:4.0", "--max-iterations", "60", "--out", str(out)) == 2
    accepted = [c["lambda"] for c in json.loads(out.read_text())["reports"][0]["candidates"]
                if c["accepted"]]
    assert len(accepted) == 1 and abs(accepted[0] - _ROOT_16_20) <= 1e-3
    curve = (tmp_path / "o.json.curve.csv").read_text().strip().split("\n")
    assert curve[0] == "lambda,det_abs" and float(curve[1].split(",")[0]) == 0.2
    diag_path = tmp_path / "o.json.diagnostics.json"
    diag = json.loads(diag_path.read_text())
    assert diag["command"] == "outliers" and len(diag["config_hash"]) == 16
    assert diag["failed_points"] == [0.2] and diag["failed_count"] == 1
    assert capsys.readouterr().err.strip() == \
        f"solver failed to converge at 1 curve points; diagnostics in {diag_path}"


def test_rectangular_sample_adds_its_csv_deformation(tmp_path):
    y = np.arange(24.0).reshape(4, 6) / 7.0
    y_csv = tmp_path / "y.csv"
    y_csv.write_text("\n".join(",".join(f"{v:.17g}" for v in row) for row in y) + "\n")
    out = tmp_path / "svals.txt"
    assert _run("sample", "--profile", "constant:n=4,m=6", "--y", f"csv:{y_csv}",
                "--count", "3", "--seed", "2", "--out", str(out)) == 0
    profile = constant_profile(4, 6, 1.0)
    expect = [np.linalg.svd(sample_rect_gaussian(profile, child) + y, compute_uv=False)
              for child in SampleBatch(seed=2, count=3, n=4).child_seeds()]
    assert [float(v) for v in out.read_text().split()] == np.concatenate(expect).tolist()


def test_profile_normalize_sets_the_average_variance(tmp_path):
    out = tmp_path / "p.csv"
    assert _run("profile", "--kind", "constant", "--n", "4", "--m", "6", "--value", "3",
                "--normalize", "0.5", "--out", str(out)) == 0
    assert read_profile_csv(out).entries.tolist() == [[0.5] * 6] * 4


# files the runs below read, in the directory they run in
_INPUTS = {"bogus.json": '{"what": "bogus"}', "null.json": '{"kind": null, "n": 4}',
           "bad.csv": "1,x\n", "y33.csv": "0,0,0\n0,0,0\n0,0,0\n", "u4.csv": "1\n0\n0\n0\n"}


# The last line each run prints: an "error: " line on stderr with exit 1,
# else a line on stdout with exit 0.  numpy words the end of a csv error,
# so only the start of each line is compared.
@pytest.mark.parametrize("argv, message", [
    (("validate", "--what", "master", "--profile", _HERM4, "--samples", "20"),
     "master: PASS (out)"),
    (("validate", "--config", "bogus.json"), "error: what: unknown validation 'bogus'"),
    (("profile", "--config", "null.json"), "error: kind: required field is missing"),
    (("density", "--profile", "constant:n=4,m=6", "--grid", "0:1:0.5", "--y", "diag:1"),
     "error: y: rectangular models need 'zero' or a csv matrix"),
    (("density", "--profile", _HERM4, "--grid", "0:1:0.5", "--y", "diag:1,2"),
     "error: y: diagonal needs 1 or 4 values, got 2"),
    (("density", "--profile", _HERM4, "--grid", "0:1:0.5", "--y", "csv:bad.csv"),
     "error: y: cannot read bad.csv: "),
    (("density", "--profile", _HERM4, "--grid", "0:1:0.5", "--y", "csv:y33.csv"),
     "error: y: matrix has shape (3, 3), expected (4, 4)"),
    (("density", "--profile", _HERM4, "--grid", "0:1:0.5", "--y", "eye"),
     "error: y: unknown specification 'eye'"),
    (("outliers", "--model", _HERM4, "--theta-list", "2", "--vectors", "ones"),
     "error: vectors: unknown kind 'ones'"),
    (("outliers", "--model", _HERM4, "--theta-list", "2", "--vectors", "csv:bad.csv"),
     "error: vectors: cannot read bad.csv: "),
    (("outliers", "--model", _HERM4, "--theta-list", "2", "--vectors", "csv:u4.csv"),
     "wrote out (1 spike strengths, 1 accepted outliers)"),
    (("density", "--profile", _HERM4, "--grid", "a:1"),
     "error: grid: malformed specification 'a:1'"),
    (("outliers", "--model", _HERM4, "--theta-list", "2", "--window", "a:1"),
     "error: window: malformed specification 'a:1'"),
    (("outliers", "--model", "constant:n=4,m=6", "--theta-list", "-1"),
     "error: theta_list: rectangular spikes need theta > 0"),
])
def test_each_branch_prints_its_outcome(tmp_path, monkeypatch, capsys, argv, message):
    for name, text in _INPUTS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    failed = message.startswith("error: ")
    assert _run(*argv, "--out", "out") == (1 if failed else 0)
    printed = capsys.readouterr()
    assert (printed.err if failed else printed.out).strip().split("\n")[-1].startswith(message)
    assert (tmp_path / "out").exists() is not failed


# each command's fields after --config, in flag order, with the type a value
# takes; a dropped, reordered or retyped flag changes them
_FIELDS = {
    "profile": [("out", str), ("kind", str), ("n", int), ("m", int), ("p", float),
                ("k", int), ("seed", int), ("value", float), ("gamma_ratio", float),
                ("hermitian", bool), ("normalize", float)],
    "density": [("out", str), ("profile", str), ("y", str), ("grid", str), ("eta", float),
                ("tolerance", float), ("max_iterations", int)],
    "outliers": [("out", str), ("model", str), ("y", str), ("theta_list", str),
                 ("vectors", str), ("threshold", float), ("window", str),
                 ("scan_points", int), ("eta_eval", float), ("tolerance", float),
                 ("max_iterations", int)],
    "sample": [("out", str), ("profile", str), ("y", str), ("count", int), ("seed", int)],
    "validate": [("out", str), ("what", str), ("n", int), ("samples", int), ("d", float),
                 ("delta", float), ("seed", int), ("lambda_re", float),
                 ("lambda_im", float), ("profile", str), ("bound_factor", float),
                 ("min_pass_rate", float)],
}


@pytest.mark.parametrize("command", sorted(_FIELDS))
def test_each_command_keeps_its_fields(command):
    assert list(cli._parser().parse_args([command]).fields.items()) == _FIELDS[command]


def test_main_builds_one_parser_per_process(tmp_path):
    cli._parser.cache_clear()
    assert _run("sample", "--profile", _HERM4, "--seed", "1", "--out", str(tmp_path / "a")) == 0
    assert _run("validate", "--what", "unknown") == 1
    info = cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_each_command_rerun_in_one_process_writes_the_same_bytes(tmp_path, monkeypatch):
    runs = [("profile", "--kind", "bernoulli", "--n", "8", "--m", "12", "--p", "0.5",
             "--seed", "3", "--out", "p.csv"),
            ("density", "--profile", "p.csv", "--grid", "0:2:0.25", "--eta", "0.1",
             "--out", "d.csv"),
            ("outliers", "--model", "constant:n=16,m=20", "--theta-list", "2.0",
             "--window", "1.5:4.0", "--out", "o.json"),
            ("sample", "--profile", _HERM4, "--count", "3", "--seed", "2", "--out", "s.txt"),
            ("validate", "--what", "master", "--n", "8", "--samples", "20", "--seed", "5",
             "--out", "m.json")]
    files = []
    for name in ("first", "second"):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert [_run(*argv) for argv in runs] == [0] * len(runs)
        files.append({path.name: path.read_bytes() for path in (tmp_path / name).iterdir()})
    assert len(files[0]) == 9
    assert files[0] == files[1]
