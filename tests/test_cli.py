import json

import numpy as np
import pytest

from deteq.cli import main
from deteq.profiles import read_profile_csv

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
