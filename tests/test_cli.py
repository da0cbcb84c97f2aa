import json

import pytest

from holderlab import cli


def run(*argv):
    return cli.main(list(argv))


def test_trace_blowup_boundary_is_byte_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code = run("trace-blowup", "--alpha", "0.25", "--n-max", "20",
                   "--theta", "mean-one", "--out", str(out))
        assert code == 0
    for name in ("trace_blowup_boundary.csv", "trace_blowup_boundary.json",
                 "trace_blowup_boundary_manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    manifest = json.loads((a / "trace_blowup_boundary_manifest.json").read_text())
    assert manifest["results"]["verdict"] == "DIVERGES"
    assert abs(manifest["results"]["fitted_growth_exponent"] - 0.5) < 0.05
    assert manifest["version"]
    header = (a / "trace_blowup_boundary.csv").read_text().splitlines()[0]
    assert header == "n,y_n,quotient_total,quotient_NR,quotient_RNR,quotient_RR,lower_bound"


def test_trace_blowup_interior_mode(tmp_path):
    code = run("trace-blowup", "--mode", "interior", "--j", "1", "--m", "1",
               "--n-max", "15", "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "trace_blowup_interior.csv").exists()


def test_geometry_verify_single_patch(tmp_path):
    assert run("geometry-verify", "--patch", "flat", "--out", str(tmp_path)) == 0
    manifest = json.loads((tmp_path / "geometry_verify_manifest.json").read_text())
    assert manifest["results"]["all_passed"] is True
    assert run("geometry-verify", "--patch", "torus", "--out", str(tmp_path)) == 2


def test_mollify_report_outputs(tmp_path):
    code = run("mollify-report", "--nx", "64", "--ny", "129", "--n-terms", "6",
               "--epsilons", "0.1,0.05,0.025", "--out", str(tmp_path))
    assert code == 0
    header = (tmp_path / "mollify_report.csv").read_text().splitlines()[0]
    assert header == "epsilon,beta,error,ratio"
    manifest = json.loads((tmp_path / "mollify_report_manifest.json").read_text())
    assert manifest["results"]["walls_exactly_zero"] is True
    assert manifest["results"]["max_divergence"] <= 1e-12


def test_pressure_solve_single_mode_slope(tmp_path):
    code = run("pressure-solve", "--flow", "single-mode", "--grids", "32,64",
               "--out", str(tmp_path))
    assert code == 0
    manifest = json.loads((tmp_path / "pressure_solve_manifest.json").read_text())
    assert abs(manifest["results"]["convergence_slope"] - 2.0) < 0.2
    header = (tmp_path / "pressure_solve.csv").read_text().splitlines()[0]
    assert header.startswith("nx,")
    diag = json.loads((tmp_path / "pressure_solve.json").read_text())
    assert set(diag) == {"pde_residual", "neumann_residual", "mean_residual",
                         "ratio", "defect"}


def test_pressure_solve_rejects_bad_config(tmp_path):
    assert run("pressure-solve", "--flow", "vortex", "--out", str(tmp_path)) == 2
    assert run("pressure-solve", "--delta", "0.4", "--grids", "32",
               "--out", str(tmp_path)) == 2
    assert run("pressure-solve", "--grids", "", "--out", str(tmp_path)) == 2


@pytest.mark.parametrize("flow", ["single-mode", "weierstrass"])
def test_pressure_solve_rejects_grids_too_coarse_for_the_norm(tmp_path, flow):
    for grids in ("8", "16", "32,16"):
        out = tmp_path / f"coarse-{grids}"
        assert run("pressure-solve", "--flow", flow, "--grids", grids,
                   "--out", str(out)) == 2
        assert not out.exists()
    out = tmp_path / "fine"
    assert run("pressure-solve", "--flow", flow, "--grids", "32", "--out", str(out)) == 0
    assert (out / "pressure_solve.csv").exists()


def test_schauder_check_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code = run("schauder-check", "--seeds", "0,1", "--resolutions", "64,128",
                   "--out", str(out))
        assert code == 0
    assert (a / "schauder_check.csv").read_bytes() == (b / "schauder_check.csv").read_bytes()
    manifest = json.loads((a / "schauder_check_manifest.json").read_text())
    assert manifest["results"]["all_bounded"] is True


def test_weierstrass_scan_columns(tmp_path):
    code = run("weierstrass-scan", "--nx", "64", "--ny", "65",
               "--n-terms-list", "2,4", "--out", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "weierstrass_scan.csv").read_text().splitlines()
    assert lines[0] == "n_terms,truncation_bound,divergence_residual,seminorm"
    assert len(lines) == 3


def test_config_file_merging_and_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0.5, "n_max": 12}))
    out = tmp_path / "from_file"
    assert run("trace-blowup", "--config", str(cfg), "--out", str(out)) == 0
    manifest = json.loads((out / "trace_blowup_boundary_manifest.json").read_text())
    assert manifest["params"]["alpha"] == 0.5
    assert manifest["params"]["n_max"] == 12

    out2 = tmp_path / "flag_wins"
    assert run("trace-blowup", "--config", str(cfg), "--alpha", "0.25",
               "--out", str(out2)) == 0
    manifest = json.loads((out2 / "trace_blowup_boundary_manifest.json").read_text())
    assert manifest["params"]["alpha"] == 0.25


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0.5, "bogus": 1}))
    assert run("trace-blowup", "--config", str(cfg), "--out", str(tmp_path)) == 2


def test_all_acceptance_command(tmp_path, capsys):
    code = run("all-acceptance", "--out", str(tmp_path))
    lines = [ln for ln in capsys.readouterr().out.splitlines()
             if ln.startswith("ACCEPTANCE")]
    assert code == 0
    assert len(lines) == 9
    payload = json.loads((tmp_path / "all_acceptance.json").read_text())
    assert sorted(payload) == [str(i) for i in range(1, 10)]
    assert all(entry["passed"] for entry in payload.values())
