import argparse
import csv
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from holderlab import cli
from holderlab.tracelab import TestFunction, dyadic_quotients_boundary
from holderlab.weierstrass import WeierstrassParams


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


def test_trace_blowup_files_round_trip_the_report(tmp_path):
    assert run("trace-blowup", "--alpha", "0.4", "--n-terms", "20", "--n-max", "12",
               "--out", str(tmp_path)) == 0
    rep = dyadic_quotients_boundary(WeierstrassParams(0.4, 20), TestFunction.mean_one(), 12)
    with open(tmp_path / "trace_blowup_boundary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "n", "y_n", "quotient_total", "quotient_NR", "quotient_RNR",
        "quotient_RR", "lower_bound",
    ]
    assert len(rows) == 13
    assert float(rows[1][2]) == rep.quotients[0]
    assert float(rows[12][5]) == rep.components["quotient_RR"][11]
    summary = json.loads((tmp_path / "trace_blowup_boundary.json").read_text())
    assert summary["verdict"] == rep.verdict
    assert summary["n_max"] == 12
    assert summary["fitted_growth_exponent"] == rep.fitted_growth_exponent


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


def test_geometry_verify_does_not_report_an_inner_key_error_as_unknown_patch(
        tmp_path, monkeypatch):
    def broken(name):
        raise KeyError("residual")

    monkeypatch.setattr(cli.acceptance, "patch_identity_residuals", broken)
    with pytest.raises(KeyError, match="residual"):
        run("geometry-verify", "--patch", "flat", "--out", str(tmp_path))


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


@pytest.mark.parametrize("argv, message", [
    (("weierstrass-scan", "--alpha", "1.5"), "alpha must lie in (0, 1]"),
    (("geometry-verify", "--patch", "torus"), "unknown patch"),
    (("schauder-check", "--resolutions", "6"), "nx must be a power of two"),
    (("mollify-report", "--epsilons", "0.3,0.1,0.05"), "does not fit"),
    (("mollify-report", "--epsilons", "nan,0.1,0.05"), "epsilon must be positive, got nan"),
    (("pressure-solve", "--ratio-alpha", "1.5"), "ratio_alpha must lie in [0, 1], got 1.5"),
    (("pressure-solve", "--ratio-alpha", "nan"), "ratio_alpha must lie in [0, 1], got nan"),
    (("pressure-solve", "--ratio-alpha", "-0.5"), "ratio_alpha must lie in [0, 1], got -0.5"),
], ids=[f"argv{i}" for i in range(8)])
def test_rejected_configuration_creates_no_out_dir(tmp_path, capsys, monkeypatch, argv,
                                                   message):
    def no_solve(*args):
        raise AssertionError("a rejected configuration ran a pressure solve")

    monkeypatch.setattr(cli, "solve_modified_pressure", no_solve)
    out = tmp_path / "out"
    assert run(*argv, "--out", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, message", [
    ("--seeds", "seeds must name at least one seed"),
    ("--resolutions", "resolutions must name at least one resolution"),
])
def test_schauder_check_rejects_an_empty_list_before_any_sweep(tmp_path, capsys, monkeypatch,
                                                               flag, message):
    # an empty seed list used to pass vacuously ("all_bounded": true), and
    # an empty resolution list leaked min()'s message
    swept = []
    monkeypatch.setattr(cli, "dirichlet_schauder_check", lambda *args: swept.append(args))
    out = tmp_path / "out"
    assert run("schauder-check", flag, "", "--out", str(out)) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert swept == []
    assert not out.exists()


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


@pytest.mark.parametrize("key, value, message", [
    ("nx", 64.7, "nx must be an integer, got 64.7"),
    ("nx", True, "nx must be an integer, got True"),
    ("alpha", True, "alpha must be a number, got True"),
    ("alpha", "0.25", "alpha must be a number, got '0.25'"),
], ids=["int-float", "int-bool", "float-bool", "float-str"])
def test_config_file_numbers_take_only_json_numbers(tmp_path, capsys, key, value, message):
    # a config value takes what its flag takes: argparse refuses --nx 64.7
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nx": 32, "ny": 33, "n_terms_list": "2", key: value}))
    out = tmp_path / "out"
    assert run("weierstrass-scan", "--config", str(cfg), "--out", str(out)) == 2
    assert f"error: config key {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, key, value, message", [
    ("weierstrass-scan", "n_terms_list", 2,
     "n_terms_list must be a comma-separated string or a JSON list, each item an integer, "
     "got 2"),
    ("pressure-solve", "grids", [64, 128.7], "grids must be a comma-separated string or a "
     "JSON list, each item an integer, got [64, 128.7]"),
    ("pressure-solve", "grids", [True], "each item an integer, got [True]"),
    ("schauder-check", "seeds", {"0": 1}, "each item an integer, got {'0': 1}"),
    ("mollify-report", "epsilons", [0.1, "0.05"], "each item a number, got [0.1, '0.05']"),
    ("mollify-report", "epsilons", [0.1, False], "each item a number, got [0.1, False]"),
    ("mollify-report", "epsilons", 0.1, "each item a number, got 0.1"),
    ("trace-blowup", "theta", 5, "theta must be a string, got 5"),
    ("trace-blowup", "mode", ["boundary"], "mode must be a string, got ['boundary']"),
    ("geometry-verify", "patch", None, "patch must be a string, got None"),
    ("pressure-solve", "flow", 1, "flow must be a string, got 1"),
], ids=["scalar-list", "float-item", "bool-item", "object-list", "str-item",
        "bool-float-item", "scalar-float-list", "int-theta", "list-mode", "null-patch",
        "int-flow"])
def test_config_file_values_take_only_their_json_type(tmp_path, capsys, monkeypatch, command,
                                                      key, value, message):
    # a word takes only a JSON string, a list a string or a JSON list of its
    # numbers; nothing runs and nothing is written
    monkeypatch.setattr(cli, "COMMANDS", {
        name: (lambda *args: pytest.fail("a rejected configuration ran"), *rest)
        for name, (_, *rest) in cli.COMMANDS.items()})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    out = tmp_path / "out"
    assert run(command, "--config", str(cfg), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"error: config key {key} must be " in err and message in err
    assert not out.exists()


def test_config_file_lists_take_json_lists_of_their_numbers(tmp_path):
    # a JSON list runs as its comma-separated string does, and the manifest
    # echoes the list
    out = {}
    for name, terms in (("string", "2,3"), ("list", [2, 3])):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"nx": 32, "ny": 33, "n_terms_list": terms}))
        out[name] = tmp_path / name
        assert run("weierstrass-scan", "--config", str(cfg), "--out", str(out[name])) == 0
    csv_name = "weierstrass_scan.csv"
    assert (out["list"] / csv_name).read_bytes() == (out["string"] / csv_name).read_bytes()
    manifest = json.loads((out["list"] / "weierstrass_scan_manifest.json").read_text())
    assert manifest["params"]["n_terms_list"] == [2, 3]
    # a float list takes integer items too
    cli._check_config_value("epsilons", "0.1", [1, 0.5])
    assert set(cli._LIST_KEYS) <= {key for *_, options in cli.COMMANDS.values()
                                   for key in options}


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


# a config naming every key of each subcommand, with values small enough to run fast
_EVERY_KEY = {
    "weierstrass-scan": {"alpha": 0.5, "n_terms_list": "2", "nx": 32, "ny": 33},
    "trace-blowup": {"alpha": 0.25, "n_max": 6, "n_terms": 8, "theta": "mean-one",
                     "mode": "boundary", "j": 1, "m": 1},
    "geometry-verify": {"patch": "flat"},
    "mollify-report": {"alpha": 0.5, "n_terms": 4, "nx": 32, "ny": 33,
                       "epsilons": "0.2,0.1,0.05"},
    "pressure-solve": {"flow": "single-mode", "grids": "32", "alpha": 0.5, "n_terms": 2,
                       "delta": 0.2, "ratio_alpha": 0.5},
    "schauder-check": {"alpha": 0.5, "seeds": "0", "resolutions": "32"},
    "all-acceptance": {},
}

# the help text of every flag that has one
_FLAG_HELP = {
    "trace-blowup": {"--theta": "mean-one or mean-zero", "--mode": "boundary or interior",
                     "--j": "interior height numerator",
                     "--m": "interior height dyadic level"},
    "geometry-verify": {"--patch": "flat, paraboloid, saddle, sinusoidal, or all"},
    "mollify-report": {"--epsilons": "comma-separated widths"},
    "pressure-solve": {"--flow": "single-mode or weierstrass",
                       "--grids": "comma-separated nx values"},
}


def _subparser(command):
    subs = next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    return subs.choices[command]


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_option_table_parser_and_manifest_agree(tmp_path, monkeypatch, capsys, command):
    keys = set(cli.COMMANDS[command][2])
    dests = {a.dest for a in _subparser(command)._actions} - {"help", "out", "config"}
    assert dests == keys
    assert set(_EVERY_KEY[command]) == keys

    # the gate itself is covered by test_all_acceptance_command
    monkeypatch.setattr(cli.acceptance, "run_all", lambda: [])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_EVERY_KEY[command]))
    assert run(command, "--config", str(cfg), "--out", str(tmp_path / "out")) == 0
    stem = "trace_blowup_boundary" if command == "trace-blowup" else command.replace("-", "_")
    manifest = json.loads((tmp_path / "out" / f"{stem}_manifest.json").read_text())
    assert manifest["params"] == _EVERY_KEY[command]

    monkeypatch.setenv("COLUMNS", "200")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(command, "--help")
    assert exc.value.code == 0
    shown = " ".join(capsys.readouterr().out.split())
    for key in keys:
        assert "--" + key.replace("_", "-") in shown
    for flag, text in _FLAG_HELP.get(command, {}).items():
        assert f"{flag} {flag[2:].upper()} {text}" in shown


_DIGESTS = Path(__file__).parents[1] / "tools" / "output_digests.py"


def test_output_digests_runs_every_command_with_valid_flags():
    spec = importlib.util.spec_from_file_location("output_digests", _DIGESTS)
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    parser = cli.build_parser()
    ran = {parser.parse_args(c.split()).command for c in digests.COMMANDS}
    assert ran == set(cli.COMMANDS)


def test_output_digests_stops_when_no_holderlab_runs(tmp_path):
    # a holderlab whose cli fails shadows any other copy: the script must
    # print no digests and exit 2, not report every command as failed
    fake = tmp_path / "holderlab"
    fake.mkdir()
    (fake / "__init__.py").write_text("")
    (fake / "cli.py").write_text("raise SystemExit(1)\n")
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    run = subprocess.run([sys.executable, str(_DIGESTS)], env=env, capture_output=True,
                         text=True, timeout=60)
    assert run.returncode == 2
    assert run.stdout == ""
    assert "--version" in run.stderr


# a stand-in cli that writes the size of its affinity mask, as seen when
# holderlab is imported, into its --out directory
_MASK_CLI = """
import os, sys
from pathlib import Path
CPUS = len(os.sched_getaffinity(0))
if sys.argv[1:] != ["--version"]:
    out = Path(sys.argv[sys.argv.index("--out") + 1])
    out.mkdir(parents=True)
    (out / "cpus.txt").write_text(str(CPUS))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs affinity masks")
def test_output_digests_pins_every_command_to_the_first_cpus(tmp_path):
    fake = tmp_path / "holderlab"
    fake.mkdir()
    (fake / "__init__.py").write_text("")
    (fake / "cli.py").write_text(_MASK_CLI)
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    mask = len(os.sched_getaffinity(0))
    for cpus, seen in ((["--cpus", "1"], 1), ([], mask)):
        run = subprocess.run([sys.executable, str(_DIGESTS), *cpus], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        lines = run.stdout.splitlines()
        exits = [line for line in lines if line.startswith("exit ")]
        digests = [line.split()[0] for line in lines if line not in exits]
        assert exits and all(line.startswith("exit 0 ") for line in exits)
        assert digests == [hashlib.sha256(str(seen).encode()).hexdigest()] * len(exits)
    for bad in ("0", str(mask + 1)):
        run = subprocess.run([sys.executable, str(_DIGESTS), "--cpus", bad], env=env,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 2 and run.stdout == ""


# pins the child to one CPU, or leaves its mask, before holderlab is
# imported (fields._CPUS is read at import); reports the CPUs the block
# runner saw, then runs the command
_PINNED_RUN = """
import os, sys
if sys.argv[1] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from holderlab import cli, fields
print(fields._CPUS, file=sys.stderr)
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2,
                    reason="needs affinity masks and two usable CPUs: on one, both runs are "
                           "the same run")
def test_one_cpu_and_every_cpu_write_the_same_bytes(tmp_path):
    # both commands take the parallel paths at 512: the pressure solve's
    # block passes and the sweep's stacked scans and whole-array FFTs
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    cpus = {"one": "1", "all": str(len(os.sched_getaffinity(0)))}
    for argv in (("pressure-solve", "--flow", "weierstrass", "--grids", "512"),
                 ("schauder-check", "--seeds", "0", "--resolutions", "512")):
        runs = {}
        for mask in cpus:
            out = tmp_path / mask / argv[0]
            proc = subprocess.run([sys.executable, "-c", _PINNED_RUN, mask, *argv,
                                   "--out", str(out)], env=env, capture_output=True,
                                  text=True, timeout=300)
            assert proc.stderr.split()[-1] == cpus[mask], proc.stderr
            runs[mask] = (proc.returncode,
                          {p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert runs["one"][0] == 0
        assert runs["one"] == runs["all"], argv
