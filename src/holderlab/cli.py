"""Batch experiment runner.

Every verification in the package is exposed as a subcommand that
writes plot-ready CSV series and a JSON manifest echoing the effective
configuration, the package version, and every residual or verdict it
computed.  Runs are deterministic: fixed iteration orders, seeds taken
from the config, no timestamps in any output.  Every file goes through
:mod:`holderlab.formats`.

Exit codes: 0 success, 1 invariant-suite failure, 2 invalid
configuration.  Parameters may come from flags or from a JSON config
file (``--config``) with identical keys; explicit flags win.  Unknown
config keys are rejected, and a config value takes only the JSON type of
what its flag takes: a number where the flag takes a number (an integer
where it takes an integer), a string where it takes a word, and for a
list key a comma-separated string or a JSON list of such numbers.  Each
subcommand and its keys are declared once, in :data:`COMMANDS`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, acceptance
from .fields import (ChannelField, ChannelGrid, _check_norm_scales, c_alpha_norm_scales,
                     holder_quotient)
from .formats import write_csv, write_json
from .geometry import PATCH_BUILDERS
from .mollify import mollification_report
from .pressure import (
    CutoffProfile,
    dirichlet_schauder_check,
    estimate_ratio,
    random_symmetric_trig_field,
    solve_modified_pressure,
)
from .tracelab import (
    TestFunction,
    dyadic_quotients_boundary,
    dyadic_quotients_interior,
)
from .weierstrass import (
    WeierstrassParams,
    field_divergence_residual,
    holder_constant_bound,
    truncation_error_bound,
    velocity_field,
)

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    """Raised for invalid or out-of-range configuration."""


# the JSON types a config value of a numeric key may take, by the type of
# the key's default (a JSON true or false is a bool, so neither passes)
_NUMBER_KEYS = {int: ((int,), "an integer"), float: ((int, float), "a number")}

# the type of each item of a list key; its flag takes a comma-separated
# string, and a config file that string or a JSON list of the items
_LIST_KEYS = {"n_terms_list": int, "epsilons": float, "grids": int, "seeds": int,
              "resolutions": int}


def _parse_list(params: dict, key: str) -> list:
    """The items of list key ``key``: a comma-separated string, or a JSON
    list that :func:`_merge_config` has checked."""
    kind, value = _LIST_KEYS[key], params[key]
    if isinstance(value, list):
        return [kind(v) for v in value]
    try:
        return [kind(tok) for tok in value.split(",") if tok != ""]
    except ValueError as exc:
        raise ConfigError(
            f"expected a comma-separated {kind.__name__} list, got {value!r}") from exc


def _check_config_value(key: str, default, value) -> None:
    """Reject a config file's value whose JSON type the key does not take."""
    if key in _LIST_KEYS:
        kinds, what = _NUMBER_KEYS[_LIST_KEYS[key]]
        ok = type(value) is str or (type(value) is list
                                    and all(type(v) in kinds for v in value))
        what = f"a comma-separated string or a JSON list, each item {what}"
    elif type(default) is str:
        ok, what = type(value) is str, "a string"
    else:
        kinds, what = _NUMBER_KEYS[type(default)]
        ok = type(value) in kinds
    if not ok:
        raise ConfigError(f"config key {key} must be {what}, got {value!r}")


def _make_theta(spec: str) -> TestFunction:
    if spec == "mean-one":
        return TestFunction.mean_one()
    if spec == "mean-zero":
        return TestFunction((0.0, 1.0))
    raise ConfigError(f"unknown theta spec {spec!r} (use mean-one or mean-zero)")


def _merge_config(args: argparse.Namespace, options: dict) -> dict:
    """Effective parameters: explicit flag > config file > default."""
    file_params = {}
    if args.config is not None:
        try:
            file_params = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(file_params, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(file_params) - set(options))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    params = {}
    for key, (default, _) in options.items():
        flag_value = getattr(args, key)
        if flag_value is not None:
            params[key] = flag_value
        elif key in file_params:
            _check_config_value(key, default, file_params[key])
            params[key] = file_params[key]
        else:
            params[key] = default
    return params


def _write_manifest(out_dir: Path, experiment: str, params: dict,
                    outputs: list, results: dict) -> Path:
    return write_json(out_dir / f"{experiment}_manifest.json", {
        "experiment": experiment,
        "version": __version__,
        "params": params,
        "outputs": sorted(o.name for o in outputs),
        "results": results,
    })


# ------------------------------------------------------------ subcommands


def cmd_weierstrass_scan(params: dict, out: Path) -> int:
    terms = _parse_list(params, "n_terms_list")
    grid = ChannelGrid(nx=int(params["nx"]), ny=int(params["ny"]))
    rows = []
    for n_terms in terms:
        p = WeierstrassParams(alpha=float(params["alpha"]), n_terms=n_terms)
        u = velocity_field(p, grid)
        u2 = ChannelField._adopt(grid, u.values[1:2])
        est = holder_quotient(u2, p.alpha, *c_alpha_norm_scales(grid))
        rows.append({
            "n_terms": n_terms,
            "truncation_bound": truncation_error_bound(p),
            "divergence_residual": field_divergence_residual(u),
            "seminorm": est.seminorm,
        })
    columns = ["n_terms", "truncation_bound", "divergence_residual", "seminorm"]
    csv_path = write_csv(out / "weierstrass_scan.csv", columns,
                         ([r[c] for c in columns] for r in rows))
    results = {
        "rows": rows,
        "closed_form_constant": holder_constant_bound(float(params["alpha"]))
        if 0.0 < float(params["alpha"]) < 1.0 else None,
    }
    _write_manifest(out, "weierstrass_scan", params, [csv_path], results)
    return EXIT_OK


def cmd_trace_blowup(params: dict, out: Path) -> int:
    theta = _make_theta(str(params["theta"]))
    p = WeierstrassParams(alpha=float(params["alpha"]), n_terms=int(params["n_terms"]))
    if params["mode"] == "boundary":
        report = dyadic_quotients_boundary(p, theta, int(params["n_max"]))
    elif params["mode"] == "interior":
        report = dyadic_quotients_interior(
            p, theta, int(params["j"]), int(params["m"]), int(params["n_max"]))
    else:
        raise ConfigError(f"unknown mode {params['mode']!r} (use boundary or interior)")
    name = f"trace_blowup_{params['mode']}"
    csv_path = write_csv(
        out / f"{name}.csv",
        ["n", "y_n", "quotient_total", *report.components, "lower_bound"],
        zip(report.n_values, report.y_values, report.quotients,
            *report.components.values(), report.lower_bounds))
    json_path = write_json(out / f"{name}.json", {
        "alpha": report.alpha,
        "n_min": report.n_values[0],
        "n_max": report.n_values[-1],
        "fitted_growth_exponent": report.fitted_growth_exponent,
        "verdict": report.verdict,
        "quotient_first": report.quotients[0],
        "quotient_last": report.quotients[-1],
    })
    results = {
        "verdict": report.verdict,
        "fitted_growth_exponent": report.fitted_growth_exponent,
        "first_quotient": report.quotients[0],
        "last_quotient": report.quotients[-1],
    }
    _write_manifest(out, name, params, [csv_path, json_path], results)
    print(f"verdict {report.verdict}, fitted exponent "
          f"{report.fitted_growth_exponent:.4f}")
    return EXIT_OK


def cmd_geometry_verify(params: dict, out: Path) -> int:
    patch = str(params["patch"])
    if patch != "all" and patch not in PATCH_BUILDERS:
        raise ConfigError(f"unknown patch {patch!r}")
    names = tuple(PATCH_BUILDERS) if patch == "all" else (patch,)
    per_patch = {}
    ok = True
    for name in names:
        worst = acceptance.patch_identity_residuals(name)
        passed = all(worst[k] <= tol for k, tol in acceptance.GEOMETRY_TOLERANCES.items())
        ok = ok and passed
        per_patch[name] = {"residuals": worst, "passed": passed}
        print(f"{name}: {'ok' if passed else 'FAIL'} "
              f"(worst split {worst['split']:.2e}, worst oracle "
              f"{max(worst['gradient'], worst['divergence']):.2e})")
    results = {
        "tolerances": acceptance.GEOMETRY_TOLERANCES,
        "patches": per_patch,
        "all_passed": ok,
    }
    _write_manifest(out, "geometry_verify", params, [], results)
    return EXIT_OK if ok else EXIT_INVARIANT


def cmd_mollify_report(params: dict, out: Path) -> int:
    eps = _parse_list(params, "epsilons")
    grid = ChannelGrid(nx=int(params["nx"]), ny=int(params["ny"]))
    u = velocity_field(
        WeierstrassParams(alpha=float(params["alpha"]), n_terms=int(params["n_terms"])),
        grid)
    report = mollification_report(u, float(params["alpha"]), eps)
    betas = sorted(report.c_beta_errors)
    csv_path = write_csv(
        out / "mollify_report.csv", ["epsilon", "beta", "error", "ratio"],
        ([e, b, report.c_beta_errors[b][i], report.norm_ratios[i]]
         for i, e in enumerate(report.epsilons) for b in betas))
    json_path = write_json(out / "mollify_report.json", {
        "alpha": report.alpha,
        "epsilons": list(report.epsilons),
        "norm_ratio_max": max(report.norm_ratios),
        "norm_ratio_min": min(report.norm_ratios),
        "max_wall_residual": max(report.wall_residuals),
        "max_divergence": max(report.max_divergences),
        "betas": betas,
    })
    walls_zero = all(r == 0.0 for r in report.wall_residuals)
    div_ok = max(report.max_divergences) <= acceptance.MAX_DIVERGENCE
    results = {
        "max_divergence": max(report.max_divergences),
        "walls_exactly_zero": walls_zero,
        "norm_ratios": list(report.norm_ratios),
    }
    _write_manifest(out, "mollify_report", params, [csv_path, json_path], results)
    print(f"max divergence {max(report.max_divergences):.3e}, walls zero: {walls_zero}")
    return EXIT_OK if (walls_zero and div_ok) else EXIT_INVARIANT


def _pressure_flow(flow: str, alpha: float, n_terms: int):
    """The velocity sampler (grid -> field) that a pressure-solve run uses."""
    if flow == "single-mode":
        return acceptance.single_mode_flow
    if flow == "weierstrass":
        p = WeierstrassParams(alpha=alpha, n_terms=n_terms)
        return lambda grid: velocity_field(p, grid)
    raise ConfigError(f"unknown flow {flow!r} (use single-mode or weierstrass)")


def cmd_pressure_solve(params: dict, out: Path) -> int:
    grids = _parse_list(params, "grids")
    if not grids:
        raise ConfigError("grids must name at least one resolution")
    channel_grids = [ChannelGrid(nx=int(n), ny=int(n) + 1) for n in grids]
    for grid in channel_grids:
        _check_norm_scales(grid)
    ratio_alpha = float(params["ratio_alpha"])
    if not 0.0 <= ratio_alpha <= 1.0:
        raise ConfigError(f"ratio_alpha must lie in [0, 1], got {ratio_alpha}")
    flow = _pressure_flow(str(params["flow"]), float(params["alpha"]),
                          int(params["n_terms"]))
    phi = CutoffProfile(delta=float(params["delta"]))
    rows = []
    invariants_ok = True
    for grid in channel_grids:
        u = flow(grid)
        sol = solve_modified_pressure(u, phi)
        ratio = estimate_ratio(sol, u, ratio_alpha)
        invariants_ok = invariants_ok \
            and sol.pde_residual <= acceptance.MAX_PRESSURE_RESIDUAL \
            and sol.mean_constraint_residual <= acceptance.MAX_PRESSURE_RESIDUAL
        row = {
            "nx": grid.nx,
            "pde_residual": sol.pde_residual,
            "mean_residual": sol.mean_constraint_residual,
            "neumann_residual": sol.neumann_residual,
            "ratio": ratio,
        }
        if params["flow"] == "single-mode":
            exact = acceptance.single_mode_pressure(grid)
            row["error"] = float(np.max(np.abs(sol.p.values[0] - exact)))
        rows.append(row)
    csv_path = write_csv(out / "pressure_solve.csv", list(rows[0]),
                         (list(r.values()) for r in rows))
    # diagnostics of the last grid's solve
    json_path = write_json(out / "pressure_solve.json", {
        "pde_residual": sol.pde_residual,
        "neumann_residual": sol.neumann_residual,
        "mean_residual": sol.mean_constraint_residual,
        "ratio": ratio,
        "defect": sol.compatibility_defect,
    })
    results = {"rows": rows, "invariants_ok": invariants_ok}
    if params["flow"] == "single-mode" and len(rows) >= 2:
        errs = [r["error"] for r in rows]
        slope = float(np.polyfit(np.log2(grids), np.log2(errs), 1)[0])
        results["convergence_slope"] = -slope
        print(f"convergence slope {-slope:.3f}")
    _write_manifest(out, "pressure_solve", params, [csv_path, json_path], results)
    return EXIT_OK if invariants_ok else EXIT_INVARIANT


def cmd_schauder_check(params: dict, out: Path) -> int:
    seeds = _parse_list(params, "seeds")
    resolutions = _parse_list(params, "resolutions")
    if not seeds:
        raise ConfigError("seeds must name at least one seed")
    if not resolutions:
        raise ConfigError("resolutions must name at least one resolution")
    rows = []
    spreads = {}
    ok = True
    for seed in seeds:
        F11, F12, F22 = random_symmetric_trig_field(seed)
        sweep = dirichlet_schauder_check(F11, F12, F22, float(params["alpha"]),
                                         resolutions)
        for res, ratio in zip(sweep.resolutions, sweep.ratios):
            rows.append((res, seed, ratio))
        spreads[str(seed)] = sweep.spread
        ok = ok and sweep.spread <= acceptance.MAX_RATIO_SPREAD
    csv_path = write_csv(out / "schauder_check.csv", ["resolution", "seed", "ratio"],
                         sorted(rows))
    results = {"ratio_spreads": spreads, "all_bounded": ok}
    _write_manifest(out, "schauder_check", params, [csv_path], results)
    print(f"ratio spreads: {spreads}")
    return EXIT_OK if ok else EXIT_INVARIANT


def cmd_all_acceptance(params: dict, out: Path) -> int:
    results = acceptance.run_all()
    for res in results:
        print(acceptance.format_result_line(res))
    json_path = write_json(out / "all_acceptance.json", {
        str(res.number): {
            "name": res.name,
            "passed": res.passed,
            "checks": res.checks,
            "details": res.details,
        }
        for res in results
    })
    _write_manifest(out, "all_acceptance", params, [json_path],
                    {"all_passed": all(r.passed for r in results)})
    return EXIT_OK if all(r.passed for r in results) else EXIT_INVARIANT


# ------------------------------------------------------------ wiring

# command -> (function, help, {config key: (default, flag help)}); the flag of
# a key is "--" plus the key with "_" turned to "-", typed like its default
COMMANDS = {
    "weierstrass-scan": (cmd_weierstrass_scan, "truncation/divergence/seminorm table over N", {
        "alpha": (0.5, None),
        "n_terms_list": ("4,8,12", None),
        "nx": (256, None),
        "ny": (257, None),
    }),
    "trace-blowup": (cmd_trace_blowup,
                     "dyadic trace quotients at the wall or an interior height", {
        "alpha": (0.25, None),
        "n_max": (30, None),
        "n_terms": (40, None),
        "theta": ("mean-one", "mean-one or mean-zero"),
        "mode": ("boundary", "boundary or interior"),
        "j": (1, "interior height numerator"),
        "m": (1, "interior height dyadic level"),
    }),
    "geometry-verify": (cmd_geometry_verify, "metric and Laplacian identity suite", {
        "patch": ("all", "flat, paraboloid, saddle, sinusoidal, or all"),
    }),
    "mollify-report": (cmd_mollify_report,
                       "divergence-free smoothing sweep on the lacunary flow", {
        "alpha": (0.5, None),
        "n_terms": (20, None),
        "nx": (64, None),
        "ny": (129, None),
        "epsilons": ("0.1,0.05,0.025,0.0125", "comma-separated widths"),
    }),
    "pressure-solve": (cmd_pressure_solve, "modified-pressure solves over a grid sweep", {
        "flow": ("single-mode", "single-mode or weierstrass"),
        "grids": ("64,128,256", "comma-separated nx values"),
        "alpha": (0.5, None),
        "n_terms": (6, None),
        "delta": (0.2, None),
        "ratio_alpha": (0.5, None),
    }),
    "schauder-check": (cmd_schauder_check, "Dirichlet double-divergence ratio sweeps", {
        "alpha": (0.5, None),
        "seeds": ("0,1,2,3,4", None),
        "resolutions": ("64,128,256,512", None),
    }),
    "all-acceptance": (cmd_all_acceptance, "run the full acceptance suite", {}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holderlab",
        description="Reproducible channel-flow pressure and trace experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, options) in COMMANDS.items():
        s = subs.add_parser(command, help=help_text)
        s.add_argument("--out", default=".", help="output directory for artifacts")
        s.add_argument("--config", default=None,
                       help="JSON config file with the same keys as the flags")
        for key, (default, flag_help) in options.items():
            s.add_argument("--" + key.replace("_", "-"), type=type(default),
                           default=None, help=flag_help)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    fn, _, options = COMMANDS[args.command]
    try:
        return fn(_merge_config(args, options), Path(args.out))
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
