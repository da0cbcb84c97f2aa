"""Batch experiment runner.

Every verification in the package is exposed as a subcommand that
writes plot-ready CSV series and a JSON manifest echoing the effective
configuration, the package version, and every residual or verdict it
computed.  Runs are deterministic: fixed iteration orders, seeds taken
from the config, no timestamps in any output.

Exit codes: 0 success, 1 invariant-suite failure, 2 invalid
configuration.  Parameters may come from flags or from a JSON config
file (``--config``) with identical keys; explicit flags win.  Unknown
config keys are rejected.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, acceptance
from .fields import ChannelField, ChannelGrid, c_alpha_norm_scales, holder_quotient
from .mollify import (
    mollification_report,
    write_mollification_csv,
    write_mollification_json,
)
from .pressure import (
    CutoffProfile,
    TrigPoly2D,
    dirichlet_schauder_check,
    estimate_ratio,
    random_symmetric_trig_field,
    solve_modified_pressure,
    solve_schauder_problem,
    write_pressure_diagnostics_json,
)
from .tracelab import (
    TestFunction,
    dyadic_quotients_boundary,
    dyadic_quotients_interior,
    write_trace_report_csv,
    write_trace_report_json,
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


def _parse_int_list(value) -> list:
    if isinstance(value, (list, tuple)):
        return [int(v) for v in value]
    try:
        return [int(tok) for tok in str(value).split(",") if tok != ""]
    except ValueError as exc:
        raise ConfigError(f"expected a comma-separated integer list, got {value!r}") from exc


def _parse_float_list(value) -> list:
    if isinstance(value, (list, tuple)):
        return [float(v) for v in value]
    try:
        return [float(tok) for tok in str(value).split(",") if tok != ""]
    except ValueError as exc:
        raise ConfigError(f"expected a comma-separated number list, got {value!r}") from exc


def _make_theta(spec: str) -> TestFunction:
    if spec == "mean-one":
        return TestFunction.mean_one()
    if spec == "mean-zero":
        return TestFunction((0.0, 1.0))
    raise ConfigError(f"unknown theta spec {spec!r} (use mean-one or mean-zero)")


def _merge_config(args: argparse.Namespace, keys: dict) -> dict:
    """Effective parameters: explicit flag > config file > default."""
    file_params = {}
    if args.config is not None:
        try:
            file_params = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(file_params, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(file_params) - set(keys))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    params = {}
    for key, default in keys.items():
        flag_value = getattr(args, key)
        if flag_value is not None:
            params[key] = flag_value
        elif key in file_params:
            params[key] = file_params[key]
        else:
            params[key] = default
    return params


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _write_manifest(out_dir: Path, experiment: str, params: dict,
                    outputs: list, results: dict) -> Path:
    path = out_dir / f"{experiment}_manifest.json"
    payload = {
        "experiment": experiment,
        "version": __version__,
        "params": params,
        "outputs": sorted(str(Path(o).name) for o in outputs),
        "results": results,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    return path


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ------------------------------------------------------------ subcommands


def cmd_weierstrass_scan(args) -> int:
    params = _merge_config(args, {
        "alpha": 0.5, "n_terms_list": "4,8,12", "nx": 256, "ny": 257,
    })
    terms = _parse_int_list(params["n_terms_list"])
    grid = ChannelGrid(nx=int(params["nx"]), ny=int(params["ny"]))
    out = _out_dir(args)
    rows = []
    for n_terms in terms:
        p = WeierstrassParams(alpha=float(params["alpha"]), n_terms=n_terms)
        u = velocity_field(p, grid)
        u2 = ChannelField(grid, u.values[1])
        est = holder_quotient(u2, p.alpha, *c_alpha_norm_scales(grid))
        rows.append({
            "n_terms": n_terms,
            "truncation_bound": truncation_error_bound(p),
            "divergence_residual": field_divergence_residual(u),
            "seminorm": est.seminorm,
        })
    csv_path = out / "weierstrass_scan.csv"
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n_terms", "truncation_bound", "divergence_residual", "seminorm"])
        for r in rows:
            w.writerow([r["n_terms"], f"{r['truncation_bound']:.17g}",
                        f"{r['divergence_residual']:.17g}", f"{r['seminorm']:.17g}"])
    results = {
        "rows": rows,
        "closed_form_constant": holder_constant_bound(float(params["alpha"]))
        if 0.0 < float(params["alpha"]) < 1.0 else None,
    }
    _write_manifest(out, "weierstrass_scan", params, [csv_path], results)
    return EXIT_OK


def cmd_trace_blowup(args) -> int:
    params = _merge_config(args, {
        "alpha": 0.25, "n_max": 30, "n_terms": 40, "theta": "mean-one",
        "mode": "boundary", "j": 1, "m": 1,
    })
    theta = _make_theta(str(params["theta"]))
    p = WeierstrassParams(alpha=float(params["alpha"]), n_terms=int(params["n_terms"]))
    if params["mode"] == "boundary":
        report = dyadic_quotients_boundary(p, theta, int(params["n_max"]))
    elif params["mode"] == "interior":
        report = dyadic_quotients_interior(
            p, theta, int(params["j"]), int(params["m"]), int(params["n_max"]))
    else:
        raise ConfigError(f"unknown mode {params['mode']!r} (use boundary or interior)")
    out = _out_dir(args)
    csv_path = out / f"trace_blowup_{params['mode']}.csv"
    json_path = out / f"trace_blowup_{params['mode']}.json"
    write_trace_report_csv(report, csv_path)
    write_trace_report_json(report, json_path)
    results = {
        "verdict": report.verdict,
        "fitted_growth_exponent": report.fitted_growth_exponent,
        "first_quotient": report.quotients[0],
        "last_quotient": report.quotients[-1],
    }
    _write_manifest(out, f"trace_blowup_{params['mode']}", params,
                    [csv_path, json_path], results)
    print(f"verdict {report.verdict}, fitted exponent "
          f"{report.fitted_growth_exponent:.4f}")
    return EXIT_OK


def cmd_geometry_verify(args) -> int:
    params = _merge_config(args, {"patch": "all"})
    names = (("flat", "paraboloid", "saddle", "sinusoidal")
             if params["patch"] == "all" else (str(params["patch"]),))
    out = _out_dir(args)
    per_patch = {}
    ok = True
    for name in names:
        try:
            worst = acceptance.patch_identity_residuals(name)
        except KeyError as exc:
            raise ConfigError(f"unknown patch {name!r}") from exc
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


def cmd_mollify_report(args) -> int:
    params = _merge_config(args, {
        "alpha": 0.5, "n_terms": 20, "nx": 64, "ny": 129,
        "epsilons": "0.1,0.05,0.025,0.0125",
    })
    eps = _parse_float_list(params["epsilons"])
    grid = ChannelGrid(nx=int(params["nx"]), ny=int(params["ny"]))
    u = velocity_field(
        WeierstrassParams(alpha=float(params["alpha"]), n_terms=int(params["n_terms"])),
        grid)
    report = mollification_report(u, float(params["alpha"]), eps)
    out = _out_dir(args)
    csv_path = out / "mollify_report.csv"
    json_path = out / "mollify_report.json"
    write_mollification_csv(report, csv_path)
    write_mollification_json(report, json_path)
    walls_zero = all(r == 0.0 for r in report.wall_residuals)
    div_ok = max(report.max_divergences) <= 1e-12
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


def cmd_pressure_solve(args) -> int:
    params = _merge_config(args, {
        "flow": "single-mode", "grids": "64,128,256", "alpha": 0.5,
        "n_terms": 6, "delta": 0.2, "ratio_alpha": 0.5,
    })
    grids = _parse_int_list(params["grids"])
    if not grids:
        raise ConfigError("grids must name at least one resolution")
    channel_grids = [ChannelGrid(nx=int(n), ny=int(n) + 1) for n in grids]
    for grid in channel_grids:
        h_min, h_max = c_alpha_norm_scales(grid)
        if h_min > h_max:
            raise ConfigError(
                f"grid nx={grid.nx} is too coarse for the C^alpha norm estimate: "
                f"4*max(hx, hy) = {h_min:g} exceeds {h_max:g}")
    flow = _pressure_flow(str(params["flow"]), float(params["alpha"]),
                          int(params["n_terms"]))
    phi = CutoffProfile(delta=float(params["delta"]))
    out = _out_dir(args)
    rows = []
    invariants_ok = True
    last = None
    for grid in channel_grids:
        u = flow(grid)
        sol = solve_modified_pressure(u, phi)
        ratio = estimate_ratio(sol, u, float(params["ratio_alpha"]))
        invariants_ok = invariants_ok and sol.pde_residual <= 1e-10 \
            and sol.mean_constraint_residual <= 1e-10
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
        last = (sol, ratio)
    csv_path = out / "pressure_solve.csv"
    columns = list(rows[0].keys())
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        for r in rows:
            w.writerow([r["nx"], *(f"{r[c]:.17g}" for c in columns[1:])])
    json_path = out / "pressure_solve.json"
    write_pressure_diagnostics_json(last[0], last[1], json_path)
    results = {"rows": rows, "invariants_ok": invariants_ok}
    if params["flow"] == "single-mode" and len(rows) >= 2:
        errs = [r["error"] for r in rows]
        slope = float(np.polyfit(np.log2(grids), np.log2(errs), 1)[0])
        results["convergence_slope"] = -slope
        print(f"convergence slope {-slope:.3f}")
    _write_manifest(out, "pressure_solve", params, [csv_path, json_path], results)
    return EXIT_OK if invariants_ok else EXIT_INVARIANT


def cmd_schauder_check(args) -> int:
    params = _merge_config(args, {
        "alpha": 0.5, "seeds": "0,1,2,3,4", "resolutions": "64,128,256,512",
    })
    seeds = _parse_int_list(params["seeds"])
    resolutions = _parse_int_list(params["resolutions"])
    out = _out_dir(args)
    rows = []
    spreads = {}
    ok = True
    for seed in seeds:
        F11, F12, F22 = random_symmetric_trig_field(seed)
        sweep = dirichlet_schauder_check(F11, F12, F22, float(params["alpha"]),
                                         resolutions)
        for res, ratio in zip(sweep.resolutions, sweep.ratios):
            rows.append((res, seed, ratio))
        spread = (max(sweep.ratios) / min(sweep.ratios)
                  if min(sweep.ratios) > 0.0 else float("inf"))
        spreads[str(seed)] = spread
        ok = ok and not sweep.zero_data and spread <= 2.0
    csv_path = out / "schauder_check.csv"
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["resolution", "seed", "ratio"])
        for res, seed, ratio in sorted(rows):
            w.writerow([res, seed, f"{ratio:.17g}"])
    results = {"ratio_spreads": spreads, "all_bounded": ok}
    _write_manifest(out, "schauder_check", params, [csv_path], results)
    print(f"ratio spreads: {spreads}")
    return EXIT_OK if ok else EXIT_INVARIANT


def cmd_all_acceptance(args) -> int:
    params = _merge_config(args, {})
    out = _out_dir(args)
    results = acceptance.run_all()
    for res in results:
        print(acceptance.format_result_line(res))
    payload = {
        str(res.number): {
            "name": res.name,
            "passed": res.passed,
            "checks": res.checks,
            "details": res.details,
        }
        for res in results
    }
    json_path = out / "all_acceptance.json"
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    _write_manifest(out, "all_acceptance", params, [json_path],
                    {"all_passed": all(r.passed for r in results)})
    return EXIT_OK if all(r.passed for r in results) else EXIT_INVARIANT


# ------------------------------------------------------------ wiring


def _add_common(sub):
    sub.add_argument("--out", default=".", help="output directory for artifacts")
    sub.add_argument("--config", default=None,
                     help="JSON config file with the same keys as the flags")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holderlab",
        description="Reproducible channel-flow pressure and trace experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("weierstrass-scan",
                        help="truncation/divergence/seminorm table over N")
    _add_common(s)
    s.add_argument("--alpha", type=float, default=None)
    s.add_argument("--n-terms-list", dest="n_terms_list", default=None)
    s.add_argument("--nx", type=int, default=None)
    s.add_argument("--ny", type=int, default=None)
    s.set_defaults(fn=cmd_weierstrass_scan)

    s = subs.add_parser("trace-blowup",
                        help="dyadic trace quotients at the wall or an interior height")
    _add_common(s)
    s.add_argument("--alpha", type=float, default=None)
    s.add_argument("--n-max", dest="n_max", type=int, default=None)
    s.add_argument("--n-terms", dest="n_terms", type=int, default=None)
    s.add_argument("--theta", default=None, help="mean-one or mean-zero")
    s.add_argument("--mode", default=None, help="boundary or interior")
    s.add_argument("--j", type=int, default=None, help="interior height numerator")
    s.add_argument("--m", type=int, default=None, help="interior height dyadic level")
    s.set_defaults(fn=cmd_trace_blowup)

    s = subs.add_parser("geometry-verify", help="metric and Laplacian identity suite")
    _add_common(s)
    s.add_argument("--patch", default=None,
                   help="flat, paraboloid, saddle, sinusoidal, or all")
    s.set_defaults(fn=cmd_geometry_verify)

    s = subs.add_parser("mollify-report",
                        help="divergence-free smoothing sweep on the lacunary flow")
    _add_common(s)
    s.add_argument("--alpha", type=float, default=None)
    s.add_argument("--n-terms", dest="n_terms", type=int, default=None)
    s.add_argument("--nx", type=int, default=None)
    s.add_argument("--ny", type=int, default=None)
    s.add_argument("--epsilons", default=None, help="comma-separated widths")
    s.set_defaults(fn=cmd_mollify_report)

    s = subs.add_parser("pressure-solve",
                        help="modified-pressure solves over a grid sweep")
    _add_common(s)
    s.add_argument("--flow", default=None, help="single-mode or weierstrass")
    s.add_argument("--grids", default=None, help="comma-separated nx values")
    s.add_argument("--alpha", type=float, default=None)
    s.add_argument("--n-terms", dest="n_terms", type=int, default=None)
    s.add_argument("--delta", type=float, default=None)
    s.add_argument("--ratio-alpha", dest="ratio_alpha", type=float, default=None)
    s.set_defaults(fn=cmd_pressure_solve)

    s = subs.add_parser("schauder-check",
                        help="Dirichlet double-divergence ratio sweeps")
    _add_common(s)
    s.add_argument("--alpha", type=float, default=None)
    s.add_argument("--seeds", default=None)
    s.add_argument("--resolutions", default=None)
    s.set_defaults(fn=cmd_schauder_check)

    s = subs.add_parser("all-acceptance", help="run the full acceptance suite")
    _add_common(s)
    s.set_defaults(fn=cmd_all_acceptance)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
