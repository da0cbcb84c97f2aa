"""The four benchmark workloads: their inputs, one round each, and the checks.

Each workload has a set-up function ``inputs(seed, out_dir)`` and a round
function ``run(inp, op, check)``.  A round calls the program only through
``op(fn, *args)``, which times the call and counts it as one operation;
everything else in a round is the benchmark's own work and is not timed.
With ``check`` true the round also verifies what the program returned,
right after each call, while the arrays are still alive, so that no
result is held longer than the program itself holds it.  Every check
compares against a computation made here, apart from the program, or
against a property the method must have.

Program functions are looked up on their modules at call time
(``pressure.solve_modified_pressure``, not a name imported once), so a
traced pass sees the wrappers the tracer installed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from holderlab import cli, fields, mollify, pressure, weierstrass
from holderlab.fields import ChannelField, ChannelGrid
from holderlab.pressure import CutoffProfile, TrigPoly2D
from holderlab.tracelab import TestFunction
from holderlab.weierstrass import WeierstrassParams

U = np.finfo(float).eps / 2  # unit roundoff of float64


@dataclass
class Round:
    """What one round leaves behind: a digest that every repeat of the
    round must reproduce, the failed checks (first round only) and the
    bytes the program wrote."""

    digest: tuple = ()
    failures: list = field(default_factory=list)
    bytes_written: int = 0


def _nodes_x(nx: int) -> np.ndarray:
    return np.arange(nx) * (2.0 / nx)


def _nodes_y(ny: int) -> np.ndarray:
    return np.arange(ny) / (ny - 1)


def least_squares_slope(xs, ys) -> float:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    xm, ym = xs.mean(), ys.mean()
    return float(np.sum((xs - xm) * (ys - ym)) / np.sum((xs - xm) ** 2))


def orders(errors) -> list:
    """Observed convergence orders between successive halvings of h."""
    return [math.log2(a / b) for a, b in zip(errors, errors[1:])]


# ------------------------------------------------------------ lacunary_fine


def series_at(alpha: float, n_terms: int, x: float, y: float):
    """(u1, u2, psi) of the truncated series at one point, summed here
    term by term with math.sin/math.cos, and a bound on how far the
    program's dyadic-exact samples may differ from these sums.

    Forming pi * 2**k * x in floating point errs by at most 2u|arg| (u the
    unit roundoff: one rounding of pi, one of the product; the power of
    two is exact), and math.sin/cos add at most u more, so each factor
    errs by 2u|arg| + u while the program's factor errs by at most 2u.
    A product of two factors bounded by 1 inherits the sum of their
    errors plus u; summing N+1 weighted terms adds (N+1) u sum(w).
    """
    u1 = u2 = psi = 0.0
    tol_u = tol_psi = w_sum = wp_sum = 0.0
    for k in range(n_terms + 1):
        ax = math.pi * 2.0**k * x
        ay = math.pi * 2.0**k * y
        w = 2.0 ** (-alpha * k)
        wp = 2.0 ** (-(alpha + 1.0) * k) / math.pi
        sx, cx, sy, cy = math.sin(ax), math.cos(ax), math.sin(ay), math.cos(ay)
        u1 -= w * sx * cy
        u2 += w * cx * sy
        psi -= wp * sx * sy
        term_err = 2.0 * U * (abs(ax) + abs(ay)) + 8.0 * U
        tol_u += w * term_err
        tol_psi += wp * term_err
        w_sum += w
        wp_sum += wp
    tol_u += 2.0 * (n_terms + 1) * U * w_sum
    tol_psi += 2.0 * (n_terms + 2) * U * wp_sum
    return (u1, u2, psi), (tol_u, tol_u, tol_psi)


def holder_bound(alpha: float) -> float:
    """2^(1-a) (1/(1-2^-a) + 2 pi/(2^(1-a)-1)), the seminorm bound of the
    full series, evaluated here."""
    return 2.0 ** (1.0 - alpha) * (1.0 / (1.0 - 2.0**-alpha)
                                   + 2.0 * math.pi / (2.0 ** (1.0 - alpha) - 1.0))


def brute_modulus(vals: np.ndarray, hx: float, hy: float, h: float) -> float:
    """max |f(p) - f(q)| over node pairs along the axes and diagonals with
    |p - q| <= h (x periodic), by explicit index arithmetic in row blocks."""
    nx, ny = vals.shape
    best = 0.0
    for dx, dy in ((1, 0), (0, 1), (1, 1), (1, -1)):
        step = math.hypot(dx * hx, dy * hy)
        s = 1
        while (s * step <= h * (1.0 + 1e-12) and (dx == 0 or s <= nx // 2)
               and (dy == 0 or s <= ny - 1)):
            di, dj = s * dx, s * dy
            lo, hi = max(0, -dj), min(ny, ny - dj)
            rows = (np.arange(nx) + di) % nx
            for start in range(0, nx, 256):
                block = slice(start, start + 256)
                diff = vals[rows[block], lo + dj:hi + dj] - vals[block, lo:hi]
                best = max(best, float(np.max(np.abs(diff))))
            s += 1
    return best


def check_lacunary(case: dict, u_values: np.ndarray, psi_values: np.ndarray,
                   fitted: float, seminorm: float, modulus: float) -> list:
    """Checks of one sampled lacunary flow and the scans of its u2."""
    alpha, n_terms = case["alpha"], case["n_terms"]
    nx, ny = u_values.shape[1:]
    hx, hy = 2.0 / nx, 1.0 / (ny - 1)
    tag = f"alpha={alpha:.4f} n_terms={n_terms}"
    bad = []
    for i, j in case["nodes"]:
        want, tol = series_at(alpha, n_terms, i * hx, j * hy)
        got = (u_values[0, i, j], u_values[1, i, j], psi_values[i, j])
        for name, g, w, t in zip(("u1", "u2", "psi"), got, want, tol):
            if not abs(g - w) <= t:
                bad.append(f"{tag}: {name}[{i},{j}] = {g!r}, series {w!r} (tol {t:.2e})")
    if np.any(u_values[1, :, 0] != 0.0) or np.any(u_values[1, :, -1] != 0.0):
        bad.append(f"{tag}: u2 is not exactly zero on the walls")
    if not abs(fitted - alpha) <= 0.05:
        bad.append(f"{tag}: fitted exponent {fitted} is not within 0.05 of alpha")
    if not seminorm <= holder_bound(alpha):
        bad.append(f"{tag}: seminorm {seminorm} exceeds the bound {holder_bound(alpha)}")
    brute = brute_modulus(u_values[1], hx, hy, case["modulus_h"])
    if modulus != brute:
        bad.append(f"{tag}: modulus {modulus!r} != brute force {brute!r}")
    return bad


def lacunary_inputs(seed: int, out_dir) -> dict:
    rng = np.random.default_rng(seed)
    nx, ny = 2048, 2049
    cases = []
    for n_terms in (12, 13):
        nodes = list(zip(rng.integers(0, nx, 48).tolist(), rng.integers(0, ny, 48).tolist()))
        cases.append({"alpha": float(rng.uniform(0.25, 0.5)), "n_terms": n_terms,
                      "nodes": nodes, "modulus_h": 2.0**-8})
    return {"grid": ChannelGrid(nx=nx, ny=ny), "cases": cases,
            "scales": [2.0**-k for k in range(7, 11)]}


def lacunary_round(inp: dict, op, check: bool) -> Round:
    grid = inp["grid"]
    out = Round()
    for case in inp["cases"]:
        p = WeierstrassParams(alpha=case["alpha"], n_terms=case["n_terms"])
        u = op(weierstrass.velocity_field, p, grid)
        psi = op(weierstrass.stream_field, p, grid)
        u2 = op(ChannelField, grid, u.values[1])
        fitted = op(fields.estimate_holder_exponent, u2, inp["scales"]).fitted_exponent
        est = op(fields.holder_quotient, u2, p.alpha, 4.0 * max(grid.hx, grid.hy), 0.25)
        modulus = op(fields.modulus_of_continuity, u2, case["modulus_h"])
        out.digest += (fitted, est.seminorm, modulus)
        if check:
            out.failures += check_lacunary(case, u.values, psi.values[0], fitted,
                                           est.seminorm, modulus)
        del u, psi, u2
    return out


# ------------------------------------------------------------ pressure_large


def single_mode_velocity(X, Y):
    """The single-mode cellular flow; its pressure is 0.25(cos 2pi x + cos 2pi y)."""
    return (-np.sin(np.pi * X) * np.cos(np.pi * Y), np.cos(np.pi * X) * np.sin(np.pi * Y))


def single_mode_error(p_values: np.ndarray) -> float:
    """max |p - 0.25(cos 2pi x + cos 2pi y)| on the nodes of p's grid."""
    nx, ny = p_values.shape
    exact_x = 0.25 * np.cos(2.0 * np.pi * _nodes_x(nx))
    exact_y = 0.25 * np.cos(2.0 * np.pi * _nodes_y(ny))
    return float(np.max(np.abs(p_values - exact_x[:, None] - exact_y[None, :])))


def check_pressure(errors, heights, traces, walls, ratio) -> list:
    bad = []
    obs = orders(errors)
    if not all(abs(o - 2.0) <= 0.2 for o in obs):
        bad.append(f"single-mode orders {obs} are not 2 +- 0.2 (errors {errors})")
    slope = least_squares_slope(heights, np.log2(np.abs(traces)))
    if not slope >= 0.4:
        bad.append(f"raw-pressure trace log-slope {slope} is below 0.4")
    if not max(abs(w) for w in walls) <= 1e-2:
        bad.append(f"modified-pressure wall traces {walls} exceed 1e-2")
    if not (math.isfinite(ratio) and ratio > 0.0):
        bad.append(f"norm ratio {ratio} is not a positive number")
    return bad


def pressure_inputs(seed: int, out_dir) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "sweep": [ChannelGrid(nx=n, ny=n + 1) for n in (512, 1024, 2048)],
        "tall": ChannelGrid(nx=1024, ny=8193),
        "flow": WeierstrassParams(alpha=float(rng.uniform(0.2, 0.27)), n_terms=8),
        "phi": CutoffProfile(delta=0.2),
        "theta": TestFunction.mean_one(),
        "heights": list(range(3, 11)),
    }


def pressure_round(inp: dict, op, check: bool) -> Round:
    phi, theta = inp["phi"], inp["theta"]
    out = Round()
    errors = []
    ratio = math.nan
    for grid in inp["sweep"]:
        u = op(ChannelField.from_function, grid, single_mode_velocity)
        sol = op(pressure.solve_modified_pressure, u, phi)
        if grid is inp["sweep"][0]:
            ratio = op(pressure.estimate_ratio, sol, u, 0.5)
        if check:
            errors.append(single_mode_error(sol.p.values[0]))
        out.digest += (sol.pde_residual, sol.neumann_residual)
        del u, sol
    u = op(weierstrass.velocity_field, inp["flow"], inp["tall"])
    sol = op(pressure.solve_modified_pressure, u, phi)
    del u
    traces = [op(pressure.weak_normal_trace, sol.p, theta, 2.0**-n) for n in inp["heights"]]
    walls = [op(pressure.weak_normal_trace, sol.P, theta, y) for y in (0.0, 1.0)]
    out.digest += (ratio, *traces, *walls)
    if check:
        out.failures += check_pressure(errors, inp["heights"], traces, walls, ratio)
    return out


# ------------------------------------------------------------ dirichlet_sweep

_BASES = ("cc", "cs", "sc", "ss")


def random_trig_poly(rng, n_terms: int = 5, max_freq: int = 4) -> TrigPoly2D:
    """Seeded amp * trig(kx pi x) trig(ky pi y) sum with amp in [-1, 1]."""
    terms = []
    for _ in range(n_terms):
        terms.append((float(rng.uniform(-1.0, 1.0)), int(rng.integers(0, max_freq + 1)),
                      int(rng.integers(0, max_freq + 1)), _BASES[int(rng.integers(0, 4))]))
    return TrigPoly2D(terms=tuple(terms))


def tangential_flow(rng, grid: ChannelGrid, n_modes: int = 4):
    """Velocity (d_y psi, -d_x psi) of a seeded stream
    psi = sum a trig(k pi x) sin(l pi y), which vanishes on both walls,
    with derivatives taken analytically here.  Returns the field and
    sum |a|, a bound on max |psi| and so on the mollified stream."""
    x, y = _nodes_x(grid.nx)[:, None], _nodes_y(grid.ny)[None, :]
    u1 = np.zeros((grid.nx, grid.ny))
    u2 = np.zeros_like(u1)
    amplitude = 0.0
    for _ in range(n_modes):
        a = float(rng.uniform(0.5, 1.0)) * (1.0 if rng.integers(0, 2) else -1.0)
        k, l = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        if rng.integers(0, 2):
            fx, dfx = np.cos(k * np.pi * x), -k * np.pi * np.sin(k * np.pi * x)
        else:
            fx, dfx = np.sin(k * np.pi * x), k * np.pi * np.cos(k * np.pi * x)
        u1 += a * fx * (l * np.pi * np.cos(l * np.pi * y))
        u2 -= a * dfx * np.sin(l * np.pi * y)
        amplitude += abs(a)
    u2[:, 0] = 0.0
    u2[:, -1] = 0.0
    return ChannelField(grid, np.stack([u1, u2])), amplitude


def divergence_bound(nx: int, ny: int, amplitude: float) -> float:
    """Rounding bound for the mollified field's discrete divergence.

    The divergence D_x(D_y psi) - D_y(D_x psi) vanishes in exact
    arithmetic.  Rounding leaves errors of relative size u in psi's
    derivatives; the centred y-difference scales them by 1/hy, the
    spectral x-derivative by at most the top wavenumber pi/hx, and the
    FFT's own error grows like log2(nx).  With |psi| <= amplitude this
    gives u * amplitude * (pi/hx) * (1/hy) * log2(nx).
    """
    hx, hy = 2.0 / nx, 1.0 / (ny - 1)
    return U * amplitude * (math.pi / hx) * (1.0 / hy) * math.log2(nx)


def single_term_error(case: dict, v_values: np.ndarray) -> float:
    """max |v - c amp cos(kx pi x) sin(ky pi y)|, c = kx^2/(kx^2+ky^2) for
    F11 data and ky^2/(kx^2+ky^2) for F22 data."""
    kx, ky = case["kx"], case["ky"]
    c = (kx * kx if case["slot"] == "F11" else ky * ky) / (kx * kx + ky * ky)
    nx, ny = v_values.shape
    exact = c * case["amp"] * np.outer(np.cos(kx * np.pi * _nodes_x(nx)),
                                       np.sin(ky * np.pi * _nodes_y(ny)))
    return float(np.max(np.abs(v_values - exact)))


def check_sweeps(sweeps) -> list:
    bad = []
    for i, sw in enumerate(sweeps):
        spread = max(sw.ratios) / min(sw.ratios) if min(sw.ratios) > 0.0 else math.inf
        if sw.zero_data or not spread <= 2.0:
            bad.append(f"random field {i}: ratio spread {spread} (zero data {sw.zero_data})")
    return bad


def check_single_term(case: dict, errors) -> list:
    obs = orders(errors)
    if all(abs(o - 2.0) <= 0.2 for o in obs):
        return []
    return [f"single term {case}: orders {obs} are not 2 +- 0.2 (errors {errors})"]


def check_mollification(report, nx: int, ny: int, amplitude: float) -> list:
    bad = []
    if not all(r == 0.0 for r in report.wall_residuals):
        bad.append(f"mollified walls are not exactly zero: {report.wall_residuals}")
    errs = report.c_beta_errors[0.25]
    if not all(a > b for a, b in zip(errs, errs[1:])):
        bad.append(f"C^0.25 errors {errs} do not strictly decrease in epsilon")
    bound = divergence_bound(nx, ny, amplitude)
    if not max(report.max_divergences) <= bound:
        bad.append(f"discrete divergence {max(report.max_divergences)} exceeds {bound}")
    return bad


def dirichlet_inputs(seed: int, out_dir) -> dict:
    rng = np.random.default_rng(seed)
    fields_ = [tuple(random_trig_poly(rng) for _ in range(3)) for _ in range(24)]
    singles = []
    for slot in ("F11", "F22"):
        singles.append({"slot": slot, "amp": float(rng.uniform(0.5, 2.0)),
                        "kx": int(rng.integers(1, 5)), "ky": int(rng.integers(1, 5))})
    grid = ChannelGrid(nx=256, ny=513)
    u, amplitude = tangential_flow(rng, grid)
    return {"fields": fields_, "resolutions": (64, 128, 256, 512), "singles": singles,
            "single_resolutions": (64, 128, 256), "u": u, "amplitude": amplitude,
            "epsilons": (0.1, 0.05, 0.025, 0.0125)}


def dirichlet_round(inp: dict, op, check: bool) -> Round:
    out = Round()
    sweeps = [op(pressure.dirichlet_schauder_check, *F, 0.5, inp["resolutions"])
              for F in inp["fields"]]
    out.digest += tuple(r for sw in sweeps for r in sw.ratios)
    if check:
        out.failures += check_sweeps(sweeps)
    zero = TrigPoly2D(terms=())
    for case in inp["singles"]:
        data = TrigPoly2D(terms=((case["amp"], case["kx"], case["ky"], "cs"),))
        F = (data, zero, zero) if case["slot"] == "F11" else (zero, zero, data)
        errors = []
        for n in inp["single_resolutions"]:
            v = op(pressure.solve_schauder_problem, *F, ChannelGrid(nx=n, ny=n // 2 + 1))
            errors.append(single_term_error(case, v.values[0]))
        out.digest += tuple(errors)
        if check:
            out.failures += check_single_term(case, errors)
    u = inp["u"]
    report = op(mollify.mollification_report, u, 0.5, inp["epsilons"])
    out.digest += (*report.max_divergences, *report.c_beta_errors[0.25], *report.norm_ratios)
    if check:
        out.failures += check_mollification(report, u.grid.nx, u.grid.ny, inp["amplitude"])
    return out


# ------------------------------------------------------------ acceptance_gate


def check_acceptance(code: int, payload: bytes) -> list:
    if code != 0:
        return [f"all-acceptance exited {code}"]
    try:
        result = json.loads(payload)
    except ValueError as exc:
        return [f"all_acceptance.json does not parse: {exc}"]
    if sorted(result) != [str(n) for n in range(1, 10)]:
        return [f"all_acceptance.json holds criteria {sorted(result)}, not 1..9"]
    return [f"criterion {n} ({result[n].get('name')}) did not pass: {result[n].get('checks')}"
            for n in sorted(result)
            if result[n].get("passed") is not True
            or not all(v is True for v in result[n].get("checks", {}).values())]


def acceptance_inputs(seed: int, out_dir) -> dict:
    """The gate takes no inputs; the seed changes nothing here."""
    return {"out": out_dir / "all-acceptance"}


def acceptance_round(inp: dict, op, check: bool) -> Round:
    out_dir = inp["out"]
    with contextlib.redirect_stdout(io.StringIO()):
        code = op(cli.main, ["all-acceptance", "--out", str(out_dir)])
    payload = (out_dir / "all_acceptance.json").read_bytes()
    written = sum(f.stat().st_size for f in out_dir.iterdir())
    failures = check_acceptance(code, payload) if check else []
    return Round(digest=(code, payload), failures=failures, bytes_written=written)


WORKLOADS = {
    "acceptance_gate": (acceptance_inputs, acceptance_round),
    "lacunary_fine": (lacunary_inputs, lacunary_round),
    "pressure_large": (pressure_inputs, pressure_round),
    "dirichlet_sweep": (dirichlet_inputs, dirichlet_round),
}
