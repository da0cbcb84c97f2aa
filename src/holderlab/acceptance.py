"""Executable acceptance checks for the whole artifact.

Each criterion function runs one self-contained experiment and returns
a :class:`CriterionResult` holding named boolean checks, the measured
quantities behind them, and the elapsed wall time.  A criterion passes
when every check holds and the runtime budget (where one applies) is
met.  The functions are deterministic: fixed grids, fixed parameter
sweeps, fixed seeds.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .fields import (
    ChannelField,
    ChannelGrid,
    c_alpha_norm_scales,
    estimate_holder_exponent,
    holder_quotient,
)
from .geometry import (
    PATCH_BUILDERS,
    TubularPoint,
    cartesian_scalar_field,
    cartesian_vector_field,
    chart,
    divergence_curvilinear,
    gradient_curvilinear,
    laplacian_curvilinear,
    metric,
    normal_laplacian_part,
    squared_radius_field,
    tangential_laplacian,
)
from .mollify import mollification_report
from .pressure import (
    CutoffProfile,
    TrigPoly2D,
    dirichlet_schauder_check,
    estimate_ratio,
    random_symmetric_trig_field,
    solve_modified_pressure,
    solve_schauder_problem,
    weak_normal_trace,
)
from .tracelab import (
    TestFunction,
    VERDICT_DIVERGES,
    dyadic_quotients_boundary,
    dyadic_quotients_interior,
    fit_growth_exponent,
    resonant_lower_bound,
)
from .weierstrass import (
    WeierstrassParams,
    holder_constant_bound,
    normal_velocity_field,
    velocity_field,
)

__all__ = [
    "CriterionResult",
    "ALL_CRITERIA",
    "GEOMETRY_TOLERANCES",
    "MAX_DIVERGENCE",
    "MAX_PRESSURE_RESIDUAL",
    "MAX_RATIO_SPREAD",
    "run_all",
    "format_result_line",
    "single_mode_flow",
    "single_mode_pressure",
    "patch_identity_residuals",
    "resonant_quotient_identity",
    "trace_trichotomy",
    "interior_dyadic_blowup",
    "holder_constant",
    "geometry_identities",
    "divergence_free_mollifier",
    "pressure_solver",
    "trace_dichotomy",
    "schauder_ratio",
]


# bounds that a criterion and a CLI subcommand both check: the largest
# divergence of a mollified flow (criterion 6, mollify-report), the largest
# pde and mean residual of a modified-pressure solve (criterion 7,
# pressure-solve) and the widest spread of a Schauder sweep's ratios
# (criterion 9, schauder-check)
MAX_DIVERGENCE = 1e-12
MAX_PRESSURE_RESIDUAL = 1e-10
MAX_RATIO_SPREAD = 2.0


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    elapsed_seconds: float
    checks: dict
    details: dict


def _finish(number, name, t0, limit, checks, details) -> CriterionResult:
    elapsed = time.perf_counter() - t0
    if limit is not None:
        checks = {**checks, "within_runtime": elapsed < limit}
    return CriterionResult(
        number=number,
        name=name,
        passed=all(checks.values()),
        elapsed_seconds=elapsed,
        checks=checks,
        details=details,
    )


def format_result_line(res: CriterionResult) -> str:
    verdict = "PASS" if res.passed else "FAIL"
    line = f"ACCEPTANCE {res.number} {res.name}: {verdict} ({res.elapsed_seconds:.2f} s)"
    if not res.passed:
        bad = ", ".join(k for k, v in res.checks.items() if not v)
        line += f" failed checks: {bad}"
    return line


def single_mode_flow(grid: ChannelGrid) -> ChannelField:
    """The cellular flow (-sin(pi x) cos(pi y), cos(pi x) sin(pi y)).

    The axes are passed as a column and a row, so the trig factors are
    evaluated on the 1-D axes and broadcast into the grid.
    """
    x, y = grid.x[:, None], grid.y[None, :]
    u = np.empty((2, grid.nx, grid.ny))
    np.multiply(-np.sin(np.pi * x), np.cos(np.pi * y), out=u[0])
    np.multiply(np.cos(np.pi * x), np.sin(np.pi * y), out=u[1])
    return ChannelField._adopt(grid, u)


def single_mode_pressure(grid: ChannelGrid) -> np.ndarray:
    """Exact pressure of :func:`single_mode_flow`, (cos 2 pi x + cos 2 pi y) / 4."""
    x, y = grid.x[:, None], grid.y[None, :]
    return 0.25 * (np.cos(2.0 * np.pi * x) + np.cos(2.0 * np.pi * y))


# ------------------------------------------------------------ criterion 1


def resonant_quotient_identity() -> CriterionResult:
    """Resonant boundary quotient: closed-form identity and lower bound."""
    t0 = time.perf_counter()
    theta = TestFunction.mean_one()
    worst_rel = 0.0
    bound_ok = True
    per_alpha = {}
    for alpha in (0.25, 0.4, 0.5):
        report = dyadic_quotients_boundary(
            WeierstrassParams(alpha=alpha, n_terms=40), theta, 40)
        rr = report.components["quotient_RR"]
        for n, value in zip(report.n_values, rr):
            ref = 2.0 ** (n - 1) * sum(
                2.0 ** (-2.0 * alpha * k) * math.sin(math.pi * 2.0 ** (k - n)) ** 2
                for k in range(n)
            )
            worst_rel = max(worst_rel, abs(value - ref) / abs(ref))
            displayed = (2.0 / (2.0 ** (2.0 * (1.0 - alpha)) - 1.0)) * (
                2.0 ** (n * (1.0 - 2.0 * alpha)) - 2.0 ** (-n))
            if not (value >= displayed and value >= resonant_lower_bound(alpha, n)):
                bound_ok = False
        per_alpha[alpha] = {"first": rr[0], "last": rr[-1]}
    checks = {
        "identity_rel_error_le_1e-12": worst_rel <= 1e-12,
        "lower_bound_holds_exactly": bound_ok,
    }
    details = {"worst_relative_error": worst_rel, "per_alpha": per_alpha}
    return _finish(1, "resonant-quotient-identity", t0, 1.0, checks, details)


# ------------------------------------------------------------ criterion 2


def trace_trichotomy() -> CriterionResult:
    """Diverging, marginal, and mean-zero regimes of the wall quotient."""
    t0 = time.perf_counter()
    theta_one = TestFunction.mean_one()
    blow = dyadic_quotients_boundary(
        WeierstrassParams(alpha=0.25, n_terms=40), theta_one, 30)
    marginal = dyadic_quotients_boundary(
        WeierstrassParams(alpha=0.5, n_terms=40), theta_one, 30)
    rr_tail = [
        q for n, q in zip(marginal.n_values, marginal.components["quotient_RR"])
        if n >= 10
    ]
    theta_zero = TestFunction((0.0, 1.0))
    zero = dyadic_quotients_boundary(
        WeierstrassParams(alpha=0.25, n_terms=40), theta_zero, 30)
    zero_tail = max(
        abs(q) for n, q in zip(zero.n_values, zero.quotients) if n >= 20)
    checks = {
        "alpha_025_diverges": blow.verdict == VERDICT_DIVERGES,
        "alpha_025_exponent_within_005": abs(blow.fitted_growth_exponent - 0.5) <= 0.05,
        "alpha_05_tail_infimum_ge_1998": min(rr_tail) >= 1.998,
        "mean_zero_quotient_le_1e-3": zero_tail <= 1e-3,
    }
    details = {
        "fitted_exponent_alpha_025": blow.fitted_growth_exponent,
        "tail_infimum_alpha_05": min(rr_tail),
        "max_mean_zero_quotient_n_ge_20": zero_tail,
    }
    return _finish(2, "trace-trichotomy", t0, 5.0, checks, details)


# ------------------------------------------------------------ criterion 3


def interior_dyadic_blowup() -> CriterionResult:
    """Interior heights 1/2 and 3/4: resonant tail diverges, the rest stays bounded."""
    t0 = time.perf_counter()
    theta = TestFunction.mean_one()
    p = WeierstrassParams(alpha=0.25, n_terms=40)
    checks = {}
    details = {}
    for label, j, m in (("half", 1, 1), ("three_quarters", 3, 2)):
        report = dyadic_quotients_interior(p, theta, j, m, 30)
        rr = report.components["quotient_RR"]
        exponent = fit_growth_exponent(report.n_values, rr)
        side = [
            max(abs(a), abs(b))
            for n, a, b in zip(report.n_values,
                               report.components["quotient_NR"],
                               report.components["quotient_RNR"])
            if n >= 10
        ]
        checks[f"{label}_exponent_within_005"] = abs(exponent - 0.5) <= 0.05
        checks[f"{label}_diverges"] = report.verdict == VERDICT_DIVERGES
        checks[f"{label}_side_sums_bounded"] = (
            all(math.isfinite(s) for s in side) and max(side) <= 10.0)
        details[label] = {
            "fitted_exponent": exponent,
            "max_side_sum_n_ge_10": max(side),
        }
    return _finish(3, "interior-dyadic-blowup", t0, 5.0, checks, details)


# ------------------------------------------------------------ criterion 4


def holder_constant() -> CriterionResult:
    """Grid seminorm under the closed-form constant; exponent recovery."""
    t0 = time.perf_counter()
    grid = ChannelGrid(nx=512, ny=257)
    u2 = normal_velocity_field(WeierstrassParams(alpha=0.5, n_terms=30), grid)
    est = holder_quotient(u2, 0.5, *c_alpha_norm_scales(grid))
    limit = holder_constant_bound(0.5)
    fitted = {}
    fine = ChannelGrid(nx=2048, ny=2049)
    scales = [2.0 ** (-k) for k in range(7, 11)]
    # one fine field at a time: each is dropped before the next is sampled
    for alpha in (0.3, 0.5):
        fitted[alpha] = float(estimate_holder_exponent(
            normal_velocity_field(WeierstrassParams(alpha=alpha, n_terms=12), fine),
            scales).fitted_exponent)
    checks = {
        "seminorm_le_constant": est.seminorm <= limit,
        "exponent_03_within_005": abs(fitted[0.3] - 0.3) <= 0.05,
        "exponent_05_within_005": abs(fitted[0.5] - 0.5) <= 0.05,
    }
    details = {
        "estimated_seminorm": float(est.seminorm),
        "closed_form_constant": limit,
        "seminorm_limit": limit,
        "fitted_exponents": {str(a): v for a, v in fitted.items()},
    }
    return _finish(4, "holder-constant", t0, 30.0, checks, details)


# ------------------------------------------------------------ criterion 5


GEOMETRY_TOLERANCES = {
    "block": 1e-10,
    "split": 1e-8,
    "radius": 1e-6,
    "gradient": 1e-8,
    "divergence": 1e-8,
}


def _probe_grad(x):
    return np.stack([2.0 * x[..., 0], -2.0 * x[..., 1], np.ones(x.shape[:-1])], axis=-1)


def _identity_residuals(patch, pt: TubularPoint) -> dict:
    """Worst metric/Laplacian/oracle residuals over the point set pt."""
    radius = squared_radius_field(patch)
    grad_probe = cartesian_scalar_field(
        patch, value=lambda x: x[..., 0] ** 2 - x[..., 1] ** 2 + x[..., 2], grad=_probe_grad)
    expand = cartesian_vector_field(patch, lambda x: x)
    swirl = cartesian_vector_field(
        patch, lambda x: np.stack([-x[..., 1], x[..., 0], np.zeros(x.shape[:-1])], axis=-1))
    a_inv = metric(patch, pt).a_inv
    lap = laplacian_curvilinear(radius, patch, pt)
    split = tangential_laplacian(radius, patch, pt) + normal_laplacian_part(radius, patch, pt)
    residuals = {
        "block": [a_inv[..., 2, 2] - 1.0, a_inv[..., 0, 2], a_inv[..., 2, 0],
                  a_inv[..., 1, 2], a_inv[..., 2, 1]],
        "split": lap - split,
        "radius": lap - 6.0,
        "gradient": gradient_curvilinear(grad_probe, patch, pt) - _probe_grad(chart(patch, pt)),
        "divergence": [divergence_curvilinear(expand, patch, pt) - 3.0,
                       divergence_curvilinear(swirl, patch, pt)],
    }
    return {key: float(np.max(np.abs(residuals[key]))) for key in GEOMETRY_TOLERANCES}


def patch_identity_residuals(name: str) -> dict:
    """Worst metric/Laplacian/oracle residuals over 100 tubular points
    of one catalog patch (5 x 5 tangential lattice, 4 depths)."""
    patch = PATCH_BUILDERS[name]()
    (lo1, hi1), (lo2, hi2) = patch.domain
    fractions = np.array([0.15, 0.3, 0.5, 0.7, 0.85])
    depths = np.array([0.0, patch.delta / 3.0, patch.delta / 2.0, 0.9 * patch.delta])
    pt = TubularPoint(*np.meshgrid(lo1 + fractions * (hi1 - lo1), lo2 + fractions * (hi2 - lo2),
                                   depths, indexing="ij"))
    return _identity_residuals(patch, pt)


def geometry_identities() -> CriterionResult:
    """Metric block structure, Laplacian split, and Cartesian oracles
    on the four catalog patches, 100 tubular points each."""
    t0 = time.perf_counter()
    worst = {key: 0.0 for key in GEOMETRY_TOLERANCES}
    for name in ("flat", "paraboloid", "saddle", "sinusoidal"):
        res = patch_identity_residuals(name)
        for key in worst:
            worst[key] = max(worst[key], res[key])
    checks = {
        "metric_block_structure_1e-10": worst["block"] <= GEOMETRY_TOLERANCES["block"],
        "laplacian_split_1e-8": worst["split"] <= GEOMETRY_TOLERANCES["split"],
        "squared_radius_laplacian_1e-6": worst["radius"] <= GEOMETRY_TOLERANCES["radius"],
        "gradient_oracle_1e-8": worst["gradient"] <= GEOMETRY_TOLERANCES["gradient"],
        "divergence_oracle_1e-8": worst["divergence"] <= GEOMETRY_TOLERANCES["divergence"],
    }
    return _finish(5, "geometry-identities", t0, 5.0, checks, dict(worst))


# ------------------------------------------------------------ criterion 6


def divergence_free_mollifier() -> CriterionResult:
    """Mollified Weierstrass flow: exact walls, tiny divergence,
    monotone C^0.25 error, bounded norm ratios."""
    t0 = time.perf_counter()
    grid = ChannelGrid(nx=64, ny=129)
    u = velocity_field(WeierstrassParams(alpha=0.5, n_terms=20), grid)
    report = mollification_report(u, 0.5, (0.1, 0.05, 0.025, 0.0125))
    errs = report.c_beta_errors[0.25]
    ratios = report.norm_ratios
    checks = {
        "divergence_le_1e-12": max(report.max_divergences) <= MAX_DIVERGENCE,
        "walls_exactly_zero": all(r == 0.0 for r in report.wall_residuals),
        "c025_error_strictly_decreasing": all(
            a > b for a, b in zip(errs, errs[1:])),
        "norm_ratio_spread_le_10": max(ratios) / min(ratios) <= 10.0,
    }
    details = {
        "epsilons": list(report.epsilons),
        "max_divergences": list(report.max_divergences),
        "c025_errors": list(errs),
        "norm_ratios": list(ratios),
    }
    return _finish(6, "divergence-free-mollifier", t0, 60.0, checks, details)


# ------------------------------------------------------------ criterion 7


def pressure_solver() -> CriterionResult:
    """Balance-oracle convergence, rounding-level residuals, wall slope
    decay, and norm-ratio boundedness over the lacunary sweep."""
    t0 = time.perf_counter()
    phi = CutoffProfile(delta=0.2)
    errs, wall_slopes = [], []
    max_pde = max_mean = 0.0
    for n in (64, 128, 256):
        grid = ChannelGrid(nx=n, ny=n + 1)
        sol = solve_modified_pressure(single_mode_flow(grid), phi)
        errs.append(float(np.max(np.abs(sol.p.values[0] - single_mode_pressure(grid)))))
        wall_slopes.append(sol.neumann_residual)
        max_pde = max(max_pde, sol.pde_residual)
        max_mean = max(max_mean, sol.mean_constraint_residual)
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    ratios = {}
    for n_terms in (4, 8, 12):
        grid = ChannelGrid(nx=512, ny=513)
        u = velocity_field(WeierstrassParams(alpha=0.3, n_terms=n_terms), grid)
        sol = solve_modified_pressure(u, phi)
        max_pde = max(max_pde, sol.pde_residual)
        max_mean = max(max_mean, sol.mean_constraint_residual)
        ratios[n_terms] = estimate_ratio(sol, u, 0.3)
    spread = max(ratios.values()) / min(ratios.values())
    checks = {
        "single_mode_order_2": all(abs(o - 2.0) <= 0.2 for o in orders),
        "pde_residual_le_1e-10": max_pde <= MAX_PRESSURE_RESIDUAL,
        "mean_residual_le_1e-10": max_mean <= MAX_PRESSURE_RESIDUAL,
        "wall_slope_decays": wall_slopes[2] < wall_slopes[1] < wall_slopes[0]
                             and wall_slopes[2] < 0.5 * wall_slopes[0],
        "ratio_spread_le_5": spread <= 5.0,
    }
    details = {
        "errors": errs,
        "orders": orders,
        "max_pde_residual": max_pde,
        "max_mean_residual": max_mean,
        "wall_slopes": wall_slopes,
        "ratios": {str(k): v for k, v in ratios.items()},
        "ratio_spread": spread,
    }
    return _finish(7, "pressure-solver", t0, 120.0, checks, details)


# ------------------------------------------------------------ criterion 8


def trace_dichotomy() -> CriterionResult:
    """Raw-pressure wall traces grow; the modified pressure's vanish."""
    t0 = time.perf_counter()
    grid = ChannelGrid(nx=512, ny=4097)
    u = velocity_field(WeierstrassParams(alpha=0.25, n_terms=7), grid)
    sol = solve_modified_pressure(u, CutoffProfile(delta=0.2))
    theta = TestFunction.mean_one()
    ns = list(range(3, 9))
    traces = [weak_normal_trace(sol.p, theta, 2.0 ** (-n)) for n in ns]
    slope = float(np.polyfit(ns, np.log2(np.abs(traces)), 1)[0])
    wall = max(abs(weak_normal_trace(sol.P, theta, 0.0)),
               abs(weak_normal_trace(sol.P, theta, 1.0)))
    checks = {
        "raw_trace_exponent_ge_04": slope >= 0.4,
        "modified_wall_trace_le_1e-2": wall <= 1e-2,
    }
    details = {
        "raw_traces": traces,
        "fitted_exponent": slope,
        "modified_wall_trace": wall,
    }
    return _finish(8, "trace-dichotomy", t0, 60.0, checks, details)


# ------------------------------------------------------------ criterion 9


def schauder_ratio() -> CriterionResult:
    """Dirichlet double-divergence solve: bounded ratios, oracle order."""
    t0 = time.perf_counter()
    spreads = {}
    ok = True
    for seed in range(5):
        F11, F12, F22 = random_symmetric_trig_field(seed)
        sweep = dirichlet_schauder_check(F11, F12, F22, 0.5, (64, 128, 256, 512))
        spreads[seed] = sweep.spread
        ok = ok and sweep.spread <= MAX_RATIO_SPREAD
    F11 = TrigPoly2D(terms=((1.0, 2, 1, "cs"),))
    zero = TrigPoly2D(terms=())
    errs = []
    for n in (64, 128, 256):
        grid = ChannelGrid(nx=n, ny=n // 2 + 1)
        v = solve_schauder_problem(F11, zero, zero, grid)
        x, y = grid.x[:, None], grid.y[None, :]
        exact = 0.8 * np.cos(2.0 * np.pi * x) * np.sin(np.pi * y)
        errs.append(float(np.max(np.abs(v.values[0] - exact))))
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    checks = {
        "random_ratio_spread_le_2": ok,
        "single_mode_order_2": all(abs(o - 2.0) <= 0.2 for o in orders),
    }
    details = {
        "ratio_spreads": {str(k): v for k, v in spreads.items()},
        "single_mode_errors": errs,
        "orders": orders,
    }
    return _finish(9, "schauder-ratio", t0, None, checks, details)


ALL_CRITERIA = (
    resonant_quotient_identity,
    trace_trichotomy,
    interior_dyadic_blowup,
    holder_constant,
    geometry_identities,
    divergence_free_mollifier,
    pressure_solver,
    trace_dichotomy,
    schauder_ratio,
)


def run_all() -> list:
    """Run all nine criteria in order and return their results."""
    return [fn() for fn in ALL_CRITERIA]
