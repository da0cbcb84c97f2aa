import json
import math

import numpy as np
import pytest

from holderlab import acceptance
from holderlab.fields import ChannelField, ChannelGrid
from holderlab.pressure import (
    CutoffProfile,
    TrigPoly2D,
    dirichlet_schauder_check,
    estimate_ratio,
    random_symmetric_trig_field,
    recover_raw_pressure,
    solve_modified_pressure,
    solve_schauder_problem,
    weak_normal_trace,
    write_pressure_diagnostics_json,
)
from holderlab.tracelab import TestFunction
from holderlab.weierstrass import WeierstrassParams, velocity_field

PHI = CutoffProfile(delta=0.2)
THETA = TestFunction.mean_one()


def single_mode_flow(grid):
    return ChannelField.from_function(
        grid,
        lambda X, Y: (-np.sin(np.pi * X) * np.cos(np.pi * Y),
                      np.cos(np.pi * X) * np.sin(np.pi * Y)),
    )


def single_mode_pressure(grid):
    X, Y = grid.meshgrid()
    return 0.25 * (np.cos(2.0 * np.pi * X) + np.cos(2.0 * np.pi * Y))


def test_single_mode_samplers_match_meshgrid_forms_bitwise():
    """The broadcast samplers of the gate equal the meshgrid forms above."""
    for nx, ny in ((8, 3), (64, 65), (128, 33)):
        grid = ChannelGrid(nx=nx, ny=ny)
        assert np.array_equal(acceptance.single_mode_flow(grid).values,
                              single_mode_flow(grid).values)
        assert np.array_equal(acceptance.single_mode_pressure(grid),
                              single_mode_pressure(grid))


# ---------------------------------------------------------------- cutoff


def test_cutoff_plateau_and_tail_are_exact():
    phi = CutoffProfile(delta=0.2)
    for d in (0.0, 0.1, 0.2):
        assert phi.value(d) == 1.0
        assert phi.deriv(d) == 0.0
        assert phi.second_deriv(d) == 0.0
    for d in (0.4, 0.45, 0.5):
        assert phi.value(d) == 0.0
        assert phi.deriv(d) == 0.0
        assert phi.second_deriv(d) == 0.0


def test_cutoff_derivatives_match_finite_differences():
    """Analytic bridge derivatives agree with central differences."""
    phi = CutoffProfile(delta=0.2)
    h = 1e-6
    for d in np.linspace(0.201, 0.399, 17):
        fd1 = (phi.value(d + h) - phi.value(d - h)) / (2.0 * h)
        assert abs(fd1 - phi.deriv(d)) < 1e-6
        fd2 = (phi.deriv(d + h) - phi.deriv(d - h)) / (2.0 * h)
        assert abs(fd2 - phi.second_deriv(d)) < 1e-5


def test_cutoff_range_and_monotonicity():
    phi = CutoffProfile(delta=0.15)
    d = np.linspace(0.0, 0.5, 400)
    v = np.array([phi.value(float(x)) for x in d])
    assert np.all(v >= 0.0) and np.all(v <= 1.0)
    assert np.all(np.diff(v) <= 1e-15)


def test_cutoff_delta_validation():
    for bad in (0.0, -0.1, 0.25, 0.4):
        with pytest.raises(ValueError, match="delta"):
            CutoffProfile(delta=bad)


def test_cutoff_on_grid_is_wall_symmetric():
    grid = ChannelGrid(nx=8, ny=65)
    vals = CutoffProfile(delta=0.2).on_grid(grid)
    assert vals.shape == (65,)
    assert np.array_equal(vals, vals[::-1])
    assert vals[0] == 1.0 and vals[32] == 0.0


# ---------------------------------------------------------------- solver


def test_constant_flow_gives_zero_pressure():
    grid = ChannelGrid(nx=64, ny=65)
    u = ChannelField.from_function(
        grid, lambda X, Y: (np.ones_like(X), np.zeros_like(X)))
    sol = solve_modified_pressure(u, PHI)
    assert np.max(np.abs(sol.P.values)) == 0.0
    assert np.max(np.abs(sol.p.values)) == 0.0
    assert sol.pde_residual == 0.0
    assert sol.mean_constraint_residual == 0.0
    assert sol.neumann_residual == 0.0
    assert estimate_ratio(sol, u, 0.5) == 0.0


def test_single_mode_matches_balance_oracle():
    """Recovered raw pressure converges to (1/4)(cos 2 pi x + cos 2 pi y)
    at second order; the mean constraint fixes the free constant to 0."""
    errs = {}
    for n in (64, 128, 256):
        grid = ChannelGrid(nx=n, ny=n + 1)
        sol = solve_modified_pressure(single_mode_flow(grid), PHI)
        errs[n] = float(np.max(np.abs(sol.p.values[0] - single_mode_pressure(grid))))
    assert errs[64] < 3.5e-4
    for n in (64, 128):
        order = math.log2(errs[n] / errs[2 * n])
        assert 1.9 < order < 2.1


def test_single_mode_residuals_at_rounding_level():
    grid = ChannelGrid(nx=128, ny=129)
    sol = solve_modified_pressure(single_mode_flow(grid), PHI)
    assert sol.pde_residual < 1e-12
    assert sol.mean_constraint_residual < 1e-14
    assert sol.compatibility_defect < 1e-15


def test_single_mode_wall_slope_decays_linearly():
    res = []
    for n in (64, 128, 256):
        grid = ChannelGrid(nx=n, ny=n + 1)
        sol = solve_modified_pressure(single_mode_flow(grid), PHI)
        res.append(sol.neumann_residual)
    assert res[2] < 0.02
    for a, b in zip(res, res[1:]):
        assert 1.8 < a / b < 2.2


def test_quadratic_scaling_is_exact():
    """Doubling the velocity exactly quadruples the pressure: every
    floating-point operation in the pipeline commutes with powers of 2."""
    grid = ChannelGrid(nx=64, ny=65)
    u = single_mode_flow(grid)
    doubled = ChannelField(grid, 2.0 * u.values)
    solA = solve_modified_pressure(u, PHI)
    solB = solve_modified_pressure(doubled, PHI)
    assert np.max(np.abs(solB.P.values - 4.0 * solA.P.values)) == 0.0


def test_recover_raw_pressure_consistency():
    grid = ChannelGrid(nx=64, ny=65)
    u = velocity_field(WeierstrassParams(alpha=0.5, n_terms=4), grid)
    sol = solve_modified_pressure(u, PHI)
    again = recover_raw_pressure(sol, u, PHI)
    assert np.array_equal(again.values, sol.p.values)
    # u2 vanishes at the walls, so p and P agree there
    walls = np.abs(sol.p.values[0][:, [0, -1]] - sol.P.values[0][:, [0, -1]])
    assert np.max(walls) < 1e-20
    other = ChannelGrid(nx=32, ny=65)
    u_other = velocity_field(WeierstrassParams(alpha=0.5, n_terms=4), other)
    with pytest.raises(ValueError, match="grid"):
        recover_raw_pressure(sol, u_other, PHI)


def test_non_tangential_velocity_rejected():
    grid = ChannelGrid(nx=32, ny=33)
    u = ChannelField.from_function(
        grid, lambda X, Y: (np.zeros_like(X), 0.1 * np.ones_like(X)))
    with pytest.raises(ValueError, match="tangential"):
        solve_modified_pressure(u, PHI)


def test_mean_of_modified_pressure_tracks_cutoff_mean():
    grid = ChannelGrid(nx=64, ny=65)
    u = velocity_field(WeierstrassParams(alpha=0.5, n_terms=4), grid)
    sol = solve_modified_pressure(u, PHI)
    z = np.ones(grid.ny)
    z[0] = z[-1] = 0.5
    G = u.values[1] ** 2 * PHI.on_grid(grid)[None, :]
    mean_P = float(np.mean(sol.P.values[0], axis=0) @ z / z.sum())
    mean_G = float(np.mean(G, axis=0) @ z / z.sum())
    assert abs(mean_P - mean_G) < 1e-12
    assert sol.mean_constraint_residual < 1e-12


def test_weierstrass_wall_slope_decays_under_refinement():
    res = []
    for n in (64, 128, 256, 512):
        grid = ChannelGrid(nx=n, ny=n + 1)
        u = velocity_field(WeierstrassParams(alpha=0.5, n_terms=4), grid)
        sol = solve_modified_pressure(u, PHI)
        assert sol.pde_residual < 1e-10
        res.append(sol.neumann_residual)
    for a, b in zip(res, res[1:]):
        assert a / b > 1.4
    assert res[-1] < 0.3 * res[0]


def test_pde_residual_invariant_on_weierstrass_sweep():
    grid = ChannelGrid(nx=256, ny=257)
    for n_terms in (4, 8):
        u = velocity_field(WeierstrassParams(alpha=0.3, n_terms=n_terms), grid)
        sol = solve_modified_pressure(u, PHI)
        assert sol.pde_residual < 1e-10
        assert sol.compatibility_defect < 1e-6
        assert estimate_ratio(sol, u, 0.3) > 0.0


# ---------------------------------------------------------------- ratio


def test_ratio_is_stable_for_single_mode_flow():
    ratios = []
    for n in (64, 128, 256, 512):
        grid = ChannelGrid(nx=n, ny=n // 2 + 1)
        u = single_mode_flow(grid)
        ratios.append(estimate_ratio(solve_modified_pressure(u, PHI), u, 0.5))
    assert all(0.9 < r < 1.2 for r in ratios)
    assert max(ratios) / min(ratios) < 1.05


def test_ratio_rejects_vanishing_velocity():
    grid = ChannelGrid(nx=32, ny=33)
    u = ChannelField.from_function(
        grid, lambda X, Y: (np.zeros_like(X), np.zeros_like(X)))
    sol = solve_modified_pressure(u, PHI)
    with pytest.raises(ValueError, match="undefined"):
        estimate_ratio(sol, u, 0.5)


# ---------------------------------------------------------------- trace


def test_trace_of_linear_field_is_slope_times_theta_mean():
    grid = ChannelGrid(nx=64, ny=65)
    f = ChannelField.from_function(grid, lambda X, Y: 3.0 * Y + 1.0)
    theta = TestFunction((0.5, 0.25))
    for y in (0.0, 0.25, 0.5, 1.0):
        assert abs(weak_normal_trace(f, theta, y) - 3.0) < 1e-12


def test_trace_input_validation():
    grid = ChannelGrid(nx=32, ny=33)
    f = ChannelField.from_function(grid, lambda X, Y: Y)
    for y in (-0.1, 1.5):
        with pytest.raises(ValueError):
            weak_normal_trace(f, THETA, y)
    with pytest.raises(ValueError):
        weak_normal_trace(f, THETA, 0.13)  # not a grid line
    vec = ChannelField.from_function(grid, lambda X, Y: (X, Y))
    with pytest.raises(ValueError, match="scalar"):
        weak_normal_trace(vec, THETA, 0.0)


def test_single_mode_wall_trace_of_modified_pressure_vanishes():
    grid = ChannelGrid(nx=128, ny=65)
    sol = solve_modified_pressure(single_mode_flow(grid), PHI)
    assert abs(weak_normal_trace(sol.P, THETA, 0.0)) < 1e-12
    assert abs(weak_normal_trace(sol.P, THETA, 1.0)) < 1e-12


def test_trace_dichotomy_raw_versus_modified():
    """Raw-pressure traces along y = 2^-n grow; the modified pressure's
    wall trace sits at rounding level."""
    grid = ChannelGrid(nx=256, ny=1025)
    u = velocity_field(WeierstrassParams(alpha=0.25, n_terms=5), grid)
    sol = solve_modified_pressure(u, PHI)
    ns = range(3, 8)
    traces = [weak_normal_trace(sol.p, THETA, 2.0 ** (-n)) for n in ns]
    mags = np.abs(traces)
    assert np.all(np.diff(mags) > 0.0)
    slope = np.polyfit(list(ns), np.log2(mags), 1)[0]
    assert 0.4 <= slope <= 0.75
    assert abs(weak_normal_trace(sol.P, THETA, 0.0)) < 1e-6


# ---------------------------------------------------------------- schauder


def test_schauder_single_mode_oracle():
    """F11 = cos(2 pi x) sin(pi y) gives v = (4/5) cos(2 pi x) sin(pi y)."""
    F11 = TrigPoly2D(terms=((1.0, 2, 1, "cs"),))
    zero = TrigPoly2D(terms=())
    errs = {}
    for n in (64, 128, 256):
        grid = ChannelGrid(nx=n, ny=n // 2 + 1)
        v = solve_schauder_problem(F11, zero, zero, grid)
        X, Y = grid.meshgrid()
        exact = 0.8 * np.cos(2.0 * np.pi * X) * np.sin(np.pi * Y)
        errs[n] = float(np.max(np.abs(v.values[0] - exact)))
    assert errs[64] < 1.5e-4
    for n in (64, 128):
        order = math.log2(errs[n] / errs[2 * n])
        assert 1.9 < order < 2.1


def test_schauder_random_sweeps_are_bounded():
    for seed in range(5):
        F11, F12, F22 = random_symmetric_trig_field(seed)
        sweep = dirichlet_schauder_check(F11, F12, F22, 0.5, (64, 128, 256))
        assert not sweep.zero_data
        assert min(sweep.ratios) > 0.0
        assert max(sweep.ratios) / min(sweep.ratios) < 1.5


def test_schauder_zero_data_flagged():
    zero = TrigPoly2D(terms=())
    sweep = dirichlet_schauder_check(zero, zero, zero, 0.5, (64, 128))
    assert sweep.ratios == (0.0, 0.0)
    assert sweep.zero_data


def test_trig_poly_validation_and_sampling():
    with pytest.raises(ValueError, match="basis"):
        TrigPoly2D(terms=((1.0, 1, 1, "xy"),))
    with pytest.raises(ValueError, match="nonnegative"):
        TrigPoly2D(terms=((1.0, -1, 1, "cc"),))
    with pytest.raises(ValueError, match="integer"):
        TrigPoly2D(terms=((1.0, 1.5, 1, "cc"),))
    poly = TrigPoly2D(terms=((0.7, 2, 3, "sc"), (-0.2, 0, 1, "cs")))
    grid = ChannelGrid(nx=16, ny=9)
    X, Y = grid.meshgrid()
    assert np.allclose(poly.sample(grid), poly.evaluate(X, Y), atol=1e-15)


def test_random_field_is_reproducible():
    a = random_symmetric_trig_field(7)
    b = random_symmetric_trig_field(7)
    c = random_symmetric_trig_field(8)
    assert [p.terms for p in a] == [p.terms for p in b]
    assert [p.terms for p in a] != [p.terms for p in c]


def test_diagnostics_json_schema(tmp_path):
    grid = ChannelGrid(nx=32, ny=33)
    u = single_mode_flow(grid)
    sol = solve_modified_pressure(u, PHI)
    out = tmp_path / "diag.json"
    write_pressure_diagnostics_json(sol, estimate_ratio(sol, u, 0.5), out)
    payload = json.loads(out.read_text())
    assert set(payload) == {
        "pde_residual", "neumann_residual", "mean_residual", "ratio", "defect",
    }
    assert payload["mean_residual"] < 1e-12
