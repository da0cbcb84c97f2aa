import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holderlab import acceptance, cli, fields, pressure
from holderlab.fields import ChannelField, ChannelGrid
from holderlab.pressure import (
    CutoffProfile,
    TrigPoly2D,
    dirichlet_schauder_check,
    estimate_ratio,
    random_symmetric_trig_field,
    solve_modified_pressure,
    solve_schauder_problem,
    weak_normal_trace,
)
from holderlab.spectral import solve_poisson, spectral_dx, spectral_dxx
from holderlab.tracelab import TestFunction
from holderlab.weierstrass import WeierstrassParams, velocity_field

from conftest import (
    block_partition,
    dy_odd_by_expression,
    dyy_even_by_expression,
    modified_pressure_by_expression,
    schauder_ratios_by_public_calls,
    trig_poly_by_meshgrid,
)

PHI = CutoffProfile(delta=0.2)
THETA = TestFunction.mean_one()


def single_mode_flow(grid):
    X, Y = grid.meshgrid()
    return ChannelField(grid, np.stack([-np.sin(np.pi * X) * np.cos(np.pi * Y),
                                        np.cos(np.pi * X) * np.sin(np.pi * Y)]))


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
    for d in (0.4, 0.45, 0.5):
        assert phi.value(d) == 0.0


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
    # p = P - phi u2^2, exactly
    raw = sol.P.values[0] - u.values[1] ** 2 * PHI.on_grid(grid)[None, :]
    assert np.array_equal(raw, sol.p.values[0])
    # u2 vanishes at the walls, so p and P agree there
    walls = np.abs(sol.p.values[0][:, [0, -1]] - sol.P.values[0][:, [0, -1]])
    assert np.max(walls) < 1e-20


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
    assert sweep.spread == math.inf


def test_a_zero_ratio_fails_criterion_9_and_schauder_check(monkeypatch, tmp_path):
    # F11 = sin(pi y) has no x-dependence, so d_i d_j F_ij = 0 and v = 0
    # although the data do not vanish: every ratio is 0, and the spread is
    # infinite rather than a division by zero
    zero = TrigPoly2D(terms=())
    sweep = dirichlet_schauder_check(TrigPoly2D(((1.0, 0, 1, "cs"),)), zero, zero, 0.5,
                                     (64, 128))
    assert sweep.ratios == (0.0, 0.0)
    assert not sweep.zero_data
    assert sweep.spread == math.inf
    monkeypatch.setattr(acceptance, "dirichlet_schauder_check", lambda *args: sweep)
    res = acceptance.schauder_ratio()
    assert not res.checks["random_ratio_spread_le_2"]
    assert not res.passed
    monkeypatch.setattr(cli, "dirichlet_schauder_check", lambda *args: sweep)
    assert cli.main(["schauder-check", "--seeds", "0", "--out", str(tmp_path)]) == 1


_TERMS = st.tuples(st.floats(-2.0, 2.0), st.integers(0, 6), st.integers(0, 6),
                   st.sampled_from(["cc", "cs", "sc", "ss"]))


@settings(max_examples=60, deadline=None)
@given(
    log2_nx=st.integers(2, 7),
    ny=st.integers(3, 65),
    polys=st.lists(st.lists(_TERMS, max_size=6), min_size=1, max_size=4),
    data=st.data(),
)
def test_stacked_sampler_matches_the_per_term_loop_bitwise(log2_nx, ny, polys, data):
    # blocks from one x-row to the whole grid, in one to three pieces; an
    # empty polynomial samples to zeros
    grid = ChannelGrid(2**log2_nx, ny)
    polys = [TrigPoly2D(terms=tuple(t)) for t in polys] + [TrigPoly2D(terms=())]
    block_bytes = data.draw(st.one_of(st.sampled_from([8, 1 << 30]),
                                      st.integers(8, 8 * grid.nx * ny)))
    with block_partition(block_bytes, data.draw(st.integers(1, 3))):
        stack = pressure._sample_stack(polys, grid)
        one = polys[0].sample(grid)
    assert stack.shape == (len(polys), grid.nx, ny)
    for got, poly in zip(stack, polys):
        assert got.tobytes() == trig_poly_by_meshgrid(poly, grid).tobytes()
    assert one.tobytes() == stack[0].tobytes()
    assert not stack[-1].any()


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    alpha=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    zero=st.sampled_from([None, 0, 1, 2]),
    resolutions=st.lists(st.sampled_from([32, 64, 128]), min_size=1, max_size=3),
)
def test_sweep_matches_a_reference_from_public_calls_bitwise(seed, alpha, zero, resolutions):
    # the stacked sample, the one scan and the shared solve body against
    # the public solve and one sample and norm per datum
    data = list(random_symmetric_trig_field(seed))
    if zero is not None:
        data[zero] = TrigPoly2D(terms=())
    sweep = dirichlet_schauder_check(*data, alpha, resolutions)
    assert list(sweep.ratios) == schauder_ratios_by_public_calls(*data, alpha, resolutions)
    assert sweep.resolutions == tuple(resolutions)


def test_sweep_samples_once_and_scans_twice_per_resolution(monkeypatch):
    samples, scans = [], []
    sample_stack, shift_maxima = pressure._sample_stack, fields._shift_maxima

    def counting_sample(polys, grid):
        samples.append(len(polys))
        return sample_stack(polys, grid)

    def counting_scan(vals, shifts):
        scans.append(vals.shape)
        return shift_maxima(vals, shifts)

    monkeypatch.setattr(pressure, "_sample_stack", counting_sample)
    monkeypatch.setattr(fields, "_shift_maxima", counting_scan)
    F11, F12, F22 = random_symmetric_trig_field(3)
    dirichlet_schauder_check(F11, F12, F22, 0.5, (32, 64, 128))
    assert samples == [3, 3, 3]
    assert scans == [(k, n, n // 2 + 1) for n in (32, 64, 128) for k in (3, 1)]

    grid = ChannelGrid(64, 65)
    u = single_mode_flow(grid)
    sol = solve_modified_pressure(u, PHI)
    scans.clear()
    estimate_ratio(sol, u, 0.5)
    assert scans == [(3, 64, 65), (1, 64, 65)]


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.one_of(st.floats(max_value=0.0, exclude_max=True),
                    st.floats(min_value=1.0, exclude_min=True), st.just(math.nan),
                    st.sampled_from([0.0, 1.0])),
    good=st.lists(st.sampled_from([32, 64]), max_size=3),
    coarse=st.sampled_from([None, 4, 8, 16]),
    data=st.data(),
)
def test_sweep_rejects_bad_input_before_any_work(alpha, good, coarse, data):
    # each bad input raises before the first sample or solve: an empty
    # resolution list, an alpha outside [0, 1] or NaN, and a resolution
    # below 32 anywhere in the list; 0, 1 and 32 themselves are admitted
    resolutions = list(good)
    if coarse is not None:
        resolutions.insert(data.draw(st.integers(0, len(good))), coarse)
    if not resolutions:
        message = "at least one resolution"
    elif not 0.0 <= alpha <= 1.0:
        message = "alpha must lie in"
    elif coarse is not None:
        message = f"resolution {coarse} is too coarse"
    else:
        message = None
    ran = []

    class Sampled(Exception):
        pass

    def first_sample(*args):
        ran.append("sample")
        raise Sampled

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pressure, "_sample_stack", first_sample)
        mp.setattr(pressure, "solve_poisson", lambda *args: ran.append("solve"))
        with pytest.raises(Sampled if message is None else ValueError, match=message):
            dirichlet_schauder_check(*random_symmetric_trig_field(1), alpha, resolutions)
    assert ran == (["sample"] if message is None else [])


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
    assert poly.sample(grid).tobytes() == poly.evaluate(X, Y).tobytes()


def test_random_field_is_reproducible():
    a = random_symmetric_trig_field(7)
    b = random_symmetric_trig_field(7)
    c = random_symmetric_trig_field(8)
    assert [p.terms for p in a] == [p.terms for p in b]
    assert [p.terms for p in a] != [p.terms for p in c]


def test_diagnostics_json_schema(tmp_path):
    assert cli.main(["pressure-solve", "--flow", "single-mode", "--grids", "32",
                     "--delta", "0.2", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "pressure_solve.json").read_text())
    assert set(payload) == {
        "pde_residual", "neumann_residual", "mean_residual", "ratio", "defect",
    }
    assert payload["mean_residual"] < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    log2_nx=st.integers(2, 6),
    ny=st.integers(3, 129),
    delta=st.floats(0.01, 0.24),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_in_place_solve_matches_the_expression_oracle_bitwise(log2_nx, ny, delta, seed):
    # a random tangential field: u2 vanishes on both walls, nothing else
    # is smooth or symmetric
    grid = ChannelGrid(2**log2_nx, ny)
    vals = np.random.default_rng(seed).standard_normal((2, grid.nx, ny))
    vals[1, :, 0] = vals[1, :, -1] = 0.0
    u = ChannelField(grid, vals)
    phi = CutoffProfile(delta=delta)
    sol = solve_modified_pressure(u, phi)
    want = modified_pressure_by_expression(u, phi)
    assert sol.P.values[0].tobytes() == want["P"].tobytes()
    assert sol.p.values[0].tobytes() == want["p"].tobytes()
    for name in ("mean_constraint_residual", "neumann_residual", "pde_residual",
                 "compatibility_defect"):
        assert getattr(sol, name) == want[name], name


@settings(max_examples=80, deadline=None)
@given(
    log2_nx=st.integers(2, 6),
    ny=st.integers(3, 40),
    delta=st.floats(0.01, 0.24),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_block_passes_match_the_expression_oracle_bitwise(log2_nx, ny, delta, seed, data):
    # blocks from one column (each wall alone in its block, a halo at every
    # block edge) to the whole grid, in one to three pieces (ny = 3 in
    # three pieces puts a piece edge at every column)
    grid = ChannelGrid(2**log2_nx, ny)
    vals = np.random.default_rng(seed).standard_normal((2, grid.nx, ny))
    vals[1, :, 0] = vals[1, :, -1] = 0.0
    u = ChannelField(grid, vals)
    phi = CutoffProfile(delta=delta)
    want = modified_pressure_by_expression(u, phi)
    block_bytes = data.draw(st.one_of(st.sampled_from([8, 1 << 30]),
                                      st.integers(8, 64 * 56 * grid.nx)))
    with block_partition(block_bytes, data.draw(st.integers(1, 3))):
        sol = solve_modified_pressure(u, phi)
    assert sol.P.values[0].tobytes() == want["P"].tobytes()
    assert sol.p.values[0].tobytes() == want["p"].tobytes()
    for name in ("mean_constraint_residual", "neumann_residual", "pde_residual",
                 "compatibility_defect"):
        assert getattr(sol, name) == want[name], name


@settings(max_examples=40, deadline=None)
@given(
    log2_nx=st.integers(2, 7),
    ny=st.integers(3, 65),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_schauder_solve_matches_the_expression_oracle_bitwise(log2_nx, ny, seed, data):
    # the solve under blocks from one x-line or x-mode row to the whole
    # grid, in one to three pieces; the oracle on the whole array
    grid = ChannelGrid(2**log2_nx, ny)
    F11, F12, F22 = random_symmetric_trig_field(seed)
    f11, f12, f22 = (F.sample(grid) for F in (F11, F12, F22))
    rhs = (
        spectral_dxx(f11, grid)
        + 2.0 * spectral_dx(dy_odd_by_expression(f12, grid.hy), grid)
        + dyy_even_by_expression(f22, grid.hy)
    )
    want = solve_poisson(-rhs, grid, "dirichlet")
    block_bytes = data.draw(st.one_of(st.sampled_from([8, 1 << 30]),
                                      st.integers(8, 16 * grid.nx * ny)))
    with block_partition(block_bytes, data.draw(st.integers(1, 3))):
        got = solve_schauder_problem(F11, F12, F22, grid)
    assert got.values[0].tobytes() == want.tobytes()
