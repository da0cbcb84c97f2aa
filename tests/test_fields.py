"""Grid, field container, CSV round-trip, and Hölder scan tests."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holderlab.fields import (
    ChannelField,
    ChannelGrid,
    c_alpha_norm,
    c_alpha_norm_scales,
    check_tangential,
    estimate_holder_exponent,
    holder_quotient,
    make_uniform_grid,
    modulus_of_continuity,
    read_field_csv,
    write_field_csv,
)

from conftest import brute_force_modulus, brute_force_seminorm


def _linear_in_y(nx=256, ny=129):
    # hx = hy = 1/128 so the resolution guard admits fine separations
    grid = make_uniform_grid(nx, ny)
    return ChannelField.from_function(grid, lambda X, Y: Y)


def test_grid_validation():
    with pytest.raises(ValueError):
        make_uniform_grid(12, 17)  # nx not a power of two
    with pytest.raises(ValueError):
        make_uniform_grid(2, 17)  # nx too small
    with pytest.raises(ValueError):
        make_uniform_grid(16, 2)  # ny too small
    with pytest.raises(ValueError):
        ChannelGrid(nx=16, ny=5, x_period=-1.0)


def test_grid_geometry():
    g = make_uniform_grid(8, 5, x_period=2.0, y_extent=1.0)
    assert g.hx == 0.25
    assert g.hy == 0.25
    assert g.y[0] == 0.0 and g.y[-1] == 1.0
    assert g.x[0] == 0.0 and g.x[-1] == 2.0 - g.hx
    assert g.wall_row_index(0.0) == 0
    assert g.wall_row_index(1.0) == 4
    with pytest.raises(ValueError):
        g.wall_row_index(0.3)


def test_field_shape_checks_and_immutability():
    g = make_uniform_grid(8, 5)
    with pytest.raises(ValueError):
        ChannelField(g, np.zeros((3, 8, 5)))
    with pytest.raises(ValueError):
        ChannelField(g, np.zeros((8, 4)))
    f = ChannelField(g, np.zeros((8, 5)))
    assert f.components == 1
    with pytest.raises(ValueError):
        f.values[0, 0, 0] = 1.0


def test_csv_round_trip(tmp_path):
    g = make_uniform_grid(8, 5)
    rng = np.random.default_rng(7)
    f = ChannelField(g, rng.standard_normal((2, 8, 5)))
    path = tmp_path / "field.csv"
    write_field_csv(f, path)
    back = read_field_csv(path)
    # 17 significant digits round-trip doubles exactly
    np.testing.assert_array_equal(back.values, f.values)
    assert back.grid.nx == g.nx and back.grid.ny == g.ny
    assert abs(back.grid.x_period - g.x_period) < 1e-15


def test_modulus_linear_field_exact():
    f = _linear_in_y()
    assert modulus_of_continuity(f, 0.25) == 0.25
    assert modulus_of_continuity(f, 0.5) == 0.5


def test_modulus_monotone_and_resolution_guard():
    g = make_uniform_grid(16, 17)
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(3)
    f = ChannelField.from_function(
        g,
        lambda X, Y: coeffs[0] * np.sin(np.pi * X) * Y
        + coeffs[1] * np.cos(2 * np.pi * X)
        + coeffs[2] * Y**2,
    )
    prev = 0.0
    for h in [0.125, 0.25, 0.5, 0.75]:
        w = modulus_of_continuity(f, h)
        assert w >= prev
        prev = w
    with pytest.raises(ValueError):
        modulus_of_continuity(f, 0.01)
    with pytest.raises(ValueError):
        modulus_of_continuity(ChannelField(g, np.zeros((2, 16, 17))), 0.25)


def test_modulus_matches_bruteforce_on_axes_and_diagonals():
    # On a field varying only along y the two scans agree exactly: the
    # extra off-axis pairs of the brute-force oracle never win there.
    f = _linear_in_y(nx=16, ny=17)
    for h in [0.125, 0.3, 0.6]:
        assert modulus_of_continuity(f, h) == brute_force_modulus(f, h)


@settings(deadline=None, max_examples=60)
@given(
    log2_nx=st.integers(min_value=2, max_value=5),
    ny=st.integers(min_value=3, max_value=9),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    h_steps=st.integers(min_value=1, max_value=16),
)
def test_modulus_matches_bruteforce_on_fields_varying_in_x(log2_nx, ny, seed, h_steps):
    # A random profile in x, constant in y: the largest increment sits on
    # an x-axis pair, so the two scans agree exactly, and pairs that wrap
    # across the periodic x boundary take part in the maximum.
    g = make_uniform_grid(2**log2_nx, ny)
    profile = np.random.default_rng(seed).standard_normal(g.nx)
    f = ChannelField(g, np.repeat(profile[:, None], ny, axis=1))
    h = h_steps * max(g.hx, g.hy)
    assert modulus_of_continuity(f, h) == brute_force_modulus(f, h)


def test_holder_quotient_linear_is_lipschitz():
    f = _linear_in_y()
    est = holder_quotient(f, alpha=1.0, h_min=1.0 / 128, h_max=0.25)
    assert abs(est.seminorm - 1.0) < 1e-12
    assert abs(est.fitted_exponent - 1.0) < 1e-6
    assert est.fit_r2 > 0.999999


def test_holder_quotient_constant_field():
    g = make_uniform_grid(16, 9)
    f = ChannelField(g, np.full((16, 9), 3.7))
    est = holder_quotient(f, alpha=0.5, h_min=0.125, h_max=0.5)
    assert est.seminorm == 0.0
    assert math.isnan(est.fitted_exponent)


def test_holder_quotient_seminorm_below_bruteforce():
    g = make_uniform_grid(16, 17)
    rng = np.random.default_rng(11)
    f = ChannelField(g, rng.standard_normal((16, 17)))
    est = holder_quotient(f, alpha=0.5, h_min=0.125, h_max=0.5)
    # the dyadic scan samples a subset of pairs, so it cannot exceed the
    # exhaustive quotient over the same separation window
    assert est.seminorm <= brute_force_seminorm(f, 0.5, 0.125, 0.5) * (1 + 1e-12)
    assert est.seminorm > 0.0


def test_holder_quotient_empty_pair_set():
    g = make_uniform_grid(8, 5)  # hx = hy = 0.25
    f = ChannelField(g, np.zeros((8, 5)))
    with pytest.raises(ValueError, match="empty pair set"):
        holder_quotient(f, alpha=0.5, h_min=0.35, h_max=0.35)


def test_estimate_holder_exponent_linear():
    f = _linear_in_y(nx=512, ny=257)
    est = estimate_holder_exponent(f, [2.0**-k for k in range(2, 6)])
    assert abs(est.fitted_exponent - 1.0) < 1e-9
    assert est.fit_r2 > 0.999999


def test_estimate_holder_exponent_errors():
    f = _linear_in_y()
    with pytest.raises(ValueError, match="at least four"):
        estimate_holder_exponent(f, [0.5, 0.25, 0.125])
    with pytest.raises(ValueError, match="dyadic"):
        estimate_holder_exponent(f, [0.5, 0.25, 0.2, 0.1])
    with pytest.raises(ValueError, match="integer multiple"):
        estimate_holder_exponent(f, [0.6, 0.3, 0.15, 0.075])
    g = make_uniform_grid(16, 9)
    const = ChannelField(g, np.ones((16, 9)))
    with pytest.raises(ValueError, match="zero"):
        estimate_holder_exponent(const, [1.0, 0.5, 0.25, 0.125])


def test_c_alpha_norm_is_max_plus_largest_component_seminorm():
    grid = ChannelGrid(nx=64, ny=33)
    X, Y = grid.meshgrid()
    a = Y
    b = 0.5 * np.sin(np.pi * X)
    scales = c_alpha_norm_scales(grid)
    assert scales == (4.0 * max(grid.hx, grid.hy), 0.25)
    semi = {id(v): holder_quotient(ChannelField(grid, v), 0.5, *scales).seminorm
            for v in (a, b)}
    assert c_alpha_norm(a, grid, 0.5) == 1.0 + semi[id(a)]
    assert c_alpha_norm(np.stack([a, b]), grid, 0.5) == 1.0 + max(semi.values())
    assert c_alpha_norm(np.stack([a, b]), grid, 0.0) == 1.0  # beta = 0: max only


def test_c_alpha_norm_of_zero_field_needs_no_scan():
    coarse = ChannelGrid(nx=8, ny=5)  # 4*max(hx, hy) = 1 exceeds 0.25
    assert c_alpha_norm(np.zeros((2, 8, 5)), coarse, 0.5) == 0.0
    X, _ = coarse.meshgrid()
    with pytest.raises(ValueError, match="h_max"):
        c_alpha_norm(np.sin(np.pi * X), coarse, 0.5)


def test_check_tangential():
    grid = ChannelGrid(nx=8, ny=9)
    u = np.zeros((2, 8, 9))
    u[1, :, 1:-1] = 1.0
    u[1, 3, 0] = 1e-9
    check_tangential(ChannelField(grid, u))
    with pytest.raises(ValueError, match="2-component"):
        check_tangential(ChannelField(grid, u[0]))
    u[1, 3, -1] = 1e-7
    with pytest.raises(ValueError, match="tangential"):
        check_tangential(ChannelField(grid, u))
