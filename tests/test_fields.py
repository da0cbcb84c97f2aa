"""Grid, field container, CSV round-trip, and Hölder scan tests."""

from __future__ import annotations

import math
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holderlab import fields
from holderlab.fields import (
    ChannelField,
    ChannelGrid,
    c_alpha_norm,
    c_alpha_norm_scales,
    check_tangential,
    estimate_holder_exponent,
    holder_quotient,
    modulus_of_continuity,
    write_field_csv,
)

from conftest import (
    block_partition,
    brute_force_modulus,
    brute_force_seminorm,
    field_csv_by_loops,
    read_field_csv,
    roll_shift_max,
)


def _linear_in_y(nx=256, ny=129):
    # hx = hy = 1/128 so the resolution guard admits fine separations
    grid = ChannelGrid(nx, ny)
    return ChannelField.from_function(grid, lambda X, Y: Y)


def test_grid_validation():
    with pytest.raises(ValueError):
        ChannelGrid(12, 17)  # nx not a power of two
    with pytest.raises(ValueError):
        ChannelGrid(2, 17)  # nx too small
    with pytest.raises(ValueError):
        ChannelGrid(16, 2)  # ny too small


def test_grid_geometry():
    g = ChannelGrid(8, 5)
    assert g.hx == 0.25
    assert g.hy == 0.25
    assert g.y[0] == 0.0 and g.y[-1] == 1.0
    assert g.x[0] == 0.0 and g.x[-1] == 2.0 - g.hx
    assert g.wall_row_index(0.0) == 0
    assert g.wall_row_index(1.0) == 4
    with pytest.raises(ValueError):
        g.wall_row_index(0.3)


def test_field_shape_checks_and_immutability():
    g = ChannelGrid(8, 5)
    with pytest.raises(ValueError):
        ChannelField(g, np.zeros((3, 8, 5)))
    with pytest.raises(ValueError):
        ChannelField(g, np.zeros((8, 4)))
    f = ChannelField(g, np.zeros((8, 5)))
    assert f.components == 1
    with pytest.raises(ValueError):
        f.values[0, 0, 0] = 1.0


def test_csv_round_trip(tmp_path):
    g = ChannelGrid(8, 5)
    rng = np.random.default_rng(7)
    f = ChannelField(g, rng.standard_normal((2, 8, 5)))
    path = tmp_path / "field.csv"
    write_field_csv(f, path)
    back = read_field_csv(path)
    # 17 significant digits round-trip doubles exactly
    np.testing.assert_array_equal(back.values, f.values)
    assert back.grid == g


_CELL = st.one_of(st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
                  st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=40, deadline=None)
@given(
    nx=st.sampled_from([4, 8]),
    ny=st.integers(3, 6),
    components=st.integers(1, 2),
    data=st.data(),
)
def test_field_csv_matches_the_cell_by_cell_writer(nx, ny, components, data):
    g = ChannelGrid(nx, ny)
    cells = data.draw(st.lists(_CELL, min_size=components * nx * ny,
                               max_size=components * nx * ny))
    f = ChannelField(g, np.array(cells).reshape(components, nx, ny))
    with tempfile.TemporaryDirectory() as tmp:
        fast, slow = Path(tmp) / "fast.csv", Path(tmp) / "slow.csv"
        write_field_csv(f, fast)
        field_csv_by_loops(f, slow)
        assert fast.read_bytes() == slow.read_bytes()


def test_modulus_linear_field_exact():
    f = _linear_in_y()
    assert modulus_of_continuity(f, 0.25) == 0.25
    assert modulus_of_continuity(f, 0.5) == 0.5


def test_modulus_monotone_and_resolution_guard():
    g = ChannelGrid(16, 17)
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
    g = ChannelGrid(2**log2_nx, ny)
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
    g = ChannelGrid(16, 9)
    f = ChannelField(g, np.full((16, 9), 3.7))
    est = holder_quotient(f, alpha=0.5, h_min=0.125, h_max=0.5)
    assert est.seminorm == 0.0
    assert math.isnan(est.fitted_exponent)


def test_holder_quotient_seminorm_below_bruteforce():
    g = ChannelGrid(16, 17)
    rng = np.random.default_rng(11)
    f = ChannelField(g, rng.standard_normal((16, 17)))
    est = holder_quotient(f, alpha=0.5, h_min=0.125, h_max=0.5)
    # the dyadic scan samples a subset of pairs, so it cannot exceed the
    # exhaustive quotient over the same separation window
    assert est.seminorm <= brute_force_seminorm(f, 0.5, 0.125, 0.5) * (1 + 1e-12)
    assert est.seminorm > 0.0


def test_holder_quotient_empty_pair_set():
    g = ChannelGrid(8, 5)  # hx = hy = 0.25
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
    g = ChannelGrid(16, 9)
    const = ChannelField(g, np.ones((16, 9)))
    with pytest.raises(ValueError, match="zero"):
        estimate_holder_exponent(const, [1.0, 0.5, 0.25, 0.125])


@settings(max_examples=40, deadline=None)
@given(
    nx=st.sampled_from([32, 64]),
    ny=st.integers(17, 40),
    components=st.integers(1, 2),
    alpha=st.sampled_from([0.25, 0.5, 1.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_c_alpha_norm_is_max_plus_largest_component_seminorm(nx, ny, components, alpha, seed):
    # c_alpha_norm and holder_quotient share the dyadic scan but not a
    # call path, so tie them together bitwise
    grid = ChannelGrid(nx=nx, ny=ny)
    vals = np.random.default_rng(seed).standard_normal((components, nx, ny))
    scales = c_alpha_norm_scales(grid)
    assert scales == (4.0 * max(grid.hx, grid.hy), 0.25)
    semi = [holder_quotient(ChannelField(grid, c), alpha, *scales).seminorm for c in vals]
    top = [float(np.max(np.abs(c))) for c in vals]
    assert c_alpha_norm(vals[0], grid, alpha) == top[0] + semi[0]
    assert c_alpha_norm(vals, grid, alpha) == max(top) + max(semi)
    assert c_alpha_norm(vals, grid, 0.0) == max(top)  # beta = 0: max only


def test_c_alpha_norm_of_zero_field_needs_no_scan():
    coarse = ChannelGrid(nx=8, ny=5)  # 4*max(hx, hy) = 1 exceeds 0.25
    assert c_alpha_norm(np.zeros((2, 8, 5)), coarse, 0.5) == 0.0
    X, _ = coarse.meshgrid()
    with pytest.raises(ValueError, match="h_max"):
        c_alpha_norm(np.sin(np.pi * X), coarse, 0.5)


@settings(max_examples=200, deadline=None)
@given(
    log2_nx=st.integers(2, 6),
    ny=st.integers(3, 40),
    components=st.integers(1, 2),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_shift_maxima_matches_the_roll_oracle(log2_nx, ny, components, seed, data):
    # shifts across the periodic seam, pure-y shifts and shifts with no
    # y-overlap all take part, on partitions from one whole block on the
    # calling thread to several blocks in up to three uneven pieces
    nx = 2**log2_nx
    shifts = data.draw(st.lists(st.tuples(st.integers(0, nx - 1), st.integers(-ny, ny)),
                                min_size=1, max_size=8))
    block_bytes = data.draw(st.sampled_from([8, 8 * ny, 3 * 8 * ny, 1 << 20]))
    cpus = data.draw(st.integers(1, 3))
    vals = np.random.default_rng(seed).standard_normal((components, nx, ny))
    with block_partition(block_bytes, cpus):
        got = fields._shift_maxima(vals, shifts)
        scalar = fields._shift_maxima(vals[0], shifts)
    assert got.shape == (len(shifts), components)
    for k, (di, dj) in enumerate(shifts):
        for c in range(components):
            assert got[k, c] == roll_shift_max(vals[c], di, dj)
    assert np.array_equal(scalar, got[:, 0])


def test_concurrent_callers_share_the_block_runner():
    # more calling threads than cores, each scanning through three pieces
    # of one-row blocks with a short switch interval: every scan still
    # equals the one made alone
    rng = np.random.default_rng(7)
    arrays = [rng.standard_normal((2, 32, 9)) for _ in range(6)]
    shifts = [(1, 0), (0, 1), (5, -3), (31, 8), (16, 0)]
    with block_partition(8 * 2 * 9, 3):
        alone = [fields._shift_maxima(a, shifts) for a in arrays]
        results = {}

        def caller(i):
            for _ in range(20):
                results.setdefault(i, []).append(fields._shift_maxima(arrays[i], shifts))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(arrays))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i, want in enumerate(alone):
        assert len(results[i]) == 20
        assert all(np.array_equal(got, want) for got in results[i])


def test_each_estimator_makes_one_scan(monkeypatch):
    calls = []
    scan = fields._shift_maxima

    def counting(vals, shifts):
        calls.append(len(shifts))
        return scan(vals, shifts)

    monkeypatch.setattr(fields, "_shift_maxima", counting)
    f = _linear_in_y()
    grid = f.grid
    X, _ = grid.meshgrid()
    stack = np.stack([f.values[0], np.sin(np.pi * X)])
    for estimate in (
        lambda: modulus_of_continuity(f, 0.25),
        lambda: holder_quotient(f, 0.5, 1.0 / 128, 0.25),
        lambda: estimate_holder_exponent(f, [2.0**-k for k in range(2, 6)]),
        lambda: c_alpha_norm(stack, grid, 0.5),
    ):
        calls.clear()
        estimate()
        assert len(calls) == 1
    calls.clear()
    with pytest.raises(ValueError, match="exceeds"):
        estimate_holder_exponent(f, [0.125, 0.25, 0.5, 1.0, 2.0])  # 2.0 > half period
    assert calls == []


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_estimators_reject_a_non_finite_node(bad):
    grid = ChannelGrid(64, 33)
    X, _ = grid.meshgrid()
    vals = np.sin(np.pi * X)
    vals[5, 7] = bad
    f = ChannelField(grid, vals)
    with pytest.raises(ValueError, match="non-finite"):
        modulus_of_continuity(f, 0.25)
    with pytest.raises(ValueError, match="non-finite"):
        holder_quotient(f, 0.5, 0.125, 0.5)
    with pytest.raises(ValueError, match="non-finite"):
        estimate_holder_exponent(f, [0.125, 0.25, 0.5, 1.0])
    with pytest.raises(ValueError, match="non-finite"):
        c_alpha_norm(np.stack([np.sin(np.pi * X), vals]), grid, 0.5)


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
