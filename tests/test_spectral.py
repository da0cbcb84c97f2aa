"""Spectral x-derivatives and the transform Poisson kernel."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holderlab.fields import ChannelGrid
from holderlab.spectral import solve_poisson, spectral_dx, spectral_dxx, x_wavenumbers

from conftest import banded_poisson


def test_x_derivatives_of_a_trig_polynomial():
    grid = ChannelGrid(nx=32, ny=5)
    x = grid.x[:, None] * np.ones(grid.ny)
    f = np.sin(3 * math.pi * x) + 0.5 * np.cos(7 * math.pi * x)
    df = 3 * math.pi * np.cos(3 * math.pi * x) - 3.5 * math.pi * np.sin(7 * math.pi * x)
    d2f = -9 * math.pi**2 * np.sin(3 * math.pi * x) - 24.5 * math.pi**2 * np.cos(7 * math.pi * x)
    assert np.max(np.abs(spectral_dx(f, grid) - df)) < 1e-12
    assert np.max(np.abs(spectral_dxx(f, grid) - d2f)) < 1e-10
    assert x_wavenumbers(grid)[-1] == pytest.approx(16 * math.pi)


def test_dx_drops_the_nyquist_mode():
    grid = ChannelGrid(nx=16, ny=3)
    alternating = np.outer((-1.0) ** np.arange(grid.nx), np.ones(grid.ny))
    assert np.max(np.abs(spectral_dx(alternating, grid))) < 1e-12
    nyquist = x_wavenumbers(grid)[-1]
    assert np.allclose(spectral_dxx(alternating, grid), -nyquist**2 * alternating)


def _minus_laplacian(u, grid):
    """Spectral -d_xx plus the three-point -d_yy, evenly reflected at the walls."""
    hy = grid.hy
    dyy = np.empty_like(u)
    dyy[:, 1:-1] = (u[:, 2:] - 2.0 * u[:, 1:-1] + u[:, :-2]) / hy**2
    dyy[:, 0] = 2.0 * (u[:, 1] - u[:, 0]) / hy**2
    dyy[:, -1] = 2.0 * (u[:, -2] - u[:, -1]) / hy**2
    return -(spectral_dxx(u, grid) + dyy)


def _trapezoid_mean(vals):
    z = np.ones(vals.shape[1])
    z[0] = z[-1] = 0.5
    return float(np.mean(vals, axis=0) @ z / z.sum())


@settings(max_examples=60, deadline=None)
@given(
    log2_nx=st.integers(2, 5),
    ny=st.integers(3, 40),
    seed=st.integers(0, 2**32 - 1),
    bc=st.sampled_from(["dirichlet", "neumann"]),
)
def test_solve_poisson_matches_banded_oracle(log2_nx, ny, seed, bc):
    grid = ChannelGrid(nx=2**log2_nx, ny=ny)
    rhs = np.random.default_rng(seed).standard_normal((grid.nx, ny))
    scale = float(np.max(np.abs(rhs)))
    u = solve_poisson(rhs, grid, bc)
    ref = banded_poisson(rhs, grid, bc)
    diff = u - ref
    if bc == "neumann":
        diff -= diff.mean()  # the oracle fixes a different constant
    assert np.max(np.abs(diff)) <= 1e-12 * np.max(np.abs(ref))
    removed = rhs - _minus_laplacian(u, grid)
    if bc == "dirichlet":
        assert np.all(u[:, [0, -1]] == 0.0)
        assert np.max(np.abs(removed[:, 1:-1])) <= 1e-10 * scale
    else:
        # every ghost-closure row holds; what the solve removed is the
        # trapezoid mean of rhs, and u itself has zero trapezoid mean
        assert np.max(np.abs(removed - _trapezoid_mean(rhs))) <= 1e-10 * scale
        assert abs(_trapezoid_mean(u)) <= 1e-12 * np.max(np.abs(u))


def test_dirichlet_solve_reads_interior_rows_only():
    grid = ChannelGrid(nx=16, ny=11)
    rhs = np.random.default_rng(3).standard_normal((16, 11))
    walls = rhs.copy()
    walls[:, [0, -1]] = 1e6
    assert np.array_equal(solve_poisson(rhs, grid, "dirichlet"),
                          solve_poisson(walls, grid, "dirichlet"))


def test_neumann_solve_of_a_constant_is_zero():
    grid = ChannelGrid(nx=8, ny=9)
    assert np.max(np.abs(solve_poisson(np.full((8, 9), 2.5), grid, "neumann"))) < 1e-15


def test_solve_poisson_rejects_unknown_bc():
    grid = ChannelGrid(nx=8, ny=9)
    with pytest.raises(ValueError, match="bc"):
        solve_poisson(np.zeros((8, 9)), grid, "periodic")
