"""Shared brute-force oracles for the test suite.

These are deliberately written as slow, direct computations so the
library code is checked against an independent route.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solve_banded

from holderlab.fields import ChannelField, ChannelGrid


def brute_force_seminorm(f: ChannelField, alpha: float, h_min: float, h_max: float) -> float:
    """Exhaustive scan over *all* node shift vectors with separation in range."""
    g = f.grid
    vals = f.component(0)
    best = 0.0
    for di in range(0, g.nx // 2 + 1):
        for dj in range(-(g.ny - 1), g.ny):
            if di == 0 and dj <= 0:
                continue
            r = math.hypot(di * g.hx, dj * g.hy)
            if r > h_max * (1 + 1e-12) or r < h_min * (1 - 1e-12):
                continue
            shifted = np.roll(vals, -di, axis=0)
            if dj == 0:
                d = shifted - vals
            elif dj > 0:
                d = shifted[:, dj:] - vals[:, :-dj]
            else:
                d = shifted[:, :dj] - vals[:, -dj:]
            if d.size:
                best = max(best, float(np.max(np.abs(d))) / r**alpha)
    return best


def brute_force_modulus(f: ChannelField, h: float) -> float:
    """Exhaustive modulus of continuity over all shift vectors with |shift| <= h."""
    g = f.grid
    vals = f.component(0)
    best = 0.0
    for di in range(0, g.nx // 2 + 1):
        for dj in range(-(g.ny - 1), g.ny):
            if di == 0 and dj <= 0:
                continue
            if math.hypot(di * g.hx, dj * g.hy) > h * (1 + 1e-12):
                continue
            shifted = np.roll(vals, -di, axis=0)
            if dj == 0:
                d = shifted - vals
            elif dj > 0:
                d = shifted[:, dj:] - vals[:, :-dj]
            else:
                d = shifted[:, :dj] - vals[:, -dj:]
            if d.size:
                best = max(best, float(np.max(np.abs(d))))
    return best


def fit_slope(xs, ys) -> float:
    """Plain least-squares slope."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    xm, ym = xs.mean(), ys.mean()
    return float(np.sum((xs - xm) * (ys - ym)) / np.sum((xs - xm) ** 2))


def banded_poisson(rhs: np.ndarray, grid: ChannelGrid, bc: str) -> np.ndarray:
    """Solve -lap(u) = rhs one x-Fourier mode at a time with banded solves.

    x is spectral, y the three-point stencil.  "dirichlet": zero walls,
    interior rows of rhs only.  "neumann": ghost-point closure u[-1] =
    u[1]; the trapezoid mean of rhs is removed and the singular mode is
    integrated twice from the wall, so u is fixed up to a constant.
    """
    ny, hy = grid.ny, grid.hy
    k = 2.0 * math.pi * np.fft.rfftfreq(grid.nx, d=grid.hx)
    rhs_hat = np.fft.rfft(rhs, axis=0)
    u_hat = np.zeros_like(rhs_hat)
    inv_h2 = 1.0 / hy**2
    if bc == "dirichlet":
        for m in range(len(k)):
            band = np.zeros((3, ny - 2))
            band[0, 1:] = -inv_h2
            band[1, :] = 2.0 * inv_h2 + k[m] ** 2
            band[2, :-1] = -inv_h2
            u_hat[m, 1:-1] = solve_banded((1, 1), band, rhs_hat[m, 1:-1])
        return np.fft.irfft(u_hat, n=grid.nx, axis=0)
    z = np.ones(ny)
    z[0] = z[-1] = 0.5
    f0 = rhs_hat[0] - (rhs_hat[0] @ z) / z.sum()
    # first differences D_i = u_{i+1} - u_i from the wall row and the
    # interior recurrence, then summed
    D = np.empty(ny - 1, dtype=complex)
    D[0] = -0.5 * hy * hy * f0[0]
    D[1:] = -hy * hy * (0.5 * f0[0] + np.cumsum(f0[1:ny - 1]))
    u_hat[0, 1:] = np.cumsum(D)
    for m in range(1, len(k)):
        band = np.zeros((3, ny))
        band[1, :] = 2.0 * inv_h2 + k[m] ** 2
        band[0, 1:] = -inv_h2
        band[0, 1] = -2.0 * inv_h2
        band[2, :-1] = -inv_h2
        band[2, -2] = -2.0 * inv_h2
        u_hat[m] = solve_banded((1, 1), band, rhs_hat[m])
    return np.fft.irfft(u_hat, n=grid.nx, axis=0)
