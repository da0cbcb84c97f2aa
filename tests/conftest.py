"""Shared brute-force oracles for the test suite.

These are deliberately written as slow, direct computations so the
library code is checked against an independent route.
"""

from __future__ import annotations

import contextlib
import csv
import math

import numpy as np
import pytest
from scipy.linalg import solve_banded

from holderlab import fields
from holderlab.fields import ChannelField, ChannelGrid, c_alpha_norm
from holderlab.pressure import solve_schauder_problem
from holderlab.spectral import solve_poisson, spectral_dx, spectral_dxx


@contextlib.contextmanager
def block_partition(block_bytes: int, cpus: int):
    """Run the grid kernels on every array, however small, in blocks of
    block_bytes of scratch and in ``cpus`` pieces (more than this machine
    may have is fine: the pool queues them)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fields, "_BLOCK_BYTES", block_bytes)
        mp.setattr(fields, "_CPUS", cpus)
        mp.setattr(fields, "_PARALLEL_NODES", 0)
        mp.setattr(fields, "_PARALLEL_SCAN_WORK", 0)
        yield


def roll_shift_max(vals: np.ndarray, di: int, dj: int) -> float:
    """max |f(p) - f(q)| over pairs p - q = (di, dj) of one (nx, ny) array,
    through a full np.roll copy (periodic x); 0 when no pair exists."""
    shifted = np.roll(vals, -di, axis=0) if di else vals
    if dj == 0:
        d = shifted - vals
    elif dj > 0:
        d = shifted[:, dj:] - vals[:, :-dj]
    else:
        d = shifted[:, :dj] - vals[:, -dj:]
    return float(np.max(np.abs(d))) if d.size else 0.0


def brute_force_seminorm(f: ChannelField, alpha: float, h_min: float, h_max: float) -> float:
    """Exhaustive scan over *all* node shift vectors with separation in range."""
    g = f.grid
    vals = f.values[0]
    best = 0.0
    for di in range(0, g.nx // 2 + 1):
        for dj in range(-(g.ny - 1), g.ny):
            if di == 0 and dj <= 0:
                continue
            r = math.hypot(di * g.hx, dj * g.hy)
            if r > h_max * (1 + 1e-12) or r < h_min * (1 - 1e-12):
                continue
            best = max(best, roll_shift_max(vals, di, dj) / r**alpha)
    return best


def brute_force_modulus(f: ChannelField, h: float) -> float:
    """Exhaustive modulus of continuity over all shift vectors with |shift| <= h."""
    g = f.grid
    vals = f.values[0]
    best = 0.0
    for di in range(0, g.nx // 2 + 1):
        for dj in range(-(g.ny - 1), g.ny):
            if di == 0 and dj <= 0:
                continue
            if math.hypot(di * g.hx, dj * g.hy) > h * (1 + 1e-12):
                continue
            best = max(best, roll_shift_max(vals, di, dj))
    return best


def field_csv_by_loops(field: ChannelField, path) -> None:
    """Field dump written one cell at a time: component, then y, then x."""
    xs, ys = field.grid.x, field.grid.y
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y", "component", "value"])
        for c in range(field.components):
            vals = field.values[c]
            for j in range(field.grid.ny):
                for i in range(field.grid.nx):
                    w.writerow([f"{xs[i]:.17g}", f"{ys[j]:.17g}", c, f"{vals[i, j]:.17g}"])


def read_field_csv(path) -> ChannelField:
    """Rebuild a field from a ``write_field_csv`` dump: component-major,
    then y outer, x inner.  Raises unless the coordinates are the nodes of
    the channel grid with that many x and y values."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["x", "y", "component", "value"]:
        raise ValueError(f"unexpected header {rows[0]}")
    x, y, comp, vals = np.array(rows[1:], dtype=float).T
    xs, ys = np.unique(x), np.unique(y)
    grid = ChannelGrid(xs.size, ys.size)
    if not (np.array_equal(xs, grid.x) and np.array_equal(ys, grid.y)):
        raise ValueError("coordinates are not the nodes of the channel grid")
    values = vals.reshape(int(comp.max()) + 1, ys.size, xs.size).transpose(0, 2, 1)
    return ChannelField(grid, values)


def normal_jacobian_by_point(patch, sigma1: float, sigma2: float) -> np.ndarray:
    """3x2 matrix of d n / d sigma_j at one chart point, column by column."""
    g = np.asarray(patch.grad(sigma1, sigma2), dtype=float)
    H = np.asarray(patch.hess(sigma1, sigma2), dtype=float)
    w = math.sqrt(1.0 + g[0] * g[0] + g[1] * g[1])
    nvec = np.array([g[0], g[1], -1.0]) / w
    dn = np.zeros((3, 2))
    for j in range(2):
        dw = float(g @ H[:, j]) / w
        dn[:2, j] = H[:, j] / w
        dn[:, j] -= nvec * (dw / w)
    return dn


def chart_by_point(patch, s1: float, s2: float, s: float) -> np.ndarray:
    """Chart position y(sigma) + s n(sigma) of one point."""
    g = np.asarray(patch.grad(s1, s2), dtype=float)
    w = math.sqrt(1.0 + g[0] * g[0] + g[1] * g[1])
    base = np.array([s1, s2, patch.height(s1, s2)])
    return base + s * (np.array([g[0], g[1], -1.0]) / w)


def jacobian_by_point(patch, s1: float, s2: float, s: float) -> np.ndarray:
    """Chart Jacobian of one point, filled column by column."""
    g = np.asarray(patch.grad(s1, s2), dtype=float)
    w = math.sqrt(1.0 + g[0] * g[0] + g[1] * g[1])
    dn = normal_jacobian_by_point(patch, s1, s2)
    J = np.empty((3, 3))
    J[:, 0] = np.array([1.0, 0.0, g[0]]) + s * dn[:, 0]
    J[:, 1] = np.array([0.0, 1.0, g[1]]) + s * dn[:, 1]
    J[:, 2] = np.array([g[0], g[1], -1.0]) / w
    return J


def metric_by_point(patch, s1: float, s2: float, s: float):
    """(J, a_inv, b) of one point through one-point det and inv."""
    J = jacobian_by_point(patch, s1, s2, s)
    Jinv = np.linalg.inv(J)
    return J, Jinv @ Jinv.T, abs(np.linalg.det(J))


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


# ------------------------------------------------------------ Schauder sweep


def trig_poly_by_meshgrid(poly, grid: ChannelGrid) -> np.ndarray:
    """A TrigPoly2D on the full meshgrid, one whole-grid product per term."""
    X, Y = grid.meshgrid()
    return poly.evaluate(X, Y)


def schauder_ratios_by_public_calls(F11, F12, F22, alpha: float, resolutions) -> list:
    """||v|| / ||F|| per resolution from public calls alone: the solve, and
    each datum sampled and normed on its own; 0.0 for zero data."""
    ratios = []
    for n in resolutions:
        grid = ChannelGrid(nx=n, ny=n // 2 + 1)
        v = solve_schauder_problem(F11, F12, F22, grid)
        f_norm = max(c_alpha_norm(F.sample(grid), grid, alpha) for F in (F11, F12, F22))
        ratios.append(c_alpha_norm(v.values[0], grid, alpha) / f_norm if f_norm else 0.0)
    return ratios


# ------------------------------------------------------------ modified pressure
# The Neumann solve written as whole-array expressions, one new array per
# operation.  The library accumulates the same operations in place, in the
# same order, so the two agree bit for bit.


def dy_odd_by_expression(vals: np.ndarray, hy: float) -> np.ndarray:
    out = np.empty_like(vals)
    out[:, 1:-1] = (vals[:, 2:] - vals[:, :-2]) / (2.0 * hy)
    out[:, 0] = vals[:, 1] / hy
    out[:, -1] = -vals[:, -2] / hy
    return out


def dyy_even_by_expression(vals: np.ndarray, hy: float) -> np.ndarray:
    out = np.empty_like(vals)
    out[:, 1:-1] = (vals[:, 2:] - 2.0 * vals[:, 1:-1] + vals[:, :-2]) / hy**2
    out[:, 0] = 2.0 * (vals[:, 1] - vals[:, 0]) / hy**2
    out[:, -1] = 2.0 * (vals[:, -2] - vals[:, -1]) / hy**2
    return out


def _trapezoid_mean(vals: np.ndarray) -> float:
    z = np.ones(vals.shape[1])
    z[0] = z[-1] = 0.5
    return float(np.mean(vals, axis=0) @ z / z.sum())


def rhs_by_expression(u: ChannelField, phi_y: np.ndarray) -> np.ndarray:
    grid = u.grid
    u1, u2 = u.values[0], u.values[1]
    q11, q12, q22 = u1 * u1, u1 * u2, u2 * u2
    G = q22 * phi_y[None, :]
    return (
        spectral_dxx(q11, grid)
        + 2.0 * spectral_dx(dy_odd_by_expression(q12, grid.hy), grid)
        + dyy_even_by_expression(q22, grid.hy)
        - spectral_dxx(G, grid)
        - dyy_even_by_expression(G, grid.hy)
    )


def modified_pressure_by_expression(u: ChannelField, phi) -> dict:
    """P, p and the four residuals of the modified-pressure solve."""
    grid = u.grid
    phi_y = phi.on_grid(grid)
    G = u.values[1] ** 2 * phi_y[None, :]
    rhs = rhs_by_expression(u, phi_y)
    P = solve_poisson(rhs, grid, "neumann")
    rhs_scale = max(float(np.max(np.abs(rhs))), 1e-300)
    rhs_mean = _trapezoid_mean(rhs)
    lap = spectral_dxx(P, grid) + dyy_even_by_expression(P, grid.hy)
    pde_residual = float(np.max(np.abs(lap + (rhs - rhs_mean)))) / rhs_scale
    P = P + (_trapezoid_mean(G) - _trapezoid_mean(P))
    neumann = max(
        float(np.max(np.abs(P[:, 1] - P[:, 0]))),
        float(np.max(np.abs(P[:, -1] - P[:, -2]))),
    ) / grid.hy
    return {
        "P": P,
        "p": P - G,
        "mean_constraint_residual": abs(_trapezoid_mean(P) - _trapezoid_mean(G)),
        "neumann_residual": neumann,
        "pde_residual": pde_residual,
        "compatibility_defect": abs(rhs_mean) / rhs_scale,
    }


def odd_extension_by_concatenation(vals: np.ndarray, rows: int) -> np.ndarray:
    """vals continued past y = 0 by psi(-y) = -psi(y) and past the top wall
    by psi(2 - y) = -psi(y), rows columns each side, built by concatenating
    negated mirror slices."""
    below = -vals[:, rows:0:-1]
    above = -vals[:, -2:-2 - rows:-1]
    return np.concatenate([below, vals, above], axis=1)


def mollify_by_roll(ext: np.ndarray, w: np.ndarray, margin_rows: int, ny: int) -> np.ndarray:
    """Kernel taps summed through whole-array np.roll copies (x periodic),
    column offset outer, row offset inner; walls not pinned."""
    ax, ay = (w.shape[0] - 1) // 2, (w.shape[1] - 1) // 2
    out = np.zeros((ext.shape[0], ny))
    for b in range(-ay, ay + 1):
        col = ext[:, margin_rows - b:margin_rows - b + ny]
        for a in range(-ax, ax + 1):
            if w[a + ax, b + ay] != 0.0:
                out += w[a + ax, b + ay] * np.roll(col, a, axis=0)
    return out


def mollify_by_whole_grid_taps(psi: np.ndarray, w: np.ndarray, margin_rows: int) -> np.ndarray:
    """The mollified stream of wall-vanishing (nx, ny) samples, one whole-grid
    pass per nonzero tap: the odd extension wrap-padded by ax rows in x,
    each tap one slice multiply into a scratch grid and one add, column
    offset outer and row offset inner; walls pinned to zero."""
    ax, ay = (w.shape[0] - 1) // 2, (w.shape[1] - 1) // 2
    nx, ny = psi.shape
    ext = np.pad(odd_extension_by_concatenation(psi, margin_rows), ((ax, ax), (0, 0)),
                 mode="wrap")
    out = np.zeros((nx, ny))
    tap = np.empty_like(out)
    for b in range(-ay, ay + 1):
        col = ext[:, margin_rows - b:margin_rows - b + ny]
        for a in range(-ax, ax + 1):
            weight = w[a + ax, b + ay]
            if weight == 0.0:
                continue
            np.multiply(col[ax - a:ax - a + nx], weight, out=tap)
            out += tap
    out[:, 0] = 0.0
    out[:, -1] = 0.0
    return out


def divergence_residual_by_roll(u: ChannelField) -> float:
    """Interior max |centred divergence|, x-differences through np.roll."""
    g = u.grid
    u1, u2 = u.values
    ddx = (np.roll(u1, -1, axis=0) - np.roll(u1, 1, axis=0)) / (2.0 * g.hx)
    ddy = (u2[:, 2:] - u2[:, :-2]) / (2.0 * g.hy)
    return float(np.max(np.abs(ddx[:, 1:-1] + ddy)))
