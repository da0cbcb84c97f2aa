"""Modified-pressure Poisson solves on the periodic channel.

The modified pressure P = p + phi*(wall-normal velocity)^2 solves a
Neumann problem whose boundary condition is homogeneous on flat walls:

    -lap(P) = sum_ij d_i d_j (u_i u_j) - lap(phi * u2^2),   dP/dy = 0

Everything is spectral in x and second-order finite differences in y
with a ghost-point Neumann closure, solved by the transform kernel of
:mod:`holderlab.spectral`.  The y-derivatives of the quadratic
products use centered stencils with reflection ghosts at the walls
(u2^2 and u1^2 extend evenly, u1*u2 oddly, matching the symmetry of
every tangential channel flow in this package); no derivative is ever
taken of another numerical derivative.

The Neumann problem is singular: its discrete compatibility defect, the
trapezoid mean of the right-hand side, is projected out and reported,
and the solution is shifted so that the channel mean of P equals the
channel mean of phi*u2^2.

The weak normal trace pairs a field row with a tangential test function
first and differences the paired values second, the order that stays
meaningful for fields whose normal derivative exists only weakly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# holder_quotient is not called here.  It stays imported because the
# benchmark's instrumentation test (perfbench/test_perfbench.py) checks,
# on this name, that names imported from another module are traced.
from .fields import (  # noqa: F401
    ChannelField,
    ChannelGrid,
    c_alpha_norm,
    check_tangential,
    holder_quotient,
)
from .spectral import solve_poisson, spectral_dx, spectral_dxx
from .tracelab import TestFunction

__all__ = [
    "CutoffProfile",
    "PressureSolution",
    "TrigPoly2D",
    "SchauderSweep",
    "solve_modified_pressure",
    "recover_raw_pressure",
    "estimate_ratio",
    "weak_normal_trace",
    "random_symmetric_trig_field",
    "dirichlet_schauder_check",
    "write_pressure_diagnostics_json",
]


def _bridge(t: float) -> tuple[float, float, float]:
    """Smooth 0-to-1 bridge S(t) = B(t)/(B(t)+B(1-t)), B = exp(-1/t),
    with first and second derivatives."""

    def B(s):
        return math.exp(-1.0 / s) if s > 0.0 else 0.0

    def B1(s):
        return B(s) / (s * s) if s > 0.0 else 0.0

    def B2(s):
        return B(s) * (1.0 / s**4 - 2.0 / s**3) if s > 0.0 else 0.0

    b, c = B(t), B(1.0 - t)
    b1, c1 = B1(t), -B1(1.0 - t)
    b2, c2 = B2(t), B2(1.0 - t)
    den = b + c
    s0 = b / den
    s1 = (b1 * c - b * c1) / den**2
    s2 = ((b2 * c - b * c2) * den - 2.0 * (b1 * c - b * c1) * (b1 + c1)) / den**3
    return s0, s1, s2


@dataclass(frozen=True)
class CutoffProfile:
    """Smooth cutoff of distance to the nearest wall.

    Equal to 1 for distance <= delta and 0 for distance >= 2*delta,
    with an exponential bridge between; value/deriv/second_deriv are
    analytic in the distance variable.  delta is restricted to
    (0, 0.25) so the two wall collars never meet the midchannel kink
    of the distance function.
    """

    delta: float

    def __post_init__(self):
        if not (0.0 < self.delta < 0.25):
            raise ValueError(f"delta must lie in (0, 0.25), got {self.delta}")

    def value(self, dist: float) -> float:
        if dist <= self.delta:
            return 1.0
        if dist >= 2.0 * self.delta:
            return 0.0
        return _bridge((2.0 * self.delta - dist) / self.delta)[0]

    def deriv(self, dist: float) -> float:
        if dist <= self.delta or dist >= 2.0 * self.delta:
            return 0.0
        return -_bridge((2.0 * self.delta - dist) / self.delta)[1] / self.delta

    def second_deriv(self, dist: float) -> float:
        if dist <= self.delta or dist >= 2.0 * self.delta:
            return 0.0
        return _bridge((2.0 * self.delta - dist) / self.delta)[2] / self.delta**2

    def on_grid(self, grid: ChannelGrid) -> np.ndarray:
        """Profile of min(y, 1-y) along the wall-to-wall coordinate."""
        dist = np.minimum(grid.y, grid.y_extent - grid.y)
        return np.array([self.value(float(d)) for d in dist])


@dataclass(frozen=True)
class PressureSolution:
    """Modified pressure P, raw pressure p, and solver residuals."""

    P: ChannelField
    p: ChannelField
    mean_constraint_residual: float
    neumann_residual: float
    pde_residual: float
    compatibility_defect: float


def _dy_odd(vals: np.ndarray, hy: float) -> np.ndarray:
    """Centered y-derivative; walls use odd-reflection ghosts."""
    out = np.empty_like(vals)
    out[:, 1:-1] = (vals[:, 2:] - vals[:, :-2]) / (2.0 * hy)
    out[:, 0] = vals[:, 1] / hy
    out[:, -1] = -vals[:, -2] / hy
    return out


def _dyy_even(vals: np.ndarray, hy: float) -> np.ndarray:
    """Centered second y-derivative; walls use even-reflection ghosts."""
    out = np.empty_like(vals)
    out[:, 1:-1] = (vals[:, 2:] - 2.0 * vals[:, 1:-1] + vals[:, :-2]) / hy**2
    out[:, 0] = 2.0 * (vals[:, 1] - vals[:, 0]) / hy**2
    out[:, -1] = 2.0 * (vals[:, -2] - vals[:, -1]) / hy**2
    return out


def _trapezoid_weights(ny: int) -> np.ndarray:
    z = np.ones(ny)
    z[0] = z[-1] = 0.5
    return z


def _channel_mean(vals: np.ndarray, grid: ChannelGrid) -> float:
    z = _trapezoid_weights(grid.ny)
    return float(np.mean(vals, axis=0) @ z / z.sum())


def _assemble_rhs(u: ChannelField, phi_y: np.ndarray) -> np.ndarray:
    grid = u.grid
    u1, u2 = u.values[0], u.values[1]
    q11 = u1 * u1
    q12 = u1 * u2
    q22 = u2 * u2
    G = q22 * phi_y[None, :]
    return (
        spectral_dxx(q11, grid)
        + 2.0 * spectral_dx(_dy_odd(q12, grid.hy), grid)
        + _dyy_even(q22, grid.hy)
        - spectral_dxx(G, grid)
        - _dyy_even(G, grid.hy)
    )


def solve_modified_pressure(u: ChannelField, phi: CutoffProfile) -> PressureSolution:
    """Solve the Neumann problem for the modified pressure."""
    check_tangential(u)
    grid = u.grid
    phi_y = phi.on_grid(grid)
    G = u.values[1] ** 2 * phi_y[None, :]
    rhs = _assemble_rhs(u, phi_y)
    P = solve_poisson(rhs, grid, "neumann")

    rhs_scale = max(float(np.max(np.abs(rhs))), 1e-300)
    rhs_mean = _channel_mean(rhs, grid)
    lap = spectral_dxx(P, grid) + _dyy_even(P, grid.hy)
    pde_residual = float(np.max(np.abs(lap + (rhs - rhs_mean)))) / rhs_scale

    P = P + (_channel_mean(G, grid) - _channel_mean(P, grid))
    p_vals = P - G
    neumann = max(
        float(np.max(np.abs(P[:, 1] - P[:, 0]))),
        float(np.max(np.abs(P[:, -1] - P[:, -2]))),
    ) / grid.hy
    mean_res = abs(_channel_mean(P, grid) - _channel_mean(G, grid))
    return PressureSolution(
        P=ChannelField(grid, P),
        p=ChannelField(grid, p_vals),
        mean_constraint_residual=mean_res,
        neumann_residual=neumann,
        pde_residual=pde_residual,
        compatibility_defect=abs(rhs_mean) / rhs_scale,
    )


def recover_raw_pressure(sol: PressureSolution, u: ChannelField, phi: CutoffProfile) -> ChannelField:
    """p = P - phi * u2^2 on the channel grid."""
    if u.grid != sol.P.grid:
        raise ValueError("velocity and pressure grids differ")
    phi_y = phi.on_grid(u.grid)
    return ChannelField(u.grid, sol.P.values[0] - u.values[1] ** 2 * phi_y[None, :])


def estimate_ratio(sol: PressureSolution, u: ChannelField, alpha: float) -> float:
    """Estimated C^alpha norm of P over that of the velocity tensor u x u."""
    grid = u.grid
    u1, u2 = u.values[0], u.values[1]
    den = max(
        c_alpha_norm(u1 * u1, grid, alpha),
        c_alpha_norm(u1 * u2, grid, alpha),
        c_alpha_norm(u2 * u2, grid, alpha),
    )
    if den == 0.0:
        raise ValueError("velocity tensor vanishes; the ratio is undefined")
    return c_alpha_norm(sol.P.values[0], grid, alpha) / den


def weak_normal_trace(f: ChannelField, theta: TestFunction, y: float) -> float:
    """<d_y f(., y), theta>: pair with theta per grid line, then difference.

    Interior lines use the centered two-line difference; the walls use
    the one-sided difference into the channel.
    """
    if f.components != 1:
        raise ValueError("expected a scalar field")
    grid = f.grid
    if not (0.0 <= y <= grid.y_extent):
        raise ValueError(f"y={y} lies outside the channel [0, {grid.y_extent}]")
    j = grid.wall_row_index(y)
    theta_x = theta.evaluate(grid.x)
    tested = f.values[0].T @ theta_x * grid.hx  # T(j) = integral f(., y_j) theta
    if j == 0:
        return float(tested[1] - tested[0]) / grid.hy
    if j == grid.ny - 1:
        return float(tested[-1] - tested[-2]) / grid.hy
    return float(tested[j + 1] - tested[j - 1]) / (2.0 * grid.hy)


_BASIS = {
    "cc": (np.cos, np.cos),
    "cs": (np.cos, np.sin),
    "sc": (np.sin, np.cos),
    "ss": (np.sin, np.sin),
}


@dataclass(frozen=True)
class TrigPoly2D:
    """Finite sum of amp * trig(kx*pi*x) * trig(ky*pi*y) terms.

    Each term is (amp, kx, ky, basis) with basis one of "cc", "cs",
    "sc", "ss" naming the x- and y-factors.
    """

    terms: tuple

    def __post_init__(self):
        for amp, kx, ky, basis in self.terms:
            if basis not in _BASIS:
                raise ValueError(f"unknown basis tag {basis!r}")
            if not (isinstance(kx, int) and isinstance(ky, int) and kx >= 0 and ky >= 0):
                raise ValueError("frequencies must be nonnegative integers")

    def evaluate(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.zeros(np.broadcast_shapes(x.shape, y.shape))
        for amp, kx, ky, basis in self.terms:
            fx, fy = _BASIS[basis]
            out += amp * fx(kx * math.pi * x) * fy(ky * math.pi * y)
        return out

    def sample(self, grid: ChannelGrid) -> np.ndarray:
        out = np.zeros((grid.nx, grid.ny))
        for amp, kx, ky, basis in self.terms:
            fx, fy = _BASIS[basis]
            out += amp * np.outer(fx(kx * math.pi * grid.x), fy(ky * math.pi * grid.y))
        return out


def random_symmetric_trig_field(seed: int, n_terms: int = 5, max_freq: int = 4):
    """Seeded random (F11, F12, F22) for Schauder ratio sweeps."""
    rng = np.random.default_rng(seed)

    def poly():
        terms = []
        for _ in range(n_terms):
            amp = float(rng.uniform(-1.0, 1.0))
            kx = int(rng.integers(0, max_freq + 1))
            ky = int(rng.integers(0, max_freq + 1))
            basis = ("cc", "cs", "sc", "ss")[int(rng.integers(0, 4))]
            terms.append((amp, kx, ky, basis))
        return TrigPoly2D(terms=tuple(terms))

    return poly(), poly(), poly()


@dataclass(frozen=True)
class SchauderSweep:
    """Per-resolution norm ratios for the Dirichlet double-divergence solve."""

    alpha: float
    resolutions: tuple
    ratios: tuple
    zero_data: bool


def solve_schauder_problem(F11: TrigPoly2D, F12: TrigPoly2D, F22: TrigPoly2D,
                           grid: ChannelGrid) -> ChannelField:
    """Solve lap(v) = d_i d_j F_ij with v = 0 at the walls."""
    f11, f12, f22 = F11.sample(grid), F12.sample(grid), F22.sample(grid)
    rhs = (
        spectral_dxx(f11, grid)
        + 2.0 * spectral_dx(_dy_odd(f12, grid.hy), grid)
        + _dyy_even(f22, grid.hy)
    )
    return ChannelField(grid, solve_poisson(-rhs, grid, "dirichlet"))


def dirichlet_schauder_check(
    F11: TrigPoly2D,
    F12: TrigPoly2D,
    F22: TrigPoly2D,
    alpha: float,
    resolutions: Sequence[int],
) -> SchauderSweep:
    """Norm-ratio sweep ||v|| / ||F|| in the estimated C^alpha norms."""
    ratios = []
    zero_data = False
    for n in resolutions:
        grid = ChannelGrid(nx=int(n), ny=int(n) // 2 + 1)
        v = solve_schauder_problem(F11, F12, F22, grid)
        f_norm = max(
            c_alpha_norm(F.sample(grid), grid, alpha) for F in (F11, F12, F22)
        )
        if f_norm == 0.0:
            zero_data = True
            ratios.append(0.0)
        else:
            ratios.append(c_alpha_norm(v.values[0], grid, alpha) / f_norm)
    return SchauderSweep(
        alpha=float(alpha),
        resolutions=tuple(int(n) for n in resolutions),
        ratios=tuple(ratios),
        zero_data=zero_data,
    )


def write_pressure_diagnostics_json(sol: PressureSolution, ratio: float, path) -> None:
    payload = {
        "pde_residual": sol.pde_residual,
        "neumann_residual": sol.neumann_residual,
        "mean_residual": sol.mean_constraint_residual,
        "ratio": ratio,
        "defect": sol.compatibility_defect,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
