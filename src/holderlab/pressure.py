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
    _run_blocks,
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
    "estimate_ratio",
    "weak_normal_trace",
    "random_symmetric_trig_field",
    "dirichlet_schauder_check",
]


def _bridge(t: float) -> float:
    """Smooth 0-to-1 bridge S(t) = B(t)/(B(t)+B(1-t)), B = exp(-1/t)."""

    def B(s):
        return math.exp(-1.0 / s) if s > 0.0 else 0.0

    b, c = B(t), B(1.0 - t)
    den = b + c
    return b / den


@dataclass(frozen=True)
class CutoffProfile:
    """Smooth cutoff of distance to the nearest wall.

    Equal to 1 for distance <= delta and 0 for distance >= 2*delta,
    with a smooth exponential bridge between.  delta is restricted to
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
        return _bridge((2.0 * self.delta - dist) / self.delta)

    def on_grid(self, grid: ChannelGrid) -> np.ndarray:
        """Profile of min(y, 1-y) along the wall-to-wall coordinate."""
        dist = np.minimum(grid.y, 1.0 - grid.y)
        return np.array([self.value(float(d)) for d in dist])


@dataclass(frozen=True)
class PressureSolution:
    """Modified pressure P, raw pressure p, and solver residuals.

    pde_residual is max |lap(P) + rhs - mean(rhs)| over every node, the
    ghost-closure Neumann rows at the walls included, relative to max
    |rhs|.  neumann_residual is not a residual of that closure: it is the
    first-order one-sided wall slope max |P[:,1] - P[:,0]| / hy (and the
    same at the top wall), about hy/2 times d_yy P at a wall.  The
    name stays because the benchmark's workloads read it.
    """

    P: ChannelField
    p: ChannelField
    mean_constraint_residual: float
    neumann_residual: float
    pde_residual: float
    compatibility_defect: float


def _by_x_rows(stencil, vals: np.ndarray) -> np.ndarray:
    """stencil(v, out) applied to the x-row blocks v of vals of the block
    runner, writing the same rows of a new array."""
    out = np.empty_like(vals)
    _run_blocks(lambda a, b: stencil(vals[a:b], out[a:b]), vals.shape[0],
                vals.itemsize * vals.shape[1], vals.size)
    return out


def _dy_odd(vals: np.ndarray, hy: float) -> np.ndarray:
    """Centered y-derivative; walls use odd-reflection ghosts."""

    def stencil(v, out):
        mid = np.subtract(v[:, 2:], v[:, :-2], out=out[:, 1:-1])
        mid /= 2.0 * hy
        out[:, 0] = v[:, 1] / hy
        out[:, -1] = -v[:, -2] / hy

    return _by_x_rows(stencil, vals)


def _dyy_even(vals: np.ndarray, hy: float) -> np.ndarray:
    """Centered second y-derivative; walls use even-reflection ghosts."""

    def stencil(v, out):
        # (v[j+1] - 2 v[j] + v[j-1]) / hy^2, evaluated in that order
        mid = np.multiply(v[:, 1:-1], 2.0, out=out[:, 1:-1])
        np.subtract(v[:, 2:], mid, out=mid)
        mid += v[:, :-2]
        mid /= hy**2
        out[:, 0] = 2.0 * (v[:, 1] - v[:, 0]) / hy**2
        out[:, -1] = 2.0 * (v[:, -2] - v[:, -1]) / hy**2

    return _by_x_rows(stencil, vals)


def _trapezoid_weights(ny: int) -> np.ndarray:
    z = np.ones(ny)
    z[0] = z[-1] = 0.5
    return z


def _channel_mean(vals: np.ndarray, grid: ChannelGrid) -> float:
    z = _trapezoid_weights(grid.ny)
    return float(np.mean(vals, axis=0) @ z / z.sum())


def _double_divergence(F11, F12, F22, grid: ChannelGrid) -> np.ndarray:
    """d_x d_x F11 + 2 d_x d_y F12 + d_y d_y F22, summed left to right.  Each
    F is a thunk called when its term needs it, so that only the sum and one
    term's arrays are alive at a time."""
    rhs = spectral_dxx(F11(), grid)
    term = spectral_dx(_dy_odd(F12(), grid.hy), grid)
    term *= 2.0
    rhs += term
    del term
    rhs += _dyy_even(F22(), grid.hy)
    return rhs


def _assemble_rhs(u: ChannelField, G: np.ndarray) -> np.ndarray:
    """d_i d_j (u_i u_j) - lap(G), G = phi * u2^2, summed left to right."""
    grid = u.grid
    u1, u2 = u.values[0], u.values[1]
    rhs = _double_divergence(lambda: u1 * u1, lambda: u1 * u2, lambda: u2 * u2, grid)
    rhs -= spectral_dxx(G, grid)
    rhs -= _dyy_even(G, grid.hy)
    return rhs


def solve_modified_pressure(u: ChannelField, phi: CutoffProfile) -> PressureSolution:
    """Solve the Neumann problem for the modified pressure.

    The diagnostics reuse the right-hand side and the Laplacian of P in
    place, and p is written over G = phi * u2^2 once G's mean is taken.
    """
    check_tangential(u)
    grid = u.grid
    u2 = u.values[1]
    G = u2 * u2
    G *= phi.on_grid(grid)[None, :]
    rhs = _assemble_rhs(u, G)
    P = solve_poisson(rhs, grid, "neumann")

    rhs_scale = max(float(np.max(np.abs(rhs))), 1e-300)
    rhs_mean = _channel_mean(rhs, grid)
    lap = spectral_dxx(P, grid)
    lap += _dyy_even(P, grid.hy)
    rhs -= rhs_mean
    lap += rhs
    pde_residual = float(np.abs(lap, out=lap).max()) / rhs_scale

    G_mean = _channel_mean(G, grid)
    P += G_mean - _channel_mean(P, grid)
    p_vals = np.subtract(P, G, out=G)
    neumann = max(
        float(np.max(np.abs(P[:, 1] - P[:, 0]))),
        float(np.max(np.abs(P[:, -1] - P[:, -2]))),
    ) / grid.hy
    mean_res = abs(_channel_mean(P, grid) - G_mean)
    return PressureSolution(
        P=ChannelField._adopt(grid, P),
        p=ChannelField._adopt(grid, p_vals),
        mean_constraint_residual=mean_res,
        neumann_residual=neumann,
        pde_residual=pde_residual,
        compatibility_defect=abs(rhs_mean) / rhs_scale,
    )


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
    if not (0.0 <= y <= 1.0):
        raise ValueError(f"y={y} lies outside the channel [0, 1]")
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

# terms and highest frequency of each random Schauder sweep polynomial
_SWEEP_TERMS = 5
_SWEEP_MAX_FREQ = 4


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
            out += amp * (fx(kx * math.pi * x) * fy(ky * math.pi * y))
        return out

    def sample(self, grid: ChannelGrid) -> np.ndarray:
        """Node values on the grid: the series on its axes, broadcast."""
        return self.evaluate(grid.x[:, None], grid.y[None, :])


def random_symmetric_trig_field(seed: int):
    """Seeded random (F11, F12, F22) for Schauder ratio sweeps: each has
    ``_SWEEP_TERMS`` terms with frequencies 0 .. ``_SWEEP_MAX_FREQ``."""
    rng = np.random.default_rng(seed)

    def poly():
        terms = []
        for _ in range(_SWEEP_TERMS):
            amp = float(rng.uniform(-1.0, 1.0))
            kx = int(rng.integers(0, _SWEEP_MAX_FREQ + 1))
            ky = int(rng.integers(0, _SWEEP_MAX_FREQ + 1))
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
    rhs = _double_divergence(lambda: F11.sample(grid), lambda: F12.sample(grid),
                             lambda: F22.sample(grid), grid)
    np.negative(rhs, out=rhs)
    return ChannelField._adopt(grid, solve_poisson(rhs, grid, "dirichlet"))


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
