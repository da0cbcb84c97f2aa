"""Divergence-free mollification of channel velocity fields.

Pipeline: recover the stream function of the wall-tangential part of u
(the uniform flux component is split off and carried unmollified, since
the periodic channel supports a curl-free, divergence-free field that
no wall-vanishing stream function can represent), extend it oddly
0.25 (rounded to whole grid rows) past both walls, convolve with the
unit-mass bump exp(-1/(1-r^2)) of radius epsilon, and rebuild the
velocity.  The kernel is fixed; epsilon is the only parameter.

The rebuilt velocity is discretely divergence-free to rounding because
the same y-difference stencil is used for both the reconstruction
u1 = D_y psi and the divergence test D_x u1 + D_y u2: with u2 = -D_x psi
the divergence is the commutator D_x D_y psi - D_y D_x psi of a spectral
x-derivative with a banded y-stencil, which vanishes identically in
exact arithmetic.  Wall rows of the mollified stream are pinned to
exactly zero (odd symmetry makes them vanish analytically), so the
wall-normal velocity is bitwise zero at both walls.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .fields import ChannelField, ChannelGrid, _wall_max, c_alpha_norm, check_tangential
from .spectral import solve_poisson, spectral_dx

__all__ = [
    "Mollifier",
    "MollificationReport",
    "stream_from_velocity",
    "mollify_stream",
    "velocity_from_stream",
    "max_discrete_divergence",
    "mollification_report",
]

# odd-reflection margin past each wall, rounded to whole grid rows
_MARGIN = 0.25
# Hölder orders of the error norms in a report
_BETAS = (0.0, 0.25)


@functools.cache
def _bump_scale() -> float:
    # imported here: scipy.integrate costs more to import than the rest of
    # the package, and only the first mollification needs it
    from scipy.integrate import quad

    integral, _ = quad(lambda r: 2.0 * math.pi * r * math.exp(-1.0 / (1.0 - r * r)),
                       0.0, 1.0)
    return 1.0 / integral


def _bump(r: float) -> float:
    """The bump exp(-1/(1-r^2)) on r < 1, scaled to unit plane integral."""
    if r >= 1.0:
        return 0.0
    return _bump_scale() * math.exp(-1.0 / (1.0 - r * r))


@dataclass(frozen=True)
class Mollifier:
    """The bump kernel of support radius epsilon, epsilon^-2 * bump(r / epsilon)."""

    epsilon: float

    def __post_init__(self):
        if not self.epsilon > 0.0:  # NaN too
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")


def _ddy(vals: np.ndarray, hy: float) -> np.ndarray:
    """y-derivative: centered interior, second-order one-sided at walls."""
    out = np.empty_like(vals)
    out[:, 1:-1] = (vals[:, 2:] - vals[:, :-2]) / (2.0 * hy)
    out[:, 0] = (-3.0 * vals[:, 0] + 4.0 * vals[:, 1] - vals[:, 2]) / (2.0 * hy)
    out[:, -1] = (3.0 * vals[:, -1] - 4.0 * vals[:, -2] + vals[:, -3]) / (2.0 * hy)
    return out


def stream_from_velocity(u: ChannelField) -> tuple[ChannelField, float]:
    """Recover (stream function, uniform flux) from a tangential velocity.

    The stream solves -lap(psi) = curl(u) with zero wall values, the
    curl taken spectrally in x and by finite differences in y; the flux
    is the trapezoid mean of u1 over the channel and captures the
    harmonic component that the stream cannot.
    """
    check_tangential(u)
    grid = u.grid
    u1, u2 = u.values[0], u.values[1]
    omega = spectral_dx(u2, grid)
    omega -= _ddy(u1, grid.hy)
    psi = solve_poisson(omega, grid, "dirichlet")
    mean_flux = float(np.trapezoid(np.mean(u1, axis=0), dx=grid.hy))
    return ChannelField._adopt(grid, psi), mean_flux


def _odd_extend(vals: np.ndarray, rows: int) -> np.ndarray:
    """Continue a wall-vanishing (nx, ny) stream oddly by rows past y = 0 and
    y = 1; column rows of the result is the wall y = 0."""
    ny = vals.shape[1]
    ext = np.empty((vals.shape[0], ny + 2 * rows))
    mid = ext[:, rows:rows + ny]
    mid[:] = vals
    mid[:, 0] = mid[:, -1] = 0.0
    np.negative(mid[:, rows:0:-1], out=ext[:, :rows])
    np.negative(mid[:, -2:-2 - rows:-1], out=ext[:, rows + ny:])
    return ext


def _kernel_weights(m: Mollifier, grid: ChannelGrid) -> tuple[np.ndarray, int, int]:
    """Discrete kernel on grid offsets, normalized to unit sum."""
    ax = int(m.epsilon / grid.hx)
    ay = int(m.epsilon / grid.hy)
    w = np.zeros((2 * ax + 1, 2 * ay + 1))
    for a in range(-ax, ax + 1):
        for b in range(-ay, ay + 1):
            r = math.hypot(a * grid.hx, b * grid.hy) / m.epsilon
            w[a + ax, b + ay] = _bump(r)
    total = w.sum()
    return w / total, ax, ay


def mollify_stream(psi: ChannelField, m: Mollifier) -> ChannelField:
    """Discrete convolution, periodic in x and odd-reflected in y.

    psi must vanish (to 1e-12) on both walls, and epsilon must lie below
    the reflection margin, 0.25 rounded to whole grid rows.  The output
    wall rows vanish by the odd symmetry (kernel weights are even in the
    y-offset, data is odd about each wall); they are pinned to exact
    zeros after a 1e-12 sanity check so that downstream wall
    impermeability is bitwise.
    """
    if psi.components != 1:
        raise ValueError("expected a scalar stream field")
    grid = psi.grid
    wall_worst = _wall_max(psi.values[0])
    if wall_worst > 1e-12:
        raise ValueError(
            f"stream has nonzero wall values (max {wall_worst:.3e}); odd "
            "extension needs exact zeros"
        )
    mrows = round(_MARGIN / grid.hy)
    if m.epsilon >= mrows * grid.hy:
        raise ValueError(
            f"epsilon {m.epsilon} does not fit in the extension margin "
            f"{mrows * grid.hy}"
        )
    w, ax, ay = _kernel_weights(m, grid)
    # row k of ext is x row (k - ax) mod nx, so x row i shifted down by a
    # is the slice [ax - a, ax - a + nx)
    ext = np.pad(_odd_extend(psi.values[0], mrows), ((ax, ax), (0, 0)), mode="wrap")
    nx = grid.nx
    out = np.zeros((nx, grid.ny))
    tap = np.empty_like(out)
    for b in range(-ay, ay + 1):
        col = ext[:, mrows - b:mrows - b + grid.ny]
        for a in range(-ax, ax + 1):
            weight = w[a + ax, b + ay]
            if weight == 0.0:
                continue
            np.multiply(col[ax - a:ax - a + nx], weight, out=tap)
            out += tap
    wall_worst = _wall_max(out)
    if wall_worst > 1e-12:
        raise ValueError(
            f"mollified stream fails to vanish at the walls ({wall_worst:.3e})"
        )
    out[:, 0] = 0.0
    out[:, -1] = 0.0
    return ChannelField._adopt(grid, out)


def velocity_from_stream(psi_eps: ChannelField, mean_flux: float) -> ChannelField:
    """u = (D_y psi + flux, -D_x psi) with the commuting-stencil pairing."""
    if psi_eps.components != 1:
        raise ValueError("expected a scalar stream field")
    grid = psi_eps.grid
    vals = psi_eps.values[0]
    u = np.empty((2, grid.nx, grid.ny))
    u[0] = _ddy(vals, grid.hy)
    u[0] += mean_flux
    np.negative(spectral_dx(vals, grid), out=u[1])
    return ChannelField._adopt(grid, u)


def max_discrete_divergence(u: ChannelField) -> float:
    """max |D_x u1 + D_y u2| with the same stencils used to build u."""
    if u.components != 2:
        raise ValueError("expected a 2-component velocity field")
    grid = u.grid
    div = spectral_dx(u.values[0], grid) + _ddy(u.values[1], grid.hy)
    return float(np.max(np.abs(div)))


@dataclass(frozen=True)
class MollificationReport:
    """Per-epsilon smoothing diagnostics for one velocity field.

    c_beta_errors maps each Holder order beta to the estimated
    C^beta-norm of u_eps - u per epsilon; norm_ratios tracks the
    estimated C^alpha norm of u_eps against that of u;
    wall_residuals and max_divergences record the exactness checks.
    """

    alpha: float
    epsilons: tuple
    c_beta_errors: Mapping[float, tuple]
    norm_ratios: tuple
    wall_residuals: tuple
    max_divergences: tuple

    def __post_init__(self):
        n = len(self.epsilons)
        for beta, errs in self.c_beta_errors.items():
            if len(errs) != n:
                raise ValueError(f"error list for beta={beta} has wrong length")
        if len(self.norm_ratios) != n or len(self.wall_residuals) != n:
            raise ValueError("per-epsilon lists must align with epsilons")


def mollification_report(
    u: ChannelField,
    alpha: float,
    epsilons: Sequence[float],
) -> MollificationReport:
    """Sweep mollification widths and record convergence and norm ratios."""
    if len(epsilons) < 3:
        raise ValueError("need at least 3 epsilons for a sweep")
    grid = u.grid
    psi, flux = stream_from_velocity(u)
    u_norm = c_alpha_norm(u.values, grid, alpha)
    errors = {b: [] for b in _BETAS}
    ratios, walls, divs = [], [], []
    for eps in epsilons:
        psi_eps = mollify_stream(psi, Mollifier(eps))
        u_eps = velocity_from_stream(psi_eps, flux)
        diff = u_eps.values - u.values
        for b, errs in errors.items():
            errs.append(c_alpha_norm(diff, grid, b))
        ratios.append(c_alpha_norm(u_eps.values, grid, alpha) / u_norm)
        walls.append(_wall_max(u_eps.values[1]))
        divs.append(max_discrete_divergence(u_eps))
    return MollificationReport(
        alpha=float(alpha),
        epsilons=tuple(float(e) for e in epsilons),
        c_beta_errors={b: tuple(v) for b, v in errors.items()},
        norm_ratios=tuple(ratios),
        wall_residuals=tuple(walls),
        max_divergences=tuple(divs),
    )
