"""Divergence-free mollification of channel velocity fields.

Pipeline: recover the stream function of the wall-tangential part of u
(the uniform flux component is split off and carried unmollified, since
the periodic channel supports a curl-free, divergence-free field that
no wall-vanishing stream function can represent), extend it oddly
across both walls, convolve with a compactly supported radial bump,
and rebuild the velocity.

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

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.integrate import quad

from .fields import ChannelField, ChannelGrid, c_alpha_norm, check_tangential
from .spectral import solve_poisson, spectral_dx

__all__ = [
    "Mollifier",
    "ExtendedStream",
    "MollificationReport",
    "standard_bump_profile",
    "make_mollifier",
    "stream_from_velocity",
    "odd_extend",
    "mollify_stream",
    "velocity_from_stream",
    "max_discrete_divergence",
    "mollification_report",
]


def _bump_normalization() -> float:
    integral, _ = quad(lambda r: 2.0 * math.pi * r * math.exp(-1.0 / (1.0 - r * r)),
                       0.0, 1.0)
    return 1.0 / integral


_BUMP_SCALE = None


def standard_bump_profile() -> Callable[[float], float]:
    """The bump exp(-1/(1-r^2)) on r < 1, scaled to unit plane integral."""
    global _BUMP_SCALE
    if _BUMP_SCALE is None:
        _BUMP_SCALE = _bump_normalization()
    scale = _BUMP_SCALE

    def profile(r: float) -> float:
        if r >= 1.0:
            return 0.0
        return scale * math.exp(-1.0 / (1.0 - r * r))

    return profile


@dataclass(frozen=True)
class Mollifier:
    """Radial kernel with support radius epsilon and unit-mass profile.

    profile(r) is the plane density at radius r on the unit ball; the
    scaled kernel is epsilon^-2 * profile(r / epsilon).  Use
    :func:`make_mollifier` for a validated instance.
    """

    epsilon: float
    profile: Callable[[float], float]


def make_mollifier(epsilon: float, profile: Callable[[float], float] | None = None) -> Mollifier:
    """Validate support, nonnegativity, and unit mass of the profile."""
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if profile is None:
        profile = standard_bump_profile()
    for r in np.linspace(0.0, 0.999, 25):
        if profile(float(r)) < 0.0:
            raise ValueError("profile must be nonnegative")
    for r in (1.0, 1.1, 2.0):
        if profile(r) != 0.0:
            raise ValueError("profile must vanish for r >= 1")
    integral, _ = quad(lambda r: 2.0 * math.pi * r * profile(r), 0.0, 1.0)
    if abs(integral - 1.0) > 1e-10:
        raise ValueError(f"profile integral is {integral}, expected 1")
    return Mollifier(epsilon=float(epsilon), profile=profile)


@dataclass(frozen=True)
class ExtendedStream:
    """Stream samples on y in [-margin, 1 + margin], odd about each wall.

    values has shape (nx, ny + 2 * margin_rows); column margin_rows is
    the wall y = 0.
    """

    grid: ChannelGrid
    margin_rows: int
    values: np.ndarray

    @property
    def margin(self) -> float:
        return self.margin_rows * self.grid.hy

    @property
    def y(self) -> np.ndarray:
        g = self.grid
        return (np.arange(-self.margin_rows, g.ny + self.margin_rows)) * g.hy


def _ddy(vals: np.ndarray, hy: float) -> np.ndarray:
    """y-derivative: centered interior, second-order one-sided at walls."""
    out = np.empty_like(vals)
    out[:, 1:-1] = (vals[:, 2:] - vals[:, :-2]) / (2.0 * hy)
    out[:, 0] = (-3.0 * vals[:, 0] + 4.0 * vals[:, 1] - vals[:, 2]) / (2.0 * hy)
    out[:, -1] = (3.0 * vals[:, -1] - 4.0 * vals[:, -2] + vals[:, -3]) / (2.0 * hy)
    return out


def _require_velocity(u: ChannelField) -> None:
    if u.components != 2:
        raise ValueError("expected a 2-component velocity field")


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


def odd_extend(psi: ChannelField, margin: float = 0.25) -> ExtendedStream:
    """Extend a wall-vanishing stream oddly past y = 0 and y = 1."""
    if psi.components != 1:
        raise ValueError("expected a scalar stream field")
    grid = psi.grid
    vals = psi.values[0]
    wall_worst = max(np.max(np.abs(vals[:, 0])), np.max(np.abs(vals[:, -1])))
    if wall_worst > 1e-12:
        raise ValueError(
            f"stream has nonzero wall values (max {wall_worst:.3e}); odd "
            "extension needs exact zeros"
        )
    m = int(round(margin / grid.hy))
    if m < 1:
        raise ValueError(f"margin {margin} is below one grid spacing")
    if m > grid.ny - 1:
        raise ValueError(f"margin {margin} exceeds the channel height")
    ext = np.zeros((grid.nx, grid.ny + 2 * m))
    ext[:, m:m + grid.ny] = vals
    ext[:, m] = 0.0
    ext[:, m + grid.ny - 1] = 0.0
    for t in range(1, m + 1):
        ext[:, m - t] = -ext[:, m + t]
        ext[:, m + grid.ny - 1 + t] = -ext[:, m + grid.ny - 1 - t]
    return ExtendedStream(grid=grid, margin_rows=m, values=ext)


def _kernel_weights(m: Mollifier, grid: ChannelGrid) -> tuple[np.ndarray, int, int]:
    """Discrete kernel on grid offsets, normalized to unit sum."""
    ax = int(m.epsilon / grid.hx)
    ay = int(m.epsilon / grid.hy)
    w = np.zeros((2 * ax + 1, 2 * ay + 1))
    for a in range(-ax, ax + 1):
        for b in range(-ay, ay + 1):
            r = math.hypot(a * grid.hx, b * grid.hy) / m.epsilon
            w[a + ax, b + ay] = m.profile(r)
    total = w.sum()
    if total <= 0.0:
        raise ValueError("mollifier support does not reach any grid node")
    return w / total, ax, ay


def mollify_stream(psi_ext: ExtendedStream, m: Mollifier) -> ChannelField:
    """Discrete convolution, periodic in x and odd-reflected in y.

    The output wall rows vanish by the odd symmetry (kernel weights are
    even in the y-offset, data is odd about each wall); they are pinned
    to exact zeros after a 1e-12 sanity check so that downstream wall
    impermeability is bitwise.
    """
    grid = psi_ext.grid
    if m.epsilon >= psi_ext.margin:
        raise ValueError(
            f"epsilon {m.epsilon} does not fit in the extension margin "
            f"{psi_ext.margin}"
        )
    w, ax, ay = _kernel_weights(m, grid)
    mrows, nx = psi_ext.margin_rows, grid.nx
    out = np.zeros((nx, grid.ny))
    tap = np.empty_like(out)
    for b in range(-ay, ay + 1):
        col = psi_ext.values[:, mrows - b:mrows - b + grid.ny]
        for a in range(-ax, ax + 1):
            weight = w[a + ax, b + ay]
            if weight == 0.0:
                continue
            # tap = weight * (col shifted down a rows, x periodic): rows
            # [s:] take col[:nx-s], the wrapped rows [:s] take col[nx-s:]
            s = a % nx
            np.multiply(col[:nx - s], weight, out=tap[s:])
            np.multiply(col[nx - s:], weight, out=tap[:s])
            out += tap
    wall_worst = max(np.max(np.abs(out[:, 0])), np.max(np.abs(out[:, -1])))
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
    _require_velocity(u)
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
    betas: Sequence[float] = (0.0, 0.25),
    profile: Callable[[float], float] | None = None,
    margin: float = 0.25,
) -> MollificationReport:
    """Sweep mollification widths and record convergence and norm ratios."""
    if len(epsilons) < 3:
        raise ValueError("need at least 3 epsilons for a sweep")
    _require_velocity(u)
    grid = u.grid
    psi, flux = stream_from_velocity(u)
    ext = odd_extend(psi, margin=margin)
    u_norm = c_alpha_norm(u.values, grid, alpha)
    errors = {float(b): [] for b in betas}
    ratios, walls, divs = [], [], []
    for eps in epsilons:
        mol = make_mollifier(eps, profile)
        psi_eps = mollify_stream(ext, mol)
        u_eps = velocity_from_stream(psi_eps, flux)
        diff = u_eps.values - u.values
        for b in betas:
            errors[float(b)].append(c_alpha_norm(diff, grid, float(b)))
        ratios.append(c_alpha_norm(u_eps.values, grid, alpha) / u_norm)
        walls.append(
            max(
                float(np.max(np.abs(u_eps.values[1, :, 0]))),
                float(np.max(np.abs(u_eps.values[1, :, -1]))),
            )
        )
        divs.append(max_discrete_divergence(u_eps))
    return MollificationReport(
        alpha=float(alpha),
        epsilons=tuple(float(e) for e in epsilons),
        c_beta_errors={b: tuple(v) for b, v in errors.items()},
        norm_ratios=tuple(ratios),
        wall_residuals=tuple(walls),
        max_divergences=tuple(divs),
    )
