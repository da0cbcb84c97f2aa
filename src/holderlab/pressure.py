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
import scipy.fft

# holder_quotient is not called here.  It stays imported because the
# benchmark's instrumentation test (perfbench/test_perfbench.py) checks,
# on this name, that names imported from another module are traced.
from .fields import (  # noqa: F401
    ChannelField,
    ChannelGrid,
    _c_alpha_parts,
    _check_norm_scales,
    _run_blocks,
    _sum_products,
    _workers,
    c_alpha_norm,
    check_tangential,
    holder_quotient,
)
from .spectral import _derivative, _x_symbol, _y_solve, solve_poisson
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


# The y-stencils write out from v, both with y as the last axis.  The first
# and last y of v are taken as walls; a block that starts or ends inside the
# channel reads one halo y past each such end and discards what the stencil
# writes there.


def _dy_odd_stencil(v: np.ndarray, out: np.ndarray, hy: float) -> None:
    """Centered y-derivative; walls use odd-reflection ghosts."""
    mid = np.subtract(v[:, 2:], v[:, :-2], out=out[:, 1:-1])
    mid /= 2.0 * hy
    out[:, 0] = v[:, 1] / hy
    out[:, -1] = -v[:, -2] / hy


def _dyy_even_stencil(v: np.ndarray, out: np.ndarray, hy: float) -> None:
    """Centered second y-derivative; walls use even-reflection ghosts."""
    # (v[j+1] - 2 v[j] + v[j-1]) / hy^2, evaluated in that order
    mid = np.multiply(v[:, 1:-1], 2.0, out=out[:, 1:-1])
    np.subtract(v[:, 2:], mid, out=mid)
    mid += v[:, :-2]
    mid /= hy**2
    out[:, 0] = 2.0 * (v[:, 1] - v[:, 0]) / hy**2
    out[:, -1] = 2.0 * (v[:, -2] - v[:, -1]) / hy**2


def _trapezoid_mean(column_means: np.ndarray) -> float:
    """The trapezoid rule in y over the x-means of the columns."""
    z = np.ones(column_means.size)
    z[0] = z[-1] = 0.5
    return float(column_means @ z / z.sum())


def _x_means(lines: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The mean of each x-line (row) of an x-fast block, summed in x order
    through scratch of the block's shape.  That is bitwise the column mean
    np.mean(vals, axis=0) of the x-slow array; a pairwise sum along each
    row would not be."""
    return np.add.accumulate(lines, axis=1, out=scratch)[:, -1] / lines.shape[1]


def _div_div(q11: np.ndarray, q12: np.ndarray, q22: np.ndarray, s: slice, hy: float,
             dx: np.ndarray, dxx: np.ndarray, workers: int) -> np.ndarray:
    """d_x d_x q11 + 2 d_x d_y q12 + d_y d_y q22 on the y-rows s, summed left
    to right: the one spelling of d_i d_j q_ij.  The q are arrays of one shape
    and layout, y-first with x the last axis, whose first and last y are
    walls or halos (see the y-stencils); dx and dxx are the symbols of
    :func:`spectral._x_symbol`, and the x-FFTs run on workers.  q11 is read
    first and then overwritten: its buffer takes the y-differences, so that
    no other buffer is made."""
    r = _derivative(q11[s], 1, dxx, 2, workers)
    dq = q11
    _dy_odd_stencil(q12.T, dq.T, hy)
    term = _derivative(dq[s], 1, dx, 1, workers)
    term *= 2.0
    r += term
    del term
    _dyy_even_stencil(q22.T, dq.T, hy)
    r += dq[s]
    return r


def solve_modified_pressure(u: ChannelField, phi: CutoffProfile) -> PressureSolution:
    """Solve the Neumann problem for the modified pressure.

    The solve is three passes over blocks of the block runner, each block
    worked through in cache:

    1. per block of y-columns, with one halo column each side: u1 and u2
       moved x-fast, their products, and the right-hand side
       :func:`_div_div` of them minus lap(G), G = phi * u2^2; the block's
       rhs kept x-fast, its rfft written into the spectrum, and its max
       |rhs| and the x-means of its rhs and G columns taken;
    2. per block of x-mode rows: the y-solve of :func:`spectral._y_solve`;
    3. per block of y-columns, with halos: the irfft to P's columns, and
       from the same x-fast block lap(P) + rhs - mean(rhs), its max, and
       the x-means of P's columns.

    Each element and each x-mean takes the same floating-point operations
    as the whole-array expressions, so nothing depends on the partition.
    Then P is shifted to the channel mean of G, and p = P - G is written,
    with G recomputed elementwise, into the buffer that held the rhs.  At
    most the rhs, the spectrum, P and one block's buffers per piece are
    alive at a time.
    """
    check_tangential(u)
    grid = u.grid
    nx, ny, hy = grid.nx, grid.ny, grid.hy
    u1, u2 = u.values[0], u.values[1]
    phi_y = phi.on_grid(grid)
    dx, dxx = _x_symbol(grid, 1), _x_symbol(grid, 2)
    p_vals = np.empty((nx, ny))
    rhs = p_vals.reshape(ny, nx)  # x-fast, in the buffer that p takes over
    hat = np.empty((nx // 2 + 1, ny), complex)

    def window(a, b):
        """The columns a..b-1 with a halo column each side inside the
        channel, and where a..b-1 sit in them."""
        lo, hi = max(a - 1, 0), min(b + 1, ny)
        return lo, hi, slice(a - lo, b - lo)

    def assemble(a, b):
        lo, hi, s = window(a, b)
        v1, v2 = u1[:, lo:hi].T.copy(), u2[:, lo:hi].T.copy()
        dq = v1 * v1  # u1^2, then the kernel's and lap(G)'s y-differences
        q12 = np.multiply(v1, v2, out=v1)
        g = np.multiply(v2, v2, out=v2)  # u2^2, then G, in v2's buffer
        r = _div_div(dq, q12, g, s, hy, dx, dxx, 1)
        del v1, q12
        g *= phi_y[lo:hi, None]
        r -= _derivative(g[s], 1, dxx, 2, 1)
        _dyy_even_stencil(g.T, dq.T, hy)
        r -= dq[s]
        rhs[a:b] = r
        hat[:, a:b] = scipy.fft.rfft(r, axis=1, workers=1).T
        scratch = dq[s]
        return np.abs(r, out=scratch).max(), _x_means(r, scratch), _x_means(g[s], scratch)

    # a block holds at most six x-fast buffers at a time, one of them a
    # spectrum, which takes about _BLOCK_BYTES
    blocks = _run_blocks(assemble, ny, 16 * (nx // 2 + 1), nx * ny)
    rhs_scale = max(float(np.max([m for m, _, _ in blocks])), 1e-300)
    rhs_mean = _trapezoid_mean(np.concatenate([r for _, r, _ in blocks]))
    G_mean = _trapezoid_mean(np.concatenate([g for _, _, g in blocks]))

    _y_solve(hat, grid, "neumann")

    P = np.empty((nx, ny))

    def back(a, b):
        lo, hi, s = window(a, b)
        w = scipy.fft.irfft(hat[:, lo:hi].T, nx, axis=1, workers=1)
        P[:, a:b] = w[s].T
        lap = _derivative(w[s], 1, dxx, 2, 1)
        dq = np.empty_like(w)
        _dyy_even_stencil(w.T, dq.T, hy)
        lap += dq[s]
        lap += np.subtract(rhs[a:b], rhs_mean, out=dq[s])
        return np.abs(lap, out=lap).max(), _x_means(w[s], dq[s])

    blocks = _run_blocks(back, ny, 16 * (nx // 2 + 1), nx * ny)
    pde_residual = float(np.max([m for m, _ in blocks])) / rhs_scale
    del rhs, hat

    P += G_mean - _trapezoid_mean(np.concatenate([m for _, m in blocks]))
    np.multiply(u2, u2, out=p_vals)
    p_vals *= phi_y[None, :]
    np.subtract(P, p_vals, out=p_vals)
    neumann = max(
        float(np.max(np.abs(P[:, 1] - P[:, 0]))),
        float(np.max(np.abs(P[:, -1] - P[:, -2]))),
    ) / grid.hy
    mean_res = abs(_trapezoid_mean(np.mean(P, axis=0)) - G_mean)
    return PressureSolution(
        P=ChannelField._adopt(grid, P),
        p=ChannelField._adopt(grid, p_vals),
        mean_constraint_residual=mean_res,
        neumann_residual=neumann,
        pde_residual=pde_residual,
        compatibility_defect=abs(rhs_mean) / rhs_scale,
    )


def estimate_ratio(sol: PressureSolution, u: ChannelField, alpha: float) -> float:
    """Estimated C^alpha norm of P over that of the velocity tensor u x u,
    the largest norm of u1^2, u1 u2 and u2^2, which are written into one
    stack and take their norms from one scan."""
    grid = u.grid
    u1, u2 = u.values[0], u.values[1]
    tensor = np.empty((3, grid.nx, grid.ny))
    np.multiply(u1, u1, out=tensor[0])
    np.multiply(u1, u2, out=tensor[1])
    np.multiply(u2, u2, out=tensor[2])
    den = float(np.max(np.add(*_c_alpha_parts(tensor, grid, alpha))))
    del tensor
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
        """Node values on the grid, bitwise :meth:`evaluate` on its axes:
        the one-poly call of the stacked x-row-block sampler."""
        return _sample_stack((self,), grid)[0]


def _sample_stack(polys, grid: ChannelGrid) -> np.ndarray:
    """Node values of each :class:`TrigPoly2D` of polys, stacked (k, nx, ny).

    The trig factors are taken on the 1-D axes on the calling thread; the
    terms then go through :func:`fields._sum_products` with scale amp, as
    term = fx*fy, term *= amp, out += term.  That is bitwise :meth:`evaluate`'s
    out += amp * (fx * fy), with one block of scratch and no grid-sized
    temporaries.
    """
    x, y = grid.x, grid.y
    products = []
    for i, poly in enumerate(polys):
        for amp, kx, ky, basis in poly.terms:
            fx, fy = _BASIS[basis]
            products.append((i, fx(kx * math.pi * x)[:, None], fy(ky * math.pi * y), amp))
    out = np.zeros((len(polys), grid.nx, grid.ny))
    _sum_products(out, products)
    return out


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
    """Per-resolution norm ratios for the Dirichlet double-divergence solve.
    zero_data is set when the data vanish at some resolution, whose ratio is
    then 0.0."""

    alpha: float
    resolutions: tuple
    ratios: tuple
    zero_data: bool

    @property
    def spread(self) -> float:
        """max(ratios) / min(ratios); inf when the smallest ratio is not
        positive, as it is whenever the data vanish."""
        low = min(self.ratios)
        return max(self.ratios) / low if low > 0.0 else math.inf


def _solve_div_div(F: np.ndarray, grid: ChannelGrid) -> np.ndarray:
    """v of lap(v) = d_i d_j F_ij, v = 0 at the walls, from the (3, nx, ny)
    samples of F11, F12 and F22.  The F11 samples are overwritten."""
    # the transposed samples are y-first views, made without a copy
    rhs = _div_div(F[0].T, F[1].T, F[2].T, slice(None), grid.hy, _x_symbol(grid, 1),
                   _x_symbol(grid, 2), _workers(grid.nx * grid.ny))
    np.negative(rhs, out=rhs)
    return solve_poisson(rhs.T, grid, "dirichlet")


def solve_schauder_problem(F11: TrigPoly2D, F12: TrigPoly2D, F22: TrigPoly2D,
                           grid: ChannelGrid) -> ChannelField:
    """Solve lap(v) = d_i d_j F_ij with v = 0 at the walls."""
    return ChannelField._adopt(grid, _solve_div_div(_sample_stack((F11, F12, F22), grid), grid))


def dirichlet_schauder_check(
    F11: TrigPoly2D,
    F12: TrigPoly2D,
    F22: TrigPoly2D,
    alpha: float,
    resolutions: Sequence[int],
) -> SchauderSweep:
    """Norm-ratio sweep ||v|| / ||F|| in the estimated C^alpha norms, ||F||
    the largest norm of F11, F12 and F22, on the grid n x (n/2 + 1) of each
    resolution n.

    Per resolution the three data are sampled once, into one stack.  ||F||
    comes from one scan of that stack, before the solve overwrites it, and
    v is solved from the same samples, bitwise :func:`solve_schauder_problem`;
    zero data skip the solve.  Raises ValueError before any work on an empty
    resolutions, an alpha outside [0, 1] and a resolution too coarse for the
    norm estimate (below 32, 4 max(hx, hy) = 8/n exceeds 0.25).
    """
    resolutions = tuple(int(n) for n in resolutions)
    if not resolutions:
        raise ValueError("resolutions must name at least one resolution")
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    grids = [ChannelGrid(nx=n, ny=n // 2 + 1) for n in resolutions]
    for grid in grids:
        _check_norm_scales(grid)
    ratios = []
    zero_data = False
    for grid in grids:
        F = _sample_stack((F11, F12, F22), grid)
        f_norm = float(np.max(np.add(*_c_alpha_parts(F, grid, alpha))))
        if f_norm == 0.0:
            zero_data = True
            ratios.append(0.0)
        else:
            ratios.append(c_alpha_norm(_solve_div_div(F, grid), grid, alpha) / f_norm)
    return SchauderSweep(
        alpha=float(alpha),
        resolutions=resolutions,
        ratios=tuple(ratios),
        zero_data=zero_data,
    )
