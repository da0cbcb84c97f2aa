"""Lacunary (Weierstrass-type) divergence-free channel flow.

The velocity family, truncated at n_terms:

    u1(x, y) = - sum_k 2**(-alpha*k) sin(2**k pi x) cos(2**k pi y)
    u2(x, y) = + sum_k 2**(-alpha*k) cos(2**k pi x) sin(2**k pi y)

with stream function (u = (d_y psi, -d_x psi))

    psi(x, y) = -(1/pi) sum_k 2**(-(alpha+1)*k) sin(2**k pi x) sin(2**k pi y)

Each summand is divergence free term by term, u2 vanishes on both walls
exactly, and u lies in C^(0,alpha) uniformly in the truncation.  All
trigonometric arguments are formed as 2**k * coordinate and reduced
dyadically (see :mod:`holderlab.trig`), so samples at dyadic points are
exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import ChannelField, ChannelGrid, _run_blocks
from .trig import cospi_array, sinpi_array

__all__ = [
    "WeierstrassParams",
    "eval_velocity",
    "eval_stream",
    "velocity_field",
    "stream_field",
    "truncation_error_bound",
    "holder_constant_bound",
    "field_divergence_residual",
]


@dataclass(frozen=True)
class WeierstrassParams:
    """Hölder exponent alpha in (0, 1] and truncation index n_terms >= 0.

    The series keeps the terms k = 0 .. n_terms inclusive.
    """

    alpha: float
    n_terms: int

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not isinstance(self.n_terms, int) or self.n_terms < 0:
            raise ValueError(f"n_terms must be a nonnegative integer, got {self.n_terms}")
        if self.n_terms > 60:
            raise ValueError("n_terms > 60 exceeds exact dyadic range")


def _column_and_row(x: np.ndarray, y: np.ndarray) -> bool:
    """True for the axes of a grid: x a column (nx, 1), y a row (1, ny)."""
    return x.ndim == y.ndim == 2 and x.shape[1] == 1 and y.shape[0] == 1


def _add_terms(out: np.ndarray, terms, on_grid_axes: bool) -> None:
    """out[c] = op(out[c], a * b) for each product (c, op, a, b) of each
    term, in order.

    On a grid's axes (every a a column, every b a row) all terms are
    built first, on the 1-D axes and on the calling thread; the products
    then go into the x-row blocks of :func:`_run_blocks`, every product
    into one block before the next block, with one block of scratch per
    block.  Otherwise the terms are added one at a time through one
    scratch array of out's element shape.
    """
    if not on_grid_axes:
        scratch = np.empty(out.shape[1:])
        for term in terms:
            for c, op, a, b in term:
                op(out[c, ...], np.multiply(a, b, out=scratch), out=out[c, ...])
        return
    products = [prod for term in terms for prod in term]
    nx, ny = out.shape[1:]

    def add(a, b):
        block, t = out[:, a:b], np.empty((b - a, ny))
        for c, op, col, row in products:
            op(block[c], np.multiply(col[a:b], row, out=t), out=block[c])

    _run_blocks(add, nx, 8 * ny, out.size)


def _velocity_terms(p: WeierstrassParams, x: np.ndarray, y: np.ndarray):
    for k in range(p.n_terms + 1):
        freq = float(2**k)
        w = 2.0 ** (-p.alpha * k)
        sx, cx = sinpi_array(freq * x), cospi_array(freq * x)
        sy, cy = sinpi_array(freq * y), cospi_array(freq * y)
        yield (0, np.subtract, w * sx, cy), (1, np.add, w * cx, sy)


def eval_velocity(p: WeierstrassParams, x, y) -> np.ndarray:
    """Velocity at point(s) (x, y) as one array of shape (2, ...); unpack
    it as ``u1, u2``.

    Each term's product is formed in scratch and added into the result:
    on a grid's axes (x a column, y a row) in x-row blocks, otherwise one
    term at a time in one temporary of the broadcast shape.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    u = np.zeros((2,) + np.broadcast(x, y).shape)
    _add_terms(u, _velocity_terms(p, x, y), _column_and_row(x, y))
    return u


def _stream_terms(p: WeierstrassParams, x: np.ndarray, y: np.ndarray):
    for k in range(p.n_terms + 1):
        freq = float(2**k)
        w = 2.0 ** (-(p.alpha + 1.0) * k)
        yield ((0, np.subtract, w * sinpi_array(freq * x), sinpi_array(freq * y)),)


def eval_stream(p: WeierstrassParams, x, y) -> np.ndarray:
    """Stream function value(s) at (x, y); u = (d_y psi, -d_x psi)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.zeros(np.broadcast(x, y).shape)
    _add_terms(out[None], _stream_terms(p, x, y), _column_and_row(x, y))
    out /= math.pi
    return out


def velocity_field(p: WeierstrassParams, grid: ChannelGrid) -> ChannelField:
    """Sample the velocity on a grid as a two-component field.

    The axes are passed as a column and a row, so the trig factors are
    evaluated on the 1-D axes and broadcast into the grid.
    """
    return ChannelField._adopt(grid, eval_velocity(p, grid.x[:, None], grid.y[None, :]))


def stream_field(p: WeierstrassParams, grid: ChannelGrid) -> ChannelField:
    """Sample the stream function on a grid (axes broadcast as above)."""
    return ChannelField._adopt(grid, eval_stream(p, grid.x[:, None], grid.y[None, :]))


def truncation_error_bound(p: WeierstrassParams) -> float:
    """Uniform bound on the dropped tail: 2**(-alpha(N+1)) / (1 - 2**-alpha)."""
    a = p.alpha
    return 2.0 ** (-a * (p.n_terms + 1)) / (1.0 - 2.0**-a)


def holder_constant_bound(alpha: float) -> float:
    """Closed-form bound for the C^(0,alpha) seminorm of the full series.

    2**(1-alpha) * (1/(1 - 2**-alpha) + 2*pi/(2**(1-alpha) - 1)); finite
    for alpha in (0, 1) only.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha}")
    return 2.0 ** (1.0 - alpha) * (
        1.0 / (1.0 - 2.0**-alpha) + 2.0 * math.pi / (2.0 ** (1.0 - alpha) - 1.0)
    )


def field_divergence_residual(u: ChannelField) -> float:
    """Max |centered-difference divergence| over interior nodes.

    x-differences wrap periodically; y-differences use the interior rows
    only.  This is the plain second-order residual used for convergence
    studies, not the exact-pairing operator of the mollifier module.

    Each lacunary term carries the same frequency in x and y, so its
    centered x- and y-differences cancel exactly whenever hx == hy: on
    square cells the residual of a sampled lacunary flow sits at the
    rounding floor.  Convergence-order studies must use hx != hy (for
    example ny = nx/4 + 1 on period 2) to see the second-order remainder.
    """
    if u.components != 2:
        raise ValueError("expected a two-component velocity field")
    g = u.grid
    u1, u2 = u.values[0][:, 1:-1], u.values[1]
    # u1[i+1] - u1[i-1] with x periodic: the interior rows, then the two
    # wrapped ones
    div = np.empty_like(u1)
    np.subtract(u1[2:], u1[:-2], out=div[1:-1])
    np.subtract(u1[1], u1[-1], out=div[0])
    np.subtract(u1[0], u1[-2], out=div[-1])
    div /= 2.0 * g.hx
    ddy = u2[:, 2:] - u2[:, :-2]
    ddy /= 2.0 * g.hy
    div += ddy
    return float(np.abs(div, out=div).max())
