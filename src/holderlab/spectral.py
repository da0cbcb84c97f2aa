"""Spectral x-calculus and the channel Poisson kernel.

Fields on the periodic channel are differentiated spectrally in x and
by three-point finite differences in y.  On either wall closure the
y-stencil of -d_yy is diagonalised exactly by a type-1 trigonometric
transform (Hockney, J. ACM 12, 1965):

  * zero Dirichlet walls: the interior rows, by the sine transform
    (DST-I), with eigenvalues 4 sin^2(pi m / (2 (ny-1))) / hy^2,
    m = 1 .. ny-2;
  * ghost-point Neumann walls (u[-1] = u[1] at each wall, the even
    reflection): every row, by the cosine transform (DCT-I), with the
    same eigenvalues for m = 0 .. ny-1.

So -lap(u) = rhs is solved by an x-FFT, one y-transform, a division by
k_x^2 plus the y-eigenvalue, and the two inverse transforms.  The x-FFT
goes first, which measured slightly faster than the other order on tall
grids.  Every transform is one ``scipy.fft`` call; its ``workers`` follow
the block runner's size rule, and no 1-D transform depends on them.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.fft

from . import fields
from .fields import ChannelGrid

__all__ = ["x_wavenumbers", "spectral_dx", "spectral_dxx", "solve_poisson"]


def x_wavenumbers(grid: ChannelGrid) -> np.ndarray:
    """Angular wavenumbers of the rfft modes along x."""
    return 2.0 * math.pi * scipy.fft.rfftfreq(grid.nx, d=grid.hx)


def _workers(a: np.ndarray) -> int:
    """scipy.fft workers for a: every usable CPU for a large array, else 1."""
    return fields._CPUS if a.size >= fields._PARALLEL_NODES else 1


def _x_derivative(vals: np.ndarray, grid: ChannelGrid, order: int) -> np.ndarray:
    """The first or second x-derivative: rfft, times the symbol, irfft."""
    k = x_wavenumbers(grid)[:, None]
    hat = scipy.fft.rfft(vals, axis=0, workers=_workers(vals))
    if order == 1:
        hat *= 1j * k
        hat[-1] = 0.0
    else:
        hat *= -(k**2)
    return scipy.fft.irfft(hat, grid.nx, axis=0, overwrite_x=True, workers=_workers(hat))


def spectral_dx(vals: np.ndarray, grid: ChannelGrid) -> np.ndarray:
    """First x-derivative by FFT; the Nyquist mode (nx is even) is dropped."""
    return _x_derivative(vals, grid, 1)


def spectral_dxx(vals: np.ndarray, grid: ChannelGrid) -> np.ndarray:
    """Second x-derivative by FFT."""
    return _x_derivative(vals, grid, 2)


def solve_poisson(rhs: np.ndarray, grid: ChannelGrid, bc: str) -> np.ndarray:
    """Solve -lap(u) = rhs, spectral in x, three-point stencil in y.

    bc="dirichlet": u = 0 on both walls.  Only the interior rows of rhs
    are read, and the wall rows of u are exact zeros.

    bc="neumann": ghost-point closure du/dy = 0 at both walls.  The
    singular mode (k_x = 0, cosine index 0) carries the trapezoid mean
    of rhs; it is projected out, so u solves -lap(u) = rhs - mean and
    has zero trapezoid mean.
    """
    if bc == "dirichlet":
        rows, forward, inverse, m0 = slice(1, -1), scipy.fft.dst, scipy.fft.idst, 1
    elif bc == "neumann":
        rows, forward, inverse, m0 = slice(None), scipy.fft.dct, scipy.fft.idct, 0
    else:
        raise ValueError(f"bc must be 'dirichlet' or 'neumann', got {bc!r}")
    ny = grid.ny
    hat = scipy.fft.rfft(rhs[:, rows], axis=0, workers=_workers(rhs[:, rows]))
    workers = _workers(hat)
    hat = forward(hat, type=1, axis=1, overwrite_x=True, workers=workers)
    m = np.arange(m0, ny - m0)
    symbol = x_wavenumbers(grid)[:, None] ** 2 + (
        (2.0 / grid.hy) * np.sin(0.5 * math.pi * m / (ny - 1))) ** 2
    if bc == "neumann":
        hat[0, 0] = 0.0
        symbol[0, 0] = 1.0
    hat /= symbol
    del symbol  # free it before the inverse transforms allocate
    hat = inverse(hat, type=1, axis=1, overwrite_x=True, workers=workers)
    u = scipy.fft.irfft(hat, grid.nx, axis=0, overwrite_x=True, workers=workers)
    return u if bc == "neumann" else np.pad(u, ((0, 0), (1, 1)))
