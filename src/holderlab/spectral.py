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
grids and lets the inverse x-FFT write straight into the output.  The
x-FFTs run in column pieces of the block runner in :mod:`holderlab.fields`.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.fft

from .fields import ChannelGrid, _run_pieces

__all__ = ["x_wavenumbers", "spectral_dx", "spectral_dxx", "solve_poisson"]


def x_wavenumbers(grid: ChannelGrid) -> np.ndarray:
    """Angular wavenumbers of the rfft modes along x."""
    return 2.0 * math.pi * np.fft.rfftfreq(grid.nx, d=grid.hx)


def _x_fft(fft, src: np.ndarray, out: np.ndarray, **kwargs) -> np.ndarray:
    """fft(src, axis=0, out=out) run in column pieces of the block runner;
    each column's transform is the same whatever the partition."""
    _run_pieces(lambda a, b: fft(src[:, a:b], axis=0, out=out[:, a:b], **kwargs),
                src.shape[1], src.size)
    return out


def _x_spectrum(vals: np.ndarray, grid: ChannelGrid) -> np.ndarray:
    """The rfft of vals along x into a new half-spectrum."""
    return _x_fft(np.fft.rfft, vals, np.empty((grid.nx // 2 + 1, vals.shape[1]), complex))


def spectral_dx(vals: np.ndarray, grid: ChannelGrid) -> np.ndarray:
    """First x-derivative by FFT; the Nyquist mode (nx is even) is dropped."""
    k = x_wavenumbers(grid)
    hat = _x_spectrum(vals, grid)
    hat *= 1j * k[:, None]
    hat[-1] = 0.0
    return _x_fft(np.fft.irfft, hat, np.empty(vals.shape), n=grid.nx)


def spectral_dxx(vals: np.ndarray, grid: ChannelGrid) -> np.ndarray:
    """Second x-derivative by FFT."""
    k = x_wavenumbers(grid)
    hat = _x_spectrum(vals, grid)
    hat *= -(k[:, None] ** 2)
    return _x_fft(np.fft.irfft, hat, np.empty(vals.shape), n=grid.nx)


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
    hat = forward(_x_spectrum(rhs[:, rows], grid), type=1, axis=1, overwrite_x=True)
    m = np.arange(m0, ny - m0)
    symbol = x_wavenumbers(grid)[:, None] ** 2 + (
        (2.0 / grid.hy) * np.sin(0.5 * math.pi * m / (ny - 1))) ** 2
    if bc == "neumann":
        hat[0, 0] = 0.0
        symbol[0, 0] = 1.0
    hat /= symbol
    del symbol  # free it before the inverse transforms allocate
    u = np.zeros((grid.nx, ny))
    _x_fft(np.fft.irfft, inverse(hat, type=1, axis=1, overwrite_x=True), u[:, rows], n=grid.nx)
    return u
