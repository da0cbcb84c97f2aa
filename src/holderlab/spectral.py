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
grids.

Every transform is a ``scipy.fft`` call.  The x-transforms of
:func:`spectral_dx`, :func:`solve_poisson` and the Schauder right-hand
side of :mod:`holderlab.pressure` are one whole-array call each, on the
workers that the block runner's size rule, ``fields._workers``, gives
their real values: every usable CPU from ``_PARALLEL_NODES`` values on,
otherwise one.  The second x-derivative has no public function; the
pressure solves take it through ``_derivative`` with the order-2 symbol.
The y-part of a solve (the y-transform, the division by the symbol and
the inverse, ``_y_solve``) runs on the runner's blocks of x-mode rows,
whose y-lines are contiguous, with one worker per block.  The
modified-pressure solve of :mod:`holderlab.pressure` runs these same
line kernels, with one worker, inside its own three block passes.  No
1-D transform depends on the partition or the worker count.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.fft

from .fields import ChannelGrid, _run_blocks, _workers

__all__ = ["x_wavenumbers", "spectral_dx", "solve_poisson"]


def x_wavenumbers(grid: ChannelGrid) -> np.ndarray:
    """Angular wavenumbers of the rfft modes along x."""
    return 2.0 * math.pi * scipy.fft.rfftfreq(grid.nx, d=grid.hx)


def _x_symbol(grid: ChannelGrid, order: int) -> np.ndarray:
    """The rfft-mode symbol of the first or second x-derivative."""
    k = x_wavenumbers(grid)
    return 1j * k if order == 1 else -(k**2)


def _derivative(lines: np.ndarray, axis: int, symbol: np.ndarray, order: int,
                workers: int) -> np.ndarray:
    """The order-th x-derivative of every x-line of lines along axis: rfft,
    times the symbol of :func:`_x_symbol`, irfft, each on workers.  The
    first derivative drops the Nyquist mode (nx is even)."""
    hat = scipy.fft.rfft(lines, axis=axis, workers=workers)
    modes = np.moveaxis(hat, axis, -1)  # a view of hat with x last
    modes *= symbol
    if order == 1:
        modes[..., -1] = 0.0
    return scipy.fft.irfft(hat, 2 * (symbol.size - 1), axis=axis, overwrite_x=True,
                           workers=workers)


def spectral_dx(vals: np.ndarray, grid: ChannelGrid) -> np.ndarray:
    """First x-derivative by FFT; the Nyquist mode (nx is even) is dropped."""
    return _derivative(vals, 0, _x_symbol(grid, 1), 1, _workers(vals.size))


def _y_transforms(bc: str):
    """(rhs rows, forward, inverse, first y-mode) of a wall closure."""
    if bc == "dirichlet":
        return slice(1, -1), scipy.fft.dst, scipy.fft.idst, 1
    if bc == "neumann":
        return slice(None), scipy.fft.dct, scipy.fft.idct, 0
    raise ValueError(f"bc must be 'dirichlet' or 'neumann', got {bc!r}")


def _y_solve_rows(hat: np.ndarray, start: int, k2: np.ndarray, lam: np.ndarray,
                  bc: str) -> None:
    """The y-part of the Poisson kernel, in place, on the x-mode rows
    start, start + 1, ... of a spectrum hat whose columns are y: the type-1
    y-transform, a division by k_x^2 + the y-eigenvalue, and the inverse,
    with one worker.  k2 holds k_x^2 of every x-mode and lam the
    y-eigenvalues.  The Neumann mode (k_x = 0, cosine index 0) is set to
    zero."""
    _, forward, inverse, _ = _y_transforms(bc)
    out = forward(hat, type=1, axis=1, overwrite_x=True, workers=1)
    symbol = k2[start:start + len(hat), None] + lam
    if bc == "neumann" and start == 0:
        out[0, 0] = 0.0
        symbol[0, 0] = 1.0
    out /= symbol
    out = inverse(out, type=1, axis=1, overwrite_x=True, workers=1)
    if not np.may_share_memory(out, hat):  # scipy transformed a copy
        hat[...] = out


def _y_solve(hat: np.ndarray, grid: ChannelGrid, bc: str) -> None:
    """:func:`_y_solve_rows` on every x-mode row of hat, in place, on the
    row blocks of :func:`_run_blocks`, whose spectra take about
    ``_BLOCK_BYTES``."""
    ny = grid.ny
    m0 = _y_transforms(bc)[3]
    m = np.arange(m0, ny - m0)
    k2 = x_wavenumbers(grid) ** 2
    lam = ((2.0 / grid.hy) * np.sin(0.5 * math.pi * m / (ny - 1))) ** 2
    _run_blocks(lambda a, b: _y_solve_rows(hat[a:b], a, k2, lam, bc), hat.shape[0],
                hat.itemsize * hat.shape[1], hat.size)


def solve_poisson(rhs: np.ndarray, grid: ChannelGrid, bc: str) -> np.ndarray:
    """Solve -lap(u) = rhs, spectral in x, three-point stencil in y.

    bc="dirichlet": u = 0 on both walls.  Only the interior rows of rhs
    are read, and the wall rows of u are exact zeros.

    bc="neumann": ghost-point closure du/dy = 0 at both walls.  The
    singular mode (k_x = 0, cosine index 0) carries the trapezoid mean
    of rhs; it is projected out, so u solves -lap(u) = rhs - mean and
    has zero trapezoid mean.
    """
    src = rhs[:, _y_transforms(bc)[0]]
    workers = _workers(src.size)
    hat = scipy.fft.rfft(src, axis=0, workers=workers)
    _y_solve(hat, grid, bc)
    u = scipy.fft.irfft(hat, grid.nx, axis=0, overwrite_x=True, workers=workers)
    return u if bc == "neumann" else np.pad(u, ((0, 0), (1, 1)))
