"""Spectral x-derivatives and the transform Poisson kernel."""

from __future__ import annotations

import contextlib
import math
import threading

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from holderlab import fields, spectral
from holderlab.fields import ChannelField, ChannelGrid
from holderlab.pressure import (
    CutoffProfile,
    random_symmetric_trig_field,
    solve_modified_pressure,
    solve_schauder_problem,
)
from holderlab.spectral import solve_poisson, spectral_dx, x_wavenumbers

from conftest import banded_poisson, block_partition, dxx_by_expression


def _dxx(vals, grid):
    """The order-2 x-derivative that the pressure solves take."""
    return spectral._derivative(vals, 0, spectral._x_symbol(grid, 2), 2,
                                fields._workers(vals.size))


def test_x_derivatives_of_a_trig_polynomial():
    grid = ChannelGrid(nx=32, ny=5)
    x = grid.x[:, None] * np.ones(grid.ny)
    f = np.sin(3 * math.pi * x) + 0.5 * np.cos(7 * math.pi * x)
    df = 3 * math.pi * np.cos(3 * math.pi * x) - 3.5 * math.pi * np.sin(7 * math.pi * x)
    d2f = -9 * math.pi**2 * np.sin(3 * math.pi * x) - 24.5 * math.pi**2 * np.cos(7 * math.pi * x)
    assert np.max(np.abs(spectral_dx(f, grid) - df)) < 1e-12
    assert np.max(np.abs(_dxx(f, grid) - d2f)) < 1e-10
    assert x_wavenumbers(grid)[-1] == pytest.approx(16 * math.pi)


def test_dx_drops_the_nyquist_mode():
    grid = ChannelGrid(nx=16, ny=3)
    alternating = np.outer((-1.0) ** np.arange(grid.nx), np.ones(grid.ny))
    assert np.max(np.abs(spectral_dx(alternating, grid))) < 1e-12
    nyquist = x_wavenumbers(grid)[-1]
    assert np.allclose(_dxx(alternating, grid), -nyquist**2 * alternating)


def _minus_laplacian(u, grid):
    """Spectral -d_xx plus the three-point -d_yy, evenly reflected at the walls."""
    hy = grid.hy
    dyy = np.empty_like(u)
    dyy[:, 1:-1] = (u[:, 2:] - 2.0 * u[:, 1:-1] + u[:, :-2]) / hy**2
    dyy[:, 0] = 2.0 * (u[:, 1] - u[:, 0]) / hy**2
    dyy[:, -1] = 2.0 * (u[:, -2] - u[:, -1]) / hy**2
    return -(dxx_by_expression(u, grid) + dyy)


def _trapezoid_mean(vals):
    z = np.ones(vals.shape[1])
    z[0] = z[-1] = 0.5
    return float(np.mean(vals, axis=0) @ z / z.sum())


@settings(max_examples=60, deadline=None)
@given(
    log2_nx=st.integers(2, 5),
    ny=st.integers(3, 40),
    seed=st.integers(0, 2**32 - 1),
    bc=st.sampled_from(["dirichlet", "neumann"]),
)
def test_solve_poisson_matches_banded_oracle(log2_nx, ny, seed, bc):
    grid = ChannelGrid(nx=2**log2_nx, ny=ny)
    rhs = np.random.default_rng(seed).standard_normal((grid.nx, ny))
    scale = float(np.max(np.abs(rhs)))
    u = solve_poisson(rhs, grid, bc)
    ref = banded_poisson(rhs, grid, bc)
    diff = u - ref
    if bc == "neumann":
        diff -= diff.mean()  # the oracle fixes a different constant
    assert np.max(np.abs(diff)) <= 1e-12 * np.max(np.abs(ref))
    removed = rhs - _minus_laplacian(u, grid)
    if bc == "dirichlet":
        assert np.all(u[:, [0, -1]] == 0.0)
        assert np.max(np.abs(removed[:, 1:-1])) <= 1e-10 * scale
    else:
        # every ghost-closure row holds; what the solve removed is the
        # trapezoid mean of rhs, and u itself has zero trapezoid mean
        assert np.max(np.abs(removed - _trapezoid_mean(rhs))) <= 1e-10 * scale
        assert abs(_trapezoid_mean(u)) <= 1e-12 * np.max(np.abs(u))


def test_dirichlet_solve_reads_interior_rows_only():
    grid = ChannelGrid(nx=16, ny=11)
    rhs = np.random.default_rng(3).standard_normal((16, 11))
    walls = rhs.copy()
    walls[:, [0, -1]] = 1e6
    assert np.array_equal(solve_poisson(rhs, grid, "dirichlet"),
                          solve_poisson(walls, grid, "dirichlet"))


def test_neumann_solve_of_a_constant_is_zero():
    grid = ChannelGrid(nx=8, ny=9)
    assert np.max(np.abs(solve_poisson(np.full((8, 9), 2.5), grid, "neumann"))) < 1e-15


def test_solve_poisson_rejects_unknown_bc():
    grid = ChannelGrid(nx=8, ny=9)
    with pytest.raises(ValueError, match="bc"):
        solve_poisson(np.zeros((8, 9)), grid, "periodic")


def _whole_array_dx(vals, grid):
    hat = np.fft.rfft(vals, axis=0)
    hat *= 1j * x_wavenumbers(grid)[:, None]
    hat[-1] = 0.0
    return np.fft.irfft(hat, n=grid.nx, axis=0)


def _whole_array_poisson(rhs, grid, bc):
    """solve_poisson's steps with numpy's x-FFTs and one-worker y-transforms."""
    rows, fwd, inv, m0 = ((slice(1, -1), scipy.fft.dst, scipy.fft.idst, 1) if bc == "dirichlet"
                          else (slice(None), scipy.fft.dct, scipy.fft.idct, 0))
    hat = fwd(np.fft.rfft(rhs[:, rows], axis=0), type=1, axis=1)
    m = np.arange(m0, grid.ny - m0)
    symbol = x_wavenumbers(grid)[:, None] ** 2 + (
        (2.0 / grid.hy) * np.sin(0.5 * math.pi * m / (grid.ny - 1))) ** 2
    if bc == "neumann":
        hat[0, 0] = 0.0
        symbol[0, 0] = 1.0
    u = np.zeros((grid.nx, grid.ny))
    u[:, rows] = np.fft.irfft(inv(hat / symbol, type=1, axis=1), n=grid.nx, axis=0)
    return u


@settings(max_examples=60, deadline=None)
@given(
    log2_nx=st.integers(2, 6),
    ny=st.integers(3, 40),
    seed=st.integers(0, 2**32 - 1),
    cpus=st.integers(1, 3),
)
def test_every_worker_count_matches_whole_array_numpy_ffts_bitwise(log2_nx, ny, seed, cpus):
    # every transform on one to three workers, against numpy's x-FFTs
    grid = ChannelGrid(nx=2**log2_nx, ny=ny)
    vals = np.random.default_rng(seed).standard_normal((grid.nx, ny))
    with block_partition(8, cpus):
        got = [spectral_dx(vals, grid), _dxx(vals, grid)] + [
            solve_poisson(vals, grid, bc) for bc in ("dirichlet", "neumann")]
    want = [_whole_array_dx(vals, grid), dxx_by_expression(vals, grid)] + [
        _whole_array_poisson(vals, grid, bc) for bc in ("dirichlet", "neumann")]
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    log2_nx=st.integers(2, 6),
    ny=st.integers(3, 40),
    seed=st.integers(0, 2**32 - 1),
    bc=st.sampled_from(["dirichlet", "neumann"]),
    data=st.data(),
)
def test_row_blocked_y_solve_matches_the_whole_array_solve_bitwise(log2_nx, ny, seed, bc,
                                                                   data):
    # the y-solve on x-mode row blocks, from one row (the singular Neumann
    # mode alone) to every row, in one to three pieces, between the x-FFTs
    # of the solve; these spectra fit in one default block, so the
    # reference solve makes one whole-array y-transform call
    grid = ChannelGrid(nx=2**log2_nx, ny=ny)
    rhs = np.random.default_rng(seed).standard_normal((grid.nx, ny))
    want = solve_poisson(rhs, grid, bc)
    rows = spectral._y_transforms(bc)[0]
    hat = scipy.fft.rfft(rhs[:, rows], axis=0, workers=1)
    block_bytes = data.draw(st.sampled_from([8, 24 * ny, 3 * 24 * ny, 1 << 30]))
    with block_partition(block_bytes, data.draw(st.integers(1, 3))):
        spectral._y_solve(hat, grid, bc)
    got = np.zeros_like(rhs)
    got[:, rows] = scipy.fft.irfft(hat, grid.nx, axis=0, workers=1)
    assert got.tobytes() == want.tobytes()


def _record_fft_calls(monkeypatch):
    """A list that gets (name, thread, shape, nbytes, axis, real values,
    workers) of each scipy.fft call from here on; the real values of an
    irfft are those of its output."""
    seen = []
    for name in ("rfft", "irfft", "dct", "idct", "dst", "idst"):
        def recorded(x, *args, _name=name, _fn=getattr(scipy.fft, name), axis=-1,
                     workers=None, **kwargs):
            n = args[0] if _name == "irfft" else x.shape[axis]
            seen.append((_name, threading.current_thread().name, x.shape, x.nbytes, axis,
                         n * (x.size // x.shape[axis]), workers))
            return _fn(x, *args, axis=axis, workers=workers, **kwargs)
        monkeypatch.setattr(scipy.fft, name, recorded)
    return seen


def test_only_the_calling_thread_takes_more_than_one_fft_worker(monkeypatch):
    # Outside the modified-pressure passes each x-transform is one call over
    # every x-line (axis 0 of an x-slow array, axis 1 of the Schauder
    # samples' y-first views) on the block runner's worker count.  The
    # y-transforms, and every call inside the runner's pieces, take one
    # worker, and a y-transform takes a block of at most _BLOCK_BYTES.
    seen = _record_fft_calls(monkeypatch)
    caller = threading.current_thread().name
    monkeypatch.setattr(fields, "_CPUS", 3)
    F11, F12, F22 = random_symmetric_trig_field(0)
    ops = {
        "dx": spectral_dx,
        "dirichlet": lambda v, g: solve_poisson(v, g, "dirichlet"),
        "neumann": lambda v, g: solve_poisson(v, g, "neumann"),
        "modified pressure": lambda v, g: solve_modified_pressure(
            ChannelField(g, np.stack([v, np.sin(np.pi * g.y) * v])), CutoffProfile(0.2)),
        "schauder": lambda v, g: solve_schauder_problem(F11, F12, F22, g),
    }
    runs = [(ChannelGrid(64, 33), contextlib.nullcontext),
            (ChannelGrid(2048, 257), contextlib.nullcontext),
            (ChannelGrid(64, 33), lambda: block_partition(1 << 12, 3))]
    workers_seen = set()
    for grid, partition in runs:
        vals = np.random.default_rng(0).standard_normal((grid.nx, grid.ny))
        for name, op in ops.items():
            seen.clear()
            with partition():
                op(vals, grid)
                parallel, block_bytes = fields._PARALLEL_NODES, fields._BLOCK_BYTES
            for fft, thread, shape, nbytes, axis, values, workers in seen:
                workers_seen.add((thread == caller, workers))
                if thread != caller:
                    assert thread.startswith("holderlab-blocks")
                    assert workers == 1
                if fft in ("rfft", "irfft"):
                    if name == "modified pressure":
                        assert workers == 1
                    else:
                        assert shape[axis] in (grid.nx, grid.nx // 2 + 1)
                        assert values // grid.nx in (grid.ny, grid.ny - 2)
                        assert axis == 0 or name == "schauder"
                        assert workers == (3 if values >= parallel else 1)
                else:
                    assert axis == 1 and workers == 1
                    assert nbytes <= max(block_bytes, nbytes // shape[0])
            for names in (("dct", "dst"), ("idct", "idst")):
                rows = sum(shape[0] for fft, _, shape, *_ in seen if fft in names)
                assert rows == (0 if name == "dx" else grid.nx // 2 + 1)
    # the rule was seen both ways, and pool threads ran some of the calls
    assert workers_seen == {(True, 1), (True, 3), (False, 1)}
