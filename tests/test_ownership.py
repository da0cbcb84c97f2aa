"""Who owns a field's buffer, and how much memory building one costs.

The public constructor copies; the package's builders hand their own
buffer over without a copy and leave nothing writable behind.  The
memory guards count traced allocation in grid arrays (nx * ny float64)
so that a copy or a whole-array temporary coming back fails a test.
The sampler and scan guards run on a grid of many x-row blocks in two
pieces, so that their scratch is a block per piece on any machine.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from holderlab import fields
from holderlab.fields import ChannelField, ChannelGrid, holder_quotient
from holderlab.mollify import (
    Mollifier,
    mollify_stream,
    stream_from_velocity,
    velocity_from_stream,
)
from holderlab.pressure import CutoffProfile, solve_modified_pressure
from holderlab.weierstrass import WeierstrassParams, stream_field, velocity_field

GRID = ChannelGrid(16, 17)
FLOW = WeierstrassParams(alpha=0.5, n_terms=4)
TALL = ChannelGrid(128, 1025)  # the solve's memory guard grid
WIDE = ChannelGrid(1024, 1025)  # the samplers' and the scan's: 16 blocks


def frozen_to_the_base(a: np.ndarray) -> bool:
    """True when the array and every array it is a view of are read-only."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return True


def test_constructor_copies_the_callers_array():
    arr = np.random.default_rng(0).standard_normal((2, GRID.nx, GRID.ny))
    keep = arr.copy()
    f = ChannelField(GRID, arr)
    assert not np.shares_memory(f.values, arr)
    assert arr.flags.writeable
    arr[:] = 7.0
    assert f.values.tobytes() == keep.tobytes()
    assert frozen_to_the_base(f.values)


def test_from_function_copies_an_array_the_caller_holds():
    held = np.zeros((GRID.nx, GRID.ny))
    f = ChannelField.from_function(GRID, lambda X, Y: held)
    assert not np.shares_memory(f.values, held)
    assert held.flags.writeable
    held[:] = 1.0
    assert np.all(f.values == 0.0)


def test_adopt_keeps_the_buffer_and_still_validates():
    buf = np.ones((GRID.nx, GRID.ny))
    f = ChannelField._adopt(GRID, buf)
    assert np.shares_memory(f.values, buf)
    assert f.values.shape == (1, GRID.nx, GRID.ny)
    assert frozen_to_the_base(f.values)
    with pytest.raises(ValueError):
        ChannelField._adopt(GRID, np.zeros((3, GRID.nx, GRID.ny)))
    with pytest.raises(ValueError):
        ChannelField._adopt(GRID, np.zeros((GRID.nx, GRID.ny + 1)))


def _library_fields():
    u = velocity_field(FLOW, GRID)
    sol = solve_modified_pressure(u, CutoffProfile(delta=0.2))
    psi, flux = stream_from_velocity(u)
    psi_eps = mollify_stream(psi, Mollifier(0.1))
    return {
        "velocity_field": u,
        "stream_field": stream_field(FLOW, GRID),
        "from_function": ChannelField.from_function(GRID, lambda X, Y: (X * Y, 0.0 * Y)),
        "P": sol.P,
        "p": sol.p,
        "stream_from_velocity": psi,
        "mollify_stream": psi_eps,
        "velocity_from_stream": velocity_from_stream(psi_eps, flux),
    }


def test_every_library_built_field_is_read_only():
    for name, f in _library_fields().items():
        assert frozen_to_the_base(f.values), name
        with pytest.raises(ValueError):
            f.values[0, 0, 0] = 1.0


def _traced_peak_arrays(grid, fn, *args) -> float:
    """Peak traced allocation of one call above what was live before it,
    in grid arrays of ``grid``."""
    fn(*args)  # first call: module-level caches are not the call's cost
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - before) / (grid.nx * grid.ny * 8)


@pytest.fixture
def two_pieces(monkeypatch):
    assert WIDE.nx * WIDE.ny >= fields._PARALLEL_NODES
    assert WIDE.nx >= 8 * (fields._BLOCK_BYTES // (8 * WIDE.ny))  # many blocks a piece
    monkeypatch.setattr(fields, "_CPUS", 2)


def test_velocity_sampling_peak_memory(two_pieces):
    # the result (2 arrays) and one block of scratch per piece
    assert _traced_peak_arrays(WIDE, velocity_field, WeierstrassParams(0.25, 8), WIDE) <= 2.25


def test_stream_sampling_peak_memory(two_pieces):
    # the result and one block of scratch per piece
    assert _traced_peak_arrays(WIDE, stream_field, WeierstrassParams(0.25, 8), WIDE) <= 1.25


def test_holder_scan_peak_memory(two_pieces):
    # one block of differences per piece, no whole-array temporary
    u2 = ChannelField._adopt(WIDE, velocity_field(WeierstrassParams(0.25, 8), WIDE).values[1])
    assert _traced_peak_arrays(WIDE, holder_quotient, u2, 0.25, 4.0 * WIDE.hx, 0.25) <= 0.25


def test_modified_pressure_solve_peak_memory():
    # the block passes keep the RHS (in the buffer that becomes p), its
    # spectrum and P, and one block's buffers at a time: at most six
    # x-fast buffers of its columns, one of them a spectrum of about
    # _BLOCK_BYTES (on this grid, half the columns)
    u = velocity_field(WeierstrassParams(0.25, 8), TALL)
    assert _traced_peak_arrays(TALL, solve_modified_pressure, u,
                               CutoffProfile(delta=0.2)) <= 6.0


def test_blocked_modified_pressure_solve_peak_memory(two_pieces):
    # the RHS, its spectrum and P, and the buffers of one block per piece
    u = velocity_field(WeierstrassParams(0.25, 8), WIDE)
    assert _traced_peak_arrays(WIDE, solve_modified_pressure, u,
                               CutoffProfile(delta=0.2)) <= 6.0
