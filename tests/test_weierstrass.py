"""Lacunary flow evaluation, truncation control, and divergence residuals."""

from __future__ import annotations

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holderlab import fields, mollify, pressure, trig, weierstrass
from holderlab.fields import ChannelField, ChannelGrid, modulus_of_continuity
from holderlab.mollify import Mollifier, mollify_stream
from holderlab.pressure import TrigPoly2D
from holderlab.weierstrass import (
    WeierstrassParams,
    eval_stream,
    eval_velocity,
    field_divergence_residual,
    holder_constant_bound,
    normal_velocity_field,
    stream_field,
    truncation_error_bound,
    velocity_field,
)

from conftest import block_partition, divergence_residual_by_roll


def test_params_validation():
    with pytest.raises(ValueError):
        WeierstrassParams(alpha=0.0, n_terms=3)
    with pytest.raises(ValueError):
        WeierstrassParams(alpha=1.5, n_terms=3)
    with pytest.raises(ValueError):
        WeierstrassParams(alpha=0.5, n_terms=-1)
    with pytest.raises(ValueError):
        WeierstrassParams(alpha=0.5, n_terms=61)
    WeierstrassParams(alpha=1.0, n_terms=0)  # boundary values allowed


def test_wall_values_exact():
    xs = np.linspace(0.0, 2.0, 41)
    for n_terms in (0, 3, 17, 40):
        p = WeierstrassParams(alpha=0.37, n_terms=n_terms)
        for y in (0.0, 1.0):
            _, u2 = eval_velocity(p, xs, np.full_like(xs, y))
            assert np.all(u2 == 0.0)
            assert np.all(eval_stream(p, xs, np.full_like(xs, y)) == 0.0)


def test_axis_values_exact():
    ys = np.linspace(0.0, 1.0, 23)
    p = WeierstrassParams(alpha=0.5, n_terms=30)
    u1, _ = eval_velocity(p, np.zeros_like(ys), ys)
    assert np.all(u1 == 0.0)
    # only the k=0 term survives at (0, 1/2): cos(0) sin(pi/2) = 1; every
    # finer term carries sin(2^(k-1) pi) = 0
    _, u2 = eval_velocity(p, 0.0, 0.5)
    assert float(u2) == 1.0


def test_stream_single_term_value():
    p = WeierstrassParams(alpha=0.5, n_terms=0)
    val = float(eval_stream(p, 0.5, 0.5))
    assert val == -1.0 / math.pi


@settings(deadline=None, max_examples=60)
@given(
    log2_nx=st.integers(min_value=2, max_value=6),
    ny=st.integers(min_value=3, max_value=70),
    alpha=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    n_terms=st.integers(min_value=0, max_value=20),
    block_bytes=st.sampled_from([8, 16 * 70, 1 << 20]),
    cpus=st.integers(min_value=1, max_value=3),
)
def test_grid_samplers_match_pointwise_evaluation_bitwise(log2_nx, ny, alpha, n_terms,
                                                         block_bytes, cpus):
    # the grid samplers (axes broadcast, added in x-row blocks over one to
    # three uneven pieces) against the pointwise series evaluated on the
    # full meshgrid, and u2 alone against u2 of the velocity: same samples,
    # bit for bit
    g = ChannelGrid(2**log2_nx, ny)
    p = WeierstrassParams(alpha=alpha, n_terms=n_terms)
    X, Y = np.meshgrid(g.x, g.y, indexing="ij")
    with block_partition(block_bytes, cpus):
        u = velocity_field(p, g).values
        u2 = normal_velocity_field(p, g).values
        psi = stream_field(p, g).values[0]
    assert u.tobytes() == np.stack(eval_velocity(p, X, Y)).tobytes()
    assert u2.shape == (1, g.nx, g.ny) and u2[0].tobytes() == u[1].tobytes()
    assert psi.tobytes() == eval_stream(p, X, Y).tobytes()


@pytest.mark.parametrize("shape, n_terms, pieces", [
    ((128, 129), 3, (1, 1)),
    ((256, 257), 1, (1, 2)),
    ((512, 513), 0, (2, 2)),
], ids=["both-whole", "u2-whole", "both-in-pieces"])
def test_normal_velocity_matches_on_both_sides_of_the_parallel_threshold(monkeypatch, shape,
                                                                         n_terms, pieces):
    # at the package's own block size and threshold, on two CPUs; the work,
    # nodes times products, gives the pieces of (u2 alone, the velocity)
    monkeypatch.setattr(fields, "_CPUS", 2)
    g = ChannelGrid(*shape)
    p = WeierstrassParams(alpha=0.37, n_terms=n_terms)
    work = g.nx * g.ny * (n_terms + 1)
    assert (fields._workers(work), fields._workers(2 * work)) == pieces
    u2 = normal_velocity_field(p, g).values
    assert u2[0].tobytes() == velocity_field(p, g).values[1].tobytes()


def test_package_functions_stay_on_the_calling_thread(monkeypatch):
    # the product-sum kernel's blocks run numpy only: for each grid sampler
    # (the lacunary velocity, its u2 alone and stream, the trig polynomial,
    # the mollifier) every traced package function runs on the caller's
    # thread while the pool runs blocks too, and velocity_field evaluates
    # the series once on the whole grid
    grid = ChannelGrid(512, 513)
    assert grid.nx * grid.ny >= fields._PARALLEL_NODES
    monkeypatch.setattr(fields, "_CPUS", 2)
    calls = []

    def recorded(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls.append((name, threading.get_ident(), args))
            return fn(*args)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((trig, "sinpi_array"), (trig, "cospi_array"),
                         (weierstrass, "sinpi_array"), (weierstrass, "cospi_array"),
                         (weierstrass, "eval_velocity"), (weierstrass, "eval_stream"),
                         (pressure, "_sample_stack"), (mollify, "_kernel_weights"),
                         (mollify, "_wall_max")):
        recorded(module, name)
    blocks, sampler = [], []
    run_blocks = fields._run_blocks

    def recorded_blocks(fn, n, row_bytes, work, threshold=None):
        tag = sampler[-1]

        def block(a, b):
            blocks.append((tag, threading.get_ident()))
            return fn(a, b)
        return run_blocks(block, n, row_bytes, work, threshold)

    monkeypatch.setattr(fields, "_run_blocks", recorded_blocks)
    p = WeierstrassParams(alpha=0.3, n_terms=3)
    poly = TrigPoly2D(terms=((0.5, 1, 2, "cs"), (-1.25, 3, 0, "sc")))
    sampler.append("velocity")
    velocity_field(p, grid)
    sampler.append("normal velocity")
    normal_velocity_field(p, grid)
    sampler.append("stream")
    psi = stream_field(p, grid)
    sampler.append("trig")
    poly.sample(grid)
    sampler.append("mollifier")
    mollify_stream(psi, Mollifier(0.01))
    caller = threading.get_ident()
    assert {ident for _, ident, _ in calls} == {caller}
    for tag in sampler:
        idents = {ident for t, ident in blocks if t == tag}
        assert caller in idents and len(idents) > 1  # the pool ran blocks too
    series = [(name, args) for name, _, args in calls if name.startswith("eval_")]
    assert [name for name, _ in series] == ["eval_velocity", "eval_stream"]
    for _, (_, x, y) in series:
        assert np.array_equal(x, grid.x[:, None]) and np.array_equal(y, grid.y[None, :])


def test_truncation_error_bound_values():
    assert truncation_error_bound(WeierstrassParams(alpha=1.0, n_terms=0)) == 1.0
    got = truncation_error_bound(WeierstrassParams(alpha=0.5, n_terms=40))
    assert abs(got - 2.3023734687548597e-06) < 1e-18


def test_truncation_bound_controls_partial_sum_gaps():
    rng = np.random.default_rng(5)
    xs = rng.uniform(0.0, 2.0, 64)
    ys = rng.uniform(0.0, 1.0, 64)
    for n_lo, n_hi in ((4, 12), (8, 30)):
        pa = WeierstrassParams(alpha=0.5, n_terms=n_lo)
        pb = WeierstrassParams(alpha=0.5, n_terms=n_hi)
        gap = np.max(
            np.abs(np.array(eval_velocity(pa, xs, ys)) - np.array(eval_velocity(pb, xs, ys)))
        )
        assert gap <= truncation_error_bound(pa)


def test_holder_constant_bound():
    assert holder_constant_bound(0.5) == pytest.approx(26.280563615422093, rel=1e-15)
    assert math.isfinite(holder_constant_bound(0.999))
    for bad in (0.0, 1.0, 1.2, -0.1):
        with pytest.raises(ValueError):
            holder_constant_bound(bad)


def test_seminorm_stays_under_closed_form_bound():
    from holderlab.fields import holder_quotient

    g = ChannelGrid(512, 257)
    u = velocity_field(WeierstrassParams(alpha=0.5, n_terms=30), g)
    f2 = ChannelField(g, u.values[1])
    est = holder_quotient(f2, alpha=0.5, h_min=g.hy, h_max=0.5)
    assert 0.0 < est.seminorm <= 26.29
    # modulus at a single scale obeys the same constant
    w = modulus_of_continuity(f2, 2.0**-6)
    assert w <= 26.28 * (2.0**-6) ** 0.5


def test_fitted_exponent_recovers_alpha_03():
    from holderlab.fields import estimate_holder_exponent

    g = ChannelGrid(1024, 1025)
    u = velocity_field(WeierstrassParams(alpha=0.3, n_terms=40), g)
    f2 = ChannelField(g, u.values[1])
    est = estimate_holder_exponent(f2, [2.0**-m for m in range(6, 10)])
    assert abs(est.fitted_exponent - 0.3) <= 0.05


def test_sampling_truncates_fine_modes_exactly():
    # on a 256x257 grid every term with k >= 8 vanishes at all nodes
    # (its y-factor hits sin of an integer multiple of pi), so deeper
    # truncations sample to bitwise-identical fields
    g = ChannelGrid(256, 257)
    ua = velocity_field(WeierstrassParams(alpha=0.5, n_terms=8), g)
    ub = velocity_field(WeierstrassParams(alpha=0.5, n_terms=30), g)
    assert np.array_equal(ua.values, ub.values)


def test_divergence_residual_single_mode():
    g = ChannelGrid(256, 129)
    r = field_divergence_residual(velocity_field(WeierstrassParams(alpha=0.5, n_terms=0), g))
    assert r <= 1e-3


def test_divergence_residual_square_cells_cancel_exactly():
    # equal x- and y-frequencies per term make the centered differences
    # cancel identically when hx == hy; the residual is rounding noise
    g = ChannelGrid(1024, 513)
    r = field_divergence_residual(velocity_field(WeierstrassParams(alpha=0.5, n_terms=3), g))
    assert r <= 1e-12


def test_divergence_residual_second_order_on_anisotropic_cells():
    p = WeierstrassParams(alpha=0.5, n_terms=3)
    residuals = []
    for nx in (256, 512, 1024):
        g = ChannelGrid(nx, nx // 4 + 1)  # hy = 2 hx: no exact pairing
        residuals.append(field_divergence_residual(velocity_field(p, g)))
    slopes = [math.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
    for s in slopes:
        assert abs(s - 2.0) <= 0.2


def test_divergence_residual_constant_flow_exact_zero():
    g = ChannelGrid(64, 33)
    u = ChannelField(g, np.stack([np.ones((64, 33)), np.zeros((64, 33))]))
    assert field_divergence_residual(u) == 0.0


def test_stream_velocity_fd_consistency_within_remainder_bound():
    # centered differences of the sampled stream reproduce the sampled
    # velocity up to the third-derivative remainder of each retained term
    alpha, n_terms = 0.5, 5
    p = WeierstrassParams(alpha=alpha, n_terms=n_terms)
    g = ChannelGrid(256, 257)
    psi = stream_field(p, g).values[0]
    u1, u2 = velocity_field(p, g).values
    dpsidy = (psi[:, 2:] - psi[:, :-2]) / (2.0 * g.hy)
    err_y = float(np.max(np.abs(dpsidy - u1[:, 1:-1])))
    dpsidx = (np.roll(psi, -1, axis=0) - np.roll(psi, 1, axis=0)) / (2.0 * g.hx)
    err_x = float(np.max(np.abs(-dpsidx - u2)))
    # |d^3/dy^3 of term k| = pi^2 2^((2-alpha)k), times h^2/6
    third = sum(math.pi**2 * 2.0 ** ((2.0 - alpha) * k) for k in range(n_terms + 1))
    assert err_y <= third * g.hy**2 / 6.0
    assert err_x <= third * g.hx**2 / 6.0


def test_stream_velocity_fd_consistency_is_second_order():
    # the same mismatch has genuine truncation error, so it must shrink
    # at second order under grid refinement (unlike the divergence
    # residual on square cells, which cancels exactly)
    p = WeierstrassParams(alpha=0.5, n_terms=3)
    errs = []
    for nx in (128, 256, 512):
        g = ChannelGrid(nx, nx // 2 + 1)
        psi = stream_field(p, g).values[0]
        u1 = velocity_field(p, g).values[0]
        dpsidy = (psi[:, 2:] - psi[:, :-2]) / (2.0 * g.hy)
        errs.append(float(np.max(np.abs(dpsidy - u1[:, 1:-1]))))
    slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for s in slopes:
        assert abs(s - 2.0) <= 0.2


@settings(max_examples=60, deadline=None)
@given(
    log2_nx=st.integers(2, 6),
    ny=st.integers(3, 65),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_divergence_residual_matches_the_roll_oracle_bitwise(log2_nx, ny, seed):
    g = ChannelGrid(2**log2_nx, ny)
    u = ChannelField(g, np.random.default_rng(seed).standard_normal((2, g.nx, ny)))
    assert field_divergence_residual(u) == divergence_residual_by_roll(u)
