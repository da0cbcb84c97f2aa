import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from holderlab import cli, mollify
from holderlab.fields import ChannelField, ChannelGrid
from holderlab.mollify import (
    Mollifier,
    max_discrete_divergence,
    mollification_report,
    mollify_stream,
    stream_from_velocity,
    velocity_from_stream,
)
from holderlab.weierstrass import WeierstrassParams, stream_field, velocity_field

from conftest import (
    block_partition,
    mollify_by_roll,
    mollify_by_whole_grid_taps,
    odd_extension_by_concatenation,
)


def constant_flow(grid, speed=1.0):
    shape = (grid.nx, grid.ny)
    return ChannelField(grid, np.stack([np.full(shape, speed), np.zeros(shape)]))


def test_standard_bump_has_unit_mass():
    prof = mollify._bump
    integral, _ = quad(lambda r: 2.0 * math.pi * r * prof(r), 0.0, 1.0)
    assert abs(integral - 1.0) < 1e-12
    assert prof(1.0) == 0.0
    assert prof(1.5) == 0.0
    assert prof(0.0) > prof(0.9) > 0.0


def test_bump_scale_is_the_quadrature_of_the_bump_bitwise():
    integral, _ = quad(lambda r: 2.0 * math.pi * r * math.exp(-1.0 / (1.0 - r * r)), 0.0, 1.0)
    assert 1.0 / integral == mollify._BUMP_SCALE


def test_mollifier_validation():
    for bad in (0.0, -0.1):
        with pytest.raises(ValueError, match="positive"):
            Mollifier(bad)


def test_stream_of_constant_flow_is_zero_with_unit_flux():
    grid = ChannelGrid(64, 65)
    psi, flux = stream_from_velocity(constant_flow(grid))
    assert np.all(psi.values == 0.0)
    assert flux == 1.0


def test_flux_is_the_mean_of_u1():
    grid = ChannelGrid(32, 65)
    u = constant_flow(grid, speed=1.5)
    psi, flux = stream_from_velocity(u)
    assert flux == 1.5
    assert np.array_equal(velocity_from_stream(psi, flux).values, u.values)


def test_stream_of_zero_flow():
    grid = ChannelGrid(32, 33)
    zero = ChannelField(grid, np.zeros((2, 32, 33)))
    psi, flux = stream_from_velocity(zero)
    assert np.all(psi.values == 0.0)
    assert flux == 0.0


def test_stream_recovery_matches_closed_form():
    p = WeierstrassParams(alpha=0.5, n_terms=4)
    grid = ChannelGrid(256, 257)
    psi, flux = stream_from_velocity(velocity_field(p, grid))
    exact = stream_field(p, grid)
    assert np.max(np.abs(psi.values - exact.values)) < 5e-5
    assert abs(flux) < 1e-15


def test_stream_rejects_wall_normal_flow():
    grid = ChannelGrid(32, 33)
    bad = ChannelField(grid, np.stack([np.zeros((32, 33)), np.ones((32, 33))]))
    with pytest.raises(ValueError, match="tangential"):
        stream_from_velocity(bad)


def _extended_y(grid, rows):
    return np.arange(-rows, grid.ny + rows) * grid.hy


def test_odd_extension_of_parabola():
    grid = ChannelGrid(16, 33)
    ys = grid.y
    ext = mollify._odd_extend(np.broadcast_to(ys * (1.0 - ys), (16, 33)), 8)
    ye = _extended_y(grid, 8)
    expect = np.where(
        ye < 0.0,
        ye * (1.0 + ye),
        np.where(ye > 1.0, (ye - 2.0) * (ye - 1.0), ye * (1.0 - ye)),
    )
    assert np.max(np.abs(ext - expect)) == 0.0


def test_odd_extension_of_odd_mode_is_the_same_mode():
    grid = ChannelGrid(16, 65)
    ext = mollify._odd_extend(np.broadcast_to(np.sin(np.pi * grid.y), (16, 65)), 16)
    assert np.max(np.abs(ext - np.sin(np.pi * _extended_y(grid, 16)))) < 1e-13


def test_odd_extension_requires_wall_zeros():
    grid = ChannelGrid(16, 33)
    psi = ChannelField(grid, np.ones((16, 33)))
    with pytest.raises(ValueError, match="wall"):
        mollify_stream(psi, Mollifier(0.1))


def test_mollify_requires_margin_headroom():
    # the margin is 0.25 rounded to whole rows (8/32 here, 2/7 on 8 rows,
    # 1/5 on 6)
    psi = ChannelField(ChannelGrid(16, 33), np.zeros((16, 33)))
    with pytest.raises(ValueError, match="margin 0.25"):
        mollify_stream(psi, Mollifier(0.3))
    with pytest.raises(ValueError, match="margin 0.25"):
        mollify_stream(psi, Mollifier(0.25))
    assert np.all(mollify_stream(psi, Mollifier(0.249)).values == 0.0)
    psi = ChannelField(ChannelGrid(16, 8), np.zeros((16, 8)))
    assert np.all(mollify_stream(psi, Mollifier(0.28)).values == 0.0)
    psi = ChannelField(ChannelGrid(16, 6), np.zeros((16, 6)))
    with pytest.raises(ValueError, match="margin 0.2"):
        mollify_stream(psi, Mollifier(0.2))


def test_mollified_stream_vanishes_at_walls():
    p = WeierstrassParams(alpha=0.5, n_terms=5)
    grid = ChannelGrid(64, 129)
    psi, _ = stream_from_velocity(velocity_field(p, grid))
    smooth = mollify_stream(psi, Mollifier(0.05))
    assert np.all(smooth.values[0][:, 0] == 0.0)
    assert np.all(smooth.values[0][:, -1] == 0.0)


def test_mollify_zero_stream_is_zero():
    grid = ChannelGrid(16, 33)
    psi = ChannelField(grid, np.zeros((16, 33)))
    out = mollify_stream(psi, Mollifier(0.1))
    assert np.all(out.values == 0.0)


def test_velocity_of_zero_stream_is_uniform_flux():
    grid = ChannelGrid(32, 33)
    psi = ChannelField(grid, np.zeros((32, 33)))
    u = velocity_from_stream(psi, 1.0)
    assert np.all(u.values[0] == 1.0)
    assert np.all(u.values[1] == 0.0)
    assert max_discrete_divergence(u) == 0.0


def test_pipeline_exactness_on_weierstrass():
    p = WeierstrassParams(alpha=0.5, n_terms=20)
    grid = ChannelGrid(64, 129)
    u = velocity_field(p, grid)
    psi, flux = stream_from_velocity(u)
    for eps in (0.1, 0.05, 0.025, 0.0125):
        u_eps = velocity_from_stream(mollify_stream(psi, Mollifier(eps)), flux)
        assert np.all(u_eps.values[1][:, 0] == 0.0)
        assert np.all(u_eps.values[1][:, -1] == 0.0)
        assert max_discrete_divergence(u_eps) <= 1e-12


def test_smooth_mode_error_is_second_order_in_epsilon():
    grid = ChannelGrid(128, 129)
    X, Y = np.meshgrid(grid.x, grid.y, indexing="ij")
    u = ChannelField(
        grid,
        np.stack(
            [-np.sin(np.pi * X) * np.cos(np.pi * Y), np.cos(np.pi * X) * np.sin(np.pi * Y)]
        ),
    )
    eps = [0.1, 0.05, 0.025]
    rep = mollification_report(u, alpha=0.5, epsilons=eps)
    errs = rep.c_beta_errors[0.0]
    slope = np.polyfit(np.log(eps), np.log(errs), 1)[0]
    assert abs(slope - 2.0) < 0.4


def test_report_on_weierstrass_sweep():
    p = WeierstrassParams(alpha=0.5, n_terms=20)
    grid = ChannelGrid(64, 129)
    u = velocity_field(p, grid)
    rep = mollification_report(u, alpha=0.5, epsilons=[0.1, 0.05, 0.025, 0.0125])
    assert sorted(rep.c_beta_errors) == [0.0, 0.25]
    errs = rep.c_beta_errors[0.25]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    errs0 = rep.c_beta_errors[0.0]
    assert all(a > b for a, b in zip(errs0, errs0[1:]))
    assert max(rep.norm_ratios) / min(rep.norm_ratios) <= 3.0
    assert all(w == 0.0 for w in rep.wall_residuals)
    assert all(d <= 1e-12 for d in rep.max_divergences)


def test_report_of_constant_flow_is_exact():
    grid = ChannelGrid(32, 65)
    rep = mollification_report(constant_flow(grid), alpha=0.5, epsilons=[0.1, 0.05, 0.025])
    for errs in rep.c_beta_errors.values():
        assert all(e == 0.0 for e in errs)
    assert all(r == 1.0 for r in rep.norm_ratios)


def test_report_needs_three_epsilons():
    grid = ChannelGrid(32, 65)
    with pytest.raises(ValueError, match="3 epsilons"):
        mollification_report(constant_flow(grid), alpha=0.5, epsilons=[0.1, 0.05])


def test_report_serialization(tmp_path):
    assert cli.main(["mollify-report", "--alpha", "0.5", "--nx", "32", "--ny", "65",
                     "--n-terms", "6", "--epsilons", "0.1,0.05,0.025",
                     "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "mollify_report.csv").read_text().splitlines()
    assert lines[0] == "epsilon,beta,error,ratio"
    assert len(lines) == 1 + 3 * 2  # three widths, betas 0 and 0.25
    payload = json.loads((tmp_path / "mollify_report.json").read_text())
    assert payload["epsilons"] == [0.1, 0.05, 0.025]
    assert payload["max_wall_residual"] == 0.0


@settings(max_examples=60, deadline=None)
@given(
    log2_nx=st.integers(2, 6),
    ny=st.integers(5, 65),
    epsilon=st.floats(0.02, 0.19),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_tap_loop_matches_the_roll_oracle_bitwise(log2_nx, ny, epsilon, seed):
    # the shifted slices wrap across the periodic seam for every row offset
    grid = ChannelGrid(2**log2_nx, ny)
    psi = np.random.default_rng(seed).standard_normal((grid.nx, ny))
    psi[:, 0] = psi[:, -1] = 0.0
    m = Mollifier(epsilon)
    got = mollify_stream(ChannelField(grid, psi), m).values[0]
    w, _, _ = mollify._kernel_weights(m, grid)
    rows = round(0.25 / grid.hy)
    want = mollify_by_roll(odd_extension_by_concatenation(psi, rows), w, rows, ny)
    assert got[:, 1:-1].tobytes() == want[:, 1:-1].tobytes()
    assert np.all(got[:, [0, -1]] == 0.0)


@settings(max_examples=60, deadline=None)
@given(
    log2_nx=st.integers(2, 6),
    ny=st.integers(5, 65),
    epsilon=st.floats(0.02, 0.19),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_row_blocked_taps_match_the_whole_grid_tap_loop_bitwise(log2_nx, ny, epsilon, seed,
                                                              data):
    # every tap into one x-row block before the next, on partitions from one
    # block on the calling thread to one-row blocks in up to three pieces
    grid = ChannelGrid(2**log2_nx, ny)
    psi = np.random.default_rng(seed).standard_normal((grid.nx, ny))
    psi[:, 0] = psi[:, -1] = 0.0
    m = Mollifier(epsilon)
    block_bytes = data.draw(st.sampled_from([8, 8 * ny, 3 * 8 * ny, 1 << 20]))
    with block_partition(block_bytes, data.draw(st.integers(1, 3))):
        got = mollify_stream(ChannelField(grid, psi), m).values[0]
    w, _, _ = mollify._kernel_weights(m, grid)
    want = mollify_by_whole_grid_taps(psi, w, round(0.25 / grid.hy))
    assert got.tobytes() == want.tobytes()
