"""Coefficient-space trace pairing, dyadic quotients, and verdicts."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holderlab.tracelab import (
    TestFunction,
    VERDICT_BOUNDED,
    VERDICT_CONVERGES,
    VERDICT_DIVERGES,
    classify_blowup,
    decompose_trace,
    dyadic_quotients_boundary,
    dyadic_quotients_interior,
    interior_lower_bound,
    resonant_lower_bound,
)
from holderlab.trig import sinpi
from holderlab.weierstrass import WeierstrassParams, eval_velocity

from conftest import trace_by_pair_sum


def displayed_wall_quotient(alpha: float, n: int) -> float:
    """The closed finite sum for the mean-paired quotient, ascending k."""
    s = 0.0
    for k in range(n):
        s += 2.0 ** (-2.0 * alpha * k) * sinpi(2.0 ** (k - n)) ** 2
    return 2.0 ** (n - 1) * s


def quadrature_trace(p, theta, y, nx=2048):
    """Brute-force oracle: periodic trapezoid of u2^2 theta in x."""
    xs = np.arange(nx) * (2.0 / nx)
    _, u2 = eval_velocity(p, xs, np.full(nx, y))
    return float(np.sum(u2 * u2 * theta.evaluate(xs)) * (2.0 / nx))


def test_test_function_basics():
    theta = TestFunction.mean_one()
    assert theta.mean == 1.0
    assert theta.moment(0) == 1.0
    assert theta.moment(5) == 0.0
    rich = TestFunction((0.5, 0.0, 0.25) + (0.0,) * 8 + (-1.5,))
    assert rich.mean == 1.0
    assert rich.moment(2) == 0.25
    assert rich.moment(11) == -1.5
    assert rich.moment(12) == 0.0
    xs = np.linspace(0.0, 2.0, 9)
    expect = 0.5 + 0.25 * np.cos(2 * math.pi * xs) - 1.5 * np.cos(11 * math.pi * xs)
    np.testing.assert_allclose(rich.evaluate(xs), expect, rtol=0, atol=1e-15)
    with pytest.raises(ValueError):
        TestFunction(())
    with pytest.raises(ValueError):
        TestFunction((0.5,), (0.0, 1.0))


def trace(p, theta, y):
    """The trace pairing as the sum of decompose_trace's three parts."""
    return sum(decompose_trace(p, theta, y))


def test_eval_trace_vanishes_on_walls():
    p = WeierstrassParams(alpha=0.5, n_terms=12)
    theta = TestFunction((0.5, 0.0, 0.0, 1.0))
    assert trace(p, theta, 0.0) == 0.0
    assert trace(p, theta, 1.0) == 0.0


def test_eval_trace_single_term_value():
    p = WeierstrassParams(alpha=0.5, n_terms=0)
    assert trace(p, TestFunction.mean_one(), 0.5) == 0.5


def test_eval_trace_unreachable_mode_gives_zero():
    # 11 is neither a sum nor a difference of two powers of two, so a
    # pure cos(11 pi x) test function couples to nothing
    theta = TestFunction((0.0,) * 11 + (1.0,))
    p = WeierstrassParams(alpha=0.5, n_terms=12)
    for y in np.linspace(0.0, 1.0, 17):
        assert trace(p, theta, float(y)) == 0.0


def test_eval_trace_reachable_mode_three():
    # 3 couples twice: as the sum 1 + 2 (modes k=0,1) and as the
    # difference 4 - 1 (modes k=0,2)
    alpha = 0.35
    theta = TestFunction((0.0, 0.0, 0.0, 1.0))
    p = WeierstrassParams(alpha=alpha, n_terms=6)
    for y in (0.1, 0.3, 0.45, 0.8):
        expect = 2.0**-alpha * math.sin(math.pi * y) * math.sin(2 * math.pi * y) + (
            2.0 ** (-2 * alpha) * math.sin(math.pi * y) * math.sin(4 * math.pi * y)
        )
        assert trace(p, theta, y) == pytest.approx(expect, rel=1e-13)


def test_eval_trace_matches_quadrature():
    rng = np.random.default_rng(42)
    cc = rng.standard_normal(9) * 0.3
    sc = rng.standard_normal(9) * 0.3  # sine modes never couple but must not break anything
    theta = TestFunction(tuple(cc), tuple(sc))
    p = WeierstrassParams(alpha=0.45, n_terms=5)
    for y in (0.125, 0.37, 0.5, 0.77):
        exact = trace(p, theta, y)
        quad = quadrature_trace(p, theta, y)
        assert exact == pytest.approx(quad, rel=1e-12, abs=1e-13)


def test_decompose_identity_and_exact_zeros():
    rng = np.random.default_rng(7)
    theta = TestFunction(tuple(rng.standard_normal(17) * 0.2))
    p = WeierstrassParams(alpha=0.3, n_terms=40)
    for y in (0.09, 0.25, 0.333, 0.5, 0.9):
        off, dbl, mean_part = decompose_trace(p, theta, y)
        total = trace_by_pair_sum(p, theta, y)
        assert off + dbl + mean_part == pytest.approx(total, rel=1e-12, abs=1e-15)
    assert decompose_trace(p, theta, 0.0) == (0.0, 0.0, 0.0)
    mean_zero = TestFunction((0.0, 0.0, 1.0))
    for y in (0.1, 0.6):
        _, _, mean_part = decompose_trace(p, mean_zero, y)
        assert mean_part == 0.0


def test_decompose_constant_theta_midchannel():
    p = WeierstrassParams(alpha=0.37, n_terms=20)
    off, dbl, mean_part = decompose_trace(p, TestFunction.mean_one(), 0.5)
    assert off == 0.0 and dbl == 0.0
    assert mean_part == 0.5  # only k=0 survives at mid-channel


def test_boundary_quotients_match_displayed_sum_bitwise():
    theta = TestFunction.mean_one()
    for alpha in (0.25, 0.4, 0.5):
        rep = dyadic_quotients_boundary(WeierstrassParams(alpha, 40), theta, 40)
        for i, n in enumerate(rep.n_values):
            assert rep.components["quotient_RR"][i] == displayed_wall_quotient(alpha, n)
            assert rep.quotients[i] == rep.components["quotient_RR"][i]  # NR, RNR vanish


def test_boundary_quotients_dominate_lower_bound():
    theta = TestFunction.mean_one()
    for alpha in (0.25, 0.4, 0.5, 0.75):
        rep = dyadic_quotients_boundary(WeierstrassParams(alpha, 40), theta, 40)
        for q, b in zip(rep.components["quotient_RR"], rep.lower_bounds):
            assert q >= b


def test_boundary_quotient_small_n_values():
    theta = TestFunction.mean_one()
    rep = dyadic_quotients_boundary(WeierstrassParams(0.5, 40), theta, 3)
    assert rep.quotients[0] == 1.0 and rep.lower_bounds[0] == 1.0
    expect_n3 = 4.0 * (math.sin(math.pi / 8) ** 2 + 0.5 * 0.5 + 0.25)
    assert rep.quotients[2] == pytest.approx(expect_n3, rel=1e-12)
    assert rep.quotients[2] == pytest.approx(2.5857864376269046, rel=1e-12)


def test_boundary_divergence_for_small_alpha():
    rep = dyadic_quotients_boundary(
        WeierstrassParams(0.25, 40), TestFunction.mean_one(), 30
    )
    assert rep.verdict == VERDICT_DIVERGES
    assert abs(rep.fitted_growth_exponent - 0.5) <= 0.05


def test_boundary_bounded_for_critical_alpha():
    rep = dyadic_quotients_boundary(
        WeierstrassParams(0.5, 40), TestFunction.mean_one(), 40
    )
    assert rep.verdict == VERDICT_BOUNDED
    tail = [q for n, q in zip(rep.n_values, rep.quotients) if n >= 10]
    assert min(tail) >= 2.0 * (1.0 - 2.0**-10)


def test_boundary_mean_zero_theta_converges():
    theta = TestFunction((0.0, 0.0, 1.0))  # cos(2 pi x), zero mean
    for alpha in (0.25, 0.4, 0.5):
        rep = dyadic_quotients_boundary(WeierstrassParams(alpha, 40), theta, 30)
        assert rep.verdict == VERDICT_CONVERGES
        late = [abs(q) for n, q in zip(rep.n_values, rep.quotients) if n >= 20]
        assert max(late) <= 1e-3


def test_boundary_quotients_scale_linearly_in_theta():
    theta = TestFunction((0.5, 0.0, 0.3, 0.0, 0.0, -0.2))
    p = WeierstrassParams(0.4, 20)
    rep1 = dyadic_quotients_boundary(p, theta, 12)
    rep2 = dyadic_quotients_boundary(p, TestFunction((1.0, 0.0, 0.6, 0.0, 0.0, -0.4)), 12)
    # doubling theta doubles every quotient exactly (power-of-two scaling)
    assert rep2.quotients == tuple(2.0 * q for q in rep1.quotients)
    # column contents.  quotient_RR pairs each diagonal k1 = k2 = k with
    # the mean; quotient_RNR pairs it with the doubled frequency 2^(k+1),
    # which theta carries only for k = 0 (0.3 cos(2 pi x)); quotient_NR
    # holds the off-diagonal couplings, here (k1, k2) = (0, 2) through
    # cos(5 pi x) and (1, 2) through cos(2 pi x)
    for i, n in enumerate(rep1.n_values):
        y, scale = 2.0**-n, 2.0**n
        s = [sinpi(2.0**k * y) for k in range(21)]
        rr = 0.5 * sum(2.0 ** (-0.8 * k) * s[k] ** 2 for k in range(21))
        rnr = 0.5 * 0.3 * s[0] ** 2
        nr = 2.0 * (2.0**-0.8 * -0.1 * s[0] * s[2] + 2.0**-1.2 * 0.15 * s[1] * s[2])
        assert rep1.components["quotient_RR"][i] == pytest.approx(scale * rr, rel=1e-12)
        assert rep1.components["quotient_RNR"][i] == pytest.approx(scale * rnr, rel=1e-12)
        assert rep1.components["quotient_NR"][i] == pytest.approx(
            scale * nr, rel=1e-12, abs=1e-15)
    assert all(q != 0.0 for q in rep1.components["quotient_RNR"])
    assert rep1.components["quotient_NR"][-1] != 0.0


def test_boundary_n_max_validation():
    theta = TestFunction.mean_one()
    p = WeierstrassParams(0.5, 10)
    with pytest.raises(ValueError):
        dyadic_quotients_boundary(p, theta, 0)
    with pytest.raises(ValueError):
        dyadic_quotients_boundary(p, theta, 51)


def test_resonant_lower_bound_values():
    assert resonant_lower_bound(0.25, 10) == pytest.approx(35.00169408386116, rel=1e-12)
    assert resonant_lower_bound(0.5, 40) == 2.0 * (1.0 - 2.0**-40)
    assert resonant_lower_bound(0.5, 1) == 1.0
    assert resonant_lower_bound(0.75, 40) < 1e-5  # decays for alpha > 1/2
    for bad_alpha in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError):
            resonant_lower_bound(bad_alpha, 5)
    with pytest.raises(ValueError):
        resonant_lower_bound(0.5, 0)


@settings(deadline=None, max_examples=120)
@given(
    alpha=st.floats(min_value=0.05, max_value=0.95),
    n=st.integers(min_value=1, max_value=40),
)
def test_resonant_lower_bound_never_exceeds_quotient(alpha, n):
    assert resonant_lower_bound(alpha, n) <= displayed_wall_quotient(alpha, n)


def test_classify_blowup_synthetic():
    ns = list(range(1, 13))
    growing = [2.0 ** (0.5 * n) for n in ns]
    assert classify_blowup(growing, ns) == VERDICT_DIVERGES
    assert classify_blowup([2.0] * 12, ns) == VERDICT_BOUNDED
    decaying = [2.0**-n for n in ns]
    assert classify_blowup(decaying, ns) == VERDICT_CONVERGES
    with pytest.raises(ValueError):
        classify_blowup([1.0] * 5, ns[:5])
    with pytest.raises(ValueError):
        classify_blowup([1.0] * 7, ns)


def test_interior_split_matches_direct_difference():
    # the rewritten split must agree with the naive difference of the
    # mean-paired part while the naive route is still accurate
    theta = TestFunction.mean_one()
    p = WeierstrassParams(alpha=0.25, n_terms=40)

    def mean_paired(y):
        return 0.5 * sum(
            2.0 ** (-2.0 * p.alpha * k) * sinpi(2.0**k * y) ** 2
            for k in range(p.n_terms + 1)
        )

    for j, m in ((1, 1), (3, 2)):
        rep = dyadic_quotients_interior(p, theta, j, m, 20)
        y1 = j * 2.0**-m
        for i, n in enumerate(rep.n_values):
            if n < 8:
                continue
            direct = (mean_paired(y1 + 2.0**-n) - mean_paired(y1)) * 2.0**n
            assert rep.quotients[i] == pytest.approx(direct, rel=1e-12)


def test_interior_mean_zero_theta_is_exactly_zero():
    theta = TestFunction((0.0, 0.0, 0.7, -0.3))
    rep = dyadic_quotients_interior(WeierstrassParams(0.25, 40), theta, 1, 1, 25)
    assert all(q == 0.0 for q in rep.quotients)
    for col in rep.components.values():
        assert all(v == 0.0 for v in col)


def test_interior_blowup_and_bounded_parts():
    theta = TestFunction.mean_one()
    p = WeierstrassParams(alpha=0.25, n_terms=40)
    for j, m in ((1, 1), (3, 2)):
        rep = dyadic_quotients_interior(p, theta, j, m, 30)
        assert rep.verdict == VERDICT_DIVERGES
        tail_fit = np.polyfit(
            [n for n in rep.n_values if n >= 15],
            [
                math.log2(rep.components["quotient_RR"][i])
                for i, n in enumerate(rep.n_values)
                if n >= 15
            ],
            1,
        )[0]
        assert abs(tail_fit - 0.5) <= 0.05
        for i, n in enumerate(rep.n_values):
            assert rep.components["quotient_RR"][i] >= rep.lower_bounds[i]
            if n >= 10:
                assert abs(rep.components["quotient_NR"][i]) <= 10.0
                assert abs(rep.components["quotient_RNR"][i]) <= 10.0


def test_interior_validation():
    theta = TestFunction.mean_one()
    p = WeierstrassParams(0.25, 10)
    with pytest.raises(ValueError):
        dyadic_quotients_interior(p, theta, 1, 0, 10)
    with pytest.raises(ValueError):
        dyadic_quotients_interior(p, theta, 0, 2, 10)
    with pytest.raises(ValueError):
        dyadic_quotients_interior(p, theta, 4, 2, 10)
    with pytest.raises(ValueError):
        dyadic_quotients_interior(p, theta, 1, 3, 2)
