import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holderlab.acceptance import GEOMETRY_TOLERANCES, _identity_residuals
from holderlab.geometry import (
    ChartScalarField,
    ChartVectorField,
    MetricData,
    PATCH_BUILDERS,
    SurfacePatch,
    TubularPoint,
    cartesian_scalar_field,
    cartesian_vector_field,
    chart,
    divergence_curvilinear,
    gradient_curvilinear,
    laplacian_curvilinear,
    make_flat_patch,
    make_paraboloid_patch,
    make_saddle_patch,
    make_surface_patch,
    metric,
    normal_laplacian_part,
    squared_radius_field,
    tangential_laplacian,
)

from conftest import chart_by_point, metric_by_point


def sample_points(patch, count, seed=0):
    rng = np.random.default_rng(seed)
    (lo1, hi1), (lo2, hi2) = patch.domain
    pts = []
    for _ in range(count):
        pts.append(
            TubularPoint(
                rng.uniform(lo1 + 0.1, hi1 - 0.1),
                rng.uniform(lo2 + 0.1, hi2 - 0.1),
                rng.uniform(0.0, patch.delta),
            )
        )
    return pts


def test_flat_patch_metric_is_trivial():
    flat = make_flat_patch()
    md = metric(flat, TubularPoint(0.3, -0.2, 0.1))
    assert np.array_equal(md.jacobian, np.diag([1.0, 1.0, -1.0]))
    assert np.array_equal(md.a_inv, np.eye(3))
    assert md.b == 1.0


def test_chart_position_paraboloid():
    patch = make_paraboloid_patch(curvature=0.5, delta=0.2)
    s1, s2, s = 0.6, -0.2, 0.1
    w = math.sqrt(1.0 + 0.36 + 0.04)
    expected = np.array(
        [s1 + s * 0.6 / w, s2 + s * (-0.2) / w, 0.2 - s / w]
    )
    x = chart(patch, TubularPoint(s1, s2, s))
    assert np.allclose(x, expected, rtol=0, atol=1e-15)


def test_normal_is_unit_and_points_down():
    for build in PATCH_BUILDERS.values():
        patch = build()
        for pt in sample_points(patch, 10, seed=3):
            n = metric(patch, pt).jacobian[:, 2]
            assert abs(n @ n - 1.0) < 1e-14
            assert n[2] < 0.0


def test_normal_column_of_jacobian():
    # the depth column is the inward unit normal (d1 a, d2 a, -1)/sqrt(1 + |grad a|^2)
    patch = make_saddle_patch()
    pt = TubularPoint(0.4, 0.3, 0.05)
    g = np.asarray(patch.grad(0.4, 0.3))
    n = np.array([g[0], g[1], -1.0]) / math.sqrt(1.0 + g[0] * g[0] + g[1] * g[1])
    assert np.array_equal(metric(patch, pt).jacobian[:, 2], n)


def test_chart_depth_derivative_is_normal():
    patch = make_paraboloid_patch()
    s1, s2 = 0.37, -0.54
    h = 0.05
    x_hi = chart(patch, TubularPoint(s1, s2, 0.15))
    x_lo = chart(patch, TubularPoint(s1, s2, 0.05))
    fd = (x_hi - x_lo) / (2 * h)
    assert np.max(np.abs(fd - metric(patch, TubularPoint(s1, s2, 0.1)).jacobian[:, 2])) < 1e-13


@pytest.mark.parametrize("name", sorted(PATCH_BUILDERS))
def test_inverse_metric_block_structure(name):
    patch = PATCH_BUILDERS[name]()
    for pt in sample_points(patch, 25, seed=11):
        a_inv = metric(patch, pt).a_inv
        assert abs(a_inv[2, 2] - 1.0) < 1e-10
        for i in range(2):
            assert abs(a_inv[i, 2]) < 1e-10
            assert abs(a_inv[2, i]) < 1e-10


def test_tangential_cross_entry_vanishes_only_when_flat():
    flat = make_flat_patch()
    assert metric(flat, TubularPoint(0.5, 0.5, 0.1)).a_inv[0, 1] == 0.0
    saddle = make_saddle_patch()
    assert abs(metric(saddle, TubularPoint(0.4, 0.3, 0.05)).a_inv[0, 1]) > 1e-4


def test_volume_factor_at_surface_is_area_factor():
    for build in PATCH_BUILDERS.values():
        patch = build()
        for pt in sample_points(patch, 10, seed=5):
            md = metric(patch, TubularPoint(pt.sigma1, pt.sigma2, 0.0))
            g = np.asarray(patch.grad(pt.sigma1, pt.sigma2), dtype=float)
            assert abs(md.b - math.sqrt(1.0 + g @ g)) < 1e-12


@pytest.mark.parametrize("name", sorted(PATCH_BUILDERS))
def test_laplacian_of_squared_radius(name):
    patch = PATCH_BUILDERS[name]()
    f = squared_radius_field(patch)
    for pt in sample_points(patch, 20, seed=17):
        assert abs(laplacian_curvilinear(f, patch, pt) - 6.0) < 1e-6


def test_laplacian_of_harmonic_polynomial():
    patch = make_saddle_patch(coeff=0.05)
    f = cartesian_scalar_field(
        patch,
        lambda x: x[..., 0] ** 2 - x[..., 1] ** 2,
        lambda x: np.stack([2.0 * x[..., 0], -2.0 * x[..., 1], np.zeros(x.shape[:-1])], axis=-1),
    )
    for pt in sample_points(patch, 20, seed=19):
        assert abs(laplacian_curvilinear(f, patch, pt)) < 1e-6


def test_laplacian_of_depth_on_flat_patch():
    flat = make_flat_patch()
    f = ChartScalarField(
        value=lambda s1, s2, s: s,
        grad=lambda s1, s2, s: np.array([0.0, 0.0, 1.0]),
    )
    assert laplacian_curvilinear(f, flat, TubularPoint(0.2, 0.1, 0.1)) == 0.0


@pytest.mark.parametrize("name", sorted(PATCH_BUILDERS))
def test_laplacian_splits_into_tangential_and_normal(name):
    patch = PATCH_BUILDERS[name]()
    f = squared_radius_field(patch)
    for pt in sample_points(patch, 15, seed=23):
        full = laplacian_curvilinear(f, patch, pt)
        split = tangential_laplacian(f, patch, pt) + normal_laplacian_part(f, patch, pt)
        assert abs(full - split) < 1e-8


def test_gradient_matches_transposed_inverse_solve():
    patch = make_paraboloid_patch()
    f = squared_radius_field(patch)
    for pt in sample_points(patch, 20, seed=29):
        md = metric(patch, pt)
        gchart = np.asarray(f.grad(pt.sigma1, pt.sigma2, pt.s), dtype=float)
        oracle = np.linalg.solve(md.jacobian.T, gchart)
        got = gradient_curvilinear(f, patch, pt)
        assert np.max(np.abs(got - oracle)) < 1e-10


def test_gradient_of_cartesian_coordinate():
    patch = make_saddle_patch()
    f = cartesian_scalar_field(
        patch, lambda x: x[..., 0], lambda x: np.array([1.0, 0.0, 0.0])
    )
    got = gradient_curvilinear(f, patch, TubularPoint(0.25, -0.4, 0.07))
    assert np.max(np.abs(got - np.array([1.0, 0.0, 0.0]))) < 1e-12


def test_divergence_on_flat_patch():
    flat = make_flat_patch()
    pt = TubularPoint(0.2, 0.1, 0.1)
    v_depth = ChartVectorField(components=lambda a, b, s: np.array([0.0, 0.0, 1.0]))
    assert divergence_curvilinear(v_depth, flat, pt) == 0.0
    v_radial = ChartVectorField(
        components=lambda a, b, s: np.stack([a, b, np.zeros_like(a)], axis=-1))
    assert abs(divergence_curvilinear(v_radial, flat, pt) - 2.0) < 1e-9


def test_divergence_matches_cartesian_oracle():
    patch = make_paraboloid_patch()
    v_lin = cartesian_vector_field(patch, lambda x: x.copy())
    v_rot = cartesian_vector_field(
        patch, lambda x: np.stack([-x[..., 1], x[..., 0], np.zeros(x.shape[:-1])], axis=-1))
    for pt in sample_points(patch, 15, seed=31):
        assert abs(divergence_curvilinear(v_lin, patch, pt) - 3.0) < 1e-8
        assert abs(divergence_curvilinear(v_rot, patch, pt)) < 1e-8


def test_divergence_theorem_for_compact_field():
    patch = PATCH_BUILDERS["sinusoidal"]()
    (lo1, hi1), (lo2, hi2) = patch.domain
    dlt = patch.delta

    def bump(t, lo, hi):
        u = (t - lo) / (hi - lo)
        return (u * (1.0 - u)) ** 2 * 16.0

    v = ChartVectorField(
        components=lambda a, b, s: (bump(a, lo1, hi1) * bump(b, lo2, hi2)
                                    * bump(s, 0.0, dlt))[..., None] * np.array([1.0, -0.5, 0.25])
    )
    nq = 8
    q1 = lo1 + (np.arange(nq) + 0.5) * (hi1 - lo1) / nq
    q2 = lo2 + (np.arange(nq) + 0.5) * (hi2 - lo2) / nq
    qs = (np.arange(nq) + 0.5) * dlt / nq
    cell = (hi1 - lo1) * (hi2 - lo2) * dlt / nq**3
    pt = TubularPoint(*np.meshgrid(q1, q2, qs, indexing="ij"))
    total = np.sum(divergence_curvilinear(v, patch, pt) * metric(patch, pt).b) * cell
    assert abs(total) < 1e-3


def test_bowl_deeper_than_focal_distance_is_rejected():
    with pytest.raises(ValueError, match="focal"):
        make_paraboloid_patch(curvature=-1.0, delta=0.6)
    # just inside the focal distance the chart stays valid
    make_paraboloid_patch(curvature=-1.0, delta=0.45)
    # the upward-opening bowl never degenerates along the inward normal
    make_paraboloid_patch(curvature=1.0, delta=0.6)


def test_metric_raises_past_focal_distance():
    c = -1.0
    raw = SurfacePatch(
        height=lambda s1, s2: c * (s1 * s1 + s2 * s2),
        grad=lambda s1, s2: np.stack([2.0 * c * s1, 2.0 * c * s2], axis=-1),
        hess=lambda s1, s2: np.array([[2.0 * c, 0.0], [0.0, 2.0 * c]]),
        domain=((-1.0, 1.0), (-1.0, 1.0)),
        delta=0.6,
        name="unchecked",
    )
    with pytest.raises(ValueError, match="degenerate"):
        metric(raw, TubularPoint(0.0, 0.0, 0.5))


def test_constructor_rejects_bad_derivatives():
    with pytest.raises(ValueError, match="grad"):
        make_surface_patch(
            height=lambda s1, s2: s1 * s2,
            grad=lambda s1, s2: np.stack([s2, -s1], axis=-1),
            hess=lambda s1, s2: np.array([[0.0, 1.0], [1.0, 0.0]]),
            domain=((-1.0, 1.0), (-1.0, 1.0)),
            delta=0.1,
        )
    with pytest.raises(ValueError, match="hess"):
        make_surface_patch(
            height=lambda s1, s2: s1 * s2,
            grad=lambda s1, s2: np.stack([s2, s1], axis=-1),
            hess=lambda s1, s2: np.array([[2.0, 1.0], [1.0, 0.0]]),
            domain=((-1.0, 1.0), (-1.0, 1.0)),
            delta=0.1,
        )


def test_constructor_rejects_bad_shape_parameters():
    zero2 = lambda s1, s2: np.zeros(2)
    zero22 = lambda s1, s2: np.zeros((2, 2))
    for delta in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="delta"):
            make_surface_patch(lambda a, b: 0.0, zero2, zero22,
                               ((-1.0, 1.0), (-1.0, 1.0)), delta)
    for domain in (((1.0, -1.0), (-1.0, 1.0)), ((-1.0, 1.0), (-math.inf, 1.0))):
        with pytest.raises(ValueError, match="domain"):
            make_surface_patch(lambda a, b: 0.0, zero2, zero22, domain, 0.1)


def test_point_validation():
    patch = make_flat_patch(delta=0.2)
    with pytest.raises(ValueError, match="nonnegative"):
        TubularPoint(0.0, 0.0, -0.1)
    with pytest.raises(ValueError, match="domain"):
        chart(patch, TubularPoint(1.5, 0.0, 0.1))
    with pytest.raises(ValueError, match="exceeds"):
        metric(patch, TubularPoint(0.0, 0.0, 0.3))


def test_patch_catalog_names():
    assert sorted(PATCH_BUILDERS) == ["flat", "paraboloid", "saddle", "sinusoidal"]
    for name, build in PATCH_BUILDERS.items():
        assert build().name == name


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_point_rejects_non_finite_coordinates(axis, bad):
    coords = [0.1, 0.2, 0.05]
    coords[axis] = bad
    with pytest.raises(ValueError, match="finite"):
        TubularPoint(*coords)
    arrays = [np.full(4, c) for c in (0.1, 0.2, 0.05)]
    arrays[axis][2] = bad
    with pytest.raises(ValueError, match="finite"):
        TubularPoint(*arrays)


def test_nan_jacobian_counts_as_degenerate():
    raw = SurfacePatch(
        height=lambda s1, s2: 0.0,
        grad=lambda s1, s2: np.array([np.nan, 0.0]),
        hess=lambda s1, s2: np.zeros((2, 2)),
        domain=((-1.0, 1.0), (-1.0, 1.0)),
        delta=0.2,
    )
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="degenerate"):
        metric(raw, TubularPoint(0.1, 0.2, 0.05))


_PATCHES = {name: build() for name, build in PATCH_BUILDERS.items()}


def _bits(a) -> bytes:
    a = np.asarray(a, dtype=float)
    return repr(a.shape).encode() + a.tobytes()


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(_PATCHES)), data=st.data())
def test_point_sets_match_the_per_point_oracle(name, data):
    patch = _PATCHES[name]
    (lo1, hi1), (lo2, hi2) = patch.domain
    coords = st.tuples(st.floats(lo1, hi1), st.floats(lo2, hi2), st.floats(0.0, patch.delta))
    pts = data.draw(st.lists(coords, min_size=1, max_size=6))
    batch = TubularPoint(*(np.array(c) for c in zip(*pts)))
    radius = squared_radius_field(patch)
    swirl = cartesian_vector_field(
        patch, lambda x: np.stack([-x[..., 1], x[..., 0], np.zeros(x.shape[:-1])], axis=-1))
    operators = {
        "chart": lambda pt: chart(patch, pt),
        "jacobian": lambda pt: metric(patch, pt).jacobian,
        "a_inv": lambda pt: metric(patch, pt).a_inv,
        "b": lambda pt: metric(patch, pt).b,
        "gradient": lambda pt: gradient_curvilinear(radius, patch, pt),
        "divergence": lambda pt: divergence_curvilinear(swirl, patch, pt),
        "laplacian": lambda pt: laplacian_curvilinear(radius, patch, pt),
        "tangential": lambda pt: tangential_laplacian(radius, patch, pt),
        "normal_part": lambda pt: normal_laplacian_part(radius, patch, pt),
    }
    batched = {key: op(batch) for key, op in operators.items()}
    for k, (s1, s2, s) in enumerate(pts):
        pt = TubularPoint(s1, s2, s)
        for key, op in operators.items():
            assert _bits(batched[key][k]) == _bits(op(pt)), key
        J, a_inv, b = metric_by_point(patch, s1, s2, s)
        assert _bits(batched["chart"][k]) == _bits(chart_by_point(patch, s1, s2, s))
        assert _bits(batched["jacobian"][k]) == _bits(J)
        assert _bits(batched["a_inv"][k]) == _bits(a_inv)
        assert _bits(batched["b"][k]) == _bits(b)


@pytest.mark.parametrize("name", sorted(PATCH_BUILDERS))
def test_dense_identity_sweep_within_tolerances(name):
    patch = PATCH_BUILDERS[name]()
    (lo1, hi1), (lo2, hi2) = patch.domain
    f = np.linspace(0.02, 0.98, 20)
    pt = TubularPoint(*np.meshgrid(lo1 + f * (hi1 - lo1), lo2 + f * (hi2 - lo2),
                                   np.linspace(0.0, 0.99 * patch.delta, 10), indexing="ij"))
    worst = _identity_residuals(patch, pt)
    for key, tol in GEOMETRY_TOLERANCES.items():
        assert worst[key] <= tol, key


def test_operators_call_the_patch_a_fixed_number_of_times():
    base = make_saddle_patch()
    calls = dict.fromkeys(("height", "grad", "hess"), 0)

    def counted(key):
        def call(s1, s2):
            calls[key] += 1
            return getattr(base, key)(s1, s2)
        return call

    patch = SurfacePatch(height=counted("height"), grad=counted("grad"), hess=counted("hess"),
                         domain=base.domain, delta=base.delta)
    f = squared_radius_field(patch)
    v = cartesian_vector_field(patch, lambda x: x)
    operators = (chart, metric,
                 lambda p, pt: gradient_curvilinear(f, p, pt),
                 lambda p, pt: divergence_curvilinear(v, p, pt),
                 lambda p, pt: laplacian_curvilinear(f, p, pt),
                 lambda p, pt: tangential_laplacian(f, p, pt),
                 lambda p, pt: normal_laplacian_part(f, p, pt))

    def count(pt):
        tally = []
        for op in operators:
            calls.update(dict.fromkeys(calls, 0))
            op(patch, pt)
            tally.append(dict(calls))
        return tally

    rng = np.random.default_rng(2)
    many = TubularPoint(rng.uniform(-0.9, 0.9, 50), rng.uniform(-0.9, 0.9, 50),
                        rng.uniform(0.0, patch.delta, 50))
    assert count(TubularPoint(0.1, -0.2, 0.05)) == count(many)
