"""Tubular-neighborhood charts over height-function boundary patches.

A patch is the graph x3 = a(sigma1, sigma2) of a smooth height function
with analytic first and second derivatives.  Points near the boundary
are addressed by chart coordinates (sigma1, sigma2, s):

    x(sigma, s) = (sigma1, sigma2, a(sigma)) + s * n(sigma)

where n = (d1 a, d2 a, -1)/sqrt(1 + |grad a|^2) is the inward unit
normal (the fluid fills the region below the graph).  The chart
Jacobian J has columns (d_sigma1 x, d_sigma2 x, n); the inverse metric
a_inv = J^-1 J^-T and the volume factor b = |det J| feed the
curvilinear gradient, divergence, and Laplacian in flux form.  The
normal column is unit length, so a_inv has an exact block structure:
entry (3,3) is 1 and the normal-tangential entries vanish, which is
what splits the Laplacian into tangential and straight-line normal
parts.

Every operator works on whole point sets.  The coordinates of a
:class:`TubularPoint` are floats or arrays of one broadcast shape
``(...)``; float coordinates are the 0-d case of the same code.  Results
carry the point shape in front and components last: ``chart`` and
``gradient_curvilinear`` give ``(..., 3)``, the metric Jacobian and
inverse metric ``(..., 3, 3)``, ``b``, the divergence and the
Laplacians ``(...)``.  Callables follow the same contract.  Patch
callables take arrays ``(s1, s2)``: ``height`` returns ``(...)``,
``grad`` ``(..., 2)`` and ``hess`` ``(..., 2, 2)``.  Chart-field
callables take ``(s1, s2, s)``: ``ChartScalarField.grad`` and
``ChartVectorField.components`` return ``(..., 3)``.  Cartesian
callbacks take ``x`` of shape ``(..., 3)``.  Each result is broadcast to
the point shape, so a callable may return a constant.  The small
contractions use ``matmul``, ``vecdot`` and the stacked ``linalg``
routines, which make the same BLAS and LAPACK calls as one-point
products; a point set therefore gives, bit for bit, the values of its
points taken one at a time (elementwise sums or ``einsum`` would not).

Derivatives of the metric quantities are taken by centered differences
with step 1e-5 * delta, all six neighbours of every point in one
evaluation; with analytic patch derivatives this keeps the FD noise near
1e-10, well inside the 1e-8 identity tolerances used by the test-suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "SurfacePatch",
    "TubularPoint",
    "MetricData",
    "ChartScalarField",
    "ChartVectorField",
    "make_surface_patch",
    "normal",
    "chart",
    "metric",
    "gradient_curvilinear",
    "divergence_curvilinear",
    "laplacian_curvilinear",
    "tangential_laplacian",
    "normal_laplacian_part",
    "cartesian_scalar_field",
    "cartesian_vector_field",
    "squared_radius_field",
    "make_flat_patch",
    "make_paraboloid_patch",
    "make_saddle_patch",
    "make_sinusoidal_patch",
    "PATCH_BUILDERS",
]

_DET_FLOOR = 1e-8


@dataclass(frozen=True)
class SurfacePatch:
    """Height-function boundary patch with analytic derivatives.

    height(s1, s2) -> (...), grad(s1, s2) -> (..., 2), hess(s1, s2) ->
    (..., 2, 2) for arrays s1, s2 of shape (...).  domain is ((s1_min,
    s1_max), (s2_min, s2_max)) and delta the admissible inward depth.
    Use :func:`make_surface_patch`, which cross-checks the derivatives
    and scans the chart for degeneracy; the raw constructor performs no
    validation.
    """

    height: Callable
    grad: Callable
    hess: Callable
    domain: tuple
    delta: float
    name: str = ""


@dataclass(frozen=True)
class TubularPoint:
    """Chart coordinates: surface parameters and inward wall distance.

    Floats give one point, arrays of one broadcast shape a point set.
    Every coordinate must be finite and s nonnegative.
    """

    sigma1: float
    sigma2: float
    s: float

    def __post_init__(self):
        if not all(np.all(np.isfinite(c)) for c in (self.sigma1, self.sigma2, self.s)):
            raise ValueError("chart coordinates must be finite")
        if np.any(np.asarray(self.s) < 0.0):
            raise ValueError(f"s must be nonnegative, got {np.min(self.s)}")


@dataclass(frozen=True)
class MetricData:
    """Chart Jacobian, inverse metric a_inv = J^-1 J^-T, and b = |det J|."""

    jacobian: np.ndarray
    a_inv: np.ndarray
    b: float


def _shaped(shape: tuple, value) -> np.ndarray:
    """A callable's result as a float array broadcast to shape."""
    return np.broadcast_to(np.asarray(value, dtype=float), shape)


def _stack(s1, s2, s) -> np.ndarray:
    """Chart coordinates broadcast together, shape (..., 3)."""
    return np.stack(np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in (s1, s2, s))),
                    axis=-1)


def _unit_normal(g: np.ndarray):
    """Inward unit normal (..., 3) and its scale w = sqrt(1 + |g|^2)."""
    w = np.sqrt(1.0 + g[..., 0] * g[..., 0] + g[..., 1] * g[..., 1])
    n = np.stack([g[..., 0], g[..., 1], np.full(w.shape, -1.0)], axis=-1) / w[..., None]
    return n, w


def _frame(patch: SurfacePatch, xi: np.ndarray):
    """Chart position x (..., 3) and Jacobian J (..., 3, 3) at chart points xi (..., 3).

    The tangential columns are (e_j, d_j a) + s d_j n with the normal
    derivative d_j n = (H e_j - n (g . H e_j) / w) / w.
    """
    s1, s2, s = np.moveaxis(xi, -1, 0)
    g = _shaped(s.shape + (2,), patch.grad(s1, s2))
    H = _shaped(s.shape + (2, 2), patch.hess(s1, s2))
    n, w = _unit_normal(g)
    # g . H e_j over the strided columns of H, as a one-point g @ H[:, j] does
    dw = np.vecdot(g[..., None, :], H.mT) / w[..., None]
    dn = np.zeros(s.shape + (3, 2))
    dn[..., :2, :] = H / w[..., None, None]
    dn -= n[..., :, None] * (dw / w[..., None])[..., None, :]
    J = np.empty(s.shape + (3, 3))
    tangent = np.concatenate([np.broadcast_to(np.eye(2), s.shape + (2, 2)), g[..., None, :]],
                             axis=-2)
    J[..., :2] = tangent + s[..., None, None] * dn
    J[..., 2] = n
    x = np.stack([s1, s2, _shaped(s.shape, patch.height(s1, s2))], axis=-1) + s[..., None] * n
    return x, J


def _metric_at(patch: SurfacePatch, xi: np.ndarray) -> MetricData:
    J = _frame(patch, xi)[1]
    det = np.linalg.det(J)
    # written so that a NaN determinant fails it too
    if not np.all(np.abs(det) >= _DET_FLOOR):
        raise ValueError("degenerate chart Jacobian: point past the focal distance")
    Jinv = np.linalg.inv(J)
    return MetricData(jacobian=J, a_inv=Jinv @ Jinv.mT, b=np.abs(det))


def _check_derivatives(patch: SurfacePatch) -> None:
    (lo1, hi1), (lo2, hi2) = patch.domain
    h = 1e-5 * max(hi1 - lo1, hi2 - lo2)
    s1, s2 = np.meshgrid(np.linspace(lo1, hi1, 5), np.linspace(lo2, hi2, 5), indexing="ij")
    # each lattice point, then its neighbours at +-h along sigma1 and sigma2
    d = np.array([[0.0, 0.0], [h, 0.0], [-h, 0.0], [0.0, h], [0.0, -h]])
    p1, p2 = s1 + d[:, 0, None, None], s2 + d[:, 1, None, None]
    a = _shaped(p1.shape, patch.height(p1, p2))
    g = _shaped(p1.shape + (2,), patch.grad(p1, p2))
    H = _shaped(s1.shape + (2, 2), patch.hess(s1, s2))
    fd_g = np.stack([a[1] - a[2], a[3] - a[4]], axis=-1) / (2 * h)
    if not np.allclose(g[0], fd_g, rtol=1e-5, atol=1e-5):
        raise ValueError("grad is inconsistent with height under FD check")
    fd_H = np.stack([g[1] - g[2], g[3] - g[4]], axis=-1) / (2 * h)
    if not np.allclose(H, fd_H, rtol=1e-5, atol=1e-5):
        raise ValueError("hess is inconsistent with grad under FD check")
    if not np.allclose(H, H.mT, rtol=0, atol=1e-12):
        raise ValueError("hess must be symmetric")


def _scan_degeneracy(patch: SurfacePatch) -> None:
    """Reject the patch if det J vanishes anywhere in the tube.

    J is affine in s at fixed sigma, so det J is a cubic polynomial in
    s; sampling it at four depths and root-finding the cubic catches
    degeneracies between lattice points, including double roots where
    the determinant touches zero without changing sign (the circularly
    symmetric focal point of a bowl-shaped patch is exactly that case).
    """
    (lo1, hi1), (lo2, hi2) = patch.domain
    s_nodes = np.linspace(0.0, patch.delta, 4)
    xi = np.stack(np.meshgrid(np.linspace(lo1, hi1, 9), np.linspace(lo2, hi2, 9), s_nodes,
                              indexing="ij"), axis=-1)
    dets = np.linalg.det(_frame(patch, xi)[1]).reshape(-1, 4)
    if (not np.min(np.abs(dets)) >= _DET_FLOOR or np.min(dets) * np.max(dets) < 0.0
            or any(abs(root.imag) < 1e-9 and -1e-12 <= root.real <= patch.delta
                   for coeffs in np.polyfit(s_nodes, dets.T, 3).T
                   for root in np.roots(coeffs))):
        raise ValueError(
            "chart degenerates inside the tube: delta exceeds the focal "
            "distance of the patch"
        )


def make_surface_patch(height, grad, hess, domain, delta, name="") -> SurfacePatch:
    """Validated patch constructor.

    Checks grad/hess against centered differences of height on a sample
    lattice, then scans det J over the tube and rejects the patch when
    the determinant falls below 1e-8 in magnitude or changes sign.
    """
    if not 0.0 < delta < np.inf:
        raise ValueError("delta must be positive and finite")
    (lo1, hi1), (lo2, hi2) = domain
    if not (np.all(np.isfinite(domain)) and hi1 > lo1 and hi2 > lo2):
        raise ValueError("domain rectangle must be finite with positive extent")
    patch = SurfacePatch(height=height, grad=grad, hess=hess,
                         domain=((float(lo1), float(hi1)), (float(lo2), float(hi2))),
                         delta=float(delta), name=name)
    _check_derivatives(patch)
    _scan_degeneracy(patch)
    return patch


def normal(patch: SurfacePatch, sigma1, sigma2) -> np.ndarray:
    """Inward unit normal (d1 a, d2 a, -1)/sqrt(1 + |grad a|^2), shape (..., 3)."""
    s1, s2, _ = np.moveaxis(_stack(sigma1, sigma2, 0.0), -1, 0)
    return _unit_normal(_shaped(s1.shape + (2,), patch.grad(s1, s2)))[0]


def _points(patch: SurfacePatch, pt: TubularPoint) -> np.ndarray:
    """Chart coordinates of pt, shape (..., 3), checked against the tube."""
    xi = _stack(pt.sigma1, pt.sigma2, pt.s)
    s1, s2, s = np.moveaxis(xi, -1, 0)
    (lo1, hi1), (lo2, hi2) = patch.domain
    if not (np.all((lo1 <= s1) & (s1 <= hi1)) and np.all((lo2 <= s2) & (s2 <= hi2))):
        raise ValueError(f"chart point outside the patch domain {patch.domain}")
    if np.any(s > patch.delta):
        raise ValueError(f"s={np.max(s)} exceeds the tube half-width {patch.delta}")
    return xi


def chart(patch: SurfacePatch, pt: TubularPoint) -> np.ndarray:
    """Cartesian position of the chart point y(sigma) + s n(sigma)."""
    return _frame(patch, _points(patch, pt))[0]


def metric(patch: SurfacePatch, pt: TubularPoint) -> MetricData:
    """Jacobian, inverse metric, and volume factor at a chart point."""
    return _metric_at(patch, _points(patch, pt))


@dataclass(frozen=True)
class ChartScalarField:
    """Scalar field of the chart coordinates with exact first partials.

    value(s1, s2, s) -> (...); grad(s1, s2, s) -> (..., 3) partials
    with respect to (sigma1, sigma2, s).
    """

    value: Callable
    grad: Callable


@dataclass(frozen=True)
class ChartVectorField:
    """Vector field given by its chart components (v1, v2, v3).

    components(s1, s2, s) -> (..., 3); the physical field is J @ v.
    """

    components: Callable


def _on(fn, xi: np.ndarray) -> np.ndarray:
    """A chart-field callable at chart points xi (..., 3), shape (..., 3)."""
    return _shaped(xi.shape, fn(*np.moveaxis(xi, -1, 0)))


def _stencil(patch: SurfacePatch, pt: TubularPoint):
    """Chart points xi of pt, their volume factor b, the step h, and the
    centred-difference neighbours nb (3, 2, ..., 3): nb[i, 0] is
    xi + h e_i and nb[i, 1] is xi - h e_i."""
    xi = _points(patch, pt)
    b = _metric_at(patch, xi).b
    h = 1e-5 * patch.delta
    e = (h * np.eye(3)).reshape((3,) + (1,) * (xi.ndim - 1) + (3,))
    return xi, b, h, np.stack([xi + e, xi - e], axis=1)


def gradient_curvilinear(f: ChartScalarField, patch: SurfacePatch, pt: TubularPoint) -> np.ndarray:
    """Cartesian gradient assembled as sum_j J_col_j (a_inv @ chart grad)_j."""
    xi = _points(patch, pt)
    md = _metric_at(patch, xi)
    return (md.jacobian @ (md.a_inv @ _on(f.grad, xi)[..., None]))[..., 0]


def divergence_curvilinear(v: ChartVectorField, patch: SurfacePatch, pt: TubularPoint):
    """(1/b) sum_i d/dxi_i (b v_i), flux derivatives by centered FD."""
    _, b, h, nb = _stencil(patch, pt)
    bn, vn = _metric_at(patch, nb).b, _on(v.components, nb)
    total = 0.0
    for i in range(3):
        total += (bn[i, 0] * vn[i, 0, ..., i] - bn[i, 1] * vn[i, 1, ..., i]) / (2.0 * h)
    return total / b


def _flux_laplacian(f: ChartScalarField, patch: SurfacePatch, pt: TubularPoint, k: int):
    """(1/b) sum_{i,j<k} d_i(b a_ij d_j f), flux derivatives by centered FD."""
    _, b, h, nb = _stencil(patch, pt)
    mdn, gn = _metric_at(patch, nb), _on(f.grad, nb)
    total = 0.0
    for i in range(k):
        flux = mdn.b[i] * np.vecdot(mdn.a_inv[i, ..., i, :k], gn[i, ..., :k])
        total += (flux[0] - flux[1]) / (2.0 * h)
    return total / b


def laplacian_curvilinear(f: ChartScalarField, patch: SurfacePatch, pt: TubularPoint):
    """Full curvilinear Laplacian (1/b) sum_ij d_i(b a_ij d_j f)."""
    return _flux_laplacian(f, patch, pt, 3)


def tangential_laplacian(f: ChartScalarField, patch: SurfacePatch, pt: TubularPoint):
    """Tangential block (1/b) sum_{i,j<=2} d_i(b a_ij d_j f)."""
    return _flux_laplacian(f, patch, pt, 2)


def normal_laplacian_part(f: ChartScalarField, patch: SurfacePatch, pt: TubularPoint):
    """(1/b)(d_s b)(d_s f) + d^2_s f, the straight-line normal terms.

    The full Laplacian equals tangential_laplacian plus this quantity
    because the inverse metric carries no normal-tangential coupling.
    """
    xi, b, h, nb = _stencil(patch, pt)
    bn, fs_n = _metric_at(patch, nb[2]).b, _on(f.grad, nb[2])[..., 2]
    db_ds = (bn[0] - bn[1]) / (2.0 * h)
    fss = (fs_n[0] - fs_n[1]) / (2.0 * h)
    return db_ds / b * _on(f.grad, xi)[..., 2] + fss


def cartesian_scalar_field(patch: SurfacePatch, value, grad) -> ChartScalarField:
    """Compose a Cartesian scalar F(x), with analytic gradient, with the
    chart: the chart partials are J^T (grad F)(x(xi)), exact."""

    def chart_value(s1, s2, s):
        x = _frame(patch, _stack(s1, s2, s))[0]
        return _shaped(x.shape[:-1], value(x))

    def chart_grad(s1, s2, s):
        x, J = _frame(patch, _stack(s1, s2, s))
        return (J.mT @ _shaped(x.shape, grad(x))[..., None])[..., 0]

    return ChartScalarField(value=chart_value, grad=chart_grad)


def cartesian_vector_field(patch: SurfacePatch, W) -> ChartVectorField:
    """Pull a Cartesian vector field W(x) back to chart components
    v = J^-1 W(x(xi)); the curvilinear divergence of v then equals the
    Cartesian divergence of W."""

    def components(s1, s2, s):
        x, J = _frame(patch, _stack(s1, s2, s))
        return np.linalg.solve(J, _shaped(x.shape, W(x))[..., None])[..., 0]

    return ChartVectorField(components=components)


def squared_radius_field(patch: SurfacePatch) -> ChartScalarField:
    """|x|^2 composed with the chart; its Laplacian is exactly 6."""
    return cartesian_scalar_field(patch, lambda x: np.vecdot(x, x), lambda x: 2.0 * x)


def make_flat_patch(delta: float = 0.2) -> SurfacePatch:
    return make_surface_patch(
        height=lambda s1, s2: 0.0,
        grad=lambda s1, s2: np.zeros(2),
        hess=lambda s1, s2: np.zeros((2, 2)),
        domain=((-1.0, 1.0), (-1.0, 1.0)),
        delta=delta,
        name="flat",
    )


def make_paraboloid_patch(curvature: float = 0.5, delta: float = 0.2) -> SurfacePatch:
    c = float(curvature)
    return make_surface_patch(
        height=lambda s1, s2: c * (s1 * s1 + s2 * s2),
        grad=lambda s1, s2: np.stack([2.0 * c * s1, 2.0 * c * s2], axis=-1),
        hess=lambda s1, s2: np.array([[2.0 * c, 0.0], [0.0, 2.0 * c]]),
        domain=((-1.0, 1.0), (-1.0, 1.0)),
        delta=delta,
        name="paraboloid",
    )


def make_saddle_patch(coeff: float = 0.4, delta: float = 0.2) -> SurfacePatch:
    c = float(coeff)
    return make_surface_patch(
        height=lambda s1, s2: c * s1 * s2,
        grad=lambda s1, s2: np.stack([c * s2, c * s1], axis=-1),
        hess=lambda s1, s2: np.array([[0.0, c], [c, 0.0]]),
        domain=((-1.0, 1.0), (-1.0, 1.0)),
        delta=delta,
        name="saddle",
    )


def make_sinusoidal_patch(amplitude: float = 0.15, delta: float = 0.15) -> SurfacePatch:
    amp = float(amplitude)

    def hess(s1, s2):
        diag = -np.sin(s1) * np.cos(s2)
        off = -np.cos(s1) * np.sin(s2)
        return amp * np.stack([np.stack([diag, off], axis=-1),
                               np.stack([off, diag], axis=-1)], axis=-2)

    return make_surface_patch(
        height=lambda s1, s2: amp * np.sin(s1) * np.cos(s2),
        grad=lambda s1, s2: amp * np.stack(
            [np.cos(s1) * np.cos(s2), -np.sin(s1) * np.sin(s2)], axis=-1),
        hess=hess,
        domain=((-1.0, 1.0), (-1.0, 1.0)),
        delta=delta,
        name="sinusoidal",
    )


PATCH_BUILDERS = {
    "flat": make_flat_patch,
    "paraboloid": make_paraboloid_patch,
    "saddle": make_saddle_patch,
    "sinusoidal": make_sinusoidal_patch,
}
