"""Channel grids, sampled fields, and grid-based Hölder estimation.

The domain is the periodic channel: x runs over one period (default 2)
with ``nx`` periodic nodes, y runs from 0 to ``y_extent`` (default 1)
inclusive of both walls.  Fields are node samples; there is no
interpolation machinery on purpose — analytic fields are resampled when
the resolution changes.

Hölder diagnostics work on node pairs along the two axes and the two
diagonals.  ``modulus_of_continuity`` scans every admissible shift up
to a separation h; ``holder_quotient`` restricts to dyadic separations
{h_max, h_max/2, ...} so the cost stays O(nx*ny*log) per call.

``estimate_holder_exponent`` regresses per-scale oscillations taken at
node displacements of exactly (h,0), (0,h), (h,h) and (h,-h).  Exact
dyadic displacements matter for lacunary fields: the increment at shift
2^-m annihilates every mode finer than 2^m, so the per-scale maxima
inherit the series' self-similarity and the log-log fit converges to
the true exponent instead of picking up the slowly decaying bias that
a sup over all separations <= h carries.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChannelGrid",
    "ChannelField",
    "HolderEstimate",
    "make_uniform_grid",
    "write_field_csv",
    "read_field_csv",
    "modulus_of_continuity",
    "holder_quotient",
    "c_alpha_norm_scales",
    "c_alpha_norm",
    "estimate_holder_exponent",
    "check_tangential",
]

# axis and diagonal shift directions, in (x, y) node index steps
_DIRECTIONS = ((1, 0), (0, 1), (1, 1), (1, -1))

# largest separation scanned by the C^alpha norm estimate
_NORM_H_MAX = 0.25

# largest |u2| on a wall that still counts as tangential
_WALL_TANGENCY_TOL = 1e-8


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class ChannelGrid:
    """Uniform tensor grid on the channel.

    nx periodic nodes cover [0, x_period); ny nodes cover [0, y_extent]
    with both walls landing exactly on nodes.  nx must be a power of two
    (>= 4) so spectral work in x and dyadic pair scans line up.
    """

    nx: int
    ny: int
    x_period: float = 2.0
    y_extent: float = 1.0

    def __post_init__(self):
        if not isinstance(self.nx, int) or not _is_power_of_two(self.nx) or self.nx < 4:
            raise ValueError(f"nx must be a power of two >= 4, got {self.nx}")
        if not isinstance(self.ny, int) or self.ny < 3:
            raise ValueError(f"ny must be an integer >= 3, got {self.ny}")
        if not (self.x_period > 0.0 and self.y_extent > 0.0):
            raise ValueError("x_period and y_extent must be positive")

    @property
    def hx(self) -> float:
        return self.x_period / self.nx

    @property
    def hy(self) -> float:
        return self.y_extent / (self.ny - 1)

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.nx) * self.hx

    @property
    def y(self) -> np.ndarray:
        return np.linspace(0.0, self.y_extent, self.ny)

    def meshgrid(self):
        return np.meshgrid(self.x, self.y, indexing="ij")

    def wall_row_index(self, y: float) -> int:
        """Index of the grid line at height y, which must be on-grid."""
        j = int(round(y / self.hy))
        if not (0 <= j < self.ny) or abs(self.y[j] - y) > 1e-12 * max(1.0, self.y_extent):
            raise ValueError(f"y={y} is not a grid line of this grid")
        return j


def make_uniform_grid(nx: int, ny: int, x_period: float = 2.0, y_extent: float = 1.0) -> ChannelGrid:
    """Construct a validated channel grid."""
    return ChannelGrid(nx=nx, ny=ny, x_period=x_period, y_extent=y_extent)


@dataclass(frozen=True)
class ChannelField:
    """One- or two-component node samples on a :class:`ChannelGrid`.

    values has shape (components, nx, ny) and is frozen after
    construction so fields can be shared across threads safely.
    """

    grid: ChannelGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 2:
            v = v[None, :, :]
        if v.ndim != 3 or v.shape[0] not in (1, 2):
            raise ValueError("values must have shape (1 or 2, nx, ny)")
        if v.shape[1] != self.grid.nx or v.shape[2] != self.grid.ny:
            raise ValueError(
                f"values shape {v.shape[1:]} does not match grid ({self.grid.nx}, {self.grid.ny})"
            )
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def components(self) -> int:
        return self.values.shape[0]

    def component(self, c: int = 0) -> np.ndarray:
        return self.values[c]

    @classmethod
    def from_function(cls, grid: ChannelGrid, fn) -> "ChannelField":
        """Sample fn(X, Y) on the grid; fn may return one array or a tuple."""
        X, Y = grid.meshgrid()
        out = fn(X, Y)
        if isinstance(out, tuple):
            return cls(grid, np.stack([np.asarray(o, dtype=float) for o in out]))
        return cls(grid, np.asarray(out, dtype=float))


def write_field_csv(field: ChannelField, path) -> None:
    """Write a field as CSV rows x,y,component,value (y outer, x inner)."""
    xs, ys = field.grid.x, field.grid.y
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y", "component", "value"])
        for c in range(field.components):
            vals = field.values[c]
            for j in range(field.grid.ny):
                for i in range(field.grid.nx):
                    w.writerow([f"{xs[i]:.17g}", f"{ys[j]:.17g}", c, f"{vals[i, j]:.17g}"])


def read_field_csv(path, x_period: float | None = None) -> ChannelField:
    """Rebuild a field written by :func:`write_field_csv`."""
    xs, ys, comps, vals = [], [], [], []
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r)
        if header != ["x", "y", "component", "value"]:
            raise ValueError(f"unexpected header {header}")
        for row in r:
            xs.append(float(row[0]))
            ys.append(float(row[1]))
            comps.append(int(row[2]))
            vals.append(float(row[3]))
    ux = sorted(set(xs))
    uy = sorted(set(ys))
    ncomp = max(comps) + 1
    nx, ny = len(ux), len(uy)
    if x_period is None:
        x_period = ux[1] - ux[0] if nx > 1 else 1.0
        x_period *= nx
    grid = ChannelGrid(nx=nx, ny=ny, x_period=x_period, y_extent=uy[-1])
    xi = {v: i for i, v in enumerate(ux)}
    yi = {v: j for j, v in enumerate(uy)}
    out = np.empty((ncomp, nx, ny))
    for x, y, c, v in zip(xs, ys, comps, vals):
        out[c, xi[x], yi[y]] = v
    return ChannelField(grid, out)


@dataclass(frozen=True)
class HolderEstimate:
    """Result of a grid Hölder scan.

    seminorm is the max of |f(p)-f(q)| / |p-q|**alpha over the sampled
    pairs; fitted_exponent is the log-log slope of the per-scale moduli
    and fit_r2 its regression quality in [0, 1].
    """

    alpha: float
    seminorm: float
    fitted_exponent: float
    fit_r2: float
    h_min: float
    h_max: float

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.seminorm < 0.0:
            raise ValueError("seminorm must be nonnegative")
        if not (math.isnan(self.fit_r2) or 0.0 <= self.fit_r2 <= 1.0):
            raise ValueError("fit_r2 must lie in [0, 1]")


def _scalar_values(f: ChannelField) -> np.ndarray:
    if f.components != 1:
        raise ValueError("expected a scalar field")
    return f.values[0]


def _max_abs_shift_diff(vals: np.ndarray, di: int, dj: int) -> float:
    """max |f(p) - f(q)| over pairs p - q = (di, dj) nodes (periodic x)."""
    shifted = np.roll(vals, -di, axis=0) if di else vals
    if dj == 0:
        d = shifted - vals
    elif dj > 0:
        d = shifted[:, dj:] - vals[:, :-dj]
    else:
        d = shifted[:, :dj] - vals[:, -dj:]
    return float(np.max(np.abs(d))) if d.size else 0.0


def _shift_cap(grid: ChannelGrid, di: int, dj: int) -> int:
    """Largest useful shift count: half period in x, full height in y."""
    caps = []
    if di:
        caps.append(grid.nx // 2)
    if dj:
        caps.append(grid.ny - 1)
    return min(caps)


def modulus_of_continuity(f: ChannelField, h: float) -> float:
    """sup |f(p) - f(q)| over sampled node pairs with separation <= h.

    Pairs run along both axes and both diagonals; x separations use the
    periodic metric.  Monotone nondecreasing in h by construction.
    """
    grid = f.grid
    vals = _scalar_values(f)
    if h < max(grid.hx, grid.hy) * (1.0 - 1e-12):
        raise ValueError(f"h={h} is below the grid resolution {max(grid.hx, grid.hy)}")
    best = 0.0
    for di, dj in _DIRECTIONS:
        step = math.hypot(di * grid.hx, dj * grid.hy)
        smax = min(int(h / step + 1e-12), _shift_cap(grid, di, dj))
        for s in range(1, smax + 1):
            best = max(best, _max_abs_shift_diff(vals, s * di, s * dj))
    return best


def _linear_fit(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    """Least-squares slope and r^2 of ys against xs."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < 2 or np.ptp(xs) == 0.0:
        raise ValueError("degenerate regression: need at least two distinct abscissae")
    xm, ym = xs.mean(), ys.mean()
    sxx = float(np.sum((xs - xm) ** 2))
    sxy = float(np.sum((xs - xm) * (ys - ym)))
    slope = sxy / sxx
    syy = float(np.sum((ys - ym) ** 2))
    if syy == 0.0:
        return slope, 1.0
    resid = float(np.sum((ys - ym - slope * (xs - xm)) ** 2))
    return slope, max(0.0, 1.0 - resid / syy)


def holder_quotient(f: ChannelField, alpha: float, h_min: float, h_max: float) -> HolderEstimate:
    """Hölder seminorm and fitted exponent over dyadic pair separations.

    Scans separations h_max, h_max/2, ... down to h_min along the axis
    and diagonal directions.  The reported seminorm is a lower bound for
    the true sup over the continuum (only sampled pairs enter).
    """
    grid = f.grid
    vals = _scalar_values(f)
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    res = max(grid.hx, grid.hy)
    if h_min < res * (1.0 - 1e-12):
        raise ValueError(f"h_min={h_min} is below the grid resolution {res}")
    if h_max < h_min:
        raise ValueError("h_max must be >= h_min")
    scales = []
    h = h_max
    while h >= h_min * (1.0 - 1e-12):
        scales.append(h)
        h /= 2.0
    seminorm = 0.0
    fit_h, fit_w = [], []
    for h in scales:
        scale_max = 0.0
        found = False
        for di, dj in _DIRECTIONS:
            step = math.hypot(di * grid.hx, dj * grid.hy)
            s = min(int(round(h / step)), _shift_cap(grid, di, dj))
            if s < 1:
                continue
            r = s * step
            if r > h_max * (1.0 + 1e-9) or r < h_min * (1.0 - 1e-9):
                continue
            found = True
            diff = _max_abs_shift_diff(vals, s * di, s * dj)
            seminorm = max(seminorm, diff / r**alpha)
            scale_max = max(scale_max, diff)
        if found:
            fit_h.append(h)
            fit_w.append(scale_max)
    if not fit_h:
        raise ValueError("empty pair set: no admissible separations in [h_min, h_max]")
    fitted, r2 = math.nan, math.nan
    positive = [(h, w) for h, w in zip(fit_h, fit_w) if w > 0.0]
    if len(positive) >= 2:
        logs_h = np.log([h for h, _ in positive])
        logs_w = np.log([w for _, w in positive])
        try:
            fitted, r2 = _linear_fit(logs_h, logs_w)
        except ValueError:
            pass
    return HolderEstimate(alpha=alpha, seminorm=seminorm, fitted_exponent=fitted,
                          fit_r2=r2, h_min=h_min, h_max=h_max)


def c_alpha_norm_scales(grid: ChannelGrid) -> tuple[float, float]:
    """(h_min, h_max) of the C^alpha norm estimate on this grid.

    h_min = 4 max(hx, hy) keeps the scanned pairs four cells apart;
    the estimate needs h_min <= h_max = 0.25.
    """
    return 4.0 * max(grid.hx, grid.hy), _NORM_H_MAX


def c_alpha_norm(vals: np.ndarray, grid: ChannelGrid, alpha: float) -> float:
    """Estimated C^alpha norm of node values of shape (nx, ny) or
    (components, nx, ny): max |vals| plus the largest dyadic seminorm of
    a component (:func:`holder_quotient` over
    :func:`c_alpha_norm_scales`).  alpha = 0 gives max |vals| alone, and
    a zero field has norm 0 on any grid.
    """
    norm = float(np.max(np.abs(vals)))
    if norm == 0.0 or alpha == 0.0:
        return norm
    h_min, h_max = c_alpha_norm_scales(grid)
    return norm + max(
        holder_quotient(ChannelField(grid, c), alpha, h_min, h_max).seminorm
        for c in np.reshape(vals, (-1, grid.nx, grid.ny))
    )


def _oscillation_at_scale(f: ChannelField, h: float) -> float:
    """max |f(p)-f(q)| over node pairs displaced by exactly (h,0), (0,h),
    (h,h) or (h,-h).  h must be a node-aligned multiple of both grid steps."""
    grid = f.grid
    vals = _scalar_values(f)
    sx = int(round(h / grid.hx))
    sy = int(round(h / grid.hy))
    if abs(sx * grid.hx - h) > 1e-9 * h or abs(sy * grid.hy - h) > 1e-9 * h:
        raise ValueError(f"h={h} is not an integer multiple of both grid steps")
    if sx < 1 or sy < 1:
        raise ValueError(f"h={h} is below the grid resolution {max(grid.hx, grid.hy)}")
    if sx > grid.nx // 2 or sy > grid.ny - 1:
        raise ValueError(f"h={h} exceeds the half-period or channel height")
    best = 0.0
    for di, dj in ((sx, 0), (0, sy), (sx, sy), (sx, -sy)):
        best = max(best, _max_abs_shift_diff(vals, di, dj))
    return best


def estimate_holder_exponent(f: ChannelField, h_list) -> HolderEstimate:
    """Fit the Hölder exponent from per-scale oscillations at dyadic scales.

    h_list must hold at least four scales, each half the previous after
    sorting, and every scale must land on node displacements.  The
    per-scale statistic is the maximal increment over the displacements
    (h,0), (0,h), (h,h), (h,-h); its log-log slope against h is the
    fitted exponent.  Raises on zero-variance data (constant fields).
    """
    hs = sorted(float(h) for h in h_list)
    if len(hs) < 4:
        raise ValueError("need at least four scales in h_list")
    for a, b in zip(hs, hs[1:]):
        if abs(b / a - 2.0) > 1e-9:
            raise ValueError("h_list must be consecutive dyadic scales")
    oscs = [_oscillation_at_scale(f, h) for h in hs]
    if any(w <= 0.0 for w in oscs):
        raise ValueError("degenerate regression: zero oscillation (constant field?)")
    logs_w = np.log(oscs)
    if np.ptp(logs_w) == 0.0:
        raise ValueError("degenerate regression: zero variance in oscillations")
    slope, r2 = _linear_fit(np.log(hs), logs_w)
    # quote a seminorm consistent with the fitted exponent
    alpha = min(1.0, max(slope, 1e-6))
    seminorm = max(w / h**alpha for h, w in zip(hs, oscs))
    return HolderEstimate(alpha=alpha, seminorm=seminorm, fitted_exponent=slope,
                          fit_r2=r2, h_min=hs[0], h_max=hs[-1])


def check_tangential(u: ChannelField) -> None:
    """Raise unless u is a 2-component velocity with u2 = 0 (to 1e-8) on both walls."""
    if u.components != 2:
        raise ValueError("expected a 2-component velocity field")
    worst = max(np.max(np.abs(u.values[1, :, 0])), np.max(np.abs(u.values[1, :, -1])))
    if worst > _WALL_TANGENCY_TOL:
        raise ValueError(
            f"velocity is not tangential at the walls (max |u2| = {worst:.3e})"
        )
