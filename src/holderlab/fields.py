"""Channel grids, sampled fields, and grid-based Hölder estimation.

The domain is the fixed channel [0, 2) x [0, 1]: x is periodic with
period 2 and ``nx`` nodes, y runs from 0 to 1 with ``ny`` nodes on and
between both walls.  Fields are node samples; there is no
interpolation machinery on purpose — analytic fields are resampled when
the resolution changes.

Every Hölder diagnostic is one shift scan: given a list of node shifts
(di, dj), it returns max |f(p) - f(q)| over the pairs p - q = (di, dj)
for each shift and each component, with x periodic.  The estimators
differ only in the shifts they ask for.  ``modulus_of_continuity`` asks
for every shift along the two axes and the two diagonals up to a
separation h; ``holder_quotient`` and ``c_alpha_norm`` ask for the
dyadic separations {h_max, h_max/2, ...} along the same directions, so
the cost stays O(nx*ny*log) per call.

The grid kernels run on one block runner, :func:`_run_blocks`.  It splits
an index range into one contiguous piece per CPU this process may use, cuts
each piece into blocks of about ``_BLOCK_BYTES``, and runs the first piece
on the calling thread and the rest on a thread pool made on first use.  The
kernels are this scan, one product-sum kernel and the Poisson layer.  The
product-sum kernel, :func:`_sum_products`, adds products of a column or a
grid-shaped view with a row or a scalar into the x-row blocks of a stack;
the lacunary samplers of :mod:`holderlab.weierstrass`, the trig-polynomial
sampler of :mod:`holderlab.pressure` and the mollifier's taps are its
products.  In :mod:`holderlab.spectral` the y-solves run in blocks of
x-mode rows; in :mod:`holderlab.pressure` the modified-pressure solve is
three passes: column blocks with one halo column each side (the right-hand
side and its spectrum), x-mode row blocks (the y-solve) and column blocks
again (P and its residual).  Work under ``_PARALLEL_NODES`` values (the
array's size; for the product sum, nodes times products) runs as one piece
on the calling thread.  A shift scan weighs its work as nodes times shifts
against its own ``_PARALLEL_SCAN_WORK`` = 2^20, so a single-component scan
of a 256x129 grid stays on one thread while a three-component stack of it,
or one 512x257 component, is split.  The size rule, :func:`_workers`, also
gives the worker count of the whole-array x-FFTs that the calling thread
makes outside the runner.
The pieces run numpy and ``scipy.fft`` with one worker only, and each
result element is computed by the same operations whatever the partition,
so results do not depend on the core count.

``estimate_holder_exponent`` regresses per-scale oscillations taken at
node displacements of exactly (h,0), (0,h), (h,h) and (h,-h).  Exact
dyadic displacements matter for lacunary fields: the increment at shift
2^-m annihilates every mode finer than 2^m, so the per-scale maxima
inherit the series' self-similarity and the log-log fit converges to
the true exponent instead of picking up the slowly decaying bias that
a sup over all separations <= h carries.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import cache

import numpy as np

__all__ = [
    "ChannelGrid",
    "ChannelField",
    "HolderEstimate",
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


# scratch per block of a grid kernel.  A block also reads rows of its
# inputs, so it touches two to three times this; 512 KiB measured fastest
# among 256 KiB to 4 MiB for 2048x2049 scans and samples on cores with a
# 2 MiB L2 cache.
_BLOCK_BYTES = 512 << 10

# arrays with fewer nodes run as one piece on the calling thread: below
# about 512x512 nodes a second piece measured no faster
_PARALLEL_NODES = 1 << 18

# a shift scan of fewer node-shift pairs (nodes times shifts) runs as one
# piece on the calling thread.  A c_alpha_norm on 2 cores took, in two
# pieces against one: 1.11 vs 0.71 ms for three 128x65 components (0.3 M
# pairs), 1.58 vs 0.96 ms for one 256x129 component (14 shifts, 0.46 M),
# 1.75 vs 2.20 ms for three (1.4 M) and 3.19 vs 4.39 ms for one 512x257
# component (20 shifts, 2.6 M)
_PARALLEL_SCAN_WORK = 1 << 20


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


_CPUS = _usable_cpus()


@cache
def _pool() -> ThreadPoolExecutor:
    """The block runner's worker threads, made on first use."""
    return ThreadPoolExecutor(max_workers=max(1, _CPUS - 1),
                              thread_name_prefix="holderlab-blocks")


if hasattr(os, "register_at_fork"):
    # a forked child does not inherit the threads, so it makes its own pool
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _workers(work: int, threshold: int | None = None) -> int:
    """The CPUs that work (the nodes, or nodes times taps, it stands for) is
    spread over: ``_CPUS`` from threshold on, by default ``_PARALLEL_NODES``,
    otherwise one."""
    return _CPUS if work >= (_PARALLEL_NODES if threshold is None else threshold) else 1


def _run_blocks(fn, n: int, row_bytes: int, work: int, threshold: int | None = None) -> list:
    """[fn(start, stop)] over the blocks of range(n), in order.

    range(n) is cut into :func:`_workers` (work, threshold) contiguous pieces,
    but never into more pieces than n.  Each piece is cut into blocks of
    max(1, ``_BLOCK_BYTES`` // row_bytes) rows.  The calling thread runs the
    first piece's blocks and the pool the rest.  fn may call numpy, scipy
    with one worker and private helpers but no public package function, so
    that every such call, and any profiler's record of it, stays on the
    calling thread, which alone picks a worker count.
    """
    pieces = max(1, min(n, _workers(work, threshold)))
    bounds = [n * i // pieces for i in range(pieces + 1)]
    step = max(1, _BLOCK_BYTES // row_bytes)

    def piece(start, stop):
        return [fn(a, min(a + step, stop)) for a in range(start, stop, step)]

    futures = [_pool().submit(piece, a, b) for a, b in zip(bounds[1:-1], bounds[2:])]
    try:
        first = piece(bounds[0], bounds[1])
    finally:
        wait(futures)
    return first + [r for f in futures for r in f.result()]


def _sum_products(out: np.ndarray, products) -> None:
    """out[c] += a * b (* scale) for each product (c, a, b, scale), in list
    order, on a (components, nx, ny) stack: a is an (nx, 1) column or an
    (nx, ny) view, b a row or a scalar, scale a float or None.

    Every product goes into one x-row block of :func:`_run_blocks` before the
    next block, as t = a * b, t *= scale, out[c] += t through one block of
    scratch, so no element depends on the partition.  The work is weighed as
    nodes times products.
    """
    nx, ny = out.shape[1:]

    def add(r, s):
        t = np.empty((s - r, ny))
        for c, a, b, scale in products:
            np.multiply(a[r:s], b, out=t)
            if scale is not None:
                t *= scale
            out[c, r:s] += t

    _run_blocks(add, nx, 8 * ny, nx * ny * len(products))


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class ChannelGrid:
    """Uniform tensor grid on the channel [0, 2) x [0, 1].

    nx periodic nodes cover [0, 2); ny nodes cover [0, 1] with both walls
    landing exactly on nodes.  nx must be a power of two
    (>= 4) so spectral work in x and dyadic pair scans line up.
    """

    nx: int
    ny: int

    def __post_init__(self):
        if not isinstance(self.nx, int) or not _is_power_of_two(self.nx) or self.nx < 4:
            raise ValueError(f"nx must be a power of two >= 4, got {self.nx}")
        if not isinstance(self.ny, int) or self.ny < 3:
            raise ValueError(f"ny must be an integer >= 3, got {self.ny}")

    @property
    def hx(self) -> float:
        return 2.0 / self.nx

    @property
    def hy(self) -> float:
        return 1.0 / (self.ny - 1)

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.nx) * self.hx

    @property
    def y(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.ny)

    def wall_row_index(self, y: float) -> int:
        """Index of the grid line at height y, which must be on-grid."""
        j = int(round(y / self.hy))
        if not (0 <= j < self.ny) or abs(self.y[j] - y) > 1e-12:
            raise ValueError(f"y={y} is not a grid line of this grid")
        return j


class _Owned:
    """A buffer handed over by :meth:`ChannelField._adopt`."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


@dataclass(frozen=True)
class ChannelField:
    """One- or two-component node samples on a :class:`ChannelGrid`.

    values has shape (components, nx, ny) and is frozen after
    construction so fields can be shared across threads safely.

    The constructor copies the array it is given, so the caller's array
    stays writable and later changes to it never reach the field.  The
    package's own builders (the samplers, the solvers, the mollifier)
    allocate a fresh buffer per field and hand it over through
    :meth:`_adopt`, which validates and freezes that buffer in place:
    no copy, and no writable reference left behind.
    """

    grid: ChannelGrid
    values: np.ndarray

    def __post_init__(self):
        owned = isinstance(self.values, _Owned)
        v = np.asarray(self.values.array if owned else self.values, dtype=float)
        if owned:
            # frozen before any reshape, so no writable base stays behind
            v.flags.writeable = False
        if v.ndim == 2:
            v = v[None, :, :]
        if v.ndim != 3 or v.shape[0] not in (1, 2):
            raise ValueError("values must have shape (1 or 2, nx, ny)")
        if v.shape[1] != self.grid.nx or v.shape[2] != self.grid.ny:
            raise ValueError(
                f"values shape {v.shape[1:]} does not match grid ({self.grid.nx}, {self.grid.ny})"
            )
        if not owned:
            v = v.copy()
            v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def _adopt(cls, grid: ChannelGrid, values: np.ndarray) -> "ChannelField":
        """A field on ``values`` itself, validated and frozen without a copy.

        For buffers the caller allocated for this field and does not keep
        writing to; a view of a frozen field's values qualifies too.
        """
        return cls(grid, _Owned(values))

    @property
    def components(self) -> int:
        return self.values.shape[0]

    @classmethod
    def from_function(cls, grid: ChannelGrid, fn) -> "ChannelField":
        """Sample fn(X, Y) on the grid: one array for a scalar field, or a
        tuple of one array per component.

        X is the x-axis as a column (nx, 1) and Y the y-axis as a row
        (1, ny), so fn must broadcast: numpy ufuncs and arithmetic on X and
        Y do.  Each output is broadcast to (nx, ny) into one fresh buffer,
        so an output that is a column, a row, a scalar or an array the
        caller holds all work, and the field never shares the caller's
        memory.
        """
        out = fn(grid.x[:, None], grid.y[None, :])
        parts = out if isinstance(out, tuple) else (out,)
        values = np.empty((len(parts), grid.nx, grid.ny))
        for v, part in zip(values, parts):
            v[...] = part
        return cls._adopt(grid, values)


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


def _shift_maxima(vals: np.ndarray, shifts) -> np.ndarray:
    """max |f(p) - f(q)| over node pairs p - q = (di, dj), 0 <= di < nx, per
    shift and per component of a (..., nx, ny) stack: shape (len(shifts), ...).
    x is periodic: rows [di:] pair with [:nx-di], the wrapped rows [:di] with
    [nx-di:].  A shift with no y-overlap gives 0; a non-finite maximum raises
    ValueError, so NaN/inf samples never pass a scan unnoticed.

    The p rows are scanned in blocks of :func:`_run_blocks`, each block
    for every shift into one scratch buffer of its own, giving the block's
    max per shift; the blocks combine by np.maximum, which is exact.  The
    work is weighed as nodes times shifts against ``_PARALLEL_SCAN_WORK``.
    """
    nx, ny = vals.shape[-2:]
    lead = vals.shape[:-2]
    comps = math.prod(lead)

    def scan(a, b):
        best = np.zeros((len(shifts),) + lead)
        buf = np.empty(comps * (b - a) * ny)
        for k, (di, dj) in enumerate(shifts):
            m = ny - abs(dj)
            if m <= 0:
                continue
            p = vals[..., max(dj, 0):max(dj, 0) + m]
            q = vals[..., max(-dj, 0):max(-dj, 0) + m]
            # rows i >= di pair with i - di, the wrapped rows i < di
            # with i - di + nx
            for lo, hi, off in ((max(a, di), b, -di), (a, min(b, di), nx - di)):
                if lo < hi:
                    d = buf[:comps * (hi - lo) * m].reshape(lead + (hi - lo, m))
                    np.subtract(p[..., lo:hi, :], q[..., lo + off:hi + off, :], out=d)
                    best[k] = np.maximum(best[k], np.abs(d, out=d).max(axis=(-2, -1)))
        return best

    out = np.maximum.reduce(_run_blocks(scan, nx, 8 * comps * ny, vals.size * len(shifts),
                                        _PARALLEL_SCAN_WORK))
    if not np.isfinite(out).all():
        raise ValueError("non-finite node values: a Hölder scan needs finite samples")
    return out


def _directions(grid: ChannelGrid):
    """(di, dj, step, cap) per scan direction: the unit node shift, its
    length, and the largest useful shift count (half a period in x, the
    full height in y)."""
    for di, dj in _DIRECTIONS:
        caps = ([grid.nx // 2] if di else []) + ([grid.ny - 1] if dj else [])
        yield di, dj, math.hypot(di * grid.hx, dj * grid.hy), min(caps)


def modulus_of_continuity(f: ChannelField, h: float) -> float:
    """sup |f(p) - f(q)| over sampled node pairs with separation <= h.

    Pairs run along both axes and both diagonals; x separations use the
    periodic metric.  Monotone nondecreasing in h by construction.
    """
    grid = f.grid
    vals = _scalar_values(f)
    if h < max(grid.hx, grid.hy) * (1.0 - 1e-12):
        raise ValueError(f"h={h} is below the grid resolution {max(grid.hx, grid.hy)}")
    shifts = [(s * di, s * dj) for di, dj, step, cap in _directions(grid)
              for s in range(1, min(int(h / step + 1e-12), cap) + 1)]
    return float(_shift_maxima(vals, shifts).max(initial=0.0))


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


def _dyadic_pairs(grid: ChannelGrid, alpha: float, h_min: float, h_max: float):
    """The dyadic scan as (h, (di, dj), r**alpha): for each scale h = h_max,
    h_max/2, ... >= h_min and direction, the node shift nearest to h if its
    length r lies in [h_min, h_max].  Raises on a bad alpha or window, or
    on an empty pair set.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    res = max(grid.hx, grid.hy)
    if h_min < res * (1.0 - 1e-12):
        raise ValueError(f"h_min={h_min} is below the grid resolution {res}")
    if h_max < h_min:
        raise ValueError("h_max must be >= h_min")
    pairs = []
    h = h_max
    while h >= h_min * (1.0 - 1e-12):
        for di, dj, step, cap in _directions(grid):
            s = min(int(round(h / step)), cap)
            r = s * step
            if s >= 1 and h_min * (1.0 - 1e-9) <= r <= h_max * (1.0 + 1e-9):
                pairs.append((h, (s * di, s * dj), r**alpha))
        h /= 2.0
    if not pairs:
        raise ValueError("empty pair set: no admissible separations in [h_min, h_max]")
    return pairs


def holder_quotient(f: ChannelField, alpha: float, h_min: float, h_max: float) -> HolderEstimate:
    """Hölder seminorm and fitted exponent over dyadic pair separations.

    Scans separations h_max, h_max/2, ... down to h_min along the axis
    and diagonal directions.  The reported seminorm is a lower bound for
    the true sup over the continuum (only sampled pairs enter).
    """
    vals = _scalar_values(f)
    pairs = _dyadic_pairs(f.grid, alpha, h_min, h_max)
    diffs = _shift_maxima(vals, [shift for _, shift, _ in pairs]).tolist()
    seminorm, scale_max = 0.0, {}
    for (h, _, r_alpha), diff in zip(pairs, diffs):
        seminorm = max(seminorm, diff / r_alpha)
        scale_max[h] = max(scale_max.get(h, 0.0), diff)
    fitted, r2 = math.nan, math.nan
    positive = [(h, w) for h, w in scale_max.items() if w > 0.0]
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


def _check_norm_scales(grid: ChannelGrid) -> None:
    """Raise ValueError if the h_min of :func:`c_alpha_norm_scales` exceeds its h_max."""
    h_min, h_max = c_alpha_norm_scales(grid)
    if h_min > h_max:
        raise ValueError(
            f"resolution {grid.nx} is too coarse for the C^alpha norm estimate: "
            f"4*max(hx, hy) = {h_min:g} exceeds {h_max:g}")


def _c_alpha_parts(vals: np.ndarray, grid: ChannelGrid,
                   alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """(max |c|, dyadic seminorm of c) for each component c of node values of
    shape (nx, ny) or (components, nx, ny), as two arrays with one entry per
    component.  The seminorms come from one :func:`_shift_maxima` call over
    the :func:`holder_quotient` pairs of :func:`c_alpha_norm_scales`; alpha =
    0, or a stack that is zero everywhere, gives zero seminorms without a
    scan.  Raises on non-finite values.  :func:`c_alpha_norm` is max(top) +
    max(semi); the largest norm of one component is max(top + semi).
    """
    stack = np.reshape(vals, (-1, grid.nx, grid.ny))
    # max |c| without an |stack| copy; + 0.0 turns the -0.0 that
    # np.maximum may give for a zero component into +0.0
    top = np.maximum(np.max(stack, axis=(1, 2)), -np.min(stack, axis=(1, 2))) + 0.0
    if not np.isfinite(top).all():
        raise ValueError("non-finite node values: the C^alpha norm needs finite samples")
    if alpha == 0.0 or not top.any():
        return top, np.zeros_like(top)
    pairs = _dyadic_pairs(grid, alpha, *c_alpha_norm_scales(grid))
    diffs = _shift_maxima(stack, [shift for _, shift, _ in pairs])
    return top, np.max(diffs / np.array([r_alpha for _, _, r_alpha in pairs])[:, None], axis=0)


def c_alpha_norm(vals: np.ndarray, grid: ChannelGrid, alpha: float) -> float:
    """Estimated C^alpha norm of node values of shape (nx, ny) or
    (components, nx, ny): max |vals| plus the largest dyadic seminorm of
    a component (the :func:`holder_quotient` scan over
    :func:`c_alpha_norm_scales`).  alpha = 0 gives max |vals| alone, and
    a zero field has norm 0 on any grid.  Raises on non-finite values.
    """
    top, semi = _c_alpha_parts(vals, grid, alpha)
    return float(top.max() + semi.max())


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
    grid = f.grid
    vals = _scalar_values(f)
    shifts = []
    for h in hs:
        sx = int(round(h / grid.hx))
        sy = int(round(h / grid.hy))
        if abs(sx * grid.hx - h) > 1e-9 * h or abs(sy * grid.hy - h) > 1e-9 * h:
            raise ValueError(f"h={h} is not an integer multiple of both grid steps")
        if sx < 1 or sy < 1:
            raise ValueError(f"h={h} is below the grid resolution {max(grid.hx, grid.hy)}")
        if sx > grid.nx // 2 or sy > grid.ny - 1:
            raise ValueError(f"h={h} exceeds the half-period or channel height")
        shifts += [(sx, 0), (0, sy), (sx, sy), (sx, -sy)]
    oscs = _shift_maxima(vals, shifts).reshape(len(hs), 4).max(axis=1).tolist()
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


def _wall_max(vals: np.ndarray) -> float:
    """max |vals| over the wall rows y = 0 and y = 1 (the first and last
    index of the last axis)."""
    return float(max(np.max(np.abs(vals[..., 0])), np.max(np.abs(vals[..., -1]))))


def check_tangential(u: ChannelField) -> None:
    """Raise unless u is a 2-component velocity with u2 = 0 (to 1e-8) on both walls."""
    if u.components != 2:
        raise ValueError("expected a 2-component velocity field")
    worst = _wall_max(u.values[1])
    if worst > _WALL_TANGENCY_TOL:
        raise ValueError(
            f"velocity is not tangential at the walls (max |u2| = {worst:.3e})"
        )
