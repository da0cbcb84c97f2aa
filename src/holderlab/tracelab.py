"""Boundary-trace pairing of the squared wall-normal velocity and its
dyadic difference-quotient diagnostics.

The central object is the pairing

    trace(y) = integral over one x-period of u2(x, y)^2 theta(x) dx

for a trigonometric test function theta.  Squaring the lacunary series
couples modes pairwise; in coefficient space the x-integral reduces to
matching the combination frequencies 2^k1 +- 2^k2 against theta's
modes, so everything here is evaluated exactly (no quadrature).

The diagonal (k1 == k2) part splits again: pairing with theta's mean
gives the resonant component whose difference quotients at the wall
grow like 2^(n(1-2 alpha)); pairing with theta's doubled-frequency
modes and all off-diagonal terms stay C^1 and wash out.  The report
builders tabulate the quotients at heights y_n = 2^-n (from the wall
and around interior dyadic points), fit the growth rate, and classify
it with fixed thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .trig import cospi, sinpi
from .weierstrass import WeierstrassParams

__all__ = [
    "TestFunction",
    "TraceReport",
    "VERDICT_CONVERGES",
    "VERDICT_BOUNDED",
    "VERDICT_DIVERGES",
    "eval_trace",
    "decompose_trace",
    "dyadic_quotients_boundary",
    "dyadic_quotients_interior",
    "resonant_lower_bound",
    "interior_lower_bound",
    "classify_blowup",
    "fit_growth_exponent",
]

VERDICT_CONVERGES = "CONVERGES_TO_ZERO"
VERDICT_BOUNDED = "BOUNDED_NONZERO"
VERDICT_DIVERGES = "DIVERGES"


@dataclass(frozen=True)
class TestFunction:
    """Trigonometric test function on the period-2 circle.

    cos_coeffs[m] multiplies cos(m pi x) and sin_coeffs[m] multiplies
    sin(m pi x) for m = 0..M; sin_coeffs[0] is inert.  The mean over one
    period is exactly 2*cos_coeffs[0].
    """

    __test__ = False  # keep pytest from collecting this as a test class

    cos_coeffs: tuple
    sin_coeffs: tuple = ()

    def __post_init__(self):
        cc = tuple(float(c) for c in self.cos_coeffs)
        sc = tuple(float(s) for s in self.sin_coeffs)
        if not cc:
            raise ValueError("cos_coeffs must hold at least the constant term")
        if len(sc) > len(cc):
            raise ValueError("sin_coeffs may not extend beyond cos_coeffs modes")
        sc = sc + (0.0,) * (len(cc) - len(sc))
        object.__setattr__(self, "cos_coeffs", cc)
        object.__setattr__(self, "sin_coeffs", sc)

    @property
    def mode_count(self) -> int:
        return len(self.cos_coeffs) - 1

    @property
    def mean(self) -> float:
        """Integral over one period; the constant term sees length 2."""
        return 2.0 * self.cos_coeffs[0]

    def moment(self, m: int) -> float:
        """Integral of cos(m pi x) times theta over one period, exact."""
        if m < 0:
            raise ValueError("mode index must be nonnegative")
        if m == 0:
            return self.mean
        if m <= self.mode_count:
            return self.cos_coeffs[m]
        return 0.0

    def evaluate(self, x):
        """Pointwise values (used by quadrature cross-checks and the CLI)."""
        x = np.asarray(x, dtype=float)
        out = np.full(x.shape, self.cos_coeffs[0])
        for m in range(1, self.mode_count + 1):
            if self.cos_coeffs[m]:
                out = out + self.cos_coeffs[m] * np.cos(m * math.pi * x)
            if self.sin_coeffs[m]:
                out = out + self.sin_coeffs[m] * np.sin(m * math.pi * x)
        return out

    def scaled(self, c: float) -> "TestFunction":
        """Return c * theta; every trace diagnostic scales linearly."""
        return TestFunction(
            tuple(c * v for v in self.cos_coeffs),
            tuple(c * v for v in self.sin_coeffs),
        )

    @staticmethod
    def mean_one() -> "TestFunction":
        """The constant test function with unit integral."""
        return TestFunction((0.5,))


def _pair_coupling(theta: TestFunction, k1: int, k2: int) -> float:
    """Exact x-integral of cos(2^k1 pi x) cos(2^k2 pi x) theta(x)."""
    hi = 2**k1 + 2**k2
    lo = abs(2**k1 - 2**k2)
    return 0.5 * (theta.moment(hi) + theta.moment(lo))


def eval_trace(p: WeierstrassParams, theta: TestFunction, y: float) -> float:
    """Pairing of u2(., y)^2 with theta, exact in coefficient space."""
    total = 0.0
    sins = [sinpi(2.0**k * y) for k in range(p.n_terms + 1)]
    for k1 in range(p.n_terms + 1):
        if sins[k1] == 0.0:
            continue
        for k2 in range(p.n_terms + 1):
            if sins[k2] == 0.0:
                continue
            coupling = _pair_coupling(theta, k1, k2)
            if coupling != 0.0:
                total += (
                    2.0 ** (-p.alpha * (k1 + k2)) * coupling * sins[k1] * sins[k2]
                )
    return total


def decompose_trace(p: WeierstrassParams, theta: TestFunction, y: float):
    """Split the trace pairing into (off-diagonal, doubled-frequency
    diagonal, mean-paired diagonal) parts; the three sum back to
    :func:`eval_trace` to rounding accuracy.
    """
    diag_mean = 0.0
    diag_doubled = 0.0
    off_diag = 0.0
    sins = [sinpi(2.0**k * y) for k in range(p.n_terms + 1)]
    for k in range(p.n_terms + 1):
        s2 = sins[k] * sins[k]
        if s2 == 0.0:
            continue
        w = 2.0 ** (-2.0 * p.alpha * k)
        diag_mean += 0.5 * theta.mean * w * s2
        diag_doubled += 0.5 * theta.moment(2 ** (k + 1)) * w * s2
    for k1 in range(p.n_terms + 1):
        if sins[k1] == 0.0:
            continue
        for k2 in range(k1 + 1, p.n_terms + 1):
            if sins[k2] == 0.0:
                continue
            coupling = _pair_coupling(theta, k1, k2)
            if coupling != 0.0:
                off_diag += (
                    2.0 ** (-p.alpha * (k1 + k2)) * coupling * sins[k1] * sins[k2]
                ) * 2.0
    return off_diag, diag_doubled, diag_mean


@dataclass(frozen=True)
class TraceReport:
    """Dyadic difference-quotient table with growth fit and verdict.

    quotients holds the totals; components maps the CSV column names to
    the per-part tables (off-diagonal / doubled-frequency / mean-paired
    for boundary reports, the three split sums for interior reports).
    """

    alpha: float
    n_values: tuple
    y_values: tuple
    quotients: tuple
    lower_bounds: tuple
    fitted_growth_exponent: float
    verdict: str
    components: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.n_values)
        if not (len(self.quotients) == n and len(self.lower_bounds) == n
                and len(self.y_values) == n):
            raise ValueError("n_values, y_values, quotients, lower_bounds must align")
        if self.verdict not in (VERDICT_CONVERGES, VERDICT_BOUNDED, VERDICT_DIVERGES):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        for key, col in self.components.items():
            if len(col) != n:
                raise ValueError(f"component {key} misaligned")


def fit_growth_exponent(n_values, values) -> float:
    """Least-squares slope of log2 |values| against n over the upper
    half of the n-range; nan when fewer than two usable points."""
    ns = np.asarray(n_values, dtype=float)
    vs = np.abs(np.asarray(values, dtype=float))
    cut = ns >= (ns[0] + ns[-1]) / 2.0
    ns, vs = ns[cut], vs[cut]
    keep = vs > 0.0
    ns, vs = ns[keep], vs[keep]
    if len(ns) < 2 or np.ptp(ns) == 0.0:
        return math.nan
    return float(np.polyfit(ns, np.log2(vs), 1)[0])


def classify_blowup(quotients, n_values) -> str:
    """Fixed-threshold trichotomy on |quotients| over n_values.

    DIVERGES: fitted growth exponent > 0.1 and the last value exceeds
    ten times the first.  CONVERGES_TO_ZERO: exponent < -0.1 or the
    upper-half maximum is below 1e-3.  BOUNDED_NONZERO: |exponent| <=
    0.1 with upper-half minimum >= 0.5, and the fallback when no rule
    fires.
    """
    if len(quotients) < 6:
        raise ValueError("need at least six points to classify")
    if len(quotients) != len(n_values):
        raise ValueError("quotients and n_values must align")
    qs = np.abs(np.asarray(quotients, dtype=float))
    ns = np.asarray(n_values, dtype=float)
    tail = qs[ns >= (ns[0] + ns[-1]) / 2.0]
    exponent = fit_growth_exponent(n_values, quotients)
    if not math.isnan(exponent) and exponent > 0.1 and qs[-1] > 10.0 * qs[0] > 0.0:
        return VERDICT_DIVERGES
    if (not math.isnan(exponent) and exponent < -0.1) or tail.max() < 1e-3:
        return VERDICT_CONVERGES
    return VERDICT_BOUNDED


def resonant_lower_bound(alpha: float, n: int) -> float:
    """Closed-form floor for the mean-paired quotient at y_n = 2^-n
    when theta has unit integral:

        (2 / (2^(2(1-alpha)) - 1)) * (2^(n(1-2 alpha)) - 2^-n)

    At n=1 the expression collapses algebraically to 1 for every alpha;
    the float formula can round a hair above the exact quotient there,
    so that value is returned directly.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return 1.0
    return (2.0 / (2.0 ** (2.0 * (1.0 - alpha)) - 1.0)) * (
        2.0 ** (n * (1.0 - 2.0 * alpha)) - 2.0**-n
    )


def interior_lower_bound(alpha: float, m: int, n: int) -> float:
    """Floor for the resonant-tail sum of the interior quotient at a
    dyadic point of depth m: same geometric chain as the wall bound
    with the tail starting at k = m instead of k = 0."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha}")
    if not (1 <= m <= n):
        raise ValueError("need 1 <= m <= n")
    return (2.0 / (2.0 ** (2.0 * (1.0 - alpha)) - 1.0)) * (
        2.0 ** (n * (1.0 - 2.0 * alpha)) - 2.0 ** ((2.0 - 2.0 * alpha) * m - n)
    )


def dyadic_quotients_boundary(
    p: WeierstrassParams, theta: TestFunction, n_max: int
) -> TraceReport:
    """Quotients trace(y_n)/y_n at wall distances y_n = 2^-n, n = 1..n_max.

    Division by y_n is an exact power-of-two scaling.  The mean-paired
    component reproduces the closed finite sum
    2^(n-1) sum_{k<n} 2^(-2 alpha k) sin^2(2^(k-n) pi) bitwise, because
    the k >= n summands evaluate to exact zeros.  lower_bounds hold
    :func:`resonant_lower_bound` (exact floor when theta has unit mean).
    """
    if not (1 <= n_max <= 50):
        raise ValueError(f"n_max must lie in 1..50, got {n_max}")
    ns = tuple(range(1, n_max + 1))
    ys, totals, offs, doubles, means_ = [], [], [], [], []
    for n in ns:
        y = 2.0**-n
        scale = 2.0**n
        off, dbl, mean_part = decompose_trace(p, theta, y)
        ys.append(y)
        offs.append(off * scale)
        doubles.append(dbl * scale)
        means_.append(mean_part * scale)
        totals.append((off + dbl + mean_part) * scale)
    bounds = tuple(resonant_lower_bound(p.alpha, n) if 0.0 < p.alpha < 1.0 else math.nan
                   for n in ns)
    exponent = fit_growth_exponent(ns, totals)
    verdict = classify_blowup(totals, ns) if n_max >= 6 else VERDICT_BOUNDED
    return TraceReport(
        alpha=p.alpha,
        n_values=ns,
        y_values=tuple(ys),
        quotients=tuple(totals),
        lower_bounds=bounds,
        fitted_growth_exponent=exponent,
        verdict=verdict,
        components={
            "quotient_NR": tuple(offs),
            "quotient_RNR": tuple(doubles),
            "quotient_RR": tuple(means_),
        },
    )


def dyadic_quotients_interior(
    p: WeierstrassParams, theta: TestFunction, j: int, m: int, n_max: int
) -> TraceReport:
    """Difference quotients of the mean-paired trace component around
    the interior dyadic height y1 = j/2^m, at steps h_n = 2^-n.

    Uses the identity sin^2(A+B) - sin^2(A) = sin(2A+B) sin(B) termwise
    (never the naive difference, which loses eps*2^n absolute accuracy)
    and reports the three pieces separately:

      quotient_NR : modes k <= m-2, odd in the step (stays bounded),
      quotient_RNR: modes k <= m-1, even in the step (goes to zero),
      quotient_RR : resonant tail m <= k < n (drives any blow-up).

    lower_bounds hold :func:`interior_lower_bound`, an exact floor for
    the quotient_RR column when theta has unit mean.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not (1 <= j <= 2**m - 1):
        raise ValueError(f"j must lie in 1..2^m-1, got {j}")
    if not (m <= n_max <= 50):
        raise ValueError(f"n_max must lie in {m}..50, got {n_max}")
    half_mean = 0.5 * theta.mean
    ns = tuple(range(m, n_max + 1))
    ys, s_odd, s_even, s_tail, totals = [], [], [], [], []
    for n in ns:
        pref = half_mean * 2.0**n
        odd = 0.0
        for k in range(0, min(m - 1, p.n_terms + 1)):
            odd += (
                2.0 ** (-2.0 * p.alpha * k)
                * sinpi(j * 2.0 ** (k + 1 - m))
                * cospi(2.0 ** (k - n))
                * sinpi(2.0 ** (k - n))
            )
        even = 0.0
        for k in range(0, min(m, p.n_terms + 1)):
            even += (
                2.0 ** (-2.0 * p.alpha * k)
                * cospi(j * 2.0 ** (k + 1 - m))
                * sinpi(2.0 ** (k - n)) ** 2
            )
        tail = 0.0
        for k in range(m, min(n, p.n_terms + 1)):
            tail += 2.0 ** (-2.0 * p.alpha * k) * sinpi(2.0 ** (k - n)) ** 2
        ys.append(j * 2.0**-m)
        s_odd.append(pref * odd)
        s_even.append(pref * even)
        s_tail.append(pref * tail)
        totals.append(pref * (odd + even + tail))
    bounds = tuple(interior_lower_bound(p.alpha, m, n) if 0.0 < p.alpha < 1.0 else math.nan
                   for n in ns)
    exponent = fit_growth_exponent(ns, totals)
    verdict = classify_blowup(totals, ns) if len(ns) >= 6 else VERDICT_BOUNDED
    return TraceReport(
        alpha=p.alpha,
        n_values=ns,
        y_values=tuple(ys),
        quotients=tuple(totals),
        lower_bounds=bounds,
        fitted_growth_exponent=exponent,
        verdict=verdict,
        components={
            "quotient_NR": tuple(s_odd),
            "quotient_RNR": tuple(s_even),
            "quotient_RR": tuple(s_tail),
        },
    )
