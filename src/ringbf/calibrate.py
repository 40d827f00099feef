"""Empirical calibration from paired high/low-dose images.

Local deviation maps yield per-pixel (noise level, reduction ratio) points;
a polynomial trend summarizes the empirical reduction curve; an ordinary
least-squares regression of the high-dose local deviation on the low-dose
deviation and the local intensity average verifies that noise scales with
deviation, not with intensity — the property that justifies applying one
intensity-shift-invariant filter across the whole gated range.

The windowed maps of a pair are computed once (:func:`local_maps`) and shared
by the point set and the regression.  The report summarizes the points in
``SUMMARY_BINS`` equal-count bins over ``t``; :func:`format_points` writes the
full per-pixel list on request.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFitError, NumericalError
from .filter import _as_values

__all__ = [
    "LocalMaps",
    "PointSummary",
    "PolyFit",
    "PredictorStats",
    "RegressionReport",
    "S_L_FLOOR",
    "SUMMARY_BINS",
    "local_std_map",
    "local_maps",
    "empirical_K_points",
    "summarize_points",
    "fit_polynomial",
    "regress_noise",
    "format_points",
    "format_calibration_report",
]

S_L_FLOOR = 1e-6  # HU; below this a local deviation is treated as zero
SUMMARY_BINS = 32  # equal-count bins over t in the calibration report
_POINTS_BLOCK = 1 << 14  # rows per formatting call (and per written block) in format_points
_CF_EPS = 1e-15  # relative change that ends the incomplete-beta continued fraction
_CF_TINY = 1e-300  # Lentz's guard against a zero denominator
_CF_MAX_TERMS = 1000  # no dof up to 1e12 with |t| <= 1e3 needed more than 55
_LOG_SQRT_PI = 0.5 * math.log(math.pi)  # log Gamma(1/2)


def _window(half: int) -> int:
    if not isinstance(half, int) or half < 1:
        raise ValueError(f"window half-size must be a positive integer, got {half!r}")
    return 2 * half + 1


def _window_sums(img, half: int) -> tuple[np.ndarray, np.ndarray]:
    """Sums of f and of f^2 over (2*half+1)^2 windows, edge-clamped.

    Each axis takes running sums over the edge-padded image and differences
    them ``size`` apart, so the cost does not grow with the window.  For an
    int16 image every running sum is an integer below 2**53, hence exact,
    while ``(width + size) * size`` and ``height + size`` stay below 2**23.
    """
    size = _window(half)
    f = _as_values(img)
    # one leading zero row and column, so each window sum is a difference of two running sums
    s1 = np.pad(f, ((half + 1, half), (half + 1, half)), mode="edge")
    s1[0] = 0.0
    s1[:, 0] = 0.0
    s2 = s1 * s1
    sums = []
    for p in (s1, s2):
        np.cumsum(p, axis=0, out=p)
        rows = p[size:] - p[:-size]
        np.cumsum(rows, axis=1, out=rows)
        sums.append(rows[:, size:] - rows[:, :-size])
    return sums[0], sums[1]


def _deviation(s1: np.ndarray, s2: np.ndarray, half: int) -> np.ndarray:
    """Population deviation from window sums: sqrt(k*S2 - S1^2) / k, k pixels a window.

    The numerator is exact for integer-valued images and windows up to 53x53;
    the clamp at 0 only absorbs rounding on real-valued input.
    """
    k = float(_window(half) ** 2)
    var = s2 * k
    var -= s1 * s1
    np.maximum(var, 0.0, out=var)
    np.sqrt(var, out=var)
    var /= k
    return var


def local_std_map(img, half: int = 2) -> np.ndarray:
    """Per-pixel population deviation over (2*half+1)^2 windows, edge-clamped."""
    return _deviation(*_window_sums(img, half), half)


@dataclass(frozen=True, eq=False)
class LocalMaps:
    """The windowed maps of one high/low-dose pair, all of the same shape."""

    s_h: np.ndarray  # high-dose local deviation
    s_l: np.ndarray  # low-dose local deviation
    f_a: np.ndarray  # low-dose local mean


def local_maps(high, low, half: int = 2) -> LocalMaps:
    """Compute a pair's maps once, from the window sums of each image."""
    h = _as_values(high)
    lo = _as_values(low)
    if h.shape != lo.shape:
        raise ValueError(f"image dimensions differ: {h.shape} vs {lo.shape}")
    s1, s2 = _window_sums(lo, half)
    s_l = _deviation(s1, s2, half)
    s1 /= _window(half) ** 2
    return LocalMaps(s_h=local_std_map(h, half), s_l=s_l, f_a=s1)


def empirical_K_points(maps: LocalMaps) -> np.ndarray:
    """Per-pixel (t, ratio) points: t = low-dose local deviation, ratio = s_H/s_L.

    Pixels whose low-dose deviation falls below ``S_L_FLOOR`` are excluded.
    Returns an (N, 2) array with columns (t, ratio), in row-major pixel order.
    """
    mask = maps.s_l > S_L_FLOOR
    s_l = maps.s_l[mask]
    return np.column_stack([s_l, maps.s_h[mask] / s_l])


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (N, 2) array-like of (x, y)")
    return pts


@dataclass(frozen=True, eq=False)
class PointSummary:
    """(t, ratio) points in equal-count bins over t.

    Bin ``i`` holds the points with ``t_lo[i] <= t < t_hi[i]``; the last bin
    also holds ``t == t_hi[-1]``.  ``ratio_std`` is the population deviation.
    """

    t_lo: np.ndarray
    t_hi: np.ndarray
    count: np.ndarray
    t_mean: np.ndarray
    ratio_mean: np.ndarray
    ratio_std: np.ndarray


def summarize_points(points) -> PointSummary:
    """Bin (t, ratio) points into ``SUMMARY_BINS`` equal-count bins over t.

    The lower edge of bin ``i`` is the t of rank ``floor(i * N / SUMMARY_BINS)``
    (counting from 0) among the N points, so every bin holds at least one
    point and, without ties, the counts differ by at most one.  Edges that coincide (tied t values) are
    merged, which leaves fewer bins.  The counts sum to the number of points.
    """
    pts = _as_points(points)
    t, ratio = pts[:, 0], pts[:, 1]
    if t.size == 0:
        empty = np.empty(0)
        return PointSummary(empty, empty, np.empty(0, np.int64), empty, empty, empty)
    ranks = np.append(np.arange(SUMMARY_BINS) * t.size // SUMMARY_BINS, t.size - 1)
    edges = np.unique(np.partition(t, ranks)[ranks])
    bins = max(edges.size - 1, 1)
    idx = np.searchsorted(edges[1:-1], t, side="right")
    count = np.bincount(idx, minlength=bins)
    ratio_mean = np.bincount(idx, weights=ratio, minlength=bins) / count
    dev = ratio - ratio_mean[idx]
    return PointSummary(
        t_lo=edges[:bins],
        t_hi=edges[-bins:],
        count=count,
        t_mean=np.bincount(idx, weights=t, minlength=bins) / count,
        ratio_mean=ratio_mean,
        ratio_std=np.sqrt(np.bincount(idx, weights=dev * dev, minlength=bins) / count),
    )


@dataclass(frozen=True)
class PolyFit:
    """Least-squares polynomial with its goodness of fit."""

    degree: int
    coefficients: tuple[float, ...]  # ascending powers
    r_squared: float


def _least_squares(design: np.ndarray, y: np.ndarray, what: str) -> tuple[np.ndarray, float]:
    """Coefficients minimizing |design @ coef - y| and the residual sum of squares.

    A rank-deficient design raises ``DegenerateFitError`` naming ``what``.
    """
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        raise DegenerateFitError(
            f"design matrix rank {rank} < {design.shape[1]}: {what} is degenerate"
        )
    resid = y - design @ coef
    return coef, float(resid @ resid)


def fit_polynomial(points, degree: int) -> PolyFit:
    """Fit y = c0 + c1*x + ... + cd*x^d by least squares.

    Requires more points than coefficients and a full-rank design; a constant
    dataset fitted with any degree yields the constant with R^2 = 1 (zero
    total and zero residual variation counts as a perfect fit).
    """
    pts = _as_points(points)
    if not isinstance(degree, int) or degree < 0:
        raise ValueError(f"degree must be a non-negative integer, got {degree!r}")
    x, y = pts[:, 0], pts[:, 1]
    if pts.shape[0] <= degree:
        raise DegenerateFitError(
            f"need more than {degree} points for a degree-{degree} fit, got {pts.shape[0]}"
        )
    if degree >= 1 and np.all(x == x[0]):
        raise DegenerateFitError("all x values identical: polynomial fit is degenerate")
    design = np.vander(x, degree + 1, increasing=True)
    coeffs, ss_res = _least_squares(design, y, "polynomial fit")
    centered = y - y.mean()
    ss_tot = float(centered @ centered)
    if ss_tot == 0.0:
        scale = max(1.0, float(y @ y))
        r_squared = 1.0 if ss_res <= 1e-12 * scale else 0.0
    else:
        r_squared = min(1.0, max(0.0, 1.0 - ss_res / ss_tot))
    return PolyFit(
        degree=degree,
        coefficients=tuple(float(c) for c in coeffs),
        r_squared=r_squared,
    )


@dataclass(frozen=True)
class PredictorStats:
    coefficient: float
    std_error: float
    t_stat: float
    p_value: float


@dataclass(frozen=True)
class RegressionReport:
    """OLS of s_H on {intercept, s_L, f_a} with two-sided t-test p-values."""

    intercept: PredictorStats
    s_l: PredictorStats
    f_a: PredictorStats
    dof: int
    count: int


def _nonzero(v: float) -> float:
    """Lentz's guard: a zero denominator becomes a tiny one."""
    return v if abs(v) > _CF_TINY else _CF_TINY


def _beta_fraction(a: float, b: float, x: float, y: float) -> float:
    """The continued fraction of I_x(a, b) (Numerical Recipes' ``betacf``); y = 1 - x.

    It converges fast for x < (a + 1) / (a + b + 2).  The modified Lentz
    method takes each odd and even term in one step, and 1 + e_m, with e_m
    the even term, is formed from ``y`` where that adds terms of one sign:
    near x = 1 with large ``a`` it is O(1/a), and forming it as 1 + e_m
    would lose about log10(a) digits.
    """

    def one_plus_even(m: int) -> float:  # 1 - x (a+m)(a+b+m) / ((a+2m)(a+2m+1))
        p = (a + m) * (a + b + m)
        q = (a + 2 * m) * (a + 2 * m + 1.0)
        n = a * (2 * m + 1.0 - b) + m * (3 * m + 2.0 - b)  # q - p
        return (y * p + n) / q if n >= 0 else 1.0 - x * p / q

    d = 1.0 / _nonzero(one_plus_even(0))
    c, h = 1.0, d
    for m in range(1, _CF_MAX_TERMS + 1):
        odd = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        g = one_plus_even(m)
        eps, delta = odd * d, odd / c
        step = (g + delta) / _nonzero(g + eps)
        d = (1.0 + eps) / _nonzero(g + eps)
        c = _nonzero((g + delta) / _nonzero(1.0 + delta))
        h *= step
        if abs(step - 1.0) < _CF_EPS:
            return h
    raise NumericalError(f"incomplete beta fraction did not converge for a={a}, b={b}, x={x}")


def _log_gamma_half_ratio(a: float) -> float:
    """log(Gamma(a + 1/2) / Gamma(a)).

    For large ``a`` the two lgamma values nearly cancel, so the asymptotic
    series 1/2 log a - 1/(8a) + 1/(192a^3) - 1/(640a^5) + 17/(14336a^7) is used.
    """
    if a < 50.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    z2 = 1.0 / (a * a)
    return 0.5 * math.log(a) - (1.0 - z2 * (1 / 24 - z2 * (1 / 80 - z2 * 17 / 1792))) / (8.0 * a)


def _t_p_value(t_stat: float, dof: int) -> float:
    """Two-sided p-value of a t statistic: I_x(dof/2, 1/2) at x = dof / (dof + t^2).

    The fraction is taken on the side where it converges, using
    I_x(a, b) = 1 - I_{1-x}(b, a).
    """
    r = t_stat * t_stat / dof
    if r == 0.0:
        return 1.0
    if math.isinf(r):
        return 0.0
    a = dof / 2.0
    x, y = 1.0 / (1.0 + r), r / (1.0 + r)  # x and 1 - x
    # log of x^a y^(1/2) / B(a, 1/2), with a log x = -a log1p(r)
    front = math.exp(-a * math.log1p(r) + 0.5 * math.log(y)
                     + _log_gamma_half_ratio(a) - _LOG_SQRT_PI)
    if x < (a + 1.0) / (a + 2.5):
        return front * _beta_fraction(a, 0.5, x, y) / a
    return 1.0 - front * _beta_fraction(0.5, a, y, x) / 0.5


def regress_noise(maps: LocalMaps) -> RegressionReport:
    """Regress the high-dose local deviation on the low-dose deviation and intensity.

    A significant s_L coefficient with an insignificant f_a coefficient is the
    expected signature: local noise follows local deviation and is independent
    of the intensity level.
    """
    s_h = maps.s_h.ravel()
    s_l = maps.s_l.ravel()
    f_a = maps.f_a.ravel()
    count = s_h.size
    if count < 30:
        raise ValueError(f"need at least 30 sample pixels, got {count}")
    design = np.column_stack([np.ones(count), s_l, f_a])
    beta, ss_res = _least_squares(design, s_h, "noise regression")
    dof = count - 3
    sigma2 = ss_res / dof
    cov = sigma2 * np.linalg.inv(design.T @ design)
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    stats = []
    for b, s in zip(beta, se):
        t_stat = float(b / s) if s > 0 else float(np.copysign(np.inf, b)) if b != 0 else 0.0
        stats.append(
            PredictorStats(
                coefficient=float(b),
                std_error=float(s),
                t_stat=t_stat,
                p_value=_t_p_value(t_stat, dof) if s > 0 or b != 0 else 1.0,
            )
        )
    return RegressionReport(
        intercept=stats[0], s_l=stats[1], f_a=stats[2], dof=dof, count=count
    )


def format_points(points) -> Iterator[bytes]:
    """The full per-pixel list as ASCII byte blocks: a ``t,ratio`` header, then one row per point.

    Rows are formatted ``_POINTS_BLOCK`` at a time, each block by one ``%``
    over its values and only when the iterator reaches it, so a writer that
    takes the blocks in turn holds one block of text, not the whole list.
    """
    pts = _as_points(points)

    def blocks():
        yield b"t,ratio\n"
        for start in range(0, len(pts), _POINTS_BLOCK):
            block = pts[start : start + _POINTS_BLOCK]
            yield (b"%.9g,%.9g\n" * len(block)) % tuple(block.ravel().tolist())

    return blocks()


def format_calibration_report(summary: PointSummary, fit: PolyFit,
                              regression: RegressionReport) -> str:
    """Plain-text report: the binned point summary, the fit, the regression table."""
    lines = ["t_lo,t_hi,count,t_mean,ratio_mean,ratio_std"]
    for t_lo, t_hi, count, t_mean, ratio_mean, ratio_std in zip(
        summary.t_lo.tolist(), summary.t_hi.tolist(), summary.count.tolist(),
        summary.t_mean.tolist(), summary.ratio_mean.tolist(), summary.ratio_std.tolist(),
    ):
        lines.append(f"{t_lo:.9g},{t_hi:.9g},{count},{t_mean:.9g},{ratio_mean:.9g},{ratio_std:.9g}")
    lines.append("")
    header = ",".join(["degree"] + [f"c{i}" for i in range(fit.degree + 1)] + ["r_squared"])
    values = ",".join(
        [str(fit.degree)] + [f"{c:.9g}" for c in fit.coefficients] + [f"{fit.r_squared:.9g}"]
    )
    lines.append(header)
    lines.append(values)
    lines.append("")
    lines.append("term,coefficient,std_error,t_stat,p_value")
    for name, s in (
        ("intercept", regression.intercept),
        ("s_L", regression.s_l),
        ("f_a", regression.f_a),
    ):
        lines.append(
            f"{name},{s.coefficient:.9g},{s.std_error:.9g},{s.t_stat:.9g},{s.p_value:.9g}"
        )
    lines.append(f"samples,{regression.count}")
    lines.append(f"dof,{regression.dof}")
    return "\n".join(lines) + "\n"
