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

scipy is imported inside the functions that call it, so importing this
module (and ``ringbf``) does not load it.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFitError
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


def _window(half: int) -> int:
    if not isinstance(half, int) or half < 1:
        raise ValueError(f"window half-size must be a positive integer, got {half!r}")
    return 2 * half + 1


def local_std_map(img, half: int = 2, mean: np.ndarray | None = None) -> np.ndarray:
    """Per-pixel population deviation over (2*half+1)^2 windows, edge-clamped.

    ``mean`` may pass in ``local_mean_map(img, half)`` when the caller already
    has it; that saves one windowed pass and gives the same bits.
    """
    from scipy.ndimage import uniform_filter

    size = _window(half)
    f = _as_values(img)
    if mean is None:
        mean = uniform_filter(f, size=size, mode="nearest")
    elif mean.shape != f.shape:
        raise ValueError(f"mean map shape {mean.shape} differs from image shape {f.shape}")
    mean_sq = uniform_filter(f * f, size=size, mode="nearest")
    var = np.maximum(mean_sq - mean * mean, 0.0)
    return np.sqrt(var)


def local_mean_map(img, half: int = 2) -> np.ndarray:
    """Per-pixel mean over (2*half+1)^2 windows, edge-clamped."""
    from scipy.ndimage import uniform_filter

    return uniform_filter(_as_values(img), size=_window(half), mode="nearest")


@dataclass(frozen=True, eq=False)
class LocalMaps:
    """The windowed maps of one high/low-dose pair, all of the same shape."""

    s_h: np.ndarray  # high-dose local deviation
    s_l: np.ndarray  # low-dose local deviation
    f_a: np.ndarray  # low-dose local mean


def local_maps(high, low, half: int = 2) -> LocalMaps:
    """Compute a pair's maps once: four windowed passes over the two images."""
    h = _as_values(high)
    lo = _as_values(low)
    if h.shape != lo.shape:
        raise ValueError(f"image dimensions differ: {h.shape} vs {lo.shape}")
    f_a = local_mean_map(lo, half)
    return LocalMaps(s_h=local_std_map(h, half), s_l=local_std_map(lo, half, mean=f_a), f_a=f_a)


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


def _t_p_value(t_stat: float, dof: int) -> float:
    """Two-sided p-value of a t statistic via the regularized incomplete beta."""
    from scipy.special import betainc

    t2 = t_stat * t_stat
    if np.isinf(t2):
        return 0.0
    return float(betainc(dof / 2.0, 0.5, dof / (dof + t2)))


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
