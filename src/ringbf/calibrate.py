"""Empirical calibration from paired high/low-dose images.

Local deviation maps yield per-pixel (noise level, reduction ratio) points;
a polynomial trend summarizes the empirical reduction curve; an ordinary
least-squares regression of the high-dose local deviation on the low-dose
deviation and the local intensity average verifies that noise scales with
deviation, not with intensity — the property that justifies applying one
intensity-shift-invariant filter across the whole gated range.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import uniform_filter
from scipy.special import betainc

from .errors import DegenerateFitError
from .filter import _as_values

__all__ = [
    "PolyFit",
    "PredictorStats",
    "RegressionReport",
    "S_L_FLOOR",
    "local_std_map",
    "empirical_K_points",
    "fit_polynomial",
    "regress_noise",
    "format_calibration_report",
]

S_L_FLOOR = 1e-6  # HU; below this a local deviation is treated as zero


def local_std_map(img, half: int = 2) -> np.ndarray:
    """Per-pixel population deviation over (2*half+1)^2 windows, edge-clamped."""
    if not isinstance(half, int) or half < 1:
        raise ValueError(f"window half-size must be a positive integer, got {half!r}")
    f = _as_values(img)
    size = 2 * half + 1
    mean = uniform_filter(f, size=size, mode="nearest")
    mean_sq = uniform_filter(f * f, size=size, mode="nearest")
    var = np.maximum(mean_sq - mean * mean, 0.0)
    return np.sqrt(var)


def local_mean_map(img, half: int = 2) -> np.ndarray:
    """Per-pixel mean over (2*half+1)^2 windows, edge-clamped."""
    if not isinstance(half, int) or half < 1:
        raise ValueError(f"window half-size must be a positive integer, got {half!r}")
    return uniform_filter(_as_values(img), size=2 * half + 1, mode="nearest")


def empirical_K_points(high, low, half: int = 2) -> np.ndarray:
    """Per-pixel (t, ratio) points: t = low-dose local deviation, ratio = s_H/s_L.

    Pixels whose low-dose deviation falls below ``S_L_FLOOR`` are excluded.
    Returns an (N, 2) array with columns (t, ratio).
    """
    h = _as_values(high)
    lo = _as_values(low)
    if h.shape != lo.shape:
        raise ValueError(f"image dimensions differ: {h.shape} vs {lo.shape}")
    s_h = local_std_map(h, half)
    s_l = local_std_map(lo, half)
    mask = s_l > S_L_FLOOR
    return np.column_stack([s_l[mask], s_h[mask] / s_l[mask]])


@dataclass(frozen=True)
class PolyFit:
    """Least-squares polynomial with its goodness of fit."""

    degree: int
    coefficients: tuple[float, ...]  # ascending powers
    r_squared: float
    count: int

    def __call__(self, x):
        return np.polynomial.polynomial.polyval(np.asarray(x, dtype=np.float64),
                                                np.array(self.coefficients))


def fit_polynomial(points, degree: int) -> PolyFit:
    """Fit y = c0 + c1*x + ... + cd*x^d by least squares.

    Requires more points than coefficients and a full-rank design; a constant
    dataset fitted with any degree yields the constant with R^2 = 1 (zero
    total and zero residual variation counts as a perfect fit).
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (N, 2) array-like of (x, y)")
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
    coeffs, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < degree + 1:
        raise DegenerateFitError(
            f"design matrix rank {rank} < {degree + 1}: polynomial fit is degenerate"
        )
    resid = y - design @ coeffs
    ss_res = float(resid @ resid)
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
        count=int(pts.shape[0]),
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
    t2 = t_stat * t_stat
    if np.isinf(t2):
        return 0.0
    return float(betainc(dof / 2.0, 0.5, dof / (dof + t2)))


def regress_noise(high, low, half: int = 2) -> RegressionReport:
    """Regress the high-dose local deviation on the low-dose deviation and intensity.

    A significant s_L coefficient with an insignificant f_a coefficient is the
    expected signature: local noise follows local deviation and is independent
    of the intensity level.
    """
    h = _as_values(high)
    lo = _as_values(low)
    if h.shape != lo.shape:
        raise ValueError(f"image dimensions differ: {h.shape} vs {lo.shape}")
    s_h = local_std_map(h, half).ravel()
    s_l = local_std_map(lo, half).ravel()
    f_a = local_mean_map(lo, half).ravel()
    count = s_h.size
    if count < 30:
        raise ValueError(f"need at least 30 sample pixels, got {count}")
    design = np.column_stack([np.ones(count), s_l, f_a])
    beta, _, rank, _ = np.linalg.lstsq(design, s_h, rcond=None)
    if rank < 3:
        raise DegenerateFitError(
            "collinear predictors: the regression design matrix is rank-deficient"
        )
    resid = s_h - design @ beta
    dof = count - 3
    sigma2 = float(resid @ resid) / dof
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


def format_calibration_report(points: np.ndarray, fit: PolyFit,
                              regression: RegressionReport | None = None) -> str:
    """Plain-text report: the (t, ratio) CSV, the fit summary, the regression table."""
    lines = ["t,ratio"]
    for t, ratio in points:
        lines.append(f"{t:.9g},{ratio:.9g}")
    lines.append("")
    header = ",".join(["degree"] + [f"c{i}" for i in range(fit.degree + 1)] + ["r_squared"])
    values = ",".join(
        [str(fit.degree)] + [f"{c:.9g}" for c in fit.coefficients] + [f"{fit.r_squared:.9g}"]
    )
    lines.append(header)
    lines.append(values)
    if regression is not None:
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
