"""Empirical calibration from paired high/low-dose images.

Local deviation maps yield per-pixel (noise level, reduction ratio) points;
a polynomial trend summarizes the empirical reduction curve; an ordinary
least-squares regression of the high-dose local deviation on the low-dose
deviation and the local intensity average verifies that noise scales with
deviation, not with intensity — the property that justifies applying one
intensity-shift-invariant filter across the whole gated range.

:func:`scan_pair` reads a pair once, in strips of ``_STRIP_ROWS`` image rows.
Each strip yields its windowed maps, appends its points to one array and
folds its centred regression rows, an image row at a time, into a small R
factor (TSQR: Demmel, Grigori, Hoemmen and Langou, SIAM J. Sci. Comput.
34(1), 2012), so no full-size map or design matrix is ever held.
:func:`fit_polynomial` folds the points into an R factor ``_POINTS_BLOCK`` at
a time in the same way.  The report summarizes the
points in ``SUMMARY_BINS`` equal-count bins over ``t``; :func:`format_points`
writes the full per-pixel list on request.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFitError, NumericalError
from .filter import Image, _as_values

__all__ = [
    "PairScan",
    "PointSummary",
    "PolyFit",
    "PredictorStats",
    "RegressionReport",
    "S_L_FLOOR",
    "SUMMARY_BINS",
    "local_std_map",
    "scan_pair",
    "summarize_points",
    "fit_polynomial",
    "regress_noise",
    "format_points",
    "format_calibration_report",
]

S_L_FLOOR = 1e-6  # HU; below this a local deviation is treated as zero
SUMMARY_BINS = 32  # equal-count bins over t in the calibration report
_STRIP_ROWS = 32  # image rows per strip of scan_pair
_POINTS_BLOCK = 1 << 14  # points per block folded by fit_polynomial and formatted by format_points
_REFINE_COND = 1e3  # fits whose R is worse conditioned are refined; 2048^2 pairs read 150-320
_CF_EPS = 1e-15  # relative change that ends the incomplete-beta continued fraction
_CF_TINY = 1e-300  # Lentz's guard against a zero denominator
_CF_MAX_TERMS = 1000  # no dof up to 1e12 with |t| <= 1e3 needed more than 55
_LOG_SQRT_PI = 0.5 * math.log(math.pi)  # log Gamma(1/2)


def _window(half: int) -> int:
    if not isinstance(half, int) or half < 1:
        raise ValueError(f"window half-size must be a positive integer, got {half!r}")
    return 2 * half + 1


def _as_array(img) -> np.ndarray:
    """An ``Image``'s int16 pixels as they are, any other image as float64 values.

    The strips convert only the rows they read, so an ``Image`` is never
    copied whole to float64.
    """
    return img.pixels if isinstance(img, Image) else _as_values(img)


def _window_sums(f: np.ndarray, half: int, start: int = 0,
                 stop: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Sums of f and of f^2 over (2*half+1)^2 windows, edge-clamped, for rows start..stop-1.

    The strip reads the ``half`` rows around it through clamped row indices,
    so its sums are the same rows of the whole image's.  Each axis takes
    running sums and differences them ``size`` apart, so the cost does not
    grow with the window.  For an int16 image every running sum is an
    integer below 2**53, hence exact and independent of the strip, while
    ``(width + size) * size`` and ``stop - start + size`` stay below 2**23.
    """
    size = _window(half)
    height = f.shape[0]
    stop = height if stop is None else stop
    # one leading zero row and column, so each window sum is a difference of two running sums
    read = np.clip(np.arange(start - half - 1, stop + half), 0, height - 1)
    s1 = np.pad(f[read].astype(np.float64), ((0, 0), (half + 1, half)), mode="edge")
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
    return _deviation(*_window_sums(_as_array(img), half), half)


def _strip_maps(high: np.ndarray, low: np.ndarray, half: int, start: int,
                stop: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows start..stop-1 of s_H and s_L (local deviations) and f_a (low-dose local mean)."""
    s1, s2 = _window_sums(low, half, start, stop)
    s_l = _deviation(s1, s2, half)
    s1 /= _window(half) ** 2
    return _deviation(*_window_sums(high, half, start, stop), half), s_l, s1


def _fold(r: np.ndarray, rows: int, columns) -> np.ndarray:
    """The R factor of ``r`` stacked on ``rows`` new rows, given column by column.

    Folding every block of a tall matrix in turn yields the matrix's own R
    factor, up to the signs of its rows, without ever holding the matrix.
    A column may be a scalar, repeated down the rows.
    """
    # held transposed: each column is written contiguously, and qr gets a Fortran-ordered matrix
    stacked = np.empty((len(columns), r.shape[0] + rows))
    stacked[:, : r.shape[0]] = r.T
    for dst, col in zip(stacked[:, r.shape[0]:], columns):
        dst[:] = col
    return np.linalg.qr(stacked.T, mode="r")


def _fold_centred(r: np.ndarray, count: int, mean: np.ndarray,
                  columns) -> tuple[np.ndarray, int, np.ndarray]:
    """Fold a block into the R factor of the centred columns seen so far.

    ``r`` is the R factor of the ``count`` rows so far minus their column
    ``mean``.  The block is centred on its own mean, and one more row,
    ``sqrt(count * rows / (count + rows))`` times the difference of the two
    means, accounts for the shift between them (Chan, Golub and LeVeque's
    pairwise update of the scatter matrix, in R form).  Returns the R factor,
    the count and the mean of all the rows.  Centring keeps a column that is
    nearly constant, like an intensity average far from zero, from losing its
    variation to rounding against its mean.
    """
    rows = columns[0].size
    k = r.shape[0]
    stacked = np.empty((len(columns), k + rows + 1))  # held transposed, as in _fold
    stacked[:, :k] = r.T
    block = stacked[:, k : k + rows]
    for dst, col in zip(block, columns):
        dst[:] = col
    block_mean = block.mean(axis=1)
    block -= block_mean[:, None]
    total = count + rows
    shift = block_mean - mean
    stacked[:, -1] = math.sqrt(count * rows / total) * shift
    return np.linalg.qr(stacked.T, mode="r"), total, mean + shift * (rows / total)


@dataclass(frozen=True, eq=False)
class PairScan:
    """What one pass over a high/low-dose pair keeps.

    ``points`` holds the (t, ratio) points, t = s_L and ratio = s_H / s_L, in
    row-major pixel order; pixels whose low-dose deviation falls below
    ``S_L_FLOOR`` are excluded.  ``noise_r`` is the 4x4 R factor of the
    ``count`` rows ``[1, s_L, f_a | s_H]``, one per pixel, which is all that
    :func:`regress_noise` needs.
    """

    points: np.ndarray  # (N, 2)
    noise_r: np.ndarray  # (4, 4), upper triangular
    count: int


def scan_pair(high, low, half: int = 2) -> PairScan:
    """Read a pair once, ``_STRIP_ROWS`` rows at a time, into its points and regression R.

    For int16 images neither the points nor the R factor depend on the strip
    height, bit for bit: the window sums are exact integers, and the R factor
    folds in one image row at a time whatever the strip height.
    """
    h = _as_array(high)
    lo = _as_array(low)
    if h.shape != lo.shape:
        raise ValueError(f"image dimensions differ: {h.shape} vs {lo.shape}")
    height, width = lo.shape
    points = np.empty((height * width, 2))
    n = 0
    r, count, mean = np.empty((0, 3)), 0, np.zeros(3)
    for start in range(0, height, _STRIP_ROWS):
        s_h, s_l, f_a = _strip_maps(h, lo, half, start, min(start + _STRIP_ROWS, height))
        mask = s_l > S_L_FLOOR
        t = s_l[mask]
        np.divide(s_h[mask], t, out=points[n : n + t.size, 1])
        points[n : n + t.size, 0] = t
        n += t.size
        for row in range(s_l.shape[0]):  # a row at a time: R does not depend on _STRIP_ROWS
            r, count, mean = _fold_centred(r, count, mean, (s_l[row], f_a[row], s_h[row]))
    # [1 | X] = [1/sqrt(N) | Q] [[sqrt(N), sqrt(N) mean], [0, R]] when X - mean = Q R
    noise_r = np.zeros((1 + r.shape[0], 4))
    noise_r[0, 0] = math.sqrt(count)
    noise_r[0, 1:] = math.sqrt(count) * mean
    noise_r[1:, 1:] = r
    return PairScan(points=points[:n], noise_r=noise_r, count=count)


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
    edges = np.unique(np.sort(t)[ranks])
    bins = max(edges.size - 1, 1)
    idx = np.searchsorted(edges[1:-1], t, side="right")
    count = np.bincount(idx, minlength=bins)
    ratio_mean = np.bincount(idx, weights=ratio, minlength=bins) / count
    t_mean = np.bincount(idx, weights=t, minlength=bins) / count
    # one full-size buffer for the squared deviations, made after the bincounts'
    # contiguous copies of t and ratio are freed
    sq_dev = ratio_mean[idx]
    np.subtract(ratio, sq_dev, out=sq_dev)
    sq_dev *= sq_dev
    return PointSummary(
        t_lo=edges[:bins],
        t_hi=edges[-bins:],
        count=count,
        t_mean=t_mean,
        ratio_mean=ratio_mean,
        ratio_std=np.sqrt(np.bincount(idx, weights=sq_dev, minlength=bins) / count),
    )


@dataclass(frozen=True)
class PolyFit:
    """Least-squares polynomial with its goodness of fit."""

    degree: int
    coefficients: tuple[float, ...]  # ascending powers
    r_squared: float


def _least_squares(r: np.ndarray, rows: int, what: str) -> tuple[np.ndarray, float]:
    """Coefficients minimizing |X @ coef - y| and the residual sum of squares, from R of [X | y].

    With p columns in X, ``R[:p, :p] @ coef = R[:p, p]`` and the residual sum
    of squares is ``R[p, p]^2``.  Column j of X counts toward the rank when
    ``|R[j, j]|``, its part outside the span of the columns before it, exceeds
    ``eps * rows`` of its norm ``|R[:j+1, j]|``; a rank below p raises
    ``DegenerateFitError`` naming ``what``.
    """
    p = r.shape[1] - 1
    cutoff = np.finfo(np.float64).eps * max(rows, p) * np.linalg.norm(r[:p, :p], axis=0)
    rank = int(np.count_nonzero(np.abs(np.diagonal(r)[:p]) > cutoff))
    if rank < p:
        raise DegenerateFitError(f"design matrix rank {rank} < {p}: {what} is degenerate")
    coef = np.linalg.solve(r[:p, :p], r[:p, p])
    return coef, float(r[p, p]) ** 2 if r.shape[0] > p else 0.0


def _refinement(coef: np.ndarray, r: np.ndarray, blocks) -> np.ndarray:
    """The step that refines ``coef``, the least-squares fit in u of R factor ``r``.

    Rounding in a QR fold perturbs the coefficients by up to about
    ``cond(R)^2 * eps`` of their size when the residuals are large.  One
    step of iterative refinement, ``(R^T R)^-1 V^T (y - V coef)`` with the
    residuals and their products summed in ``np.longdouble``, takes that
    error down to the extended precision's (on platforms where ``longdouble``
    is wider than double).  ``blocks`` yields the points' ``(u, y)`` a block
    at a time.
    """
    g = np.zeros(len(coef), np.longdouble)
    for u, y in blocks:
        u = u.astype(np.longdouble)
        fit = np.full_like(u, coef[-1])
        for c in coef[-2::-1]:
            fit *= u
            fit += c
        res = y.astype(np.longdouble)
        res -= fit
        for k in range(len(coef)):
            g[k] += res.sum()
            res *= u
    rp = r[: len(coef), : len(coef)]
    return np.linalg.solve(rp, np.linalg.solve(rp.T, g.astype(np.float64)))


def fit_polynomial(points, degree: int) -> PolyFit:
    """Fit y = c0 + c1*x + ... + cd*x^d by least squares.

    The fit is taken in u = (x - centre) / scale, which maps the x range onto
    [-1, 1] and keeps the powers of u well conditioned, then expanded into
    ascending powers of x.  When R's condition number exceeds
    ``_REFINE_COND``, and is small enough for the step to converge, the
    coefficients get one step of iterative refinement.  Requires more points
    than coefficients and a full-rank design; a constant dataset fitted with
    any degree yields the constant with R^2 = 1 (zero total and zero residual
    variation counts as a perfect fit).
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
    lo, hi = float(x.min()), float(x.max())
    centre, scale = 0.5 * (lo + hi), 0.5 * (hi - lo) or 1.0
    mean = y.mean()
    ss_tot = 0.0
    r = np.empty((0, degree + 2))

    def blocks():  # (u, y - mean), _POINTS_BLOCK points at a time
        for start in range(0, len(pts), _POINTS_BLOCK):
            u = x[start : start + _POINTS_BLOCK] - centre
            u /= scale
            yield u, y[start : start + _POINTS_BLOCK] - mean

    for u, centered in blocks():
        powers = [1.0]
        for _ in range(degree):
            powers.append(powers[-1] * u)
        r = _fold(r, u.size, powers + [centered])
        ss_tot += float(centered @ centered)
    coef_u, ss_res = _least_squares(r, len(pts), "polynomial fit")
    cond = np.linalg.cond(r[: degree + 1, : degree + 1])
    if _REFINE_COND < cond and cond * cond * np.finfo(np.float64).eps < 1.0:  # the step converges
        coef_u += _refinement(coef_u, r, blocks())
    coef_u[0] += mean
    coeffs = coef_u[-1:]
    for c in coef_u[-2::-1]:  # Horner's rule in polynomials: p <- p * (x - centre) / scale + c
        coeffs = np.convolve(coeffs, (-centre, 1.0)) / scale
        coeffs[0] += c
    if ss_tot == 0.0:
        r_squared = 1.0 if ss_res <= 1e-12 * max(1.0, float(y @ y)) else 0.0
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


def regress_noise(scan: PairScan) -> RegressionReport:
    """Regress the high-dose local deviation on the low-dose deviation and intensity.

    A significant s_L coefficient with an insignificant f_a coefficient is the
    expected signature: local noise follows local deviation and is independent
    of the intensity level.  The scan's R factor gives the coefficients and
    ``(X^T X)^-1 = R^-1 R^-T`` for their standard errors.
    """
    count = scan.count
    if count < 30:
        raise ValueError(f"need at least 30 sample pixels, got {count}")
    beta, ss_res = _least_squares(scan.noise_r, count, "noise regression")
    dof = count - 3
    r_inv = np.linalg.inv(scan.noise_r[:3, :3])
    se = np.sqrt(ss_res / dof * np.einsum("ij,ij->i", r_inv, r_inv))  # diagonal of R^-1 R^-T
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
