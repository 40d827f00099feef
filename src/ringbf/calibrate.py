"""Empirical calibration from paired high/low-dose images.

Local deviation maps yield per-pixel (noise level, reduction ratio) points;
a polynomial trend summarizes the empirical reduction curve; an ordinary
least-squares regression of the high-dose local deviation on the low-dose
deviation and the local intensity average verifies that noise scales with
deviation, not with intensity — the property that justifies applying one
intensity-shift-invariant filter across the whole gated range.

:func:`scan_pair` reads a pair once, in strips of whole ``_FOLD_ROWS``-row
units, about ``_tile_rows`` image rows.  Each strip yields its windowed maps,
appends its points to one array and folds its regression rows, one unit at a
time, into a small R factor (TSQR: Demmel, Grigori, Hoemmen and Langou, SIAM
J. Sci. Comput. 34(1), 2012), so no full-size map or design matrix is ever
held; the command line hands it ``_FileRows``, which read each strip's rows
from the image files, so it holds neither image either.  The pixels must
cast safely to int16, and the window sums are exact int64 sums, so the maps
are the same for any strip; windows up to 303x303 keep them exact at full
int16 range, whatever the pixels hold.
:func:`fit_polynomial` folds its fit basis ``_FIT_POINTS`` points at a time
through the same centred fold, and both add the intercept back to the R
factor in the same way.  Every fold unit is counted from the first row or
point, never from a tile budget, so the points, the R factor and the fit have
the same bits for any budget.  The report summarizes the points in
``SUMMARY_BINS`` equal-count bins over ``t``, also a block at a time:
:func:`summarize_points` finds the exact bin edges from a histogram of ``t``
over ``_CELLS`` equal cells, sorting only the values of the cells that hold
an edge; a ``_CELLS``-entry table, one ``np.searchsorted`` of the edges'
cells, gives each point's bin, and ``np.add.at`` adds the per-bin sums block
by block in point order, so they equal one sum over all the points bit for
bit.  :func:`format_points` writes the full per-pixel list on request.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._core_py import _clamped_rows, _tile_rows
from .errors import DegenerateFitError, FormatError, NumericalError
from .filter import _as_array
from .kernel import _integer

__all__ = [
    "PairScan",
    "PointSummary",
    "PolyFit",
    "PredictorStats",
    "RegressionReport",
    "SUMMARY_BINS",
    "scan_pair",
    "summarize_points",
    "fit_polynomial",
    "regress_noise",
    "format_points",
    "format_calibration_report",
]

SUMMARY_BINS = 32  # equal-count bins over t in the calibration report
_CELLS = 1 << 16  # equal t cells of the summary's histogram and bin table
_REFINE_COND = 1e3  # fits whose R is worse conditioned are refined; 2048^2 pairs read 150-320
_CF_EPS = 1e-15  # relative change that ends the incomplete-beta continued fraction
_CF_TINY = 1e-300  # Lentz's guard against a zero denominator
_CF_MAX_TERMS = 1000  # no dof up to 1e12 with |t| <= 1e3 needed more than 55
_LOG_SQRT_PI = 0.5 * math.log(math.pi)  # log Gamma(1/2)
_FOLD_ROWS = 16  # image rows per regression fold: 128 QR calls at 2048^2 instead of 2,048
_FIT_POINTS = 8192  # points per trend-fit fold and refinement block, whatever the tile budget


def _window(half: int) -> int:
    return 2 * _integer(half, "window half-size", 1) + 1


def _window_sums(f, half: int, start: int = 0,
                 stop: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Int64 sums of f and of f^2 over (2*half+1)^2 windows, edge-clamped, for rows start..stop-1.

    ``f`` is a 2-D array or a ``_FileRows`` whose values cast safely to
    int16; any other dtype is refused with ``ValueError``, so no value is
    ever truncated.  The strip reads the ``half`` rows around it as int64,
    through ``_clamped_rows`` as the filter's strips do.  Each axis takes
    running sums and differences them ``size`` apart, so the cost does not
    grow with the window; down the rows it takes one ``np.add`` per row, about
    a third of ``np.cumsum(axis=0)``'s time on 2048-wide strips.  Every sum is
    an exact integer, hence independent of the strip, while ``(width + size) *
    size * m^2`` and ``(stop - start + size) * m^2`` stay below 2**63, with
    m = 2**15 the largest int16 magnitude (see ``_check_window``).
    """
    if not np.can_cast(f.dtype, np.int16):
        raise ValueError(f"calibration takes pixels that cast safely to int16, got {f.dtype}")
    size = _window(half)
    stop = f.shape[0] if stop is None else stop
    # one leading zero row and column, so each window sum is a difference of two running sums
    s1 = _clamped_rows(f, start, stop, half + 1, half, np.int64)
    s1[0] = 0
    s1[:, 0] = 0
    s2 = s1 * s1
    sums = []
    for p in (s1, s2):
        for i in range(1, p.shape[0]):
            np.add(p[i - 1], p[i], out=p[i])
        rows = p[size:] - p[:-size]
        np.cumsum(rows, axis=1, out=rows)
        sums.append(rows[:, size:] - rows[:, :-size])
    return sums[0], sums[1]


def _deviation(s1: np.ndarray, s2: np.ndarray, half: int) -> np.ndarray:
    """Population deviation from int64 window sums: sqrt(k*S2 - S1^2) / k, k pixels a window.

    The numerator is formed in int64, so it is exact and never negative
    while ``(k * m)^2`` stays below 2**63 (see ``_check_window``); it rounds
    to float64 once, as the square root reads it.
    """
    k = _window(half) ** 2
    num = s2 * k
    num -= s1 * s1
    dev = np.sqrt(num)
    dev /= k
    return dev


def _check_window(half: int, width: int, rows: int) -> None:
    """Refuse a window whose int64 sums over a ``width``-wide image could overflow.

    Int16 values have magnitude at most m = 2**15.  With ``k`` pixels a
    window, ``_deviation`` needs ``(k * m)^2`` and ``_window_sums`` needs
    ``(width + size) * size * m^2`` and ``(rows + size) * m^2`` below 2**63,
    for strips of ``rows`` rows: windows up to 303x303 (half 151).  They are
    checked in integers, before anything is allocated or any pixel is read.
    """
    size = _window(half)
    if max((size * size) ** 2, (width + size) * size, rows + size) * (1 << 15) ** 2 >= 2 ** 63:
        raise ValueError(
            f"window half-size {half} is too large for exact local deviations of int16 values "
            f"in rows of {width}: the sums would pass 2**63"
        )


def _strip_maps(high: np.ndarray, low: np.ndarray, half: int, start: int,
                stop: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows start..stop-1 of s_H and s_L (local deviations) and f_a (low-dose local mean)."""
    s_h = _deviation(*_window_sums(high, half, start, stop), half)
    s1, s2 = _window_sums(low, half, start, stop)
    return s_h, _deviation(s1, s2, half), s1 / _window(half) ** 2


def _fold_centred(r: np.ndarray, count: int, mean: np.ndarray,
                  columns) -> tuple[np.ndarray, int, np.ndarray]:
    """Fold a block into the R factor of the centred columns seen so far.

    ``r`` is the R factor of the ``count`` rows so far minus their column
    ``mean``; ``columns`` holds the block's columns, 1-D and of equal length.
    The block is centred on its own mean, and one more row,
    ``sqrt(count * rows / (count + rows))`` times the difference of the two
    means, accounts for the shift between them (Chan, Golub and LeVeque's
    pairwise update of the scatter matrix, in R form).  Returns the R factor,
    the count and the mean of all the rows.  Folding every block of a tall
    matrix in turn yields the R factor of the whole centred matrix, up to the
    signs of its rows, without ever holding the matrix.  Centring keeps a
    column that is nearly constant, like an intensity average far from zero,
    from losing its variation to rounding against its mean.  Each call is one
    QR, whose fixed cost dominates a small block, so the callers fold blocks
    of thousands of rows: :func:`scan_pair` its regression rows
    ``_FOLD_ROWS`` image rows at a time and :func:`fit_polynomial` its fit
    basis ``_FIT_POINTS`` points at a time.  :func:`_with_intercept` then adds
    the ones column back.
    """
    rows = columns[0].size
    k = r.shape[0]
    # held transposed: each column is written contiguously, and qr gets a Fortran-ordered matrix
    stacked = np.empty((len(columns), k + rows + 1))
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


def _with_intercept(r: np.ndarray, count: int, mean: np.ndarray) -> np.ndarray:
    """The R factor of ``[1 | X]``, given R of the ``count`` rows of X minus their ``mean``.

    ``[1 | X] = [1/sqrt(N) | Q] [[sqrt(N), sqrt(N) mean], [0, R]]`` when ``X - mean = Q R``.
    """
    full = np.zeros((1 + r.shape[0], 1 + r.shape[1]))
    full[0, 0] = math.sqrt(count)
    full[0, 1:] = math.sqrt(count) * mean
    full[1:, 1:] = r
    return full


@dataclass(frozen=True)
class _FileRows:
    """A stored 16-bit image that :func:`scan_pair` reads a strip's rows at a time.

    The ``shape`` image's samples start ``offset`` bytes into the file,
    row-major, each a ``dtype`` that casts safely to int16 (``"<i2"``, or
    ``">i2"`` for a ``.pgm``'s ``">u2"`` samples, which read the same once
    validated to be at most 32767).  The file has been read and validated
    whole already.
    """

    path: Path
    offset: int
    dtype: str
    shape: tuple[int, int]

    def __getitem__(self, rows: np.ndarray) -> np.ndarray:
        """The image rows ``rows``, an ascending index array, as ``_clamped_rows`` asks for them.

        Only the rows from ``rows[0]`` to ``rows[-1]`` are read from the file.
        """
        first, width, itemsize = int(rows[0]), self.shape[1], np.dtype(self.dtype).itemsize
        count = (int(rows[-1]) + 1 - first) * width
        block = np.fromfile(self.path, self.dtype, count, offset=self.offset + itemsize * first * width)
        if block.size != count:
            raise FormatError(f"{self.path}: the file changed while it was read")
        return block.reshape(-1, width)[rows - first]


@dataclass(frozen=True, eq=False)
class PairScan:
    """What one pass over a high/low-dose pair keeps.

    ``points`` holds the (t, ratio) points, t = s_L and ratio = s_H / s_L, in
    row-major pixel order; pixels whose low-dose window is flat are excluded.
    ``noise_r`` is the 4x4 R factor of the ``count`` rows
    ``[1, s_L, f_a | s_H]``, one per pixel, which is all that
    :func:`regress_noise` needs.
    """

    points: np.ndarray  # (N, 2)
    noise_r: np.ndarray  # (4, 4), upper triangular
    count: int


def scan_pair(high, low, half: int = 2) -> PairScan:
    """Read a pair once, in strips of whole fold units, into its points and regression R.

    Each image is an ``Image``, a 2-D array whose dtype casts safely to
    int16 (int16, int8 or uint8), or, from the command line, a
    ``_FileRows`` that reads each strip's rows from its file, so that the
    scan holds neither image.  All three go through the same row indexing
    (``_clamped_rows``), and give the same bits for the same pixels; real
    and wider integer arrays are refused with ``ValueError``.  A
    strip holds ``_tile_rows(width)`` rows rounded down to a multiple of
    ``_FOLD_ROWS``, and at least ``_FOLD_ROWS``, so every strip starts on a
    unit boundary counted from row 0.  The regression rows go through
    :func:`_fold_centred` one unit at a time, each from views of its strip's
    maps; only the image's last unit can be short.  Neither the points nor
    the R factor depend on the tile budget, bit for bit: the window sums are
    exact integers, and the units are fixed by image rows, not by strips.
    The points are held column-major, so ``points[:, 0]`` (t) and
    ``points[:, 1]`` (ratio) are each contiguous for the summary and the
    fit.  A window too large for exact int64 sums at full int16 range
    raises ``ValueError`` from the pair's shape alone (``_check_window``).
    """
    _window(half)  # a bad half-size is refused before the pair is read
    h, lo = (img if isinstance(img, _FileRows) else _as_array(img) for img in (high, low))
    if h.shape != lo.shape:
        raise ValueError(f"image dimensions differ: {h.shape} vs {lo.shape}")
    height, width = lo.shape
    rows = _FOLD_ROWS * max(1, _tile_rows(width) // _FOLD_ROWS)  # whole fold units a strip
    _check_window(half, width, min(rows, height))
    points = np.empty((2, height * width)).T  # column-major: t and ratio are each contiguous
    n = 0
    r, count, mean = np.empty((0, 3)), 0, np.zeros(3)
    for start in range(0, height, rows):
        s_h, s_l, f_a = _strip_maps(h, lo, half, start, min(start + rows, height))
        mask = s_l > 0  # 0 for a flat window, else at least sqrt(k - 1) / k
        t = s_l[mask]
        np.divide(s_h[mask], t, out=points[n : n + t.size, 1])
        points[n : n + t.size, 0] = t
        n += t.size
        for i in range(0, s_l.shape[0], _FOLD_ROWS):  # only the image's last unit can be short
            unit = [m[i : i + _FOLD_ROWS].reshape(-1) for m in (s_l, f_a, s_h)]
            r, count, mean = _fold_centred(r, count, mean, unit)
    return PairScan(points=points[:n], noise_r=_with_intercept(r, count, mean), count=count)


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


def _cells(t: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The cell of each t in [lo, hi] among ``_CELLS`` equal cells over that range.

    The cell never decreases as t grows: each step, ``t - lo``, its division
    by the span, the scaling by a power of two, the clamp and the truncation,
    is monotone.
    The quotient lies in [0, 1] whatever the span, so a subnormal span
    overflows no reciprocal; a span past the largest double is taken in
    halves, and a zero span puts every t in cell 0.
    """
    if math.isinf(hi - lo):
        t, lo, hi = t * 0.5, lo * 0.5, hi * 0.5
    u = t - lo
    u /= (hi - lo) or 1.0
    u *= _CELLS
    np.minimum(u, _CELLS - 1, out=u)
    return u.astype(np.uint16)


def summarize_points(points) -> PointSummary:
    """Bin (t, ratio) points into ``SUMMARY_BINS`` equal-count bins over t.

    The lower edge of bin ``i`` is the t of rank ``floor(i * N / SUMMARY_BINS)``
    (counting from 0) among the N points, so every bin holds at least one
    point and, without ties, the counts differ by at most one.  Edges that coincide (tied t values) are
    merged, which leaves fewer bins.  The counts sum to the number of points.
    Non-finite points raise ``ValueError``, and so do finite points whose sum
    of t, of ratio or of squared ratio deviations in some bin overflows.

    The points are read ``_tile_rows(2)`` at a time, and nothing but a one-byte
    bin index per point is held for all of them:
    - a histogram of t over ``_CELLS`` equal cells (see :func:`_cells`) finds
      the cell that holds each rank; only those cells' t values are gathered
      and sorted, to read each rank's exact value;
    - the cell never decreases as t grows, so a ``_CELLS``-entry table, one
      ``np.searchsorted`` of the inner edges' cells, gives the bin of every
      cell without an inner edge; the points of the cells with one go through
      ``np.searchsorted`` among the edges;
    - the counts and the sums of t, of ratio and then of the squared ratio
      deviations are added block by block, the sums by ``np.add.at``, which
      adds in point order onto each bin's running sum, so they equal a sort
      of every t and one ``np.bincount`` over all the points bit for bit.

    When most points share one cell (few distinct t values), the gathered
    values approach the points' number, and so does the memory.
    """
    pts = _as_points(points)
    t, ratio = pts[:, 0], pts[:, 1]
    n = t.size
    if n == 0:
        empty = np.empty(0)
        return PointSummary(empty, empty, np.empty(0, np.int64), empty, empty, empty)
    least, most = float(pts.min()), float(pts.max())
    if not (math.isfinite(least) and math.isfinite(most)):  # NaN or inf spreads to these
        raise ValueError(f"summary points must be finite, got values from {least} to {most}")
    lo, hi = float(t.min()), float(t.max())
    size = _tile_rows(2)
    blocks = [slice(start, start + size) for start in range(0, n, size)]

    hist = np.zeros(_CELLS, np.int64)
    for b in blocks:
        hist += np.bincount(_cells(t[b], lo, hi), minlength=_CELLS)
    through = np.cumsum(hist)  # points in each cell and the cells before it
    ranks = np.append(np.arange(SUMMARY_BINS) * n // SUMMARY_BINS, n - 1)
    rank_cells = np.searchsorted(through, ranks, side="right")
    gather = np.zeros(_CELLS, bool)
    gather[rank_cells] = True
    held = np.concatenate([t[b][gather[_cells(t[b], lo, hi)]] for b in blocks])
    held.sort()
    kept = np.where(gather, hist, 0)
    # rank r of cell c sits in `held` after the values of the gathered cells before c
    edges = np.unique(held[ranks - (through - hist)[rank_cells]
                           + (np.cumsum(kept) - kept)[rank_cells]])
    del held

    bins = max(edges.size - 1, 1)
    inner = edges[1:-1]
    inner_cells = _cells(inner, lo, hi)
    # inner edges in earlier cells: the bin of each cell that holds none
    table = np.searchsorted(inner_cells, np.arange(_CELLS)).astype(np.uint8)
    split = np.zeros(_CELLS, bool)
    split[inner_cells] = True
    idx = np.empty(n, np.uint8)
    count = np.zeros(bins, np.int64)
    t_sum = np.zeros(bins)
    ratio_sum = np.zeros(bins)
    sq_sum = np.zeros(bins)
    with np.errstate(over="ignore"):  # a sum that overflows is refused below
        for b in blocks:
            cells = _cells(t[b], lo, hi)
            i = idx[b]
            i[:] = table[cells]
            near = split[cells]
            if near.any():
                i[near] = np.searchsorted(inner, t[b][near], side="right")
            count += np.bincount(i, minlength=bins)
            np.add.at(t_sum, i, t[b])
            np.add.at(ratio_sum, i, ratio[b])
        ratio_mean = ratio_sum / count
        for b in blocks:
            sq_dev = ratio_mean[idx[b]]
            np.subtract(ratio[b], sq_dev, out=sq_dev)
            sq_dev *= sq_dev
            np.add.at(sq_sum, idx[b], sq_dev)
    if not all(np.isfinite(s).all() for s in (t_sum, ratio_sum, sq_sum)):
        raise ValueError("summary points overflow a bin's sum of t, of ratio or of squared "
                         "deviations: the bin means must be finite")
    return PointSummary(
        t_lo=edges[:bins],
        t_hi=edges[-bins:],
        count=count,
        t_mean=t_sum / count,
        ratio_mean=ratio_mean,
        ratio_std=np.sqrt(sq_sum / count),
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
    # a product, not ``** 2``: pow can be an ulp off the product that SS_tot is made of
    return coef, float(r[p, p] * r[p, p]) if r.shape[0] > p else 0.0


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


def _degree(degree: int) -> int:
    return _integer(degree, "degree", 0)


def fit_polynomial(points, degree: int) -> PolyFit:
    """Fit y = c0 + c1*x + ... + cd*x^d by least squares.

    The fit is taken in u = (x - centre) / scale, which maps the x range onto
    [-1, 1] and keeps the powers of u well conditioned, then expanded into
    ascending powers of x.  The columns ``[u, ..., u^d | y - mean(y)]`` go
    through the centred fold, so SS_tot and SS_res both come from R's last
    column and a degree-0 fit, the mean, reports R^2 = 0 exactly.  The fold
    and the refinement read the points ``_FIT_POINTS`` at a time, counted
    from point 0, so the fit's bits do not depend on the tile budget.  When R's
    condition number exceeds ``_REFINE_COND``, and is small enough for the
    step to converge, the coefficients get one step of iterative refinement.
    Requires finite points (``ValueError`` otherwise), more points than
    coefficients and a full-rank design; a constant dataset fitted with any
    degree yields the constant with R^2 = 1 (zero total and zero residual
    variation counts as a perfect fit).
    """
    degree = _degree(degree)
    pts = _as_points(points)
    x, y = pts[:, 0], pts[:, 1]
    if pts.shape[0] <= degree:
        raise DegenerateFitError(
            f"need more than {degree} points for a degree-{degree} fit, got {pts.shape[0]}"
        )
    lo, hi = float(x.min()), float(x.max())
    mean = y.mean()
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(mean)):  # NaN or inf spreads to these
        raise ValueError(f"fit points must be finite: x spans [{lo}, {hi}], y has mean {mean}")
    if degree >= 1 and lo == hi:
        raise DegenerateFitError("all x values identical: polynomial fit is degenerate")
    centre, scale = 0.5 * (lo + hi), 0.5 * (hi - lo) or 1.0
    r, count, col_mean = np.empty((0, degree + 1)), 0, np.zeros(degree + 1)

    def blocks():  # (u, y - mean) in units of _FIT_POINTS points, counted from point 0
        for start in range(0, len(pts), _FIT_POINTS):
            u = x[start : start + _FIT_POINTS] - centre
            u /= scale
            yield u, y[start : start + _FIT_POINTS] - mean

    for u, centered in blocks():
        powers = [u] if degree else []
        for _ in range(degree - 1):
            powers.append(powers[-1] * u)
        r, count, col_mean = _fold_centred(r, count, col_mean, powers + [centered])
    # SS_tot is the squared norm of the centred y column of R; SS_res is its last entry squared
    ss_tot = float(r[:, -1] @ r[:, -1])
    r = _with_intercept(r, count, col_mean)
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
                p_value=_t_p_value(t_stat, dof),
            )
        )
    return RegressionReport(
        intercept=stats[0], s_l=stats[1], f_a=stats[2], dof=dof, count=count
    )


def format_points(points) -> Iterator[bytes]:
    """The full per-pixel list as ASCII byte blocks: a ``t,ratio`` header, then one row per point.

    Rows are formatted ``_tile_rows(4)`` at a time, each block by one ``%``
    over its values and only when the iterator reaches it, so a writer that
    takes the blocks in turn holds one block of text, not the whole list.
    """
    pts = _as_points(points)
    size = _tile_rows(4)  # a row's 2 values are each held twice: in a list and in a tuple

    def blocks():
        yield b"t,ratio\n"
        for start in range(0, len(pts), size):
            block = pts[start : start + size]
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
