"""Monte-Carlo estimation of the deviation-reduction function K(t, n).

K measures how much a filter built from a kernel spec shrinks local intensity
fluctuations: model the fluctuation field around a pixel as independent draws
of a zero-mean unit-deviation distribution Q scaled by t, filter the center
pixel, and compare deviations across many independent trials:

    K = std over trials of filtered center / std over trials of raw center.

Per trial only the values the filter touches are drawn — the center plus its
ring support.  The scale t enters solely through the photometric weights
(draws are unit-scale), so a fixed seed yields common random numbers across
every t probed: curves are smooth and threshold bisection acts on a fixed
realization.

Estimates aggregate over fixed batches of trials: k_hat is the mean of
per-batch deviation ratios and std_err the standard error of that mean.
All randomness flows from a counter-based generator (Philox) keyed by the
seed, with per-trial positions derived from the trial index, so results are
bit-reproducible regardless of chunking.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from . import _core_py
from .errors import BracketError, ConvergenceError, NumericalError
from .kernel import KernelSpec, WFamily, build_rings

__all__ = [
    "NoiseDistribution",
    "KEstimate",
    "KCurve",
    "CurveExtrema",
    "DEFAULT_TRIALS_TABLE",
    "DEFAULT_TRIALS_CURVE",
    "estimate_K",
    "estimate_linear_K",
    "linear_k0",
    "compute_curve",
    "solve_threshold",
    "find_extrema",
    "curve_to_csv",
]

DEFAULT_TRIALS_TABLE = 200_000
DEFAULT_TRIALS_CURVE = 20_000

_BATCH_TRIALS = 2_000
_CHUNK_VALUES = 1 << 23  # draws generated per chunk (memory bound)
_SQRT3 = math.sqrt(3.0)
_MAX_BISECTIONS = 80


class NoiseDistribution(enum.Enum):
    """Zero-mean unit-deviation fluctuation models."""

    Normal = "normal"
    Uniform = "uniform"  # continuous on [-sqrt(3), sqrt(3)]

    @classmethod
    def parse(cls, name: str) -> "NoiseDistribution":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise ValueError(
                f"unknown distribution {name!r} (expected one of: {valid})"
            ) from None


@dataclass(frozen=True)
class KEstimate:
    t: float
    k_hat: float
    std_err: float
    trials: int


@dataclass(frozen=True)
class KCurve:
    points: tuple[KEstimate, ...]

    def __post_init__(self):
        ts = [p.t for p in self.points]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("curve points must have strictly increasing t")

    def t_values(self) -> np.ndarray:
        return np.array([p.t for p in self.points])

    def k_values(self) -> np.ndarray:
        return np.array([p.k_hat for p in self.points])


@dataclass(frozen=True)
class CurveExtrema:
    """Shape summary of a smoothed K curve.

    ``t_min``/``k_min`` describe the first interior local minimum (None when
    the smoothed curve has none below its starting value); ``t_max``/``k_max``
    the interior local maximum, reported only when it exceeds both neighbors
    and the terminal plateau.  ``k_0`` is the smoothed value at the first grid
    point and ``plateau`` at the last.
    """

    k_0: float
    t_min: float | None
    k_min: float | None
    t_max: float | None
    k_max: float | None
    plateau: float


def _unit_draws(dist: NoiseDistribution, count: int, seed: int, offset: int) -> np.ndarray:
    """``count`` draws of Q from the seed-keyed counter stream, starting at ``offset``.

    The generator emits four 64-bit words per counter step and ``advance``
    moves whole steps, so seek to the enclosing step and discard the lead-in.
    """
    bg = np.random.Philox(key=seed)
    lead = offset % 4
    if offset - lead:
        bg.advance((offset - lead) // 4)
    raw = bg.random_raw(lead + count)[lead:]
    u = ((raw >> np.uint64(11)) + 0.5) * (2.0 ** -53)  # uniform on (0, 1)
    if dist is NoiseDistribution.Normal:
        return ndtri(u)
    return _SQRT3 * (2.0 * u - 1.0)


def _draw_support_values(
    dist: NoiseDistribution, support_size: int, trials: int, seed: int
) -> np.ndarray:
    """(trials, 1 + support_size) unit-scale draws: center value then ring values.

    Trial ``i`` consumes stream positions [i*stride, (i+1)*stride), so the
    array content is independent of chunking.
    """
    stride = 1 + support_size
    total = trials * stride
    out = np.empty((trials, stride), dtype=np.float64)
    chunk_trials = max(1, _CHUNK_VALUES // stride)
    for start in range(0, trials, chunk_trials):
        stop = min(start + chunk_trials, trials)
        draws = _unit_draws(dist, (stop - start) * stride, seed, start * stride)
        out[start:stop] = draws.reshape(stop - start, stride)
    return out


def _batch_slices(trials: int) -> list[slice]:
    n_batches = max(2, round(trials / _BATCH_TRIALS))
    edges = np.linspace(0, trials, n_batches + 1).astype(int)
    return [slice(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])]


def _ratio_estimate(f0: np.ndarray, h: np.ndarray, t: float) -> KEstimate:
    trials = f0.size
    ratios = []
    for sl in _batch_slices(trials):
        denom = f0[sl].std(ddof=1)
        if denom == 0.0:
            raise NumericalError("degenerate trial batch: zero deviation in the raw draws")
        ratios.append(h[sl].std(ddof=1) / denom)
    ratios = np.array(ratios)
    k_hat = float(ratios.mean())
    std_err = float(ratios.std(ddof=1) / math.sqrt(len(ratios)))
    return KEstimate(t=float(t), k_hat=k_hat, std_err=std_err, trials=trials)


def _support_draws(
    spec: KernelSpec, dist: NoiseDistribution, trials: int, seed: int
) -> np.ndarray:
    """Unit-scale trial rows for the spec's support (its t plays no part)."""
    return _draw_support_values(dist, build_rings(spec.n, spec.w).size, trials, seed)


def _estimate_at(vals: np.ndarray, spec: KernelSpec) -> KEstimate:
    """K at the spec's own t, from trial rows drawn by ``_support_draws``."""
    return _ratio_estimate(vals[:, 0], _core_py.ensemble_filter(vals, spec), spec.t)


def _check_trials(trials: int):
    if not isinstance(trials, int) or trials < 100:
        raise ValueError(f"trials must be an integer >= 100, got {trials!r}")


def estimate_K(
    spec: KernelSpec,
    t: float,
    dist: NoiseDistribution,
    trials: int = DEFAULT_TRIALS_CURVE,
    seed: int = 0,
) -> KEstimate:
    """Estimate K(t, n) for the spec's V/W/n (the spec's own t field is ignored).

    Deterministic for a fixed (dist, n, trials, seed); the same seed shares
    its draws across all t (common random numbers).
    """
    _check_trials(trials)
    spec = spec.with_t(t)
    return _estimate_at(_support_draws(spec, dist, trials, seed), spec)


def estimate_linear_K(
    w: WFamily,
    n: int,
    dist: NoiseDistribution,
    trials: int = DEFAULT_TRIALS_CURVE,
    seed: int = 0,
) -> KEstimate:
    """K for the plain spatially-weighted average (no photometric term at all).

    Independent check for the t = 0 limit, where every V family degenerates
    to this linear filter.
    """
    _check_trials(trials)
    rings = build_rings(n, w)
    w_off = rings.offset_weights()
    vals = _draw_support_values(dist, rings.size, trials, seed)
    h = vals[:, 1:] @ w_off / w_off.sum()
    return _ratio_estimate(vals[:, 0], h, 0.0)


def linear_k0(w: WFamily, n: int) -> float:
    """Closed-form K(0): sqrt(sum of squared weights) / sum of weights."""
    w_off = build_rings(n, w).offset_weights()
    return float(np.sqrt((w_off ** 2).sum()) / w_off.sum())


def compute_curve(
    spec: KernelSpec,
    t_grid,
    dist: NoiseDistribution,
    trials: int = DEFAULT_TRIALS_CURVE,
    seed: int = 0,
) -> KCurve:
    """One KEstimate per grid point, sharing draws across the grid (CRN).

    The spec supplies V, W and n; its own t field is ignored.
    """
    _check_trials(trials)
    grid = [float(t) for t in t_grid]
    if not grid:
        raise ValueError("t grid must be non-empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("t grid must be strictly ascending")
    specs = [spec.with_t(t) for t in grid]  # checks every t before any draw
    vals = _support_draws(spec, dist, trials, seed)
    return KCurve(points=tuple(_estimate_at(vals, s) for s in specs))


def solve_threshold(
    spec: KernelSpec,
    dist: NoiseDistribution,
    target: float = 0.5,
    bracket: tuple[float, float] = (0.01, 50.0),
    tol: float = 1e-3,
    trials: int = DEFAULT_TRIALS_TABLE,
    seed: int = 0,
) -> float:
    """Solve K(t0) = target by bisection on the fixed-seed estimate.

    The spec supplies V, W and n; its own t field is ignored.  The estimated
    K rises through the target as t grows, so the bracket must satisfy
    K(t_lo) < target < K(t_hi) on this realization; all probes reuse the same
    draws, making the bisected function deterministic.  ``tol`` must lie
    strictly between 0 and the bracket width; bisection stops once the
    bracket is no wider than ``tol``, or fails after ``_MAX_BISECTIONS``
    halvings.
    """
    _check_trials(trials)
    t_lo, t_hi = float(bracket[0]), float(bracket[1])
    if not 0 <= t_lo < t_hi:
        raise ValueError(f"bracket must satisfy 0 <= lo < hi, got {bracket}")
    if not 0 < tol < t_hi - t_lo:
        raise ValueError(f"tol must satisfy 0 < tol < bracket width {t_hi - t_lo}, got {tol}")
    if not math.isfinite(target):
        raise ValueError(f"target must be finite, got {target}")
    spec.with_t(t_hi)  # every probe lies in [t_lo, t_hi]: reject an unusable t_hi before drawing
    vals = _support_draws(spec, dist, trials, seed)

    def k_at(t: float) -> float:
        return _estimate_at(vals, spec.with_t(t)).k_hat

    k_lo = k_at(t_lo)
    k_hi = k_at(t_hi)
    if not (k_lo < target < k_hi):
        raise BracketError(
            f"bracket [{t_lo}, {t_hi}] does not straddle target {target}: "
            f"K({t_lo}) = {k_lo:.4f}, K({t_hi}) = {k_hi:.4f}"
        )
    for _ in range(_MAX_BISECTIONS):
        if t_hi - t_lo <= tol:
            return 0.5 * (t_lo + t_hi)
        t_mid = 0.5 * (t_lo + t_hi)
        if k_at(t_mid) < target:
            t_lo = t_mid
        else:
            t_hi = t_mid
    raise ConvergenceError(
        f"bisection did not reach tol={tol} within {_MAX_BISECTIONS} iterations "
        f"(bracket [{t_lo}, {t_hi}])"
    )


def _moving_average(y: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average with truncated windows at the edges."""
    half = window // 2
    out = np.empty_like(y)
    for i in range(y.size):
        lo = max(0, i - half)
        hi = min(y.size, i + half + 1)
        out[i] = y[lo:hi].mean()
    return out


def find_extrema(curve: KCurve, window: int = 5) -> CurveExtrema:
    """Smooth the curve and report its shape features."""
    if len(curve.points) < 5:
        raise ValueError(f"curve must have at least 5 points, got {len(curve.points)}")
    if window < 1 or window % 2 == 0:
        raise ValueError(f"smoothing window must be a positive odd integer, got {window}")
    t = curve.t_values()
    sm = _moving_average(curve.k_values(), window)
    k_0 = float(sm[0])
    plateau = float(sm[-1])

    t_min = k_min = None
    for i in range(1, sm.size - 1):
        if sm[i] <= sm[i - 1] and sm[i] <= sm[i + 1] and sm[i] <= k_0:
            t_min, k_min = float(t[i]), float(sm[i])
            break

    t_max = k_max = None
    if sm.size >= 3:
        interior = sm[1:-1]
        m = 1 + int(np.argmax(interior))
        if sm[m] > sm[m - 1] and sm[m] > sm[m + 1] and sm[m] > plateau:
            t_max, k_max = float(t[m]), float(sm[m])

    return CurveExtrema(
        k_0=k_0, t_min=t_min, k_min=k_min, t_max=t_max, k_max=k_max, plateau=plateau
    )


def curve_to_csv(curve: KCurve) -> str:
    """CSV rendering: header ``t,k_hat,std_err,trials``, 9 significant digits."""
    lines = ["t,k_hat,std_err,trials"]
    for p in curve.points:
        lines.append(f"{p.t:.9g},{p.k_hat:.9g},{p.std_err:.9g},{p.trials}")
    return "\n".join(lines) + "\n"
