"""Independent checks on K curves that only the tests use.

``estimate_linear_K`` re-estimates the t = 0 limit with the plain linear
filter; ``find_extrema`` summarizes the shape of a smoothed curve.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ringbf.analysis import (
    DEFAULT_TRIALS_CURVE,
    KCurve,
    KEstimate,
    NoiseDistribution,
    _batch_deviations,
    _lattice_draws,
)
from ringbf.kernel import WFamily, build_rings


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


def estimate_linear_K(
    w: WFamily,
    n: int,
    dist: NoiseDistribution,
    trials: int = DEFAULT_TRIALS_CURVE,
    seed: int = 0,
) -> KEstimate:
    """K for the plain spatially-weighted average (no photometric term at all).

    Independent check for the t = 0 limit, where every V family degenerates
    to this linear filter; it shares only the draws and the batching with
    the estimator, and takes its own batch ratios.
    """
    rings = build_rings(n, w)
    w_off = rings.offset_weights()
    vals = _lattice_draws(dist, seed, trials, 1 + rings.size)
    h = vals[:, 1:] @ w_off / w_off.sum()
    ratios = _batch_deviations(h) / _batch_deviations(vals[:, 0])
    std_err = float(ratios.std(ddof=1) / np.sqrt(ratios.size))
    return KEstimate(t=0.0, k_hat=float(ratios.mean()), std_err=std_err, trials=len(vals))


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
    t = [p.t for p in curve.points]
    sm = _moving_average(np.array([p.k_hat for p in curve.points]), window)
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
