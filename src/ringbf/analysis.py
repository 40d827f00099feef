"""Monte-Carlo estimation of the deviation-reduction function K(t, n).

K measures how much a filter built from a kernel spec shrinks local intensity
fluctuations: model the fluctuation field around a pixel as independent draws
of a zero-mean unit-deviation distribution Q scaled by t, filter the center
pixel, and compare deviations across many independent trials:

    K = std over trials of filtered center / std over trials of raw center.

Per trial only the values the filter touches are drawn — the center plus its
ring support.  The scale t enters solely through the photometric weights
(draws are unit-scale), so a fixed seed yields common random numbers across
every t probed: curves are smooth and the threshold solve acts on a fixed
realization.  The threshold K(t0) = target is solved by the ITP method
(Oliveira and Takahashi, 2020), which keeps bisection's worst case within one
probe and on these curves takes 9 to 12 probes where bisection took 18.

Estimates aggregate over fixed batches of trials: k_hat is the mean of
per-batch deviation ratios and std_err the standard error of that mean.  One
estimator per draw set (``_estimator``) serves ``estimate_K``,
``compute_curve`` and ``solve_threshold``: it draws the set and computes the
batch deviations of its raw centers (which do not depend on t) once, then
estimates K at every t asked of it.

One draw routine (``_draws``) makes all randomness, reading one counter-based
generator (Philox) keyed by the seed front to back, trial after trial.  A
Normal draw takes a variable number of stream words (numpy's ziggurat
sampler; Marsaglia and Tsang, 2000), so trial ``i`` holds no fixed run of
stream positions; the values depend only on the seed and the shape drawn, not
on the block size, so results are bit-reproducible per seed.  Trial rows are
stored in Fortran order, one contiguous column per support position, the
layout the ensemble kernel reads; the phantom's noise is a single column.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import _core_py
from .errors import BracketError, ConvergenceError, NumericalError
from .kernel import KernelSpec, WFamily, _integer, _parse_enum, build_rings

__all__ = [
    "NoiseDistribution",
    "KEstimate",
    "KCurve",
    "DEFAULT_TRIALS_TABLE",
    "DEFAULT_TRIALS_CURVE",
    "estimate_K",
    "linear_k0",
    "compute_curve",
    "solve_threshold",
    "curve_to_csv",
]

DEFAULT_TRIALS_TABLE = 200_000
DEFAULT_TRIALS_CURVE = 20_000

_BATCH_TRIALS = 2_000
_SQRT3 = math.sqrt(3.0)
_MAX_ITERATIONS = 80  # probes inside the bracket
_ITP_K1, _ITP_K2, _ITP_N0 = 0.01, 2.0, 1


class NoiseDistribution(enum.Enum):
    """Zero-mean unit-deviation fluctuation models."""

    Normal = "normal"
    Uniform = "uniform"  # continuous on [-sqrt(3), sqrt(3)]

    @classmethod
    def parse(cls, name: str) -> "NoiseDistribution":
        return _parse_enum(cls, name, "distribution")


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


def _check_seed(seed: int) -> None:
    if not 0 <= _integer(seed, "seed", None) < 2 ** 128:  # Philox's key range
        raise ValueError(f"seed must be in [0, 2**128), got {seed}")


def _draws(dist: NoiseDistribution, seed: int, rows: int, width: int) -> np.ndarray:
    """(rows, width) unit-scale draws of Q in Fortran order; row ``i`` is the ``i``-th run of
    ``width`` values of the seed's stream.

    The stream is read front to back into one C-ordered block of
    ``_tile_rows(width)`` rows at a time, copied into the output, so the
    values do not depend on the block size and the only temporaries are
    block-sized.  Normal values come from numpy's ziggurat sampler over the
    stream; Uniform values are one 53-bit word each.
    """
    _check_seed(seed)
    bg = np.random.Philox(key=seed)
    gen = np.random.Generator(bg)
    out = np.empty((rows, width), order="F")
    block = np.empty((min(rows, _core_py._tile_rows(width)), width))
    for start in range(0, rows, len(block)):
        part = block[: rows - start]
        if dist is NoiseDistribution.Normal:
            gen.standard_normal(out=part)
        else:
            u = ((bg.random_raw(part.shape) >> np.uint64(11)) + 0.5) * (2.0 ** -53)  # on (0, 1)
            np.multiply(_SQRT3, 2.0 * u - 1.0, out=part)
        out[start : start + len(part)] = part
    return out


def _batch_deviations(x: np.ndarray) -> np.ndarray:
    """The sample deviation (ddof 1) of ``x`` over each of its trial batches: at least two
    equal runs of about ``_BATCH_TRIALS`` trials."""
    edges = np.linspace(0, x.size, max(2, round(x.size / _BATCH_TRIALS)) + 1).astype(int)
    return np.array([x[a:b].std(ddof=1) for a, b in zip(edges[:-1], edges[1:])])


def _estimator(spec: KernelSpec, dist: NoiseDistribution, trials: int, seed: int):
    """``estimate(t) -> KEstimate``: K at t for the spec's V/W/n on one set of ``trials`` draws.

    Checks ``trials`` and ``seed``, then draws the set at once, with the batch
    deviations of its raw centers, the ratios' denominators; every t reuses
    both (common random numbers).  Callers check their other arguments
    first.  A zero denominator raises ``NumericalError``.
    """
    trials = _integer(trials, "trials", 100)
    vals = _draws(dist, seed, trials, 1 + build_rings(spec.n, spec.w).size)
    raw_dev = _batch_deviations(vals[:, 0])
    if not raw_dev.all():
        raise NumericalError("degenerate trial batch: zero deviation in the raw draws")

    def estimate(t: float) -> KEstimate:
        probe = spec.with_t(t)
        ratios = _batch_deviations(_core_py.ensemble_filter(vals, probe)) / raw_dev
        std_err = float(ratios.std(ddof=1) / math.sqrt(len(ratios)))
        return KEstimate(t=float(t), k_hat=float(ratios.mean()), std_err=std_err, trials=trials)

    return estimate


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
    return compute_curve(spec, [t], dist, trials, seed).points[0]


def linear_k0(w: WFamily, n: int) -> float:
    """Closed-form K(0): sqrt(sum of squared weights) / sum of weights.

    The weights are first divided by the largest, so squaring cannot underflow.
    """
    w_off = build_rings(n, w).offset_weights()
    w_off = w_off / w_off.max()
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
    grid = [float(t) for t in t_grid]
    if not grid:
        raise ValueError("t grid must be non-empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("t grid must be strictly ascending")
    for t in grid:  # an unusable t is refused before the draws
        spec.with_t(t)
    estimate = _estimator(spec, dist, trials, seed)
    return KCurve(points=tuple(estimate(t) for t in grid))


def _itp_root(f, a: float, b: float, fa: float, fb: float, tol: float) -> float:
    """A point within ``tol / 2`` of a sign change of ``f`` in [a, b], by the ITP method.

    ITP (interpolate, truncate, project; Oliveira and Takahashi, ACM TOMS
    47(1), 2020) needs ``fa = f(a) < 0 <= fb = f(b)``.  As in bisection, a
    probe where f < 0 replaces a, any other replaces b, and the midpoint of
    the first bracket no wider than ``tol`` is returned.  Each probe starts
    at the regula-falsi point, moves ``k1 (b - a)^k2`` toward the midpoint,
    and is then pulled to within a radius of the midpoint that keeps every
    bracket no wider than bisection's would be after ``n0`` fewer probes: at
    most ``ceil(log2((b - a) / tol)) + n0`` probes, superlinear convergence
    on a smooth f.  Raises ``ConvergenceError`` after ``_MAX_ITERATIONS``.
    """
    (mw, ew), (mt, et) = math.frexp(b - a), math.frexp(tol)
    n_max = ew - et + (mw > mt) + _ITP_N0  # exactly the least k with tol * 2**k >= b - a, plus n0
    aim = max(0.0, tol - 8.0 * math.ulp(max(abs(a), abs(b))))  # a few ulps inside tol, for rounding
    for j in range(_MAX_ITERATIONS):
        if b - a <= tol:
            return 0.5 * (a + b)
        mid = 0.5 * (a + b)
        # the probe leaves a bracket at most aim * 2**(n_max - j - 1) wide; aim <= tol,
        # so that stays below twice the first width and cannot overflow, even for a
        # subnormal tol
        radius = max(0.0, math.ldexp(aim, n_max - j - 1) - 0.5 * (b - a))
        delta = _ITP_K1 * (b - a) ** _ITP_K2
        x_f = min(max((fb * a - fa * b) / (fb - fa), a), b)  # regula falsi, rounded into [a, b]
        sigma = math.copysign(1.0, mid - x_f)
        x_t = x_f + sigma * delta if delta <= abs(mid - x_f) else mid
        x = x_t if abs(x_t - mid) <= radius else mid - sigma * radius
        fx = f(x)
        if fx < 0:
            a, fa = x, fx
        else:
            b, fb = x, fx
    raise ConvergenceError(
        f"ITP did not reach tol={tol} within {_MAX_ITERATIONS} iterations (bracket [{a}, {b}])"
    )


def solve_threshold(
    spec: KernelSpec,
    dist: NoiseDistribution,
    target: float = 0.5,
    bracket: tuple[float, float] = (0.01, 50.0),
    tol: float = 1e-3,
    trials: int = DEFAULT_TRIALS_TABLE,
    seed: int = 0,
) -> float:
    """Solve K(t0) = target by the ITP method on the fixed-seed estimate.

    The spec supplies V, W and n; its own t field is ignored.  The estimated
    K rises through the target as t grows, so the bracket must satisfy
    K(t_lo) < target < K(t_hi) on this realization; all probes reuse the same
    draws, making the solved function deterministic.  ``tol`` must lie
    strictly between 0 and the bracket width.  The result lies within
    ``tol / 2`` of a point where the estimate crosses the target, as
    bisection's would, after at most one probe more than bisection takes:
    ``ceil(log2(width / tol)) + 1`` probes inside the bracket, plus its two
    ends (at most 19 for the default bracket and tol, against bisection's 18;
    9 to 12 on the acceptance thresholds).  It fails after ``_MAX_ITERATIONS`` probes.
    """
    t_lo, t_hi = float(bracket[0]), float(bracket[1])
    if not 0 <= t_lo < t_hi:
        raise ValueError(f"bracket must satisfy 0 <= lo < hi, got {bracket}")
    if not 0 < tol < t_hi - t_lo:
        raise ValueError(f"tol must satisfy 0 < tol < bracket width {t_hi - t_lo}, got {tol}")
    if not math.isfinite(target):
        raise ValueError(f"target must be finite, got {target}")
    spec.with_t(t_hi)  # every probe lies in [t_lo, t_hi]
    estimate = _estimator(spec, dist, trials, seed)
    k_lo, k_hi = estimate(t_lo).k_hat, estimate(t_hi).k_hat
    if not (k_lo < target < k_hi):
        raise BracketError(
            f"bracket [{t_lo}, {t_hi}] does not straddle target {target}: "
            f"K({t_lo}) = {k_lo:.4f}, K({t_hi}) = {k_hi:.4f}"
        )
    return _itp_root(lambda t: estimate(t).k_hat - target, t_lo, t_hi, k_lo - target, k_hi - target, tol)


def curve_to_csv(curve: KCurve) -> str:
    """CSV rendering: header ``t,k_hat,std_err,trials``, 9 significant digits."""
    lines = ["t,k_hat,std_err,trials"]
    for p in curve.points:
        lines.append(f"{p.t:.9g},{p.k_hat:.9g},{p.std_err:.9g},{p.trials}")
    return "\n".join(lines) + "\n"
