"""Monte-Carlo estimation of the deviation-reduction function K(t, n).

K measures how much a filter built from a kernel spec shrinks local intensity
fluctuations: model the fluctuation field around a pixel as independent draws
of a zero-mean unit-deviation distribution Q scaled by t, filter the center
pixel, and compare deviations across many trials:

    K = std over trials of filtered center / std over trials of raw center.

Per trial only the values the filter touches are drawn — the center plus its
ring support.  The scale t enters solely through the photometric weights
(draws are unit-scale), so a fixed seed yields common random numbers across
every t probed: curves are smooth and the threshold solve acts on a fixed
realization.  The threshold K(t0) = target is solved by the ITP method
(Oliveira and Takahashi, 2020), which keeps bisection's worst case within one
probe and on these curves takes 9 to 12 probes where bisection took 18.

Estimates aggregate over batches of trials: k_hat is the mean of per-batch
deviation ratios and std_err the standard error of that mean.  One estimator
per draw set (``_estimator``) serves ``estimate_K``, ``compute_curve`` and
``solve_threshold``: it draws the set and computes the batch deviations of
its raw centers (which do not depend on t) once, then estimates K at every t
asked of it.

Trial rows are randomized quasi-Monte Carlo (``_lattice_draws``): each batch
is one rank-1 lattice of ``_LATTICE_POINTS`` (N = 2003) points with a
Korobov generating vector, shifted modulo 1 by its own uniform vector from
the seed's counter-based generator (Philox) -- the Cranley-Patterson
rotation (SIAM J. Numer. Anal. 13, 1976) -- and mapped to Q column by column
(Box-Muller for Normal).  The shifts are independent, so the batch ratios are
i.i.d. and ``k_hat +- std_err`` keeps its meaning (L'Ecuyer and Lemieux,
Management Science 46(9), 2000), while the lattice's even spread makes each
batch far less variable than N i.i.d. trials: 25 batches match 200,000 i.i.d.
trials.  ``trials`` is rounded to whole batches, at least two.  The rows have
the same bits at every SIMD dispatch level: they are made by IEEE add,
multiply, divide and square root, floor, frexp, numpy's float64 cos and sin
(a test reruns their digests at each level), and a log built from the first
three (``_log``).  Trial rows are stored in Fortran order, one contiguous
column per support position, the layout the ensemble kernel reads.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import _core_py
from .errors import BracketError, ConvergenceError, NumericalError
from .kernel import KernelSpec, WFamily, _check_seed, _integer, _parse_enum, build_rings

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

# N, a prime, and the Korobov multiplier a of the rank-1 lattice that makes each
# batch of trial rows.  a minimizes the P2 criterion with product weights 0.8**j
# (j = 1..d) over a in 1..N//2 at d = 14, 22 and 30 (n = 3, 4 and 5 under Normal);
# a test re-derives it at d = 30.
_LATTICE_POINTS = 2003
_LATTICE_MULTIPLIER = 287

DEFAULT_TRIALS_TABLE = 25 * _LATTICE_POINTS  # 50,075
DEFAULT_TRIALS_CURVE = 10 * _LATTICE_POINTS  # 20,030

_SQRT3 = math.sqrt(3.0)
_SQRT_HALF = math.sqrt(0.5)
_LN2 = 0.6931471805599453
_ATANH_TERMS = tuple(1.0 / (2 * k + 1) for k in range(11))  # atanh(s) / s = sum of s**2k / (2k + 1)
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


def _log(x: np.ndarray) -> np.ndarray:
    """The natural log of positive normal float64 ``x``, by frexp, add, multiply and divide.

    numpy's float64 ``log`` gives other bits at one SIMD dispatch level than
    at another; these operations round the same at every level.  With
    ``x = m * 2**e`` and ``m`` in ``[sqrt(1/2), sqrt(2))``, ``log(m)`` is
    ``2 atanh(s)`` for ``s = (m - 1) / (m + 1)``, ``|s| < 0.172``, summed
    by Horner's rule to the ``s**21`` term: the first term left out is below
    2e-18 of the sum.
    """
    m, e = np.frexp(x)  # m in [1/2, 1)
    low = m < _SQRT_HALF
    m *= low + 1.0
    e -= low
    s = m - 1.0
    m += 1.0
    s /= m
    z = np.square(s)
    p = z * _ATANH_TERMS[-1]
    for c in _ATANH_TERMS[-2:0:-1]:
        p += c
        p *= z
    p += 1.0
    p *= s
    p *= 2.0
    p += e * _LN2
    return p


def _lattice_draws(dist: NoiseDistribution, seed: int, trials: int, width: int) -> np.ndarray:
    """(batches · N, width) unit-scale draws of Q in Fortran order, ``N = _LATTICE_POINTS``:
    one randomly shifted rank-1 lattice per batch of N trial rows, ``trials / N``
    rounded to the nearest whole number of batches, at least two.

    The lattice's point ``i`` in dimension ``j`` is ``i g_j / N`` modulo 1,
    with the Korobov vector ``g_j = a**j mod N`` (``a = _LATTICE_MULTIPLIER``);
    batch ``b`` adds its own uniform shift vector modulo 1, the seed's Philox
    words ``b d .. b d + d - 1`` (53 bits each), and takes ``u = 1 - frac``,
    on (0, 1].  Uniform maps ``u`` to ``sqrt(3) (2u - 1)``, one dimension
    per column (``d = width``); Normal maps dimensions ``2k`` and ``2k + 1``
    to columns ``2k`` and ``2k + 1`` by Box-Muller, ``d`` being ``width``
    rounded up to even.  Each column is written straight into the output;
    the temporaries are a few columns.
    """
    n = _LATTICE_POINTS
    batches = max(2, round(_integer(trials, "trials", 100) / n))
    _check_seed(seed)
    normal = dist is NoiseDistribution.Normal
    dims = width + (width % 2 if normal else 0)
    shifts = (np.random.Philox(key=seed).random_raw((batches, dims)) >> np.uint64(11)) * 2.0 ** -53
    points = np.arange(n)
    out = np.empty((batches * n, width), order="F")

    def column(j: int) -> np.ndarray:
        u = out[:, j] if j < width else np.empty(batches * n)
        grid = u.reshape(batches, n)
        np.add(shifts[:, j, None], points * pow(_LATTICE_MULTIPLIER, j, n) % n / n, out=grid)
        grid -= np.floor(grid)
        np.subtract(1.0, grid, out=grid)
        return u

    if not normal:
        for j in range(width):
            u = column(j)
            u *= 2.0
            u -= 1.0
            u *= _SQRT3
        return out
    for j in range(0, width, 2):
        radius, angle = column(j), column(j + 1)
        np.sqrt(_log(radius) * -2.0, out=radius)
        angle *= 2.0 * math.pi
        cos = np.cos(angle)
        if j + 1 < width:
            np.sin(angle, out=angle)
            angle *= radius
        radius *= cos
    return out


def _batch_deviations(x: np.ndarray) -> np.ndarray:
    """The sample deviation (ddof 1) of ``x`` over each of its lattice batches of
    ``_LATTICE_POINTS`` trials."""
    return x.reshape(-1, _LATTICE_POINTS).std(axis=1, ddof=1)


def _estimator(spec: KernelSpec, dist: NoiseDistribution, trials: int, seed: int):
    """``estimate(t) -> KEstimate``: K at t for the spec's V/W/n on one set of draws, ``trials``
    rounded to whole lattice batches (at least two).

    Checks ``trials`` and ``seed``, then draws the set at once, with the batch
    deviations of its raw centers, the ratios' denominators; every t reuses
    both (common random numbers).  Callers check their other arguments
    first.  A zero denominator raises ``NumericalError``.
    """
    vals = _lattice_draws(dist, seed, trials, 1 + build_rings(spec.n, spec.w).size)
    trials = len(vals)
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
    draws, making the solved function deterministic.  A target at or below
    the exact K(0) (``linear_k0``) raises ``BracketError`` before any draw,
    whatever the seed: the estimate near t = 0 is K(0) plus noise, so such a
    target would straddle at some seeds and not at others.  ``tol`` must lie
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
    k0 = linear_k0(spec.w, spec.n)
    if target <= k0:
        raise BracketError(f"target {target} is at or below K(0) = {k0:.9g}, where K starts "
                           "at t = 0: choose a target above K(0)")
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
