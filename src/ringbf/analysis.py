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
deviation ratios and std_err the standard error of that mean.  Each lattice
batch is needed only for its own ratio, so the draws are made and used one
*group* of whole batches at a time (``_draw_groups``): at most
``_GROUP_ELEMS`` values (eight tiles of ``_core_py._TILE_ELEMS``), at least
one batch.  One route (``_estimates``) serves ``estimate_K``,
``compute_curve`` and ``solve_threshold``: for each group it takes the batch
deviations of the raw centers (which do not depend on t) and then of the
filtered centers at every t asked of it, and forms the ratios over all
batches at the end.  ``compute_curve`` and ``estimate_K`` pass the groups as a
generator, so they hold one group at a time at any trial count;
``solve_threshold``, whose ITP probes each depend on the one before, holds
the whole set.  The draws, the kernel and the batch deviations are all per
batch or per trial, so no result depends on the group size, bit for bit.

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
_GROUP_ELEMS = 8 * _core_py._TILE_ELEMS  # values per group of lattice batches (at least one batch)


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


def _batches(trials: int) -> int:
    """``trials`` (an integer, at least 100) rounded to the nearest whole number of lattice
    batches, at least two."""
    return max(2, round(_integer(trials, "trials", 100) / _LATTICE_POINTS))


def _lattice_draws(dist: NoiseDistribution, seed: int, trials: int, width: int,
                   batches: slice = slice(None)) -> np.ndarray:
    """Unit-scale draws of Q in Fortran order, ``width`` values a row: the rows of the lattice
    batches ``batches`` (all by default) of the draw set of ``trials`` rows, ``N =
    _LATTICE_POINTS`` rows a batch.  The set holds one randomly shifted rank-1 lattice per
    batch, ``trials / N`` rounded to the nearest whole number of batches, at least two.

    The lattice's point ``i`` in dimension ``j`` is ``i g_j / N`` modulo 1,
    with the Korobov vector ``g_j = a**j mod N`` (``a = _LATTICE_MULTIPLIER``);
    batch ``b`` adds its own uniform shift vector modulo 1, the seed's Philox
    words ``b d .. b d + d - 1`` (53 bits each), and takes ``u = 1 - frac``,
    on (0, 1].  Uniform maps ``u`` to ``sqrt(3) (2u - 1)``, one dimension
    per column (``d = width``); Normal maps dimensions ``2k`` and ``2k + 1``
    to columns ``2k`` and ``2k + 1`` by Box-Muller, ``d`` being ``width``
    rounded up to even.  Every shift vector of the set is drawn (a few KB)
    and the range's are sliced out; each value depends only on its batch's
    shift and its point, so a range's rows are the same bits as those rows
    of the whole set.  Each column is written straight into the output; the
    temporaries are a few columns.
    """
    n = _LATTICE_POINTS
    count = _batches(trials)
    _check_seed(seed)
    normal = dist is NoiseDistribution.Normal
    dims = width + (width % 2 if normal else 0)
    shifts = ((np.random.Philox(key=seed).random_raw((count, dims)) >> np.uint64(11)) * 2.0 ** -53)[batches]
    rows = len(shifts) * n
    points = np.arange(n)
    out = np.empty((rows, width), order="F")

    def column(j: int) -> np.ndarray:
        u = out[:, j] if j < width else np.empty(rows)
        grid = u.reshape(len(shifts), n)
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


def _draw_groups(spec: KernelSpec, dist: NoiseDistribution, trials: int, seed: int):
    """The draw set for the spec's n, ``trials`` rounded to whole lattice batches (at least
    two), as a generator of ``(rows, raw)`` pairs, one group of whole batches at a time.

    ``rows`` are the group's ``_lattice_draws`` (center, then support) and
    ``raw`` the batch deviations of their raw centers, the denominators of
    the group's ratios.  A group holds at most ``_GROUP_ELEMS`` values, at
    least one batch.  ``trials`` and ``seed`` are checked at the call, before
    any draw; a zero denominator raises ``NumericalError`` when its group is
    drawn.
    """
    count = _batches(trials)
    _check_seed(seed)
    width = 1 + build_rings(spec.n, spec.w).size
    step = max(1, _GROUP_ELEMS // (_LATTICE_POINTS * width))

    def group(first: int) -> tuple[np.ndarray, np.ndarray]:
        rows = _lattice_draws(dist, seed, trials, width, slice(first, first + step))
        raw = _batch_deviations(rows[:, 0])
        if not raw.all():
            raise NumericalError("degenerate trial batch: zero deviation in the raw draws")
        return rows, raw

    return (group(first) for first in range(0, count, step))


def _estimates(groups, spec: KernelSpec, ts, buffers=None) -> list[KEstimate]:
    """K at each t of ``ts`` for the spec's V/W/n, over the ``(rows, raw)`` groups of one draw
    set (common random numbers; the spec's own t is ignored).

    The groups are read once, in order, each filtered at every t, so a
    generator of them is held one group at a time.  ``buffers``
    (``_core_py._buffers`` of ``_core_py._tile_rows(1)`` values) are the
    kernel's work buffers; without them one set is made for this call.
    """
    probes = [spec.with_t(t) for t in ts]
    if buffers is None:
        buffers = _core_py._buffers(_core_py._tile_rows(1))
    raw, filtered = [], [[] for _ in probes]
    for rows, group_raw in groups:
        raw.append(group_raw)
        for probe, devs in zip(probes, filtered):
            devs.append(_batch_deviations(_core_py.ensemble_filter(rows, probe, buffers)))
        del rows  # so the next group is drawn in this one's place
    raw = np.concatenate(raw)
    trials = raw.size * _LATTICE_POINTS
    estimates = []
    for t, devs in zip(ts, filtered):
        ratios = np.concatenate(devs) / raw
        std_err = float(ratios.std(ddof=1) / math.sqrt(len(ratios)))
        estimates.append(KEstimate(t=float(t), k_hat=float(ratios.mean()), std_err=std_err, trials=trials))
    return estimates


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

    The spec supplies V, W and n; its own t field is ignored.  The draws are
    made, filtered at every grid point and dropped one group of lattice
    batches at a time, so the memory held does not grow with ``trials``.
    """
    grid = [float(t) for t in t_grid]
    if not grid:
        raise ValueError("t grid must be non-empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("t grid must be strictly ascending")
    for t in grid:  # an unusable t is refused before the draws
        spec.with_t(t)
    return KCurve(points=tuple(_estimates(_draw_groups(spec, dist, trials, seed), spec, grid)))


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
    draws, held whole, making the solved function deterministic.  A target at or below
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
    groups = list(_draw_groups(spec, dist, trials, seed))  # every probe reads the whole set
    buffers = _core_py._buffers(_core_py._tile_rows(1))

    def k_hat(t: float) -> float:
        return _estimates(groups, spec, [t], buffers)[0].k_hat

    k_lo, k_hi = k_hat(t_lo), k_hat(t_hi)
    if not (k_lo < target < k_hi):
        raise BracketError(
            f"bracket [{t_lo}, {t_hi}] does not straddle target {target}: "
            f"K({t_lo}) = {k_lo:.4f}, K({t_hi}) = {k_hi:.4f}"
        )
    return _itp_root(lambda t: k_hat(t) - target, t_lo, t_hi, k_lo - target, k_hi - target, tol)


def curve_to_csv(curve: KCurve) -> str:
    """CSV rendering: header ``t,k_hat,std_err,trials``, 9 significant digits."""
    lines = ["t,k_hat,std_err,trials"]
    for p in curve.points:
        lines.append(f"{p.t:.9g},{p.k_hat:.9g},{p.std_err:.9g},{p.trials}")
    return "\n".join(lines) + "\n"
