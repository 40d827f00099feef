"""Monte-Carlo deviation-reduction estimation, threshold solving, extrema."""
import math

import numpy as np
import pytest

import ringbf.analysis as analysis
from ringbf.analysis import (
    KCurve,
    KEstimate,
    NoiseDistribution,
    compute_curve,
    curve_to_csv,
    estimate_K,
    estimate_linear_K,
    find_extrema,
    linear_k0,
    solve_threshold,
)
from ringbf.errors import BracketError, ConvergenceError, NumericalError
from ringbf.kernel import KernelSpec, VFamily, WFamily

NORMAL = NoiseDistribution.Normal
UNIFORM = NoiseDistribution.Uniform


def _spec(v=VFamily.Frac, n=3, w=None):
    return KernelSpec(v=v, t=0.0, w=w or WFamily.power(), n=n)


# --- distributions and sampling -------------------------------------------


def test_distribution_parse():
    assert NoiseDistribution.parse("normal") is NORMAL
    assert NoiseDistribution.parse(" Uniform ") is UNIFORM
    with pytest.raises(ValueError):
        NoiseDistribution.parse("poisson")


def test_unit_draws_shape_and_determinism():
    a = analysis._unit_draws(NORMAL, 49, 9, 0)
    b = analysis._unit_draws(NORMAL, 49, 9, 0)
    assert a.shape == (49,)
    assert np.array_equal(a, b)
    c = analysis._unit_draws(NORMAL, 49, 10, 0)
    assert not np.array_equal(a, c)


def test_unit_draws_uniform_support_and_moments():
    draws = analysis._unit_draws(UNIFORM, 81 * 81, 0, 0)
    assert np.all(np.abs(draws) <= math.sqrt(3.0))
    assert abs(draws.mean()) < 0.03
    assert draws.std() == pytest.approx(1.0, abs=0.02)


def test_unit_draws_normal_moments():
    draws = analysis._unit_draws(NORMAL, 81 * 81, 0, 0)
    assert abs(draws.mean()) < 0.03
    assert draws.std() == pytest.approx(1.0, abs=0.02)


# --- estimator fundamentals ------------------------------------------------


def test_stream_positions_are_independent_of_read_layout():
    whole = analysis._unit_draws(NORMAL, 200, 7, 0)
    for splits in ([0, 8, 200], [0, 13, 29, 58, 87, 200], [0, 1, 2, 3, 200]):
        parts = [
            analysis._unit_draws(NORMAL, b - a, 7, a)
            for a, b in zip(splits[:-1], splits[1:])
        ]
        assert np.array_equal(np.concatenate(parts), whole)


def test_estimate_is_deterministic_and_chunk_invariant(monkeypatch):
    a = estimate_K(_spec(), 1.0, NORMAL, trials=4000, seed=3)
    b = estimate_K(_spec(), 1.0, NORMAL, trials=4000, seed=3)
    assert (a.k_hat, a.std_err) == (b.k_hat, b.std_err)
    # one trial per chunk: every chunk boundary lands mid-block in the stream
    monkeypatch.setattr(analysis, "_CHUNK_VALUES", 30)
    c = estimate_K(_spec(), 1.0, NORMAL, trials=4000, seed=3)
    assert (a.k_hat, a.std_err) == (c.k_hat, c.std_err)


def test_estimate_ignores_spec_scale_field():
    a = estimate_K(_spec().with_t(9.0), 1.0, NORMAL, trials=2000, seed=0)
    b = estimate_K(_spec(), 1.0, NORMAL, trials=2000, seed=0)
    assert a.k_hat == b.k_hat


def test_estimate_fields_and_validation():
    e = estimate_K(_spec(n=2), 0.7, NORMAL, trials=1000, seed=5)
    assert (e.t, e.trials) == (0.7, 1000)
    assert 0 < e.k_hat < 1 and e.std_err > 0
    # float32(1e39) is inf: every weight turned NaN and K silently read the
    # support-mean fallback, 0.2794 for this spec
    for t in (-0.1, 1e39, math.inf, math.nan):
        with pytest.raises(ValueError, match="scale t"):
            estimate_K(_spec(), t, NORMAL, trials=1000)
    with pytest.raises(ValueError):
        estimate_K(_spec(), 1.0, NORMAL, trials=99)
    with pytest.raises(ValueError):
        estimate_K(_spec(), 1.0, NORMAL, trials=1000.0)


def test_zero_scale_matches_closed_form_linear_value():
    # the t=0 filter is the linear ring average whose reduction factor is
    # sqrt(sum w^2)/sum w; the Monte-Carlo estimate must straddle it
    k0 = linear_k0(WFamily.power(), 3)
    assert k0 == pytest.approx(0.2991719048, abs=1e-9)
    e = estimate_K(_spec(), 0.0, NORMAL, trials=100_000, seed=0)
    assert abs(e.k_hat - k0) < 3 * e.std_err


def test_linear_k0_closed_form_against_direct_sum():
    for n in (1, 4):
        w = WFamily.gaussian(1.5)
        weights = []
        from ringbf.kernel import build_rings

        for ring in build_rings(n, w).rings:
            weights += [ring.weight] * len(ring.offsets)
        weights = np.array(weights)
        assert linear_k0(w, n) == pytest.approx(
            math.sqrt((weights**2).sum()) / weights.sum(), rel=1e-12
        )


def test_linear_monte_carlo_agrees_with_family_estimates_at_zero():
    e_frac = estimate_K(_spec(), 0.0, NORMAL, trials=50_000, seed=0)
    e_lin = estimate_linear_K(WFamily.power(), 3, NORMAL, trials=50_000, seed=123)
    combined = math.hypot(e_frac.std_err, e_lin.std_err)
    assert abs(e_frac.k_hat - e_lin.k_hat) < 2 * combined


def test_families_coincide_bitwise_at_zero_scale():
    values = {
        v: estimate_K(_spec(v=v), 0.0, NORMAL, trials=5000, seed=7).k_hat
        for v in (VFamily.Abs, VFamily.Frac, VFamily.Quad, VFamily.Exp)
    }
    assert len(set(values.values())) == 1


def test_halving_scale_for_default_kernel():
    e = estimate_K(_spec(), 1.40, NORMAL, trials=100_000, seed=0)
    assert e.k_hat == pytest.approx(0.5, abs=0.02)


def test_reduction_grows_with_scale_after_dip():
    ks = [
        estimate_K(_spec(), t, NORMAL, trials=20_000, seed=0).k_hat
        for t in (0.5, 1.0, 2.0, 4.0)
    ]
    assert ks == sorted(ks)


def test_small_scale_dip_below_linear_value():
    # the photometric term at small scales slightly beats the linear filter
    e_dip = estimate_K(_spec(), 0.2, NORMAL, trials=100_000, seed=0)
    e_zero = estimate_K(_spec(), 0.0, NORMAL, trials=100_000, seed=0)
    assert e_dip.k_hat < e_zero.k_hat - 2 * math.hypot(e_dip.std_err, e_zero.std_err)


def test_larger_support_reduces_more_below_threshold():
    e1 = estimate_K(_spec(n=1), 1.0, NORMAL, trials=50_000, seed=0)
    e3 = estimate_K(_spec(n=3), 1.0, NORMAL, trials=50_000, seed=0)
    assert e3.k_hat < e1.k_hat - 2 * math.hypot(e1.std_err, e3.std_err)


def test_exp_decays_after_peak_unlike_uniform():
    spec = _spec(v=VFamily.Exp)
    near_peak = estimate_K(spec, 5.0, NORMAL, trials=50_000, seed=0)
    far = estimate_K(spec, 20.0, NORMAL, trials=50_000, seed=0)
    assert far.k_hat < near_peak.k_hat - 3 * math.hypot(near_peak.std_err, far.std_err)


def test_normal_smooths_more_than_uniform_at_large_scale():
    spec = _spec(v=VFamily.Exp)
    e_n = estimate_K(spec, 14.0, NORMAL, trials=50_000, seed=0)
    e_u = estimate_K(spec, 14.0, UNIFORM, trials=50_000, seed=0)
    assert e_n.k_hat < e_u.k_hat - 3 * math.hypot(e_n.std_err, e_u.std_err)


def test_heavier_tails_keep_smoothing_at_large_scale():
    # at the same large scale, the heavier-tailed families keep more weight
    # on distant values and smooth more
    ks = {
        v: estimate_K(_spec(v=v), 8.0, NORMAL, trials=50_000, seed=0).k_hat
        for v in (VFamily.Abs, VFamily.Frac, VFamily.Quad)
    }
    assert ks[VFamily.Abs] < ks[VFamily.Frac] < ks[VFamily.Quad]


def test_degenerate_batch_raises():
    # uniform draws scaled by zero would be needed for a zero denominator;
    # simulate by monkeypatching is overkill — a direct constructed call:
    with pytest.raises(NumericalError):
        analysis._ratio_estimate(np.zeros(1000), np.zeros(1000), 0.0)


# --- curves ----------------------------------------------------------------


def test_curve_matches_pointwise_estimates_bitwise():
    grid = [0.5, 1.0, 1.4]
    curve = compute_curve(_spec(), grid, NORMAL, trials=5000, seed=2)
    for t, point in zip(grid, curve.points):
        solo = estimate_K(_spec(), t, NORMAL, trials=5000, seed=2)
        assert point.k_hat == solo.k_hat and point.std_err == solo.std_err


def test_curve_fingerprint():
    curve = compute_curve(
        _spec(v=VFamily.Exp, w=WFamily.gaussian(2.0)), [0.1, 0.2, 0.3, 0.4, 0.5],
        UNIFORM, trials=1000, seed=8,
    )
    assert np.array_equal(curve.t_values(), [0.1, 0.2, 0.3, 0.4, 0.5])
    assert [p.trials for p in curve.points] == [1000] * 5


def test_curve_grid_validation():
    for bad in ([], [1.0, 1.0], [2.0, 1.0], [-0.5, 1.0], [0.0, 5e38, 1e39]):
        with pytest.raises(ValueError):
            compute_curve(_spec(), bad, NORMAL, trials=1000)


def test_curve_type_rejects_unsorted_points():
    p = KEstimate(t=1.0, k_hat=0.5, std_err=0.01, trials=100)
    q = KEstimate(t=0.5, k_hat=0.4, std_err=0.01, trials=100)
    with pytest.raises(ValueError):
        KCurve(points=(p, q))


def test_curve_csv_format():
    points = (
        KEstimate(t=0.5, k_hat=0.25, std_err=0.001953125, trials=100),
        KEstimate(t=1.0, k_hat=1.0 / 3.0, std_err=0.002, trials=100),
    )
    csv = curve_to_csv(KCurve(points=points))
    assert csv == (
        "t,k_hat,std_err,trials\n"
        "0.5,0.25,0.001953125,100\n"
        "1,0.333333333,0.002,100\n"
    )


# --- threshold solving ------------------------------------------------------


def test_solve_threshold_near_reference():
    t0 = solve_threshold(_spec(), NORMAL, trials=50_000, seed=0)
    assert t0 == pytest.approx(1.40, rel=0.10)


def test_solve_threshold_deterministic():
    kwargs = dict(trials=10_000, seed=4, tol=1e-2)
    assert solve_threshold(_spec(), NORMAL, **kwargs) == solve_threshold(
        _spec(), NORMAL, **kwargs
    )


def test_solve_threshold_consistent_with_estimates():
    t0 = solve_threshold(_spec(), NORMAL, trials=20_000, seed=1, tol=1e-3)
    e = estimate_K(_spec(), t0, NORMAL, trials=20_000, seed=1)
    assert e.k_hat == pytest.approx(0.5, abs=0.005)


def test_solve_threshold_bracket_error():
    # the reduction at both ends of [5, 10] is above one half for this family
    with pytest.raises(BracketError):
        solve_threshold(_spec(), NORMAL, bracket=(5.0, 10.0), trials=2000)


def test_solve_threshold_convergence_error():
    # 80 halvings of [0.01, 50] leave a bracket near 4e-23 wide, far above 1e-300
    with pytest.raises(ConvergenceError, match="within 80 iterations"):
        solve_threshold(_spec(), NORMAL, trials=2000, tol=1e-300)


def test_solve_threshold_validation():
    with pytest.raises(ValueError):
        solve_threshold(_spec(), NORMAL, bracket=(2.0, 1.0), trials=2000)
    with pytest.raises(ValueError):
        solve_threshold(_spec(), NORMAL, bracket=(-1.0, 2.0), trials=2000)
    with pytest.raises(ValueError, match="scale t"):
        solve_threshold(_spec(), NORMAL, bracket=(0.01, math.inf), trials=2000)
    # tol must lie strictly inside (0, bracket width): a tol at least the
    # width would return the bracket midpoint without a single bisection
    for tol in (0.0, -1e-3, math.nan, math.inf, 60.0, 50.0 - 0.01):
        with pytest.raises(ValueError, match="tol"):
            solve_threshold(_spec(), NORMAL, tol=tol, trials=2000)
    with pytest.raises(ValueError, match="tol"):
        solve_threshold(_spec(), NORMAL, bracket=(1.0, 1.5), tol=0.5, trials=2000)


# --- extrema extraction -----------------------------------------------------


def _curve_from(ks, t_step=0.1):
    points = tuple(
        KEstimate(t=i * t_step, k_hat=float(k), std_err=0.001, trials=100)
        for i, k in enumerate(ks)
    )
    return KCurve(points=points)


def test_find_extrema_dip_then_peak_then_decay():
    ks = [0.30, 0.29, 0.28, 0.29, 0.35, 0.55, 0.80, 0.88, 0.86, 0.83, 0.82]
    ext = find_extrema(_curve_from(ks), window=1)  # window 1: no smoothing
    assert ext.k_0 == 0.30
    assert (ext.t_min, ext.k_min) == (pytest.approx(0.2), 0.28)
    assert (ext.t_max, ext.k_max) == (pytest.approx(0.7), 0.88)
    assert ext.plateau == 0.82


def test_find_extrema_monotone_rise_has_no_interior_features():
    ks = [0.30, 0.35, 0.42, 0.50, 0.60, 0.70, 0.80]
    ext = find_extrema(_curve_from(ks), window=1)
    assert ext.t_min is None and ext.k_min is None
    assert ext.t_max is None and ext.k_max is None
    assert ext.k_0 == 0.30 and ext.plateau == 0.80


def test_find_extrema_peak_requires_exceeding_plateau():
    # a bump that never rises above the terminal value is not a maximum
    ks = [0.30, 0.40, 0.45, 0.44, 0.46, 0.50, 0.55]
    ext = find_extrema(_curve_from(ks), window=1)
    assert ext.t_max is None


def test_find_extrema_smoothing_attenuates_single_point_noise():
    ks = [0.30, 0.31, 0.32, 0.60, 0.33, 0.34, 0.35, 0.36, 0.37]
    ext = find_extrema(_curve_from(ks), window=5)
    # the outlier is spread across the window: any reported peak is the
    # smoothed height, far below the raw spike
    assert ext.k_max is None or ext.k_max < 0.45
    assert ext.k_0 == pytest.approx(0.31)  # smoothed, not the raw first point


def test_find_extrema_on_estimated_curve():
    grid = np.round(np.arange(0.0, 0.801, 0.05), 10)
    curve = compute_curve(_spec(), grid, NORMAL, trials=50_000, seed=0)
    ext = find_extrema(curve)
    assert ext.t_min is not None and 0.05 < ext.t_min < 0.8
    assert ext.k_min <= ext.k_0


def test_find_extrema_validation():
    ks = [0.3, 0.4, 0.5, 0.6, 0.7]
    with pytest.raises(ValueError):
        find_extrema(_curve_from(ks), window=4)
    with pytest.raises(ValueError):
        find_extrema(_curve_from(ks), window=0)
    with pytest.raises(ValueError):
        find_extrema(_curve_from([0.3, 0.4, 0.5, 0.6]))


def test_extrema_invariants_on_estimated_curves():
    grid = np.round(np.arange(0.0, 8.01, 0.5), 10)
    for v in (VFamily.Frac, VFamily.Exp):
        curve = compute_curve(_spec(v=v), grid, NORMAL, trials=20_000, seed=1)
        ext = find_extrema(curve)
        if ext.k_min is not None:
            assert ext.k_min <= ext.k_0
        if ext.k_max is not None:
            assert ext.k_max >= ext.plateau
