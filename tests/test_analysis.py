"""Monte-Carlo deviation-reduction estimation, threshold solving, extrema."""
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from curve_checks import estimate_linear_K, find_extrema
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ringbf.analysis as analysis
from ringbf import _core_py
from ringbf.analysis import (
    KCurve,
    KEstimate,
    NoiseDistribution,
    compute_curve,
    curve_to_csv,
    estimate_K,
    linear_k0,
    solve_threshold,
)
from ringbf.errors import BracketError, ConvergenceError, NumericalError
from ringbf.kernel import KernelSpec, VFamily, WFamily, build_rings

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
    a = analysis._lattice_draws(NORMAL, 9, 100, 7)
    assert a.shape == (2 * 2003, 7)
    assert np.array_equal(a, analysis._lattice_draws(NORMAL, 9, 100, 7))
    assert not np.array_equal(a, analysis._lattice_draws(NORMAL, 10, 100, 7))


def test_unit_draws_uniform_support_and_moments():
    draws = analysis._lattice_draws(UNIFORM, 0, 4006, 13)
    assert np.all(np.abs(draws) <= math.sqrt(3.0))
    assert abs(draws.mean()) < 0.03
    assert draws.std() == pytest.approx(1.0, abs=0.02)


# --- estimator fundamentals ------------------------------------------------


def test_stream_positions_are_independent_of_read_layout():
    # lattice batch b reads only the stream words of its own shift, so two
    # batches are the first two of five
    for dist in (NORMAL, UNIFORM):
        whole = analysis._lattice_draws(dist, 7, 5 * 2003, 29)
        assert np.array_equal(analysis._lattice_draws(dist, 7, 2 * 2003, 29), whole[: 2 * 2003])


def _lattice_row(dist, seed, row, width):
    """Trial row ``row`` of ``_lattice_draws``, one value at a time in Python floats."""
    n, a = analysis._LATTICE_POINTS, analysis._LATTICE_MULTIPLIER
    dims = width + width % 2 if dist is NORMAL else width
    batch, i = divmod(row, n)
    words = np.random.Philox(key=seed).random_raw((batch + 1, dims))[batch]
    u = []
    for j in range(dims):
        x = (int(words[j]) >> 11) * 2.0 ** -53 + i * pow(a, j, n) % n / n
        u.append(1.0 - (x - math.floor(x)))
    if dist is UNIFORM:
        return [(v * 2.0 - 1.0) * math.sqrt(3.0) for v in u]
    values = []
    for j in range(0, width, 2):
        radius = math.sqrt(float(analysis._log(np.array([u[j]]))[0]) * -2.0)
        angle = u[j + 1] * (2.0 * math.pi)
        values += [radius * math.cos(angle), radius * math.sin(angle)]
    return values[:width]


@pytest.mark.parametrize("dist", [NORMAL, UNIFORM])
def test_support_draws_are_the_unit_draws_in_fortran_order(dist):
    # trial rows of 13 values (n = 3) are the shifted lattice points, row b·N + i
    # holding point i of batch b, mapped to Q value by value
    vals = analysis._lattice_draws(dist, 4, 3 * 2003, 13)
    assert vals.flags.f_contiguous and vals.shape == (3 * 2003, 13)
    for row in (0, 1, 1000, 2002, 2003, 4005, 3 * 2003 - 1):
        assert vals[row].tolist() == _lattice_row(dist, 4, row, 13), row


def test_support_draws_hold_one_block_of_temporaries():
    # the Fortran-ordered rows are written column by column, through a few
    # column-sized temporaries, not a C-ordered copy of the whole array
    tracemalloc.start()
    try:
        vals = analysis._lattice_draws(NORMAL, 3, 100_000, 61)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * vals.nbytes


def test_log_matches_the_natural_log():
    x = 1.0 - np.random.Philox(key=5).random_raw(100_000) / 2.0 ** 64  # on (0, 1]
    x = np.concatenate([x, [1.0, 2.0 ** -53, 0.5, math.sqrt(0.5), np.nextafter(math.sqrt(0.5), 0),
                            1.0 - 2.0 ** -53, 1.5, 2.0 ** 40 + 1]])
    got = analysis._log(x)
    exact = np.log(x.astype(np.longdouble))
    assert got[x == 1.0].tolist() == [0.0]
    rel = np.abs(got - exact) / np.maximum(np.abs(exact), np.finfo(np.longdouble).tiny)
    assert rel.max() < 5e-16


def test_lattice_multiplier_minimizes_the_weighted_p2_criterion():
    # P2 with product weights 0.8**j, the worst-case squared error of the lattice rule
    # in the weighted Korobov space of smoothness 2:
    # -1 + mean over points of prod_j (1 + 0.8**j 2 pi**2 B2(x_j)), B2(x) = x**2 - x + 1/6.
    # a and N - a give the same P2 (B2 is symmetric about 1/2), so a runs to N // 2
    n, d = analysis._LATTICE_POINTS, 30
    x = np.arange(n) / n
    factor = 1.0 + 0.8 ** np.arange(1, d + 1) * (2.0 * math.pi ** 2) * (x * x - x + 1.0 / 6.0)[:, None]
    points, dims = np.arange(n)[:, None], np.arange(d)

    def p2(a):
        g = np.array([pow(a, j, n) for j in range(d)])
        return factor[points * g % n, dims].prod(axis=1).mean() - 1.0

    scores = [p2(a) for a in range(1, n // 2 + 1)]
    assert 1 + int(np.argmin(scores)) == analysis._LATTICE_MULTIPLIER


# sha256 of the trial rows of seed 0 at two lattice batches, little-endian float64 in
# Fortran order.  The rows use no numpy routine whose bits change with the SIMD
# dispatch level (test_core reruns these under each level this machine has).
PINNED_LATTICE_DIGESTS = {
    (NORMAL, 13): "44b160e77b24a0b547747f5cea1e179b61bea2aa91687db798ab7a21680f2872",
    (NORMAL, 29): "47eae5147fa80292ca37c1e671af5bd4b2cf8702bb8ef4a0ac5fc077658a9638",
    (UNIFORM, 13): "b00f50b18ca69bf877cfb15a4a3e35c2703d8af29e5761ce99bd647248fa1d2f",
}


@pytest.mark.parametrize("dist, width", list(PINNED_LATTICE_DIGESTS),
                         ids=[f"{dist.value}-{width}" for dist, width in PINNED_LATTICE_DIGESTS])
def test_lattice_draws_are_pinned(dist, width):
    vals = analysis._lattice_draws(dist, 0, 100, width)
    digest = hashlib.sha256(vals.astype("<f8").tobytes(order="F")).hexdigest()
    assert digest == PINNED_LATTICE_DIGESTS[(dist, width)]


def test_estimate_is_deterministic_and_chunk_invariant(monkeypatch):
    a = estimate_K(_spec(), 1.0, NORMAL, trials=4000, seed=3)
    b = estimate_K(_spec(), 1.0, NORMAL, trials=4000, seed=3)
    assert (a.k_hat, a.std_err) == (b.k_hat, b.std_err)
    # the kernel filters 30 trials a chunk, ending mid lattice batch
    monkeypatch.setattr(_core_py, "_TILE_ELEMS", 30)
    c = estimate_K(_spec(), 1.0, NORMAL, trials=4000, seed=3)
    assert (a.k_hat, a.std_err) == (c.k_hat, c.std_err)


def test_std_err_is_honest_at_two_to_four_batches():
    # over 400 seeds, |k_hat - mean| > 2 std_err as often as a Student t with
    # batches - 1 degrees of freedom exceeds 2: 29.5%, 18.4% and 13.9% at 2, 3
    # and 4 batches.  The count must lie within 3.5 binomial deviations of that
    # rate (82.5 +- 27.9 of 400); the mean is that of all batch ratios.  A
    # std_err taken with ddof 0 reads 115 here
    p = {2: 1.0 - 2.0 / math.pi * math.atan(2.0),
         3: 1.0 - 2.0 / math.sqrt(6.0),
         4: 1.0 - 2.0 / math.pi * (math.atan(2.0 / math.sqrt(3.0)) + (2.0 / math.sqrt(3.0)) / (7.0 / 3.0))}
    batches = [2 + seed % 3 for seed in range(400)]
    es = [estimate_K(_spec(), 1.40, NORMAL, trials=b * 2003, seed=seed) for seed, b in enumerate(batches)]
    k_hat = np.array([e.k_hat for e in es])
    mean = float(np.dot(k_hat, batches) / sum(batches))
    beyond = sum(abs(e.k_hat - mean) > 2.0 * e.std_err for e in es)
    expected = sum(p[b] for b in batches)
    spread = math.sqrt(sum(p[b] * (1.0 - p[b]) for b in batches))
    assert abs(beyond - expected) <= 3.5 * spread, (beyond, expected)


def test_estimate_ignores_spec_scale_field():
    a = estimate_K(_spec().with_t(9.0), 1.0, NORMAL, trials=2000, seed=0)
    b = estimate_K(_spec(), 1.0, NORMAL, trials=2000, seed=0)
    assert a.k_hat == b.k_hat


def test_estimate_fields_and_validation():
    e = estimate_K(_spec(n=2), 0.7, NORMAL, trials=1000, seed=5)
    assert (e.t, e.trials) == (0.7, 2 * 2003)  # 1000 trials round to two lattice batches
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


def test_seed_outside_the_key_range_is_named_as_the_seed():
    for seed in (-1, 2**128):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*128\)"):
            estimate_K(_spec(), 1.0, NORMAL, trials=1000, seed=seed)
    assert estimate_K(_spec(), 1.0, NORMAL, trials=1000, seed=2**128 - 1).trials == 2 * 2003


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
        for ring in build_rings(n, w).rings:
            weights += [ring.weight] * len(ring.offsets)
        weights = np.array(weights)
        assert linear_k0(w, n) == pytest.approx(
            math.sqrt((weights**2).sum()) / weights.sum(), rel=1e-12
        )
    # at sigma_d = 0.05 ring 1 weighs exp(-400) and the outer rings 0; squaring
    # exp(-400) underflows, so the unscaled sum of squares would give K(0) = 0
    assert linear_k0(WFamily.gaussian(0.05), 3) == 0.5


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


def test_degenerate_batch_raises(monkeypatch):
    # no unit-deviation draw set has a zero denominator; construct one: two
    # lattice batches of zeros, whose batch deviations of the raw centers are zero
    draws, starts = analysis._lattice_draws, []
    monkeypatch.setattr(analysis, "_lattice_draws",
                        lambda dist, seed, trials, width, batches=slice(None): np.zeros((2 * 2003, width)))
    with pytest.raises(NumericalError, match="degenerate trial batch"):
        estimate_K(_spec(), 0.0, NORMAL, trials=1000, seed=0)

    # three one-batch groups whose last batch is zeros: the zero denominator is
    # found when its group is drawn, after the first two were filtered
    def last_batch_zero(dist, seed, trials, width, batches=slice(None)):
        starts.append(batches.start)
        vals = draws(dist, seed, trials, width, batches)
        if batches.start == 2:
            vals[:] = 0.0
        return vals

    monkeypatch.setattr(analysis, "_lattice_draws", last_batch_zero)
    monkeypatch.setattr(analysis, "_GROUP_ELEMS", 1)
    for run in (lambda: estimate_K(_spec(), 1.0, NORMAL, trials=3 * 2003, seed=0),
                lambda: compute_curve(_spec(), [0.5, 1.0], NORMAL, trials=3 * 2003, seed=0),
                lambda: solve_threshold(_spec(), NORMAL, trials=3 * 2003, seed=0)):
        starts.clear()
        with pytest.raises(NumericalError, match="degenerate trial batch"):
            run()
        assert starts == [0, 1, 2]


def _outcome(run):
    """``run()``'s result, or the type and message of what it raised."""
    try:
        return run()
    except (BracketError, NumericalError) as exc:
        return type(exc), str(exc)


@settings(max_examples=15, deadline=None)
@given(dist=st.sampled_from([NORMAL, UNIFORM]), n=st.integers(1, 5), v=st.sampled_from(list(VFamily)),
       batches=st.integers(2, 7), seed=st.integers(0, 2**64 - 1))
def test_results_do_not_depend_on_the_group_of_batches(dist, n, v, batches, seed):
    # groups of one batch, of three, and the whole set in one group give the same
    # estimates, curve and threshold, bit for bit
    spec = _spec(v=v, n=n)
    width = 1 + build_rings(n, spec.w).size
    results, calls = [], []
    ensemble_filter = _core_py.ensemble_filter

    def counted(vals, spec, *args):
        calls[-1].add(len(vals))
        return ensemble_filter(vals, spec, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_core_py, "ensemble_filter", counted)
        for group in (1, 3 * 2003 * width, 1 << 40):
            mp.setattr(analysis, "_GROUP_ELEMS", group)
            calls.append(set())
            results.append((
                estimate_K(spec, 1.3, dist, trials=batches * 2003, seed=seed),
                compute_curve(spec, [0.0, 0.4, 2.0, 9.0], dist, trials=batches * 2003, seed=seed),
                _outcome(lambda: solve_threshold(spec, dist, trials=batches * 2003, seed=seed, tol=1e-2)),
            ))
    assert results[1] == results[0] and results[2] == results[0]
    assert calls[0] == {2003} and max(calls[1]) == min(3, batches) * 2003 and calls[2] == {batches * 2003}


@pytest.mark.parametrize("run", [
    lambda spec: estimate_K(spec, 15.0, NORMAL, trials=100_000, seed=0),
    lambda spec: compute_curve(spec, [1.0, 15.0, 30.0], NORMAL, trials=100_000, seed=0),
], ids=["estimate_K", "compute_curve"])
def test_draws_are_held_one_group_at_a_time(run):
    # 50 batches at n = 5 are 23.2 MB of rows, and the whole set used to be held
    # (a 29.4 MB peak); a group holds nine batches, 4.2 MB, beside the kernel's
    # 2.9 MB of work buffers
    spec = _spec(v=VFamily.Abs, n=5)
    group_bytes = 9 * 2003 * 29 * 8  # nine batches of rows of 29 values
    tracemalloc.start()
    try:
        run(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * group_bytes


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
    assert [p.t for p in curve.points] == [0.1, 0.2, 0.3, 0.4, 0.5]
    assert [p.trials for p in curve.points] == [2 * 2003] * 5


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


# acceptance 01's thresholds (power W, n=3, Normal, 200k trials, seed 0, the
# default bracket and tol) as bisection solved them on the lattice draws, with
# 18 filter calls each
BISECTION_T0 = {
    VFamily.Abs: 15.083049850463867,
    VFamily.Frac: 1.399416275024414,
    VFamily.Quad: 0.7792705535888671,
    VFamily.Exp: 0.6740059661865234,
}


def test_acceptance_solves_take_at_most_12_probes_within_tol_of_bisection(monkeypatch):
    rows = {}  # probe t -> trial rows filtered at it, over however many kernel calls
    ensemble_filter = _core_py.ensemble_filter

    def counted(vals, spec, *args):
        rows[spec.t] = rows.get(spec.t, 0) + len(vals)
        return ensemble_filter(vals, spec, *args)

    monkeypatch.setattr(_core_py, "ensemble_filter", counted)
    for v, t_bisection in BISECTION_T0.items():
        rows.clear()
        t0 = solve_threshold(_spec(v), NORMAL, trials=200_000, seed=0)
        assert len(rows) <= 12, v  # probes are distinct t values
        assert set(rows.values()) == {100 * 2003}  # each probe reads the whole draw set
        assert abs(t0 - t_bisection) <= 1e-3, v


def test_solve_threshold_bracket_error(monkeypatch):
    # the reduction at both ends of [5, 10] is above one half for this family
    with pytest.raises(BracketError):
        solve_threshold(_spec(), NORMAL, bracket=(5.0, 10.0), trials=2000)
    # a target at or below the exact K(0) is refused before any draw
    monkeypatch.setattr(analysis, "_lattice_draws", None)
    k0 = linear_k0(WFamily.gaussian(1.5), 3)
    for target in (k0, k0 - 0.01):
        with pytest.raises(BracketError, match=f"at or below K\\(0\\) = {k0:.9g}"):
            solve_threshold(_spec(w=WFamily.gaussian(1.5)), UNIFORM, target=target)


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
    # width would return the bracket midpoint without a single probe inside it
    for tol in (0.0, -1e-3, math.nan, math.inf, 60.0, 50.0 - 0.01):
        with pytest.raises(ValueError, match="tol"):
            solve_threshold(_spec(), NORMAL, tol=tol, trials=2000)
    with pytest.raises(ValueError, match="tol"):
        solve_threshold(_spec(), NORMAL, bracket=(1.0, 1.5), tol=0.5, trials=2000)


# --- the ITP root finder on synthetic increasing functions --------------------

# each is increasing through its root r, with f(x) < 0 exactly when x < r
_INCREASING = {
    "line": lambda r: lambda x: x - r,
    "cubic": lambda r: lambda x: (x - r) ** 3,  # flat at the root: interpolation crawls
    "arctan": lambda r: lambda x: math.atan(50.0 * (x - r)),
    "step": lambda r: lambda x: -1.0 if x < r else 1.0,  # regula falsi lands mid-bracket
    "skewed": lambda r: lambda x: math.expm1(min(x - r, 30.0)),
}

_brackets = st.tuples(
    st.floats(-1e3, 1e3),  # lower end
    st.floats(1e-3, 1e3),  # width
    st.floats(1e-6, 1.0),  # where the root sits, as a fraction of the width
    st.sampled_from(sorted(_INCREASING)),
)


def _root_problem(bracket):
    lo, width, at, name = bracket
    hi = lo + width
    r = lo + at * (hi - lo)
    f = _INCREASING[name](r)
    assume(abs(r) > 1e-9 and f(lo) < 0 <= f(hi))  # floats near 0 are closer than any tol
    probes = []

    def counted(x):
        assert lo <= x <= hi
        probes.append(x)
        return f(x)

    return lo, hi, r, f, counted, probes


@settings(max_examples=400, deadline=None)
@given(bracket=_brackets, tol_exp=st.floats(-12.0, 0.0))
def test_itp_root_is_within_half_tol_in_at_most_one_probe_more_than_bisection(bracket, tol_exp):
    lo, hi, r, f, counted, probes = _root_problem(bracket)
    tol = (hi - lo) * 10.0 ** tol_exp
    assume(1e3 * math.ulp(max(abs(lo), abs(hi))) < tol < hi - lo)  # floats can resolve tol
    x = analysis._itp_root(counted, lo, hi, f(lo), f(hi), tol)
    assert abs(x - r) <= tol / 2 + math.ulp(r)
    halvings = next(k for k in range(2000) if math.ldexp(tol, k) >= hi - lo)
    assert len(probes) + 2 <= halvings + 1 + 2  # the two ends, then bisection's count plus n0


@settings(max_examples=100, deadline=None)
@given(bracket=_brackets, tol=st.sampled_from([1e-300, 5e-324]))
def test_itp_root_fails_on_a_tol_below_the_float_spacing(bracket, tol):
    # 5e-324 needs 2**1080 in the radius; computed naively it raises OverflowError
    lo, hi, r, f, counted, probes = _root_problem(bracket)
    with pytest.raises(ConvergenceError, match=f"did not reach tol={tol} within 80 iterations"):
        analysis._itp_root(counted, lo, hi, f(lo), f(hi), tol)
    assert len(probes) == 80


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
