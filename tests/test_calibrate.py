"""Local-deviation maps, empirical reduction points, fitting, and regression."""
import dataclasses
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ringbf.calibrate as calibrate
from ringbf import _core_py
from ringbf.calibrate import (
    SUMMARY_BINS,
    PolyFit,
    PredictorStats,
    RegressionReport,
    fit_polynomial,
    format_calibration_report,
    format_points,
    regress_noise,
    scan_pair,
    summarize_points,
)
from ringbf.ctmodel import synth_phantom, synth_phantom_values
from ringbf.errors import DegenerateFitError
from ringbf.filter import Image, quantize_to_int16


# --- local statistics maps --------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(value=st.integers(-32768, 32767), h=st.integers(1, 30), w=st.integers(1, 30),
       half=st.integers(1, 10))
def test_constant_image_has_zero_deviation(value, h, w, half):
    img = np.full((h, w), value, np.int16)
    assert np.array_equal(_std_map(img, half), np.zeros((h, w)))
    assert np.array_equal(_whole_maps(img, img, half)[2], img)


def test_checkerboard_interior_deviation_closed_form():
    y, x = np.indices((16, 16))
    board = np.where((y + x) % 2 == 0, 1, -1).astype(np.int16)
    s = _std_map(board, half=1)
    # 3x3 window: five of one sign, four of the other -> mean 1/9, E[x^2] = 1
    expected = math.sqrt(80.0) / 9.0
    assert np.allclose(s[1:-1, 1:-1], expected, rtol=1e-12)


def test_std_map_shift_invariance_and_scaling():
    # the numerator k*S2 - S1^2 is an exact integer: a shift leaves it as it
    # is, and doubling quadruples it, which doubles its square root exactly
    img = np.random.default_rng(0).integers(-300, 300, (20, 20)).astype(np.int16)
    base = _std_map(img)
    assert np.array_equal(_std_map(img + 500), base)
    assert np.array_equal(_std_map(img * 2), 2.0 * base)


def test_mean_map_window_oracle():
    img = np.zeros((9, 9), np.int16)
    img[4, 4] = 25
    m = _whole_maps(img, img, half=2)[2]
    assert m[4, 4] == pytest.approx(1.0, rel=1e-15)  # 25 / (5*5)
    assert m[4, 1] == 0.0


def test_maps_accept_image_objects():
    img = Image.from_values(np.full((8, 8), 5.0))
    assert np.array_equal(_std_map(img), np.zeros((8, 8)))


def test_map_validation():
    with pytest.raises(ValueError):
        scan_pair(*np.zeros((2, 8, 8), np.int16), half=0)
    with pytest.raises(ValueError):
        scan_pair(*np.zeros((2, 8, 8), np.int16), half=-1)
    with pytest.raises(ValueError):
        scan_pair(*np.zeros((2, 8), np.int16))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_scan_refuses_non_finite_values_in_either_image(bad):
    # only a real array holds them, and the scan takes int16 pixels
    for which in (0, 1):
        pair = [np.zeros((8, 8), np.int16), np.zeros((8, 8), np.int16)]
        pair[which] = pair[which].astype(np.float64)
        pair[which][3, 5] = bad
        with pytest.raises(ValueError, match="cast safely to int16, got float64"):
            scan_pair(*pair)


@pytest.mark.parametrize("dtype", [np.float64, np.int64, np.float32, np.uint16, np.int32])
def test_scan_and_strip_maps_refuse_arrays_that_do_not_cast_safely_to_int16(dtype):
    # the values fit int16; the dtype alone is refused, so no value can be truncated
    ok = np.arange(64, dtype=np.int16).reshape(8, 8)
    for pair in ((ok.astype(dtype), ok), (ok, ok.astype(dtype))):
        with pytest.raises(ValueError, match=f"cast safely to int16, got {np.dtype(dtype)}"):
            scan_pair(*pair)
        with pytest.raises(ValueError, match=f"cast safely to int16, got {np.dtype(dtype)}"):
            calibrate._strip_maps(*pair, 2, 0, 8)


@pytest.mark.parametrize("dtype", [np.int8, np.uint8])
def test_narrower_integer_arrays_scan_as_their_int16_copy(dtype):
    high, low = (np.random.default_rng(seed).integers(0, 100, (19, 23)).astype(dtype)
                 for seed in (1, 2))
    want, got = scan_pair(high.astype(np.int16), low.astype(np.int16)), scan_pair(high, low)
    assert got.points.tobytes() == want.points.tobytes()
    assert got.noise_r.tobytes() == want.noise_r.tobytes()


def test_pair_maps_equal_separate_maps_bitwise():
    rng = np.random.default_rng(4)
    high = rng.integers(-300, 300, (23, 31)).astype(np.int16)
    low = rng.integers(-900, 900, (23, 31)).astype(np.int16)
    for half in (1, 2, 3):
        s_h, s_l, f_a = _whole_maps(high, low, half)
        assert np.array_equal(s_h, _std_map(high, half))
        assert np.array_equal(s_l, _std_map(low, half))
        assert np.array_equal(f_a, _clamped_window_sum(low, half) / (2 * half + 1) ** 2)


def _whole_maps(high, low, half):
    """(s_H, s_L, f_a) of a whole pair: one strip as tall as the image."""
    return calibrate._strip_maps(high, low, half, 0, len(low))


def _std_map(img, half=2):
    """The local deviation map of one whole image, as s_H of the pair (img, img)."""
    f = calibrate._as_array(img)
    return _whole_maps(f, f, half)[0]


def _clamped_window_sum(f, half):
    """Window sums by direct indexing, edge-clamped, in int64: exact for int16 images."""
    f = np.asarray(f, np.int64)
    ys, xs = np.indices(f.shape)
    h, w = f.shape
    return sum(f[np.clip(ys + dy, 0, h - 1), np.clip(xs + dx, 0, w - 1)]
               for dy in range(-half, half + 1) for dx in range(-half, half + 1))


_int16_images = arrays(np.int16, st.tuples(st.integers(1, 24), st.integers(1, 24)))


@settings(max_examples=150, deadline=None)
@given(img=_int16_images, half=st.integers(1, 10))
def test_window_sums_match_uniform_filter(img, half):
    ndimage = pytest.importorskip("scipy.ndimage")
    # images smaller than the window repeat their edge pixels, like mode="nearest"
    f = img.astype(np.float64)
    k = (2 * half + 1) ** 2
    s1, s2 = calibrate._window_sums(img, half)
    ref1 = ndimage.uniform_filter(f, size=2 * half + 1, mode="nearest") * k
    ref2 = ndimage.uniform_filter(f * f, size=2 * half + 1, mode="nearest") * k
    # uniform_filter rounds each partial sum: its error scales with the terms, not the sum
    assert np.allclose(s1, ref1, rtol=0, atol=1e-12 * k * max(1.0, np.abs(f).max()))
    assert np.allclose(s2, ref2, rtol=0, atol=1e-12 * k * max(1.0, (f * f).max()))
    dev = np.sqrt(np.maximum(ref2 / k - (ref1 / k) ** 2, 0.0))
    assert np.allclose(_std_map(img, half), dev, rtol=0,
                       atol=1e-6 * max(1.0, np.abs(f).max()))


@settings(max_examples=100, deadline=None)
@given(img=_int16_images, half=st.integers(1, 26))
def test_window_sums_of_integer_images_are_exact(img, half):
    f = img.astype(np.int64)
    s1, s2 = calibrate._window_sums(img, half)
    assert s1.dtype == s2.dtype == np.int64
    assert np.array_equal(s1, _clamped_window_sum(f, half))
    assert np.array_equal(s2, _clamped_window_sum(f * f, half))


def _full_range_pair(shape=(64, 64)):
    pair = np.random.default_rng(5).integers(-32768, 32767, (2, *shape), endpoint=True)
    pair[1, 0, 0] = -32768  # the largest magnitude int16 holds
    return Image(pair[0].astype(np.int16)), Image(pair[1].astype(np.int16))


def test_window_past_the_exact_range_is_refused():
    # 305x305 windows at full int16 range: (k * m)^2 = (93025 * 32768)^2 > 2**63
    high, low = _full_range_pair()
    with pytest.raises(ValueError, match="half-size 152 is too large"):
        scan_pair(high, low, 152)


def test_widest_exact_window_matches_an_integer_reference():
    # 303x303 windows at full int16 range: (k * m)^2 = (91809 * 32768)^2 < 2**63
    high, low = _full_range_pair()
    half, size = 151, 303
    g = np.pad(low.pixels, half, mode="edge").astype(object)  # Python integers: no overflow
    running = [np.pad(p.cumsum(0).cumsum(1), ((1, 0), (1, 0))) for p in (g, g * g)]
    s1, s2 = (c[size:, size:] - c[:-size, size:] - c[size:, :-size] + c[:-size, :-size]
              for c in running)
    k = size * size
    numerator = k * s2 - s1 * s1
    # past 2**53, where float64 sums would round; still below int64's 2**63
    assert 0 <= numerator.min() and 2 ** 53 < numerator.max() < 2 ** 63
    expected = np.sqrt(numerator.astype(np.float64)) / k
    s_l = calibrate._strip_maps(high.pixels, low.pixels, half, 0, 64)[1]
    assert s_l.tobytes() == expected.tobytes()
    assert np.array_equal(scan_pair(high, low, half).points[:, 0], expected[expected > 0])


_ROW_LIMIT = (2 ** 33 - 1) // 3 - 3  # the widest image whose row sums stay exact at half 1


@pytest.mark.parametrize("fits, past", [((_ROW_LIMIT, 1), (_ROW_LIMIT + 1, 1)),
                                        ((1, 2 ** 33 - 4), (1, 2 ** 33 - 3))],
                         ids=["wide-rows", "tall-strips"])
def test_window_sums_past_2_63_along_a_row_or_a_strip_are_refused(fits, past):
    # at full int16 range, m^2 = 2**30: the running sums along (width + 3) * 3
    # values of a row, or down rows + 3 values of a strip, must stay below
    # 2**63 at half 1; the bound reads only the shape, so no image is made
    calibrate._check_window(1, *fits)
    with pytest.raises(ValueError, match="half-size 1 is too large"):
        calibrate._check_window(1, *past)


# --- empirical reduction points ---------------------------------------------


def test_equal_images_give_unit_ratio():
    img = synth_phantom([100], sigma=20.0, seed=1, size=(24, 24))
    pts = scan_pair(img, img).points
    assert pts.shape == (24 * 24, 2)
    assert np.allclose(pts[:, 1], 1.0, rtol=1e-12)
    assert np.all(pts[:, 0] > 0)


def test_halved_image_gives_half_ratio():
    high = synth_phantom([0], sigma=40.0, seed=2, size=(20, 20)).pixels
    pts = scan_pair(high, 2 * high).points
    # doubling the pixels quadruples the exact numerator, so the ratio is 0.5 exactly
    assert pts.shape == (20 * 20, 2) and np.all(pts[:, 1] == 0.5)


def test_flat_regions_are_excluded():
    low = np.full((16, 16), 100, np.int16)
    high = Image.from_values(low + np.random.default_rng(0).normal(size=(16, 16)))
    assert scan_pair(high, low).points.shape == (0, 2)


def test_points_shape_mismatch():
    with pytest.raises(ValueError):
        scan_pair(np.zeros((8, 8)), np.zeros((8, 9)))


def _calibrated(high, low, half, rows, fold, fit_points):
    """Scan, summary, degree-2 fit and regression with a budget of ``rows``
    image rows, ``fold``-row regression units and ``fit_points``-point fit units."""
    with mock.patch.object(_core_py, "_TILE_ELEMS", rows * low.width), \
            mock.patch.object(calibrate, "_FOLD_ROWS", fold), \
            mock.patch.object(calibrate, "_FIT_POINTS", fit_points):
        scan = scan_pair(high, low, half)
        return (scan, summarize_points(scan.points), fit_polynomial(scan.points, 2),
                regress_noise(scan))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), h=st.integers(6, 30), w=st.integers(5, 30), half=st.integers(1, 3),
       fold=st.integers(1, 4), fit_points=st.sampled_from([7, 64, calibrate._FIT_POINTS]))
def test_scan_fit_and_regression_do_not_depend_on_the_strip_height(data, h, w, half, fold,
                                                                   fit_points):
    # strips hold whole units of `fold` rows, so small pairs still span many
    # strips; the fit runs under each budget too, so one that read it would differ
    pair = arrays(np.int16, (2, h, w), elements=st.integers(-2000, 2000))
    high, low = (Image(img) for img in data.draw(pair))
    rows = data.draw(st.sampled_from([1, 2, 3]) | st.integers(1, h + 3), label="rows")
    try:
        # a budget of h + fold rows makes one strip
        scan, summary, fit, reg = _calibrated(high, low, half, h + fold, fold, fit_points)
    except DegenerateFitError:
        assume(False)
    strip_scan, strip_summary, strip_fit, strip_reg = _calibrated(high, low, half, rows, fold,
                                                                  fit_points)
    assert np.array_equal(strip_scan.points, scan.points)
    assert np.array_equal(strip_scan.noise_r, scan.noise_r)
    for field in dataclasses.fields(summary):
        assert np.array_equal(getattr(strip_summary, field.name), getattr(summary, field.name))
    assert strip_fit == fit
    assert strip_reg == reg


def test_regression_r_of_a_wide_pair_does_not_depend_on_the_strip_height():
    # 48 rows are three 16-row fold units: budgets of 48, 32 and 16 rows give
    # strips of 48, 32 and 16 rows, and a 7-row budget rounds up to 16
    rng = np.random.default_rng(30)
    low = synth_phantom_values([40, 300], sigma=30.0, seed=3, size=(48, 2048))
    high = np.round(0.5 * low + rng.normal(scale=3.0, size=low.shape))
    high, low = Image.from_values(high), Image.from_values(low)
    scans = []
    for rows in (48, 32, 16, 7):
        with mock.patch.object(_core_py, "_TILE_ELEMS", rows * 2048):
            scans.append(scan_pair(high, low))
    for scan in scans[1:]:
        assert np.array_equal(scan.points, scans[0].points)
        assert np.array_equal(scan.noise_r, scans[0].noise_r)
        assert scan.count == 48 * 2048


def test_a_pair_wider_than_the_budget_scans_as_one_strip():
    # at 6000 wide the budget holds 10 rows, which round up to one 16-row
    # unit: strips of 16, 16 and 8 rows give the points and R of one strip
    rng = np.random.default_rng(31)
    low = synth_phantom_values([40, 300], sigma=30.0, seed=4, size=(40, 6000))
    high = np.round(0.5 * low + rng.normal(scale=3.0, size=low.shape))
    high, low = Image.from_values(high), Image.from_values(low)
    assert _core_py._tile_rows(6000) < calibrate._FOLD_ROWS
    strips = scan_pair(high, low)
    with mock.patch.object(_core_py, "_TILE_ELEMS", 48 * 6000):
        whole = scan_pair(high, low)
    assert np.array_equal(strips.points, whole.points)
    assert np.array_equal(strips.noise_r, whole.noise_r)
    assert strips.count == whole.count == 40 * 6000


# --- binned point summary ---------------------------------------------------


def _direct_bins(pts, summary):
    """Per-bin (count, t mean, ratio mean, ratio std) taken from the points directly."""
    t, ratio = pts[:, 0], pts[:, 1]
    last = len(summary.count) - 1
    rows = []
    for i, (lo, hi) in enumerate(zip(summary.t_lo, summary.t_hi)):
        inside = (t >= lo) & ((t < hi) | ((i == last) & (t <= hi)))
        rows.append((int(inside.sum()), t[inside].mean(), ratio[inside].mean(),
                     ratio[inside].std()))
    return rows


def test_summary_bins_equal_counts_and_direct_means():
    rng = np.random.default_rng(8)
    pts = np.column_stack([rng.gamma(4.0, 10.0, 4099), rng.uniform(0.1, 0.9, 4099)])
    summary = summarize_points(pts)
    assert len(summary.count) == SUMMARY_BINS
    assert summary.count.sum() == len(pts)
    assert summary.count.max() - summary.count.min() <= 1
    assert summary.t_lo[0] == pts[:, 0].min() and summary.t_hi[-1] == pts[:, 0].max()
    assert np.array_equal(summary.t_lo[1:], summary.t_hi[:-1])
    direct = _direct_bins(pts, summary)
    assert [row[0] for row in direct] == summary.count.tolist()
    for i, (_, t_mean, ratio_mean, ratio_std) in enumerate(direct):
        assert summary.t_mean[i] == pytest.approx(t_mean, rel=1e-12)
        assert summary.ratio_mean[i] == pytest.approx(ratio_mean, rel=1e-12)
        assert summary.ratio_std[i] == pytest.approx(ratio_std, rel=1e-9, abs=1e-15)


def test_summary_merges_tied_edges():
    # half the points share one t: the edges that fall on it merge into one
    t = np.concatenate([np.full(500, 3.0), np.linspace(4.0, 9.0, 500)])
    pts = np.column_stack([t, np.arange(t.size, dtype=np.float64)])
    summary = summarize_points(pts)
    assert len(summary.count) < SUMMARY_BINS
    assert np.all(np.diff(summary.t_lo) > 0)
    assert summary.t_lo[0] == 3.0 and summary.count[0] >= 500
    assert summary.count.sum() == len(pts)
    direct = _direct_bins(pts, summary)
    assert [row[0] for row in direct] == summary.count.tolist()
    assert np.allclose(summary.t_mean, [row[1] for row in direct], rtol=1e-12)


def test_summary_of_one_value_and_of_nothing():
    pts = np.column_stack([np.full(7, 2.5), np.arange(7.0)])
    one = summarize_points(pts)
    assert one.count.tolist() == [7]
    assert (one.t_lo[0], one.t_hi[0], one.t_mean[0], one.ratio_mean[0]) == (2.5, 2.5, 2.5, 3.0)
    assert one.ratio_std[0] == pytest.approx(2.0, rel=1e-15)
    empty = summarize_points(np.empty((0, 2)))
    assert len(empty.count) == 0
    with pytest.raises(ValueError):
        summarize_points(np.zeros((3, 3)))


@pytest.mark.parametrize("column", [0, 1])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_summary_rejects_non_finite_points(column, bad):
    # a NaN t once gave a NaN upper edge, an inf t an inf edge, a NaN ratio a NaN mean
    pts = np.column_stack([np.linspace(1.0, 3.0, 40), np.linspace(0.5, 0.7, 40)])
    pts[17, column] = bad
    with pytest.raises(ValueError, match="must be finite"):
        summarize_points(pts)


def test_summary_refuses_bin_sums_that_overflow():
    # every point is finite, but two t of 1e308 (or two ratios of 1e308) in one bin
    # sum to inf: the bin means once read inf with no error
    pts = np.array([[1e308, 1.0]] * 40 + [[1.0, 1e308]] * 40)
    with pytest.raises(ValueError, match="overflow a bin's sum"):
        summarize_points(pts)
    # the ratios of one bin sum to 0, but their squared deviations overflow
    pts = np.array([[1.0, 1e200], [1.0, -1e200]] * 40)
    with pytest.raises(ValueError, match="overflow a bin's sum"):
        summarize_points(pts)


def _summary_by_one_sort(pts):
    """The summary from a sort of every t and one ``np.bincount`` over all the points."""
    t, ratio = pts[:, 0], pts[:, 1]
    ranks = np.append(np.arange(SUMMARY_BINS) * t.size // SUMMARY_BINS, t.size - 1)
    edges = np.unique(np.sort(t)[ranks])
    bins = max(edges.size - 1, 1)
    idx = np.searchsorted(edges[1:-1], t, side="right")
    count = np.bincount(idx, minlength=bins)
    ratio_mean = np.bincount(idx, weights=ratio, minlength=bins) / count
    t_mean = np.bincount(idx, weights=t, minlength=bins) / count
    sq_dev = (ratio - ratio_mean[idx]) ** 2
    ratio_std = np.sqrt(np.bincount(idx, weights=sq_dev, minlength=bins) / count)
    return edges[:bins], edges[-bins:], count, t_mean, ratio_mean, ratio_std


def _assert_summary_is_one_sort(pts):
    expected = _summary_by_one_sort(pts)
    if not all(np.isfinite(field).all() for field in expected):
        # a bin of t values near 1e308, or near -1e308 and 1e308, sums to inf or NaN
        with pytest.raises(ValueError, match="overflow a bin's sum"):
            summarize_points(pts)
        return
    s = summarize_points(pts)
    got = (s.t_lo, s.t_hi, s.count, s.t_mean, s.ratio_mean, s.ratio_std)
    for field, a, b in zip(("t_lo", "t_hi", "count", "t_mean", "ratio_mean", "ratio_std"),
                           got, expected):
        assert a.dtype == b.dtype and np.array_equal(a, b), field


@st.composite
def _summary_points(draw):
    n = draw(st.integers(1, 200), label="n")
    kind = draw(st.sampled_from(["ties", "constant", "lognormal", "adjacent", "subnormal", "wide"]))
    if kind == "ties":
        values = draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=5))
        t = np.array(draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)))
    elif kind == "constant":
        t = np.full(n, draw(st.floats(-1e300, 1e300)))
    elif kind == "lognormal":
        t = np.exp(draw(arrays(np.float64, n, elements=st.floats(-30.0, 30.0))))
    elif kind == "adjacent":  # a few ulps apart, so many points share a cell
        base = np.array(draw(st.floats(-1e300, 1e300))).view(np.int64)
        t = (base + draw(arrays(np.int64, n, elements=st.integers(0, 40)))).view(np.float64)
    elif kind == "subnormal":  # a span of a few 5e-324 steps
        t = draw(arrays(np.int64, n, elements=st.integers(1, 4))).view(np.float64)
    else:  # a span past the largest double
        t = draw(arrays(np.float64, n, elements=st.floats(-1.7e308, 1.7e308)))
        t[:2] = (-1e308, 1e308)[:n]
    # bounded ratios: their sums stay finite, as in every calibration
    ratio = draw(arrays(np.float64, n, elements=st.floats(-1e6, 1e6)))
    return np.column_stack([t, ratio])


@settings(max_examples=150, deadline=None)
@given(pts=_summary_points(), tile_elems=st.sampled_from([1, 7, 4096, _core_py._TILE_ELEMS]))
def test_summary_equals_one_sort_and_one_bincount_for_any_block_size(pts, tile_elems):
    with mock.patch.object(_core_py, "_TILE_ELEMS", tile_elems):
        _assert_summary_is_one_sort(pts)


@pytest.mark.parametrize("tile_elems", [4096, _core_py._TILE_ELEMS])
def test_summary_of_many_blocks_equals_one_sort_and_one_bincount(tile_elems):
    rng = np.random.default_rng(18)
    t = np.round(rng.lognormal(3.0, 1.0, 100_003), 2)  # tied values, a long upper tail
    pts = np.column_stack([t, rng.normal(0.5, 0.2, t.size)])
    with mock.patch.object(_core_py, "_TILE_ELEMS", tile_elems):
        _assert_summary_is_one_sort(pts)


def test_summary_holds_one_byte_a_point_beyond_its_blocks():
    rng = np.random.default_rng(21)
    n = 1 << 21
    pts = np.column_stack([rng.gamma(4.0, 10.0, n), rng.normal(0.5, 0.1, n)])
    tracemalloc.start()
    try:
        summarize_points(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a sorted copy of t and a full-length bin index took the peak past the point array's bytes
    assert peak < pts.nbytes / 3


# --- polynomial fitting -----------------------------------------------------


def test_fit_recovers_exact_quadratic():
    x = np.linspace(0.0, 2.0, 9)
    y = 3.0 - 2.0 * x + 0.5 * x * x
    fit = fit_polynomial(np.column_stack([x, y]), degree=2)
    assert fit.degree == 2
    assert fit.coefficients == pytest.approx((3.0, -2.0, 0.5), abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_underdetermined_raises():
    pts = np.array([[0.0, 1.0], [1.0, 2.0]])
    with pytest.raises(DegenerateFitError):
        fit_polynomial(pts, degree=2)


def test_fit_identical_abscissas_raise():
    pts = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
    with pytest.raises(DegenerateFitError):
        fit_polynomial(pts, degree=1)


def test_fit_horizontal_line_has_unit_r_squared():
    # SS_tot is zero; a perfect constant fit still reports R^2 = 1
    pts = np.array([[0.0, 4.0], [1.0, 4.0], [2.0, 4.0], [3.0, 4.0]])
    fit = fit_polynomial(pts, degree=1)
    assert fit.coefficients == pytest.approx((4.0, 0.0), abs=1e-12)
    assert fit.r_squared == 1.0


def test_fit_noisy_data_r_squared_below_one():
    rng = np.random.default_rng(5)
    x = np.linspace(0.0, 1.0, 50)
    y = 2.0 * x + rng.normal(scale=0.5, size=50)
    fit = fit_polynomial(np.column_stack([x, y]), degree=1)
    assert 0.0 < fit.r_squared < 1.0


def test_fit_validation():
    pts = np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 3.0]])
    with pytest.raises(ValueError):
        fit_polynomial(pts, degree=-1)
    with pytest.raises(ValueError):
        fit_polynomial(np.zeros((3, 3)), degree=1)


@pytest.mark.parametrize("column", [0, 1])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fit_rejects_non_finite_points(column, bad):
    # a NaN or inf in y once gave NaN coefficients, and one in x a "rank 1 < 2" error
    x = np.linspace(0.0, 2.0, 9)
    pts = np.column_stack([x, 3.0 - 2.0 * x])
    pts[4, column] = bad
    for degree in (0, 2):
        with pytest.raises(ValueError, match="must be finite"):
            fit_polynomial(pts, degree)


def test_fit_recovers_a_quartic_over_a_million_points_of_raw_t():
    # t in [29, 150] HU, as with --window 10: the raw powers of t have a
    # singular-value ratio of 1.2e-10, below eps times the 2**20 rows
    coef = (1.2, -0.03, 4e-4, -2e-6, 4e-9)
    t = np.random.default_rng(0).uniform(29.0, 150.0, 1 << 20)
    fit = fit_polynomial(np.column_stack([t, np.polynomial.polynomial.polyval(t, coef)]), 4)
    assert fit.coefficients == pytest.approx(coef, rel=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("degree", [0, 1, 3, 5])
def test_fit_matches_lstsq_on_well_conditioned_data(degree):
    rng = np.random.default_rng(degree)
    x = rng.uniform(-1.5, 2.0, 40_000)  # more than two blocks of points
    y = np.cos(x) + rng.normal(scale=0.1, size=x.size)
    fit = fit_polynomial(np.column_stack([x, y]), degree)
    coef, ss_res, *_ = np.linalg.lstsq(np.vander(x, degree + 1, increasing=True), y, rcond=None)
    assert fit.coefficients == pytest.approx(coef, rel=1e-9)
    centered = y - y.mean()
    assert fit.r_squared == pytest.approx(1.0 - ss_res[0] / (centered @ centered),
                                          rel=1e-9, abs=1e-12)


def _exact_fit(pts, degree):
    """Least-squares coefficients in ascending powers of x, in exact rational arithmetic.

    The fit is solved in fit_polynomial's u = (x - centre) / scale, from the
    same rounded u values, and expanded into powers of x exactly.
    """
    x, y = pts[:, 0], pts[:, 1]
    centre, scale = 0.5 * (x.min() + x.max()), 0.5 * (x.max() - x.min())
    n = degree + 1
    rows = [[Fraction(float(u)) ** k for k in range(n)] + [Fraction(float(v))]
            for u, v in zip((x - centre) / scale, y)]
    m = [[sum(r[i] * r[j] for r in rows) for j in range(n + 1)] for i in range(n)]
    for i in range(n):  # Gauss-Jordan elimination on the normal equations
        m[i] = [v / m[i][i] for v in m[i]]
        for j in range(n):
            if j != i:
                m[j] = [a - m[j][i] * b for a, b in zip(m[j], m[i])]
    c, s = Fraction(float(centre)), Fraction(float(scale))
    coef = []
    for a in [m[i][n] for i in range(n)][::-1]:  # p <- p * (x - centre) / scale + a
        coef = [(lo - c * hi) / s for lo, hi in zip([0] + coef, coef + [0])]
        coef[0] += a
    return [float(v) for v in coef]


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="the refinement step needs a longdouble wider than double")
@pytest.mark.parametrize("block", [1, 5, 1 << 14])
def test_ill_conditioned_fit_matches_the_exact_least_squares_solution(block):
    # two of three abscissa clusters 1e-3 apart: cond(R) 2.6e4, so the fold
    # alone is off by 1e-12 to 2e-11 relative and the refinement step runs
    t = np.repeat([10.0, 29.999, 30.0], 8)
    pts = np.column_stack([t, np.random.default_rng(3).normal(1.0, 0.5, t.size)])
    with mock.patch.object(calibrate, "_FIT_POINTS", block):
        fit = fit_polynomial(pts, 2)
    assert fit.coefficients == pytest.approx(_exact_fit(pts, 2), rel=1e-14, abs=0)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 3000), seed=st.integers(0, 2**32 - 1),
       level=st.floats(-1e6, 1e6), spread=st.floats(1e-3, 1e3))
# R^2 is 0 here only when SS_res and SS_tot are squared alike: pow(x, 2) is an ulp above x * x
@example(n=2, seed=167037024, level=65529.0, spread=32.03710616182239)
def test_degree_zero_fit_reports_zero_r_squared(n, seed, level, spread):
    # a degree-0 fit is the mean: its residuals are the centred values, so
    # SS_res = SS_tot and R^2 is 0, not a rounding error above it
    rng = np.random.default_rng(seed)
    y = level + spread * rng.normal(size=n)
    assume(np.ptp(y) > 0)
    fit = fit_polynomial(np.column_stack([rng.uniform(0.0, 100.0, n), y]), 0)
    assert fit.r_squared == 0.0
    assert fit.coefficients == pytest.approx((y.mean(),), rel=1e-12, abs=1e-12 * spread)


@pytest.mark.parametrize("offset", [0.0, 1e4, 1e6])
def test_fit_does_not_depend_on_the_block_height_far_from_zero(offset):
    # the fold centres the ratio on its global mean first: block means alone
    # leave rounding that grows with the offset and differs with the blocks
    rng = np.random.default_rng(21)
    t = rng.uniform(20.0, 150.0, 3000)
    ratio = offset + 1.0 + 0.01 * t + 1e-3 * rng.normal(size=t.size)
    pts = np.column_stack([t, ratio])
    fits = []
    for block in (1, 5, 1 << 14):
        with mock.patch.object(calibrate, "_FIT_POINTS", block):
            fits.append(fit_polynomial(pts, 2))
    for fit in fits[1:]:
        assert fit.coefficients == pytest.approx(fits[0].coefficients, rel=1e-13)
        assert fit.r_squared == pytest.approx(fits[0].r_squared, rel=1e-13)
    y = ratio - offset  # exact: the offset-free data
    coef, ss_res, *_ = np.linalg.lstsq(np.vander(t, 3, increasing=True), y, rcond=None)
    centred = y - y.mean()
    for fit in fits:
        assert fit.coefficients[0] - offset == pytest.approx(coef[0], rel=1e-9)
        assert fit.coefficients[1:] == pytest.approx(coef[1:], rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0 - ss_res[0] / (centred @ centred), rel=1e-13)


# --- noise regression -------------------------------------------------------


def _dose_pair(seed=7, size=(32, 32)):
    """An int16 pair whose high-dose image is exactly half its low-dose one."""
    high = synth_phantom([40, 80], sigma=15.0, seed=seed, size=size).pixels
    return high, 2 * high


def test_regression_finds_deviation_coupling():
    high, low = _dose_pair()
    report = regress_noise(scan_pair(high, low))
    assert report.count == 32 * 32
    assert report.dof == 32 * 32 - 3
    assert report.s_l.coefficient == pytest.approx(0.5, abs=1e-6)
    assert report.intercept.coefficient == pytest.approx(0.0, abs=1e-6)
    assert report.f_a.coefficient == pytest.approx(0.0, abs=1e-6)
    assert report.s_l.p_value < 1e-9


def test_regression_p_values_match_reference_distribution():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(11)
    low = synth_phantom([100], sigma=25.0, seed=3, size=(32, 32))
    high = Image.from_values(0.5 * low.pixels + rng.normal(scale=1.0, size=(32, 32)))
    report = regress_noise(scan_pair(high, low))
    for s in (report.intercept, report.s_l, report.f_a):
        if math.isfinite(s.t_stat):
            expected = 2.0 * stats.t.sf(abs(s.t_stat), report.dof)
            assert s.p_value == pytest.approx(expected, rel=1e-9, abs=1e-300)


def _two_sided_t_reference(stats, t, dof):
    if dof == 1:
        # scipy's dof = 1 path is off by 3e-9 relative at |t| = 1e-8; the
        # Cauchy closed form is accurate for every t
        return 2.0 / math.pi * math.atan(1.0 / abs(t)) if t else 1.0
    return 2.0 * stats.t.sf(abs(t), dof)


@settings(max_examples=400, deadline=None)
@given(dof=st.sampled_from([1, 3, 27, 1021, 10_000, 100_000, 4_194_301, 16_777_213]),
       t=st.floats(-1e3, 1e3, allow_nan=False)
       | st.floats(0.5, 4.0)  # around the switch between the fraction's two sides
       | st.floats(-1e-6, 1e-6))
def test_t_p_values_match_scipy(dof, t):
    ref = _two_sided_t_reference(pytest.importorskip("scipy.stats"), t, dof)
    got = calibrate._t_p_value(t, dof)
    assert 0.0 <= got <= 1.0
    if ref >= 1e-300:
        assert got == pytest.approx(ref, rel=1e-9, abs=0)


def test_t_p_value_edges():
    assert calibrate._t_p_value(0.0, 5) == 1.0
    assert calibrate._t_p_value(1e-170, 5) == 1.0  # t^2 underflows
    assert calibrate._t_p_value(math.inf, 5) == 0.0
    assert calibrate._t_p_value(-1e200, 5) == 0.0
    assert calibrate._t_p_value(1e154, 5) == 0.0
    assert calibrate._t_p_value(2.5, 7) == calibrate._t_p_value(-2.5, 7)


def test_regression_degenerate_design():
    low = np.full((16, 16), 50, np.int16)  # zero deviation everywhere
    high = np.full((16, 16), 25, np.int16)
    with pytest.raises(DegenerateFitError):
        regress_noise(scan_pair(high, low))


def test_regression_matches_lstsq_on_the_whole_image_design():
    rng = np.random.default_rng(12)
    low = synth_phantom([40, 300], sigma=30.0, seed=6, size=(70, 45)).pixels
    high = quantize_to_int16(0.5 * low + rng.normal(scale=3.0, size=low.shape))
    report = regress_noise(scan_pair(high, low))  # 70 rows: strips of 32, 32 and 6
    s_h, s_l, f_a = _whole_maps(high, low, 2)
    design = np.column_stack([np.ones(s_l.size), s_l.ravel(), f_a.ravel()])
    beta, ss_res, *_ = np.linalg.lstsq(design, s_h.ravel(), rcond=None)
    se = np.sqrt(ss_res[0] / report.dof * np.diag(np.linalg.inv(design.T @ design)))
    assert report.count == s_l.size and report.dof == s_l.size - 3
    for stats, b, s in zip((report.intercept, report.s_l, report.f_a), beta, se):
        assert stats.coefficient == pytest.approx(b, rel=1e-9)
        assert stats.std_error == pytest.approx(s, rel=1e-9)


def test_regression_validation():
    with pytest.raises(ValueError):
        regress_noise(scan_pair(*np.zeros((2, 5, 5), np.int16)))  # 25 pixels < 30


# --- report formatting ------------------------------------------------------


def test_report_structure_pins_every_section():
    pts = np.array([[10.0, 0.5], [20.0, 0.25], [20.0, 0.75]])
    fit = PolyFit(degree=1, coefficients=(0.75, -0.025), r_squared=0.5)
    reg = RegressionReport(
        intercept=PredictorStats(coefficient=1.5, std_error=0.25, t_stat=6.0, p_value=1e-9),
        s_l=PredictorStats(coefficient=0.75, std_error=0.125, t_stat=6.0, p_value=2e-9),
        f_a=PredictorStats(coefficient=-0.0625, std_error=0.5, t_stat=-0.125, p_value=0.9),
        dof=97,
        count=100,
    )
    summary = summarize_points(pts)
    assert summary.count.sum() == len(pts)
    report = format_calibration_report(summary, fit, reg)
    # t = 20 ties the upper edges into one closed bin [10, 20] with every point
    assert report == (
        "t_lo,t_hi,count,t_mean,ratio_mean,ratio_std\n"
        f"10,20,3,{50 / 3:.9g},0.5,{np.std([0.5, 0.25, 0.75]):.9g}\n"
        "\n"
        "degree,c0,c1,r_squared\n"
        "1,0.75,-0.025,0.5\n"
        "\n"
        "term,coefficient,std_error,t_stat,p_value\n"
        "intercept,1.5,0.25,6,1e-09\n"
        "s_L,0.75,0.125,6,2e-09\n"
        "f_a,-0.0625,0.5,-0.125,0.9\n"
        "samples,100\n"
        "dof,97\n"
    )


def test_report_with_regression_parses_back():
    high, low = _dose_pair(seed=9)
    scan = scan_pair(high, low)
    pts = scan.points
    fit = fit_polynomial(pts, degree=2)
    reg = regress_noise(scan)
    summary = summarize_points(pts)
    report = format_calibration_report(summary, fit, reg)
    lines = report.splitlines()
    assert lines[0] == "t_lo,t_hi,count,t_mean,ratio_mean,ratio_std"
    blank = lines.index("")
    rows = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:blank]])
    assert rows.shape == (SUMMARY_BINS, 6)
    assert rows[:, 2].sum() == len(pts)
    for row, (count, t_mean, ratio_mean, ratio_std) in zip(rows, _direct_bins(pts, summary)):
        assert row[2] == count
        assert row[3] == pytest.approx(t_mean, rel=1e-8)
        assert row[4] == pytest.approx(ratio_mean, rel=1e-8)
        assert row[5] == pytest.approx(ratio_std, rel=1e-8, abs=1e-12)
    assert not any(line.startswith(("samples,", "s_L,")) for line in lines[:blank])
    assert lines[blank + 1] == "degree,c0,c1,c2,r_squared"
    fit_row = lines[blank + 2].split(",")
    assert int(fit_row[0]) == 2 and len(fit_row) == 5
    tbl = lines.index("term,coefficient,std_error,t_stat,p_value")
    terms = [lines[tbl + i].split(",")[0] for i in (1, 2, 3)]
    assert terms == ["intercept", "s_L", "f_a"]
    for i in (1, 2, 3):
        for cell in lines[tbl + i].split(",")[1:]:
            float(cell)  # every numeric cell parses
    assert lines[-2] == f"samples,{reg.count}"
    assert lines[-1] == f"dof,{reg.dof}"
    assert report.endswith("\n")


def test_points_file_matches_point_list_rows():
    high, low = _dose_pair(seed=5, size=(12, 9))
    pts = scan_pair(high, low).points
    expected = "t,ratio\n" + "".join(f"{t:.9g},{ratio:.9g}\n" for t, ratio in pts)
    assert b"".join(format_points(pts)) == expected.encode("ascii")
    assert b"".join(format_points(np.empty((0, 2)))) == b"t,ratio\n"
