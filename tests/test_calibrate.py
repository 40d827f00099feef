"""Local-deviation maps, empirical reduction points, fitting, and regression."""
import math

import numpy as np
import pytest
import scipy.stats

from ringbf.calibrate import (
    SUMMARY_BINS,
    PolyFit,
    empirical_K_points,
    fit_polynomial,
    format_calibration_report,
    format_points,
    local_maps,
    local_mean_map,
    local_std_map,
    regress_noise,
    summarize_points,
)
from ringbf.ctmodel import synth_phantom_values
from ringbf.errors import DegenerateFitError
from ringbf.filter import Image


# --- local statistics maps --------------------------------------------------


def test_constant_image_has_zero_deviation():
    img = np.full((12, 9), 37.0)
    assert np.array_equal(local_std_map(img), np.zeros((12, 9)))
    assert np.allclose(local_mean_map(img), 37.0, rtol=1e-15)


def test_checkerboard_interior_deviation_closed_form():
    y, x = np.indices((16, 16))
    board = np.where((y + x) % 2 == 0, 1.0, -1.0)
    s = local_std_map(board, half=1)
    # 3x3 window: five of one sign, four of the other -> mean 1/9, E[x^2] = 1
    expected = math.sqrt(80.0) / 9.0
    assert np.allclose(s[1:-1, 1:-1], expected, rtol=1e-12)


def test_std_map_shift_invariance_and_scaling():
    rng = np.random.default_rng(0)
    img = rng.normal(size=(20, 20)) * 10
    base = local_std_map(img)
    assert np.allclose(local_std_map(img + 500.0), base, atol=1e-9)
    assert np.allclose(local_std_map(img * 2.0), 2.0 * base, rtol=1e-12)


def test_mean_map_window_oracle():
    img = np.zeros((9, 9))
    img[4, 4] = 25.0
    m = local_mean_map(img, half=2)
    assert m[4, 4] == pytest.approx(1.0, rel=1e-15)  # 25 / (5*5)
    assert m[4, 1] == 0.0


def test_maps_accept_image_objects():
    img = Image.from_values(np.full((8, 8), 5.0))
    assert np.array_equal(local_std_map(img), np.zeros((8, 8)))


def test_map_validation():
    with pytest.raises(ValueError):
        local_std_map(np.zeros((8, 8)), half=0)
    with pytest.raises(ValueError):
        local_std_map(np.zeros((8, 8)), half=-1)
    with pytest.raises(ValueError):
        local_std_map(np.zeros(8))
    with pytest.raises(ValueError):
        local_std_map(np.zeros((8, 8)), mean=np.zeros((8, 9)))


def test_pair_maps_equal_separate_maps_bitwise():
    rng = np.random.default_rng(4)
    high = rng.integers(-300, 300, (23, 31)).astype(np.float64)
    low = rng.integers(-900, 900, (23, 31)).astype(np.float64)
    for half in (1, 2, 3):
        maps = local_maps(high, low, half)
        assert np.array_equal(maps.s_h, local_std_map(high, half))
        assert np.array_equal(maps.s_l, local_std_map(low, half))
        assert np.array_equal(maps.f_a, local_mean_map(low, half))


# --- empirical reduction points ---------------------------------------------


def test_equal_images_give_unit_ratio():
    img = synth_phantom_values([100], sigma=20.0, seed=1, size=(24, 24))
    pts = empirical_K_points(local_maps(img, img))
    assert pts.shape == (24 * 24, 2)
    assert np.allclose(pts[:, 1], 1.0, rtol=1e-12)
    assert np.all(pts[:, 0] > 0)


def test_halved_image_gives_half_ratio():
    low = synth_phantom_values([0], sigma=40.0, seed=2, size=(20, 20))
    pts = empirical_K_points(local_maps(0.5 * low, low))
    assert np.allclose(pts[:, 1], 0.5, rtol=1e-12)


def test_flat_regions_are_excluded():
    low = np.full((16, 16), 100.0)
    high = low + np.random.default_rng(0).normal(size=(16, 16))
    assert empirical_K_points(local_maps(high, low)).shape == (0, 2)


def test_points_shape_mismatch():
    with pytest.raises(ValueError):
        local_maps(np.zeros((8, 8)), np.zeros((8, 9)))


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


# --- noise regression -------------------------------------------------------


def _dose_pair(seed=7, size=(32, 32)):
    low = synth_phantom_values([80, 160], sigma=30.0, seed=seed, size=size)
    high = 0.5 * low
    return high, low


def test_regression_finds_deviation_coupling():
    high, low = _dose_pair()
    report = regress_noise(local_maps(high, low))
    assert report.count == 32 * 32
    assert report.dof == 32 * 32 - 3
    assert report.s_l.coefficient == pytest.approx(0.5, abs=1e-6)
    assert report.intercept.coefficient == pytest.approx(0.0, abs=1e-6)
    assert report.f_a.coefficient == pytest.approx(0.0, abs=1e-6)
    assert report.s_l.p_value < 1e-9


def test_regression_p_values_match_reference_distribution():
    rng = np.random.default_rng(11)
    low = synth_phantom_values([100], sigma=25.0, seed=3, size=(32, 32))
    high = 0.5 * low + rng.normal(scale=1.0, size=(32, 32))
    report = regress_noise(local_maps(high, low))
    for s in (report.intercept, report.s_l, report.f_a):
        if math.isfinite(s.t_stat):
            expected = 2.0 * scipy.stats.t.sf(abs(s.t_stat), report.dof)
            assert s.p_value == pytest.approx(expected, rel=1e-9, abs=1e-300)


def test_regression_degenerate_design():
    low = np.full((16, 16), 50.0)  # zero deviation everywhere
    high = np.full((16, 16), 25.0)
    with pytest.raises(DegenerateFitError):
        regress_noise(local_maps(high, low))


def test_regression_validation():
    with pytest.raises(ValueError):
        regress_noise(local_maps(np.zeros((5, 5)), np.zeros((5, 5))))  # 25 pixels < 30


# --- report formatting ------------------------------------------------------


def test_report_structure_without_regression():
    pts = np.array([[10.0, 0.5], [20.0, 0.25], [20.0, 0.75]])
    fit = PolyFit(degree=1, coefficients=(0.75, -0.025), r_squared=0.5)
    summary = summarize_points(pts)
    assert summary.count.sum() == len(pts)
    report = format_calibration_report(summary, fit)
    # t = 20 ties the upper edges into one closed bin [10, 20] with every point
    assert report == (
        "t_lo,t_hi,count,t_mean,ratio_mean,ratio_std\n"
        f"10,20,3,{50 / 3:.9g},0.5,{np.std([0.5, 0.25, 0.75]):.9g}\n"
        "\n"
        "degree,c0,c1,r_squared\n"
        "1,0.75,-0.025,0.5\n"
    )


def test_report_with_regression_parses_back():
    high, low = _dose_pair(seed=9)
    maps = local_maps(high, low)
    pts = empirical_K_points(maps)
    fit = fit_polynomial(pts, degree=2)
    reg = regress_noise(maps)
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
    pts = empirical_K_points(local_maps(high, low))
    expected = "t,ratio\n" + "".join(f"{t:.9g},{ratio:.9g}\n" for t, ratio in pts)
    assert format_points(pts) == expected
    assert format_points(np.empty((0, 2))) == "t,ratio\n"
