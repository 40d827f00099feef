"""Image container, quantization, and the bilateral filter itself."""
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringbf import _core_py
from ringbf.calibrate import scan_pair
from ringbf.filter import (
    FilterConfig,
    Image,
    _as_array,
    filter_image,
    filter_image_values,
    filter_pixel_dense,
    quantize_to_int16,
)
from ringbf.kernel import KernelSpec, VFamily, WFamily, build_rings


def _cfg(v=VFamily.Frac, t=0.05, n=3, w=None, gate=None, border="clamp"):
    return FilterConfig(
        spec=KernelSpec(v=v, t=t, w=w or WFamily.power(), n=n),
        hu_gate=gate,
        border=border,
    )


def _random_image(seed, shape=(24, 24), sigma=200.0):
    rng = np.random.default_rng(seed)
    return np.round(rng.normal(0.0, sigma, shape))


# --- Image and quantization -----------------------------------------------


def test_image_validation():
    with pytest.raises(ValueError):
        Image(pixels=np.zeros((3, 3), dtype=np.float64))
    with pytest.raises(ValueError):
        Image(pixels=np.zeros(5, dtype=np.int16))
    with pytest.raises(ValueError):
        Image(pixels=np.zeros((0, 3), dtype=np.int16))
    img = Image(pixels=np.arange(6, dtype=np.int16).reshape(2, 3))
    assert (img.height, img.width) == (2, 3)


def test_quantize_rounds_half_away_from_zero():
    # 0.49999999999999994 is the largest double below 0.5: adding 0.5 to it rounds to 1.0
    below_half = 0.49999999999999994
    vals = np.array([[0.5, -0.5, 1.5, -1.5, 2.4, -2.4, 0.49, -0.49, below_half, -below_half]])
    assert quantize_to_int16(vals).tolist() == [[1, -1, 2, -2, 2, -2, 0, 0, 0, 0]]


def test_quantize_clips_to_int16_range():
    vals = np.array([[40000.0, -40000.0, 32767.4, -32768.4]])
    assert quantize_to_int16(vals).tolist() == [[32767, -32768, 32767, -32768]]


_halves = st.integers(-40000, 40000).map(lambda k: k + 0.5)
# each half and the doubles next to it
_near_halves = st.tuples(_halves, st.sampled_from([-math.inf, math.inf])).map(
    lambda h: float(np.nextafter(*h)))
_quantize_inputs = st.lists(
    _halves
    | _near_halves
    | st.sampled_from([32767.5, -32767.5, 32768.5, -32768.5, 1e300, -1e300, np.inf, -np.inf])
    | st.floats(-1e6, 1e6)
    | st.floats(allow_nan=False),
    min_size=1, max_size=64,
)


def _round_then_clip(x: float) -> int:
    """x rounded half away from zero in exact rational arithmetic, then clipped to int16."""
    if math.isinf(x):
        return 32767 if x > 0 else -32768
    q = math.floor(abs(Fraction(x)) + Fraction(1, 2))
    return min(max(q if x >= 0 else -q, -32768), 32767)


@settings(max_examples=300, deadline=None)
@given(values=_quantize_inputs)
def test_quantize_matches_round_then_clip_formula(values):
    v = np.array([values])
    expected = np.array([[_round_then_clip(x) for x in values]], dtype=np.int16)
    out = quantize_to_int16(v)
    assert out.dtype == np.int16
    assert np.array_equal(out, expected)
    assert np.array_equal(v, np.array([values]))  # the input is left alone


def test_integers_survive_quantization():
    vals = np.array([[-32768.0, -1.0, 0.0, 1.0, 32767.0]])
    assert quantize_to_int16(vals).tolist() == [[-32768, -1, 0, 1, 32767]]


# --- hand-checked single-pixel value --------------------------------------


def test_filter_pixel_matches_inline_arithmetic():
    # n=1: the support of (x=2, y=2) is the four edge neighbors, each with
    # spatial weight 0.5.  The expected value is computed inline with the
    # same float32 photometric / float64 accumulation discipline.
    f = np.array(
        [
            [0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 10.0, 120.0, 30.0, 0.0],
            [0.0, 40.0, 100.0, 60.0, 0.0],
            [0.0, 70.0, 80.0, 90.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0],
        ]
    )
    t = 0.02
    f0 = f[2, 2]
    neighbors = [f[2, 3], f[2, 1], f[3, 2], f[1, 2]]  # (+1,0) (-1,0) (0,+1) (0,-1)
    sv = 0.0
    sfv = 0.0
    for nb in neighbors:
        d = np.float32(nb - f0)
        u = np.float32(t) * d
        v = np.float32(1.0) / (np.float32(1.0) + u * u)
        sv += float(v)
        sfv += float(v) * nb
    expected = (0.5 * sfv) / (0.5 * sv)

    cfg = _cfg(v=VFamily.Frac, t=t, n=1)
    assert filter_image_values(f, cfg)[2, 2] == pytest.approx(expected, rel=1e-15)


def test_center_pixel_carries_no_weight():
    # an extreme center with identical neighbors: the output is exactly the
    # neighbor value, unmoved by the center
    f = np.full((5, 5), 50.0)
    f[2, 2] = 30000.0
    for v in (VFamily.Abs, VFamily.Frac, VFamily.Quad, VFamily.Exp):
        out = filter_image_values(f, _cfg(v=v, t=0.01, n=2))
        assert out[2, 2] == pytest.approx(50.0, rel=1e-12)


# --- exactness and algebraic properties -----------------------------------


def test_constant_image_is_fixed_point():
    img = Image(pixels=np.full((12, 10), 137, dtype=np.int16))
    for border in ("clamp", "skip"):
        out = filter_image(img, _cfg(t=0.3, border=border))
        assert np.array_equal(out.pixels, img.pixels)


def test_zero_scale_gives_linear_ring_average():
    f = _random_image(5, (16, 16))
    cfg = _cfg(t=0.0, n=3)
    rings = cfg.rings()
    pad = rings.margin()
    fp = np.pad(f, pad, mode="edge")
    num = np.zeros_like(f)
    den = 0.0
    for ring in rings.rings:
        for dx, dy in ring.offsets:
            num += ring.weight * fp[pad + dy : pad + dy + 16, pad + dx : pad + dx + 16]
            den += ring.weight
    expected = num / den
    out = filter_image_values(f, cfg)
    assert np.max(np.abs(out - expected)) < 1e-10


def test_dense_and_ringed_forms_agree():
    for seed, v, n, w in (
        (0, VFamily.Frac, 3, WFamily.power()),
        (1, VFamily.Abs, 1, WFamily.power()),
        (2, VFamily.Exp, 5, WFamily.gaussian(2.0)),
        (3, VFamily.Quad, 4, WFamily.power()),
    ):
        f = _random_image(seed, (14, 14))
        cfg = _cfg(v=v, t=0.07, n=n, w=w)
        ringed = filter_image_values(f, cfg)
        for x in range(4, 10):
            for y in range(4, 10):
                dense = filter_pixel_dense(f, (x, y), cfg)
                assert ringed[y, x] == pytest.approx(dense, rel=1e-9)


def test_ringed_pixel_matches_full_image_bitwise():
    # a pixel's ring-filtered value depends on its support alone: filtering
    # just the window around it reproduces the full-image value bit for bit
    f = _random_image(11, (18, 18))
    cfg = _cfg(v=VFamily.Exp, t=0.04, n=4)
    margin = cfg.rings().margin()
    out = filter_image_values(f, cfg)
    for x, y in ((5, 5), (9, 12), (3, 14)):
        window = f[max(0, y - margin) : y + margin + 1, max(0, x - margin) : x + margin + 1]
        local = filter_image_values(window, cfg)
        assert local[min(y, margin), min(x, margin)] == out[y, x]


def test_output_within_input_range():
    f = _random_image(21, (20, 20), sigma=500.0)
    out = filter_image_values(f, _cfg(t=0.01))
    assert out.min() >= f.min() - 1e-9
    assert out.max() <= f.max() + 1e-9


@settings(max_examples=30, deadline=None)
@given(c=st.integers(-1000, 1000))
def test_shift_invariance(c):
    f = _random_image(42, (16, 16))
    cfg = _cfg(v=VFamily.Frac, t=0.05, n=3)
    base = filter_image_values(f, cfg)
    shifted = filter_image_values(f + c, cfg)
    assert np.max(np.abs(shifted - (base + c))) < 1e-9


def test_smoothing_reduces_local_deviation_on_average():
    # statistical contract: over many noise images, the interior-window
    # deviation of the output is below the input's
    rng = np.random.default_rng(77)
    cfg = _cfg(v=VFamily.Frac, t=0.1, n=3)
    before = []
    after = []
    for _ in range(120):
        f = rng.normal(0.0, 30.0, (12, 12))
        out = filter_image_values(f, cfg)
        before.append(f[3:9, 3:9].std())
        after.append(out[3:9, 3:9].std())
    assert np.mean(after) < 0.8 * np.mean(before)


def test_photometric_collapse_falls_back_to_support_mean():
    # exp at a large scale underflows every weight to zero on a high-contrast
    # neighborhood; the filter then degrades to the unweighted support mean,
    # which preserves shift-equivariance
    f = np.zeros((7, 7))
    f[3, 3] = 0.0
    f[2:5, 2:5] += np.array([[10000.0, -20000, 30000], [-10000, 0, 20000], [5000, -5000, 15000]])
    cfg = _cfg(v=VFamily.Exp, t=5.0, n=1)
    rings = build_rings(1, WFamily.power())
    neighbors = np.array([f[3, 4], f[3, 2], f[4, 3], f[2, 3]])
    out = filter_image_values(f, cfg)[3, 3]
    assert out == pytest.approx(neighbors.mean(), rel=1e-12)
    shifted = filter_image_values(f + 100.0, cfg)[3, 3]
    assert shifted == pytest.approx(out + 100.0, abs=1e-9)


def test_dense_oracle_falls_back_to_the_support_mean_as_the_kernel_does():
    # on a ramp every neighbour differs from the center by 3 to 24; exp at
    # t = 1000 gives each a weight of exactly 0, so both forms take the
    # support mean, the center value 72 of the ramp's symmetric support
    f = np.arange(49, dtype=np.float64).reshape(7, 7) * 3
    cfg = _cfg(v=VFamily.Exp, t=1000.0, n=2)
    diffs = np.array([3, 21, 18, 24], np.float32)
    assert not _core_py.v_weights(np.concatenate([diffs, -diffs]), 1000.0, VFamily.Exp).any()
    assert filter_pixel_dense(f, (3, 3), cfg) == 72.0
    assert filter_image_values(f, cfg)[3, 3] == 72.0


def test_scale_beyond_float32_is_rejected_not_averaged():
    # float32(1e39) is inf, and inf * 0 made the weight of every equal
    # neighbour NaN, so the center silently became the support mean (25.0)
    f = np.zeros((3, 3))
    f[1, 2] = 100.0
    with pytest.raises(ValueError):
        _cfg(v=VFamily.Frac, t=1e39, n=1)
    out = filter_image_values(f, _cfg(v=VFamily.Frac, t=float(np.finfo(np.float32).max), n=1))
    assert out[1, 1] == 0.0


# --- gating ----------------------------------------------------------------


def test_gate_copies_outside_and_filters_inside():
    f = _random_image(9, (20, 20), sigma=300.0)
    cfg = _cfg(t=0.05, gate=(-100.0, 300.0))
    out = filter_image_values(f, cfg)
    outside = (f < -100.0) | (f > 300.0)
    assert outside.any() and (~outside).any()
    assert np.array_equal(out[outside], f[outside])
    inside_changed = out[~outside] != f[~outside]
    assert inside_changed.mean() > 0.9


def test_gate_decision_uses_original_center_value():
    # a center outside the gate stays put even when its neighbors would pull
    # the filtered value inside
    f = np.full((5, 5), 0.0)
    f[2, 2] = 500.0
    out = filter_image_values(f, _cfg(t=0.01, gate=(-100.0, 300.0)))
    assert out[2, 2] == 500.0


def test_gate_validation():
    with pytest.raises(ValueError):
        _cfg(gate=(300.0, -100.0))


# --- borders ---------------------------------------------------------------


def test_skip_border_copies_margin():
    f = _random_image(30, (15, 15))
    for n, margin in ((1, 1), (3, 2), (5, 3)):
        cfg = _cfg(t=0.05, n=n, border="skip")
        out = filter_image_values(f, cfg)
        mask = np.zeros_like(f, dtype=bool)
        mask[margin:-margin, margin:-margin] = True
        assert np.array_equal(out[~mask], f[~mask])
        assert np.mean(out[mask] != f[mask]) > 0.9


def test_clamp_and_skip_agree_in_the_interior():
    f = _random_image(31, (15, 15))
    cfg_c = _cfg(t=0.05, n=3, border="clamp")
    cfg_s = _cfg(t=0.05, n=3, border="skip")
    a = filter_image_values(f, cfg_c)
    b = filter_image_values(f, cfg_s)
    assert np.array_equal(a[2:-2, 2:-2], b[2:-2, 2:-2])


def test_pixel_filter_skip_raises_off_margin():
    f = _random_image(32, (9, 9))
    cfg = _cfg(n=3, border="skip")
    with pytest.raises(ValueError):
        filter_pixel_dense(f, (1, 4), cfg)
    with pytest.raises(ValueError):
        filter_pixel_dense(f, (8, 8), cfg)


def test_border_policy_validation():
    with pytest.raises(ValueError):
        _cfg(border="wrap")


# --- iteration -------------------------------------------------------------


def test_iterate_zero_is_identity():
    img = Image(pixels=_random_image(3, (10, 10)).astype(np.int16))
    assert filter_image(img, _cfg(), 0) is img


def test_iterate_carries_real_values_between_passes():
    img = Image(pixels=_random_image(6, (12, 12)).astype(np.int16))
    cfg = _cfg(t=0.03)
    twice_real = filter_image(img, cfg, 2)
    expected = Image.from_values(
        filter_image_values(filter_image_values(img, cfg), cfg)
    )
    assert np.array_equal(twice_real.pixels, expected.pixels)


def test_iterate_validation():
    img = Image(pixels=np.zeros((6, 6), dtype=np.int16))
    for k in (-1, 1.5):
        with pytest.raises(ValueError):
            filter_image(img, _cfg(), k)


def test_iteration_count_of_any_integer_type_runs_that_many_passes():
    img = Image(pixels=_random_image(8, (12, 12)).astype(np.int16))
    cfg = _cfg(t=0.03)
    twice = filter_image(img, cfg, 2).pixels
    assert not np.array_equal(twice, filter_image(img, cfg, 1).pixels)
    for k in (np.int64(2), np.uint8(2)):
        assert filter_image(img, cfg, k).pixels.tobytes() == twice.tobytes()


@pytest.mark.parametrize("k", [True, np.True_, 2.0, np.float64(2.0)],
                         ids=["True", "numpy-True", "float", "float64"])
def test_an_iteration_count_that_is_not_an_integer_is_refused(k):
    # True used to run one pass
    img = Image(pixels=np.zeros((6, 6), dtype=np.int16))
    with pytest.raises(ValueError, match="iteration count must be a non-negative integer"):
        filter_image(img, _cfg(), k)


def test_pixel_out_of_bounds():
    f = np.zeros((5, 5))
    for p0 in ((5, 0), (0, -1)):
        with pytest.raises(ValueError):
            filter_pixel_dense(f, p0, _cfg())


# --- one intake route for every number array -------------------------------


def _copies(pixels):
    """An int16 image as each kind of input the filter and the calibration take."""
    return {"int16": pixels, "Image": Image(pixels), "float32": pixels.astype(np.float32),
            "int64": pixels.astype(np.int64), "float64": pixels.astype(np.float64),
            "list": pixels.tolist()}


@pytest.mark.parametrize("kind", ["int16", "float32", "int64", "float64", "list"])
def test_every_copy_of_an_image_filters_and_scans_as_its_image(kind, monkeypatch):
    monkeypatch.setattr(_core_py, "_TILE_ELEMS", 5 * 37)  # 5-row strips: the gate reads each
    rng = np.random.default_rng(33)
    high, low = (rng.normal(100.0, s, (41, 37)).round().astype(np.int16) for s in (10.0, 40.0))
    # bounds just past integers, which float32 would round onto them
    gated = _cfg(gate=(80.0000001, 99.9999999))
    skip = _cfg(v=VFamily.Exp, t=0.03, n=2, border="skip")
    highs, lows = _copies(high), _copies(low)
    want, got = highs["Image"], highs[kind]
    for cfg in (gated, skip):
        assert filter_image_values(got, cfg).tobytes() == filter_image_values(want, cfg).tobytes()
    for p0 in ((0, 0), (36, 40), (17, 9)):
        assert filter_pixel_dense(got, p0, gated) == filter_pixel_dense(want, p0, gated)
    if kind != "int16":  # the calibration takes int16 pixels only: the others are refused
        with pytest.raises(ValueError, match="cast safely to int16"):
            scan_pair(got, lows[kind])
        return
    want_scan, scan = scan_pair(want, lows["Image"]), scan_pair(got, lows[kind])
    assert scan.points.tobytes() == want_scan.points.tobytes()
    assert scan.noise_r.tobytes() == want_scan.noise_r.tobytes()


def test_integer_and_real_arrays_are_taken_as_they_are():
    pixels = np.arange(12, dtype=np.int16).reshape(3, 4)
    for kind, arr in _copies(pixels).items():
        if kind not in ("Image", "list"):
            assert _as_array(arr) is arr
    assert _as_array(Image(pixels)).dtype == np.int16
    assert _as_array(pixels.tolist()).dtype.kind == "i"  # numpy's default integer, not float64
    assert _as_array(pixels > 5).dtype == np.float64  # not a number array: converted


@pytest.mark.parametrize("text", [[["a", "b"], ["c", "d"]], np.array([["1", "x"]])])
def test_text_is_refused_as_it_always_was(text):
    with pytest.raises(ValueError, match="could not convert string to float"):
        filter_image_values(text, _cfg())
    with pytest.raises(ValueError, match="could not convert string to float"):
        filter_pixel_dense(text, (0, 0), _cfg())
    with pytest.raises(ValueError, match="could not convert string to float"):
        scan_pair(text, text)


# tracemalloc peaks on a 512^2 int16 array, in float64 images (2 MiB), with one worker
# and 16-row strips.  A whole float64 copy of the input adds 1.0 to each, and scan_pair
# held two: the filter read 2.39 (its output is 1.01), the dense pixel 1.00 and the scan
# 4.47 (its points are 2.0); as they read an Image's pixels, 1.33, 0.001 and 2.47.
@pytest.mark.parametrize("call, bound", [
    (lambda a, b: filter_image_values(a, _cfg(gate=(0.0, 250.0))), 1.6),
    (lambda a, b: filter_pixel_dense(a, (3, 3), _cfg()), 0.05),
    (lambda a, b: scan_pair(a, b), 2.8),
], ids=["filter_image_values", "filter_pixel_dense", "scan_pair"])
def test_an_int16_array_is_read_without_a_float64_copy(call, bound, monkeypatch):
    monkeypatch.setattr(_core_py, "_WORKERS", 1)
    monkeypatch.setattr(_core_py, "_TILE_ELEMS", 16 * 512)
    rng = np.random.default_rng(5)
    high, low = (rng.normal(200.0, s, (512, 512)).round().astype(np.int16) for s in (10.0, 40.0))
    tracemalloc.start()
    try:
        call(high, low)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound * high.size * 8
