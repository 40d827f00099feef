"""Image container, quantization, and the bilateral filter itself."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringbf.filter import (
    FilterConfig,
    Image,
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
    assert img.values().dtype == np.float64


def test_quantize_rounds_half_away_from_zero():
    vals = np.array([[0.5, -0.5, 1.5, -1.5, 2.4, -2.4, 0.49, -0.49]])
    assert quantize_to_int16(vals).tolist() == [[1, -1, 2, -2, 2, -2, 0, 0]]


def test_quantize_clips_to_int16_range():
    vals = np.array([[40000.0, -40000.0, 32767.4, -32768.4]])
    assert quantize_to_int16(vals).tolist() == [[32767, -32768, 32767, -32768]]


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


def test_scale_beyond_float32_is_rejected_not_averaged():
    # float32(1e39) is inf, and inf * 0 made the weight of every equal
    # neighbour NaN, so the center silently became the support mean (25.0)
    f = np.zeros((3, 3))
    f[1, 2] = 100.0
    with pytest.raises(ValueError):
        _cfg(v=VFamily.Frac, t=1e39, n=1)
    with np.errstate(over="ignore"):
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
        filter_image_values(filter_image_values(img.values(), cfg), cfg)
    )
    assert np.array_equal(twice_real.pixels, expected.pixels)


def test_iterate_validation():
    img = Image(pixels=np.zeros((6, 6), dtype=np.int16))
    for k in (-1, 1.5):
        with pytest.raises(ValueError):
            filter_image(img, _cfg(), k)


def test_pixel_out_of_bounds():
    f = np.zeros((5, 5))
    for p0 in ((5, 0), (0, -1)):
        with pytest.raises(ValueError):
            filter_pixel_dense(f, p0, _cfg())
