"""The tiled compute kernels: oracle agreement, invariants, tiling independence."""
import hashlib
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from test_analysis import PINNED_LATTICE_DIGESTS

from ringbf import _core_py
from ringbf.filter import FilterConfig, Image, filter_image, filter_image_values, filter_pixel_dense
from ringbf.kernel import KernelSpec, VFamily, WFamily, build_rings

@st.composite
def cases(draw):
    h = draw(st.integers(1, 70))
    w = draw(st.integers(1, 70))
    spread = draw(st.sampled_from([0, 3, 100, 2000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # non-negative intensities (a 12-bit detector range): the weighted sums
    # never cancel, so a relative bound against the dense oracle is meaningful
    f = (2047 + rng.integers(-spread, spread + 1, (h, w))).astype(np.float64)
    gate = None
    if draw(st.booleans()):
        lo = draw(st.integers(0, 4095))
        gate = (float(lo), float(draw(st.integers(lo, 4095))))
    cfg = FilterConfig(
        spec=KernelSpec(
            v=draw(st.sampled_from(list(VFamily))),
            t=draw(st.sampled_from([0.0, 0.004, 0.05, 0.7, 5.0])),
            w=WFamily.power(),
            n=draw(st.integers(1, 5)),
        ),
        hu_gate=gate,
        border=draw(st.sampled_from(["clamp", "skip"])),
    )
    return f, cfg


def _masks(f, cfg):
    """(pixels the filter replaces, gated-out pixels, skip-policy margin pixels)."""
    h, w = f.shape
    m = cfg.rings().margin()
    margin = np.zeros((h, w), dtype=bool)
    if cfg.border == "skip":
        margin[:m, :] = margin[-m:, :] = margin[:, :m] = margin[:, -m:] = True
    gated_out = np.zeros((h, w), dtype=bool)
    if cfg.hu_gate is not None:
        gated_out = (f < cfg.hu_gate[0]) | (f > cfg.hu_gate[1])
    return ~(margin | gated_out), gated_out & ~margin, margin


@settings(max_examples=40, deadline=None)
@given(case=cases())
def test_every_pixel_matches_dense_oracle(case):
    f, cfg = case
    out = filter_image_values(f, cfg)
    filtered, _, _ = _masks(f, cfg)
    for y, x in zip(*np.nonzero(filtered)):
        assert out[y, x] == pytest.approx(filter_pixel_dense(f, (x, y), cfg), rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(case=cases())
def test_output_within_support_range(case):
    f, cfg = case
    out = filter_image_values(f, cfg)
    filtered, _, _ = _masks(f, cfg)
    m = cfg.rings().margin()
    pad = np.pad(f, m, mode="edge")
    h, w = f.shape
    support = [pad[m + dy : m + dy + h, m + dx : m + dx + w] for dx, dy in cfg.rings().all_offsets()]
    lo = np.minimum.reduce(support)
    hi = np.maximum.reduce(support)
    slack = 1e-12 * (1.0 + np.abs(f).max())
    assert np.all(out[filtered] >= lo[filtered] - slack)
    assert np.all(out[filtered] <= hi[filtered] + slack)


@settings(max_examples=40, deadline=None)
@given(case=cases())
def test_gated_out_and_margin_pixels_pass_through_bit_exactly(case):
    f, cfg = case
    out = filter_image_values(f, cfg)
    _, gated_out, margin = _masks(f, cfg)
    copied = gated_out | margin
    assert out[copied].tobytes() == f[copied].tobytes()


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("v", list(VFamily))
@settings(max_examples=8, deadline=None)
@given(case=cases(), c=st.integers(-30000, 30000))
def test_filter_commutes_with_intensity_offsets(v, n, case, c):
    f, cfg = case
    cfg = replace(cfg, spec=replace(cfg.spec, v=v, n=n))
    base = filter_image_values(f, cfg)
    if cfg.hu_gate is not None:  # the gate moves with the intensities
        cfg = replace(cfg, hu_gate=(cfg.hu_gate[0] + c, cfg.hu_gate[1] + c))
    shifted = filter_image_values(f + c, cfg)
    # integer differences are exact, so only the weighted sums' rounding differs
    scale = 1.0 + np.abs(f).max() + abs(c)
    assert np.abs(shifted - (base + c)).max() <= 1e-12 * scale


@settings(max_examples=25, deadline=None)
@given(case=cases())
def test_output_is_independent_of_strip_size_and_worker_count(case):
    f, cfg = case
    h, w = f.shape
    expected = filter_image_values(f, cfg)
    # every output stays alive, so no run can get a freed array that already
    # holds the expected values back as its uninitialised output buffer
    outputs = [expected]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the GIL between strip workers as often as possible
    try:
        with pytest.MonkeyPatch.context() as mp:
            for tile_elems in (1, 3 * w, h * w):  # 1-row strips, 3-row strips, one strip
                for workers in (1, h):
                    mp.setattr(_core_py, "_TILE_ELEMS", tile_elems)
                    mp.setattr(_core_py, "_WORKERS", workers)
                    outputs.append(filter_image_values(f, cfg))
                    assert outputs[-1].tobytes() == expected.tobytes()
    finally:
        sys.setswitchinterval(interval)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dtypes=st.sampled_from([(np.int16, None), (np.float64, None),
                                               (np.int16, np.int64)]))
def test_clamped_rows_are_rows_of_the_edge_padded_image(data, dtypes):
    # the one border rule of the filter's strips and the calibration's window sums;
    # before and after reach up to 3 rows past the far edge of the image.  Strips
    # are float64 unless asked for, and the calibration reads int16 pixels as int64
    dtype, held = dtypes
    h, w = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 40))
    f = data.draw(arrays(dtype, (h, w)))
    stop = data.draw(st.integers(1, h))
    start = data.draw(st.integers(0, stop - 1))
    before, after = data.draw(st.integers(0, h + 3)), data.draw(st.integers(0, h + 3))
    if held is None:
        block, held = _core_py._clamped_rows(f, start, stop, before, after), np.float64
    else:
        block = _core_py._clamped_rows(f, start, stop, before, after, held)
    padded = np.pad(f.astype(held), ((before, after), (before, after)), mode="edge")
    assert block.dtype == held
    assert block.tobytes() == padded[start : stop + before + after].tobytes()


# tracemalloc peaks of one single-worker pass: a 64x64 image gets strip buffers of
# its 64 rows (those of a 1024-row tile would take 3.1 MB); a 1024^2 pass holds its
# output and strip-sized blocks, then the quantizer's float64 buffer and int16
# result (2.25 float64 images), not a float64 copy and a padded one (3.4 images)
@pytest.mark.parametrize("side, bound", [(64, 1e6), (1024, 2.8 * 1024 * 1024 * 8)],
                         ids=["64x64", "1024x1024"])
def test_a_filter_pass_holds_no_whole_image_copy_of_its_input(side, bound, monkeypatch):
    monkeypatch.setattr(_core_py, "_WORKERS", 1)
    img = Image(np.random.default_rng(side).integers(-200, 400, (side, side)).astype(np.int16))
    cfg = FilterConfig(spec=KernelSpec(v=VFamily.Frac, t=0.05, n=3))
    tracemalloc.start()
    try:
        filter_image(img, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


@pytest.mark.parametrize("n_trials, chunk", [(1, 1), (300, 1), (300, 7), (9000, 4096), (9000, 4097)])
def test_ensemble_is_independent_of_trial_chunk(n_trials, chunk, monkeypatch):
    spec = KernelSpec(v=VFamily.Exp, t=0.8, n=3)
    width = 1 + build_rings(spec.n, spec.w).size
    vals = np.random.default_rng(n_trials).normal(0.0, 1.0, (n_trials, width))
    monkeypatch.setattr(_core_py, "_TILE_ELEMS", n_trials)  # one chunk
    expected = _core_py.ensemble_filter(vals, spec).tobytes()
    monkeypatch.setattr(_core_py, "_TILE_ELEMS", chunk)
    assert _core_py.ensemble_filter(vals, spec).tobytes() == expected
    # the Monte-Carlo draws come in Fortran order; rows in either order filter alike
    assert _core_py.ensemble_filter(np.asfortranarray(vals), spec).tobytes() == expected


@pytest.mark.parametrize("w", [WFamily.power(), WFamily.gaussian(1.5)])
@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("v", list(VFamily))
def test_trial_rows_filter_like_the_image_pixels_they_copy(v, n, w, monkeypatch):
    f = np.round(np.random.default_rng(n).normal(0.0, 150.0, (13, 11)))
    h, wd = f.shape
    ys, xs = np.indices(f.shape)
    support = [f[np.clip(ys + dy, 0, h - 1), np.clip(xs + dx, 0, wd - 1)]
               for dx, dy in build_rings(n, w).all_offsets()]
    rows = np.stack([f] + support, axis=-1).reshape(h * wd, -1)  # clamped, ring order
    monkeypatch.setattr(_core_py, "_TILE_ELEMS", 7)  # 7-trial chunks and one-row strips
    # at 3e38 every family sends some pixels to the support-mean fallback
    for t in (0.0, 0.004, 0.05, 5.0, 3e38):
        spec = KernelSpec(v=v, t=t, w=w, n=n)
        with np.errstate(over="ignore"):
            image = _core_py.filter_values(f, spec)
            trials = _core_py.ensemble_filter(rows, spec)
        assert trials.tobytes() == image.ravel().tobytes()


@st.composite
def image_and_trial_cases(draw):
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))  # down to less than a margin
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        f = rng.integers(-32768, 32768, (h, w)).astype(np.int16)  # full int16 range
    else:
        f = rng.normal(0.0, draw(st.sampled_from([1.0, 150.0, 1e4])), (h, w))
    spec = KernelSpec(v=draw(st.sampled_from(list(VFamily))),
                      t=draw(st.sampled_from([0.0, 1e-4, 0.004, 0.05, 5.0, 3e38])),
                      w=draw(st.sampled_from([WFamily.power(), WFamily.gaussian(1.5)])),
                      n=draw(st.integers(1, 5)))
    return f, spec, draw(st.sampled_from([1, 7, _core_py._TILE_ELEMS])), draw(st.sampled_from([1, 2]))


@settings(max_examples=100, deadline=None)
@given(case=image_and_trial_cases())
def test_the_paired_image_route_equals_the_unpaired_trial_route(case):
    # an image strip evaluates V once per pair of opposite offsets; the trial rows
    # that copy its pixels have no opposite offsets and evaluate V per offset
    f, spec, tile_elems, workers = case
    rows = _trial_rows(f, build_rings(spec.n, spec.w).all_offsets())
    with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore"):
        mp.setattr(_core_py, "_TILE_ELEMS", tile_elems)
        mp.setattr(_core_py, "_WORKERS", workers)
        image = _core_py.filter_values(f, spec)
        trials = _core_py.ensemble_filter(rows, spec)
    assert trials.tobytes() == image.ravel().tobytes()


def test_ensemble_rejects_rows_of_another_support():
    vals = np.zeros((5, 1 + 8))
    with pytest.raises(ValueError, match="1 \\+ 12"):
        _core_py.ensemble_filter(vals, KernelSpec(v=VFamily.Frac, t=1.0, n=3))


# sha256 of filter_values on the image below (Frac n=3 spatial layout, t=0.02,
# clamp, no gate), taken from the whole-image kernel this tiled one replaced.
# Exp is left out: its float32 exp comes from numpy's SIMD code, which may
# differ in the last bit between numpy builds.
PINNED_DIGESTS = {
    VFamily.Abs: "db01f1abb1ce0978ef57d59be3fe1e49bf4ea5963fd996c8838fe37aa2cf51f0",
    VFamily.Frac: "4ea9cb4ac82f55ff34ecc7eb99cd96127a10f516523da08b9e51a07633d08653",
    VFamily.Quad: "23c6ede6c753596b696f27a52eadb8b1d0d7be1ff49a55052902dad9fc19bd1b",
}


@pytest.mark.parametrize("v", list(PINNED_DIGESTS))
def test_filter_values_output_is_pinned(v):
    raw = np.random.Philox(key=67045).random_raw(67 * 45)
    f = (1000.0 + (raw % np.uint64(241)).astype(np.float64) - 120.0).reshape(67, 45)
    out = _core_py.filter_values(f, KernelSpec(v=v, t=0.02, w=WFamily.power(), n=3))
    assert hashlib.sha256(out.tobytes()).hexdigest() == PINNED_DIGESTS[v]


# sha256 of filter_values on a full-range int16 image (n=5, clamp, no gate), taken
# from a kernel that read int16 strips as float64, as this one does
PINNED_INT16_DIGESTS = {
    (VFamily.Abs, 2e-4): "8003d4f8338a8aa2330ae8d9c2a79c4e47f5a48e33e7a3461a4856bee8422ab3",
    (VFamily.Abs, 0.02): "4cb9171b56d6e4d87e38177b95f1ebf82b3ecd390f1877e73411673bee96f56d",
    (VFamily.Frac, 2e-4): "df94494e67b3057e9fdfb8baa36aa6ea8ccb197a3ae7a55f78004e4c1969f4bc",
    (VFamily.Frac, 0.02): "99d8099d8fad7f0527e1a72ed90d2dc1d5197061b802b7a6d5d8738c5134bddd",
    (VFamily.Quad, 2e-4): "9221d060d3760a0d4f3b869e1b15bd818f980e267b4ad8d2bab6c167ba62f7ce",
    (VFamily.Quad, 0.02): "39694ee9a78709955039324062e8e382d27ecbb2409061e74008d75897d0cc65",
}


@pytest.mark.parametrize("v, t", list(PINNED_INT16_DIGESTS),
                         ids=[f"{v.value}-{t:g}" for v, t in PINNED_INT16_DIGESTS])
def test_filter_values_output_on_int16_pixels_is_pinned(v, t):
    raw = np.random.Philox(key=16016).random_raw(61 * 47)
    f = (raw & np.uint64(0xFFFF)).astype(np.uint16).view(np.int16).reshape(61, 47)
    f[0, 0], f[-1, -1] = -32768, 32767  # both ends of the range
    out = _core_py.filter_values(f, KernelSpec(v=v, t=t, w=WFamily.power(), n=5))
    assert hashlib.sha256(out.tobytes()).hexdigest() == PINNED_INT16_DIGESTS[(v, t)]


def _cpu_features():
    """numpy's map of the CPU features it can dispatch to, and whether this CPU has each."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


@pytest.mark.parametrize("disabled", ["X86_V4", "X86_V3 X86_V4"])
def test_filter_digests_do_not_depend_on_the_simd_dispatch_level(disabled):
    # numpy picks each ufunc's SIMD loop at run time; the pinned digests must
    # hold on every dispatch level this machine has (Exp is not pinned), and so
    # must the Monte-Carlo trial rows
    if not all(_cpu_features().get(name) for name in disabled.split()):
        pytest.skip(f"numpy does not dispatch to {disabled} on this machine")
    tests = [f"{__file__}::{name}" for name in ("test_filter_values_output_is_pinned",
                                                 "test_filter_values_output_on_int16_pixels_is_pinned")]
    tests.append(f"{Path(__file__).with_name('test_analysis.py')}::test_lattice_draws_are_pinned")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    expected = len(PINNED_DIGESTS) + len(PINNED_INT16_DIGESTS) + len(PINNED_LATTICE_DIGESTS)
    assert f"{expected} passed" in proc.stdout.splitlines()[-1]


def test_strip_workers_follow_the_callers_errstate(monkeypatch):
    monkeypatch.setattr(_core_py, "_TILE_ELEMS", 1)
    monkeypatch.setattr(_core_py, "_WORKERS", 2)
    f = np.zeros((4, 3))
    f[2:, :] = np.inf  # inf - inf is invalid, in strips that only the workers run
    cfg = FilterConfig(spec=KernelSpec(v=VFamily.Frac, t=1.0, n=1))
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        filter_image_values(f, cfg)


def _support_mean(f, y, x, offsets):
    """The mean of the clamped support at (y, x), summed from 0 in declaration order."""
    h, w = f.shape
    total = 0.0
    for dx, dy in offsets:
        total += f[min(max(y + dy, 0), h - 1), min(max(x + dx, 0), w - 1)]
    return total / len(offsets)


def _trial_rows(f, offsets):
    """One trial row per pixel: the center, then its clamped support in declaration order."""
    h, w = f.shape
    ys, xs = np.indices(f.shape)
    support = [f[np.clip(ys + dy, 0, h - 1), np.clip(xs + dx, 0, w - 1)] for dx, dy in offsets]
    return np.stack([f] + support, axis=-1).reshape(h * w, -1)


def test_only_the_pixel_whose_weights_all_underflow_gets_the_support_mean(monkeypatch):
    # Exp at t=1 gives weight 0 to differences beyond about 10.2: the spike is
    # that far from all 4 of its neighbours, every other pixel has a near one
    f = np.random.default_rng(3).uniform(0.0, 1.0, (6, 7))
    f[3, 4] = 1000.0
    spec = KernelSpec(v=VFamily.Exp, t=1.0, n=1)
    offsets = build_rings(spec.n, spec.w).all_offsets()
    expected = _support_mean(f, 3, 4, offsets)
    # the values tell the summation orders apart
    assert expected != _support_mean(f, 3, 4, offsets[::-1])
    outputs = [_core_py.filter_values(f, spec)]
    monkeypatch.setattr(_core_py, "_TILE_ELEMS", f.shape[1])  # one-row strips
    for workers in (1, 2):
        monkeypatch.setattr(_core_py, "_WORKERS", workers)
        outputs.append(_core_py.filter_values(f, spec))
    monkeypatch.setattr(_core_py, "_TILE_ELEMS", 5)
    outputs.append(_core_py.ensemble_filter(_trial_rows(f, offsets), spec).reshape(f.shape))
    spike = np.zeros(f.shape, dtype=bool)
    spike[3, 4] = True
    for out in outputs:
        assert out[3, 4] == expected
        assert np.all(out[~spike] <= 1.0)  # weighted means of nearby values, not the spike
        assert out.tobytes() == outputs[0].tobytes()


def test_a_tile_where_every_weight_underflows_is_all_support_means(monkeypatch):
    ys, xs = np.indices((9, 8))
    f = np.where((ys + xs) % 2 == 0, 5000.0, -5000.0)
    f += np.random.default_rng(4).uniform(0.0, 1.0, f.shape)  # sums depend on their order
    spec = KernelSpec(v=VFamily.Exp, t=1.0, n=1)
    offsets = build_rings(spec.n, spec.w).all_offsets()
    expected = np.array([[_support_mean(f, y, x, offsets) for x in range(8)] for y in range(9)])
    # clamping gives edge pixels themselves as a neighbour, so only the
    # interior falls back in the image; its trial rows make all-fallback chunks
    image = _core_py.filter_values(f, spec)
    assert image[1:-1, 1:-1].tobytes() == expected[1:-1, 1:-1].tobytes()
    rows = _trial_rows(f, offsets).reshape(9, 8, -1)[1:-1, 1:-1].reshape(-1, 1 + len(offsets))
    monkeypatch.setattr(_core_py, "_TILE_ELEMS", 6)
    assert _core_py.ensemble_filter(rows, spec).tobytes() == expected[1:-1, 1:-1].tobytes()
