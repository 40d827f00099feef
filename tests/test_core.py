"""The tiled compute kernels: oracle agreement, invariants, tiling independence."""
import hashlib
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringbf import _core_py
from ringbf.filter import FilterConfig, _ring_arrays, filter_image_values, filter_pixel_dense
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
            for strip_elems in (1, 3 * w, h * w):  # 1-row strips, 3-row strips, one strip
                for workers in (1, h):
                    mp.setattr(_core_py, "_STRIP_ELEMS", strip_elems)
                    mp.setattr(_core_py, "_WORKERS", workers)
                    outputs.append(filter_image_values(f, cfg))
                    assert outputs[-1].tobytes() == expected.tobytes()
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("n_trials, chunk", [(1, 1), (300, 1), (300, 7), (9000, 4096), (9000, 4097)])
def test_ensemble_is_independent_of_trial_chunk(n_trials, chunk, monkeypatch):
    _, _, starts, ring_w = _ring_arrays(build_rings(3, WFamily.power()))
    vals = np.random.default_rng(n_trials).normal(0.0, 1.0, (n_trials, 1 + int(starts[-1])))
    monkeypatch.setattr(_core_py, "_TRIAL_CHUNK", n_trials)
    expected = _core_py.ensemble_filter(vals, 0.8, 3, starts, ring_w).tobytes()
    monkeypatch.setattr(_core_py, "_TRIAL_CHUNK", chunk)
    assert _core_py.ensemble_filter(vals, 0.8, 3, starts, ring_w).tobytes() == expected


# sha256 of filter_values on the image below (Frac n=3 spatial layout, t=0.02,
# clamp, no gate), taken from the whole-image kernel this tiled one replaced.
# Exp is left out: its float32 exp comes from numpy's SIMD code, which may
# differ in the last bit between numpy builds.
PINNED_DIGESTS = {
    0: "db01f1abb1ce0978ef57d59be3fe1e49bf4ea5963fd996c8838fe37aa2cf51f0",  # Abs
    1: "4ea9cb4ac82f55ff34ecc7eb99cd96127a10f516523da08b9e51a07633d08653",  # Frac
    2: "23c6ede6c753596b696f27a52eadb8b1d0d7be1ff49a55052902dad9fc19bd1b",  # Quad
}


@pytest.mark.parametrize("v_code", sorted(PINNED_DIGESTS))
def test_filter_values_output_is_pinned(v_code):
    raw = np.random.Philox(key=67045).random_raw(67 * 45)
    f = (1000.0 + (raw % np.uint64(241)).astype(np.float64) - 120.0).reshape(67, 45)
    dxs, dys, starts, ring_w = _ring_arrays(build_rings(3, WFamily.power()))
    out = _core_py.filter_values(f, 0.02, v_code, dxs, dys, starts, ring_w, 0, 0.0, 0.0, False)
    assert hashlib.sha256(out.tobytes()).hexdigest() == PINNED_DIGESTS[v_code]


def test_strip_workers_follow_the_callers_errstate(monkeypatch):
    monkeypatch.setattr(_core_py, "_STRIP_ELEMS", 1)
    monkeypatch.setattr(_core_py, "_WORKERS", 2)
    f = np.zeros((4, 3))
    f[2:, :] = 100.0
    cfg = FilterConfig(spec=KernelSpec(v=VFamily.Frac, t=3e38, n=1))
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        filter_image_values(f, cfg)
