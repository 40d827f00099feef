"""Kernel families, ring geometry, and the V axioms checked on the float32
weights the filter computes (``_core_py.v_weights``)."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringbf._core_py import v_weights
from ringbf.kernel import (
    KernelSpec,
    VFamily,
    WFamily,
    build_rings,
    eval_W,
)

ALL_V = [VFamily.Abs, VFamily.Frac, VFamily.Quad, VFamily.Exp]

# Lattice shells that make up the five rings: squared radii 1, 2, 4, 5, and
# the merged {8, 9} shell.  (3, 6, 7 are not sums of two squares.)
_SHELL_R2 = [(1,), (2,), (4,), (5,), (8, 9)]


def _brute_force_shell(r2_values):
    return {
        (dx, dy)
        for dx in range(-3, 4)
        for dy in range(-3, 4)
        if dx * dx + dy * dy in r2_values
    }


# --- ring geometry ---------------------------------------------------------


def test_ring_offsets_match_brute_force_shells():
    rings = build_rings(5, WFamily.power()).rings
    for ring, r2 in zip(rings, _SHELL_R2):
        assert set(ring.offsets) == _brute_force_shell(r2)


def test_ring_sizes_and_cumulative_counts():
    sizes = [len(r.offsets) for r in build_rings(5, WFamily.power()).rings]
    assert sizes == [4, 4, 4, 8, 8]
    for n, total in zip(range(1, 6), [4, 8, 12, 20, 28]):
        assert build_rings(n, WFamily.power()).size == total


def test_power_ring_weights():
    rings = build_rings(5, WFamily.power()).rings
    weights = [r.weight for r in rings]
    assert weights[0] == 0.5
    assert weights[1] == pytest.approx(0.37521422724648174, rel=1e-15)
    assert weights[2] == 0.25
    assert weights[3] == pytest.approx(2.0 ** -math.sqrt(5.0), rel=1e-15)
    # the merged fifth ring carries the representative-radius weight for
    # every offset, the distance-3 ones included
    assert weights[4] == pytest.approx(0.14078571632817444, rel=1e-15)
    per_offset = build_rings(5, WFamily.power()).offset_weights()
    assert np.all(per_offset[-8:] == weights[4])


def test_gaussian_ring_weights():
    rings = build_rings(3, WFamily.gaussian(2.0)).rings
    assert rings[0].weight == pytest.approx(math.exp(-0.25), rel=1e-15)
    assert rings[2].weight == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_margin_grows_with_support():
    margins = [build_rings(n, WFamily.power()).margin() for n in range(1, 6)]
    assert margins == [1, 1, 2, 2, 3]


def test_offsets_listed_in_ring_order():
    rings = build_rings(3, WFamily.power())
    offsets = rings.all_offsets()
    assert len(offsets) == rings.size
    r2 = [dx * dx + dy * dy for dx, dy in offsets]
    assert r2 == sorted(r2)


def test_build_rings_rejects_bad_n():
    for n in (0, 6, -1, 2.0, "3"):
        with pytest.raises(ValueError):
            build_rings(n, WFamily.power())


# --- V families ------------------------------------------------------------
#
# The filter evaluates V in float32: differences are rounded to float32 and
# scaled by float32(t).  These tests check that code, not a float64 copy.

# float32 results carry a few roundings: allow 8 units of 2^-24 (~ 4 ulps)
_F32_REL = 2.0**-21


def _weights(v, t, x):
    """V weights of the differences ``x`` as the filter computes them."""
    return v_weights(np.array(x, dtype=np.float32, ndmin=1), t, v)


def _consecutive_float32(x0, count):
    """``count`` consecutive float32 values starting at float32(x0)."""
    start = np.float32(x0).view(np.int32)
    return (start + np.arange(count, dtype=np.int32)).view(np.float32)


def _assert_non_increasing(v, vals):
    # numpy's float32 exp is not correctly rounded: Exp may rise by one ulp
    allowed = np.spacing(vals[:-1]) if v is VFamily.Exp else 0.0
    assert np.all(np.diff(vals) <= allowed)


def test_eval_v_reference_points():
    assert _weights(VFamily.Abs, 0.5, 2.0)[0] == 0.5
    assert _weights(VFamily.Frac, 1.0, 1.4)[0] == pytest.approx(1.0 / 2.96, rel=_F32_REL)
    assert _weights(VFamily.Quad, 1.0, 1.0)[0] == 0.5
    assert _weights(VFamily.Exp, 1.0, 1.0)[0] == pytest.approx(math.exp(-1.0), rel=_F32_REL)
    for v in ALL_V:
        assert np.all(_weights(v, 1.0, [-30.0, 30.0]) < 0.05)
    # Exp at a tiny scale barely vanishes on +-10: e^(-0.01) ~ 0.99
    tail = _weights(VFamily.Exp, 0.01, [-10.0, 10.0])
    assert tail == pytest.approx(math.exp(-0.01), rel=_F32_REL)


def test_eval_v_unit_at_zero_scale_or_difference():
    for v in ALL_V:
        assert _weights(v, 0.0, 123.4)[0] == 1.0
        assert _weights(v, 3.7, 0.0)[0] == 1.0


def test_eval_v_vectorizes():
    x = np.array([-2.0, 0.0, 2.0])
    out = _weights(VFamily.Frac, 0.5, x)
    assert out.shape == x.shape
    assert out.dtype == np.float32
    assert out[1] == 1.0
    assert out[0] == out[2]


@pytest.mark.parametrize("v", ALL_V)
def test_eval_v_non_increasing_over_consecutive_float32(v):
    # windows of 2^16 neighbouring scaled differences; the one at 0.0564
    # holds an Exp one-ulp rise (0.9968234 -> 0.99682343 at u = 0.056406572)
    # on an x86-64 build of numpy
    for x0 in (0.0, 1e-3, 0.0564, 0.5, 1.0, 2.0, 5.0, 9.0):
        vals = _weights(v, 1.0, _consecutive_float32(x0, 1 << 16))
        _assert_non_increasing(v, vals)


@settings(max_examples=60, deadline=None)
@given(
    v=st.sampled_from(ALL_V),
    t=st.floats(0.0, 50.0),
    x=st.floats(-1e5, 1e5, allow_nan=False),
)
def test_eval_v_symmetric_bit_exact(v, t, x):
    assert _weights(v, t, x).tobytes() == _weights(v, t, -x).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    v=st.sampled_from(ALL_V),
    t=st.floats(0.001, 50.0),
    seed=st.integers(0, 2**31),
)
def test_eval_v_monotone_and_bounded(v, t, seed):
    x = np.sort(np.abs(np.random.default_rng(seed).normal(0, 100, 32)))
    vals = _weights(v, t, x)
    _assert_non_increasing(v, vals)
    # exp may underflow to exactly 0 at extreme scaled differences
    assert np.all(vals >= 0) and np.all(vals <= 1.0)


# --- W families ------------------------------------------------------------


def test_eval_w_reference_points():
    p = WFamily.power()
    assert eval_W(p, 0.0) == 1.0
    assert eval_W(p, 1.0) == 0.5
    assert eval_W(p, 2.0) == 0.25
    g = WFamily.gaussian(2.0)
    assert eval_W(g, 0.0) == 1.0
    assert eval_W(g, 2.0) == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_eval_w_rejects_negative_distance():
    with pytest.raises(ValueError):
        eval_W(WFamily.power(), -1.0)


def test_wfamily_validation():
    with pytest.raises(ValueError):
        WFamily.gaussian(0.0)
    with pytest.raises(ValueError):
        WFamily.gaussian(-1.0)
    with pytest.raises(ValueError):
        WFamily.gaussian(math.nan)
    with pytest.raises(ValueError):
        WFamily(sigma_d=0.0)
    assert WFamily() == WFamily.power() and WFamily.power().sigma_d is None
    assert WFamily(sigma_d=2.0) == WFamily.gaussian(2.0)


def test_wfamily_parse():
    assert WFamily.parse("power") == WFamily.power()
    assert WFamily.parse("gauss:2.5") == WFamily.gaussian(2.5)
    for bad in ("gauss", "gauss:", "gauss:x", "box", ""):
        with pytest.raises(ValueError):
            WFamily.parse(bad)


def test_vfamily_parse():
    assert VFamily.parse("frac") is VFamily.Frac
    assert VFamily.parse(" EXP ") is VFamily.Exp
    with pytest.raises(ValueError):
        VFamily.parse("gaussian")


# --- KernelSpec ------------------------------------------------------------


def test_kernel_spec_validation():
    spec = KernelSpec(v=VFamily.Frac, t=1.4, w=WFamily.power(), n=3)
    assert spec.with_t(2.0).t == 2.0
    assert spec.with_t(2.0).v is VFamily.Frac
    with pytest.raises(ValueError):
        KernelSpec(v=VFamily.Frac, t=-0.1)
    with pytest.raises(ValueError):
        KernelSpec(v=VFamily.Frac, t=1.0, n=0)
    with pytest.raises(ValueError):
        KernelSpec(v=VFamily.Frac, t=1.0, n=6)


def test_kernel_spec_rejects_scales_float32_cannot_hold():
    t_max = float(np.finfo(np.float32).max)
    assert KernelSpec(v=VFamily.Frac, t=t_max).t == t_max
    for t in (math.inf, math.nan, 1e39, math.nextafter(t_max, math.inf)):
        with pytest.raises(ValueError):
            KernelSpec(v=VFamily.Frac, t=t)
