"""Kernel families, ring geometry, and axiom validation."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringbf.kernel import (
    KernelSpec,
    VFamily,
    WFamily,
    WVariant,
    build_rings,
    eval_V,
    eval_W,
    validate_kernel,
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


def test_ring_radii():
    radii = [r.radius for r in build_rings(5, WFamily.power()).rings]
    assert radii == pytest.approx(
        [1.0, math.sqrt(2.0), 2.0, math.sqrt(5.0), 2.0 * math.sqrt(2.0)], rel=0, abs=0
    )


def test_power_ring_weights():
    rings = build_rings(5, WFamily.power()).rings
    weights = [r.weight for r in rings]
    assert weights[0] == 0.5
    assert weights[1] == pytest.approx(0.37521422724648174, rel=1e-15)
    assert weights[2] == 0.25
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


def test_eval_v_reference_points():
    assert eval_V(VFamily.Abs, 0.5, 2.0) == 0.5
    assert eval_V(VFamily.Frac, 1.0, 1.4) == pytest.approx(1.0 / 2.96, rel=1e-15)
    assert eval_V(VFamily.Quad, 1.0, 1.0) == 0.5
    assert eval_V(VFamily.Exp, 1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_eval_v_unit_at_zero_scale_or_difference():
    for v in ALL_V:
        assert eval_V(v, 0.0, 123.4) == 1.0
        assert eval_V(v, 3.7, 0.0) == 1.0


def test_eval_v_vectorizes():
    x = np.array([-2.0, 0.0, 2.0])
    out = eval_V(VFamily.Frac, 0.5, x)
    assert out.shape == x.shape
    assert out[1] == 1.0
    assert out[0] == out[2]


def test_eval_v_rejects_negative_scale():
    with pytest.raises(ValueError):
        eval_V(VFamily.Abs, -0.1, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    v=st.sampled_from(ALL_V),
    t=st.floats(0.0, 50.0),
    x=st.floats(-1e5, 1e5, allow_nan=False),
)
def test_eval_v_symmetric_bit_exact(v, t, x):
    assert eval_V(v, t, x) == eval_V(v, t, -x)


@settings(max_examples=60, deadline=None)
@given(
    v=st.sampled_from(ALL_V),
    t=st.floats(0.001, 50.0),
    seed=st.integers(0, 2**31),
)
def test_eval_v_monotone_and_bounded(v, t, seed):
    x = np.sort(np.abs(np.random.default_rng(seed).normal(0, 100, 32)))
    vals = eval_V(v, t, x)
    assert np.all(np.diff(vals) <= 0)
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
        WFamily(WVariant.Power, sigma_d=2.0)


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


# --- axiom validation ------------------------------------------------------


def test_validate_kernel_passes_for_decaying_scale():
    grid = np.linspace(-30.0, 30.0, 121)
    for v in ALL_V:
        report = validate_kernel(v, 1.0, grid)
        assert report.all_pass, (v, report)


def test_validate_kernel_reports_slow_vanishing():
    # exp at a tiny scale barely decays on a +-10 grid: e^(-0.01) ~ 0.99
    report = validate_kernel(VFamily.Exp, 0.01, np.linspace(-10, 10, 41))
    assert report.normalized and report.monotone and report.symmetric
    assert not report.vanishing
    assert report.tail_value == pytest.approx(math.exp(-0.01), rel=1e-12)
    assert not report.all_pass


def test_validate_kernel_requires_symmetric_grid():
    with pytest.raises(ValueError):
        validate_kernel(VFamily.Frac, 1.0, [0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        validate_kernel(VFamily.Frac, 1.0, [])
