"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (bypassing capture) and then asserts,
so a plain ``pytest tests/test_acceptance.py`` run shows the full scorecard.
"""
import math
import sys
import time

import numpy as np
import pytest
from conftest import record_acceptance
from curve_checks import estimate_linear_K, find_extrema

from ringbf import _core_py, calibrate
from ringbf.analysis import (
    NoiseDistribution,
    compute_curve,
    estimate_K,
    linear_k0,
    solve_threshold,
)
from ringbf.calibrate import fit_polynomial
from ringbf.ctmodel import (
    DEFAULT_DOSE_MODEL,
    noise_sigma,
    plan_filter,
    synth_phantom_values,
)
from ringbf.filter import (
    FilterConfig,
    Image,
    filter_image,
    filter_image_values,
    quantize_to_int16,
)
from ringbf.kernel import KernelSpec, VFamily, WFamily, build_rings

NORMAL = NoiseDistribution.Normal
UNIFORM = NoiseDistribution.Uniform


def _verdict(ok: bool, label: str) -> None:
    record_acceptance(ok, label)
    print(f"[{'PASS' if ok else 'FAIL'}] {label}", file=sys.__stdout__, flush=True)


def _spec(v, t=0.0, n=3, w=None):
    return KernelSpec(v=v, t=t, w=w or WFamily.power(), n=n)


def test_01_reference_thresholds_all_families():
    refs = {
        VFamily.Abs: 15.05,
        VFamily.Frac: 1.40,
        VFamily.Quad: 0.77,
        VFamily.Exp: 0.67,
    }
    start = time.perf_counter()
    solved = {
        v: solve_threshold(_spec(v), NORMAL, trials=200_000, seed=0)
        for v in refs
    }
    elapsed = time.perf_counter() - start
    ok = elapsed < 300.0 and all(
        abs(solved[v] - refs[v]) <= 0.10 * refs[v] for v in refs
    )
    _verdict(ok, f"01 half-deviation thresholds match the reference table "
                 f"within 10% ({elapsed:.1f}s)")
    for v, ref in refs.items():
        assert solved[v] == pytest.approx(ref, rel=0.10), (v, solved[v])
    assert elapsed < 300.0


def test_02_exp_normal_curve_peaks_then_decays():
    grid = np.round(np.arange(0.0, 20.01, 0.5), 10)
    curve = compute_curve(_spec(VFamily.Exp), grid, NORMAL, trials=200_000, seed=0)
    ks = np.array([p.k_hat for p in curve.points])
    ses = np.array([p.std_err for p in curve.points])
    i_peak = int(np.argmax(ks))
    peak, last = ks[i_peak], ks[-1]
    decay_margin = 3.0 * math.hypot(ses[i_peak], ses[-1])
    ext = find_extrema(curve)
    ok = (
        abs(peak - 0.8838) <= 0.02
        and peak - last >= decay_margin
        and ext.t_max is not None
        and 3.0 <= ext.t_max <= 11.0
    )
    _verdict(ok, f"02 exp/normal curve peaks at {peak:.4f} then decays")
    assert abs(peak - 0.8838) <= 0.02
    assert peak - last >= decay_margin
    assert ext.t_max is not None and 3.0 <= ext.t_max <= 11.0


def test_03_exp_uniform_curve_saturates():
    grid = np.round(np.arange(0.0, 14.01, 0.5), 10)
    curve = compute_curve(_spec(VFamily.Exp), grid, UNIFORM, trials=200_000, seed=0)
    ks = np.array([p.k_hat for p in curve.points])
    ses = np.array([p.std_err for p in curve.points])
    i_peak = int(np.argmax(ks))
    gap = ks[i_peak] - ks[-1]
    bound = 2.0 * math.hypot(ses[i_peak], ses[-1])
    ok = gap < bound
    _verdict(ok, f"03 exp/uniform curve saturates (peak-end gap {gap:.5f})")
    assert gap < bound


def test_04_zero_scale_collapses_to_linear_filter():
    estimates = {
        v: estimate_K(_spec(v), 0.0, NORMAL, trials=200_000, seed=0)
        for v in (VFamily.Abs, VFamily.Frac, VFamily.Quad, VFamily.Exp)
    }
    vals = [e.k_hat for e in estimates.values()]
    pairwise = all(
        abs(a.k_hat - b.k_hat) <= 2.0 * math.hypot(a.std_err, b.std_err)
        for a in estimates.values()
        for b in estimates.values()
    )
    lin = estimate_linear_K(WFamily.power(), 3, NORMAL, trials=200_000, seed=5)
    e0 = estimates[VFamily.Frac]
    cross = abs(e0.k_hat - lin.k_hat) <= 2.0 * math.hypot(e0.std_err, lin.std_err)
    analytic = linear_k0(WFamily.power(), 3)
    closed = abs(e0.k_hat - analytic) <= 3.0 * e0.std_err
    ok = pairwise and cross and closed
    _verdict(ok, f"04 all families coincide at zero scale "
                 f"(measured {vals[0]:.4f}, closed form {analytic:.4f})")
    assert pairwise and cross and closed


def test_05_reduction_stays_below_unity_everywhere():
    worst = 1.0
    failures = []
    for v in (VFamily.Abs, VFamily.Frac, VFamily.Quad, VFamily.Exp):
        for n in (1, 3, 5):
            for dist in (NORMAL, UNIFORM):
                for t in (0.1, 1.0, 5.0, 20.0):
                    e = estimate_K(_spec(v, n=n), t, dist, trials=20_000, seed=0)
                    margin = 1.0 - 2.0 * e.std_err
                    worst = min(worst, margin - e.k_hat)
                    if not e.k_hat < margin:
                        failures.append((v.value, n, dist.value, t, e.k_hat))
    ok = not failures
    _verdict(ok, f"05 deviation never amplified across 96 settings "
                 f"(tightest margin {worst:.4f})")
    assert not failures, failures


def test_06_support_growth_has_diminishing_returns():
    es = [
        estimate_K(_spec(VFamily.Frac, n=n), 1.0, NORMAL, trials=200_000, seed=0)
        for n in (1, 2, 3, 4, 5)
    ]
    ks = [e.k_hat for e in es]
    monotone = all(
        ks[i + 1] <= ks[i] + 2.0 * math.hypot(es[i].std_err, es[i + 1].std_err)
        for i in range(4)
    )
    diminishing = (ks[0] - ks[1]) > (ks[3] - ks[4])
    ok = monotone and diminishing
    _verdict(ok, f"06 bigger supports help less and less "
                 f"(gains {ks[0] - ks[1]:.4f} -> {ks[3] - ks[4]:.4f})")
    assert monotone and diminishing


def _dense_reference(vals: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Direct per-offset evaluation over the full image, clamped borders."""
    f = vals.astype(np.float64)
    height, width = f.shape
    yy, xx = np.indices(f.shape)
    num = np.zeros_like(f)
    den = np.zeros_like(f)
    total = np.zeros_like(f)
    count = 0
    for ring in build_rings(spec.n, spec.w).rings:
        for dx, dy in ring.offsets:
            sy = np.clip(yy + dy, 0, height - 1)
            sx = np.clip(xx + dx, 0, width - 1)
            s = f[sy, sx]
            v = np.asarray(
                _core_py.v_weights((s - f).astype(np.float32), spec.t, spec.v),
                dtype=np.float64,
            )
            num += ring.weight * v * s
            den += ring.weight * v
            total += s
            count += 1
    return np.where(den != 0.0, num / np.where(den != 0.0, den, 1.0), total / count)


def test_07_ring_decomposition_equals_dense_evaluation():
    rng = np.random.default_rng(2024)
    t_cycle = (0.0, 0.02, 0.3, 5.0)
    worst = 0.0
    images = 0
    for v in (VFamily.Abs, VFamily.Frac, VFamily.Quad, VFamily.Exp):
        for w in (WFamily.power(), WFamily.gaussian(2.0)):
            for n in (1, 2, 3, 4, 5):
                for i in range(25):
                    vals = rng.integers(-1200, 1201, size=(64, 64)).astype(np.int16)
                    spec = _spec(v, t=t_cycle[i % 4], n=n, w=w)
                    img = Image.from_values(vals)
                    got = filter_image_values(img, FilterConfig(spec=spec))
                    want = _dense_reference(vals, spec)
                    err = np.max(
                        np.abs(got - want) / np.maximum(1.0, np.abs(want))
                    )
                    worst = max(worst, float(err))
                    images += 1
    ok = images == 1000 and worst <= 1e-9
    _verdict(ok, f"07 ring-decomposed filter matches dense evaluation on "
                 f"{images} images (max rel err {worst:.2e})")
    assert images == 1000
    assert worst <= 1e-9


def test_08_offset_equivariance():
    rng = np.random.default_rng(7)
    vals = rng.integers(-500, 501, size=(40, 40)).astype(np.int16)
    worst = 0.0
    for spec in (_spec(VFamily.Frac, t=0.05), _spec(VFamily.Exp, t=0.02, n=2)):
        base = filter_image_values(Image.from_values(vals), FilterConfig(spec=spec))
        for c in (-1000, -137, -1, 0, 1, 137, 1000):
            shifted = filter_image_values(
                Image.from_values(vals.astype(np.int32) + c),
                FilterConfig(spec=spec),
            )
            worst = max(worst, float(np.max(np.abs(shifted - (base + c)))))
    ok = worst <= 1e-9
    _verdict(ok, f"08 filtering commutes with intensity offsets "
                 f"(max abs err {worst:.2e})")
    assert worst <= 1e-9


def test_09_dose_planned_filter_halves_flat_region_noise():
    ratios = {}
    mean_shifts = {}
    copied_ok = True
    for x in (0.5, 1.0):
        sigma = noise_sigma(DEFAULT_DOSE_MODEL, x)
        vals = synth_phantom_values([100], sigma=sigma, seed=11, size=(200, 200))
        img = Image.from_values(vals)
        plan = plan_filter(x)

        ungated = FilterConfig(spec=plan.spec)
        out = filter_image_values(img, ungated)
        interior = (slice(4, -4), slice(4, -4))
        before = img.pixels[interior].astype(np.float64)
        ratios[x] = float(out[interior].std() / before.std())

        gated = filter_image(img, plan.config())
        orig = img.pixels
        lo, hi = plan.hu_gate
        outside = (orig < lo) | (orig > hi)
        if outside.any():
            copied_ok &= bool(
                np.array_equal(gated.pixels[outside], orig[outside])
            )
        mean_shifts[x] = abs(
            float(gated.pixels[interior].mean()) - float(before.mean())
        )
    ok = (
        all(0.40 <= r <= 0.60 for r in ratios.values())
        and all(s < 2.0 for s in mean_shifts.values())
        and copied_ok
    )
    _verdict(ok, f"09 planned filters halve flat-region deviation "
                 f"(ratios {ratios[0.5]:.3f}/{ratios[1.0]:.3f}) and "
                 f"preserve means (shifts {mean_shifts[0.5]:.3f}/"
                 f"{mean_shifts[1.0]:.3f} HU)")
    for x, r in ratios.items():
        assert 0.40 <= r <= 0.60, (x, r)
    for x, s in mean_shifts.items():
        assert s < 2.0, (x, s)
    assert copied_ok


def _std_map(f, half):
    """Local deviation over (2*half+1)^2 windows: s_H of the pair (f, f), one strip as tall as f."""
    return calibrate._strip_maps(f, f, half, 0, len(f))[0]


def test_10_iteration_drives_local_deviation_down():
    vals = synth_phantom_values([100], sigma=20.0, seed=3, size=(128, 128))
    cfg = FilterConfig(spec=_spec(VFamily.Frac, t=0.05))
    pixels = Image.from_values(vals).pixels
    out = pixels
    for _ in range(10):
        out = filter_image_values(out, cfg)
    interior = (slice(4, -4), slice(4, -4))
    # the calibration reads int16 pixels: the filtered values are measured as the image they make
    before = _std_map(pixels, half=2)[interior].mean()
    after = _std_map(quantize_to_int16(out), half=2)[interior].mean()
    ratio = float(after / before)
    ok = ratio < 0.10
    _verdict(ok, f"10 ten passes shrink local deviation to {ratio:.3f} "
                 f"of the original")
    assert ratio < 0.10


def test_11_noise_trend_fit_recovers_quadratic():
    x = np.linspace(0.25, 1.0, 16)
    y = np.array([noise_sigma(DEFAULT_DOSE_MODEL, float(v)) for v in x])
    fit = fit_polynomial(np.column_stack([x, y]), degree=2)
    m = DEFAULT_DOSE_MODEL
    coeff_err = max(
        abs(fit.coefficients[0] - m.c),
        abs(fit.coefficients[1] - m.b),
        abs(fit.coefficients[2] - m.a),
    )
    ok = coeff_err <= 1e-6 and fit.r_squared >= 1.0 - 1e-9
    _verdict(ok, f"11 quadratic noise trend recovered exactly "
                 f"(max coeff err {coeff_err:.2e}, R^2 {fit.r_squared:.12f})")
    assert coeff_err <= 1e-6
    assert fit.r_squared >= 1.0 - 1e-9
