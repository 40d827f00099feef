"""Dose-to-noise model, filter planning, and synthetic phantom generation."""
import numpy as np
import pytest

from ringbf.ctmodel import (
    DEFAULT_DOSE_MODEL,
    DEFAULT_HU_GATE,
    DEFAULT_THRESHOLD,
    DoseNoiseModel,
    FilterPlan,
    _band_layout,
    load_dose_model,
    noise_sigma,
    plan_filter,
    synth_phantom,
    synth_phantom_values,
)
from ringbf.errors import FormatError, OutOfDomainError
from ringbf.filter import Image
from ringbf.kernel import VFamily, WFamily


# --- noise model ------------------------------------------------------------


def test_default_model_reference_points():
    assert noise_sigma(DEFAULT_DOSE_MODEL, 1.0) == pytest.approx(63.83, rel=1e-12)
    assert noise_sigma(DEFAULT_DOSE_MODEL, 0.5) == pytest.approx(165.5325, rel=1e-12)


def test_noise_sigma_is_plain_quadratic():
    m = DoseNoiseModel(a=2.0, b=-3.0, c=4.0, x_lo=0.1, x_hi=1.0)
    assert noise_sigma(m, 0.5) == pytest.approx(2.0 * 0.25 - 1.5 + 4.0, rel=1e-15)


def test_noise_sigma_domain_is_inclusive():
    noise_sigma(DEFAULT_DOSE_MODEL, 0.25)
    noise_sigma(DEFAULT_DOSE_MODEL, 1.0)
    for x in (0.2, 1.2, -1.0):
        with pytest.raises(OutOfDomainError):
            noise_sigma(DEFAULT_DOSE_MODEL, x)


def test_default_model_decreasing_on_domain():
    xs = np.linspace(0.25, 1.0, 101)
    sig = [noise_sigma(DEFAULT_DOSE_MODEL, float(x)) for x in xs]
    assert all(a > b for a, b in zip(sig[:-1], sig[1:]))
    assert all(s > 0 for s in sig)
    # the vertex sits just past the upper edge, so the curve never turns
    vertex = -DEFAULT_DOSE_MODEL.b / (2 * DEFAULT_DOSE_MODEL.a)
    assert vertex > DEFAULT_DOSE_MODEL.x_hi


def test_model_validation():
    with pytest.raises(ValueError):
        DoseNoiseModel(a=1.0, b=0.0, c=1.0, x_lo=0.5, x_hi=0.5)
    with pytest.raises(ValueError):
        # negative over part of the interval
        DoseNoiseModel(a=0.0, b=-2.0, c=1.0, x_lo=0.0, x_hi=1.0)


@pytest.mark.parametrize("field", ["a", "b", "c", "x_lo", "x_hi"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_model_rejects_non_finite_fields(field, bad):
    fields = dict(a=0.0, b=0.0, c=1.0, x_lo=0.0, x_hi=1.0)
    fields[field] = bad
    with pytest.raises(ValueError, match="finite"):
        DoseNoiseModel(**fields)


def test_model_rejects_dip_between_grid_points():
    # the vertex lies between the points of a 101-point grid over [0, 1]
    a, x_v = 1e6, 0.5025
    with pytest.raises(ValueError, match="positive"):
        DoseNoiseModel(a=a, b=-2 * a * x_v, c=a * x_v * x_v - 1, x_lo=0.0, x_hi=1.0)
    # the same parabola lifted clear of zero is valid
    DoseNoiseModel(a=a, b=-2 * a * x_v, c=a * x_v * x_v + 1, x_lo=0.0, x_hi=1.0)


def test_model_positivity_is_checked_at_the_interval_ends():
    # zero exactly at an end (vertex outside or at the end) is rejected
    with pytest.raises(ValueError):
        DoseNoiseModel(a=1.0, b=-2.0, c=1.0, x_lo=0.0, x_hi=1.0)
    with pytest.raises(ValueError):
        DoseNoiseModel(a=0.0, b=1.0, c=0.0, x_lo=0.0, x_hi=1.0)
    DoseNoiseModel(a=0.0, b=1.0, c=0.0, x_lo=1e-9, x_hi=1.0)


def test_model_rejects_overflowing_sigma():
    with pytest.raises(ValueError):
        DoseNoiseModel(a=1e308, b=0.0, c=1.0, x_lo=0.0, x_hi=10.0)


# --- filter planning --------------------------------------------------------


def test_plan_scales_threshold_by_noise():
    plan = plan_filter(1.0)
    assert plan.sigma == pytest.approx(63.83, rel=1e-12)
    assert plan.t0 == DEFAULT_THRESHOLD
    assert plan.t == pytest.approx(0.0219332602, rel=1e-8)
    assert plan.t == pytest.approx(plan.t0 / plan.sigma, rel=1e-15)

    half = plan_filter(0.5)
    assert half.sigma == pytest.approx(165.5325, rel=1e-12)
    assert half.t == pytest.approx(0.00845755365, rel=1e-8)


def test_plan_defaults():
    plan = plan_filter(0.75)
    assert plan.spec.v is VFamily.Frac
    assert plan.spec.n == 3
    assert plan.spec.w == WFamily.power()
    assert plan.hu_gate == DEFAULT_HU_GATE == (-100.0, 300.0)
    assert plan.spec.t == plan.t


def test_plan_overrides():
    plan = plan_filter(1.0, v=VFamily.Exp, n=2, t0=0.7)
    assert plan.spec.v is VFamily.Exp
    assert plan.spec.n == 2
    assert plan.spec.w == WFamily.power()
    assert plan.t == pytest.approx(0.7 / 63.83, rel=1e-12)
    assert plan.hu_gate == DEFAULT_HU_GATE


def test_plan_config_carries_gate_and_clamp_border():
    cfg = plan_filter(1.0).config()
    assert cfg.hu_gate == DEFAULT_HU_GATE
    assert cfg.border == "clamp"
    assert cfg.spec == plan_filter(1.0).spec


def test_plan_validation():
    with pytest.raises(ValueError):
        plan_filter(1.0, t0=0.0)
    with pytest.raises(OutOfDomainError):
        plan_filter(0.1)


# --- phantom layout ---------------------------------------------------------


def test_band_layout_partitions_width():
    layout = _band_layout(40, 100, 3)
    assert layout.shape == (40, 100)
    # every column belongs to one band, bands appear left to right
    assert np.array_equal(layout, np.broadcast_to(layout[0], layout.shape))
    row = layout[0]
    assert set(row.tolist()) == {0, 1, 2}
    assert np.all(np.diff(row) >= 0)
    widths = np.bincount(row)
    assert widths.max() - widths.min() <= 1


def test_band_layout_uneven_split():
    row = _band_layout(1, 10, 3)[0]
    assert np.bincount(row).tolist() == [4, 3, 3]


def test_band_layout_validation():
    with pytest.raises(ValueError):
        _band_layout(10, 10, 0)
    with pytest.raises(ValueError):
        _band_layout(0, 10, 1)
    with pytest.raises(ValueError):
        _band_layout(10, 3, 4)  # more bands than columns


def test_phantom_noise_free_values_are_exact():
    vals = synth_phantom_values([100, -50], sigma=0.0, size=(8, 10))
    assert vals.shape == (8, 10)
    assert set(np.unique(vals)) == {100.0, -50.0}
    assert np.all(vals[:, :5] == 100.0)
    assert np.all(vals[:, 5:] == -50.0)


def test_phantom_noise_statistics_and_determinism():
    a = synth_phantom_values([0], sigma=60.0, seed=3, size=(256, 256))
    b = synth_phantom_values([0], sigma=60.0, seed=3, size=(256, 256))
    assert np.array_equal(a, b)
    assert a.std() == pytest.approx(60.0, abs=2.0)
    assert abs(a.mean()) < 2.0
    c = synth_phantom_values([0], sigma=60.0, seed=4, size=(256, 256))
    assert not np.array_equal(a, c)


def test_phantom_image_is_quantized():
    img = synth_phantom([100, 200], sigma=5.0, seed=1, size=(16, 16))
    assert isinstance(img, Image)
    assert img.height == 16 and img.width == 16
    vals = synth_phantom_values([100, 200], sigma=5.0, seed=1, size=(16, 16))
    assert np.array_equal(
        img.values(), np.clip(np.round(vals), -32768, 32767).astype(np.int16)
    )


def test_phantom_custom_layout_and_validation():
    # the layout is always the band layout: density i fills band i
    vals = synth_phantom_values([1, 2], size=(8, 4))
    assert vals.shape == (8, 4)
    assert np.array_equal(vals, np.array([1.0, 2.0])[_band_layout(8, 4, 2)])
    with pytest.raises(ValueError):
        synth_phantom_values([1, 2, 3], size=(8, 2))  # more bands than columns
    with pytest.raises(ValueError):
        synth_phantom_values([], size=(8, 4))
    with pytest.raises(ValueError):
        synth_phantom_values([1], sigma=-1.0, size=(8, 4))


# --- model config files -----------------------------------------------------


def test_load_dose_model_roundtrip(tmp_path):
    p = tmp_path / "model.txt"
    p.write_text("# coefficients then domain\n313.33 -673.4 423.9 0.25 1.0\n")
    assert load_dose_model(p) == DEFAULT_DOSE_MODEL


def test_load_dose_model_token_errors(tmp_path):
    p = tmp_path / "model.txt"
    p.write_text("1.0 2.0 3.0\n")
    with pytest.raises(FormatError):
        load_dose_model(p)
    p.write_text("a b c d e\n")
    with pytest.raises(FormatError):
        load_dose_model(p)
    p.write_text("")
    with pytest.raises(FormatError):
        load_dose_model(p)


def test_load_dose_model_rejects_bad_interval_and_negativity(tmp_path):
    p = tmp_path / "model.txt"
    p.write_text("1.0 0.0 1.0 1.0 0.5\n")
    with pytest.raises(FormatError):
        load_dose_model(p)
    # a model that goes non-positive on its interval is a config error too
    p.write_text("0.0 -2.0 1.0 0.0 1.0\n")
    with pytest.raises(FormatError):
        load_dose_model(p)


@pytest.mark.parametrize("text", [
    "nan 0 1 0 1\n",
    f"1e6 {-2e6 * 0.5025!r} {1e6 * 0.5025 ** 2 - 1!r} 0 1\n",
])
def test_load_dose_model_rejects_nan_and_hidden_dip(tmp_path, text):
    p = tmp_path / "model.txt"
    p.write_text(text)
    with pytest.raises(FormatError):
        load_dose_model(p)


def test_filter_plan_is_frozen():
    plan = plan_filter(1.0)
    with pytest.raises(AttributeError):
        plan.t = 2.0
