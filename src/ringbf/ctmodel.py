"""CT protocol calibration: dose fraction -> noise level -> filter scale.

The workflow: a quadratic model maps the dose fraction x (tube current as a
fraction of the full protocol) to the local noise deviation s in HU; the
filter scale is then t = t0 / s, where t0 is the 50%-reduction threshold of
the chosen kernel family; filtering is restricted to a HU gate so structures
far outside the soft-tissue range pass through untouched.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import NoiseDistribution, _unit_draws
from .errors import FormatError, OutOfDomainError
from .filter import FilterConfig, Image
from .kernel import KernelSpec, VFamily, WFamily

__all__ = [
    "DoseNoiseModel",
    "DEFAULT_DOSE_MODEL",
    "DEFAULT_HU_GATE",
    "DEFAULT_THRESHOLD",
    "FilterPlan",
    "noise_sigma",
    "plan_filter",
    "synth_phantom",
    "synth_phantom_values",
    "load_dose_model",
]


@dataclass(frozen=True)
class DoseNoiseModel:
    """Quadratic map s(x) = a*x^2 + b*x + c on the valid dose interval."""

    a: float
    b: float
    c: float
    x_lo: float
    x_hi: float

    def __post_init__(self):
        fields = (self.a, self.b, self.c, self.x_lo, self.x_hi)
        if not all(math.isfinite(v) for v in fields):
            raise ValueError(f"noise model fields must be finite, got {fields}")
        if not self.x_lo < self.x_hi:
            raise ValueError(f"invalid dose interval [{self.x_lo}, {self.x_hi}]")
        # a quadratic takes its extremes on an interval at the ends or the vertex
        xs = [self.x_lo, self.x_hi]
        if self.a != 0.0:
            vertex = -self.b / (2.0 * self.a)
            if self.x_lo < vertex < self.x_hi:
                xs.append(vertex)
        for x in xs:
            s = self.a * x * x + self.b * x + self.c
            if not (s > 0.0 and math.isfinite(s)):
                raise ValueError(
                    f"noise model must be positive and finite on its valid interval; "
                    f"sigma({x!r}) = {s!r}"
                )


DEFAULT_DOSE_MODEL = DoseNoiseModel(a=313.33, b=-673.4, c=423.9, x_lo=0.25, x_hi=1.0)
DEFAULT_HU_GATE = (-100.0, 300.0)
DEFAULT_THRESHOLD = 1.40  # 50%-reduction threshold of the default Frac/n=3/Power kernel


def noise_sigma(model: DoseNoiseModel, x: float) -> float:
    """Predicted local noise deviation (HU) at dose fraction ``x``.

    No extrapolation: ``x`` outside the model's interval is an error.
    """
    if not model.x_lo <= x <= model.x_hi:
        raise OutOfDomainError(
            f"dose fraction {x} outside the model's valid interval "
            f"[{model.x_lo}, {model.x_hi}]"
        )
    return model.a * x * x + model.b * x + model.c


@dataclass(frozen=True)
class FilterPlan:
    """A fully resolved filtering prescription for one dose fraction."""

    x: float
    sigma: float
    t0: float
    t: float
    spec: KernelSpec
    hu_gate: tuple[float, float]

    def config(self) -> FilterConfig:
        """The image-filter configuration this plan prescribes (clamped borders)."""
        return FilterConfig(spec=self.spec, hu_gate=self.hu_gate)


def plan_filter(
    x: float,
    model: DoseNoiseModel = DEFAULT_DOSE_MODEL,
    v: VFamily = VFamily.Frac,
    n: int = 3,
    t0: float = DEFAULT_THRESHOLD,
) -> FilterPlan:
    """Resolve dose fraction ``x`` into a concrete filter: t = t0 / sigma(x).

    The plan always uses power W and gates to ``DEFAULT_HU_GATE``.  The
    default threshold is the reference value for the default kernel (Frac,
    n=3), so planning works without running the Monte-Carlo solver;
    substitute a freshly solved t0 to recalibrate.
    """
    if not t0 > 0:
        raise ValueError(f"threshold t0 must be positive, got {t0}")
    sigma = noise_sigma(model, x)
    t = t0 / sigma
    return FilterPlan(
        x=float(x),
        sigma=sigma,
        t0=float(t0),
        t=t,
        spec=KernelSpec(v=v, t=t, w=WFamily.power(), n=n),
        hu_gate=DEFAULT_HU_GATE,
    )


def _band_layout(height: int, width: int, n_regions: int) -> np.ndarray:
    """Region index per pixel: ``n_regions`` equal vertical bands."""
    if height < 1 or width < 1 or n_regions < 1:
        raise ValueError("layout dimensions and region count must be positive")
    if n_regions > width:
        raise ValueError(
            f"cannot fit {n_regions} vertical bands into {width} columns"
        )
    cols = np.minimum((np.arange(width) * n_regions) // width, n_regions - 1)
    return np.broadcast_to(cols, (height, width)).astype(np.int32)


def synth_phantom_values(
    densities, sigma: float = 0.0, seed: int = 0, size: tuple[int, int] = (512, 512),
) -> np.ndarray:
    """Real-valued phantom: piecewise-constant densities plus i.i.d. normal noise.

    Density ``i`` fills the ``i``-th of equal vertical bands, left to right;
    deterministic per seed.
    """
    dens = np.asarray(list(densities), dtype=np.float64)
    if dens.size == 0:
        raise ValueError("at least one density is required")
    if not np.all(np.isfinite(dens)):
        raise ValueError(f"densities must be finite, got {dens.tolist()}")
    if not 0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    layout = _band_layout(size[0], size[1], dens.size)
    base = dens[layout]
    if sigma == 0.0:
        return base
    noise = _unit_draws(NoiseDistribution.Normal, layout.size, seed, 0).reshape(layout.shape)
    return base + sigma * noise


def synth_phantom(
    densities, sigma: float = 0.0, seed: int = 0, size: tuple[int, int] = (512, 512),
) -> Image:
    """Phantom image (int16), quantized from :func:`synth_phantom_values`."""
    return Image.from_values(synth_phantom_values(densities, sigma, seed, size))


def load_dose_model(path) -> DoseNoiseModel:
    """Read a noise model from a plain-text config.

    Format: five whitespace-separated numbers — a, b, c, x_lo, x_hi — with
    ``#`` comments allowed.
    """
    text = Path(path).read_text(encoding="utf-8")
    tokens = []
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        tokens.extend(line.split())
    if len(tokens) != 5:
        raise FormatError(
            f"dose-model config {path} must contain exactly 5 numbers "
            f"(a b c x_lo x_hi), found {len(tokens)} tokens"
        )
    try:
        a, b, c, x_lo, x_hi = (float(tok) for tok in tokens)
    except ValueError:
        raise FormatError(f"dose-model config {path} contains a non-numeric token") from None
    try:
        return DoseNoiseModel(a=a, b=b, c=c, x_lo=x_lo, x_hi=x_hi)
    except ValueError as exc:
        raise FormatError(f"dose-model config {path}: {exc}") from None
