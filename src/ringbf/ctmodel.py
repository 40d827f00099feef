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

from ._core_py import _tile_rows
from .errors import FormatError, OutOfDomainError
from .filter import FilterConfig, Image, quantize_to_int16
from .kernel import KernelSpec, VFamily, WFamily, _check_seed, _integer

__all__ = [
    "DoseNoiseModel",
    "DEFAULT_DOSE_MODEL",
    "DEFAULT_HU_GATE",
    "REFERENCE_THRESHOLDS",
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
# The paper's 50%-reduction thresholds t0, K(t0) = 0.5 under unit Normal noise
# with power W, by (V, n): its table covers n = 3 only.
REFERENCE_THRESHOLDS = {(VFamily.Abs, 3): 15.05, (VFamily.Frac, 3): 1.40,
                        (VFamily.Quad, 3): 0.77, (VFamily.Exp, 3): 0.67}


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
    t0: float | None = None,
) -> FilterPlan:
    """Resolve dose fraction ``x`` into a concrete filter: t = t0 / sigma(x).

    The plan always uses power W and gates to ``DEFAULT_HU_GATE``.  Without
    ``t0`` the kernel's value in ``REFERENCE_THRESHOLDS`` is used, so
    planning works without running the Monte-Carlo solver; a kernel the
    table lacks (any n but 3) raises ``ValueError``.  Pass a freshly solved
    t0 to recalibrate.
    """
    spec = KernelSpec(v=v, t=0.0, w=WFamily.power(), n=n)
    if t0 is None:
        if (spec.v, spec.n) not in REFERENCE_THRESHOLDS:
            raise ValueError(f"no reference t0 for {spec.v.name} at n={spec.n}; pass t0")
        t0 = REFERENCE_THRESHOLDS[spec.v, spec.n]
    if not 0 < t0 < math.inf:
        raise ValueError(f"threshold t0 must be positive and finite, got {t0}")
    sigma = noise_sigma(model, x)
    t = t0 / sigma
    return FilterPlan(
        x=float(x),
        sigma=sigma,
        t0=float(t0),
        t=t,
        spec=spec.with_t(t),
        hu_gate=DEFAULT_HU_GATE,
    )


def _phantom(densities, sigma: float, seed: int, size: tuple[int, int],
             dtype: type) -> np.ndarray:
    """The phantom as ``dtype``: float64 values as they are, or int16 quantized.

    Both are made a block of ``_tile_rows(width)`` rows at a time, in row
    order, each block's draws read from one Philox stream: consecutive
    ``standard_normal`` calls read the stream as one call would, so the
    values do not depend on the block height.  A float64 result takes its
    draws in place; an int16 one fills one float64 block buffer and
    quantizes it into its rows.  So the result and one block are all that
    is held.
    """
    dens = np.asarray(list(densities), dtype=np.float64)
    if dens.size == 0:
        raise ValueError("at least one density is required")
    if not np.all(np.isfinite(dens)):
        raise ValueError(f"densities must be finite, got {dens.tolist()}")
    if not 0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    _check_seed(seed)  # also when sigma is 0 and nothing is drawn
    shape = (_integer(size[0], "size[0] (height)", 1), _integer(size[1], "size[1] (width)", 1))
    if dens.size > shape[1]:
        raise ValueError(f"cannot fit {dens.size} vertical bands into {shape[1]} columns")
    row = dens[np.arange(shape[1]) * dens.size // shape[1]]
    out = np.empty(shape, dtype)
    rows = _tile_rows(shape[1])
    buf = None if dtype is np.float64 else np.empty((min(rows, shape[0]), shape[1]))
    gen = np.random.Generator(np.random.Philox(key=seed))
    for start in range(0, shape[0], rows):
        stop = min(start + rows, shape[0])
        block = out[start:stop] if buf is None else buf[: stop - start]
        if sigma == 0.0:
            block[:] = row
        else:
            gen.standard_normal(out=block)
            try:
                with np.errstate(over="raise"):
                    block *= sigma
                    block += row
            except FloatingPointError:
                raise ValueError(f"sigma {sigma} with densities {dens.tolist()} gives noisy "
                                 "values beyond float64") from None
        if buf is not None:
            out[start:stop] = quantize_to_int16(block)
    return out


def synth_phantom_values(
    densities, sigma: float = 0.0, seed: int = 0, size: tuple[int, int] = (512, 512),
) -> np.ndarray:
    """Real-valued phantom: piecewise-constant densities plus i.i.d. normal noise.

    Density ``i`` fills the ``i``-th of equal vertical bands, left to right
    (column ``c`` of ``w`` is in band ``c * len(densities) // w``); more
    bands than columns raise ``ValueError``.  The noise reads the seed's
    Philox stream front to back through numpy's ziggurat Normal sampler
    (Marsaglia and Tsang, 2000), so it is deterministic per seed and a
    smaller image's draws are the first draws of a larger one.  The draws
    are taken into the output a row block at a time and scaled and shifted
    in place, so the output is the only full-size array.  A ``sigma`` or
    density whose noisy values overflow float64 raises ``ValueError``.
    """
    return _phantom(densities, sigma, seed, size, np.float64)


def synth_phantom(
    densities, sigma: float = 0.0, seed: int = 0, size: tuple[int, int] = (512, 512),
) -> Image:
    """Phantom image (int16): :func:`synth_phantom_values` quantized by ``quantize_to_int16``.

    The values are drawn and quantized a row block at a time, so the int16
    image and one float64 block are held, never the full-size values; the
    pixels equal ``quantize_to_int16(synth_phantom_values(...))`` for any
    block height.  A density outside the int16 range [-32768, 32767] raises
    ``ValueError``; noise that carries a pixel past that range is still
    clipped to it.
    """
    dens = [float(d) for d in densities]
    for d in dens:
        if math.isfinite(d) and not -32768 <= d <= 32767:  # _phantom refuses the rest
            raise ValueError(f"density {d} lies outside the int16 range [-32768, 32767]")
    return Image(_phantom(dens, sigma, seed, size, np.int16))


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
