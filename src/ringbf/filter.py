"""Bilateral filtering of images.

Two algebraically equivalent forms are provided:

- the production ring-separated form (per-ring photometric sums combined with
  precomputed ring weights), computed by the tiled kernels in ``_core_py``;
- the dense reference form (flat accumulation over every support offset with
  its per-offset weight), kept deliberately independent in summation
  structure and used as the equivalence oracle.

The filter support is the ring union around the center; the center pixel
itself carries no weight — each output value is a convex combination of the
neighbor values, which is what makes the deviation-reduction calibration
(t = threshold / local deviation) transfer to full images.  Filtered values
are real; quantization to the signed-16-bit grid happens only when an
``Image`` is materialized (round half away from zero).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

from . import _core_py
from .kernel import KernelSpec, RingNeighborhood, build_rings

__all__ = [
    "Image",
    "FilterConfig",
    "quantize_to_int16",
    "filter_pixel_dense",
    "filter_image",
    "filter_image_values",
]

BorderPolicy = Literal["clamp", "skip"]


@dataclass(frozen=True)
class Image:
    """2-D signed 16-bit intensity grid (HU semantics), row-major."""

    pixels: np.ndarray  # shape (height, width), dtype int16

    def __post_init__(self):
        arr = np.asarray(self.pixels)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("image must be a non-empty 2-D array")
        if arr.dtype != np.int16:
            raise ValueError(f"image pixels must be int16, got {arr.dtype}")
        object.__setattr__(self, "pixels", np.ascontiguousarray(arr))

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    def values(self) -> np.ndarray:
        """Pixel values as float64 (the in-memory processing representation)."""
        return self.pixels.astype(np.float64)

    @classmethod
    def from_values(cls, values: np.ndarray) -> "Image":
        """Quantize real values to the signed-16-bit grid."""
        return cls(quantize_to_int16(values))


def quantize_to_int16(values: np.ndarray) -> np.ndarray:
    """Round half away from zero and clip to the int16 range."""
    v = np.asarray(values, dtype=np.float64)
    rounded = np.copysign(np.floor(np.abs(v) + 0.5), v)
    return np.clip(rounded, -32768, 32767).astype(np.int16)


@dataclass(frozen=True)
class FilterConfig:
    """Filter parameterization plus application policy."""

    spec: KernelSpec
    hu_gate: tuple[float, float] | None = None
    border: BorderPolicy = "clamp"

    def __post_init__(self):
        if self.hu_gate is not None:
            lo, hi = self.hu_gate
            if not lo <= hi:
                raise ValueError(f"gate interval must satisfy lo <= hi, got [{lo}, {hi}]")
        if self.border not in get_args(BorderPolicy):
            raise ValueError(f"border policy must be clamp or skip, got {self.border!r}")

    def rings(self) -> RingNeighborhood:
        return build_rings(self.spec.n, self.spec.w)


def _as_values(img) -> np.ndarray:
    if isinstance(img, Image):
        return img.values()
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError("image must be a non-empty 2-D array")
    return arr


def _support_values(f: np.ndarray, x0: int, y0: int, rings: RingNeighborhood,
                    border: BorderPolicy) -> np.ndarray:
    """Support values at (x0, y0) in ring order, resolved per border policy."""
    h, w = f.shape
    if not (0 <= x0 < w and 0 <= y0 < h):
        raise ValueError(f"pixel ({x0}, {y0}) out of bounds for {w}x{h} image")
    out = np.empty(rings.size, dtype=np.float64)
    for j, (dx, dy) in enumerate(rings.all_offsets()):
        x, y = x0 + dx, y0 + dy
        if border == "clamp":
            x = min(max(x, 0), w - 1)
            y = min(max(y, 0), h - 1)
        elif not (0 <= x < w and 0 <= y < h):
            raise ValueError(
                f"support of pixel ({x0}, {y0}) leaves the image under the skip policy"
            )
        out[j] = f[y, x]
    return out


def filter_pixel_dense(img, p0: tuple[int, int], cfg: FilterConfig) -> float:
    """Reference filtered value at ``p0 = (x, y)``: flat per-offset accumulation.

    Every support offset contributes W(ring radius) * V(difference); the sums
    run over the flattened support with no ring grouping.  Serves as the
    independent oracle for the ring-separated form.
    """
    f = _as_values(img)
    rings = cfg.rings()
    support = _support_values(f, p0[0], p0[1], rings, cfg.border)
    f0 = f[p0[1], p0[0]]
    d32 = (support - f0).astype(np.float32)
    v = _core_py.v_weights(d32, float(cfg.spec.t), cfg.spec.v).astype(np.float64)
    w = rings.offset_weights()
    num = 0.0
    den = 0.0
    for j in range(support.size):
        wv = w[j] * v[j]
        num += wv * support[j]
        den += wv
    if den > 0.0:
        return num / den
    return float(support.sum() / support.size)


def filter_image_values(values: np.ndarray, cfg: FilterConfig) -> np.ndarray:
    """Filter a float64 image, returning the pre-rounding real output.

    In-gate centers (original value within ``hu_gate``) are replaced by the
    ring-filtered value; out-of-gate centers are copied through unchanged.
    Borders follow the config policy (clamp replicates edges, skip copies the
    input margin).
    """
    return _core_py.filter_values(_as_values(values), cfg.spec, gate=cfg.hu_gate,
                                  skip=cfg.border == "skip")


def filter_image(img: Image, cfg: FilterConfig, passes: int = 1) -> Image:
    """Apply the filter ``passes`` times, quantizing once at the end.

    Real values carry between passes; ``passes = 0`` returns the input.
    Pixels copied through (out-of-gate centers, skip-policy margins) keep
    their input values bit-exactly: copied values are integers, and integers
    survive quantization unchanged.
    """
    if not isinstance(passes, int) or passes < 0:
        raise ValueError(f"iteration count must be a non-negative integer, got {passes!r}")
    if passes == 0:
        return img
    values = img.values()
    for _ in range(passes):
        values = filter_image_values(values, cfg)
    return Image.from_values(values)
