"""Kernel families and ring-decomposed pixel neighborhoods.

A bilateral filter is determined by a photometric family V (a decaying
symmetric function of the intensity difference, scaled by t), a spatial
family W (a decaying function of pixel distance), and a support size n.
The support is a union of concentric integer-lattice rings; every pixel of
a ring shares one precomputed spatial weight w_i = W(r_i).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "VFamily",
    "WFamily",
    "KernelSpec",
    "Ring",
    "RingNeighborhood",
    "MAX_SUPPORT_SIZE",
    "build_rings",
    "eval_W",
]

MAX_SUPPORT_SIZE = 5
_T_MAX = float(np.finfo(np.float32).max)  # largest scale the float32 kernels can hold


class VFamily(enum.Enum):
    """Photometric similarity families.

    Each maps a scaled intensity difference u = t*x to a weight in (0, 1]:
    ``Abs``  -> 1 / (1 + |u|)
    ``Frac`` -> 1 / (1 + u^2)
    ``Quad`` -> 1 / (1 + u^4)
    ``Exp``  -> exp(-u^2)

    The filter evaluates these in float32 (``_core_py.v_weights``).  There
    Abs, Frac and Quad are exactly non-increasing in |u|, but numpy's float32
    ``exp`` is not correctly rounded, so Exp may rise by one ulp between
    neighbouring values of u.
    """

    Abs = "abs"
    Frac = "frac"
    Quad = "quad"
    Exp = "exp"

    @classmethod
    def parse(cls, name: str) -> "VFamily":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise ValueError(f"unknown V family {name!r} (expected one of: {valid})") from None


@dataclass(frozen=True)
class WFamily:
    """Spatial weight family; ``sigma_d`` alone picks the variant.

    ``sigma_d is None`` -> power:    W(r) = 2^(-r)
    ``sigma_d > 0``     -> Gaussian: W(r) = exp(-(r/sigma_d)^2)
    """

    sigma_d: float | None = None

    def __post_init__(self):
        if self.sigma_d is not None and not self.sigma_d > 0:
            raise ValueError("Gaussian W requires sigma_d > 0")

    @classmethod
    def power(cls) -> "WFamily":
        return cls()

    @classmethod
    def gaussian(cls, sigma_d: float) -> "WFamily":
        return cls(float(sigma_d))

    @classmethod
    def parse(cls, text: str) -> "WFamily":
        """Parse ``power`` or ``gauss:<sigma>``."""
        text = text.strip().lower()
        if text == "power":
            return cls.power()
        if text.startswith("gauss"):
            _, sep, rest = text.partition(":")
            if not sep:
                raise ValueError("Gaussian W must be given as gauss:<sigma>")
            try:
                return cls.gaussian(float(rest))
            except ValueError as exc:
                raise ValueError(f"bad Gaussian sigma {rest!r}") from exc
        raise ValueError(f"unknown W family {text!r} (expected power or gauss:<sigma>)")


@dataclass(frozen=True)
class KernelSpec:
    """Complete filter parameterization: V family with scale t, W family, support n."""

    v: VFamily
    t: float
    w: WFamily = field(default_factory=WFamily.power)
    n: int = 3

    def __post_init__(self):
        # The kernels scale differences by float32(t): a larger t overflows to
        # inf, and inf * 0 turns the weight of an equal neighbour into NaN.
        if not 0 <= self.t <= _T_MAX:
            raise ValueError(f"scale t must be finite, >= 0 and <= {_T_MAX:.6g}, got {self.t}")
        if not 1 <= self.n <= MAX_SUPPORT_SIZE:
            raise ValueError(f"support size n must be in 1..{MAX_SUPPORT_SIZE}, got {self.n}")

    def with_t(self, t: float) -> "KernelSpec":
        return KernelSpec(self.v, t, self.w, self.n)


# Ring geometry: offsets at fixed Euclidean distance from the center, in a
# fixed declaration order (the accumulation order is part of the pinned numeric
# contract of the kernels).  The fifth ring merges the radius-2*sqrt(2) and
# radius-3 lattice shells into one ring with the representative radius
# 2*sqrt(2), the smaller (larger-weight) of the two.
_RING_RADII = (1.0, math.sqrt(2.0), 2.0, math.sqrt(5.0), 2.0 * math.sqrt(2.0))
_RING_OFFSETS = (
    ((1, 0), (-1, 0), (0, 1), (0, -1)),
    ((1, 1), (1, -1), (-1, 1), (-1, -1)),
    ((2, 0), (-2, 0), (0, 2), (0, -2)),
    ((2, 1), (2, -1), (-2, 1), (-2, -1), (1, 2), (1, -2), (-1, 2), (-1, -2)),
    ((2, 2), (2, -2), (-2, 2), (-2, -2), (3, 0), (-3, 0), (0, 3), (0, -3)),
)


@dataclass(frozen=True)
class Ring:
    offsets: tuple[tuple[int, int], ...]
    weight: float


@dataclass(frozen=True)
class RingNeighborhood:
    """The first n rings with their shared spatial weights (center excluded)."""

    rings: tuple[Ring, ...]

    @property
    def size(self) -> int:
        """Total number of support pixels."""
        return sum(len(r.offsets) for r in self.rings)

    def all_offsets(self) -> list[tuple[int, int]]:
        """Support offsets flattened in ring order."""
        return [off for ring in self.rings for off in ring.offsets]

    def offset_weights(self) -> np.ndarray:
        """Per-offset spatial weight, aligned with :meth:`all_offsets`."""
        return np.array(
            [ring.weight for ring in self.rings for _ in ring.offsets], dtype=np.float64
        )

    def margin(self) -> int:
        """Largest coordinate magnitude in the support (border width)."""
        return max(max(abs(dx), abs(dy)) for ring in self.rings for (dx, dy) in ring.offsets)


def build_rings(n: int, w: WFamily) -> RingNeighborhood:
    """Construct the first ``n`` rings with weights w_i = W(r_i).

    Ring layout (cumulative sizes 4 / 8 / 12 / 20 / 28):
      1: (+-1, 0), (0, +-1)            r = 1
      2: (+-1, +-1)                    r = sqrt(2)
      3: (+-2, 0), (0, +-2)            r = 2
      4: the 8 offsets with dx^2+dy^2 = 5   r = sqrt(5)
      5: (+-2, +-2), (+-3, 0), (0, +-3)    r = 2*sqrt(2) (merged shells)
    """
    if not isinstance(n, int) or not 1 <= n <= MAX_SUPPORT_SIZE:
        raise ValueError(f"support size n must be an integer in 1..{MAX_SUPPORT_SIZE}, got {n!r}")
    rings = tuple(
        Ring(offsets=offsets, weight=eval_W(w, radius))
        for radius, offsets in zip(_RING_RADII[:n], _RING_OFFSETS)
    )
    return RingNeighborhood(rings)


def eval_W(w: WFamily, r):
    """Spatial weight at distance ``r >= 0``; W(0) = 1 for both families."""
    r_arr = np.asarray(r, dtype=np.float64)
    if np.any(r_arr < 0):
        raise ValueError("distance r must be >= 0")
    if w.sigma_d is None:
        out = np.exp2(-r_arr)
    else:
        s = r_arr / w.sigma_d
        out = np.exp(-(s * s))
    if np.isscalar(r) or np.ndim(r) == 0:
        return float(out)
    return out
