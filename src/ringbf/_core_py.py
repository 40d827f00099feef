"""Compute kernels: the ring-separated filter over images and trial ensembles.

There is one compute path.  Both entry points cut their input into tiles and
hand every tile to ``_filter_tile``, which reuses one fixed set of buffers
through ``out=`` ufuncs and writes into a preallocated output:

- ``filter_values`` walks the image in row strips of ``_tile_rows(width)``
  rows, so the per-offset temporaries stay in cache instead of streaming
  whole-image arrays through memory once per support offset.  Each strip
  reads its edge-clamped rows as one float64 block through ``_clamped_rows``,
  as the calibration's window sums do, so a pass holds its output and
  strip-sized blocks, not a padded copy.  The strips run on one thread per
  available core (capped at the strip count); numpy releases the GIL inside
  each ufunc, and every strip writes its own rows.
- ``ensemble_filter`` walks the trial rows in chunks of ``_tile_rows(1)`` on
  the calling thread.  It reads the ``(trials, 1 + support size)`` array in
  Fortran order, as the Monte-Carlo draws are laid out, so the center and
  each support offset are contiguous runs of trials, like an image strip's
  rows.

Every pixel or trial keeps a pinned operation sequence, so results do not
depend on the tiling or the thread count:

- intensity differences are formed in float64, reduced to float32, scaled by
  float32(t), and the photometric family is evaluated in float32; a scaled
  difference that overflows float32 saturates to weight 0, without a warning;
- spatial weights and all accumulation are float64;
- accumulation order is rings ascending, offsets in declaration order, with
  per-ring photometric sums combined by the ring weight;
- a pixel whose photometric weights all underflow to zero gets the plain mean
  of its support values, computed only on tiles that hold such a pixel.

Both entry points take a ``KernelSpec`` and lower it here, and only here:
the ring layout and weights come from ``build_rings(spec.n, spec.w)``.
"""
from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .kernel import KernelSpec, RingNeighborhood, VFamily, build_rings

_ONE = np.float32(1.0)

_TILE_ELEMS = 1 << 16  # values per tile of every tiled loop in the package (32 rows at 2048 wide)
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _tile_rows(width: int) -> int:
    """Rows of ``width`` values per tile: about ``_TILE_ELEMS`` values, at least one row."""
    return max(1, _TILE_ELEMS // width)


def _clamped_rows(f: np.ndarray, start: int, stop: int, before: int, after: int) -> np.ndarray:
    """Rows ``start .. stop + before + after - 1`` of ``f`` edge-padded by ``(before, after)``
    on both axes, as float64; only the rows read are converted."""
    read = np.clip(np.arange(start - before, stop + after), 0, f.shape[0] - 1)
    return np.pad(f[read].astype(np.float64, copy=False), ((0, 0), (before, after)), mode="edge")


def _v_in_place(u: np.ndarray, v: VFamily) -> np.ndarray:
    """Turn float32 scaled differences ``u`` into photometric weights, in place."""
    if v is VFamily.Abs:
        np.abs(u, out=u)
    elif v is VFamily.Frac or v is VFamily.Quad:
        np.multiply(u, u, out=u)
        if v is VFamily.Quad:
            np.multiply(u, u, out=u)
    elif v is VFamily.Exp:
        np.multiply(u, u, out=u)
        np.negative(u, out=u)
        return np.exp(u, out=u)
    else:
        raise ValueError(f"unknown V family {v!r}")
    np.add(_ONE, u, out=u)
    return np.divide(_ONE, u, out=u)


def v_weights(d: np.ndarray, t: float, v: VFamily) -> np.ndarray:
    """Float32 photometric weights for float32 differences ``d`` at scale ``t``."""
    with np.errstate(over="ignore"):  # a scaled difference beyond float32 has weight 0
        return _v_in_place(np.float32(t) * d, v)


def _buffers(shape) -> tuple[np.ndarray, ...]:
    """Work buffers for one tile: float32 weights, five float64 sums, one mask."""
    return (np.empty(shape, np.float32), *(np.empty(shape, np.float64) for _ in range(5)),
            np.empty(shape, np.bool_))


def _filter_tile(center, neighbours, out, buffers, spec: KernelSpec, rings: RingNeighborhood):
    """Filter one tile of centers into ``out``.

    ``neighbours[j]`` holds the tile's values at support offset ``j`` of
    ``rings.all_offsets()``; ``buffers`` come from ``_buffers`` with a first
    axis at least as long as the tile's.
    """
    u, sv, sfv, num, den, tmp, safe = (b[: len(center)] for b in buffers)
    t32 = np.float32(spec.t)
    num.fill(0.0)
    den.fill(0.0)
    j = 0
    with np.errstate(over="ignore"):  # a scaled difference beyond float32 has weight 0
        for ring in rings.rings:
            sv.fill(0.0)
            sfv.fill(0.0)
            for nb in neighbours[j : j + len(ring.offsets)]:
                np.subtract(nb, center, out=u)  # in float64, rounded once to float32
                np.multiply(u, t32, out=u)
                _v_in_place(u, spec.v)
                np.add(sv, u, out=sv)
                np.multiply(u, nb, out=tmp)
                np.add(sfv, tmp, out=sfv)
            j += len(ring.offsets)
            np.multiply(sfv, ring.weight, out=tmp)
            np.add(num, tmp, out=num)
            np.multiply(sv, ring.weight, out=tmp)
            np.add(den, tmp, out=den)
    np.greater(den, 0.0, out=safe)
    np.divide(num, den, out=out, where=safe)
    if not safe.all():  # the support mean, summed from 0 in declaration order
        np.divide(sum(neighbours), rings.size, out=out, where=~safe)


def filter_values(
    f: np.ndarray,
    spec: KernelSpec,
    gate: tuple[float, float] | None = None,
    skip: bool = False,
) -> np.ndarray:
    """Ring-separated bilateral filter over int16 pixels or float64 values.

    Centers outside the closed interval ``gate`` keep their input value;
    ``skip`` copies the input over the support's margin, where the clamped
    (edge-replicated) support would leave the image.  The center and every
    support offset are views of a strip's ``_clamped_rows`` block.
    Returns the pre-rounding float64 output image.
    """
    h, w = f.shape
    rings = build_rings(spec.n, spec.w)
    margin = rings.margin()
    out = np.empty((h, w), dtype=np.float64)
    rows = min(_tile_rows(w), h)
    strips = [(y, min(y + rows, h)) for y in range(0, h, rows)]

    def run(part):
        buffers = _buffers((rows, w))
        for y0, y1 in part:
            block = _clamped_rows(f, y0, y1, margin, margin)
            center, *neighbours = [block[margin + dy : margin + dy + y1 - y0, margin + dx : margin + dx + w]
                                   for dx, dy in ((0, 0), *rings.all_offsets())]
            _filter_tile(center, neighbours, out[y0:y1], buffers, spec, rings)
            if gate is not None:
                np.copyto(out[y0:y1], center, where=~((center >= gate[0]) & (center <= gate[1])))

    workers = min(_WORKERS, len(strips))
    if workers == 1:
        run(strips)
    else:
        # each worker runs in a copy of the caller's context, so np.errstate holds there too
        with ThreadPoolExecutor(workers) as pool:
            futures = [pool.submit(contextvars.copy_context().run, run, strips[k::workers])
                       for k in range(workers)]
            for future in futures:
                future.result()

    if skip:
        out[:margin, :] = f[:margin, :]
        out[-margin:, :] = f[-margin:, :]
        out[:, :margin] = f[:, :margin]
        out[:, -margin:] = f[:, -margin:]
    return out


def ensemble_filter(vals: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Filter the center of each trial row.

    ``vals`` has one row per trial: column 0 is the center value, the
    remaining columns are the support values in ring order.  Returns the
    filtered center per trial (float64).  The rows are read in Fortran
    order (copied into it if need be), so each chunk hands ``_filter_tile``
    one contiguous run of trials per column.
    """
    rings = build_rings(spec.n, spec.w)
    vals = np.asfortranarray(vals, dtype=np.float64)
    if vals.ndim != 2 or vals.shape[1] != 1 + rings.size:
        raise ValueError(f"trial rows must hold 1 + {rings.size} values, got shape {vals.shape}")
    n_trials = vals.shape[0]
    out = np.empty(n_trials, dtype=np.float64)
    chunk = _tile_rows(1)
    buffers = _buffers(min(chunk, n_trials))
    for start in range(0, n_trials, chunk):
        block = vals[start : start + chunk]
        _filter_tile(block[:, 0], block[:, 1:].T, out[start : start + chunk], buffers, spec, rings)
    return out
