"""Compute kernels: the ring-separated filter over images and trial ensembles.

There is one compute path.  Both entry points lay their input out as one flat
*frame* and hand ``_filter_tile`` tiles of it: runs of ``length`` centers
starting at ``start``, whose support offsets are fixed *shifts* along the
frame.  Every operand is then a contiguous 1-D slice
``frame[start + k : start + k + length]``, and the tile reuses one fixed set
of buffers through ``out=`` ufuncs:

- ``filter_values`` walks the image in row strips of ``_tile_rows(width)``
  rows.  A strip's frame is its edge-clamped rows (``_clamped_rows``), padded
  by the support margin ``m`` on both sides and raveled: its row pitch is
  ``p = width + 2m`` and offset ``(dx, dy)`` is shift ``dy*p + dx``.  The
  output has pitch ``p`` too, so each tile writes its centers in place, as
  one flat run of the output, and nothing is read back; the caller gets a
  ``[:, :width]`` view.  Every frame is float64, whatever the pixels' dtype,
  as the trial frames are.  The strips run on a pool of one thread per
  available core (capped at the strip count); numpy releases the GIL inside
  each ufunc, and every strip writes its own rows.
- ``ensemble_filter`` reads the ``(trials, 1 + support size)`` array in
  Fortran order, as the Monte-Carlo draws are laid out, so the raveled draws
  are a frame in which column ``j`` is shift ``j * trials``.  It walks the
  trials in chunks of ``_tile_rows(1)`` on the calling thread, in work
  buffers the caller may pass: the Monte-Carlo estimator makes one set and
  reuses it for every group of draws and every probe.

Every pixel or trial keeps a pinned operation sequence, so results do not
depend on the layout, the tiling or the thread count:

- intensity differences are formed in float64, rounded once to float32,
  scaled by float32(t), and the photometric family is evaluated in float32;
  a scaled difference that overflows float32 saturates to weight 0, without
  a warning;
- spatial weights and all accumulation are float64, including the product
  of a weight and its support value;
- accumulation order is rings ascending, offsets in declaration order, with
  per-ring photometric sums combined by the ring weight;
- a pixel whose photometric weights all underflow to zero gets the plain mean
  of its support values, computed only on tiles that hold such a pixel.

When both ``k`` and ``-k`` are shifts, as every image ring's ``±`` offset
pairs are, V is evaluated once for the pair: a difference rounded to
float32 is exactly antisymmetric and the float32 V is even, bit for bit, so
the weight of ``-k`` at a center is the weight of ``+k`` at the center ``k``
before it.  One field over ``[start - |k|, start + length)`` serves both,
cast to float64 once.  The trial frame has no opposite shifts and evaluates
V per shift.

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


def _clamped_rows(f: np.ndarray, start: int, stop: int, before: int, after: int,
                  dtype=np.float64) -> np.ndarray:
    """Rows ``start .. stop + before + after - 1`` of ``f`` edge-padded by ``(before, after)``
    on both axes, as ``dtype``: the filter's strips are float64, the calibration's int64.

    The rows read are padded in their own dtype and converted once, so a
    strip makes one ``dtype`` copy of its block.
    """
    read = np.clip(np.arange(start - before, stop + after), 0, f.shape[0] - 1)
    return np.pad(f[read], ((0, 0), (before, after)), mode="edge").astype(dtype, copy=False)


def _v_in_place(u: np.ndarray, v: VFamily) -> np.ndarray:
    """Turn float32 scaled differences ``u`` into photometric weights, in place."""
    if v is VFamily.Abs:
        np.abs(u, out=u)
    elif v is VFamily.Frac or v is VFamily.Quad:
        np.multiply(u, u, out=u)
        if v is VFamily.Quad:
            np.multiply(u, u, out=u)
    else:  # Exp; KernelSpec admits only a VFamily
        np.multiply(u, u, out=u)
        np.negative(u, out=u)
        return np.exp(u, out=u)
    np.add(_ONE, u, out=u)
    return np.divide(_ONE, u, out=u)


def v_weights(d: np.ndarray, t: float, v: VFamily) -> np.ndarray:
    """Float32 photometric weights for float32 differences ``d`` at scale ``t``."""
    with np.errstate(over="ignore"):  # a scaled difference beyond float32 has weight 0
        return _v_in_place(np.float32(t) * d, v)


def _buffers(length: int, reach: int = 0) -> tuple:
    """Work buffers for tiles of up to ``length`` centers whose paired shifts reach up to
    ``reach`` values: float32 weights over ``length + reach``, five float64 sums, one mask,
    and an initially empty list of spare float64 pair fields that ``_filter_tile`` fills."""
    return (np.empty(length + reach, np.float32), *(np.empty(length, np.float64) for _ in range(5)),
            np.empty(length, np.bool_), [])


def _scaled_v(x, y, t32, v: VFamily, out):
    """Photometric weights of the differences ``x - y`` at float32 scale ``t32``, into the
    float32 ``out``: a float64 difference is rounded once to float32."""
    np.subtract(x, y, out=out)
    np.multiply(out, t32, out=out)
    return _v_in_place(out, v)


def _filter_tile(frame, start, length, shifts, out, buffers, spec: KernelSpec,
                 rings: RingNeighborhood):
    """Filter the centers ``frame[start : start + length]`` into ``out``.

    ``shifts[j]`` is the frame distance of support offset ``j`` of
    ``rings.all_offsets()``; a shift whose negation is also a shift may not
    reach before the frame's start.  ``buffers`` come from ``_buffers`` with
    a ``length`` and ``reach`` at least this tile's.
    """
    u32, *sums, spare = buffers
    sv, sfv, num, den, tmp, safe = (b[:length] for b in sums)
    center = frame[start : start + length]
    t32 = np.float32(spec.t)
    pending = {}  # shift -> the float64 V field its partner evaluated for both
    num.fill(0.0)
    den.fill(0.0)
    j = 0
    with np.errstate(over="ignore"):  # a scaled difference beyond float32 has weight 0
        for ring in rings.rings:
            sv.fill(0.0)
            sfv.fill(0.0)
            for k in shifts[j : j + len(ring.offsets)]:
                nb = frame[start + k : start + k + length]
                if -k not in shifts:
                    wv = _scaled_v(nb, center, t32, spec.v, u32[:length])
                else:
                    if k in pending:
                        field = pending.pop(k)
                        spare.append(field)  # free for the next pair once this offset is summed
                    else:  # field[i] weighs center i - |k| against center i
                        field = spare.pop() if spare else np.empty(len(u32), np.float64)
                        a = abs(k)
                        field[: length + a] = _scaled_v(
                            frame[start : start + length + a], frame[start - a : start + length],
                            t32, spec.v, u32[: length + a])
                        pending[-k] = field
                    wv = field[k : k + length] if k > 0 else field[:length]
                np.add(sv, wv, out=sv)
                np.multiply(wv, nb, out=tmp)
                np.add(sfv, tmp, out=sfv)
            j += len(ring.offsets)
            np.multiply(sfv, ring.weight, out=tmp)
            np.add(num, tmp, out=num)
            np.multiply(sv, ring.weight, out=tmp)
            np.add(den, tmp, out=den)
    np.greater(den, 0.0, out=safe)
    np.divide(num, den, out=out, where=safe)
    if not safe.all():  # the support mean, summed from 0 in declaration order
        tmp.fill(0.0)
        for k in shifts:
            np.add(tmp, frame[start + k : start + k + length], out=tmp)
        np.divide(tmp, rings.size, out=out, where=~safe)


def filter_values(
    f: np.ndarray,
    spec: KernelSpec,
    gate: tuple[float, float] | None = None,
    skip: bool = False,
) -> np.ndarray:
    """Ring-separated bilateral filter over an image of integer or real values.

    Centers outside the closed interval ``gate``, compared as float64, keep
    their input value (a NaN is never inside); ``skip`` copies the input over
    the support's margin, where the clamped (edge-replicated) support would
    leave the image.  Each strip is one flat frame of its float64
    ``_clamped_rows`` block.
    Returns the pre-rounding float64 output image, a ``[:, :w]`` view of rows ``w + 2m`` apart.
    """
    h, w = f.shape
    rings = build_rings(spec.n, spec.w)
    margin = rings.margin()
    pitch = w + 2 * margin
    shifts = [dy * pitch + dx for dx, dy in rings.all_offsets()]
    start = margin * pitch + margin  # the strip's first center in its frame
    flat = np.empty(h * pitch, dtype=np.float64)  # the output, at the frames' pitch
    out = flat.reshape(h, pitch)[:, :w]
    if gate is not None:  # (1, 1) arrays, not scalars, so any numpy compares in float64
        lo, hi = np.array(gate, dtype=np.float64).reshape(2, 1, 1)
    rows = min(_tile_rows(w), h)
    strips = [(y, min(y + rows, h)) for y in range(0, h, rows)]

    def run(part):
        buffers = _buffers(rows * pitch, max(map(abs, shifts)))
        for y0, y1 in part:
            frame = _clamped_rows(f, y0, y1, margin, margin).ravel()
            length = (y1 - y0) * pitch - 2 * margin  # through the last center of the strip
            _filter_tile(frame, start, length, shifts, flat[y0 * pitch :][:length], buffers, spec, rings)
            if gate is not None:
                center = f[y0:y1]
                np.copyto(out[y0:y1], center, where=~((center >= lo) & (center <= hi)))

    workers = min(_WORKERS, len(strips))
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


def ensemble_filter(vals: np.ndarray, spec: KernelSpec, buffers: tuple | None = None) -> np.ndarray:
    """Filter the center of each trial row.

    ``vals`` has one row per trial: column 0 is the center value, the
    remaining columns are the support values in ring order.  Returns the
    filtered center per trial (float64).  The rows are read in Fortran
    order (copied into it if need be) and raveled, so column ``j`` of a
    chunk is the contiguous run ``j * trials`` values past its center.
    ``buffers`` are work buffers from ``_buffers`` of at least
    ``min(_tile_rows(1), trials)`` values, for a caller that filters many
    sets; without them the call makes its own.
    """
    rings = build_rings(spec.n, spec.w)
    vals = np.asfortranarray(vals, dtype=np.float64)
    if vals.ndim != 2 or vals.shape[1] != 1 + rings.size:
        raise ValueError(f"trial rows must hold 1 + {rings.size} values, got shape {vals.shape}")
    n_trials = vals.shape[0]
    frame = vals.ravel(order="F")
    shifts = [j * n_trials for j in range(1, 1 + rings.size)]
    out = np.empty(n_trials, dtype=np.float64)
    chunk = _tile_rows(1)
    if buffers is None:
        buffers = _buffers(min(chunk, n_trials))
    for start in range(0, n_trials, chunk):
        length = min(chunk, n_trials - start)
        _filter_tile(frame, start, length, shifts, out[start : start + length], buffers, spec, rings)
    return out
