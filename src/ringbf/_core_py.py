"""Compute kernels: the ring-separated filter over images and trial ensembles.

There is one compute path.  Both entry points cut their input into tiles and
hand every tile to ``_filter_tile``, which reuses one fixed set of buffers
through ``out=`` ufuncs and writes into a preallocated output:

- ``filter_values`` walks the image in row strips of about ``_STRIP_ELEMS``
  pixels, so the per-offset temporaries stay in cache instead of streaming
  whole-image arrays through memory once per support offset.  The strips run
  on one thread per available core (capped at the strip count); numpy
  releases the GIL inside each ufunc, and every strip writes its own rows.
- ``ensemble_filter`` walks the trial rows in chunks of ``_TRIAL_CHUNK`` on
  the calling thread.

Every pixel or trial keeps a pinned operation sequence, so results do not
depend on the tiling or the thread count:

- intensity differences are formed in float64, reduced to float32, scaled by
  float32(t), and the photometric family is evaluated in float32;
- spatial weights and all accumulation are float64;
- accumulation order is rings ascending, offsets in declaration order, with
  per-ring photometric sums combined by the ring weight;
- a pixel whose photometric weights all underflow to zero falls back to the
  unweighted mean of its support values.

V family codes: 0 = Abs, 1 = Frac, 2 = Quad, 3 = Exp.
Border codes: 0 = clamp (edge replication), 1 = skip (copy the margin).
"""
from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

_ONE = np.float32(1.0)

_STRIP_ELEMS = 1 << 16  # pixels per image strip (32 rows at 2048 wide)
_TRIAL_CHUNK = 4096  # trial rows per ensemble chunk
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _v_in_place(u: np.ndarray, v_code: int) -> np.ndarray:
    """Turn float32 scaled differences ``u`` into photometric weights, in place."""
    if v_code == 0:
        np.abs(u, out=u)
    elif v_code == 1 or v_code == 2:
        np.multiply(u, u, out=u)
        if v_code == 2:
            np.multiply(u, u, out=u)
    elif v_code == 3:
        np.multiply(u, u, out=u)
        np.negative(u, out=u)
        return np.exp(u, out=u)
    else:
        raise ValueError(f"unknown V family code {v_code}")
    np.add(_ONE, u, out=u)
    return np.divide(_ONE, u, out=u)


def v_weights(d: np.ndarray, t: float, v_code: int) -> np.ndarray:
    """Float32 photometric weights for float32 differences ``d`` at scale ``t``."""
    return _v_in_place(np.float32(t) * d, v_code)


def _buffers(shape) -> tuple[np.ndarray, ...]:
    """Work buffers for one tile: float32 weights, six float64 sums, one mask."""
    return ((np.empty(shape, np.float32),)
            + tuple(np.empty(shape, np.float64) for _ in range(6))
            + (np.empty(shape, np.bool_),))


def _filter_tile(center, neighbours, out, buffers, t32, v_code, ring_starts, ring_weights):
    """Filter one tile of centers into ``out``.

    ``neighbours[j]`` holds the tile's values at support offset ``j`` (ring
    order); ``buffers`` come from ``_buffers`` with a first axis at least as
    long as the tile's.
    """
    u, sv, sfv, num, den, supsum, tmp, safe = (b[: len(center)] for b in buffers)
    num.fill(0.0)
    den.fill(0.0)
    supsum.fill(0.0)
    for i in range(len(ring_weights)):
        sv.fill(0.0)
        sfv.fill(0.0)
        for j in range(int(ring_starts[i]), int(ring_starts[i + 1])):
            nb = neighbours[j]
            np.subtract(nb, center, out=u)  # in float64, rounded once to float32
            np.multiply(u, t32, out=u)
            _v_in_place(u, v_code)
            np.add(sv, u, out=sv)
            np.multiply(u, nb, out=tmp)
            np.add(sfv, tmp, out=sfv)
            np.add(supsum, nb, out=supsum)
        wi = float(ring_weights[i])
        np.multiply(sfv, wi, out=tmp)
        np.add(num, tmp, out=num)
        np.multiply(sv, wi, out=tmp)
        np.add(den, tmp, out=den)
    np.greater(den, 0.0, out=safe)
    np.divide(num, den, out=out, where=safe)
    np.logical_not(safe, out=safe)
    np.divide(supsum, int(ring_starts[len(ring_weights)]), out=out, where=safe)


def filter_values(
    f: np.ndarray,
    t: float,
    v_code: int,
    dxs: np.ndarray,
    dys: np.ndarray,
    ring_starts: np.ndarray,
    ring_weights: np.ndarray,
    border_code: int,
    gate_lo: float,
    gate_hi: float,
    has_gate: bool,
) -> np.ndarray:
    """Ring-separated bilateral filter over a float64 image.

    ``dxs``/``dys`` are the support offsets flattened in ring order;
    ``ring_starts`` delimits rings (length = ring count + 1);
    ``ring_weights`` is the per-ring spatial weight.
    Returns the pre-rounding float64 output image.
    """
    f = np.ascontiguousarray(f, dtype=np.float64)
    h, w = f.shape
    margin = int(max(np.max(np.abs(dxs)), np.max(np.abs(dys))))
    pad = np.pad(f, margin, mode="edge")
    out = np.empty((h, w), dtype=np.float64)
    t32 = np.float32(t)
    offsets = [(margin + int(dy), margin + int(dx)) for dx, dy in zip(dxs, dys)]
    rows = max(1, _STRIP_ELEMS // w)
    strips = [(y, min(y + rows, h)) for y in range(0, h, rows)]

    def run(part):
        buffers = _buffers((rows, w))
        for y0, y1 in part:
            center = f[y0:y1]
            neighbours = [pad[oy + y0 : oy + y1, ox : ox + w] for oy, ox in offsets]
            _filter_tile(center, neighbours, out[y0:y1], buffers, t32, v_code,
                         ring_starts, ring_weights)
            if has_gate:
                np.copyto(out[y0:y1], center, where=~((center >= gate_lo) & (center <= gate_hi)))

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

    if border_code == 1 and margin > 0:
        out[:margin, :] = f[:margin, :]
        out[-margin:, :] = f[-margin:, :]
        out[:, :margin] = f[:, :margin]
        out[:, -margin:] = f[:, -margin:]
    return out


def ensemble_filter(
    vals: np.ndarray,
    t: float,
    v_code: int,
    ring_starts: np.ndarray,
    ring_weights: np.ndarray,
) -> np.ndarray:
    """Filter the center of each trial row.

    ``vals`` has one row per trial: column 0 is the center value, the
    remaining columns are the support values in ring order.  Returns the
    filtered center per trial (float64).
    """
    vals = np.ascontiguousarray(vals, dtype=np.float64)
    n_trials = vals.shape[0]
    out = np.empty(n_trials, dtype=np.float64)
    buffers = _buffers(min(_TRIAL_CHUNK, n_trials))
    t32 = np.float32(t)
    for start in range(0, n_trials, _TRIAL_CHUNK):
        block = vals[start : start + _TRIAL_CHUNK]
        _filter_tile(block[:, 0], block[:, 1:].T, out[start : start + _TRIAL_CHUNK],
                     buffers, t32, v_code, ring_starts, ring_weights)
    return out
