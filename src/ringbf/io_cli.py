"""Image file formats and the command-line interface.

Two on-disk image formats are supported, both 16-bit:

* ``.raw``  — signed 16-bit little-endian samples, row-major, with a text
  sidecar next to it (``foo.raw`` -> ``foo.meta``) holding ``width=<int>``
  and ``height=<int>`` lines.  This is the lossless interchange format and
  the only one that can hold negative values.
* ``.pgm``  — binary PGM (``P5``) with maxval 65535 and big-endian samples,
  for viewing in standard tools.  Values must fit in [0, 32767]; writing a
  negative image raises ``RangeError`` directing the caller to ``.raw``.

Every file is written to a temporary file in its target's directory and then
renamed into place, so a failure part-way (a full disk, say) leaves any
earlier file of that name, or ``.raw``/``.meta`` pair, as it was.  The rename
is atomic; nothing is synced to disk, so this does not guard against a power
loss.

The CLI (``ringbf <subcommand>``) exposes filtering, deviation-reduction
curves, threshold solving, dose planning, calibration reports, and phantom
synthesis.  ``ringbf calibrate`` writes a text report of blank-line separated
CSV sections:

* ``t_lo,t_hi,count,t_mean,ratio_mean,ratio_std`` — the per-pixel
  (t, ratio) points in up to 32 equal-count bins over ``t``;
* ``degree,c0..cd,r_squared`` — the polynomial trend fit, one row;
* ``term,coefficient,std_error,t_stat,p_value`` — the noise regression, rows
  ``intercept``, ``s_L`` and ``f_a``, then ``samples,N`` and ``dof,N``.

``--points FILE`` also writes every point as a ``t,ratio`` list.

Exit codes: 0 success, 1 usage/validation error (including a request whose
arrays cannot be allocated), 2 malformed file, 3 numerical failure (bracket,
convergence, or degenerate fit).
"""
from __future__ import annotations

import argparse
import math
import os
import re
import sys
from collections.abc import Iterable
from pathlib import Path
from typing import get_args

import numpy as np

from .analysis import (
    DEFAULT_TRIALS_CURVE,
    DEFAULT_TRIALS_TABLE,
    NoiseDistribution,
    compute_curve,
    curve_to_csv,
    solve_threshold,
)
from .calibrate import (
    fit_polynomial,
    format_calibration_report,
    format_points,
    regress_noise,
    scan_pair,
    summarize_points,
)
from .ctmodel import (
    DEFAULT_DOSE_MODEL,
    DEFAULT_THRESHOLD,
    load_dose_model,
    plan_filter,
    synth_phantom,
)
from .errors import FormatError, NumericalError, RangeError
from .filter import BorderPolicy, FilterConfig, Image, filter_image
from .kernel import _SIGMA_D_MIN, MAX_SUPPORT_SIZE, KernelSpec, VFamily, WFamily

__all__ = [
    "read_image",
    "write_image",
    "cli_dispatch",
]

# One PGM header token: skip ASCII whitespace and '#' comments (each up to the
# end of its line), then capture the run of bytes up to the next whitespace or
# '#', since a comment may start right after a token.
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*)*([^\s#]*)")
# An optional comment right after maxval, taken only when a line end closes
# it: that line end is the one whitespace byte before the samples.
_PGM_MAXVAL_COMMENT = re.compile(rb"(?:#[^\r\n]*(?=[\r\n]))?")
_PGM_MAX = 32767  # largest value an int16 pipeline can round-trip


def _meta_path(raw_path: Path) -> Path:
    return raw_path.with_suffix(".meta")


def _write_files(contents: dict[Path, bytes | Iterable[bytes]]) -> None:
    """Write each path's bytes, or its byte blocks in turn, through a temporary file beside it.

    All temporary files are written before any is renamed over its target,
    so a failed write changes no target and leaves no temporary file behind.
    """
    staged = {}
    try:
        for path, data in contents.items():
            staged[path] = tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
            with tmp.open("wb") as fh:
                fh.writelines([data] if isinstance(data, bytes) else data)
        for path, tmp in staged.items():
            os.replace(tmp, path)
    finally:
        for tmp in staged.values():
            tmp.unlink(missing_ok=True)


def _parse_meta(text: str, path: Path) -> tuple[int, int]:
    """``(width, height)`` from a ``.meta`` sidecar's text."""
    fields: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or key not in ("width", "height"):
            raise FormatError(f"{path}: line {lineno}: expected 'width=<int>' or 'height=<int>', got {line!r}")
        value = value.strip()
        if not value.isdigit():
            raise FormatError(f"{path}: line {lineno}: {key} must be an integer, got {value!r}")
        parsed = int(value)
        if parsed <= 0:
            raise FormatError(f"{path}: line {lineno}: {key} must be positive, got {parsed}")
        if key in fields:
            raise FormatError(f"{path}: line {lineno}: duplicate {key}")
        fields[key] = parsed
    for key in ("width", "height"):
        if key not in fields:
            raise FormatError(f"{path}: missing {key}=<int> line")
    return fields["width"], fields["height"]


def _read_raw(path: Path) -> Image:
    data = path.read_bytes()  # a missing image is an OS error, not a format one
    meta = _meta_path(path)
    if not meta.exists():
        raise FormatError(f"missing sidecar {meta} for {path}")
    try:
        text = meta.read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{meta}: not ASCII text", offset=exc.start) from None
    width, height = _parse_meta(text, meta)
    expected = width * height * 2
    if len(data) != expected:
        raise FormatError(
            f"{path}: raw data is {len(data)} bytes, expected {expected} "
            f"({width}x{height} 16-bit samples)"
        )
    pixels = np.frombuffer(data, dtype="<i2").astype(np.int16).reshape(height, width)
    return Image(pixels=pixels)


def _write_raw(path: Path, img: Image) -> None:
    _write_files({
        path: np.ascontiguousarray(img.pixels, dtype="<i2").tobytes(),
        _meta_path(path): f"width={img.width}\nheight={img.height}\n".encode("ascii"),
    })


def _read_pgm(path: Path) -> Image:
    data = path.read_bytes()
    pos = 0

    def token(name: str) -> tuple[bytes, int]:
        """The next header token and its offset, after any separators."""
        nonlocal pos
        match = _PGM_TOKEN.match(data, pos)
        pos = match.end()
        if not match[1]:
            raise FormatError(f"{path}: missing {name} in header", offset=match.start(1))
        return match[1], match.start(1)

    magic, start = token("magic number")
    if magic != b"P5":
        raise FormatError(f"{path}: not a binary PGM (expected magic 'P5', got {magic!r})", offset=start)
    numbers = []
    for name in ("width", "height", "maxval"):
        digits, start = token(name)
        if not digits.isdigit():
            raise FormatError(f"{path}: {name} must be an integer, got {digits!r}", offset=start)
        value = int(digits)
        if value <= 0 and name != "maxval":
            raise FormatError(f"{path}: {name} must be positive, got {value}", offset=start)
        numbers.append(value)
    width, height, maxval = numbers
    if maxval != 65535:
        raise FormatError(
            f"{path}: 16-bit grayscale required (maxval 65535), got maxval {maxval}", offset=start
        )
    pos = _PGM_MAXVAL_COMMENT.match(data, pos).end()
    if not data[pos:pos + 1].isspace():
        raise FormatError(f"{path}: expected a single whitespace byte after maxval", offset=pos)
    pos += 1
    expected = width * height * 2
    body = data[pos:]
    if len(body) != expected:
        raise FormatError(
            f"{path}: pixel data is {len(body)} bytes, expected {expected} "
            f"({width}x{height} 16-bit samples)",
            offset=pos,
        )
    samples = np.frombuffer(body, dtype=">u2")
    too_big = np.nonzero(samples > _PGM_MAX)[0]
    if too_big.size:
        idx = int(too_big[0])
        raise FormatError(
            f"{path}: sample {idx} is {int(samples[idx])}, beyond the supported "
            f"range [0, {_PGM_MAX}]",
            offset=pos + 2 * idx,
        )
    pixels = samples.astype(np.int16).reshape(height, width)
    return Image(pixels=pixels)


def _write_pgm(path: Path, img: Image) -> None:
    lo = int(img.pixels.min())
    hi = int(img.pixels.max())
    if lo < 0:
        raise RangeError(
            f"cannot write {path}: pixel value {lo} is negative; PGM holds only "
            f"[0, {_PGM_MAX}] — use the .raw format instead"
        )
    if hi > _PGM_MAX:
        raise RangeError(
            f"cannot write {path}: pixel value {hi} exceeds the supported range [0, {_PGM_MAX}]"
        )
    header = f"P5\n{img.width} {img.height}\n65535\n".encode("ascii")
    _write_files({path: header + np.ascontiguousarray(img.pixels, dtype=">u2").tobytes()})


def read_image(path) -> Image:
    """Read a ``.raw`` (+ ``.meta`` sidecar) or 16-bit ``.pgm`` image."""
    p = Path(path)
    suffix = p.suffix.lower()
    if suffix == ".raw":
        return _read_raw(p)
    if suffix == ".pgm":
        return _read_pgm(p)
    raise ValueError(f"unsupported image extension {p.suffix!r} (expected .raw or .pgm)")


def write_image(path, img: Image) -> None:
    """Write an image in the format implied by the extension (.raw or .pgm)."""
    if not isinstance(img, Image):
        raise ValueError(f"expected an Image, got {type(img).__name__}")
    p = Path(path)
    suffix = p.suffix.lower()
    if suffix == ".raw":
        _write_raw(p, img)
    elif suffix == ".pgm":
        _write_pgm(p, img)
    else:
        raise ValueError(f"unsupported image extension {p.suffix!r} (expected .raw or .pgm)")


# ---------------------------------------------------------------------------
# CLI


def _parse_pair(text: str, what: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"{what} must be 'lo:hi', got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise ValueError(f"{what} must be numeric 'lo:hi', got {text!r}") from None
    return lo, hi


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--t-grid must be 'lo:hi:step', got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"--t-grid must be numeric 'lo:hi:step', got {text!r}") from None
    if not all(math.isfinite(x) for x in (lo, hi, step)):
        raise ValueError(f"--t-grid lo, hi and step must be finite, got {text!r}")
    if step <= 0:
        raise ValueError(f"--t-grid step must be positive, got {step}")
    if hi < lo:
        raise ValueError(f"--t-grid range is empty: {lo} > {hi}")
    span = (hi - lo) / step
    if not math.isfinite(span):
        raise ValueError(f"--t-grid has too many points: {text!r}")
    count = int(np.floor(span + 1e-9)) + 1
    return lo + step * np.arange(count)


def _parse_size(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ValueError(f"--size must be 'WxH', got {text!r}")
    try:
        width, height = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"--size must be integer 'WxH', got {text!r}") from None
    if width <= 0 or height <= 0:
        raise ValueError(f"--size dimensions must be positive, got {text!r}")
    return width, height


def _kernel_from_args(args, t: float) -> KernelSpec:
    return KernelSpec(
        v=VFamily.parse(args.v),
        t=t,
        w=WFamily.parse(args.w),
        n=args.n,
    )


def _cmd_filter(args) -> int:
    spec = _kernel_from_args(args, args.t)
    gate = _parse_pair(args.gate, "--gate") if args.gate else None
    cfg = FilterConfig(spec=spec, hu_gate=gate, border=args.border)
    img = read_image(args.inp)
    out = filter_image(img, cfg, args.iterate)
    write_image(args.out, out)
    return 0


def _cmd_curve(args) -> int:
    spec = _kernel_from_args(args, 0.0)
    grid = _parse_grid(args.t_grid)
    curve = compute_curve(spec, grid, NoiseDistribution.parse(args.dist),
                          trials=args.trials, seed=args.seed)
    _write_files({Path(args.out): curve_to_csv(curve).encode("ascii")})
    return 0


def _cmd_threshold(args) -> int:
    spec = _kernel_from_args(args, 0.0)
    t0 = solve_threshold(
        spec,
        NoiseDistribution.parse(args.dist),
        target=args.target,
        bracket=_parse_pair(args.bracket, "--bracket"),
        tol=args.tol,
        trials=args.trials,
        seed=args.seed,
    )
    print(f"{t0:.9g}")
    return 0


def _cmd_plan(args) -> int:
    model = load_dose_model(args.model) if args.model else DEFAULT_DOSE_MODEL
    if args.solve_t0:
        spec = KernelSpec(v=VFamily.parse(args.v), t=0.0, w=WFamily.power(), n=args.n)
        t0 = solve_threshold(spec, NoiseDistribution.Normal,
                             trials=args.trials, seed=args.seed)
    else:
        t0 = args.t0
    plan = plan_filter(args.dose_fraction, model=model, v=VFamily.parse(args.v),
                       n=args.n, t0=t0)
    print(f"x={plan.x:.9g}")
    print(f"sigma={plan.sigma:.9g}")
    print(f"t0={plan.t0:.9g}")
    print(f"t={plan.t:.9g}")
    if args.apply:
        if not args.inp or not args.out:
            raise ValueError("--apply requires both --in and --out")
        img = read_image(args.inp)
        out = filter_image(img, plan.config())
        write_image(args.out, out)
    elif args.inp or args.out:
        raise ValueError("--in/--out are only used with --apply")
    return 0


def _cmd_calibrate(args) -> int:
    scan = scan_pair(read_image(args.high), read_image(args.low), args.window)
    fit = fit_polynomial(scan.points, args.degree)
    report = format_calibration_report(summarize_points(scan.points), fit, regress_noise(scan))
    files = {Path(args.out): report.encode("ascii")}
    if args.points:
        files[Path(args.points)] = format_points(scan.points)
    _write_files(files)
    return 0


def _cmd_phantom(args) -> int:
    try:
        densities = [float(part) for part in args.densities.split(",")]
    except ValueError:
        raise ValueError(f"--densities must be comma-separated numbers, got {args.densities!r}") from None
    if not densities:
        raise ValueError("--densities must name at least one region")
    width, height = _parse_size(args.size)
    img = synth_phantom(densities, sigma=args.sigma, seed=args.seed, size=(height, width))
    write_image(args.out, img)
    return 0


_V_CHOICES = [v.value for v in VFamily]
_DIST_CHOICES = [d.value for d in NoiseDistribution]
_N_CHOICES = range(1, MAX_SUPPORT_SIZE + 1)


def _add_kernel_options(sub, *, with_t: bool) -> None:
    sub.add_argument("--v", required=True, choices=_V_CHOICES,
                     help="photometric weight family")
    if with_t:
        sub.add_argument("--t", required=True, type=float, help="photometric scale")
    sub.add_argument("--n", required=True, type=int, choices=_N_CHOICES,
                     help="number of rings in the support")
    sub.add_argument("--w", default="power",
                     help="spatial weight family: 'power' or 'gauss:<sigma>' "
                          f"with sigma >= {_SIGMA_D_MIN:.6g}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringbf",
        description="Ring-decomposed bilateral filtering and deviation-reduction analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("filter", help="filter an image")
    p.add_argument("--in", dest="inp", required=True, help="input image (.raw or .pgm)")
    p.add_argument("--out", required=True, help="output image (.raw or .pgm)")
    _add_kernel_options(p, with_t=True)
    p.add_argument("--gate", default=None, help="only filter pixels inside 'lo:hi'")
    p.add_argument("--iterate", type=int, default=1, help="number of passes (default 1)")
    p.add_argument("--border", choices=get_args(BorderPolicy), default="clamp",
                   help="border handling (default clamp)")
    p.set_defaults(handler=_cmd_filter)

    p = sub.add_parser("curve", help="tabulate the deviation-reduction curve K(t)")
    _add_kernel_options(p, with_t=False)
    p.add_argument("--dist", required=True, choices=_DIST_CHOICES,
                   help="noise distribution")
    p.add_argument("--t-grid", dest="t_grid", required=True, help="photometric scales 'lo:hi:step'")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS_CURVE,
                   help="Monte-Carlo trials per point")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(handler=_cmd_curve)

    p = sub.add_parser("threshold", help="solve K(t0) = target for t0")
    _add_kernel_options(p, with_t=False)
    p.add_argument("--dist", required=True, choices=_DIST_CHOICES,
                   help="noise distribution")
    p.add_argument("--target", type=float, default=0.5, help="target reduction (default 0.5)")
    p.add_argument("--bracket", default="0.01:50.0", help="search bracket 'lo:hi'")
    p.add_argument("--tol", type=float, default=1e-3, help="bracket width tolerance")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS_TABLE, help="Monte-Carlo trials")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.set_defaults(handler=_cmd_threshold)

    p = sub.add_parser("plan", help="derive filter settings for a dose fraction")
    p.add_argument("--dose-fraction", dest="dose_fraction", required=True, type=float,
                   help="dose fraction x in the model's domain")
    p.add_argument("--model", default=None, help="dose model file (default: built-in model)")
    p.add_argument("--v", default="frac", choices=_V_CHOICES,
                   help="photometric weight family (default frac)")
    p.add_argument("--n", type=int, default=3, choices=_N_CHOICES,
                   help="number of rings (default 3)")
    p.add_argument("--t0", type=float, default=DEFAULT_THRESHOLD,
                   help=f"unit-scale threshold (default {DEFAULT_THRESHOLD:.2f})")
    p.add_argument("--solve-t0", dest="solve_t0", action="store_true",
                   help="re-derive t0 by Monte-Carlo instead of using --t0")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS_TABLE,
                   help="Monte-Carlo trials for --solve-t0")
    p.add_argument("--seed", type=int, default=0, help="random seed for --solve-t0")
    p.add_argument("--apply", action="store_true", help="also filter an image with the plan")
    p.add_argument("--in", dest="inp", default=None, help="input image for --apply")
    p.add_argument("--out", default=None, help="output image for --apply")
    p.set_defaults(handler=_cmd_plan)

    p = sub.add_parser("calibrate", help="empirical reduction report from an image pair")
    p.add_argument("--high", required=True, help="high-dose image")
    p.add_argument("--low", required=True, help="low-dose image")
    p.add_argument("--window", type=int, default=2, help="window half-size (default 2)")
    p.add_argument("--degree", type=int, default=4, help="trend polynomial degree (default 4)")
    p.add_argument("--out", required=True, help="output report path")
    p.add_argument("--points", default=None,
                   help="also write every per-pixel 't,ratio' point to this file")
    p.set_defaults(handler=_cmd_calibrate)

    p = sub.add_parser("phantom", help="synthesize a banded test image")
    p.add_argument("--densities", required=True, help="comma-separated region values")
    p.add_argument("--sigma", type=float, default=0.0, help="additive noise deviation")
    p.add_argument("--size", default="512x512", help="image size 'WxH' (default 512x512)")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--out", required=True, help="output image (.raw or .pgm)")
    p.set_defaults(handler=_cmd_phantom)

    return parser


# Options whose values may legitimately begin with '-' (negative bounds or
# densities); argparse would otherwise read the value as an option name.
_DASH_VALUE_OPTS = {"--gate", "--bracket", "--densities"}


def _merge_dash_values(argv: list) -> list:
    merged = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (tok in _DASH_VALUE_OPTS and nxt is not None and nxt.startswith("-")
                and any(ch.isdigit() for ch in nxt)):
            merged.append(f"{tok}={nxt}")
            i += 2
        else:
            merged.append(tok)
            i += 1
    return merged


def cli_dispatch(argv) -> int:
    """Run one CLI invocation; returns the process exit code instead of exiting."""
    parser = _build_parser()
    try:
        args = parser.parse_args(_merge_dash_values(list(argv)))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        return args.handler(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))
