"""The benchmark's three workloads: seeded inputs, CLI script, output checks.

Each workload is a fixed script of ``ringbf`` subcommands.  Its inputs and the
seeds passed to the program come from the benchmark's ``--seed``; the program
sees only the generated files and its argv.  Every output gets a semantic
check rather than a stored digest, because planned changes to the kernels,
the solver and the calibration report legitimately change bytes:

* filtered pixels equal ``quantize(filter_pixel_dense)`` within 1 LSB at
  seeded sample pixels, and out-of-gate pixels pass through bit-exactly;
* solved thresholds match the reference table within 10% where it applies,
  and otherwise K(t0) re-estimated with an independent seed is 0.5 +- 0.02;
* curves, plans, phantoms and the calibration report are checked for the
  properties the paper states.

A check returns a list of problems; an empty list means the output is correct.
"""
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

SIZE = 2048
BANDS = (0.0, 120.0, 400.0)
IMAGE_NOISE = 40.0
FRAC_T = 1.40 / IMAGE_NOISE  # half-deviation scale of Frac n=3 on this noise
EXP_T = 0.67 / IMAGE_NOISE
GATE = (-100.0, 300.0)  # also the default gate of `plan`



def model_sigma(x):
    """Noise (HU) of the default dose model ``313.33 -673.4 423.9`` at dose fraction x."""
    return 313.33 * x * x - 673.4 * x + 423.9


# `plan --apply` runs at dose fraction 1.0 on a flat phantom whose noise is the
# dose model's sigma(1.0), so the planned t matches the noise and the filter
# should halve it.  At 0.5 the model's 165.5 HU noise puts about 23% of a flat
# band outside the gate, and the pass-through pixels keep the deviation ratio
# near 0.9.
PLAN_DOSE = 1.0
PLAN_DENSITY = 100.0
SOLVE_DOSE = 0.5

# Acceptance-01 half-deviation thresholds (n=3, normal noise).
THRESHOLDS = {"abs": 15.05, "frac": 1.40, "quad": 0.77, "exp": 0.67}
THRESHOLD_STEPS = (  # (family, rings, distribution)
    ("frac", 3, "normal"),
    ("exp", 3, "normal"),
    ("abs", 5, "normal"),
    ("quad", 3, "uniform"),
)
RECHECK_TRIALS = 100_000

# |K(0) - linear_k0| over 300 seeds of the 20k-trial curve had a standard
# deviation of 0.002 (largest 0.0058).  The row's own batch std_err is a
# 9-degree-of-freedom estimate: a 4 std_err test failed on 1 seed in 400.
CURVE_K0_TOL = 0.01


@dataclass
class Step:
    """One CLI invocation of a workload's script."""

    name: str
    argv: list
    outputs: list  # files the invocation writes, relative to the work dir
    check: Callable[[Path, str], list]  # (work dir, stdout) -> problems


@dataclass
class Workload:
    steps: list
    slots: dict  # end-to-end metric -> (the name users know it by, step it times)


# ---------------------------------------------------------------------------
# images


def quantize(values):
    """Round half away from zero onto the int16 grid, as ``.raw`` images hold."""
    v = np.asarray(values, dtype=np.float64)
    return np.clip(np.copysign(np.floor(np.abs(v) + 0.5), v), -32768, 32767).astype(np.int16)


def phantom(rng, densities, noise, size=SIZE):
    """Vertical bands of ``densities`` plus normal noise, quantized."""
    cols = np.minimum(np.arange(size) * len(densities) // size, len(densities) - 1)
    base = np.asarray(densities, dtype=np.float64)[cols]
    return quantize(base[np.newaxis, :] + noise * rng.standard_normal((size, size)))


def write_raw(path: Path, pixels):
    path.write_bytes(np.ascontiguousarray(pixels, dtype="<i2").tobytes())
    path.with_suffix(".meta").write_text(
        f"width={pixels.shape[1]}\nheight={pixels.shape[0]}\n", encoding="ascii")


def read_raw(path: Path):
    meta = dict(line.split("=", 1) for line in path.with_suffix(".meta").read_text().split())
    width, height = int(meta["width"]), int(meta["height"])
    return np.fromfile(path, dtype="<i2").reshape(height, width)


def _raw(name):
    return [f"{name}.raw", f"{name}.meta"]


def _band_columns(index, count, size=SIZE):
    """The middle half of band ``index``, clear of the band edges."""
    width = size / count
    return slice(int((index + 0.25) * width), int((index + 0.75) * width))


# ---------------------------------------------------------------------------
# checks


def filter_config(v, t, n, gate=None):
    from ringbf.filter import FilterConfig
    from ringbf.kernel import KernelSpec, VFamily, WFamily

    spec = KernelSpec(v=VFamily.parse(v), t=t, w=WFamily.power(), n=n)
    return FilterConfig(spec=spec, hu_gate=gate)


def _oracle(values, x, y, cfg, passes):
    """Dense-reference output at (x, y) after ``passes`` passes, quantized.

    One pass evaluates the full image (so clamped borders apply); more passes
    need (x, y) far enough from the border that a local window suffices.
    """
    from ringbf.filter import filter_pixel_dense

    if passes == 1:
        return int(quantize(filter_pixel_dense(values, (x, y), cfg)))
    margin = cfg.rings().margin()
    reach = margin * passes
    cur = values[y - reach:y + reach + 1, x - reach:x + reach + 1]
    gate = cfg.hu_gate
    for k in range(1, passes + 1):
        nxt = cur.copy()
        lo, hi = margin * k, 2 * reach - margin * k
        for yy in range(lo, hi + 1):
            for xx in range(lo, hi + 1):
                if gate is None or gate[0] <= cur[yy, xx] <= gate[1]:
                    nxt[yy, xx] = filter_pixel_dense(cur, (xx, yy), cfg)
        cur = nxt
    return int(quantize(cur[reach, reach]))


def _check_filtered(src, values, out_name, cfg, pixels, passes=1):
    def check(work, stdout):
        out = read_raw(work / out_name)
        if out.shape != src.shape:
            return [f"{out_name}: shape {out.shape}, expected {src.shape}"]
        problems = []
        if cfg.hu_gate is not None:
            outside = (src < cfg.hu_gate[0]) | (src > cfg.hu_gate[1])
            changed = int(np.count_nonzero(out[outside] != src[outside]))
            if changed:
                problems.append(f"{out_name}: {changed} out-of-gate pixels changed")
        for x, y in pixels:
            want = _oracle(values, x, y, cfg, passes)
            if abs(int(out[y, x]) - want) > 1:
                problems.append(f"{out_name}: pixel ({x}, {y}) is {out[y, x]}, oracle {want}")
        return problems

    return check


def _sample_pixels(rng, count, border):
    xs = rng.integers(border, SIZE - border, count)
    ys = rng.integers(border, SIZE - border, count)
    return [(int(x), int(y)) for x, y in zip(xs, ys)]


def _parse_fields(stdout):
    return dict(line.split("=", 1) for line in stdout.split())


def _check_plan_apply(src):
    interior = (slice(8, -8), slice(8, -8))

    def check(work, stdout):
        fields = _parse_fields(stdout)
        out = read_raw(work / "planned.raw")
        problems = []
        sigma = model_sigma(PLAN_DOSE)
        if abs(float(fields["sigma"]) - sigma) > 1e-6 * sigma:
            problems.append(f"plan: sigma={fields['sigma']}, expected {sigma}")
        ratio = float(out[interior].std() / src[interior].std())
        if not 0.40 <= ratio <= 0.60:
            problems.append(f"plan --apply: deviation ratio {ratio:.3f} outside [0.40, 0.60]")
        outside = (src < GATE[0]) | (src > GATE[1])
        changed = int(np.count_nonzero(out[outside] != src[outside]))
        if changed:
            problems.append(f"plan --apply: {changed} out-of-gate pixels changed")
        return problems

    return check


def _check_t0(v, n, dist, t0, recheck_seed):
    from ringbf.analysis import NoiseDistribution, estimate_K
    from ringbf.kernel import KernelSpec, VFamily, WFamily

    if n == 3 and dist == "normal":
        ref = THRESHOLDS[v]
        if abs(t0 - ref) > 0.10 * ref:
            return [f"{v} n={n}: t0 {t0:.4g} not within 10% of {ref}"]
        return []
    spec = KernelSpec(v=VFamily.parse(v), t=0.0, w=WFamily.power(), n=n)
    k = estimate_K(spec, t0, NoiseDistribution.parse(dist), trials=RECHECK_TRIALS, seed=recheck_seed).k_hat
    if abs(k - 0.5) > 0.02:
        return [f"{v} n={n} {dist}: K(t0={t0:.4g}) re-estimated as {k:.4f}"]
    return []


def _check_threshold(v, n, dist, recheck_seed):
    def check(work, stdout):
        return _check_t0(v, n, dist, float(stdout), recheck_seed)

    return check


def _check_curve(work, stdout):
    from ringbf.analysis import linear_k0
    from ringbf.kernel import WFamily

    lines = (work / "curve.csv").read_text().splitlines()
    if lines[0] != "t,k_hat,std_err,trials":
        return [f"curve: header {lines[0]!r}"]
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    problems = []
    if len(rows) != 41:
        problems.append(f"curve: {len(rows)} rows, expected 41")
    if any(row[1] >= 1.0 for row in rows):
        problems.append("curve: k_hat >= 1 in some row")
    k0 = linear_k0(WFamily.power(), 3)
    if rows[0][0] != 0.0 or abs(rows[0][1] - k0) > CURVE_K0_TOL:
        problems.append(f"curve: K(0) = {rows[0][1]:.5f}, linear_k0 = {k0:.5f}")
    return problems


def _check_plan_solve(recheck_seed):
    def check(work, stdout):
        fields = {k: float(v) for k, v in _parse_fields(stdout).items()}
        problems = _check_t0("frac", 3, "normal", fields["t0"], recheck_seed)
        sigma = model_sigma(SOLVE_DOSE)
        if abs(fields["sigma"] - sigma) > 1e-6 * sigma:
            problems.append(f"plan: sigma={fields['sigma']}, expected {sigma}")
        if abs(fields["t"] - fields["t0"] / fields["sigma"]) > 1e-6 * fields["t"]:
            problems.append(f"plan: t={fields['t']} is not t0/sigma")
        return problems

    return check


def _check_phantom(name, noise):
    # Quantizing adds a uniform rounding error of variance 1/12.
    expected_std = math.sqrt(noise * noise + 1.0 / 12.0)

    def check(work, stdout):
        img = read_raw(work / f"{name}.raw").astype(np.float64)
        if img.shape != (SIZE, SIZE):
            return [f"{name}: shape {img.shape}"]
        problems = []
        for i, density in enumerate(BANDS):
            band = img[:, _band_columns(i, len(BANDS))]
            if abs(band.mean() - density) > 1.0 or abs(band.std() / expected_std - 1) > 0.03:
                problems.append(f"{name}: band {i} mean {band.mean():.2f}, std {band.std():.2f}")
        return problems

    return check


def _check_report(work, stdout):
    text = (work / "report.txt").read_bytes()
    problems = []
    fit = re.search(rb"^degree(?:,c\d+)+,r_squared\r?\n(\S+)$", text, re.M)
    if not fit or len(fit.group(1).split(b",")) != 7:
        problems.append("calibrate: no degree-4 fit row")
    if not re.search(rb"^term,coefficient,std_error,t_stat,p_value$", text, re.M):
        problems.append("calibrate: no regression table")
    samples = re.search(rb"^samples,(\d+)$", text, re.M)
    if not samples or int(samples.group(1)) != SIZE * SIZE:
        problems.append(f"calibrate: samples row {samples and samples.group(1)!r}")
    s_l = re.search(rb"^s_L,([^,]+),[^,]+,[^,]+,(\S+)$", text, re.M)
    if not s_l or not float(s_l.group(1)) > 0 or not float(s_l.group(2)) < 1e-3:
        problems.append(f"calibrate: s_L row {s_l and s_l.group(0)!r}")
    return problems


# ---------------------------------------------------------------------------
# workloads


def _seed(rng):
    return str(int(rng.integers(0, 2**31 - 1)))


def image_filter(work: Path, rng):
    """Filter one 2048^2 phantom across V families, ring counts and gating."""
    src = phantom(rng, BANDS, IMAGE_NOISE)
    values = src.astype(np.float64)
    flat = phantom(rng, [PLAN_DENSITY], model_sigma(PLAN_DOSE))
    write_raw(work / "phantom.raw", src)
    write_raw(work / "flat.raw", flat)
    pixels = _sample_pixels(rng, 28, 0) + [(0, 0), (SIZE - 1, 0), (0, SIZE - 1), (SIZE - 1, SIZE - 1)]
    interior = _sample_pixels(rng, 12, 16)
    steps = []
    for v, t, n in (("frac", FRAC_T, 1), ("frac", FRAC_T, 3), ("frac", FRAC_T, 5), ("exp", EXP_T, 3)):
        name = f"filter_{v}_n{n}"
        steps.append(Step(
            name,
            ["filter", "--in", "phantom.raw", "--out", f"{name}.raw", "--v", v, "--t", repr(t), "--n", str(n)],
            _raw(name),
            _check_filtered(src, values, f"{name}.raw", filter_config(v, t, n), pixels)))
    steps.append(Step(
        "filter_gate_iter3",
        ["filter", "--in", "phantom.raw", "--out", "gated.raw", "--v", "frac", "--t", repr(FRAC_T),
         "--n", "3", "--gate", f"{GATE[0]:g}:{GATE[1]:g}", "--iterate", "3"],
        _raw("gated"),
        _check_filtered(src, values, "gated.raw", filter_config("frac", FRAC_T, 3, GATE), interior, passes=3)))
    steps.append(Step(
        "plan_apply",
        ["plan", "--dose-fraction", f"{PLAN_DOSE:g}", "--apply", "--in", "flat.raw", "--out", "planned.raw"],
        _raw("planned"),
        _check_plan_apply(flat)))
    return Workload(steps, {
        "step1_s": ("filter_s", "filter_frac_n3"),
        "step2_s": ("filter_iter3_s", "filter_gate_iter3"),
        "step3_s": ("plan_apply_s", "plan_apply"),
    })


def mc_threshold(work: Path, rng):
    """Monte-Carlo thresholds, a K(t) curve and a solved plan; no images."""
    steps = []
    for v, n, dist in THRESHOLD_STEPS:
        steps.append(Step(
            f"threshold_{v}_n{n}_{dist}",
            ["threshold", "--v", v, "--n", str(n), "--dist", dist, "--seed", _seed(rng)],
            [],
            _check_threshold(v, n, dist, int(_seed(rng)))))
    steps.append(Step(
        "curve_exp_n3",
        ["curve", "--v", "exp", "--n", "3", "--dist", "normal", "--t-grid", "0:4:0.1",
         "--seed", _seed(rng), "--out", "curve.csv"],
        ["curve.csv"],
        _check_curve))
    steps.append(Step(
        "plan_solve_t0",
        ["plan", "--dose-fraction", f"{SOLVE_DOSE:g}", "--solve-t0", "--seed", _seed(rng)],
        [],
        _check_plan_solve(int(_seed(rng)))))
    return Workload(steps, {
        "step1_s": ("threshold_s", "threshold_frac_n3_normal"),
        "step2_s": ("curve_s", "curve_exp_n3"),
        "step3_s": ("plan_solve_s", "plan_solve_t0"),
    })


def calibrate_pair(work: Path, rng):
    """Two phantoms from the program, then a calibration report on the pair."""
    densities = ",".join(f"{d:g}" for d in BANDS)
    steps = [
        Step(name,
             ["phantom", "--densities", densities, "--sigma", f"{noise:g}", "--size", f"{SIZE}x{SIZE}",
              "--seed", _seed(rng), "--out", f"{name}.raw"],
             _raw(name),
             _check_phantom(name, noise))
        for name, noise in (("high", 10.0), ("low", 40.0))
    ]
    steps.append(Step(
        "calibrate",
        ["calibrate", "--high", "high.raw", "--low", "low.raw", "--out", "report.txt"],
        ["report.txt"],
        _check_report))
    return Workload(steps, {
        "step1_s": ("phantom_s", "high"),
        "step2_s": ("calibrate_s", "calibrate"),
        "step3_s": ("phantom_low_s", "low"),
    })


WORKLOADS = {
    "image_filter": image_filter,
    "mc_threshold": mc_threshold,
    "calibrate_pair": calibrate_pair,
}
