"""Every entry point checks its arguments by one rule, before any work.

A count is any integer type and nothing else: ``np.int64(k)`` computes what
``k`` computes, bit for bit, while ``True``, ``float(k)`` and ``str(k)`` are
refused with a ``ValueError`` that names the argument.  On the command line,
every malformed argv ends with a documented exit code, one ``error:`` line or
argparse's usage, an empty stdout and no file left behind.
"""
import contextlib
import io
import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from ringbf.analysis import NoiseDistribution, estimate_K, linear_k0, solve_threshold
from ringbf.calibrate import fit_polynomial, scan_pair
from ringbf.ctmodel import plan_filter, synth_phantom, synth_phantom_values
from ringbf.filter import FilterConfig, Image, filter_image
from ringbf.io_cli import cli_dispatch, write_image
from ringbf.kernel import KernelSpec, VFamily, WFamily, build_rings

_SPEC = KernelSpec(v=VFamily.Frac, t=0.0, n=2)
_NOISY = synth_phantom([80, 160], sigma=30.0, seed=1, size=(20, 20))
_QUIET = synth_phantom([80, 160], sigma=10.0, seed=2, size=(20, 20))
_POINTS = np.column_stack([np.linspace(1, 5, 40), np.cos(np.linspace(1, 5, 40))])


def _scan(half):
    scan = scan_pair(_QUIET, _NOISY, half)
    return scan.points.tobytes(), scan.noise_r.tobytes(), scan.count


def _fit(degree):
    fit = fit_polynomial(_POINTS, degree)
    return type(fit.degree), fit.degree, fit.coefficients, fit.r_squared


# argument: (the name its refusal gives, a call whose result compares bit for bit, a valid k)
_COUNTS = {
    "n-KernelSpec": ("support size n", lambda k: KernelSpec(v=VFamily.Frac, t=1.0, n=k), 3),
    "n-build_rings": ("support size n", lambda k: build_rings(k, WFamily.power()), 3),
    "n-plan_filter": ("support size n", lambda k: plan_filter(0.5, n=k, t0=1.4), 4),
    "n-linear_k0": ("support size n", lambda k: linear_k0(WFamily.gaussian(1.5), k), 5),
    "passes": ("iteration count",
               lambda k: filter_image(_NOISY, FilterConfig(_SPEC.with_t(0.05)), k).pixels.tobytes(), 2),
    "half": ("window half-size", _scan, 2),
    "degree": ("degree", _fit, 3),
    "trials-estimate_K": ("trials", lambda k: estimate_K(_SPEC, 1.0, NoiseDistribution.Normal,
                                                        trials=k, seed=1), 1000),
    "trials-solve_threshold": ("trials", lambda k: solve_threshold(
        _SPEC, NoiseDistribution.Uniform, tol=0.05, trials=k, seed=1), 2000),
    "seed-estimate_K": ("seed", lambda k: estimate_K(_SPEC, 1.0, NoiseDistribution.Uniform,
                                                    trials=1000, seed=k), 7),
    "seed-synth_phantom": ("seed", lambda k: synth_phantom([0, 100], sigma=10.0, seed=k,
                                                           size=(8, 8)).pixels.tobytes(), 7),
    "size-height": ("size[0]", lambda k: synth_phantom_values([0, 100], sigma=10.0, seed=1,
                                                              size=(k, 8)).tobytes(), 9),
    "size-width": ("size[1]", lambda k: synth_phantom_values([0, 100], sigma=10.0, seed=1,
                                                             size=(8, k)).tobytes(), 9),
}


@pytest.mark.parametrize("case", _COUNTS)
def test_every_count_takes_any_integer_type_and_refuses_the_rest(case):
    name, call, k = _COUNTS[case]
    assert call(np.int64(k)) == call(k)
    for bad in (True, float(k), str(k)):
        with pytest.raises(ValueError, match=re.escape(name)):
            call(bad)


# --- the command line: refusals before any work ------------------------------


def _forbid(monkeypatch, *names):
    def fail(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")
    for name in names:
        monkeypatch.setattr(f"ringbf.io_cli.{name}", fail)


_PLAN = ["plan", "--dose-fraction", "0.5", "--solve-t0", "--model", "missing.txt"]
_CURVE = ["curve", "--v", "frac", "--n", "1", "--dist", "normal", "--t-grid", "0:1:1"]
_CALIBRATE = ["calibrate", "--high", "in.raw", "--low", "in.raw"]


@pytest.mark.parametrize("argv, forbidden, message", [
    (_PLAN + ["--apply"], ["load_dose_model", "solve_threshold"], "--apply requires both"),
    (_PLAN + ["--apply", "--in", "in.raw"], ["load_dose_model", "solve_threshold"],
     "--apply requires both"),
    (_PLAN + ["--in", "in.raw"], ["load_dose_model", "solve_threshold"], "only used with --apply"),
    (_PLAN + ["--out", "o.raw"], ["load_dose_model", "solve_threshold"], "only used with --apply"),
    (_PLAN + ["--apply", "--in", "in.raw", "--out", "o.bmp"], ["load_dose_model", "solve_threshold"],
     "unsupported image extension '.bmp'"),
    (["plan", "--dose-fraction", "2", "--solve-t0"], ["solve_threshold"], "dose fraction 2.0"),
    (["filter", "--in", "in.raw", "--out", "o.bmp", "--v", "frac", "--t", "1", "--n", "3"],
     ["read_image"], "unsupported image extension '.bmp'"),
    (["filter", "--in", "in.raw", "--out", "o.raw", "--v", "frac", "--t", "1", "--n", "3",
      "--iterate", "-1"], ["read_image"], "iteration count must be a non-negative integer"),
    (["phantom", "--densities", "0,100", "--size", "8x8", "--out", "p.bmp"], ["synth_phantom"],
     "unsupported image extension '.bmp'"),
    (["calibrate", "--high", "in.raw", "--low", "in.bmp", "--out", "r.txt"], ["read_image"],
     "unsupported image extension '.bmp'"),
    (["calibrate", "--high", "in.raw", "--low", "in.raw", "--window", "0", "--out", "r.txt"],
     ["read_image"], "window half-size"),
    (["calibrate", "--high", "in.raw", "--low", "in.raw", "--degree", "-1", "--out", "r.txt"],
     ["read_image", "scan_pair"], "degree must be a non-negative integer"),
    (_CURVE + ["--out", ""], ["compute_curve"], "output path '' names no file"),
    (_CURVE + ["--out", "missing/k.csv"], ["compute_curve"],
     "output directory 'missing' does not exist"),
    (_CURVE + ["--out", ".."], ["compute_curve"], "output path '..' is a directory"),
    (_CALIBRATE + ["--out", ""], ["read_image", "scan_pair"], "output path '' names no file"),
    (_CALIBRATE + ["--out", "r.txt", "--points", ""], ["read_image", "scan_pair"],
     "output path '' names no file"),
    (_CALIBRATE + ["--out", "r.txt", "--points", "missing/p.csv"], ["read_image", "scan_pair"],
     "output directory 'missing' does not exist"),
    (["filter", "--in", "in.raw", "--out", "missing/o.raw", "--v", "frac", "--t", "1", "--n", "3"],
     ["read_image"], "output directory 'missing' does not exist"),
    (_PLAN + ["--apply", "--in", "in.raw", "--out", "missing/o.raw"],
     ["load_dose_model", "solve_threshold"], "output directory 'missing' does not exist"),
    (["phantom", "--densities", "0,100", "--size", "8x8", "--out", "."], ["synth_phantom"],
     "output path '.' names no file"),
    (["plan", "--dose-fraction", "0.5", "--n", "5", "--model", "missing.txt"],
     ["load_dose_model", "solve_threshold"], "no reference t0 for --v frac --n 5: give --t0 or --solve-t0"),
    (["plan", "--dose-fraction", "0.5", "--model", ""], ["load_dose_model"],
     "model path '' names no file"),
    (_PLAN + ["--t0", "2"], ["load_dose_model", "solve_threshold"],
     "--t0 and --solve-t0 exclude each other"),
    (["plan", "--dose-fraction", "0.5", "--model", "d.raw"], ["load_dose_model"],
     "model path 'd.raw' is a directory"),
    (_PLAN + ["--apply", "--in", "d.raw", "--out", "o.raw"], ["load_dose_model", "solve_threshold"],
     "input path 'd.raw' is a directory"),
    (["filter", "--in", "", "--out", "o.raw", "--v", "frac", "--t", "1", "--n", "3"],
     ["read_image"], "input path '' names no file"),
    (["filter", "--in", "d.raw", "--out", "o.raw", "--v", "frac", "--t", "1", "--n", "3"],
     ["read_image"], "input path 'd.raw' is a directory"),
    (["calibrate", "--high", "d.raw", "--low", "in.raw", "--out", "r.txt"], ["read_image"],
     "input path 'd.raw' is a directory"),
    (["calibrate", "--high", "in.raw", "--low", "", "--out", "r.txt"], ["read_image"],
     "input path '' names no file"),
    (_CALIBRATE + ["--out", "./r.txt", "--points", "d.raw/../r.txt"], ["read_image", "scan_pair"],
     "name the same file"),
], ids=["plan-apply-alone", "plan-apply-without-out", "plan-in-alone", "plan-out-alone",
        "plan-apply-bmp", "plan-dose-outside-model", "filter-bmp", "filter-iterate",
        "phantom-bmp", "calibrate-bmp", "calibrate-window", "calibrate-degree",
        "curve-empty-out", "curve-missing-directory", "curve-out-directory",
        "calibrate-empty-out", "calibrate-empty-points", "calibrate-points-missing-directory",
        "filter-missing-directory", "plan-apply-missing-directory", "phantom-empty-out",
        "plan-n-without-t0", "plan-empty-model", "plan-t0-and-solve-t0", "plan-model-directory",
        "plan-in-directory", "filter-empty-in", "filter-in-directory", "calibrate-high-directory",
        "calibrate-empty-low", "calibrate-points-is-out"])
def test_cli_refuses_misused_options_before_any_work(tmp_path, monkeypatch, capsys, argv,
                                                      forbidden, message):
    monkeypatch.chdir(tmp_path)
    write_image("in.raw", Image(pixels=np.zeros((8, 8), np.int16)))
    os.mkdir("d.raw")  # a directory with an image's name
    _forbid(monkeypatch, *forbidden)
    assert cli_dispatch(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err
    assert sorted(os.listdir()) == ["d.raw", "in.meta", "in.raw"]


# --- the command line: a property over argv ------------------------------------

_ODD = ["nan", "inf", "-inf", "0", "-1", "", "abc"]


def _values(good, bad=()):
    """One of the ``good`` values, or with probability about 1/8 a ``bad`` or an odd one."""
    return st.integers(0, 7).flatmap(
        lambda i: st.sampled_from([*bad, *_ODD] if i == 3 else good))


_FLAG = st.none()
_V_N = [("--v", _values(["frac", "exp", "abs", "quad"])), ("--n", _values(["1", "3", "5"], ["6"]))]
_W = ("--w", _values(["power", "gauss:1.5"], ["gauss:0.01", "gauss:nan"]))
_DIST = ("--dist", _values(["normal", "uniform"]))
_TRIALS = ("--trials", _values(["100", "1000", "2000"], ["99"]))
_SEED = ("--seed", _values(["1", str(2 ** 128 - 1)], ["2.5", str(2 ** 128)]))
_IMAGE_OUT = _values(["o.raw", "o.pgm"], ["o.bmp", ""])
# each subcommand's (options always given, options given or not).  The values bound the
# work: at most 3 passes, 2000 trials, 4 grid points and 64x64 pixels.
_COMMANDS = {
    "filter": ([("--in", _values(["in.raw"], ["in.pgm", "", "d.raw"])), ("--out", _IMAGE_OUT),
                ("--t", _values(["0.05", "1", "3e38"], ["1e39"])), *_V_N],
               [_W, ("--gate", _values(["-100:300", "-inf:200", "-inf:inf"], ["0:nan", "1:0", ""])),
                ("--iterate", _values(["1", "3"])), ("--border", _values(["clamp", "skip"]))]),
    "curve": ([*_V_N, _DIST, _TRIALS, ("--out", _values(["k.csv"], [""])),
               ("--t-grid", _values(["0:2:0.5", "0:3e38:1e38"], ["0:1e39:5e38", "1:0:1"]))],
              [_W, _SEED]),
    "threshold": ([*_V_N, _DIST, _TRIALS],
                  [_W, _SEED, ("--target", _values(["0.5", "0.99"])),
                   ("--bracket", _values(["0.01:50", "0:20"], ["0.01:inf", "5:1"])),
                   ("--tol", _values(["1e-3", "0.1"], ["1e-300", "100"]))]),
    "plan": ([("--dose-fraction", _values(["0.5", "1"], ["2"])), _TRIALS],
             [*_V_N, _SEED, ("--model", _values(["model.txt"], ["missing.txt", "bad.txt", "", "d.raw"])),
              ("--t0", _values(["1.4"], ["1e300"])), ("--solve-t0", _FLAG), ("--apply", _FLAG),
              ("--in", _values(["in.raw"], ["in.bmp", "", "d.raw"])), ("--out", _IMAGE_OUT)]),
    "calibrate": ([("--high", _values(["high.raw"], ["in.bmp", "", "d.raw"])),
                   ("--low", _values(["in.raw"], ["", "d.raw"])),
                   ("--out", _values(["r.txt"], [""]))],
                  [("--window", _values(["1", "2"])), ("--degree", _values(["0", "2"])),
                   ("--points", _values(["p.txt"]))]),
    "phantom": ([("--densities", _values(["0,400", "-50,50"], ["0,1e10"])),
                 ("--size", _values(["8x8", "64x64"], ["0x8", "8"])),
                 ("--out", _values(["p.raw", "p.pgm"], ["p.bmp", ""]))],
                [("--sigma", _values(["10"], ["1e308"])), _SEED]),
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    required, optional = _COMMANDS[command]
    argv = [command]
    for option, values in required + [o for o in optional if draw(st.booleans())]:
        value = draw(values)
        argv += [option] if value is None else [option, value]
    return argv


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
@example(argv=["filter", "--in", "in.raw", "--out", "o.raw", "--t", "1", "--v", "frac", "--n", "3",
               "--gate", ""])
@example(argv=["plan", "--dose-fraction", "0.5", "--trials", "100", "--out", ""])
def test_cli_argv_property(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    if not os.path.exists("in.raw"):
        rng = np.random.default_rng(0)
        for name, sigma in (("in.raw", 30), ("high.raw", 10)):
            write_image(name, Image.from_values(100 + sigma * rng.standard_normal((16, 16))))
        (tmp_path / "model.txt").write_text("313.33 -673.4 423.9 0.25 1.0\n")
        (tmp_path / "bad.txt").write_text("1 2 3\n")
        os.mkdir("d.raw")  # a directory with an image's name
    inputs = sorted(os.listdir())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_dispatch(argv)
    assert code in (0, 1, 2, 3)
    assert code != 0 or not {"", "d.raw"} & set(argv)  # an empty or directory path is refused
    event(f"{argv[0]} exit {code}")
    assert "Traceback" not in err.getvalue()
    written = sorted(set(os.listdir()) - set(inputs))
    for name in written:
        os.remove(name)
    if code == 0:
        assert err.getvalue() == ""
        assert not any(name.endswith(".tmp") for name in written)
    else:
        assert out.getvalue() == ""
        assert written == []
        lines = err.getvalue().splitlines()
        assert lines[0].startswith("usage: ") or (len(lines) == 1 and lines[0].startswith("error: "))
