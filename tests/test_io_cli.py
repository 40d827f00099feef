"""Image container formats and the command-line interface."""
import errno
import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ringbf
from ringbf.calibrate import format_points, scan_pair, summarize_points
from ringbf.errors import FormatError, RangeError
from ringbf.filter import Image
from ringbf.io_cli import _write_files, cli_dispatch, read_image, write_image


def _img(rows):
    return Image.from_values(np.array(rows, dtype=np.int16))


# --- raw format -------------------------------------------------------------


def test_raw_roundtrip_and_exact_bytes(tmp_path):
    img = _img([[-100, 0], [300, 1000]])
    path = tmp_path / "img.raw"
    write_image(path, img)
    assert path.read_bytes() == bytes(
        [0x9C, 0xFF, 0x00, 0x00, 0x2C, 0x01, 0xE8, 0x03]
    )
    assert (tmp_path / "img.meta").read_text() == "width=2\nheight=2\n"
    back = read_image(path)
    assert np.array_equal(back.values(), img.values())


class _FullDisk(io.FileIO):
    """An unbuffered file whose every write stores one byte and then fails."""

    def write(self, data):
        super().write(bytes(data[:1]))
        raise OSError(errno.ENOSPC, "No space left on device")


def _fail_writes_to(monkeypatch, marker):
    """Make every write to a file whose name contains ``marker`` fail part-way."""
    real = Path.open

    def open_(self, mode="r", *args, **kwargs):
        if marker in self.name and "w" in mode:
            return _FullDisk(self, mode)
        return real(self, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", open_)


def test_raw_write_failure_keeps_existing_pair(tmp_path, monkeypatch):
    path = tmp_path / "img.raw"
    old = _img([[1, 2, 3], [4, 5, 6]])
    write_image(path, old)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    _fail_writes_to(monkeypatch, ".meta")
    with pytest.raises(OSError):
        write_image(path, _img([[7, 8], [9, 10], [11, 12]]))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before  # no temp file left
    assert np.array_equal(read_image(path).values(), old.values())


def test_raw_missing_sidecar_names_it(tmp_path):
    path = tmp_path / "img.raw"
    path.write_bytes(b"\x00\x00")
    with pytest.raises(FormatError, match="img.meta"):
        read_image(path)


def test_raw_meta_errors(tmp_path):
    path = tmp_path / "img.raw"
    meta = tmp_path / "img.meta"
    path.write_bytes(b"\x00" * 8)
    for text in (
        "width=2\n",  # height missing
        "width=2\nheight=2\nwidth=2\n",  # duplicate
        "width=0\nheight=4\n",  # non-positive
        "width=2 height=2\n",  # malformed line
        "width=two\nheight=2\n",  # non-integer
    ):
        meta.write_text(text)
        with pytest.raises(FormatError):
            read_image(path)
    # sizes are ASCII decimal digits only: no sign, no '_' separator
    for text in ("width=+2\nheight=2\n", "width=2\nheight=0_2\n", "width=6_5535\nheight=2\n",
                 "width=-2\nheight=2\n"):
        meta.write_text(text)
        with pytest.raises(FormatError, match="must be an integer"):
            read_image(path)
    meta.write_text("# comment line\nwidth=2\nheight=2\n")
    assert read_image(path).width == 2


def test_raw_meta_non_ascii_exits_two(tmp_path, capsys):
    path = tmp_path / "img.raw"
    path.write_bytes(b"\x00" * 8)
    (tmp_path / "img.meta").write_bytes(b"width=2\nheight=2\n# caf\xe9\n")
    with pytest.raises(FormatError, match="img.meta"):
        read_image(path)
    rc = cli_dispatch(["filter", "--in", str(path), "--out", str(tmp_path / "o.raw"),
                       "--v", "frac", "--t", "1", "--n", "3"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_raw_data_size_mismatch(tmp_path):
    path = tmp_path / "img.raw"
    (tmp_path / "img.meta").write_text("width=3\nheight=2\n")
    path.write_bytes(b"\x00" * 8)  # needs 12
    with pytest.raises(FormatError):
        read_image(path)


# --- 16-bit PGM -------------------------------------------------------------


def test_pgm_roundtrip_and_layout(tmp_path):
    img = _img([[0, 1], [32767, 513]])
    path = tmp_path / "img.pgm"
    write_image(path, img)
    data = path.read_bytes()
    assert data.startswith(b"P5\n2 2\n65535\n")
    body = data[len(b"P5\n2 2\n65535\n"):]
    assert body == b"\x00\x00\x00\x01\x7f\xff\x02\x01"  # big-endian samples
    assert np.array_equal(read_image(path).values(), img.values())


def test_pgm_negative_values_are_rejected_on_write(tmp_path):
    with pytest.raises(RangeError, match="raw"):
        write_image(tmp_path / "img.pgm", _img([[-1]]))


def test_pgm_header_comments(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5 # magic\n# a comment line\n2 1 # size\n65535\n\x00\x05\x00\x07")
    assert read_image(path).values().tolist() == [[5, 7]]
    # a comment may start right after a token, maxval included; the line end
    # that closes a comment after maxval is the one whitespace byte
    for header in (b"P5# note\n2 1\n65535\n", b"P5\n2 1# c\n65535\n",
                   b"P5\n2#c\n1 65535\n", b"P5\n2 1\n65535# c\n", b"P5\n2 1\n65535# c\r"):
        path.write_bytes(header + b"\x00\x05\x00\x07")
        assert read_image(path).values().tolist() == [[5, 7]]
    # a comment after maxval must end at a line end before the samples; if
    # none does, the error points at the '#'
    path.write_bytes(b"P5\n2 1\n65535#\x00\x05\x00\x07")
    with pytest.raises(FormatError, match="whitespace byte after maxval") as err:
        read_image(path)
    assert err.value.offset == 12


def test_pgm_errors(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P6\n2 2\n65535\n" + b"\x00" * 8)
    with pytest.raises(FormatError):
        read_image(path)
    path.write_bytes(b"P5\n2 2\n255\n" + b"\x00" * 8)
    with pytest.raises(FormatError, match="offset"):
        read_image(path)
    path.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 7)  # truncated body
    with pytest.raises(FormatError):
        read_image(path)
    path.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 10)  # trailing junk
    with pytest.raises(FormatError):
        read_image(path)
    # header numbers are ASCII decimal digits only: no sign, no '_' separator
    for header in (b"P5\n+2 2\n65535\n", b"P5\n2 0_2\n65535\n", b"P5\n2 2\n6_5535\n",
                   b"P5\n-3 2\n65535\n"):
        path.write_bytes(header + b"\x00" * 8)
        with pytest.raises(FormatError, match="must be an integer"):
            read_image(path)


def test_cli_non_digit_header_exits_two(tmp_path, capsys):
    inp = tmp_path / "in.pgm"
    inp.write_bytes(b"P5\n1_0 1\n65535\n" + b"\x00" * 20)
    rc = cli_dispatch(["filter", "--in", str(inp), "--out", str(tmp_path / "o.pgm"),
                       "--v", "frac", "--t", "1", "--n", "3"])
    assert rc == 2
    assert "width must be an integer, got b'1_0'" in capsys.readouterr().err
    assert not (tmp_path / "o.pgm").exists()


def test_pgm_sample_above_int16_range_reports_offset(tmp_path):
    path = tmp_path / "img.pgm"
    header = b"P5\n2 1\n65535\n"
    path.write_bytes(header + b"\x00\x01\x80\x00")  # second sample = 32768
    with pytest.raises(FormatError, match=f"offset {len(header) + 2}"):
        read_image(path)


def test_unsupported_extension(tmp_path):
    with pytest.raises(ValueError):
        write_image(tmp_path / "img.png", _img([[1]]))
    (tmp_path / "img.txt").write_text("x")
    with pytest.raises(ValueError):
        read_image(tmp_path / "img.txt")


# --- command-line interface -------------------------------------------------


def test_cli_help_exits_zero(capsys):
    assert cli_dispatch(["--help"]) == 0
    assert "filter" in capsys.readouterr().out


def _python_m_ringbf(*args):
    """Run ``python *args`` with this checkout's ``ringbf`` importable."""
    src = str(Path(ringbf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def test_python_m_ringbf_runs_the_cli_without_warnings():
    proc = _python_m_ringbf("-m", "ringbf", "--help")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "phantom" in proc.stdout


@pytest.mark.parametrize("command", [
    ["filter", "--in", "{phantom}", "--out", "{out}.raw", "--v", "quad", "--t", "1e7", "--n", "1"],
    ["filter", "--in", "{phantom}", "--out", "{out}.raw", "--v", "frac", "--t", "3e38", "--n", "3"],
    ["curve", "--v", "quad", "--n", "1", "--dist", "normal", "--t-grid", "0:3e38:1e38",
     "--trials", "1000", "--out", "{out}.csv"],
])
def test_scales_that_overflow_float32_run_without_warnings(tmp_path, command):
    # a scaled difference beyond float32 is weight 0 by design, not a warning
    phantom = tmp_path / "phantom.raw"
    assert cli_dispatch(["phantom", "--densities", "0,400", "--sigma", "40",
                         "--size", "64x64", "--out", str(phantom)]) == 0
    args = [a.format(phantom=phantom, out=tmp_path / "out") for a in command]
    proc = _python_m_ringbf("-W", "error", "-m", "ringbf", *args)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert Path(args[args.index("--out") + 1]).exists()


# Prints the exit code of ``cli_dispatch(argv)`` (no call without argv) and
# the scipy modules loaded by then.
_SCIPY_PROBE = """
import sys
import ringbf
code = ringbf.cli_dispatch(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(code, sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""


# The package depends on numpy alone: no command loads scipy.
@pytest.mark.parametrize("command", [
    [],
    ["--help"],
    ["filter", "--in", "{img}", "--out", "{out}.raw", "--v", "frac", "--t", "1", "--n", "3"],
    ["plan", "--dose-fraction", "1.0", "--apply", "--in", "{img}", "--out", "{out}.raw"],
    ["threshold", "--v", "frac", "--n", "3", "--dist", "uniform", "--trials", "2000"],
    ["curve", "--v", "frac", "--n", "3", "--dist", "uniform", "--t-grid", "0:2:1",
     "--trials", "1000", "--out", "{out}.csv"],
    ["threshold", "--v", "frac", "--n", "3", "--dist", "normal", "--trials", "2000"],
    ["curve", "--v", "frac", "--n", "3", "--dist", "normal", "--t-grid", "0:2:1",
     "--trials", "1000", "--out", "{out}.csv"],
    ["plan", "--dose-fraction", "0.5", "--solve-t0", "--trials", "2000"],
    ["phantom", "--densities", "0,400", "--sigma", "40", "--size", "16x16",
     "--out", "{out}.raw"],
    ["calibrate", "--high", "{high}", "--low", "{img}", "--out", "{out}.txt"],
], ids=["import", "help", "filter", "plan-apply", "threshold-uniform", "curve-uniform",
        "threshold-normal", "curve-normal", "plan-solve-t0", "phantom-sigma", "calibrate"])
def test_scipy_is_loaded_only_by_the_commands_that_call_it(tmp_path, command):
    low = np.random.default_rng(5).integers(-200, 600, (16, 16))
    img, high = tmp_path / "in.raw", tmp_path / "high.raw"
    write_image(img, _img(low))
    write_image(high, _img(low // 2))
    args = [a.format(img=img, high=high, out=tmp_path / "out") for a in command]
    proc = _python_m_ringbf("-c", _SCIPY_PROBE, *args)
    assert proc.returncode == 0, proc.stderr
    code, loaded = proc.stdout.splitlines()[-1].split(" ", 1)
    assert code == "0", proc.stderr
    assert loaded == "[]"


def test_cli_filter_constant_image_is_fixed_point(tmp_path):
    inp, out = tmp_path / "a.raw", tmp_path / "b.raw"
    write_image(inp, _img([[100] * 8] * 8))
    rc = cli_dispatch(
        ["filter", "--in", str(inp), "--out", str(out), "--v", "frac",
         "--t", "0.02", "--n", "3"]
    )
    assert rc == 0
    assert np.array_equal(read_image(out).values(), read_image(inp).values())


def test_cli_filter_accepts_negative_gate_and_pgm_output(tmp_path):
    inp, out = tmp_path / "a.raw", tmp_path / "b.pgm"
    write_image(inp, _img([[50, 60], [70, 80]]))
    rc = cli_dispatch(
        ["filter", "--in", str(inp), "--out", str(out), "--v", "frac",
         "--t", "0.02", "--n", "1", "--gate", "-100:300", "--iterate", "2"]
    )
    assert rc == 0
    assert read_image(out).values().shape == (2, 2)


def test_cli_filter_runs_are_reproducible(tmp_path):
    inp = tmp_path / "in.raw"
    rc = cli_dispatch(
        ["phantom", "--densities", "0,120", "--sigma", "25", "--size", "24x16",
         "--seed", "5", "--out", str(inp)]
    )
    assert rc == 0
    img = read_image(inp)
    assert (img.height, img.width) == (16, 24)
    outs = []
    for name in ("o1.raw", "o2.raw"):
        out = tmp_path / name
        assert cli_dispatch(
            ["filter", "--in", str(inp), "--out", str(out), "--v", "exp",
             "--t", "0.05", "--n", "2", "--w", "gauss:2.0", "--border", "skip"]
        ) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cli_curve_writes_deterministic_csv(tmp_path):
    csvs = []
    for name in ("c1.csv", "c2.csv"):
        out = tmp_path / name
        rc = cli_dispatch(
            ["curve", "--v", "frac", "--n", "3", "--dist", "normal",
             "--t-grid", "0.5:1.5:0.5", "--trials", "2000", "--out", str(out)]
        )
        assert rc == 0
        csvs.append(out.read_text())
    assert csvs[0] == csvs[1]
    lines = csvs[0].splitlines()
    assert lines[0] == "t,k_hat,std_err,trials"
    assert len(lines) == 4
    assert all(line.endswith(",2000") for line in lines[1:])
    ks = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(0.0 < k < 1.0 for k in ks)


def test_cli_threshold_solves_near_reference(capsys):
    rc = cli_dispatch(
        ["threshold", "--v", "frac", "--n", "3", "--dist", "normal",
         "--trials", "20000", "--bracket", "1.2:1.6", "--tol", "2e-3"]
    )
    assert rc == 0
    t0 = float(capsys.readouterr().out.strip())
    assert 1.2 < t0 < 1.6
    assert t0 == pytest.approx(1.40, rel=0.10)


def test_cli_plan_prints_settings(capsys):
    rc = cli_dispatch(["plan", "--dose-fraction", "1.0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out == (
        f"x=1\nsigma=63.83\nt0=1.4\nt={1.4 / 63.83:.9g}\n"
    )


def test_cli_plan_reads_model_file(tmp_path, capsys):
    model = tmp_path / "model.txt"
    model.write_text("0.0 0.0 50.0 0.0 2.0\n")  # constant sigma = 50
    rc = cli_dispatch(
        ["plan", "--dose-fraction", "2.0", "--model", str(model), "--t0", "1.0"]
    )
    assert rc == 0
    assert "sigma=50\n" in capsys.readouterr().out


def test_cli_plan_apply_filters_image(tmp_path, capsys):
    inp, out = tmp_path / "in.raw", tmp_path / "out.raw"
    assert cli_dispatch(
        ["phantom", "--densities", "100", "--sigma", "30", "--size", "32x32",
         "--seed", "2", "--out", str(inp)]
    ) == 0
    rc = cli_dispatch(
        ["plan", "--dose-fraction", "0.5", "--apply", "--in", str(inp),
         "--out", str(out)]
    )
    assert rc == 0
    capsys.readouterr()
    before = read_image(inp).values()[4:-4, 4:-4].astype(np.float64)
    after = read_image(out).values()[4:-4, 4:-4].astype(np.float64)
    assert after.std() < before.std()


def _phantom_pair(tmp_path):
    low, high = tmp_path / "low.raw", tmp_path / "high.raw"
    assert cli_dispatch(
        ["phantom", "--densities", "80,160", "--sigma", "40", "--size", "32x32",
         "--seed", "3", "--out", str(low)]
    ) == 0
    assert cli_dispatch(
        ["phantom", "--densities", "80,160", "--sigma", "15", "--size", "32x32",
         "--seed", "4", "--out", str(high)]
    ) == 0
    return high, low


def test_cli_calibrate_end_to_end(tmp_path):
    high, low = _phantom_pair(tmp_path)
    report = tmp_path / "report.txt"
    rc = cli_dispatch(
        ["calibrate", "--high", str(high), "--low", str(low), "--degree", "2",
         "--out", str(report)]
    )
    assert rc == 0
    lines = report.read_text().splitlines()
    assert lines[0] == "t_lo,t_hi,count,t_mean,ratio_mean,ratio_std"
    blank = lines.index("")
    rows = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:blank]])
    pts = scan_pair(read_image(high), read_image(low)).points
    assert rows[:, 2].sum() == len(pts) == 32 * 32
    # the report rounds edges to 9 digits, so bin membership uses the exact ones
    summary = summarize_points(pts)
    assert np.allclose(rows[:, 0], summary.t_lo, rtol=1e-8, atol=0)
    assert np.allclose(rows[:, 1], summary.t_hi, rtol=1e-8, atol=0)
    t, ratio = pts[:, 0], pts[:, 1]
    last = len(rows) - 1
    for i, (t_lo, t_hi, row) in enumerate(zip(summary.t_lo, summary.t_hi, rows)):
        inside = (t >= t_lo) & ((t < t_hi) | ((i == last) & (t <= t_hi)))
        assert inside.sum() == row[2]
        assert row[3] == pytest.approx(t[inside].mean(), rel=1e-8)
        assert row[4] == pytest.approx(ratio[inside].mean(), rel=1e-8)
    assert not any(line.startswith(("samples,", "s_L,")) for line in lines[:blank])
    assert lines[blank + 1] == "degree,c0,c1,c2,r_squared"
    assert len(lines[blank + 2].split(",")) == 5
    tbl = lines.index("term,coefficient,std_error,t_stat,p_value")
    assert [line.split(",")[0] for line in lines[tbl + 1:tbl + 4]] == ["intercept", "s_L", "f_a"]
    assert lines[-2:] == ["samples,1024", "dof,1021"]
    assert not (tmp_path / "points.txt").exists()


def test_cli_calibrate_points_file_is_the_full_point_list(tmp_path):
    high, low = _phantom_pair(tmp_path)
    report, points = tmp_path / "report.txt", tmp_path / "points.txt"
    rc = cli_dispatch(
        ["calibrate", "--high", str(high), "--low", str(low), "--out", str(report),
         "--points", str(points)]
    )
    assert rc == 0
    pts = scan_pair(read_image(high), read_image(low)).points
    # the (t, ratio) block that earlier reports began with, byte for byte
    rows = "".join(f"{t:.9g},{r:.9g}\n" for t, r in pts)
    assert points.read_bytes() == ("t,ratio\n" + rows).encode("ascii")
    assert report.read_text().startswith("t_lo,t_hi,count,")


def test_cli_calibrate_write_failure_keeps_old_report(tmp_path, monkeypatch, capsys):
    high, low = _phantom_pair(tmp_path)
    report = tmp_path / "report.txt"
    report.write_text("old report\n")
    before = sorted(p.name for p in tmp_path.iterdir())
    # the report is written whole; the point list block by block, after it
    for marker in ("report.txt", "points.txt"):
        with monkeypatch.context() as patch:
            _fail_writes_to(patch, marker)
            rc = cli_dispatch(["calibrate", "--high", str(high), "--low", str(low),
                               "--out", str(report), "--points", str(tmp_path / "points.txt")])
        assert rc == 1
        assert "No space left" in capsys.readouterr().err
        assert report.read_text() == "old report\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_calibrate_holds_the_points_not_full_size_maps_or_designs(tmp_path):
    for name, sigma, seed in (("high", "10", "1"), ("low", "40", "2")):
        assert cli_dispatch(["phantom", "--densities", "0,120,400", "--sigma", sigma,
                             "--size", "512x512", "--seed", seed,
                             "--out", str(tmp_path / f"{name}.raw")]) == 0
    tracemalloc.start()
    try:
        rc = cli_dispatch(["calibrate", "--high", str(tmp_path / "high.raw"),
                           "--low", str(tmp_path / "low.raw"), "--out", str(tmp_path / "r.txt")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    # the (t, ratio) array of every pixel, plus at most two half-size
    # temporaries of the binned summary at a time; whole-image maps and
    # design matrices take the peak past five point arrays
    points_bytes = 512 * 512 * 2 * 8
    assert peak < 3 * points_bytes


def test_points_are_written_without_holding_their_whole_text(tmp_path):
    rng = np.random.default_rng(3)
    pts = np.column_stack([rng.uniform(0, 60, 300_000), rng.uniform(0, 1.2, 300_000)])
    path = tmp_path / "points.txt"
    tracemalloc.start()
    try:
        _write_files({path: format_points(pts)})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 6_000_000
    assert peak < size / 3  # one block of text at a time, not the joined list
    assert path.read_bytes() == b"".join(format_points(pts))


def test_cli_usage_errors_exit_one(tmp_path, capsys):
    inp = tmp_path / "in.raw"
    write_image(inp, _img([[1]]))
    assert cli_dispatch(["filter", "--in", str(inp), "--out", "o.raw",
                         "--v", "nope", "--t", "1", "--n", "3"]) == 1
    assert cli_dispatch(["nonsense"]) == 1
    assert cli_dispatch([]) == 1
    assert cli_dispatch(["filter", "--in", str(inp), "--out", str(inp),
                         "--v", "frac", "--t", "1", "--n", "3",
                         "--gate", "abc"]) == 1
    assert cli_dispatch(["plan", "--dose-fraction", "1.0", "--apply"]) == 1
    assert cli_dispatch(["plan", "--dose-fraction", "1.0",
                         "--in", "x.raw"]) == 1
    capsys.readouterr()


def test_cli_filter_scale_beyond_float32_exits_one(tmp_path, capsys):
    inp = tmp_path / "in.raw"
    write_image(inp, _img([[0, 0, 0], [0, 0, 100], [0, 0, 0]]))
    out = tmp_path / "out.raw"
    rc = cli_dispatch(["filter", "--in", str(inp), "--out", str(out),
                       "--v", "frac", "--t", "1e39", "--n", "1"])
    assert rc == 1
    assert "scale t" in capsys.readouterr().err
    assert not out.exists()


def test_cli_curve_scale_beyond_float32_exits_one(tmp_path, capsys):
    out = tmp_path / "k.csv"
    rc = cli_dispatch(["curve", "--v", "frac", "--n", "3", "--dist", "normal",
                       "--t-grid", "0:1e39:5e38", "--trials", "1000", "--out", str(out)])
    assert rc == 1
    assert "scale t" in capsys.readouterr().err
    assert not out.exists()


def test_cli_request_too_large_for_memory_exits_one(tmp_path, capsys):
    # 10**18 grid points: 8 EB, more than any machine can allocate
    out = tmp_path / "k.csv"
    rc = cli_dispatch(["curve", "--v", "frac", "--n", "3", "--dist", "normal",
                       "--t-grid", "0:1e9:1e-9", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2**128)], ids=["negative", "2**128"])
def test_cli_seed_outside_the_key_range_exits_one(capsys, seed):
    rc = cli_dispatch(["threshold", "--v", "frac", "--n", "3", "--dist", "uniform",
                       "--trials", "1000", "--seed", seed])
    assert rc == 1
    assert capsys.readouterr().err == f"error: seed must be in [0, 2**128), got {seed}\n"


def test_cli_threshold_infinite_bracket_exits_one(capsys):
    rc = cli_dispatch(["threshold", "--v", "frac", "--n", "3", "--dist", "normal",
                       "--trials", "1000", "--bracket", "0.01:inf"])
    assert rc == 1
    assert "scale t" in capsys.readouterr().err


def test_cli_gaussian_sigma_below_bound_exits_one(tmp_path, capsys):
    inp = tmp_path / "in.raw"
    write_image(inp, _img([[100, 200], [300, 400]]))
    for argv in (["filter", "--in", str(inp), "--out", str(tmp_path / "o.raw"), "--t", "0.02"],
                 ["threshold", "--dist", "normal"]):
        rc = cli_dispatch(argv + ["--v", "frac", "--n", "3", "--w", "gauss:1e-200"])
        assert rc == 1
        assert "sigma_d >= 0.0375718" in capsys.readouterr().err
    assert not (tmp_path / "o.raw").exists()


@pytest.mark.parametrize("grid", ["0:inf:1", "0:nan:1", "0:1:inf", "nan:1:0.5",
                                  "0:1.7e308:1e-300"])
def test_cli_curve_non_finite_grid_is_a_usage_error(tmp_path, capsys, grid):
    out = tmp_path / "k.csv"
    rc = cli_dispatch(["curve", "--v", "frac", "--n", "3", "--dist", "normal",
                       "--t-grid", grid, "--trials", "1000", "--out", str(out)])
    assert rc == 1
    assert "error: --t-grid" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("coefficients", [
    "nan 0 1",
    # vertex at x = 0.5025, where sigma dips to -1 between grid points
    f"1e6 {-2e6 * 0.5025!r} {1e6 * 0.5025 ** 2 - 1!r}",
])
def test_cli_plan_rejects_bad_model_file(tmp_path, capsys, coefficients):
    model = tmp_path / "model.txt"
    model.write_text(f"{coefficients} 0 1\n")
    assert cli_dispatch(["plan", "--dose-fraction", "0.5", "--model", str(model)]) == 2
    assert "noise model" in capsys.readouterr().err


def test_cli_bad_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P5\n2 2\n255\n" + b"\x00" * 8)
    rc = cli_dispatch(["filter", "--in", str(bad), "--out", str(tmp_path / "o.raw"),
                       "--v", "frac", "--t", "1", "--n", "3"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["nan", "inf"])
def test_cli_threshold_non_finite_target_exits_one(capsys, target):
    rc = cli_dispatch(["threshold", "--v", "frac", "--n", "3", "--dist", "normal",
                       "--trials", "1000", "--target", target])
    assert rc == 1
    assert "target must be finite" in capsys.readouterr().err


# a tol at least the bracket width (49.99 for the default bracket) would
# print the bracket midpoint, 25.005, without one bisection
@pytest.mark.parametrize("tol", ["inf", "nan", "0", "60", repr(50.0 - 0.01)])
def test_cli_threshold_tol_outside_bracket_width_exits_one(capsys, tol):
    rc = cli_dispatch(["threshold", "--v", "frac", "--n", "3", "--dist", "normal",
                       "--trials", "2000", "--tol", tol])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: tol must satisfy 0 < tol < bracket width" in captured.err


def test_cli_threshold_unreachable_tol_exits_three(capsys):
    rc = cli_dispatch(["threshold", "--v", "frac", "--n", "3", "--dist", "normal",
                       "--trials", "2000", "--tol", "1e-300"])
    assert rc == 3
    assert "did not reach tol=1e-300 within 80 iterations" in capsys.readouterr().err


@pytest.mark.parametrize("option", [["--densities", "nan,0"], ["--densities", "0,inf"],
                                    ["--densities", "0", "--sigma", "inf"],
                                    ["--densities", "0", "--sigma", "nan"]],
                         ids=["densities-nan", "densities-inf", "sigma-inf", "sigma-nan"])
def test_cli_phantom_non_finite_input_exits_one(tmp_path, capsys, option):
    out = tmp_path / "p.raw"
    rc = cli_dispatch(["phantom", *option, "--size", "8x8", "--out", str(out)])
    assert rc == 1
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_cli_numerical_failure_exits_three(capsys):
    rc = cli_dispatch(
        ["threshold", "--v", "frac", "--n", "3", "--dist", "normal",
         "--trials", "2000", "--bracket", "5:10"]
    )
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_cli_missing_input_file_exits_one(tmp_path, capsys):
    rc = cli_dispatch(["filter", "--in", str(tmp_path / "absent.raw"),
                       "--out", str(tmp_path / "o.raw"),
                       "--v", "frac", "--t", "1", "--n", "3"])
    assert rc == 1
    capsys.readouterr()
