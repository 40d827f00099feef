"""Properties of the image file formats: round-trips and fuzzed headers."""
import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ringbf.errors import FormatError
from ringbf.filter import Image
from ringbf.io_cli import read_image, write_image

# every example rewrites the same files, so one tmp_path per test is enough
_SETTINGS = settings(max_examples=150, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])

shapes = st.tuples(st.integers(1, 40), st.integers(1, 40))


@_SETTINGS
@given(pixels=shapes.flatmap(lambda shape: arrays(np.int16, shape)))
def test_raw_roundtrip(tmp_path, pixels):
    path = tmp_path / "img.raw"
    write_image(path, Image(pixels=pixels))
    back = read_image(path)
    assert back.pixels.dtype == np.int16
    assert np.array_equal(back.pixels, pixels)


@_SETTINGS
@given(pixels=shapes.flatmap(
    lambda shape: arrays(np.int16, shape, elements=st.integers(0, 32767))))
def test_pgm_roundtrip(tmp_path, pixels):
    path = tmp_path / "img.pgm"
    write_image(path, Image(pixels=pixels))
    back = read_image(path)
    assert back.pixels.dtype == np.int16
    assert np.array_equal(back.pixels, pixels)


def _read_or_format_error(path):
    """Read ``path``; a rejection must be a FormatError or an OSError."""
    try:
        img = read_image(path)
    except (FormatError, OSError):
        return None
    assert img.pixels.dtype == np.int16 and img.pixels.ndim == 2
    return img


_separators = st.lists(
    st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"\x0b", b"\x0c", b"# note\n", b"#", b""]),
    min_size=1, max_size=3,
).map(b"".join)
_numbers = st.one_of(
    st.integers(-3, 70000).map(lambda v: str(v).encode()),
    st.sampled_from([b"65535", b"1_0", b"+4", b"0x10", b"4.0", b"", b"\xff", b"99999999999999999999"]),
    st.binary(max_size=4),
)


@st.composite
def pgm_files(draw):
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    magic = draw(st.sampled_from([b"P5", b"P2", b"P6", b"p5", b"P5P5", b""]))
    tokens = [magic] + [draw(_numbers) for _ in range(draw(st.integers(0, 3)))]
    header = b"".join(tok + draw(_separators) for tok in tokens)
    return header + draw(st.binary(max_size=48))


@_SETTINGS
@given(data=pgm_files())
def test_fuzzed_pgm_raises_only_format_errors(tmp_path, data):
    path = tmp_path / "img.pgm"
    path.write_bytes(data)
    _read_or_format_error(path)


_meta_lines = st.one_of(
    st.tuples(st.sampled_from(["width", "height", " width ", "depth", "", "#width"]),
              st.sampled_from(["=", ":", "==", ""]),
              st.one_of(st.integers(-2, 9).map(str),
                        st.sampled_from(["", "x", "1e1", "٣", "99999999999999999999"]))
              ).map("".join),
    st.text(max_size=12),
)


@st.composite
def meta_files(draw):
    if draw(st.booleans()):
        return draw(st.binary(max_size=40))
    lines = draw(st.lists(_meta_lines, max_size=4))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines).encode("utf-8")


@_SETTINGS
@given(meta=meta_files(), data=st.binary(max_size=40))
def test_fuzzed_meta_raises_only_format_errors(tmp_path, meta, data):
    path = tmp_path / "img.raw"
    path.write_bytes(data)
    (tmp_path / "img.meta").write_bytes(meta)
    img = _read_or_format_error(path)
    if img is not None:
        assert img.pixels.size * 2 == len(data)
