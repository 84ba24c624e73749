import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from edgematch import Disk, GrayImage, PgmFormatError, Rect, load_pgm, render_shapes, save_pgm


def test_p2_parse_with_comments():
    data = b"P2\n# a comment\n3 2\n# another\n255\n0 128 255\n64 32 16\n"
    img = load_pgm(data)
    assert (img.width, img.height) == (3, 2)
    expected = np.array([[0, 128, 255], [64, 32, 16]]) / 255.0
    assert np.array_equal(img.pixels, expected)


@pytest.mark.parametrize(
    "data,samples",
    [
        (b"P2\n2 2\n255\n1 # c 9\n2\n3 4\n", [[1, 2], [3, 4]]),  # comment ended by LF
        (b"P2\n2 2\n255\n1 # c 9\r2\r3 4\r", [[1, 2], [3, 4]]),  # comment ended by CR
        (b"P2\n2 1\n255\n12#c\n34#c", [[12, 34]]),  # samples glued to comments
        (b"P2\n2 1\n255#c\n7 8", [[7, 8]]),  # maxval glued to a comment
        (b"P2\n2 1\n255\n#c#c\n# \n5\n#\n6", [[5, 6]]),  # comments on their own lines
        (b"P2\n2 1\n255\n+5 1_0\n", [[5, 10]]),  # read by int()
        (b"P2\n3 1\n255\n1\x0c2\x0b3", [[1, 2, 3]]),  # form feed and vertical tab
    ],
)
def test_p2_tokenizing(data, samples):
    img = load_pgm(data)
    assert img.pixels.dtype == np.float64
    assert np.array_equal(img.pixels, np.array(samples) / 255.0)


def test_p2_and_p5_of_a_scene_agree():
    img = render_shapes(512, 512, [Disk(200.0, 180.0, 90.0, 0.8),
                                   Rect(300.0, 320.0, 150.0, 100.0, 0.45)], background=0.1)
    from_ascii = load_pgm(save_pgm(img, ascii=True))
    from_binary = load_pgm(save_pgm(img))
    assert from_ascii.pixels.shape == (512, 512)
    assert np.array_equal(from_ascii.pixels, from_binary.pixels)


def test_p5_8bit_parse():
    data = b"P5\n2 2\n255\n" + bytes([0, 255, 10, 20])
    img = load_pgm(data)
    assert np.array_equal(img.pixels, np.array([[0, 255], [10, 20]]) / 255.0)


def test_p5_16bit_big_endian():
    samples = [0, 65535, 256, 1]
    payload = b"".join(v.to_bytes(2, "big") for v in samples)
    img = load_pgm(b"P5\n2 2\n65535\n" + payload)
    assert np.array_equal(
        img.pixels, np.array([[0, 65535], [256, 1]]) / 65535.0
    )


def test_maxval_normalization():
    img = load_pgm(b"P2\n1 1\n100\n50\n")
    assert img.pixels[0, 0] == 0.5


def test_save_p5_round_trip_is_idempotent():
    rng = np.random.default_rng(11)
    img = GrayImage.from_array(rng.random((7, 5)))
    once = save_pgm(img)
    again = save_pgm(load_pgm(once))
    assert once == again


def test_save_p2_matches_p5_values():
    rng = np.random.default_rng(12)
    img = GrayImage.from_array(rng.random((6, 9)))
    from_binary = load_pgm(save_pgm(img))
    from_ascii = load_pgm(save_pgm(img, ascii=True))
    assert np.array_equal(from_binary.pixels, from_ascii.pixels)


def test_p2_line_length_under_70():
    img = GrayImage.from_array(np.full((3, 60), 200 / 255.0))
    for line in save_pgm(img, ascii=True).decode("ascii").splitlines():
        assert len(line) <= 70


def test_quantization_rounds_half_up():
    img = GrayImage.from_array(np.array([[0.0, 0.5, 1.0, 1.0 / 510.0]]))
    out = load_pgm(save_pgm(img))
    assert np.array_equal(out.pixels * 255.0, np.array([[0.0, 128.0, 255.0, 1.0]]))


@pytest.mark.parametrize(
    "data,fragment",
    [
        (b"P3\n1 1\n255\n0\n", "magic"),
        (b"P2\n0 1\n255\n", "dimensions"),
        (b"P2\n1 1\n0\n0\n", "maxval"),
        (b"P2\n1 1\n70000\n0\n", "maxval"),
        (b"P2\n1 1\n255\n", "truncated"),
        (b"P2\n1 1\n255\n300\n", "outside"),
        (b"P2\n1 1\n255\n0 7\n", "trailing"),
        (b"P2\nx 1\n255\n0\n", "non-numeric"),
        (b"P5\n2 1\n255\n" + bytes([1]), "truncated"),
        (b"P5\n2 1\n255\n" + bytes([1, 2, 3]), "trailing"),
        (b"P5\n2 1\n255", "whitespace"),
        (b"", "truncated"),
        (b"P3", "magic"),
        # A comment of many '#' ends a truncated header in linear time.
        (b"P2 " + b"#" * 64, "truncated header"),
        (b"P2\n3 x", "non-numeric height"),
        (b"P5\n1 1\n255#\x00", "whitespace"),
        (b"P5\n1 1\n255\x1c\x00", "non-numeric maxval"),  # 0x1c is not whitespace
        (b"P2\n2 1\n255\n1 \xc3\xa9\n", "non-numeric sample field b'\\xc3\\xa9'"),
        (b"P2\n2 1\n255\n1 # 2\n", "truncated after 1 of 2"),
        # A bad sample outranks a short payload.
        (b"P2\n3 1\n255\n300\n", "sample 300 outside"),
        (b"P2\n3 1\n255\n1 x\n", "non-numeric sample"),
        (b"P2\n2 1\n255\n1 2 x\n", "trailing"),
        # Declared dimensions do not allocate before the payload is read.
        (b"P2\n100000 100000\n255\n1\n", "truncated after 1 of 10000000000"),
    ],
)
def test_malformed_inputs_raise(data, fragment):
    with pytest.raises(PgmFormatError) as err:
        load_pgm(data)
    assert fragment in str(err.value)


def test_grayimage_rejects_out_of_range():
    with pytest.raises(ValueError):
        GrayImage.from_array(np.array([[1.5]]))
    with pytest.raises(ValueError):
        GrayImage.from_array(np.array([[-0.1]]))
    with pytest.raises(ValueError):
        GrayImage.from_array(np.array([[np.nan]]))
    with pytest.raises(ValueError):
        GrayImage(width=2, height=2, pixels=np.zeros((3, 2)))


@given(
    hnp.arrays(
        dtype=np.uint8,
        shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        elements=st.integers(0, 255),
    )
)
def test_p5_bytes_round_trip(a):
    img = GrayImage.from_array(a / 255.0)
    data = save_pgm(img)
    re_read = load_pgm(data)
    assert np.array_equal(re_read.pixels * 255.0, a.astype(np.float64))
    assert save_pgm(re_read) == data
