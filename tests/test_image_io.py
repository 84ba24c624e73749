import hashlib

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from edgematch import (
    Disk,
    GrayImage,
    PgmFormatError,
    Rect,
    image_io,
    load_pgm,
    render_shapes,
    save_pgm,
)

from helpers import oracle_p2_samples


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


def test_p2_and_p5_of_a_scene_agree(monkeypatch):
    img = render_shapes(512, 512, [Disk(200.0, 180.0, 90.0, 0.8),
                                   Rect(300.0, 320.0, 150.0, 100.0, 0.45)], background=0.1)

    def token_loop(*args):
        raise AssertionError("a digit-only payload was read token by token")

    # A comment keeps the payload on the bulk path once it is blanked.
    monkeypatch.setattr(image_io, "_token_samples", token_loop)
    ascii_pgm = save_pgm(img, ascii=True).replace(b"\n255\n", b"\n255#glued\n", 1)
    from_ascii = load_pgm(ascii_pgm)
    from_binary = load_pgm(save_pgm(img))
    assert from_ascii.pixels.shape == (512, 512)
    assert np.array_equal(from_ascii.pixels, from_binary.pixels)


_SPACE = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"])
_COMMENT_BODY = st.binary(max_size=6).map(lambda b: b.replace(b"\r", b"").replace(b"\n", b""))
_COMMENT = st.builds(lambda body, end: b"#" + body + end,
                     _COMMENT_BODY, st.sampled_from([b"\n", b"\r"]))
_SEPARATOR = st.lists(st.one_of(_SPACE, _COMMENT), min_size=1, max_size=3).map(b"".join)


@st.composite
def _p2_cases(draw):
    """(width, height, maxval, payload): n - 1, n or n + 1 digit tokens with
    leading zeros, up to 25 digits, between separators of whitespace and
    comments, the first separator right after maxval.  In half the cases one
    token is near maxval, too long for int64, or a token only int() reads
    or rejects."""
    w, h = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    maxval = draw(st.one_of(st.sampled_from([1, 9, 10, 99, 255, 256, 65535]),
                            st.integers(1, 65535)))
    n = w * h

    def digits(values):
        return st.builds(lambda v, z: str(v).zfill(z).encode(), values, st.integers(0, 25))

    count = draw(st.sampled_from([n - 1, n, n, n + 1]))
    tokens = draw(st.lists(digits(st.integers(0, maxval)), min_size=count, max_size=count))
    if tokens and draw(st.booleans()):
        tokens[draw(st.integers(0, count - 1))] = draw(st.one_of(
            digits(st.integers(max(maxval - 2, 0), maxval + 2)),
            digits(st.integers(0, 10**25 - 1)),
            st.sampled_from([b"+5", b"5+5", b"1_0", b"-0", b"x", b"\xc3\xa9"]),
        ))
    payload = draw(_SEPARATOR)
    for tok in tokens:
        payload += tok + draw(_SEPARATOR)
    # The data may end in a comment that no CR or LF closes.
    end = st.one_of(st.just(b""), _SEPARATOR, _COMMENT_BODY.map(lambda b: b"#" + b))
    return w, h, maxval, payload + draw(end)


@given(_p2_cases())
@example((3, 1, 255, b"\n5+5 7"))  # a bulk parse would read 5, 5, 7
@example((2, 1, 255, b"\n1 2 3"))
@example((2, 1, 255, b"\n1"))
@example((2, 1, 255, b"\n1 256"))
@example((1, 1, 9, b" 00000000000000000000000009"))
@example((1, 1, 255, b" 99999999999999999999999"))
@example((1, 1, 255, b"\n \t"))
def test_p2_samples_match_token_oracle(case):
    w, h, maxval, payload = case
    data = f"P2\n{w} {h}\n{maxval}".encode() + payload
    try:
        samples = oracle_p2_samples(payload, w * h, maxval)
    except ValueError as want:
        with pytest.raises(PgmFormatError) as err:
            load_pgm(data)
        assert str(err.value) == str(want)
    else:
        expected = np.array(samples, dtype=np.float64).reshape(h, w) / float(maxval)
        assert np.array_equal(load_pgm(data).pixels, expected)


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


# sha256 of save_pgm(..., ascii=True) for each case of _p2_image.  Random
# rows mix one-, two- and three-digit samples; at width 18 a row still fits
# one line, wider rows wrap.  In "exact70" the first line is seventeen 255s
# and a 10, exactly 70 characters, and the next sample starts a new line.
P2_DIGESTS = {
    "w1": "21b8e573f137fadc1952a93d56b3fa374c7407b3aaf05068abd58d0e549e535b",
    "w17": "3cdd2b77d37b7f422cd46ee11d8cc84cb16a2df29f142632920134928dfea887",
    "w18": "2129f5a3090118042181d30c2c3e601f014597d0199e8c7c6ef89cad8ba4b0eb",
    "w35": "99a29841f63c2da9d4d58d8bf2cc1a111aeb2c665b0f246dbbffd4f5866ee797",
    "w513": "87f78b17033cfa08ea072aa10601f65d250d4e754f113c984cc904ca46928bee",
    "exact70": "6eab0ff6a244ad8f1ff60592780753521f215e8831a5ee33d244fe5a2cd563fd",
}


def _p2_image(name: str) -> GrayImage:
    if name == "exact70":
        rows = np.array([[255] * 17 + [10, 0, 128], [10] * 20])
    else:
        w = int(name[1:])
        rows = np.random.default_rng(w).integers(0, 256, (3, w))
    return GrayImage.from_array(rows / 255.0)


@pytest.mark.parametrize("name", P2_DIGESTS)
def test_p2_output_digests_pinned(name):
    assert hashlib.sha256(save_pgm(_p2_image(name), ascii=True)).hexdigest() == P2_DIGESTS[name]


def test_p2_line_length_under_70():
    img = GrayImage.from_array(np.full((3, 60), 200 / 255.0))
    for line in save_pgm(img, ascii=True).decode("ascii").splitlines():
        assert len(line) <= 70
    lines = save_pgm(_p2_image("exact70"), ascii=True).decode("ascii").splitlines()
    assert lines[3:5] == [" ".join(["255"] * 17 + ["10"]), "0 128"]
    assert len(lines[3]) == 70


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
