"""PGM (P2/P5) loading and saving for normalized grayscale rasters."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

# A '#' comment runs up to CR or LF.  A token follows any whitespace and
# comments and runs up to the next whitespace byte or '#'; it is empty only at
# the end of the data, so a match never fails and never backtracks.  In bytes
# patterns \s is [ \t\n\r\f\v], the set that bytes.split() splits on.
_COMMENT = re.compile(rb"#[^\r\n]*")
_TOKEN = re.compile(rb"(?:\s|" + _COMMENT.pattern + rb")*([^\s#]*)")
_DIGITS_AND_SPACE = b"0123456789 \t\n\r\v\f"


class PgmFormatError(ValueError):
    """Malformed or unsupported PGM data."""


@dataclass
class GrayImage:
    """Grayscale raster with float64 intensities in [0, 1].

    The origin is the top-left pixel, x grows rightward along columns and y
    downward along rows; `pixels` has shape (height, width).
    """

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be at least 1x1")
        self.pixels = np.asarray(self.pixels, dtype=np.float64)
        if self.pixels.shape != (self.height, self.width):
            raise ValueError(
                f"pixel array shape {self.pixels.shape} does not match "
                f"{self.height}x{self.width}"
            )
        if not np.all(np.isfinite(self.pixels)):
            raise ValueError("pixel intensities must be finite")
        if float(self.pixels.min()) < 0.0 or float(self.pixels.max()) > 1.0:
            raise ValueError("pixel intensities must lie in [0, 1]")

    @classmethod
    def from_array(cls, a) -> "GrayImage":
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError("expected a 2-d array")
        return cls(width=a.shape[1], height=a.shape[0], pixels=a)


def _header_token(data: bytes, pos: int) -> tuple[bytes, int]:
    m = _TOKEN.match(data, pos)
    if not m[1]:
        raise PgmFormatError("truncated header")
    return m[1], m.end()


def _token_int(tok: bytes, what: str) -> int:
    """The value of a PGM number, a run of ASCII digits."""
    if tok.isdigit():
        try:
            return int(tok)
        except ValueError:  # more digits than int() converts
            pass
    raise PgmFormatError(f"non-numeric {what} field {tok!r}")


def _p2_samples(payload: bytes, n: int, maxval: int) -> np.ndarray:
    """The n samples of a comment-blanked P2 payload, ASCII digit runs
    between whitespace, read in one array pass (a run too long for int64
    reads as INT64_MAX, so it fails the maxval check)."""
    # np.fromstring reads a whitespace-only payload as one 0.
    if payload.strip() and not payload.translate(None, _DIGITS_AND_SPACE):
        raw = np.fromstring(payload, dtype=np.int64, sep=" ")
        if len(raw) == n and raw.max() <= maxval:
            return raw.astype(np.float64)
    _raise_sample_error(payload, n, maxval)


def _raise_sample_error(payload: bytes, n: int, maxval: int) -> NoReturn:
    """Raise the PgmFormatError of a P2 payload that `_p2_samples` refused:
    its first bad sample among the first n, else its count."""
    tokens = payload.split()
    for tok in tokens[:n]:
        v = _token_int(tok, "sample")
        if v > maxval:
            raise PgmFormatError(f"sample {v} outside [0, {maxval}]")
    if len(tokens) < n:
        raise PgmFormatError(f"ASCII payload truncated after {len(tokens)} of {n} samples")
    # The array pass refuses n good samples only when more follow.
    raise PgmFormatError("trailing data after final sample")


def load_pgm(data: bytes) -> GrayImage:
    """Parse P2 (ASCII) or P5 (binary) PGM bytes, normalizing by maxval.

    Accepts '#' comments in the header, maxval up to 65535 (two-byte
    big-endian samples in P5 when maxval > 255), and reports distinct errors
    for bad magic numbers, zero dimensions, a zero maxval, and truncated or
    oversized payloads.  Every number, header field or P2 sample, is a run
    of ASCII digits.  P2 samples are the whitespace-separated tokens left
    once each '#' comment (up to CR or LF) is blanked, decoded in one array
    pass; a payload that fails it is read token by token only to name its
    error.
    """
    data = bytes(data)
    magic, pos = _header_token(data, 0)
    if magic not in (b"P2", b"P5"):
        raise PgmFormatError(f"unsupported magic {magic!r}, expected P2 or P5")
    fields = []
    for what in ("width", "height", "maxval"):
        tok, pos = _header_token(data, pos)
        fields.append(_token_int(tok, what))
    width, height, maxval = fields
    if width == 0 or height == 0:
        raise PgmFormatError(f"image dimensions must be positive, got {width}x{height}")
    if maxval == 0:
        raise PgmFormatError("maxval must be positive")
    if maxval > 65535:
        raise PgmFormatError(f"maxval {maxval} outside [1, 65535]")
    n = width * height

    if magic == b"P5":
        if not data[pos : pos + 1].isspace():
            raise PgmFormatError("missing single whitespace before binary payload")
        payload = data[pos + 1 :]
        bps = 1 if maxval < 256 else 2
        if len(payload) < n * bps:
            raise PgmFormatError(
                f"binary payload truncated: {len(payload)} bytes, expected {n * bps}"
            )
        if len(payload) > n * bps:
            raise PgmFormatError(
                f"binary payload has {len(payload) - n * bps} trailing bytes"
            )
        dtype = np.dtype(">u2") if bps == 2 else np.dtype(np.uint8)
        raw = np.frombuffer(payload, dtype=dtype).astype(np.float64)
        bad = raw > maxval
        if bad.any():
            raise PgmFormatError(f"sample {int(raw[bad][0])} exceeds maxval {maxval}")
    else:
        raw = _p2_samples(_COMMENT.sub(b" ", data[pos:]), n, maxval)
    pixels = (raw / float(maxval)).reshape(height, width)
    return GrayImage(width=width, height=height, pixels=pixels)


def save_pgm(img: GrayImage, ascii: bool = False) -> bytes:
    """Encode at maxval 255, quantizing with round-half-up.

    P5 by default; `ascii=True` emits P2 with lines kept under 70 characters.
    Loading the result reproduces the quantized intensities exactly.
    """
    q = np.floor(img.pixels * 255.0 + 0.5).astype(np.uint8)
    magic = "P2" if ascii else "P5"
    header = f"{magic}\n{img.width} {img.height}\n255\n".encode("ascii")
    if not ascii:
        return header + q.tobytes()
    out_lines = []
    for row in q.tolist():
        line = " ".join(map(str, row))
        # Break at the last space that leaves at most 70 characters.
        while len(line) > 70:
            cut = line.rindex(" ", 0, 71)
            out_lines.append(line[:cut])
            line = line[cut + 1:]
        out_lines.append(line)
    return header + ("\n".join(out_lines) + "\n").encode("ascii")
