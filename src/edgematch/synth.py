"""Synthetic edge sets, controlled corruption, and simple raster scenes.

Randomness comes from numpy's default PCG64 generator throughout, so every
artifact is reproducible from its integer seed on any platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import Transform
from .edges import TWO_PI, EdgeSet, in_frame, wrap_angle
from .image_io import GrayImage


@dataclass(frozen=True)
class CorruptionSpec:
    """Degradations applied when deriving a probe set from a reference set.

    dropout is the per-edge removal probability; jitter_pos the standard
    deviation of Gaussian position noise in probe-frame pixels; jitter_theta
    the standard deviation of orientation noise in radians; clutter_frac the
    number of spurious edges appended, as a fraction of the surviving edges.
    """

    dropout: float = 0.0
    jitter_pos: float = 0.0
    jitter_theta: float = 0.0
    clutter_frac: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.dropout <= 1.0):
            raise ValueError("dropout must lie in [0, 1]")
        if self.jitter_pos < 0.0 or self.jitter_theta < 0.0:
            raise ValueError("jitter magnitudes must be non-negative")
        if self.clutter_frac < 0.0:
            raise ValueError("clutter_frac must be non-negative")


def _uniform_edges(rng: np.random.Generator, n: int, width: int, height: int):
    """x, y, theta and confidence of n edges, drawn in that order: uniform
    in the frame, on the circle, and in [0.5, 1]."""
    x = np.minimum(rng.uniform(0.0, width, n), np.nextafter(float(width), 0.0))
    y = np.minimum(rng.uniform(0.0, height, n), np.nextafter(float(height), 0.0))
    theta = wrap_angle(rng.uniform(0.0, TWO_PI, n))
    conf = np.minimum(rng.uniform(0.5, 1.0, n), 1.0)
    return x, y, theta, conf


def random_edge_set(n: int, width: int, height: int, seed: int = 0) -> EdgeSet:
    """n edges with uniform positions and orientations.

    Confidence is uniform in [0.5, 1], curvature zero, every edge reliable.
    Edge order is generation order; identical seeds give identical sets.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    x, y, theta, conf = _uniform_edges(np.random.default_rng(seed), n, width, height)
    return EdgeSet.from_arrays(width, height, x, y, theta, np.zeros(n), conf,
                               np.ones(n, dtype=bool))


def corrupt_and_transform(
    ref: EdgeSet,
    transform: Transform,
    spec: CorruptionSpec,
    out_width: int,
    out_height: int,
) -> EdgeSet:
    """Derive a probe set: inverse-map the reference through `transform`,
    then degrade it.

    Each reference edge at p maps to (p - t) / s in the probe frame, is
    dropped with probability spec.dropout, jittered in position and
    orientation, and discarded if it falls outside the probe frame.
    Clutter edges (uniform position and orientation, confidence like
    :func:`random_edge_set`) are appended afterwards.  Draw order is fixed:
    dropout mask, position jitter, orientation jitter, clutter; with an
    all-zero spec and matching frames the output equals the input edge for
    edge.
    """
    if out_width < 1 or out_height < 1:
        raise ValueError("output frame must be at least 1x1")
    rng = np.random.default_rng(spec.seed)
    n = len(ref)
    arr = ref.arrays()
    drop = rng.random(n) < spec.dropout
    jx = rng.standard_normal(n) * spec.jitter_pos
    jy = rng.standard_normal(n) * spec.jitter_pos
    jt = rng.standard_normal(n) * spec.jitter_theta

    px, py = transform.invert(arr.x, arr.y)
    px, py = px + jx, py + jy
    theta = wrap_angle(arr.theta + jt)
    keep = (~drop) & in_frame(px, py, out_width, out_height)

    n_clutter = int(math.floor(spec.clutter_frac * int(keep.sum()) + 0.5))
    cx, cy, ct, cc = _uniform_edges(rng, n_clutter, out_width, out_height)
    return EdgeSet.from_arrays(
        out_width,
        out_height,
        np.concatenate((px[keep], cx)),
        np.concatenate((py[keep], cy)),
        np.concatenate((theta[keep], ct)),
        np.concatenate((arr.kappa[keep], np.zeros(n_clutter))),
        np.concatenate((arr.confidence[keep], cc)),
        np.concatenate((arr.reliable[keep], np.ones(n_clutter, dtype=bool))),
    )


@dataclass(frozen=True)
class Disk:
    """Filled disk; center and radius in pixel-index coordinates."""

    cx: float
    cy: float
    r: float
    intensity: float

    def __post_init__(self):
        if self.r <= 0.0:
            raise ValueError("disk radius must be positive")
        if not (0.0 <= self.intensity <= 1.0):
            raise ValueError("intensity must lie in [0, 1]")


@dataclass(frozen=True)
class Rect:
    """Axis-aligned filled rectangle with corner (x0, y0) and size (w, h)."""

    x0: float
    y0: float
    w: float
    h: float
    intensity: float

    def __post_init__(self):
        if self.w <= 0.0 or self.h <= 0.0:
            raise ValueError("rectangle size must be positive")
        if not (0.0 <= self.intensity <= 1.0):
            raise ValueError("intensity must lie in [0, 1]")


def render_shapes(
    width: int,
    height: int,
    shapes: list[Disk | Rect],
    background: float = 0.0,
) -> GrayImage:
    """Rasterize shapes over a uniform background with 4x4 supersampling.

    Pixel (ix, iy) covers the square [ix - 0.5, ix + 0.5) x [iy - 0.5,
    iy + 0.5), so shape coordinates line up with edge positions.  Later
    shapes overpaint earlier ones.  A shape extending past the frame
    rectangle [-0.5, width - 0.5] x [-0.5, height - 0.5] is an error.
    """
    if width < 1 or height < 1:
        raise ValueError("frame must be at least 1x1")
    if not (0.0 <= background <= 1.0):
        raise ValueError("background must lie in [0, 1]")
    x_lo, x_hi = -0.5, width - 0.5
    y_lo, y_hi = -0.5, height - 0.5
    for s in shapes:
        if isinstance(s, Disk):
            if s.cx - s.r < x_lo or s.cx + s.r > x_hi or s.cy - s.r < y_lo or s.cy + s.r > y_hi:
                raise ValueError(f"disk at ({s.cx}, {s.cy}) r={s.r} extends out of frame")
        elif isinstance(s, Rect):
            if s.x0 < x_lo or s.x0 + s.w > x_hi or s.y0 < y_lo or s.y0 + s.h > y_hi:
                raise ValueError(f"rect at ({s.x0}, {s.y0}) extends out of frame")
        else:
            raise TypeError(f"unsupported shape {type(s).__name__}")

    ss = 4
    xs = (np.arange(width * ss) + 0.5) / ss - 0.5
    ys = (np.arange(height * ss) + 0.5) / ss - 0.5
    X, Y = np.meshgrid(xs, ys)
    canvas = np.full((height * ss, width * ss), float(background))
    for s in shapes:
        if isinstance(s, Disk):
            mask = (X - s.cx) ** 2 + (Y - s.cy) ** 2 <= s.r * s.r
        else:
            mask = (X >= s.x0) & (X <= s.x0 + s.w) & (Y >= s.y0) & (Y <= s.y0 + s.h)
        canvas[mask] = s.intensity
    pixels = canvas.reshape(height, ss, width, ss).mean(axis=(1, 3))
    return GrayImage(width=width, height=height, pixels=pixels)
