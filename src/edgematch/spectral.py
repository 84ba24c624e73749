"""Frequency-domain image derivatives and oriented-edge extraction.

Derivatives are computed by multiplying the image spectrum with the exact
differentiation multipliers i*u and i*v, where u = 2*pi*k/width for integer
k in [-width/2, width/2) and likewise for v.  For band-limited content this
is exact on the grid, so no finite-difference stencil noise enters the edge
orientations or curvatures.  Gaussian smoothing is a plain spectral
multiplication by exp(-sigma^2 (u^2 + v^2) / 2), which commutes with the
derivative multipliers, so one forward transform of the image serves all five
smoothed derivative fields.

The Nyquist bin of each differentiation multiplier is zeroed (for even sizes
there is no consistent sign for that bin's odd multiplier).  Every multiplier
then keeps the image spectrum Hermitian, so each derivative field is real and
two of them can share one complex inverse transform: the inverse of
(A + iB) * spectrum is a + ib for the real fields a and b of A and B.  Three
inverses give the five fields: gx + i gy, fxx + i fyy and fxy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .edges import TWO_PI, EdgeSet, in_frame, require_int, require_positive, wrap_angle
from .image_io import GrayImage

# Gradient magnitudes below this are treated as flat: no orientation, no
# curvature, never an edge.
DEGENERATE_GRADIENT = 1e-9


@dataclass(frozen=True)
class EdgeExtractionConfig:
    """Knobs for the detection pipeline.

    border_margin defaults to ceil(4*sigma) when left as None, wide enough
    that the periodic wrap of the spectral filters cannot leak image content
    from the opposite border into accepted edges.
    """

    sigma: float = 2.0
    mag_threshold_rel: float = 0.25
    curvature_max: float = 0.1
    border_margin: int | None = None

    def __post_init__(self):
        require_positive("sigma", self.sigma)
        if not (0.0 < self.mag_threshold_rel < 1.0):
            raise ValueError("mag_threshold_rel must lie in (0, 1)")
        if not (self.curvature_max > 0.0):
            raise ValueError("curvature_max must be positive")
        if self.border_margin is not None:
            require_int("border_margin", self.border_margin, 0)

    def resolved_margin(self) -> int:
        if self.border_margin is not None:
            return self.border_margin
        return int(math.ceil(4.0 * self.sigma))


@dataclass
class GradientField:
    """First and second smoothed derivatives of one image: the full rasters
    of :func:`spectral_gradient`, or samples of them taken at the same
    points."""

    gx: np.ndarray
    gy: np.ndarray
    fxx: np.ndarray
    fxy: np.ndarray
    fyy: np.ndarray


def _freqs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Angular frequency vector and a copy with the Nyquist bin zeroed."""
    full = TWO_PI * np.fft.fftfreq(n)
    diff = full.copy()
    if n % 2 == 0:
        diff[n // 2] = 0.0
    return full, diff


def spectral_gradient(img: GrayImage, sigma: float) -> GradientField:
    """Smoothed gradient and Hessian rasters via spectral differentiation.

    sigma = 0 skips smoothing entirely, and sigma must have a finite square.
    Requires at least a 4x4 image so the frequency grid carries meaningful
    structure.
    """
    if img.width < 4 or img.height < 4:
        raise ValueError(
            f"image must be at least 4x4 for spectral derivatives, "
            f"got {img.width}x{img.height}"
        )
    if not (sigma >= 0.0 and math.isfinite(sigma * sigma)):
        raise ValueError(f"sigma must be non-negative with a finite square, got {sigma!r}")
    u_full, u_diff = _freqs(img.width)
    v_full, v_diff = _freqs(img.height)
    U = u_diff[np.newaxis, :]
    V = v_diff[:, np.newaxis]
    smooth = np.exp(
        -0.5 * sigma * sigma * (u_full[np.newaxis, :] ** 2 + v_full[:, np.newaxis] ** 2)
    )
    spectrum = np.fft.fft2(img.pixels) * smooth
    g = np.fft.ifft2((1j * U - V) * spectrum)
    h = np.fft.ifft2((-(U * U) - 1j * (V * V)) * spectrum)
    fxy = np.fft.ifft2(-(U * V) * spectrum).real
    return GradientField(gx=g.real, gy=g.imag, fxx=h.real, fxy=fxy, fyy=h.imag)


def isophote_curvature(field: GradientField) -> np.ndarray:
    """Signed curvature of the iso-intensity line through each sample.

    kappa = (gy^2 fxx - 2 gx gy fxy + gx^2 fyy) / (gx^2 + gy^2)^(3/2),
    with kappa = 0 wherever the gradient magnitude is degenerate.  For a
    radially symmetric intensity profile |kappa| at radius r is exactly 1/r.
    Works elementwise, so the five arrays may be full rasters or samples of
    them, of any one shape.
    """
    gx, gy = field.gx, field.gy
    g2 = gx * gx + gy * gy
    num = gy * gy * field.fxx - 2.0 * gx * gy * field.fxy + gx * gx * field.fyy
    kappa = np.zeros_like(g2)
    ok = g2 > DEGENERATE_GRADIENT * DEGENERATE_GRADIENT
    kappa[ok] = num[ok] / np.power(g2[ok], 1.5)
    return kappa


def _bilinear_periodic(a: np.ndarray, xq: np.ndarray, yq: np.ndarray) -> np.ndarray:
    """Bilinear sample with periodic wrap, matching the DFT's torus geometry."""
    h, w = a.shape
    x0f = np.floor(xq)
    y0f = np.floor(yq)
    fx = xq - x0f
    fy = yq - y0f
    x0 = x0f.astype(np.int64) % w
    y0 = y0f.astype(np.int64) % h
    x1 = (x0 + 1) % w
    y1 = (y0 + 1) % h
    return (
        a[y0, x0] * (1.0 - fx) * (1.0 - fy)
        + a[y0, x1] * fx * (1.0 - fy)
        + a[y1, x0] * (1.0 - fx) * fy
        + a[y1, x1] * fx * fy
    )


def extract_edges(img: GrayImage, cfg: EdgeExtractionConfig | None = None) -> EdgeSet:
    """Detect oriented edges with subpixel positions.

    Pipeline: spectral gradient at cfg.sigma, gradient magnitude, a relative
    magnitude threshold plus a border margin that select the candidate
    pixels, then on the candidates only: the isophote curvature,
    non-maximum suppression against the two bilinearly interpolated
    neighbors one pixel away along the gradient direction and a quadratic
    fit along the gradient for the subpixel offset.  Orientation is the
    gradient angle rotated by +pi/2, kept on the full circle so inverting
    contrast flips every orientation by pi.
    Confidence is magnitude over the global maximum; edges are reliable when
    |kappa| <= cfg.curvature_max.  At most one edge per pixel, in scan order.
    """
    if cfg is None:
        cfg = EdgeExtractionConfig()
    field = spectral_gradient(img, cfg.sigma)
    gx, gy = field.gx, field.gy
    mag = np.sqrt(gx * gx + gy * gy)
    h, w = mag.shape
    mag_max = float(mag.max())

    # Every later step is elementwise, so it runs on the candidates alone.
    candidate = (mag >= cfg.mag_threshold_rel * mag_max) & (mag > DEGENERATE_GRADIENT)
    margin = cfg.resolved_margin()
    candidate[:margin] = candidate[h - margin:] = False
    candidate[:, :margin] = candidate[:, w - margin:] = False
    ys, xs = np.nonzero(candidate)
    cgx, cgy, cmag = gx[ys, xs], gy[ys, xs], mag[ys, xs]
    ckappa = isophote_curvature(GradientField(
        cgx, cgy, field.fxx[ys, xs], field.fxy[ys, xs], field.fyy[ys, xs]))

    dirx = cgx / cmag
    diry = cgy / cmag
    m_plus = _bilinear_periodic(mag, xs + dirx, ys + diry)
    m_minus = _bilinear_periodic(mag, xs - dirx, ys - diry)
    denom = m_plus + m_minus - 2.0 * cmag
    delta = np.divide(m_minus - m_plus, 2.0 * denom, out=np.zeros_like(cmag),
                      where=np.abs(denom) > 1e-12 * mag_max)
    delta = np.clip(delta, -0.5, 0.5)
    ex = xs + delta * dirx
    ey = ys + delta * diry
    keep = (cmag >= m_plus) & (cmag >= m_minus) & in_frame(ex, ey, w, h)

    theta = wrap_angle(np.arctan2(cgy, cgx) + 0.5 * np.pi)
    reliable = np.abs(ckappa) <= cfg.curvature_max
    cols = (ex, ey, theta, ckappa, cmag / mag_max, reliable)
    return EdgeSet.from_arrays(w, h, *(c[keep] for c in cols))
