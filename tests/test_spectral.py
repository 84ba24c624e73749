import hashlib
import math
import warnings

import numpy as np
import pytest

from edgematch import (
    Disk,
    EdgeExtractionConfig,
    GrayImage,
    Rect,
    extract_edges,
    isophote_curvature,
    render_shapes,
    serialize,
    spectral_gradient,
)
from edgematch.edges import TWO_PI

from helpers import angular_distance, oracle_spectral_gradient

HALF_PI = 0.5 * math.pi


def sinusoid_row(width=64, height=64, amp=0.4):
    x = np.arange(width, dtype=np.float64)
    row = 0.5 + amp * np.sin(2.0 * np.pi * x / width)
    return GrayImage.from_array(np.tile(row, (height, 1)))


def step_image(width=64, height=64, at=32):
    a = np.zeros((height, width))
    a[:, at:] = 1.0
    return GrayImage.from_array(a)


# ------------------------------------------------------------ derivatives


def test_sinusoid_first_derivative_exact():
    img = sinusoid_row()
    field = spectral_gradient(img, sigma=0.0)
    x = np.arange(64)
    w = 2.0 * np.pi / 64.0
    expected = 0.4 * w * np.cos(w * x)
    got = field.gx[0, :]
    assert np.linalg.norm(got - expected) / np.linalg.norm(expected) < 1e-6
    assert np.abs(field.gy).max() < 1e-12


def test_sinusoid_vertical_gradient():
    img = sinusoid_row()
    transposed = GrayImage.from_array(img.pixels.T.copy())
    field = spectral_gradient(transposed, sigma=0.0)
    y = np.arange(64)
    w = 2.0 * np.pi / 64.0
    expected = 0.4 * w * np.cos(w * y)
    assert np.linalg.norm(field.gy[:, 0] - expected) / np.linalg.norm(expected) < 1e-6
    assert np.abs(field.gx).max() < 1e-12


def test_second_derivatives_of_separable_product():
    w, h = 64, 32
    x = np.arange(w)
    y = np.arange(h)[:, None]
    wx = 2.0 * np.pi / w
    wy = 2.0 * np.pi / h
    img = GrayImage.from_array(0.5 + 0.25 * np.sin(wx * x) * np.sin(wy * y))
    field = spectral_gradient(img, sigma=0.0)
    fxx = -0.25 * wx * wx * np.sin(wx * x) * np.sin(wy * y)
    fyy = -0.25 * wy * wy * np.sin(wx * x) * np.sin(wy * y)
    fxy = 0.25 * wx * wy * np.cos(wx * x) * np.cos(wy * y)
    for got, expected in ((field.fxx, fxx), (field.fyy, fyy), (field.fxy, fxy)):
        assert np.linalg.norm(got - expected) / np.linalg.norm(expected) < 1e-6


def test_gaussian_smoothing_attenuates_single_harmonic():
    img = sinusoid_row()
    sigma = 2.0
    field = spectral_gradient(img, sigma=sigma)
    x = np.arange(64)
    w = 2.0 * np.pi / 64.0
    expected = 0.4 * w * math.exp(-0.5 * sigma * sigma * w * w) * np.cos(w * x)
    assert np.linalg.norm(field.gx[0, :] - expected) / np.linalg.norm(expected) < 1e-9


def test_gradient_rejects_tiny_images_and_bad_sigma():
    with pytest.raises(ValueError):
        spectral_gradient(GrayImage.from_array(np.zeros((3, 8))), sigma=1.0)
    with pytest.raises(ValueError):
        spectral_gradient(GrayImage.from_array(np.zeros((8, 3))), sigma=1.0)
    with pytest.raises(ValueError):
        spectral_gradient(GrayImage.from_array(np.zeros((8, 8))), sigma=-1.0)
    # 1e200 squared is inf, and inf * 0 at the DC bin made every field NaN.
    for bad in (math.nan, math.inf, 1e200):
        with pytest.raises(ValueError):
            spectral_gradient(GrayImage.from_array(np.zeros((8, 8))), sigma=bad)


@pytest.mark.parametrize("sigma", [0.0, 1.0, 2.5])
@pytest.mark.parametrize("height, width", [(4, 4), (5, 7), (6, 9), (64, 48)])
def test_gradient_fields_equal_one_inverse_per_field(height, width, sigma):
    pixels = np.random.default_rng([height, width]).random((height, width))
    img = GrayImage.from_array(pixels)
    field = spectral_gradient(img, sigma)
    got = (field.gx, field.gy, field.fxx, field.fxy, field.fyy)
    bound = 1e-12 * np.linalg.norm(pixels)
    for name, a, b in zip(("gx", "gy", "fxx", "fxy", "fyy"), got,
                          oracle_spectral_gradient(img, sigma)):
        assert np.abs(a - b).max() <= bound, name


def test_gradient_takes_one_forward_and_three_inverse_transforms(monkeypatch):
    calls = {"fft2": 0, "ifft2": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    spectral_gradient(sinusoid_row(), sigma=1.0)
    assert calls == {"fft2": 1, "ifft2": 3}


def test_curvature_magnitude_is_inverse_radius_on_disk():
    img = render_shapes(128, 128, [Disk(64.0, 64.0, 30.0, 1.0)])
    field = spectral_gradient(img, sigma=2.0)
    kappa = isophote_curvature(field)
    yy, xx = np.mgrid[0:128, 0:128]
    r = np.hypot(xx - 64.0, yy - 64.0)
    ring = (np.abs(r - 30.0) <= 0.5) & (np.abs(kappa) > 0)
    assert ring.sum() > 100
    mean_abs = np.abs(kappa[ring]).mean()
    assert abs(mean_abs - 1.0 / 30.0) <= 0.10 * (1.0 / 30.0)


def test_curvature_zero_on_constant_image():
    field = spectral_gradient(GrayImage.from_array(np.full((16, 16), 0.3)), sigma=1.0)
    assert np.array_equal(isophote_curvature(field), np.zeros((16, 16)))


# ------------------------------------------------------------ extraction


@pytest.mark.parametrize("value", [0.0, 0.7, 1.0])
def test_constant_image_has_no_edges(value):
    es = extract_edges(GrayImage.from_array(np.full((32, 32), value)))
    assert len(es) == 0
    assert (es.width, es.height) == (32, 32)


def test_step_edge_position_and_orientation():
    cfg = EdgeExtractionConfig(sigma=2.0, mag_threshold_rel=0.5)
    es = extract_edges(step_image(), cfg)
    margin = cfg.resolved_margin()
    assert len(es) == 64 - 2 * margin
    for e in es.edges:
        assert abs(e.x - 31.5) <= 1e-5
        assert angular_distance(e.theta, HALF_PI) <= 1e-9
        assert margin <= e.y <= 64 - margin - 1
        assert e.reliable


def test_step_edge_confidence_peaks_at_one():
    es = extract_edges(step_image(), EdgeExtractionConfig(sigma=2.0, mag_threshold_rel=0.5))
    conf = [e.confidence for e in es.edges]
    assert max(conf) == 1.0
    assert min(conf) > 0.99


def test_disk_edges_on_rim_with_tangent_orientation():
    img = render_shapes(128, 128, [Disk(64.0, 64.0, 30.0, 1.0)])
    es = extract_edges(img, EdgeExtractionConfig(sigma=2.0, mag_threshold_rel=0.5))
    assert len(es) >= 100
    reliable = 0
    for e in es.edges:
        r = math.hypot(e.x - 64.0, e.y - 64.0)
        assert abs(r - 30.0) <= 1.0
        phi = math.atan2(e.y - 64.0, e.x - 64.0)
        expected_theta = (phi + 1.5 * math.pi) % TWO_PI
        assert angular_distance(e.theta, expected_theta) <= 0.1
        reliable += e.reliable
    assert reliable >= 0.9 * len(es)
    mean_abs_kappa = np.mean([abs(e.kappa) for e in es.edges])
    assert abs(mean_abs_kappa - 1.0 / 30.0) <= 0.15 * (1.0 / 30.0)


def test_extraction_is_shift_covariant():
    base = render_shapes(128, 128, [Disk(54.0, 60.0, 24.0, 0.9)])
    cfg = EdgeExtractionConfig(sigma=2.0, mag_threshold_rel=0.5)
    es0 = extract_edges(base, cfg)
    rolled = GrayImage.from_array(np.roll(base.pixels, shift=(3, 5), axis=(0, 1)))
    es1 = extract_edges(rolled, cfg)
    assert len(es0) > 50
    p0 = np.array([(e.x + 5.0, e.y + 3.0, e.theta) for e in es0.edges])
    p1 = np.array([(e.x, e.y, e.theta) for e in es1.edges])
    matched = 0
    for x, y, t in p0:
        d = np.hypot(p1[:, 0] - x, p1[:, 1] - y)
        k = int(np.argmin(d))
        if d[k] <= 0.1 and angular_distance(float(p1[k, 2]), float(t)) <= 0.01:
            matched += 1
    assert matched >= 0.98 * len(p0)


def test_contrast_inversion_flips_orientation_in_place():
    img = render_shapes(128, 128, [Disk(64.0, 64.0, 30.0, 1.0)])
    inverted = GrayImage.from_array(1.0 - img.pixels)
    cfg = EdgeExtractionConfig(sigma=2.0, mag_threshold_rel=0.5)
    a = extract_edges(img, cfg)
    b = extract_edges(inverted, cfg)
    assert len(a) == len(b) > 0
    for ea, eb in zip(a.edges, b.edges):
        assert (ea.x, ea.y) == (eb.x, eb.y)
        assert ea.confidence == eb.confidence
        assert ea.reliable == eb.reliable
        assert ea.kappa == -eb.kappa
        assert abs(angular_distance(ea.theta, eb.theta) - math.pi) <= 1e-9


def test_border_margin_excludes_frame_edges():
    cfg = EdgeExtractionConfig(sigma=1.0, mag_threshold_rel=0.25, border_margin=10)
    img = render_shapes(96, 96, [Disk(48.0, 48.0, 30.0, 1.0)])
    es = extract_edges(img, cfg)
    for e in es.edges:
        assert 10 - 0.5 <= e.x <= 96 - 10 - 0.5
        assert 10 - 0.5 <= e.y <= 96 - 10 - 0.5


def test_unreliable_flag_tracks_curvature_threshold():
    img = render_shapes(128, 128, [Disk(64.0, 64.0, 20.0, 1.0)])
    tight = extract_edges(img, EdgeExtractionConfig(sigma=2.0, curvature_max=0.01))
    loose = extract_edges(img, EdgeExtractionConfig(sigma=2.0, curvature_max=0.1))
    # 1/20 = 0.05 sits between the two thresholds
    assert not any(e.reliable for e in tight.edges)
    assert all(e.reliable for e in loose.edges)


def test_extraction_config_validation():
    with pytest.raises(ValueError):
        EdgeExtractionConfig(sigma=0.0)
    with pytest.raises(ValueError):
        EdgeExtractionConfig(mag_threshold_rel=0.0)
    with pytest.raises(ValueError):
        EdgeExtractionConfig(curvature_max=-0.1)
    for bad in (-1, 2.5, True):
        with pytest.raises(ValueError):
            EdgeExtractionConfig(border_margin=bad)
    assert EdgeExtractionConfig(sigma=1.5).resolved_margin() == 6
    assert EdgeExtractionConfig(border_margin=3).resolved_margin() == 3


def test_extract_emits_no_floating_point_warnings():
    # Subpixel offsets used to divide by a zero denominator before the
    # selection discarded the result; 0/0 there raised "invalid value".
    img = render_shapes(128, 96, (
        Disk(cx=40.0, cy=48.0, r=20.0, intensity=1.0),
        Disk(cx=96.0, cy=30.0, r=12.0, intensity=0.7),
        Rect(x0=70.0, y0=50.0, w=40.0, h=30.0, intensity=0.6),
    ), background=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        es = extract_edges(img, EdgeExtractionConfig(sigma=2.5))
    assert len(es) > 0


# sha256 of serialize(extract_edges(...)) on the scene below for each config
# (numpy 2.x, x86-64).  The faint disk only passes the 0.05 threshold, and
# the rectangle on the left border meets the periodic wrap at margin 0; a
# 50 px margin is wider than half the 96 px frame, so nothing is left.
EXTRACT_SWEEP = [
    ({"sigma": 1.0}, "d8c8ad6e08580cc34c137229f6f9c3cc66296a9f8f86e1d6c6289750f2aa6561"),
    ({"sigma": 2.0}, "9787de8029c766ad5fdb718764bbc9c6140a7709f8f83fcf80b0cc68488ad1b4"),
    ({"sigma": 3.5}, "11914446af7b8a5ead6a6f988ce0c2c90e2b1d69bda752c6f19f5e78563b5920"),
    ({"border_margin": 0},
     "659ee678808f202cab2c7d1a30b23de91b45844286a783f5614f813f73ea3251"),
    ({"border_margin": 50},
     "40fcdf66072f056ce6cc7bec659f0cf16e92a8564fb05326c4e03772ccd9c049"),
    ({"mag_threshold_rel": 0.05},
     "71d300467ccff635d3e48abe75837658b30b5bd16d6efbca504ad396492062a3"),
    ({"curvature_max": 0.01},
     "867f55a151214f7e2241295ee99957dbfcf2e33c3e285335fe9b054a2eb26185"),
]


@pytest.mark.parametrize("overrides, digest", EXTRACT_SWEEP,
                         ids=[f"{k}={v}" for o, _ in EXTRACT_SWEEP for k, v in o.items()])
def test_extraction_sweep_digests_pinned(overrides, digest):
    img = render_shapes(128, 96, (
        Disk(cx=40.0, cy=48.0, r=20.0, intensity=1.0),
        Disk(cx=96.0, cy=30.0, r=12.0, intensity=0.7),
        Rect(x0=70.0, y0=50.0, w=40.0, h=30.0, intensity=0.6),
        Rect(x0=-0.5, y0=70.0, w=30.0, h=25.5, intensity=0.8),
        Disk(cx=22.0, cy=20.0, r=10.0, intensity=0.2),
    ), background=0.1)
    es = extract_edges(img, EdgeExtractionConfig(**overrides))
    assert hashlib.sha256(serialize(es)).hexdigest() == digest
