import hashlib
import math

import numpy as np
import pytest

from edgematch import (
    CorruptionSpec,
    Disk,
    Edge,
    EdgeSet,
    Rect,
    Transform,
    corrupt_and_transform,
    load_pgm,
    match,
    random_edge_set,
    render_shapes,
    save_pgm,
    serialize,
)
from edgematch.edges import TWO_PI

ZERO_NOISE = CorruptionSpec(dropout=0.0, jitter_pos=0.0, jitter_theta=0.0,
                            clutter_frac=0.0, seed=0)


# --------------------------------------------------------- random edge set


def test_random_edge_set_is_deterministic():
    a = random_edge_set(50, 128, 128, seed=4)
    b = random_edge_set(50, 128, 128, seed=4)
    assert serialize(a) == serialize(b)
    assert serialize(random_edge_set(50, 128, 128, seed=5)) != serialize(a)


def test_random_edge_set_field_ranges():
    es = random_edge_set(500, 64, 48, seed=0)
    arr = es.arrays()
    assert np.all((arr.x >= 0) & (arr.x < 64))
    assert np.all((arr.y >= 0) & (arr.y < 48))
    assert np.all((arr.theta >= 0) & (arr.theta < TWO_PI))
    assert np.all((arr.confidence >= 0.5) & (arr.confidence <= 1.0))
    assert np.all(arr.kappa == 0.0)
    assert np.all(arr.reliable)


def test_random_edge_set_degenerate_sizes():
    assert len(random_edge_set(0, 64, 64, seed=0)) == 0
    with pytest.raises(ValueError):
        random_edge_set(-1, 64, 64, seed=0)


# -------------------------------------------------------------- corruption


def test_corrupt_maps_through_the_inverse_transform():
    ref = EdgeSet(256, 256, (Edge(30.0, 40.0, 1.0),))
    probe = corrupt_and_transform(ref, Transform(s=0.5, tx=10.0, ty=5.0),
                                  ZERO_NOISE, 256, 256)
    e = probe.edges[0]
    # p_N = (p_A - t) / s: (30-10)/0.5 = 40, (40-5)/0.5 = 70
    assert (e.x, e.y) == (40.0, 70.0)
    assert e.theta == 1.0


def test_identity_corruption_is_a_no_op():
    ref = random_edge_set(200, 256, 256, seed=8)
    out = corrupt_and_transform(ref, Transform(1.0, 0.0, 0.0), ZERO_NOISE, 256, 256)
    assert serialize(out) == serialize(ref)


def test_full_dropout_empties_the_set():
    ref = random_edge_set(100, 256, 256, seed=8)
    spec = CorruptionSpec(dropout=1.0, jitter_pos=0.0, jitter_theta=0.0,
                          clutter_frac=0.0, seed=1)
    assert len(corrupt_and_transform(ref, Transform(1.0, 0.0, 0.0), spec, 256, 256)) == 0


def test_clutter_count_is_rounded_survivor_fraction():
    ref = random_edge_set(200, 256, 256, seed=8)
    spec = CorruptionSpec(dropout=0.0, jitter_pos=0.0, jitter_theta=0.0,
                          clutter_frac=0.1, seed=1)
    out = corrupt_and_transform(ref, Transform(1.0, 0.0, 0.0), spec, 256, 256)
    assert len(out) == 220
    for clean, noisy in zip(ref.edges, out.edges[:200]):
        assert (clean.x, clean.y, clean.theta) == (noisy.x, noisy.y, noisy.theta)


def test_edges_pushed_out_of_frame_are_culled():
    ref = random_edge_set(100, 256, 256, seed=8)
    far = Transform(s=1.0, tx=10_000.0, ty=0.0)
    assert len(corrupt_and_transform(ref, far, ZERO_NOISE, 256, 256)) == 0


def test_zero_noise_round_trip_matches_exactly():
    ref = random_edge_set(300, 256, 256, seed=21)
    truth = Transform(s=0.8, tx=12.0, ty=-9.0)
    probe = corrupt_and_transform(ref, truth, ZERO_NOISE, 320, 320)
    res = match(ref, probe)
    assert res.decided
    assert abs(res.transform.s - 0.8) <= 1e-9
    assert math.hypot(res.transform.tx - 12.0, res.transform.ty + 9.0) <= 1e-6


def test_corruption_spec_validation():
    with pytest.raises(ValueError):
        CorruptionSpec(dropout=-0.1, jitter_pos=0.0, jitter_theta=0.0,
                       clutter_frac=0.0, seed=0)
    with pytest.raises(ValueError):
        CorruptionSpec(dropout=0.0, jitter_pos=-1.0, jitter_theta=0.0,
                       clutter_frac=0.0, seed=0)


@pytest.mark.parametrize("field", ["jitter_pos", "jitter_theta", "clutter_frac"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -1e-9])
def test_corruption_spec_rejects_non_finite_magnitudes(field, value):
    # NaN passed the old `< 0.0` checks and emptied or broke the probe.
    with pytest.raises(ValueError, match=f"{field} must be non-negative and finite"):
        CorruptionSpec(**{field: value})


# --------------------------------------------------------------- rendering


def test_background_renders_flat():
    img = render_shapes(32, 32, (), background=0.5)
    path_vals = np.unique(img.pixels)
    assert path_vals.shape == (1,)
    assert path_vals[0] == 0.5


def test_disk_interior_exterior_and_rim():
    img = render_shapes(64, 64, (Disk(cx=32.0, cy=32.0, r=20.0, intensity=1.0),),
                        background=0.0)
    px = img.pixels
    assert px[32, 32] == 1.0
    assert px[2, 2] == 0.0
    rim = px[32, 52]  # cell straddling the boundary
    assert 0.0 < rim < 1.0


def test_rect_boundary_supersampling():
    img = render_shapes(64, 64, (Rect(x0=10.0, y0=10.0, w=20.0, h=20.0, intensity=1.0),),
                        background=0.0)
    px = img.pixels
    assert px[5, 5] == 0.0
    assert px[15, 15] == 1.0
    # pixel centred on the vertical boundary: half its 4x4 samples land inside
    assert px[15, 10] == 0.5


def test_later_shapes_overpaint():
    shapes = (Disk(cx=32.0, cy=32.0, r=20.0, intensity=1.0),
              Disk(cx=32.0, cy=32.0, r=8.0, intensity=0.25))
    img = render_shapes(64, 64, shapes, background=0.0)
    assert img.pixels[32, 32] == 0.25


def test_out_of_frame_shape_raises():
    with pytest.raises(ValueError):
        render_shapes(64, 64, (Disk(cx=60.0, cy=32.0, r=10.0, intensity=1.0),))
    # touching the half-pixel frame bound is allowed
    render_shapes(64, 64, (Disk(cx=10.0, cy=10.0, r=10.5, intensity=1.0),))


# sha256 of the rendered pixels, taken when every shape was tested on the
# whole supersampled frame.  Samples sit at k/4 - 0.375: the first rect's
# edges and the disk's extremes fall exactly on samples, and some shapes
# touch the -0.5 or the width - 0.5 frame bound.
RENDER_DIGESTS = [
    ((24, 16, (Rect(x0=2.125, y0=1.625, w=5.0, h=3.0, intensity=1.0),)),
     "eda469c0b76c2596e26a822d56b3a9006f2169e591b233f6abd56714a4e0c9b5"),
    ((24, 16, (Rect(x0=-0.5, y0=-0.5, w=3.0, h=2.0, intensity=0.75),
               Disk(cx=8.125, cy=6.125, r=3.0, intensity=0.5))),
     "81e431c693602c17c86df7857261d9bc9b620d77fd0124741ad435252495a676"),
    ((32, 20, (Disk(cx=3.5, cy=9.0, r=4.0, intensity=1.0),
               Rect(x0=20.375, y0=11.875, w=11.125, h=7.625, intensity=0.25),
               Disk(cx=16.0, cy=10.0, r=6.3, intensity=0.6))),
     "183ce2bc3eb637d1f27824ca9ea8a2137bf9e32c867f4740ca612a0bf14642d6"),
    ((64, 48, (Disk(cx=20.0, cy=24.0, r=12.0, intensity=0.9),
               Disk(cx=24.0, cy=20.0, r=5.5, intensity=0.1),
               Rect(x0=40.0, y0=-0.5, w=23.5, h=48.0, intensity=0.4))),
     "1bae83d61926a2f860a2cf3c1362e0447fb50892f3c079bde3b7e9d019be7381"),
]


@pytest.mark.parametrize("scene,digest", RENDER_DIGESTS)
def test_render_digests_pinned(scene, digest):
    width, height, shapes = scene
    pixels = render_shapes(width, height, shapes, background=0.2).pixels
    assert hashlib.sha256(pixels.tobytes()).hexdigest() == digest


def test_render_save_load_round_trip():
    img = render_shapes(32, 32, (), background=0.5)
    back = load_pgm(save_pgm(img))
    assert np.all(back.pixels == 128.0 / 255.0)
