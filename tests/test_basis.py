import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgematch import (
    BasisPair,
    Edge,
    EdgeSet,
    HypothesisConfig,
    Transform,
    enumerate_basis_pairs,
    find_compatible_pairs,
)
from edgematch import basis as basis_mod
from edgematch.edges import TWO_PI

from helpers import oracle_basis_pairs, oracle_compatible_pairs, oracle_pair_quality

angles = st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True)

edge_rows = st.lists(
    st.tuples(
        st.floats(0.0, 199.99),
        st.floats(0.0, 199.99),
        angles,
        st.floats(0.1, 1.0),
        st.booleans(),
    ),
    max_size=20,
)


def make_set(rows, width=200, height=200):
    return EdgeSet(
        width,
        height,
        tuple(Edge(x, y, t, 0.0, c, r) for x, y, t, c, r in rows),
    )


# ---------------------------------------------------------------- transform


def test_transform_apply_invert_round_trip():
    t = Transform(s=1.3, tx=-4.0, ty=9.5)
    x, y = t.apply(10.0, 20.0)
    bx, by = t.invert(x, y)
    assert (bx, by) == pytest.approx((10.0, 20.0), abs=1e-12)


def test_transform_validation():
    with pytest.raises(ValueError):
        Transform(s=0.0, tx=0.0, ty=0.0)
    with pytest.raises(ValueError):
        Transform(s=-1.0, tx=0.0, ty=0.0)
    with pytest.raises(ValueError):
        Transform(s=1.0, tx=math.inf, ty=0.0)


def test_basis_pair_validation():
    with pytest.raises(ValueError):
        BasisPair(i=2, j=2, phi=0.0, dist=5.0, quality=0.5)
    with pytest.raises(ValueError):
        BasisPair(i=0, j=1, phi=0.0, dist=0.0, quality=0.5)
    with pytest.raises(ValueError):
        BasisPair(i=0, j=1, phi=7.0, dist=5.0, quality=0.5)


def test_hypothesis_config_validation():
    with pytest.raises(ValueError):
        HypothesisConfig(s_min=0.0)
    with pytest.raises(ValueError):
        HypothesisConfig(s_min=1.2)
    with pytest.raises(ValueError):
        HypothesisConfig(s_max=0.9)
    with pytest.raises(ValueError):
        HypothesisConfig(eps_theta=0.0)
    with pytest.raises(ValueError):
        HypothesisConfig(min_sep_angle=2.0)
    for bad in (dict(max_pairs_n=0), dict(max_basis_a=2.5), dict(max_pairs_n=2.5),
                dict(max_basis_a=True)):
        with pytest.raises(ValueError):
            HypothesisConfig(**bad)
    assert HypothesisConfig(min_dist=7.0).resolved_min_dist(100.0) == 7.0
    assert HypothesisConfig().resolved_min_dist(100.0) == 15.0


# ------------------------------------------------------------ pair quality


# The loosest admissible gates, so that only zero-quality couples drop out.
ANY_COUPLE = HypothesisConfig(min_dist=1e-9, min_sep_angle=1e-6, max_basis_a=1000)


def test_pair_quality_perfect_couple_scores_one():
    # confidence 1, orthogonal orientations, separation exactly half the diagonal
    es = EdgeSet(64, 64, (Edge(0.0, 0.0, 0.0), Edge(32.0, 32.0, 0.5 * math.pi)))
    (basis,) = enumerate_basis_pairs(es)
    assert basis.quality == 1.0


def test_pair_quality_parallel_couple_scores_zero():
    e1 = Edge(10.0, 10.0, 0.3)
    for e2 in (Edge(50.0, 10.0, 0.3), Edge(50.0, 10.0, 0.3 + math.pi)):
        assert oracle_pair_quality(e1, e2, 90.0) == pytest.approx(0.0, abs=1e-15)
        assert enumerate_basis_pairs(EdgeSet(90, 90, (e1, e2)), ANY_COUPLE) == []


def test_pair_quality_coincident_scores_zero():
    e1, e2 = Edge(10.0, 10.0, 0.3), Edge(10.0, 10.0, 1.3)
    assert oracle_pair_quality(e1, e2, 90.0) == 0.0
    assert enumerate_basis_pairs(EdgeSet(90, 90, (e1, e2)), ANY_COUPLE) == []


@given(edge_rows)
def test_pair_quality_matches_oracle_and_range(rows):
    es = make_set(rows)
    edges = list(es.edges)
    diag = math.hypot(200.0, 200.0)
    for b in enumerate_basis_pairs(es, ANY_COUPLE):
        assert b.quality == oracle_pair_quality(edges[b.i], edges[b.j], diag)
        assert 0.0 < b.quality <= 1.0 + 1e-12


# ------------------------------------------------------------ enumeration


@given(
    edge_rows,
    st.sampled_from([None, 5.0, 40.0]),
    st.sampled_from([0.1, 0.35, 1.0]),
    st.sampled_from([3, 10, 300]),
)
def test_enumerate_matches_brute_force(rows, min_dist, min_sep, cap):
    es = make_set(rows)
    cfg = HypothesisConfig(min_dist=min_dist, min_sep_angle=min_sep, max_basis_a=cap)
    got = enumerate_basis_pairs(es, cfg)
    expected = oracle_basis_pairs(es, cfg)
    assert [(b.i, b.j) for b in got] == [(r[1], r[2]) for r in expected]
    for b, r in zip(got, expected):
        assert b.quality == r[0]
        # atan2 is not correctly rounded, so libm variants may disagree in
        # the last ulp; everything downstream of phi tolerates far more.
        assert b.phi == pytest.approx(r[3], abs=1e-13)
        assert b.dist == r[4]
    # descending quality with (i, j) tie-breaks
    keys = [(-b.quality, b.i, b.j) for b in got]
    assert keys == sorted(keys)


@settings(max_examples=16)
@given(
    st.integers(100, 400),
    st.sampled_from([1, 3, 300]),
    st.sampled_from([2, 4, 10]),
    st.floats(0.0, 0.5),
    st.booleans(),
    st.sampled_from([1, 64, basis_mod._CHUNK_PAIRS]),
    st.integers(0, 2**31 - 1),
)
def test_enumerate_pruned_matches_brute_force(n, cap, levels, unreliable, exact, chunk, seed):
    # Enough edges that the confidence bound stops the enumeration early;
    # confidences on a few levels, so that bounds and qualities tie.  With
    # `exact`, edges sit in two opposite corners with axis-aligned
    # orientations, so admissible couples span the half diagonal at right
    # angles and their quality equals the bound conf_i * conf_j, and equal
    # bounds arise from different confidences (0.25 * 1.0 == 0.5 * 0.5).
    rng = np.random.default_rng(seed)
    if exact:
        corner = rng.integers(0, 2, n) * 180.0
        x, y = corner + rng.uniform(0.0, 19.9, n), corner + rng.uniform(0.0, 19.9, n)
        theta = rng.integers(0, 4, n) * (0.5 * math.pi)
    else:
        x, y = rng.uniform(0.0, 200.0, n), rng.uniform(0.0, 200.0, n)
        theta = rng.uniform(0.0, TWO_PI, n)
    es = EdgeSet.from_arrays(200, 200, x, y, theta, np.zeros(n),
                             rng.integers(1, levels + 1, n) / levels,
                             rng.random(n) >= unreliable)
    cfg = HypothesisConfig(max_basis_a=cap)
    # Small chunks test the stopping rule after every few couples.
    with patch.object(basis_mod, "_CHUNK_PAIRS", chunk):
        got = enumerate_basis_pairs(es, cfg)
    expected = oracle_basis_pairs(es, cfg)
    assert [(b.i, b.j, b.quality, b.dist) for b in got] == [
        (r[1], r[2], r[0], r[4]) for r in expected
    ]
    assert [b.phi for b in got] == pytest.approx([r[3] for r in expected], abs=1e-13)


def test_enumerate_skips_unreliable_edges():
    es = EdgeSet(
        200, 200,
        (
            Edge(10.0, 10.0, 0.2, reliable=False),
            Edge(150.0, 150.0, 1.8),
            Edge(20.0, 160.0, 0.4),
        ),
    )
    pairs = enumerate_basis_pairs(es, HypothesisConfig(min_dist=5.0))
    assert [(b.i, b.j) for b in pairs] == [(1, 2)]


def test_enumerate_excludes_couples_collinear_with_axis():
    # both orientations within min_sep_angle of the joining axis (phi = 0)
    es = EdgeSet(
        100, 100,
        (Edge(10.0, 10.0, 0.05), Edge(60.0, 10.0, TWO_PI - 0.34)),
    )
    assert enumerate_basis_pairs(es, HypothesisConfig(min_dist=10.0)) == []
    # relaxing min_sep_angle below both deviations admits the couple
    ok = enumerate_basis_pairs(
        es, HypothesisConfig(min_dist=10.0, min_sep_angle=0.3)
    )
    assert [(b.i, b.j) for b in ok] == [(0, 1)]


def test_enumerate_empty_and_tiny_sets():
    assert enumerate_basis_pairs(EdgeSet(64, 64, ())) == []
    one = EdgeSet(64, 64, (Edge(10.0, 10.0, 1.0),))
    assert enumerate_basis_pairs(one) == []


# ------------------------------------------------------------ compatibility


def test_identity_pair_is_found_exactly():
    es = EdgeSet(
        200, 200,
        (Edge(20.0, 30.0, 0.5), Edge(150.0, 120.0, 2.1), Edge(80.0, 170.0, 4.0)),
    )
    cfg = HypothesisConfig(min_dist=10.0)
    basis = enumerate_basis_pairs(es, cfg)[0]
    out = find_compatible_pairs(es, basis, es, cfg)
    (n1, n2), t = out[0]
    assert (n1, n2) == (basis.i, basis.j)
    assert (t.s, t.tx, t.ty) == (1.0, 0.0, 0.0)


def test_scale_and_shift_recovered_exactly():
    # 3-4-5 construction: probe distances double the reference ones
    ref = EdgeSet(160, 160, (Edge(20.0, 25.0, 1.0), Edge(50.0, 65.0, 2.0)))
    probe = EdgeSet(160, 160, (Edge(20.0, 40.0, 1.0), Edge(80.0, 120.0, 2.0)))
    d = math.hypot(30.0, 40.0)
    phi = math.atan2(40.0, 30.0)
    basis = BasisPair(i=0, j=1, phi=phi, dist=d, quality=1.0)
    out = find_compatible_pairs(probe, basis, ref, HypothesisConfig(min_dist=10.0))
    assert len(out) == 1
    (n1, n2), t = out[0]
    assert (n1, n2) == (0, 1)
    assert (t.s, t.tx, t.ty) == (0.5, 10.0, 5.0)
    # the anchor edge maps exactly onto its reference mate
    assert t.apply(20.0, 40.0) == (20.0, 25.0)


@given(
    edge_rows,
    st.lists(
        st.tuples(st.floats(0.0, 199.99), st.floats(0.0, 199.99), angles),
        min_size=2,
        max_size=25,
    ),
    st.sampled_from([1, 3, 10]),
    st.sampled_from([1, 7, basis_mod._CHUNK_CELLS]),
)
def test_find_compatible_matches_brute_force(ref_rows, probe_rows, cap, chunk):
    ref = make_set(ref_rows)
    probe = EdgeSet(200, 200, tuple(Edge(x, y, t) for x, y, t in probe_rows))
    cfg = HypothesisConfig(min_dist=5.0, max_pairs_n=cap)
    bases = enumerate_basis_pairs(ref, cfg)
    if not bases:
        return
    basis = bases[0]
    # Small chunks split the candidate matrix into many row blocks.
    with patch.object(basis_mod, "_CHUNK_CELLS", chunk):
        got = find_compatible_pairs(probe, basis, ref, cfg)
    expected = oracle_compatible_pairs(
        probe, basis.phi, basis.dist, ref.edges[basis.i], ref.edges[basis.j], cfg
    )
    assert [(n1, n2) for (n1, n2), _ in got] == [(r[1], r[2]) for r in expected]
    for ((_, _), t), r in zip(got, expected):
        assert (t.s, t.tx, t.ty) == (r[3], r[4], r[5])


def test_find_compatible_respects_scale_window():
    ref = EdgeSet(160, 160, (Edge(20.0, 20.0, 1.0), Edge(120.0, 20.0, 2.5)))
    # probe couple would need s = 100 / 10 = 10, far outside [0.5, 2]
    probe = EdgeSet(160, 160, (Edge(20.0, 20.0, 1.0), Edge(30.0, 20.0, 2.5)))
    basis = BasisPair(i=0, j=1, phi=0.0, dist=100.0, quality=1.0)
    out = find_compatible_pairs(probe, basis, ref, HypothesisConfig(min_dist=10.0))
    assert out == []


def test_find_compatible_on_tiny_probe_sets():
    ref = EdgeSet(160, 160, (Edge(20.0, 20.0, 1.0), Edge(120.0, 20.0, 2.5)))
    basis = BasisPair(i=0, j=1, phi=0.0, dist=100.0, quality=1.0)
    empty = EdgeSet(160, 160, ())
    assert find_compatible_pairs(empty, basis, ref) == []
    single = EdgeSet(160, 160, (Edge(5.0, 5.0, 1.0),))
    assert find_compatible_pairs(single, basis, ref) == []
