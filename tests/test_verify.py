import hashlib
import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgematch import (
    CorruptionSpec,
    Edge,
    EdgeSet,
    HypothesisConfig,
    MatchResult,
    Transform,
    VerifyConfig,
    corrupt_and_transform,
    count_coincidences,
    match,
    query_near_batch,
    random_edge_set,
    screen_branches,
    sequential_verify,
)
from edgematch import verify as verify_mod
from edgematch.edges import TWO_PI
from edgematch.verify import _refit_transform

from helpers import oracle_coincidences, oracle_query

IDENTITY = Transform(s=1.0, tx=0.0, ty=0.0)


def grid_ref(n=100, spacing=20.0):
    """10x10 grid with strictly descending confidence.

    Orientations are random per node: a linear progression would make the
    grid nearly self-similar under one-cell shifts and shifted transforms
    would then match legitimately.
    """
    theta = np.random.default_rng(123).uniform(0.0, TWO_PI, n)
    edges = []
    for i in range(n):
        edges.append(
            Edge(
                x=0.5 + spacing * (i % 10),
                y=0.5 + spacing * (i // 10),
                theta=float(theta[i]),
                confidence=1.0 - i * 0.004,
            )
        )
    return EdgeSet(256, 256, edges)


def drop_indices(es, dropped):
    kept = [e for i, e in enumerate(es.edges) if i not in dropped]
    return EdgeSet(es.width, es.height, kept)


# ---------------------------------------------------------------- config


def test_verify_config_validation():
    for bad in (
        dict(eps_pos=0.0),
        dict(eps_theta=-0.1),
        dict(probe_count=0),
        dict(miss_factor=0.0),
        dict(miss_factor=1.0),
        dict(prune_threshold=1.0),
        dict(accept_score=0.0),
        dict(accept_score=1.1),
        dict(max_branches=0),
        dict(probe_count=2.5),
        dict(max_branches=2.5),
        dict(max_branches=True),
    ):
        with pytest.raises(ValueError):
            VerifyConfig(**bad)


def test_verify_config_rejects_non_finite_tolerances():
    for key in ("eps_pos", "eps_theta"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=key):
                VerifyConfig(**{key: value})


# ---------------------------------------------------------- coincidences


def test_identity_self_match_scores_exactly_one():
    ref = random_edge_set(200, 256, 256, seed=3)
    pairs, score = count_coincidences(ref, ref, IDENTITY)
    assert score == 1.0
    assert sorted(pairs) == [(i, i) for i in range(200)]


def test_quarter_dropout_scores_exactly_six_sevenths():
    ref = random_edge_set(400, 256, 256, seed=42)
    probe = drop_indices(ref, set(range(0, 400, 4)))
    assert len(probe) == 300
    _, score = count_coincidences(ref, probe, IDENTITY)
    assert score == 6.0 / 7.0


def test_probe_outside_frame_is_invisible():
    ref = EdgeSet(100, 100, (Edge(30.0, 50.0, 1.0),))
    probe = EdgeSet(
        200, 200, (Edge(10.0, 50.0, 1.0), Edge(90.0, 50.0, 1.0))
    )
    shift = Transform(s=1.0, tx=20.0, ty=0.0)  # second edge maps to x=110
    pairs, score = count_coincidences(ref, probe, shift)
    assert pairs == [(0, 0)]
    assert score == 1.0  # 2 * 1 / (1 ref + 1 visible)


def test_boundary_maps_outside():
    ref = EdgeSet(100, 100, (Edge(99.0, 50.0, 1.0),))
    probe = EdgeSet(100, 100, (Edge(50.0, 50.0, 1.0),))
    doubling = Transform(s=2.0, tx=0.0, ty=0.0)  # maps onto x = 100, just out
    pairs, score = count_coincidences(ref, probe, doubling)
    assert pairs == []
    assert score == 0.0


angles = st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True)
small_edges = st.lists(
    st.tuples(st.floats(0.0, 99.9), st.floats(0.0, 99.9), angles, st.floats(0.1, 1.0)),
    max_size=25,
)


@given(
    small_edges,
    small_edges,
    st.floats(0.5, 2.0),
    st.floats(-30.0, 30.0),
    st.floats(-30.0, 30.0),
    st.sampled_from([1.0, 3.0, 10.0]),
    st.sampled_from([0.1, 0.5]),
)
def test_coincidences_match_oracle(ref_rows, probe_rows, s, tx, ty, eps_pos, eps_theta):
    ref = EdgeSet(100, 100, tuple(Edge(x, y, t, 0.0, c) for x, y, t, c in ref_rows))
    probe = EdgeSet(100, 100, tuple(Edge(x, y, t, 0.0, c) for x, y, t, c in probe_rows))
    transform = Transform(s=s, tx=tx, ty=ty)
    cfg = VerifyConfig(eps_pos=eps_pos, eps_theta=eps_theta)
    pairs, score = count_coincidences(ref, probe, transform, cfg)
    o_pairs, o_score = oracle_coincidences(ref, probe, transform, eps_pos, eps_theta)
    assert pairs == o_pairs
    assert score == o_score
    # one-to-one on both sides
    assert len({a for a, _ in pairs}) == len(pairs) == len({n for _, n in pairs})


def test_coincidence_distance_ties_go_to_lowest_ref_index():
    # Edge 0 lies in a later grid cell than edge 1, both exactly eps_pos away.
    ref = EdgeSet(32, 32, (Edge(12.0, 10.0, 1.0), Edge(6.0, 10.0, 1.0)))
    probe = EdgeSet(32, 32, (Edge(9.0, 10.0, 1.0),))
    pairs, _ = count_coincidences(ref, probe, IDENTITY)
    assert pairs == [(0, 0)]


@pytest.mark.parametrize("eps_pos", [0.5, 1.0, 1.5])
def test_coincidences_on_integer_grid_match_oracle(eps_pos):
    # Reference edges on the integer points in shuffled order; probe edges on
    # half-integer points, equidistant from two or four of them, with
    # confidences on four levels so that the processing order ties too.
    rng = np.random.default_rng(5)
    points = [(float(x), float(y)) for x in range(4, 20) for y in range(4, 20)]
    ref = EdgeSet(32, 32, tuple(Edge(*points[k], 1.0) for k in rng.permutation(len(points))))
    probe = EdgeSet(32, 32, tuple(
        Edge(x + 0.5, y + float(rng.integers(0, 2)) * 0.5, 1.0 + float(rng.uniform(-0.1, 0.1)),
             0.0, float(rng.integers(1, 5)) / 4.0)
        for x, y in points[::3]
    ))
    cfg = VerifyConfig(eps_pos=eps_pos, eps_theta=0.2)
    got = count_coincidences(ref, probe, IDENTITY, cfg)
    assert got == oracle_coincidences(ref, probe, IDENTITY, eps_pos, 0.2)


@pytest.mark.parametrize("s", [1.0, 1.1])
def test_contested_coincidences_match_oracle(s):
    # 200 reference and 300 probe edges in a 40 x 40 frame, with eps_pos 4
    # and eps_theta 1.0: most probe edges have several candidates, and many
    # references are the candidate of several probe edges.  Confidences on
    # three levels tie the processing order.
    rng = np.random.default_rng(17)

    def edges(n):
        cols = (rng.uniform(0.0, 40.0, n), rng.uniform(0.0, 40.0, n),
                rng.uniform(0.0, TWO_PI, n), rng.integers(1, 4, n) / 3.0)
        return EdgeSet(40, 40, tuple(Edge(x, y, t, 0.0, c) for x, y, t, c in zip(*cols)))

    ref, probe = edges(200), edges(300)
    transform = Transform(s=s, tx=0.0, ty=0.0)
    got = count_coincidences(ref, probe, transform, VerifyConfig(eps_pos=4.0, eps_theta=1.0))
    assert got == oracle_coincidences(ref, probe, transform, 4.0, 1.0)
    # The case is contested: some reference is the candidate of at least
    # three probe edges, and some probe edge's nearest candidate is the
    # candidate of another probe edge too.
    cands = []
    for e in probe.edges:
        x, y = s * e.x, s * e.y
        if x < 40.0 and y < 40.0:
            near = oracle_query(ref, x, y, 4.0, e.theta, 1.0)
            cands.append((near, min(near, key=lambda a: (
                (ref.edges[a].x - x) ** 2 + (ref.edges[a].y - y) ** 2, a), default=None)))
    listed = Counter(a for near, _ in cands for a in near)
    assert max(listed.values()) >= 3
    assert any(listed[first] >= 2 for _, first in cands if first is not None)


@given(
    small_edges,
    small_edges,
    st.floats(1.0, 4.0),
    st.floats(1.0, 4.0),
)
def test_coincidence_count_monotone_in_eps_pos(ref_rows, probe_rows, eps_a, eps_b):
    ref = EdgeSet(100, 100, tuple(Edge(x, y, t, 0.0, c) for x, y, t, c in ref_rows))
    probe = EdgeSet(100, 100, tuple(Edge(x, y, t, 0.0, c) for x, y, t, c in probe_rows))
    lo, hi = sorted((eps_a, eps_b))
    pairs_lo, _ = count_coincidences(ref, probe, IDENTITY, VerifyConfig(eps_pos=lo))
    pairs_hi, _ = count_coincidences(ref, probe, IDENTITY, VerifyConfig(eps_pos=hi))
    assert len(pairs_lo) <= len(pairs_hi)


# ------------------------------------------------------------- sequential


def test_sequential_all_hits_returns_initial_confidence():
    ref = grid_ref()
    conf, pruned = sequential_verify(ref, ref, IDENTITY, 0.9)
    assert (conf, pruned) == (0.9, False)


def test_sequential_five_misses_survive():
    ref = grid_ref()
    probe = drop_indices(ref, set(range(5)))
    conf, pruned = sequential_verify(ref, probe, IDENTITY, 1.0)
    assert not pruned
    assert conf == pytest.approx(0.8**5, rel=1e-12)


@pytest.mark.parametrize("probe_count", [6, 20])
def test_sequential_prunes_exactly_at_sixth_miss(probe_count):
    # At probe_count 6 the prune falls on the last probe.
    ref = grid_ref()
    probe = drop_indices(ref, set(range(6)))
    conf, pruned = sequential_verify(ref, probe, IDENTITY, 1.0,
                                     VerifyConfig(probe_count=probe_count))
    assert pruned
    assert conf == pytest.approx(0.262144, rel=1e-12)
    assert conf < 0.3


def test_sequential_initial_confidence_below_threshold():
    ref = grid_ref()
    conf, pruned = sequential_verify(ref, ref, IDENTITY, 0.25)
    assert (conf, pruned) == (0.25, True)


def test_sequential_only_probes_the_top_edges():
    ref = grid_ref()
    # edges ranked past probe_count=20 are irrelevant
    probe = drop_indices(ref, set(range(25, 100)))
    conf, pruned = sequential_verify(ref, probe, IDENTITY, 1.0)
    assert (conf, pruned) == (1.0, False)


def screen_oracle(ref, probe, transform, confidence, cfg):
    """One hypothesis at a time, with one scalar-radius query per transform:
    the screen as it was before couples were batched."""
    if confidence < cfg.prune_threshold:
        return confidence, True
    arr = ref.arrays()
    order = ref.ranked[: cfg.probe_count]
    px, py = transform.invert(arr.x[order], arr.y[order])
    q, _ = query_near_batch(probe, px, py, cfg.eps_pos / transform.s, arr.theta[order],
                            cfg.eps_theta)
    hits = np.bincount(q, minlength=order.size)
    for h in hits.tolist():
        if h == 0:
            confidence *= cfg.miss_factor
            if confidence < cfg.prune_threshold:
                return confidence, True
    return confidence, False


@given(st.data(), st.sampled_from([0, 1, 10]))
def test_screen_branches_equals_one_screen_per_transform(data, n_branches):
    hyp = HypothesisConfig()
    n = data.draw(st.integers(0, 40))
    ref = random_edge_set(n, 128, 96, seed=data.draw(st.integers(0, 2**16)))
    truth = Transform(s=data.draw(st.floats(hyp.s_min, hyp.s_max)), tx=3.0, ty=-2.0)
    spec = CorruptionSpec(dropout=data.draw(st.sampled_from([0.0, 0.3, 0.8])),
                          jitter_pos=0.5, clutter_frac=0.5, seed=7)
    probe = corrupt_and_transform(ref, truth, spec, 128, 96)
    # A second reference of another size, a part of the first (so that it
    # hits near the truth as well) or another random set.
    m = data.draw(st.integers(0, 40).filter(lambda m: m != n))
    other = (EdgeSet(128, 96, ref.edges[:m]) if m < n and data.draw(st.booleans())
             else random_edge_set(m, 128, 96, seed=data.draw(st.integers(0, 2**16))))
    refs = [ref, other]
    owner = data.draw(st.lists(st.integers(0, 1), min_size=n_branches, max_size=n_branches))
    # Half the hypotheses sit near the truth, so branches hit as well as miss.
    scales = st.sampled_from([hyp.s_min, hyp.s_max]) | st.floats(hyp.s_min, hyp.s_max)
    transforms = [
        truth if data.draw(st.booleans()) else
        Transform(s=data.draw(scales), tx=data.draw(st.floats(-40.0, 40.0)),
                  ty=data.draw(st.floats(-40.0, 40.0)))
        for _ in range(n_branches)
    ]
    cfg = VerifyConfig(probe_count=data.draw(st.sampled_from([1, 5, 20, 60])),
                       miss_factor=data.draw(st.sampled_from([0.5, 0.8, 0.95])),
                       prune_threshold=data.draw(st.sampled_from([0.0, 0.3, 0.6])))
    # One initial confidence for every transform, or one per transform.
    initials = st.sampled_from([0.1, 0.29, 0.3, 0.5, 1.0])
    initial = data.draw(initials | st.lists(initials, min_size=n_branches,
                                            max_size=n_branches))
    each = initial if isinstance(initial, list) else [initial] * n_branches
    columns = ([t.s for t in transforms], [t.tx for t in transforms],
               [t.ty for t in transforms])
    confidence, pruned = screen_branches(refs, owner, probe, *columns, initial, cfg)
    assert (confidence.dtype, pruned.dtype) == (np.float64, np.bool_)
    got = list(zip(confidence.tolist(), pruned.tolist()))
    assert got == [screen_oracle(refs[o], probe, t, c, cfg)
                   for o, t, c in zip(owner, transforms, each)]
    assert [sequential_verify(refs[o], probe, t, c, cfg)
            for o, t, c in zip(owner, transforms, each)] == got


def test_screen_branches_keeps_each_branch_apart():
    # The same misses at two scales: eps_pos / s is each branch's own radius.
    ref = grid_ref()
    probe = drop_indices(ref, set(range(6)))
    half = Transform(s=0.5, tx=0.0, ty=0.0)
    cfg = VerifyConfig()
    got = list(zip(*(v.tolist() for v in screen_branches(
        [ref], [0, 0, 0], probe, [1.0, 0.5, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], 1.0,
        cfg))))
    assert got[0] == got[2] == screen_oracle(ref, probe, IDENTITY, 1.0, cfg)
    assert got[0] == (pytest.approx(0.262144, rel=1e-12), True)
    assert got[1] == screen_oracle(ref, probe, half, 1.0, cfg)
    confidence, pruned = screen_branches([ref], [], probe, [], [], [], 1.0)
    assert (confidence.shape, confidence.dtype) == ((0,), np.float64)
    assert (pruned.shape, pruned.dtype) == ((0,), np.bool_)


# ------------------------------------------------------------------ refit


def test_refit_recovers_exact_transform():
    ref_pts = [(20.0, 20.0), (20.0, 80.0), (80.0, 20.0), (80.0, 80.0)]
    probe_pts = [(2 * x - 20.0, 2 * y - 20.0) for x, y in ref_pts]
    ref = EdgeSet(256, 256, tuple(Edge(x, y, 1.0) for x, y in ref_pts))
    probe = EdgeSet(256, 256, tuple(Edge(x, y, 1.0) for x, y in probe_pts))
    t = _refit_transform(ref, probe, [(i, i) for i in range(4)], 0.5, 2.0)
    assert (t.s, t.tx, t.ty) == (0.5, 10.0, 10.0)


def test_refit_degenerate_cases_return_none():
    ref = EdgeSet(64, 64, (Edge(10.0, 10.0, 1.0), Edge(40.0, 40.0, 1.0)))
    same = EdgeSet(64, 64, (Edge(5.0, 5.0, 1.0), Edge(5.0, 5.0, 2.0)))
    assert _refit_transform(ref, ref, [(0, 0)], 0.5, 2.0) is None
    assert _refit_transform(ref, same, [(0, 0), (1, 1)], 0.5, 2.0) is None


def test_refit_rejects_out_of_range_scale():
    ref = EdgeSet(256, 256, (Edge(10.0, 10.0, 1.0), Edge(100.0, 100.0, 1.0)))
    probe = EdgeSet(256, 256, (Edge(10.0, 10.0, 1.0), Edge(40.0, 40.0, 1.0)))
    # implied scale 3.0 exceeds s_max = 2.0
    assert _refit_transform(ref, probe, [(0, 0), (1, 1)], 0.5, 2.0) is None
    assert _refit_transform(ref, probe, [(0, 0), (1, 1)], 0.5, 4.0) is not None


# ------------------------------------------------------------------ match


def test_match_self_is_perfect():
    ref = random_edge_set(300, 256, 256, seed=5)
    res = match(ref, ref)
    assert res.decided
    assert res.score == 1.0
    assert (res.transform.s, res.transform.tx, res.transform.ty) == (1.0, 0.0, 0.0)
    assert res.counts == (300, 300, 300)
    assert res.branches_tried == 1
    assert res.basis is not None
    assert len(res.matched_pairs) == 300


def test_match_repeat_is_deterministic():
    ref = random_edge_set(150, 256, 256, seed=6)
    probe = random_edge_set(150, 256, 256, seed=7)
    assert match(ref, probe) == match(ref, probe)


def test_match_recovers_known_transform_under_corruption():
    truth = Transform(s=1.12, tx=7.0, ty=-4.0)
    ref = random_edge_set(300, 256, 256, seed=1000)
    probe = corrupt_and_transform(
        ref, truth,
        CorruptionSpec(dropout=0.25, jitter_pos=0.5, jitter_theta=0.05,
                       clutter_frac=0.10, seed=3000),
        384, 384,
    )
    # dropout this heavy warrants a gentler sequential screen
    res = match(ref, probe, ver_cfg=VerifyConfig(prune_threshold=0.05))
    assert res.decided
    assert abs(res.transform.s - truth.s) / truth.s <= 0.02
    assert math.hypot(res.transform.tx - truth.tx, res.transform.ty - truth.ty) <= 2.0
    assert res.score >= 0.4


def test_match_rejects_unrelated_sets():
    a = random_edge_set(300, 256, 256, seed=7000)
    b = random_edge_set(300, 256, 256, seed=8000)
    res = match(a, b)
    assert not res.decided
    assert res.transform is None
    assert res.score == 0.0
    assert res.counts == (0, 300, 0)
    assert res.branches_tried <= 50
    assert res.matched_pairs == []
    assert res.basis is None


def test_match_empty_sets_reject():
    empty = EdgeSet(64, 64, ())
    some = random_edge_set(50, 64, 64, seed=1)
    for ref, probe in ((empty, some), (some, empty), (empty, empty)):
        res = match(ref, probe)
        assert not res.decided
        assert res.transform is None
        assert res.branches_tried == 0


def test_match_honors_max_branches():
    a = random_edge_set(200, 256, 256, seed=70)
    b = random_edge_set(200, 256, 256, seed=80)
    res = match(a, b, ver_cfg=VerifyConfig(max_branches=7))
    assert res.branches_tried <= 7


def test_default_screen_prunes_heavy_top_dropout_but_config_rescues():
    """Missing the six most confident reference edges kills every branch at
    the default miss penalty; lowering the prune floor admits the branch and
    the near-complete overlap then scores far above the accept threshold."""
    ref = grid_ref()
    probe = drop_indices(ref, set(range(6)))
    strict = match(ref, probe)
    assert not strict.decided
    relaxed = match(ref, probe, ver_cfg=VerifyConfig(prune_threshold=0.2))
    assert relaxed.decided
    assert relaxed.score == pytest.approx(2 * 94 / 194, rel=1e-12)
    assert relaxed.transform.s == pytest.approx(1.0, abs=1e-9)


def test_match_result_json_round_trip():
    ref = random_edge_set(100, 256, 256, seed=9)
    res = match(ref, ref)
    again = MatchResult.from_json_dict(res.to_json_dict())
    assert again == res

    reject = match(ref, random_edge_set(100, 256, 256, seed=10))
    again = MatchResult.from_json_dict(reject.to_json_dict())
    assert again == reject


def test_match_result_rejects_unknown_version():
    with pytest.raises(ValueError):
        MatchResult.from_json_dict({"version": 99, "decided": False, "score": 0.0})


def identity_cases():
    """20 fixed (ref, probe, hypothesis config, verify config) cases with up
    to 1500 edges: 14 true pairs, half of them with confidences on eight
    levels and a fifth of the edges unreliable, then 6 unrelated pairs with
    pruning off, so that the best branch is reported."""
    for k in range(20):
        rng = np.random.default_rng([17, k])
        n = int(rng.integers(100, 1501))
        w, h = (int(v) for v in rng.integers(200, 600, 2))
        ref = random_edge_set(n, w, h, seed=int(rng.integers(2**31)))
        if k % 2:
            c = ref.arrays()
            ref = EdgeSet.from_arrays(w, h, c.x, c.y, c.theta, c.kappa,
                                      np.round(c.confidence * 8.0) / 8.0, rng.random(n) < 0.8)
        hyp = HypothesisConfig(max_basis_a=int(rng.choice([1, 3, 300, 300])))
        if k < 14:
            truth = Transform(s=float(rng.uniform(0.8, 1.25)),
                              tx=float(rng.uniform(-30.0, 30.0)),
                              ty=float(rng.uniform(-30.0, 30.0)))
            spec = CorruptionSpec(dropout=float(rng.uniform(0.0, 0.15)),
                                  jitter_pos=float(rng.uniform(0.0, 0.5)), jitter_theta=0.03,
                                  clutter_frac=float(rng.uniform(0.0, 0.2)),
                                  seed=int(rng.integers(2**31)))
            probe = corrupt_and_transform(ref, truth, spec, w, h)
            ver = VerifyConfig()
        else:
            probe = random_edge_set(int(rng.integers(100, 1501)), w, h,
                                    seed=int(rng.integers(2**31)))
            ver = VerifyConfig(prune_threshold=0.0)
        yield ref, probe, hyp, ver


# sha256 of the sorted-key JSON of match() on each of identity_cases(), taken
# before basis enumeration was pruned and the grid index batched (numpy 2.x,
# x86-64): both changes must leave every result unchanged.
PINNED_MATCH_SHA256 = [
    "4fb440c56de5149477d896a1d002472cf1c17a96ff5c8441112b751a6dbcaca9",
    "07346870d8df17aef1d64048c2d6def07bbcf2648394cf93b78bf58f7229c144",
    "77bf4960f91b33cfd57bb8b32a98df2bbfdf5bb11e81ce217bbbd9466bc08f9b",
    "d5686280ad1f879c10ebcddf85ba8f961aa8bab5f251fd64d04183e49d624292",
    "beb5709f868a6ea2888ff8c3e3412266acc86728837e45adbbaff9eded419f77",
    "ae154f0abbfe1c547a9d7bd207d8982302c43b31c7dc6dffffcc208387bd08e8",
    "ef052db5fe4d6c2c786f5b2265b0ec0f2281da71261814c165f8c798096e8421",
    "23f28f10076c3399c8ee1bb7016eb1cd79087a56933724cda3974f2cd3cebd85",
    "50c1dc335ecd29bed2dffae96dbc8b62366dad94ee66cb9892961d024cf1f618",
    "bb6c2defb605d6d2af4589b71a22e54a82458ad77d59f0c2d2d713eb56c8f1a2",
    "6b2864f0a3100a4db529a2b294708cf529fd01f0237bf44f1787f1170239c9be",
    "ea7bc59fabaf6403afd4219c4d5e8abd273fec1d0765541eaa544c8834ec9e59",
    "5dcd6e411d157135e81c7591fc47dc50d402d90928d116992177f568dc2a1b96",
    "1705c1b3d29806e3a952ea6afbd3d43db302cce37923874ace5df3c8bf59bacb",
    "5118bc83a304c783f758e259ef88bdab564cfbca7913546c6ab82f7817c2d104",
    "1de08490ccfc6718ca913917cc5d81c219fdbff249ba668c0f2b74c324358e0f",
    "e02c3ff676fa7e2d9469cd829a681db7101b6bf3c4411d3759aae9f6e2ab884e",
    "4ef4c10a04d1cd62348c44d7c96a39796b418f96a0eea7e8d665fbe50aa556f3",
    "077b8231b3b23cfad437fe571687e1025e8b0194ad0e4ad35f25caef3f38a959",
    "de937e88137f1c7d57c66aa9d986608764ba3823d77574e22a964a52f912cfa0",
]


# sha256 of the newline-joined sorted-key JSON of match() on all of
# identity_cases() with accept_score 1.0, so that every branch up to the
# budget is tried, per max_branches; taken before the couples of one basis
# were screened in one batch.  Most bases give 10 couples (some give 1-8), so
# the budgets cut inside the first basis, at its end, and inside the second
# and third.
PINNED_BUDGET_SHA256 = {
    1: "72e3d823576c1e4f5243a2e99e5de5cdb28a2b9e8366493282bca1a2dd847db8",
    7: "9a0c42d23ef62d8e98ab893f5258019ffdbb03c7b5f5b9031e5e9b0f7710c98a",
    10: "e71a31b4f005bf5ffa9c61112330046e69b02b7d86cef90961f17fc8da3d589e",
    11: "3fbca28e5a5c5ce60b7faa8f4b200c66fbff0fb22e83a53b966ed50f67274957",
    23: "ac9360b933ce02168bbafdcc85768af0cfb41667fa5ef932bf7cdc629a8ab760",
}


def test_match_budget_digests_pinned():
    cases = list(identity_cases())
    got = {}
    for budget in PINNED_BUDGET_SHA256:
        docs = [json.dumps(match(ref, probe, hyp, replace(ver, max_branches=budget,
                                                            accept_score=1.0)).to_json_dict(),
                           sort_keys=True)
                for ref, probe, hyp, ver in cases]
        got[budget] = hashlib.sha256("\n".join(docs).encode()).hexdigest()
    assert got == PINNED_BUDGET_SHA256


def count_bases_read(monkeypatch):
    """Patch match's basis generator; the list it returns grows by one per
    basis that match pulls from it."""
    pulled = []
    real = verify_mod.iter_basis_pairs

    def counting(*args):
        for bp in real(*args):
            pulled.append(bp)
            yield bp

    monkeypatch.setattr(verify_mod, "iter_basis_pairs", counting)
    return pulled


def test_match_reads_no_basis_past_the_budget(monkeypatch):
    # The first three bases of case 0 give 10 compatible couples each.
    ref, probe, hyp, ver = next(identity_cases())
    pulled = count_bases_read(monkeypatch)
    for budget, bases in ((1, 1), (10, 1), (11, 2), (20, 2), (23, 3)):
        pulled.clear()
        res = match(ref, probe, hyp, replace(ver, max_branches=budget, accept_score=1.0))
        assert (res.branches_tried, len(pulled)) == (budget, bases)


def test_match_accepting_on_its_first_basis_reads_one_basis(monkeypatch):
    ref, probe, hyp, ver = next(identity_cases())
    pulled = count_bases_read(monkeypatch)
    res = match(ref, probe, hyp, ver)
    assert res.decided and res.basis[0] == (pulled[0].i, pulled[0].j)
    assert len(pulled) == 1


def test_match_with_fewer_than_two_probe_edges_reads_no_basis(monkeypatch):
    ref = random_edge_set(50, 64, 64, seed=1)
    pulled = count_bases_read(monkeypatch)
    for n in (0, 1):
        res = match(ref, random_edge_set(n, 64, 64, seed=2))
        assert res == MatchResult(decided=False, score=0.0, transform=None,
                                  counts=(0, 50, 0), branches_tried=0)
    assert pulled == []


def test_match_json_digests_pinned():
    got = [
        hashlib.sha256(
            json.dumps(match(ref, probe, hyp, ver).to_json_dict(), sort_keys=True).encode()
        ).hexdigest()
        for ref, probe, hyp, ver in identity_cases()
    ]
    assert [k for k, (a, b) in enumerate(zip(got, PINNED_MATCH_SHA256)) if a != b] == []
