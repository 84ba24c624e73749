import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgematch import (
    Edge,
    EdgeSet,
    EdgeSetFormatError,
    build_index,
    parse,
    query_near_batch,
    serialize,
)
from edgematch.edges import TWO_PI, angular_distance_array

from helpers import angular_distance, oracle_angular, oracle_query

angles = st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True)


def grid_set(n=20, width=256, height=256):
    edges = []
    for i in range(n):
        edges.append(
            Edge(
                x=(i * 37) % width + 0.25,
                y=(i * 53) % height + 0.75,
                theta=(i * 0.41) % TWO_PI,
                confidence=1.0 - i / (2 * n),
            )
        )
    return EdgeSet(width, height, edges)


# ---------------------------------------------------------------- format


def test_serialize_empty_set():
    assert serialize(EdgeSet(64, 64, ())) == b"EDGESET 1\n64 64 0\n"


def test_serialize_single_edge_exact_bytes():
    es = EdgeSet(64, 64, (Edge(3.5, 4.25, 1.5707963267948966),))
    assert serialize(es) == (
        b"EDGESET 1\n64 64 1\n3.500000 4.250000 1.570796 0.000000 1.000000 1\n"
    )


def test_parse_round_trip_bytes():
    es = grid_set()
    data = serialize(es)
    assert serialize(parse(data)) == data


def test_parse_preserves_frame_and_count():
    es = parse(b"EDGESET 1\n100 50 1\n10.0 20.0 0.5 -0.01 0.25 0\n")
    assert (es.width, es.height, len(es)) == (100, 50, 1)
    e = es.edges[0]
    assert (e.x, e.y, e.theta, e.kappa, e.confidence, e.reliable) == (
        10.0, 20.0, 0.5, -0.01, 0.25, False,
    )


@pytest.mark.parametrize(
    "data,fragment",
    [
        (b"NOTEDGES 1\n4 4 0\n", "EDGESET"),
        (b"EDGESET 2\n4 4 0\n", "version"),
        (b"EDGESET 1\n4 4\n", "dimension"),
        (b"EDGESET 1\nx 4 0\n", "integer"),
        (b"EDGESET 1\n4 4 2\n1 1 0 0 1 1\n", "2 edges"),
        (b"EDGESET 1\n4 4 1\n1 1 0 0 1\n", "fields"),
        (b"EDGESET 1\n4 4 1\n1 1 zz 0 1 1\n", "theta"),
        (b"EDGESET 1\n4 4 1\n1 1 7.0 0 1 1\n", "theta"),
        (b"EDGESET 1\n4 4 1\n1 1 0 0 1.5 1\n", "confidence"),
        (b"EDGESET 1\n4 4 1\n9 1 0 0 1 1\n", "frame"),
        (b"EDGESET 1\n4 4 1\n1 1 0 0 1 2\n", "reliable"),
        (b"EDGESET 1\n4 4 2\n1 1 0 0 1 1\n1 1 7.0 0 1 1\n", "line 4: edge 1: theta"),
        (b"EDGESET 1\n4 4 1\n1 1 0 nan 1 1\n", "kappa"),
    ],
)
def test_parse_rejects_malformed(data, fragment):
    with pytest.raises(EdgeSetFormatError) as err:
        parse(data)
    assert fragment in str(err.value)


def columns(rows):
    """Six column arrays from (x, y, theta, kappa, confidence, reliable) rows."""
    return [np.array(col) for col in zip(*rows)]


GOOD_ROW = (1.0, 1.0, 0.5, 0.0, 1.0, True)


def test_edge_field_validation():
    for bad, fragment in (
        (Edge(1.0, 1.0, 7.0), "theta"),
        (Edge(1.0, 1.0, -0.1), "theta"),
        (Edge(1.0, 1.0, 0.0, confidence=1.5), "confidence"),
        (Edge(math.nan, 1.0, 0.0), "position"),
        (Edge(1.0, 1.0, 0.0, kappa=math.inf), "kappa"),
    ):
        with pytest.raises(ValueError, match=fragment):
            EdgeSet(64, 64, (bad,))
    # The column constructor checks every row at once and names the first
    # offending one; NaN fails every range test.
    for bad, fragment in (
        ((1.0, 1.0, math.nan, 0.0, 1.0, True), "theta"),
        ((1.0, 1.0, 0.5, 0.0, math.nan, True), "confidence"),
        ((math.inf, 1.0, 0.5, 0.0, 1.0, True), "position"),
        ((1.0, 1.0, 0.5, math.nan, 1.0, True), "kappa"),
    ):
        with pytest.raises(EdgeSetFormatError, match=fragment) as err:
            EdgeSet.from_arrays(64, 64, *columns([GOOD_ROW, GOOD_ROW, bad, bad]))
        assert err.value.row == 2
        assert str(err.value).startswith("edge 2:")
    with pytest.raises(ValueError, match="equal length"):
        EdgeSet.from_arrays(64, 64, [1.0], [1.0, 2.0], [0.0], [0.0], [1.0], [True])


def test_edgeset_rejects_out_of_frame():
    with pytest.raises(ValueError):
        EdgeSet(64, 64, (Edge(64.0, 1.0, 0.0),))
    with pytest.raises(ValueError):
        EdgeSet(64, 64, (Edge(1.0, -0.5, 0.0),))
    for x, y in ((64.0, 1.0), (1.0, -0.5), (1.0, 64.0), (-math.inf, 1.0), (1.0, math.nan)):
        with pytest.raises(EdgeSetFormatError, match="frame"):
            EdgeSet.from_arrays(64, 64, *columns([GOOD_ROW, (x, y, 0.5, 0.0, 1.0, True)]))
    # Just inside the bound is in frame.
    edge = np.nextafter(64.0, 0.0)
    assert len(EdgeSet.from_arrays(64, 64, *columns([(edge, edge, 0.5, 0.0, 1.0, True)]))) == 1


@pytest.mark.parametrize("width", [100.5, True, 0])
def test_edgeset_rejects_non_integer_frame(width):
    # A fractional width used to build a set whose serialized header
    # "100.5 100 1" parse then rejected.
    for w, h in ((width, 100), (100, width)):
        with pytest.raises(ValueError, match="must be an integer of at least 1"):
            EdgeSet.from_arrays(w, h, *columns([GOOD_ROW]))
        with pytest.raises(ValueError, match="must be an integer of at least 1"):
            EdgeSet(w, h, ())


def test_edgeset_columns_and_rows_agree():
    rows = [(3.5, 4.25, 1.5, -0.01, 0.25, False), (10.0, 20.0, 6.0, 0.5, 1.0, True)]
    es = EdgeSet.from_arrays(64, 32, *columns(rows))
    assert [tuple(vars(e).values()) for e in es.edges] == rows
    assert es.edges[-1] == Edge(*rows[-1])
    assert es.edges[:1] == [Edge(*rows[0])]
    assert es.arrays() is es.arrays()
    assert es.arrays().x.dtype == np.float64 and es.arrays().reliable.dtype == bool
    assert serialize(EdgeSet(64, 32, es.edges)) == serialize(es)
    empty = EdgeSet(64, 32)
    assert empty.arrays().x.dtype == np.float64 and len(empty.edges) == 0


@given(
    st.lists(
        st.tuples(
            st.floats(0.0, 63.99),
            st.floats(0.0, 63.99),
            angles,
            st.floats(-5.0, 5.0),
            st.floats(0.0, 1.0),
            st.booleans(),
        ),
        max_size=20,
    )
)
def test_serialize_parse_idempotent(rows):
    es = EdgeSet(64, 64, tuple(Edge(*row) for row in rows))
    data = serialize(es)
    es2 = parse(data)
    assert serialize(es2) == data
    assert len(es2) == len(es)


# ---------------------------------------------------------------- angles


@given(angles, angles)
def test_angular_distance_matches_oracle(a, b):
    d = angular_distance(a, b)
    assert d == oracle_angular(a, b)
    assert 0.0 <= d <= math.pi
    assert angular_distance(b, a) == d


def test_angular_distance_wraps():
    assert angular_distance(0.1, TWO_PI - 0.1) == pytest.approx(0.2, abs=1e-12)
    assert angular_distance(0.0, math.pi) == math.pi
    assert angular_distance(1.3, 1.3) == 0.0


@given(st.lists(angles, min_size=1, max_size=30), angles)
def test_angular_distance_array_matches_scalar(arr, b):
    a = np.array(arr)
    out = angular_distance_array(a, b)
    for i, v in enumerate(arr):
        assert out[i] == angular_distance(v, b)


# ---------------------------------------------------------------- index


@given(
    st.lists(
        st.tuples(st.floats(0.0, 255.99), st.floats(0.0, 255.99), angles),
        max_size=60,
    ),
    st.floats(0.0, 255.99),
    st.floats(0.0, 255.99),
    st.floats(0.0, 400.0),
    angles,
    st.floats(0.01, math.pi),
    st.sampled_from([1.0, 3.0, 8.0, 64.0]),
)
def test_query_matches_brute_force(rows, qx, qy, radius, qtheta, eps_theta, cell):
    es = EdgeSet(256, 256, tuple(Edge(x, y, t) for x, y, t in rows))
    index = build_index(es, cell)
    got = query_near_batch(index, es, [qx], [qy], radius, [qtheta], eps_theta)[1]
    assert got.dtype == np.int64
    assert got.tolist() == oracle_query(es, qx, qy, radius, qtheta, eps_theta)


def test_query_zero_radius_hits_exact_position():
    es = EdgeSet(64, 64, (Edge(10.0, 20.0, 1.0), Edge(30.0, 40.0, 1.0)))
    index = build_index(es, 4.0)
    assert query_near_batch(index, es, [10.0], [20.0], 0.0, [1.0], 0.5)[1].tolist() == [0]


def test_query_negative_radius_raises():
    es = EdgeSet(64, 64, (Edge(1.0, 1.0, 0.0),))
    index = build_index(es, 4.0)
    with pytest.raises(ValueError):
        query_near_batch(index, es, [0.0], [0.0], -1.0, [0.0], 0.1)


def test_build_index_rejects_bad_cell_size():
    es = EdgeSet(64, 64, ())
    with pytest.raises(ValueError):
        build_index(es, 0.0)
    with pytest.raises(ValueError):
        build_index(es, math.inf)


@given(
    st.lists(
        st.tuples(st.floats(0.0, 99.99), st.floats(0.0, 79.99), angles),
        max_size=40,
    ),
    st.lists(
        st.tuples(st.floats(-150.0, 250.0), st.floats(-150.0, 250.0), angles),
        max_size=30,
    ),
    st.sampled_from([0.0, 2.5, 30.0, 500.0]),
    st.floats(0.01, math.pi),
    st.sampled_from([1e-9, 1.0, 7.0, 1000.0]),
)
def test_batched_query_matches_brute_force(rows, points, radius, eps_theta, cell):
    # Points well outside the 100x80 frame, radii wider than it, and a cell
    # size far below a pixel.
    es = EdgeSet(100, 80, tuple(Edge(x, y, t) for x, y, t in rows))
    index = build_index(es, cell)
    x, y, theta = (np.array([p[k] for p in points], dtype=np.float64) for k in range(3))
    q, e = query_near_batch(index, es, x, y, radius, theta, eps_theta)
    assert q.dtype == e.dtype == np.int64
    expected = [
        (k, i) for k, (px, py, pt) in enumerate(points)
        for i in oracle_query(es, px, py, radius, pt, eps_theta)
    ]
    assert list(zip(q.tolist(), e.tolist())) == expected


def test_index_storage_stays_linear_in_edge_count():
    es = grid_set(n=50)
    for cell in (1e-9, 0.5, 3.0):
        index = build_index(es, cell)
        assert index.cell_size >= cell
        assert index.offsets.size <= 4 * (4 * len(es) + 16)
        assert sorted(index.order.tolist()) == list(range(len(es)))
    assert build_index(es, 64.0).cell_size == 64.0
    index = build_index(es, 1e-9)
    assert query_near_batch(index, es, [0.25], [0.75], 0.0, [0.0], 0.1)[1].tolist() == [0]


def test_batched_query_on_empty_inputs():
    es = grid_set()
    index = build_index(es, 4.0)
    q, e = query_near_batch(index, es, [], [], 5.0, [], 0.5)
    assert q.size == e.size == 0
    empty = EdgeSet(64, 64, ())
    q, e = query_near_batch(build_index(empty, 4.0), empty, [1.0, 2.0], [1.0, 2.0], 50.0,
                            [0.0, 0.0], 3.2)
    assert q.size == e.size == 0


@pytest.mark.parametrize("cell", [1.0, 2.0])
def test_batched_query_includes_edges_at_exactly_the_radius(cell):
    # Edges on every integer point, queried from integer and half-integer
    # points with whole radii: many edges sit exactly on the circle, and on
    # the first or last cell of the query window.
    pts = [(float(x), float(y)) for x in range(32) for y in range(32)]
    es = EdgeSet(32, 32, tuple(Edge(x, y, 1.0) for x, y in pts))
    index = build_index(es, cell)
    assert index.cell_size == cell
    qx = np.array([0.0, 5.0, 31.0, 16.5, -2.0, 33.0])
    qy = np.array([0.0, 7.0, 31.0, 9.0, 4.0, 33.0])
    for radius in (1.0, 2.0, 3.0):
        q, e = query_near_batch(index, es, qx, qy, radius, np.ones(6), 0.1)
        expected = [(k, i) for k in range(6)
                    for i in oracle_query(es, qx[k], qy[k], radius, 1.0, 0.1)]
        assert list(zip(q.tolist(), e.tolist())) == expected
