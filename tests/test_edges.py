import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgematch import (
    Edge,
    EdgeSet,
    EdgeSetFormatError,
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
        (b"EDGESET 1\n4 4 2\n1 1 0 0 1 1\n1 zz 0 0 1 1\n", "line 4: non-numeric y 'zz'"),
        (b"EDGESET 1\n4 4 2\n1 zz 0 0 1 1\n1 1 0 0 1\n", "line 3: non-numeric y 'zz'"),
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


def test_serialize_clamps_positions_that_round_onto_the_frame_bound():
    # Bytes taken before serialize was vectorized.  bound - 4e-7 and
    # nextafter(bound, 0) print as the bound and are clamped to
    # bound - 0.000001; the others print as that value unclamped.
    def near(bound):
        return [bound - 4e-7, bound - 5e-7, bound - 6e-7, bound - 1e-6,
                math.nextafter(bound, 0.0)]

    es = EdgeSet.from_arrays(100, 37, near(100.0), near(37.0), [0.5] * 5, [0.0] * 5,
                             [1.0] * 5, [True] * 5)
    data = serialize(es)
    row = b"99.999999 36.999999 0.500000 0.000000 1.000000 1\n"
    assert data == b"EDGESET 1\n100 37 5\n" + 5 * row
    assert serialize(parse(data)) == data


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


# The grid sizes its own cells: in a w x h frame with n edges the cell is
# max(sqrt(w * h / (4n + 16)), max(w, h) / (4n + 16)).


@given(st.data(), st.sampled_from([4, 12, 32, 256]))
def test_query_matches_brute_force(data, side):
    # Up to 60 edges: cells from side / 16 (60 edges) to side / 4 (none),
    # so 0.25 to 1 px in the 4 px frame and 16 to 64 px in the 256 px one.
    pos = st.floats(0.0, side, exclude_max=True)
    rows = data.draw(st.lists(st.tuples(pos, pos, angles), max_size=60))
    qx, qy = data.draw(pos), data.draw(pos)
    radius = data.draw(st.floats(0.0, 1.6 * side))
    qtheta, eps_theta = data.draw(angles), data.draw(st.floats(0.01, math.pi))
    es = EdgeSet(side, side, tuple(Edge(x, y, t) for x, y, t in rows))
    got = query_near_batch(es, [qx], [qy], radius, [qtheta], eps_theta)[1]
    assert got.dtype == np.int64
    assert got.tolist() == oracle_query(es, qx, qy, radius, qtheta, eps_theta)


def test_query_zero_radius_hits_exact_position():
    es = EdgeSet(64, 64, (Edge(10.0, 20.0, 1.0), Edge(30.0, 40.0, 1.0)))
    assert query_near_batch(es, [10.0], [20.0], 0.0, [1.0], 0.5)[1].tolist() == [0]


def test_query_negative_radius_raises():
    es = EdgeSet(64, 64, (Edge(1.0, 1.0, 0.0),))
    with pytest.raises(ValueError):
        query_near_batch(es, [0.0], [0.0], -1.0, [0.0], 0.1)


@pytest.mark.parametrize("radius", [math.nan, [1.0, math.nan], [1.0, -1.0]])
def test_query_nan_or_negative_radius_raises(radius):
    # A NaN radius used to pass the `radius < 0.0` check and find nothing.
    es = EdgeSet(64, 64, (Edge(1.0, 1.0, 0.0),))
    with pytest.raises(ValueError, match="radius"):
        query_near_batch(es, [1.0, 1.0], [1.0, 1.0], radius, [0.0, 0.0], 0.1)


def test_query_infinite_radius_reaches_every_edge():
    es = grid_set()
    q, e = query_near_batch(es, [-500.0, 30.0], [20.0, 9000.0], math.inf, [0.0, 0.0], math.pi)
    assert q.tolist() == [0] * len(es) + [1] * len(es)
    assert e.tolist() == list(range(len(es))) * 2


@given(st.data(), st.sampled_from([(1, 1), (100, 80), (1000, 2)]))
def test_batched_query_matches_brute_force(data, frame):
    # Up to 40 edges: cells of 0.08 to 0.25 px in the 1x1 frame, 6.7 to 22 px
    # in 100x80, and in 1000x2 one row of cells 5.7 to 62 px wide.  Points lie
    # well outside the frame and radii reach far past it, square past the
    # largest float, or are infinite; one radius serves every query, or each
    # query has its own.
    w, h = frame
    rows = data.draw(st.lists(st.tuples(
        st.floats(0.0, w, exclude_max=True), st.floats(0.0, h, exclude_max=True), angles),
        max_size=40))
    points = data.draw(st.lists(st.tuples(
        st.floats(-1.5 * w, 2.5 * w), st.floats(-1.5 * h, 2.5 * h), angles), max_size=30))
    scale = st.sampled_from([0.0, 0.025, 0.3, 5.0, 1e200, math.inf])
    if data.draw(st.booleans()):
        radius = data.draw(scale) * max(w, h)
    else:
        radius = np.array([data.draw(scale) for _ in points]) * max(w, h)
    eps_theta = data.draw(st.floats(0.01, math.pi))
    es = EdgeSet(w, h, tuple(Edge(x, y, t) for x, y, t in rows))
    x, y, theta = (np.array([p[k] for p in points], dtype=np.float64) for k in range(3))
    q, e = query_near_batch(es, x, y, radius, theta, eps_theta)
    assert q.dtype == e.dtype == np.int64
    radii = np.broadcast_to(radius, x.shape).tolist()
    expected = [
        (k, i) for k, (px, py, pt) in enumerate(points)
        for i in oracle_query(es, px, py, radii[k], pt, eps_theta)
    ]
    assert list(zip(q.tolist(), e.tolist())) == expected


def test_index_storage_stays_linear_in_edge_count():
    # 256x256 gets cells of about 17 px, 1x1 cells far below a pixel, and
    # 1000x1 a single row of 4.6 px cells; the empty set gets 64 px cells.
    n = 50
    u = (np.arange(n) + 0.5) / n
    cases = [grid_set(n=n), EdgeSet(256, 256, ()),
             EdgeSet.from_arrays(1, 1, u, u[::-1], u, u * 0, u, u > 0),
             EdgeSet.from_arrays(1000, 1, 1000 * u, u, u, u * 0, u, u > 0)]
    for es in cases:
        index = es.grid
        assert index.offsets.size <= 3 * (4 * len(es) + 16) + 2
        assert sorted(index.order.tolist()) == list(range(len(es)))
        assert es.grid is index
    assert cases[1].grid.cell_size == 64.0
    assert cases[2].grid.cell_size < 0.1
    assert query_near_batch(cases[2], [u[3]], [u[-4]], 0.0, [u[3]], 0.1)[1].tolist() == [3]


def test_batched_query_on_empty_inputs():
    es = grid_set()
    q, e = query_near_batch(es, [], [], 5.0, [], 0.5)
    assert q.size == e.size == 0
    empty = EdgeSet(64, 64, ())
    q, e = query_near_batch(empty, [1.0, 2.0], [1.0, 2.0], 50.0, [0.0, 0.0], 3.2)
    assert q.size == e.size == 0
    # A batch of queries over a 0-edge set, one of them reaching every cell:
    # sorting on the (query, edge) key must not divide by zero.
    q, e = query_near_batch(empty, [-5.0, 30.0, 70.0], [-5.0, 30.0, 70.0],
                            [np.inf, 0.0, 100.0], [0.0, 1.0, 2.0], 3.2)
    assert q.size == e.size == 0
    assert q.dtype == e.dtype == np.int64


@pytest.mark.parametrize("cell", [1.0, 2.0])
def test_batched_query_includes_edges_at_exactly_the_radius(cell):
    # Edges on every integer point of [0, 16)^2, queried from integer and
    # half-integer points with whole radii: many edges sit exactly on the
    # circle, and on the first or last cell of the query window.  The frame,
    # 65 x 16 * cell^2 px, has cell^2 * (4 * 256 + 16) square pixels, so its
    # grid cell is exactly `cell`.
    pts = [(float(x), float(y)) for x in range(16) for y in range(16)]
    es = EdgeSet(65, int(16 * cell * cell), tuple(Edge(x, y, 1.0) for x, y in pts))
    assert es.grid.cell_size == cell
    qx = np.array([0.0, 5.0, 15.0, 8.5, -2.0, 17.0])
    qy = np.array([0.0, 7.0, 15.0, 9.0, 4.0, 17.0])
    for radius in (1.0, 2.0, 3.0):
        q, e = query_near_batch(es, qx, qy, radius, np.ones(6), 0.1)
        expected = [(k, i) for k in range(6)
                    for i in oracle_query(es, qx[k], qy[k], radius, 1.0, 0.1)]
        assert list(zip(q.tolist(), e.tolist())) == expected
