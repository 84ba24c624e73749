"""Oriented point-edge sets: the core representation, text serialization, and
a uniform-grid spatial index that each set builds for itself.

An edge is an unchained local feature: a subpixel position, a tangent
orientation on the full circle (so contrast polarity is preserved), a signed
isophote curvature, a detection confidence, and a reliability flag.  Edge sets
carry the pixel frame they were measured in; positions always lie inside that
frame.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi

EDGESET_VERSION = 1


class EdgeSetFormatError(ValueError):
    """Malformed EDGESET text or values violating the set invariants.

    row is the index of the first offending edge when one edge is to blame.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


def wrap_angle(a: np.ndarray) -> np.ndarray:
    """Angles taken mod 2*pi into [0, 2*pi), as a new array; a result that
    rounds to 2*pi (np.mod of a tiny negative angle) becomes 0."""
    a = np.mod(a, TWO_PI)
    a[a >= TWO_PI] = 0.0
    return a


def angular_distance_array(a: np.ndarray, b) -> np.ndarray:
    """Shortest angular distance between orientations, in [0, pi].

    fmod of the absolute difference, then the shorter of the two arcs.
    """
    d = np.mod(np.abs(np.asarray(a, dtype=np.float64) - b), TWO_PI)
    return np.minimum(d, TWO_PI - d)


def in_frame(x, y, width, height):
    """Accept mask of the points in [0, width) x [0, height); NaN is outside."""
    return (x >= 0.0) & (x < width) & (y >= 0.0) & (y < height)


def require_int(name: str, value, least: int) -> None:
    """Raise ValueError unless value is an integer (a bool is not) >= least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


def require_positive(name: str, value) -> None:
    """Raise ValueError unless value is positive and finite (NaN is not)."""
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class Edge:
    """A single oriented edge: one row of an :class:`EdgeSet`.

    theta is the tangent orientation in [0, 2*pi); kappa the signed isophote
    curvature in 1/pixels; confidence a detection strength in [0, 1];
    reliable marks edges stable enough to seed basis hypotheses.  The ranges
    are checked when the edge enters an :class:`EdgeSet`.
    """

    x: float
    y: float
    theta: float
    kappa: float = 0.0
    confidence: float = 1.0
    reliable: bool = True


class EdgeArrays(NamedTuple):
    x: np.ndarray
    y: np.ndarray
    theta: np.ndarray
    kappa: np.ndarray
    confidence: np.ndarray
    reliable: np.ndarray


class EdgeSet:
    """An ordered collection of edges in a width x height pixel frame.

    The edges are held as six validated columns (:class:`EdgeArrays`),
    returned by :meth:`arrays`; :attr:`edges` lists them as rows.  Build a
    set from columns with :meth:`from_arrays`, or from :class:`Edge` rows
    with ``EdgeSet(width, height, edges)``.  Treated as immutable, so the
    confidence ranking (:attr:`ranked`), the orientation order
    (:attr:`theta_order`) and the grid over the positions (:attr:`grid`) are
    computed once, on first use.
    """

    def __init__(self, width: int, height: int, edges: Iterable[Edge] = ()):
        rows = list(edges)
        cols = [[getattr(e, f) for e in rows] for f in EdgeArrays._fields]
        self._assign(width, height, *cols)

    @classmethod
    def from_arrays(cls, width: int, height: int, x, y, theta, kappa, confidence,
                    reliable) -> "EdgeSet":
        """A set over six equal-length columns, all rows checked at once: the
        first row with a position outside the frame, theta outside [0, 2*pi),
        a non-finite kappa or confidence outside [0, 1] raises
        :class:`EdgeSetFormatError` naming it."""
        es = cls.__new__(cls)
        es._assign(width, height, x, y, theta, kappa, confidence, reliable)
        return es

    def _assign(self, width, height, x, y, theta, kappa, confidence, reliable) -> None:
        require_int("width", width, 1)
        require_int("height", height, 1)
        f64 = [np.array(v, dtype=np.float64) for v in (x, y, theta, kappa, confidence)]
        c = EdgeArrays(*f64, np.array(reliable, dtype=bool))
        if any(v.ndim != 1 or v.shape != c.x.shape for v in c):
            raise ValueError("edge columns must be 1-D and of equal length")
        # Each invariant as an accept mask, so that NaN fails every test.
        checks = (
            (in_frame(c.x, c.y, width, height),
             "position ({x}, {y}) outside " f"{width}x{height} frame"),
            ((c.theta >= 0.0) & (c.theta < TWO_PI), "theta {theta} outside [0, 2*pi)"),
            (np.isfinite(c.kappa), "kappa {kappa} is not finite"),
            ((c.confidence >= 0.0) & (c.confidence <= 1.0),
             "confidence {confidence} outside [0, 1]"),
        )
        bad = ~np.logical_and.reduce([ok for ok, _ in checks])
        if bad.any():
            k = int(np.argmax(bad))
            message = next(m for ok, m in checks if not ok[k])
            row = {f: v[k] for f, v in zip(EdgeArrays._fields, c)}
            raise EdgeSetFormatError(f"edge {k}: " + message.format(**row), k)
        self.width = width
        self.height = height
        # The column store; the benchmark tracer reads it under this name.
        self._cache = c

    def __len__(self) -> int:
        return len(self._cache.x)

    def arrays(self) -> EdgeArrays:
        """The six columns, shared by every reader; do not modify them."""
        return self._cache

    @property
    def edges(self) -> list[Edge]:
        """One :class:`Edge` per row, in a new list on each access."""
        return list(map(Edge, *(col.tolist() for col in self._cache)))

    @cached_property
    def ranked(self) -> np.ndarray:
        """Edge indices in descending confidence, ties by lower index; shared,
        do not modify."""
        return np.argsort(-self._cache.confidence, kind="stable")

    @cached_property
    def theta_order(self) -> np.ndarray:
        """Edge indices in ascending theta, ties by lower index; shared, do
        not modify."""
        return np.argsort(self._cache.theta, kind="stable")

    @cached_property
    def grid(self) -> SpatialIndex:
        """The :func:`build_index` grid of the positions; shared, do not
        modify."""
        return build_index(self)

    @property
    def frame_diagonal(self) -> float:
        return math.sqrt(self.width * self.width + self.height * self.height)


def serialize(es: EdgeSet) -> bytes:
    """Encode an edge set as EDGESET v1 text (ASCII, LF newlines).

    Float fields are written with 6 fractional digits, which quantizes the
    set onto that grid: parse(serialize(s)) re-serializes to identical bytes.
    """
    c = es.arrays()
    # A position above bound - 1e-6 prints as bound - 0.000001 or rounds up
    # onto the bound; capping it there keeps the first text and pulls the
    # second back inside the frame.
    cols = (np.minimum(c.x, es.width - 1e-6), np.minimum(c.y, es.height - 1e-6)) + c[2:]
    head = f"EDGESET {EDGESET_VERSION}\n{es.width} {es.height} {len(es)}\n"
    rows = "".join(["%.6f %.6f %.6f %.6f %.6f %d\n" % row
                    for row in zip(*(col.tolist() for col in cols))])
    return (head + rows).encode("ascii")


def _parse_table(body: list[str]) -> np.ndarray:
    """The (len(body), 6) table of the EDGESET body lines, the flags as 0.0
    and 1.0.

    A regular body, six fields a line with each flag 0 or 1, is converted
    in one pass; any other body is read line by line only to name its first
    bad field.  The tokens are freed on return, before the caller allocates
    the set's columns.
    """
    tokens = [line.split() for line in body]
    if all(len(fields) == 6 and fields[5] in ("0", "1") for fields in tokens):
        try:
            return np.fromiter(map(float, chain.from_iterable(tokens)), np.float64,
                               6 * len(body)).reshape(len(body), 6)
        except ValueError:
            pass
    for k, fields in enumerate(tokens):
        lineno = k + 3
        if len(fields) != 6:
            raise EdgeSetFormatError(f"line {lineno}: expected 6 fields, got {len(fields)}")
        for t, what in zip(fields, ("x", "y", "theta", "kappa", "confidence")):
            try:
                float(t)
            except ValueError:
                raise EdgeSetFormatError(f"line {lineno}: non-numeric {what} {t!r}") from None
        if fields[5] not in ("0", "1"):
            raise EdgeSetFormatError(f"line {lineno}: reliable flag must be 0 or 1")
    raise AssertionError("a body the one-pass read refused has a bad line")


def parse(data: bytes | str) -> EdgeSet:
    """Decode EDGESET v1 text into an :class:`EdgeSet`.

    Raises :class:`EdgeSetFormatError` with a distinct message for version
    mismatches, malformed headers, wrong per-line field counts, non-numeric
    fields, out-of-range values, and edge-count mismatches.
    """
    if isinstance(data, (bytes, bytearray)):
        try:
            text = bytes(data).decode("ascii")
        except UnicodeDecodeError:
            raise EdgeSetFormatError("edge-set data is not ASCII") from None
    else:
        text = data
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise EdgeSetFormatError("empty edge-set data")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "EDGESET":
        raise EdgeSetFormatError(f"not an EDGESET file (first line {lines[0]!r})")
    if head[1] != str(EDGESET_VERSION):
        raise EdgeSetFormatError(f"unsupported EDGESET version {head[1]!r}")
    if len(lines) < 2:
        raise EdgeSetFormatError("missing dimension header line")
    dims = lines[1].split()
    if len(dims) != 3:
        raise EdgeSetFormatError(f"dimension line must have 3 fields, got {len(dims)}")
    try:
        width, height, count = (int(t) for t in dims)
    except ValueError:
        raise EdgeSetFormatError(f"non-integer dimension header {lines[1]!r}") from None
    if width < 1 or height < 1:
        raise EdgeSetFormatError(f"frame dimensions must be positive, got {width}x{height}")
    if count < 0:
        raise EdgeSetFormatError(f"negative edge count {count}")
    body = lines[2:]
    if len(body) != count:
        raise EdgeSetFormatError(f"header declares {count} edges, file has {len(body)} lines")
    table = _parse_table(body)
    try:
        return EdgeSet.from_arrays(width, height, *table.T)
    except EdgeSetFormatError as exc:
        # Edge k sits on line k + 3.
        raise EdgeSetFormatError(f"line {exc.row + 3}: {exc}", exc.row) from None


@dataclass(frozen=True)
class SpatialIndex:
    """Uniform-grid index over edge positions in CSR form.

    The frame is cut into nx x ny square cells of side cell_size; cell
    (cx, cy) has the number cy * nx + cx.  order lists the edge indices
    sorted by cell (ascending within a cell), and the edges of cell k are
    order[offsets[k]:offsets[k + 1]].  :func:`build_index` sizes the cells
    from the edge density; any cell size gives the same query results, as
    the exact predicates follow the cell lookup.
    """

    cell_size: float
    nx: int
    ny: int
    order: np.ndarray
    offsets: np.ndarray


def build_index(es: EdgeSet) -> SpatialIndex:
    """Grid index of the edge positions, with O(len(es)) cells; read it as
    ``es.grid``, which builds it once."""
    # nx * ny <= (w/c + 1) * (h/c + 1) <= 3 * limit + 1, as each of
    # w*h/c^2, w/c and h/c is at most limit.
    limit = 4 * len(es) + 16
    w, h = es.width, es.height
    cell = max(math.sqrt(w * h / limit), max(w, h) / limit)
    nx, ny = math.ceil(w / cell), math.ceil(h / cell)
    arr = es.arrays()
    key = _cell_of(arr.y, cell, ny) * nx + _cell_of(arr.x, cell, nx)
    order = np.argsort(key, kind="stable")
    offsets = np.zeros(nx * ny + 1, dtype=np.int64)
    np.cumsum(np.bincount(key, minlength=nx * ny), out=offsets[1:])
    return SpatialIndex(cell_size=cell, nx=nx, ny=ny, order=order, offsets=offsets)


def _cell_of(v: np.ndarray, cell: float, n: int) -> np.ndarray:
    return np.minimum(np.floor(v / cell), n - 1).astype(np.int64)


def _segment_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """concatenate(arange(s, s + c) for s, c in zip(starts, counts))."""
    ends = counts.cumsum()
    return np.arange(ends[-1] if ends.size else 0) + (starts - ends + counts).repeat(counts)


def query_near_batch(
    es: EdgeSet,
    x,
    y,
    radius,
    theta,
    eps_theta: float,
) -> tuple[np.ndarray, np.ndarray]:
    """All (query, edge) index pairs where edge lies within radius[q] of the
    query point (x[q], y[q]) and within `eps_theta` of theta[q].

    `radius` is one value for every query or one value per query; each must
    be non-negative (infinity is allowed, NaN is not).  Returns two int64
    arrays sorted by query, then edge.  The distance predicate is evaluated
    as dx*dx + dy*dy <= radius[q]*radius[q]; results are identical to a full
    scan applying the same tests, for any point, including points outside
    the frame.  Looks the candidates up in ``es.grid``.
    """
    qx, qy = pts = np.array([x, y], dtype=np.float64).reshape(2, -1)
    qt = np.asarray(theta, dtype=np.float64)
    r = np.broadcast_to(np.asarray(radius, dtype=np.float64), qx.shape)
    if not (r >= 0.0).all():
        raise ValueError("every radius must be non-negative, and not NaN")
    # A radius above 1e154 squares to inf, which every distance is within.
    with np.errstate(over="ignore"):
        r2 = r * r
    index = es.grid
    size = np.array([[index.nx], [index.ny]])
    # Widen the window past the rounding of the distance predicate.
    pad = r + 1e-9 * (1.0 + r + np.abs(pts).max(axis=0))
    lo = np.floor((pts - pad) / index.cell_size)
    hi = np.floor((pts + pad) / index.cell_size)
    # Clip each window to the grid; one that misses it gets no cell rows.
    hit = ((hi >= 0) & (lo < size)).all(axis=0)
    (x0, y0) = np.where(hit, np.maximum(lo, 0), 0).astype(np.int64)
    (x1, y1) = np.where(hit, np.minimum(hi, size - 1), -1).astype(np.int64)
    # One cell row per (query, y): its cells x0..x1 are one run of order.
    rows = y1 - y0 + 1
    cy = _segment_ranges(y0, rows)
    q, x0, x1 = np.arange(qt.size).repeat(rows), x0.repeat(rows), x1.repeat(rows)
    first = index.offsets[cy * index.nx + x0]
    counts = index.offsets[cy * index.nx + x1 + 1] - first
    edge = index.order[_segment_ranges(first, counts)]
    q = q.repeat(counts)
    arr = es.arrays()
    dx = arr.x[edge] - qx[q]
    dy = arr.y[edge] - qy[q]
    ok = (dx * dx + dy * dy <= r2[q]) & (
        angular_distance_array(arr.theta[edge], qt[q]) <= eps_theta
    )
    # Edges of one query come out grouped by cell row.  The cells of one
    # query are disjoint, so each (query, edge) pair occurs once, and one
    # integer key sorts them by query, then edge.
    n = max(len(es), 1)
    key = np.sort(q[ok] * n + edge[ok])
    return np.divmod(key, n)

