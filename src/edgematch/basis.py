"""Two-edge basis couples and the translation+scale hypotheses they induce.

A pair of edges in the reference set fixes a similarity frame without
rotation: matching it against a compatible pair in the probe set determines
the scale from the ratio of the two inter-edge distances and the translation
from one anchor correspondence.  Couples are ranked by a quality score that
prefers confident edges, a wide span, and clearly non-parallel orientations,
so the most constraining hypotheses are tried first.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .edges import (
    TWO_PI,
    EdgeSet,
    _segment_ranges,
    angular_distance_array,
    require_int,
    require_positive,
    wrap_angle,
)

_PI = math.pi


@dataclass(frozen=True)
class Transform:
    """Isotropic scale plus translation mapping probe points into the
    reference frame: p_ref = s * p_probe + (tx, ty).  apply and invert take
    scalars or arrays of coordinates."""

    s: float
    tx: float
    ty: float

    def __post_init__(self):
        require_positive("scale", self.s)
        if not (math.isfinite(self.tx) and math.isfinite(self.ty)):
            raise ValueError("translation must be finite")

    def apply(self, x: float, y: float) -> tuple[float, float]:
        return self.s * x + self.tx, self.s * y + self.ty

    def invert(self, x: float, y: float) -> tuple[float, float]:
        return (x - self.tx) / self.s, (y - self.ty) / self.s


@dataclass(frozen=True)
class BasisPair:
    """An ordered couple (i, j) of reference edges with its joining-axis
    direction phi in [0, 2*pi), separation dist, and quality score."""

    i: int
    j: int
    phi: float
    dist: float
    quality: float

    def __post_init__(self):
        if self.i == self.j:
            raise ValueError("basis edges must be distinct")
        if not (self.dist > 0.0):
            raise ValueError("basis distance must be positive")
        if not (0.0 <= self.phi < TWO_PI):
            raise ValueError("phi must lie in [0, 2*pi)")


@dataclass(frozen=True)
class HypothesisConfig:
    """Tolerances and budgets of the basis search.

    min_dist of None resolves to 15% of the reference frame diagonal at call
    time.  The admissible scale interval must straddle 1 so the identity is
    always representable.
    """

    eps_theta: float = 0.15
    eps_phi: float = 0.15
    min_sep_angle: float = 0.35
    min_dist: float | None = None
    s_min: float = 0.5
    s_max: float = 2.0
    max_basis_a: int = 300
    max_pairs_n: int = 10

    def __post_init__(self):
        require_positive("eps_theta", self.eps_theta)
        require_positive("eps_phi", self.eps_phi)
        if not (0.0 < self.min_sep_angle < 0.5 * _PI):
            raise ValueError("min_sep_angle must lie in (0, pi/2)")
        if self.min_dist is not None:
            require_positive("min_dist", self.min_dist)
        if not (0.0 < self.s_min <= 1.0 <= self.s_max):
            raise ValueError("scale range must satisfy 0 < s_min <= 1 <= s_max")
        require_int("max_basis_a", self.max_basis_a, 1)
        require_int("max_pairs_n", self.max_pairs_n, 1)

    def resolved_min_dist(self, frame_diagonal: float) -> float:
        if self.min_dist is not None:
            return self.min_dist
        return 0.15 * frame_diagonal


def _fold_half(d):
    """Map an angular distance in [0, pi] onto [0, pi/2] (mod-pi geometry)."""
    return np.minimum(d, _PI - d)


# Couples in the first band of the basis walk, and the cap each later band
# doubles up to.  The first band holds the one basis of 48 of the 80 register
# pool matches of seeds 41-42, the second the rest (230 couples a match; 256
# for a first band of 256, 282 for 64).  The cap bounds a band's memory.
_BAND_FIRST = 1 << 7
_BAND_PAIRS = 1 << 13
# Cells of the cand1 x cand2 blocks that compatible_pairs holds at once.  A
# round of a gallery search holds about 100k cells; on a 2-core machine,
# chunks of 2^18 made a search op 16.8 ms against 15.1 ms, and took 5 MB
# more peak memory.
_CHUNK_CELLS = 1 << 14
# Widening, in radians, of the orientation windows and the direction cone
# that narrow the candidates of compatible_pairs: far above the rounding
# (about 1e-15) of the exact tests they precede.
_ANGLE_PAD = 1e-6


def _couples(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Ranks (r, c), r < c, of the couples numbered lo .. hi - 1, couple
    (r, c) having number t = c (c - 1) / 2 + r.  Then (2c - 1)^2 <= 8t + 1
    < (2c + 1)^2, so c = (isqrt(8t + 1) + 1) // 2 in exact integers."""
    c_lo, c_hi = ((math.isqrt(8 * t + 1) + 1) // 2 for t in (lo, hi - 1))
    cols = np.arange(c_lo, c_hi + 1)
    first = cols * (cols - 1) // 2
    t = np.arange(lo, hi)
    k = np.searchsorted(first, t, side="right") - 1
    return t - first[k], cols[k]


def _score(arr, i, j, min_dist, min_sep, half_diag):
    """Rows (quality, i, j, phi, dist) of the admissible couples (i[t], j[t]),
    i < j."""
    x, y, th = arr.x, arr.y, arr.theta
    dx = x[j] - x[i]
    dy = y[j] - y[i]
    dist = np.sqrt(dx * dx + dy * dy)
    sep = _fold_half(angular_distance_array(th[i], th[j]))
    ok = (dist >= min_dist) & (sep >= min_sep)
    i, j, dx, dy, dist, sep = i[ok], j[ok], dx[ok], dy[ok], dist[ok], sep[ok]
    phi = wrap_angle(np.arctan2(dy, dx))
    dpar_i = _fold_half(angular_distance_array(th[i], phi))
    dpar_j = _fold_half(angular_distance_array(th[j], phi))
    ok = ~((dpar_i < min_sep) & (dpar_j < min_sep))
    i, j, phi, dist, sep = i[ok], j[ok], phi[ok], dist[ok], sep[ok]
    q = arr.confidence[i] * arr.confidence[j] * np.minimum(dist / half_diag, 1.0) * np.sin(sep)
    return np.column_stack((q, i, j, phi, dist))


def iter_basis_pairs(es: EdgeSet, cfg: HypothesisConfig | None = None) -> Iterator[BasisPair]:
    """Ranked basis couples of a reference set, best first.

    Considers reliable edges only, with i < j, separation at least min_dist,
    orientation separation (mod pi) at least min_sep_angle, and rejects
    couples where both orientations lie within min_sep_angle of the joining
    axis: those are nearly collinear with it and pin the scale poorly.
    Yields in descending quality, ties broken by lower i then lower j, and
    stops after max_basis_a couples.  Deterministic.

    A couple's quality is at most its bound conf_i * conf_j.  With the
    edges ranked by descending confidence cs, couples (r, c), r < c, are
    scored in the order of c (c - 1) / 2 + r, in bands of _BAND_FIRST
    couples doubling up to _BAND_PAIRS.  After a band, every scored couple
    whose quality is strictly above max(cs[r] * cs[c], cs[0] * cs[c + 1]),
    for (r, c) the next unscored couple, is yielded: no unscored couple can
    reach or tie it.  This is the threshold algorithm of Fagin, Lotem & Naor
    (PODS 2001): a caller that reads only the first few couples scores only
    a prefix of the ranking, and at most one band more.
    """
    if cfg is None:
        cfg = HypothesisConfig()
    arr = es.arrays()
    perm = es.ranked[arr.reliable[es.ranked]]  # rank -> edge index
    n = perm.size
    if n < 2:
        return
    diag = es.frame_diagonal
    min_dist = cfg.resolved_min_dist(diag)
    # Descending, then a 0 for cs[c + 1] of the last column: confidences are >= 0.
    cs = np.append(arr.confidence[perm], 0.0)
    done, total = 0, n * (n - 1) // 2
    need = cfg.max_basis_a
    pending = np.empty((0, 5))  # scored rows (quality, i, j, phi, dist) in yield order
    band = min(_BAND_FIRST, _BAND_PAIRS)
    while need > 0 and done < total:
        r, c = _couples(done, min(done + band, total))
        done += r.size
        pending = np.vstack((pending, _score(arr, np.minimum(perm[r], perm[c]),
                                             np.maximum(perm[r], perm[c]), min_dist,
                                             cfg.min_sep_angle, diag / 2.0)))
        if len(pending) > need:
            q = pending[:, 0]
            pending = pending[q >= np.partition(q, len(q) - need)[len(q) - need]]
        pending = pending[np.lexsort((pending[:, 2], pending[:, 1], -pending[:, 0]))[:need]]
        (r,), (c,) = _couples(done, done + 1)  # the next unscored couple, if any
        top = max(cs[r] * cs[c], cs[0] * cs[c + 1]) if done < total else -np.inf
        out = int(np.searchsorted(-pending[:, 0], -top))  # quality > top
        for q, i, j, phi, d in pending[:out].tolist():
            yield BasisPair(i=int(i), j=int(j), phi=phi, dist=d, quality=q)
        need -= out
        pending = pending[out:]
        band = min(2 * band, _BAND_PAIRS)


def enumerate_basis_pairs(es: EdgeSet, cfg: HypothesisConfig | None = None) -> list[BasisPair]:
    """All of :func:`iter_basis_pairs`: the max_basis_a best couples, ranked."""
    return list(iter_basis_pairs(es, cfg))


class CompatibleCouples(NamedTuple):
    """Probe couples compatible with a list of bases, as flat columns.

    Couple t matches probe edges (n1[t], n2[t]) to bases[basis[t]] under
    the transform (s[t], tx[t], ty[t]).
    """

    basis: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    s: np.ndarray
    tx: np.ndarray
    ty: np.ndarray


def _near_theta(probe: EdgeSet, theta: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """(query k, probe edge) pairs where the edge's orientation lies within
    eps of theta[k], sorted by query.

    Each query reads a window of probe.theta_order on the circle, padded by
    _ANGLE_PAD past the rounding of the exact test that follows, and clipped
    to len(probe) entries, so that no edge comes twice when eps >= pi.
    """
    order = probe.theta_order
    n = order.size
    th = probe.arrays().theta
    ts = th[order]
    # One lap of the circle on either side of [0, 2*pi) holds the wrapped ends.
    laps = np.concatenate((ts - TWO_PI, ts, ts + TWO_PI))
    w = eps + _ANGLE_PAD
    lo = np.searchsorted(laps, theta - w, side="left")
    hi = np.minimum(np.searchsorted(laps, theta + w, side="right"), lo + n)
    edge = np.tile(order, 3)[_segment_ranges(lo, hi - lo)]
    k = np.arange(theta.size).repeat(hi - lo)
    ok = angular_distance_array(th[edge], theta[k]) <= eps
    return k[ok], edge[ok]


def compatible_pairs(
    probe: EdgeSet,
    bases: list[BasisPair],
    refs: list[EdgeSet],
    cfg: HypothesisConfig | None = None,
) -> CompatibleCouples:
    """The couples of :func:`find_compatible_pairs` for every basis at once,
    ordered by basis, then as find_compatible_pairs orders them, each basis
    capped at max_pairs_n.  bases[k] is a couple of the reference set
    refs[k], so one call serves the bases of several references.

    Every basis contributes a block of cand1 x cand2 cells, and the blocks
    are tested together, in chunks of whole cand1 rows that hold at most
    _CHUNK_CELLS cells unless one row holds more.  A
    direction cone, dx cos(phi) + dy sin(phi) >= dist cos(eps_phi + pad),
    drops cells before the arctan2 of the exact phi test; it never drops a
    cell that the exact test keeps.
    """
    if cfg is None:
        cfg = HypothesisConfig()
    arr = probe.arrays()
    # Rows of the basis edges i and j: x, y, theta of each.
    ends = np.array([(a.x[b.i], a.y[b.i], a.theta[b.i], a.x[b.j], a.y[b.j], a.theta[b.j])
                     for b, a in zip(bases, (r.arrays() for r in refs))],
                    dtype=np.float64).reshape(-1, 6)
    x_i, y_i, th_i, x_j, y_j, th_j = ends.T
    phi_b, d_ref = (np.array([getattr(b, f) for b in bases], dtype=np.float64)
                    for f in ("phi", "dist"))
    # Queries 0..K-1 find the candidates of the edges i, K..2K-1 those of j.
    q, cand = _near_theta(probe, np.concatenate((th_i, th_j)), cfg.eps_theta)
    split = np.searchsorted(q, len(bases))
    k1, cand1 = q[:split], cand[:split]
    k2, cand2 = q[split:] - len(bases), cand[split:]
    c2 = np.bincount(k2, minlength=len(bases))
    off2 = np.cumsum(c2) - c2
    cone = cfg.eps_phi + _ANGLE_PAD
    cos_b, sin_b = np.cos(phi_b), np.sin(phi_b)
    parts = []
    # Row t of the cells pairs cand1[t] with every cand2 of its basis k1[t].
    # One empty chunk when there are no rows, so the columns keep their dtypes.
    step = max(1, _CHUNK_CELLS // max(int(c2.max(initial=0)), 1))
    for start in range(0, max(cand1.size, 1), step):
        kr = k1[start:start + step]
        width = c2[kr]
        k = kr.repeat(width)
        n1 = cand1[start:start + step].repeat(width)
        n2 = cand2[_segment_ranges(off2[kr], width)]
        dx = arr.x[n2] - arr.x[n1]
        dy = arr.y[n2] - arr.y[n1]
        dist = np.sqrt(dx * dx + dy * dy)
        with np.errstate(divide="ignore"):
            s = d_ref[k] / dist
        # dist > 0 also drops n2 == n1.
        ok = (dist > 0.0) & (s >= cfg.s_min) & (s <= cfg.s_max)
        if cone < _PI:
            ok &= dx * cos_b[k] + dy * sin_b[k] >= dist * math.cos(cone)
        k, n1, n2, dx, dy, s = (v[ok] for v in (k, n1, n2, dx, dy, s))
        phi = wrap_angle(np.arctan2(dy, dx))
        ok = angular_distance_array(phi, phi_b[k]) <= cfg.eps_phi
        k, n1, n2, s = (v[ok] for v in (k, n1, n2, s))
        tx = x_i[k] - s * arr.x[n1]
        ty = y_i[k] - s * arr.y[n1]
        rx = s * arr.x[n2] + tx - x_j[k]
        ry = s * arr.y[n2] + ty - y_j[k]
        parts.append((k, np.sqrt(rx * rx + ry * ry), n1, n2, s, tx, ty))
    k, residual, n1, n2, s, tx, ty = (np.concatenate(v) for v in zip(*parts))
    by = np.lexsort((n2, n1, residual, k))
    # A couple's rank within its basis, from the first couple of that basis.
    rank = np.arange(by.size) - np.searchsorted(k[by], k[by], side="left")
    top = by[rank < cfg.max_pairs_n]
    return CompatibleCouples(k[top], n1[top], n2[top], s[top], tx[top], ty[top])


def find_compatible_pairs(
    probe: EdgeSet,
    basis: BasisPair,
    ref: EdgeSet,
    cfg: HypothesisConfig | None = None,
) -> list[tuple[tuple[int, int], Transform]]:
    """Probe couples compatible with one basis of the reference set, with
    the induced transform for each.

    A probe couple (n1, n2) qualifies when theta_n1 is within eps_theta of
    reference edge basis.i, theta_n2 within eps_theta of edge basis.j, the
    probe joining direction is within eps_phi of the basis phi, and the
    implied scale s = basis.dist / dist_probe lies in [s_min, s_max].  The
    transform anchors exactly: s * p_n1 + t == p_ref1.  The result is capped
    at max_pairs_n by ascending residual |s * p_n2 + t - p_ref2|, ties broken
    by lower n1 then n2.  Deterministic.  The one-basis case of
    :func:`compatible_pairs`.
    """
    c = compatible_pairs(probe, [basis], [ref], cfg)
    return [((n1, n2), Transform(s=s, tx=tx, ty=ty))
            for n1, n2, s, tx, ty in zip(*(v.tolist() for v in c[1:]))]
