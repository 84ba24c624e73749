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
from dataclasses import dataclass

import numpy as np

from .edges import TWO_PI, EdgeSet, angular_distance_array, require_int, wrap_angle

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
        if not (self.s > 0.0 and math.isfinite(self.s)):
            raise ValueError("scale must be positive and finite")
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
        if self.eps_theta <= 0.0 or self.eps_phi <= 0.0:
            raise ValueError("angle tolerances must be positive")
        if not (0.0 < self.min_sep_angle < 0.5 * _PI):
            raise ValueError("min_sep_angle must lie in (0, pi/2)")
        if self.min_dist is not None and self.min_dist <= 0.0:
            raise ValueError("min_dist must be positive")
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


# Couples scored per step of the pruned enumeration: smaller steps raise
# the floor sooner, larger ones spend less time per couple.
_CHUNK_PAIRS = 1 << 14
# Cells of the cand1 x cand2 matrix that find_compatible_pairs holds at once.
_CHUNK_CELLS = 1 << 18


def enumerate_basis_pairs(es: EdgeSet, cfg: HypothesisConfig | None = None) -> list[BasisPair]:
    """Ranked basis couples of a reference set.

    Considers reliable edges only, with i < j, separation at least min_dist,
    orientation separation (mod pi) at least min_sep_angle, and rejects
    couples where both orientations lie within min_sep_angle of the joining
    axis: those are nearly collinear with it and pin the scale poorly.
    Sorted by descending quality, ties broken by lower i then lower j, and
    truncated to max_basis_a entries.  Deterministic.

    A couple's quality is at most conf_i * conf_j, so edges are visited in
    descending confidence and couples that cannot beat the current
    max_basis_a-th best quality are never scored; the result is the same as
    scoring every couple.
    """
    if cfg is None:
        cfg = HypothesisConfig()
    arr = es.arrays()
    perm = es.ranked[arr.reliable[es.ranked]]  # rank -> edge index
    n = perm.size
    if n < 2:
        return []
    diag = es.frame_diagonal
    half_diag = diag / 2.0
    min_dist = cfg.resolved_min_dist(diag)
    min_sep = cfg.min_sep_angle
    x, y, th, conf = arr.x, arr.y, arr.theta, arr.confidence
    cs = conf[perm]
    k = cfg.max_basis_a
    best = np.empty((0, 5))  # rows (quality, i, j, phi, dist), i < j
    floor = -np.inf  # the k-th best quality so far

    def add(r, c):
        """Score the admissible couples of ranks (r[t], c[t]); keep the k best."""
        nonlocal best, floor
        i, j = np.minimum(perm[r], perm[c]), np.maximum(perm[r], perm[c])
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
        q = conf[i] * conf[j] * np.minimum(dist / half_diag, 1.0) * np.sin(sep)
        best = np.vstack((best, np.column_stack((q, i, j, phi, dist))[q >= floor]))
        best = best[np.lexsort((best[:, 2], best[:, 1], -best[:, 0]))[:k]]
        if len(best) == k:
            floor = best[-1, 0]

    # Seed the floor with every couple among the most confident edges.
    m = min(n, int(math.isqrt(8 * k)) + 2)
    add(*np.triu_indices(m, 1))
    # Then rank rows r against columns c > r outside that block, skipping
    # couples whose bound cs[r] * cs[c] is below the floor, until every
    # remaining couple (both ranks >= r0) has a bound below it.
    r0 = 0
    while r0 < n - 1 and cs[r0] * cs[r0 + 1] >= floor:
        c0 = max(m, r0 + 1)
        c1 = int(np.count_nonzero(cs[r0] * cs >= floor))
        if c1 <= c0:
            break
        r1 = min(r0 + max(1, _CHUNK_PAIRS // (c1 - c0)), c1 - 1)
        r = np.arange(r0, r1)[:, np.newaxis]
        c = np.arange(c0, c1)[np.newaxis, :]
        rr, cc = np.nonzero((c > r) & (cs[r] * cs[c] >= floor))
        add(rr + r0, cc + c0)
        r0 = r1
    return [BasisPair(i=int(i), j=int(j), phi=phi, dist=d, quality=q)
            for q, i, j, phi, d in best.tolist()]


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
    by lower n1 then n2.  Deterministic.
    """
    if cfg is None:
        cfg = HypothesisConfig()
    arr = probe.arrays()
    r = ref.arrays()
    i, j = basis.i, basis.j
    cand1 = np.nonzero(angular_distance_array(arr.theta, r.theta[i]) <= cfg.eps_theta)[0]
    cand2 = np.nonzero(angular_distance_array(arr.theta, r.theta[j]) <= cfg.eps_theta)[0]
    if cand1.size == 0 or cand2.size == 0:
        return []
    d_ref = basis.dist
    parts = []
    step = max(1, _CHUNK_CELLS // cand2.size)
    for k in range(0, cand1.size, step):
        rows = cand1[k:k + step]
        n1, n2 = np.repeat(rows, cand2.size), np.tile(cand2, rows.size)
        x1, y1 = arr.x[n1], arr.y[n1]
        dx = arr.x[n2] - x1
        dy = arr.y[n2] - y1
        dist = np.sqrt(dx * dx + dy * dy)
        # dist > 0 also drops n2 == n1.
        ok = dist > 0.0
        n1, n2, x1, y1, dx, dy, dist = (v[ok] for v in (n1, n2, x1, y1, dx, dy, dist))
        s = d_ref / dist
        ok = (s >= cfg.s_min) & (s <= cfg.s_max)
        n1, n2, x1, y1, dx, dy, s = (v[ok] for v in (n1, n2, x1, y1, dx, dy, s))
        phi = wrap_angle(np.arctan2(dy, dx))
        ok = angular_distance_array(phi, basis.phi) <= cfg.eps_phi
        n1, n2, x1, y1, s = (v[ok] for v in (n1, n2, x1, y1, s))
        tx = r.x[i] - s * x1
        ty = r.y[i] - s * y1
        rx = s * arr.x[n2] + tx - r.x[j]
        ry = s * arr.y[n2] + ty - r.y[j]
        parts.append((np.sqrt(rx * rx + ry * ry), n1, n2, s, tx, ty))
    residual, n1, n2, s, tx, ty = (np.concatenate(v) for v in zip(*parts))
    top = np.lexsort((n2, n1, residual))[: cfg.max_pairs_n]
    return [
        ((int(n1[t]), int(n2[t])), Transform(s=float(s[t]), tx=float(tx[t]), ty=float(ty[t])))
        for t in top
    ]
