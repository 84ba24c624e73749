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

from .edges import (
    TWO_PI,
    Edge,
    EdgeSet,
    SpatialIndex,
    angular_distance_array,
    query_near,
)

_PI = math.pi


@dataclass(frozen=True)
class Transform:
    """Isotropic scale plus translation mapping probe points into the
    reference frame: p_ref = s * p_probe + (tx, ty)."""

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
        if self.max_basis_a < 1 or self.max_pairs_n < 1:
            raise ValueError("budgets must be at least 1")

    def resolved_min_dist(self, frame_diagonal: float) -> float:
        if self.min_dist is not None:
            return self.min_dist
        return 0.15 * frame_diagonal


def _fold_half(d):
    """Map an angular distance in [0, pi] onto [0, pi/2] (mod-pi geometry)."""
    return np.minimum(d, _PI - d)


_CHUNK_ROWS = 256


def enumerate_basis_pairs(es: EdgeSet, cfg: HypothesisConfig | None = None) -> list[BasisPair]:
    """Ranked basis couples of a reference set.

    Considers reliable edges only, with i < j, separation at least min_dist,
    orientation separation (mod pi) at least min_sep_angle, and rejects
    couples where both orientations lie within min_sep_angle of the joining
    axis: those are nearly collinear with it and pin the scale poorly.
    Sorted by descending quality, ties broken by lower i then lower j, and
    truncated to max_basis_a entries.  Deterministic.
    """
    if cfg is None:
        cfg = HypothesisConfig()
    arr = es.arrays()
    rel = np.nonzero(arr.reliable)[0]
    if rel.size < 2:
        return []
    diag = es.frame_diagonal
    half_diag = diag / 2.0
    min_dist = cfg.resolved_min_dist(diag)

    x = arr.x[rel]
    y = arr.y[rel]
    th = arr.theta[rel]
    conf = arr.confidence[rel]
    nrel = rel.size

    kept: list[np.ndarray] = []
    for a0 in range(0, nrel, _CHUNK_ROWS):
        a1 = min(a0 + _CHUNK_ROWS, nrel)
        dx = x[np.newaxis, :] - x[a0:a1, np.newaxis]
        dy = y[np.newaxis, :] - y[a0:a1, np.newaxis]
        dist = np.sqrt(dx * dx + dy * dy)
        dth = angular_distance_array(th[a0:a1, np.newaxis], th[np.newaxis, :])
        sep = _fold_half(dth)
        ii, jj = np.meshgrid(np.arange(a0, a1), np.arange(nrel), indexing="ij")
        mask = (jj > ii) & (dist >= min_dist) & (sep >= cfg.min_sep_angle)
        if not mask.any():
            continue
        ii = ii[mask]
        jj = jj[mask]
        dxm = dx[mask]
        dym = dy[mask]
        distm = dist[mask]
        sepm = sep[mask]
        phi = np.mod(np.arctan2(dym, dxm), TWO_PI)
        phi[phi >= TWO_PI] = 0.0
        dpar_i = _fold_half(angular_distance_array(th[ii], phi))
        dpar_j = _fold_half(angular_distance_array(th[jj], phi))
        ok = ~((dpar_i < cfg.min_sep_angle) & (dpar_j < cfg.min_sep_angle))
        if not ok.any():
            continue
        ii, jj, phi, distm, sepm = ii[ok], jj[ok], phi[ok], distm[ok], sepm[ok]
        q = conf[ii] * conf[jj] * np.minimum(distm / half_diag, 1.0) * np.sin(sepm)
        order = np.lexsort((jj, ii, -q))[: cfg.max_basis_a]
        kept.append(
            np.column_stack((q[order], ii[order], jj[order], phi[order], distm[order]))
        )
    if not kept:
        return []
    rows = np.vstack(kept)
    order = np.lexsort((rows[:, 2], rows[:, 1], -rows[:, 0]))[: cfg.max_basis_a]
    rows = rows[order]
    return [
        BasisPair(
            i=int(rel[int(r[1])]),
            j=int(rel[int(r[2])]),
            phi=float(r[3]),
            dist=float(r[4]),
            quality=float(r[0]),
        )
        for r in rows
    ]


def find_compatible_pairs(
    probe: EdgeSet,
    probe_index: SpatialIndex,
    basis: BasisPair,
    ref_e1: Edge,
    ref_e2: Edge,
    cfg: HypothesisConfig | None = None,
) -> list[tuple[tuple[int, int], Transform]]:
    """Probe couples compatible with one reference basis, with the induced
    transform for each.

    A probe couple (n1, n2) qualifies when theta_n1 is within eps_theta of
    the first basis edge, theta_n2 within eps_theta of the second, the
    probe joining direction is within eps_phi of the basis phi, and the
    implied scale s = basis.dist / dist_probe lies in [s_min, s_max].  The
    transform anchors exactly: s * p_n1 + t == p_ref1.  The result is capped
    at max_pairs_n by ascending residual |s * p_n2 + t - p_ref2|, ties broken
    by lower n1 then n2.  Deterministic, regardless of the index layout.
    """
    if cfg is None:
        cfg = HypothesisConfig()
    arr = probe.arrays()
    if len(probe) < 2:
        return []
    cand1 = np.nonzero(angular_distance_array(arr.theta, ref_e1.theta) <= cfg.eps_theta)[0]
    if cand1.size == 0:
        return []
    d_ref = basis.dist
    # Inflated prefilter radius; the exact scale window is applied after.
    radius = d_ref / cfg.s_min * (1.0 + 1e-12) + 1e-9
    rows = []
    for n1 in cand1:
        x1 = float(arr.x[n1])
        y1 = float(arr.y[n1])
        cand2 = query_near(probe_index, probe, x1, y1, radius, ref_e2.theta, cfg.eps_theta)
        cand2 = cand2[cand2 != n1]
        if cand2.size == 0:
            continue
        dx = arr.x[cand2] - x1
        dy = arr.y[cand2] - y1
        dist = np.sqrt(dx * dx + dy * dy)
        ok = dist > 0.0
        if not ok.any():
            continue
        cand2, dx, dy, dist = cand2[ok], dx[ok], dy[ok], dist[ok]
        s = d_ref / dist
        ok = (s >= cfg.s_min) & (s <= cfg.s_max)
        if not ok.any():
            continue
        cand2, dx, dy, s = cand2[ok], dx[ok], dy[ok], s[ok]
        phi = np.mod(np.arctan2(dy, dx), TWO_PI)
        phi[phi >= TWO_PI] = 0.0
        ok = angular_distance_array(phi, basis.phi) <= cfg.eps_phi
        if not ok.any():
            continue
        cand2, s = cand2[ok], s[ok]
        tx = ref_e1.x - s * x1
        ty = ref_e1.y - s * y1
        rx = s * arr.x[cand2] + tx - ref_e2.x
        ry = s * arr.y[cand2] + ty - ref_e2.y
        residual = np.sqrt(rx * rx + ry * ry)
        for k in range(cand2.size):
            rows.append(
                (
                    float(residual[k]),
                    int(n1),
                    int(cand2[k]),
                    float(s[k]),
                    float(tx[k]),
                    float(ty[k]),
                )
            )
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return [
        ((n1, n2), Transform(s=s, tx=tx, ty=ty))
        for _, n1, n2, s, tx, ty in rows[: cfg.max_pairs_n]
    ]
