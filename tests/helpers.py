"""Independent reference implementations used as oracles by the tests.

Everything here is written the dumbest possible way (full scans, scalar
loops) so that agreement with the package's vectorized/indexed code is
meaningful.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi
PI = math.pi


def angular_distance(a: float, b: float) -> float:
    """Shortest angular distance between two orientations, in [0, pi]: fmod
    of the absolute difference, then the shorter arc.  The scalar reference
    for edgematch.edges.angular_distance_array."""
    d = math.fmod(abs(a - b), TWO_PI)
    return min(d, TWO_PI - d)


def oracle_angular(a: float, b: float) -> float:
    """Shorter arc between two angles, computed via plain modulo."""
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def oracle_query(es, x, y, radius, theta, eps_theta):
    """Full-scan neighborhood query. Mirrors the documented predicates:
    squared distance and shorter-arc orientation difference."""
    out = []
    for i, e in enumerate(es.edges):
        dx = e.x - x
        dy = e.y - y
        if dx * dx + dy * dy <= radius * radius and oracle_angular(e.theta, theta) <= eps_theta:
            out.append(i)
    return out


def _fold(d: float) -> float:
    return min(d, PI - d)


def oracle_pair_quality(e1, e2, frame_diag: float) -> float:
    dx = e2.x - e1.x
    dy = e2.y - e1.y
    dist = math.sqrt(dx * dx + dy * dy)
    if dist <= 0.0:
        return 0.0
    sep = _fold(oracle_angular(e1.theta, e2.theta))
    span = min(dist / (frame_diag / 2.0), 1.0)
    return e1.confidence * e2.confidence * span * math.sin(sep)


def oracle_basis_pairs(es, cfg):
    """O(n^2) scalar enumeration of admissible basis couples.

    Rules: reliable edges only, i < j, separation >= min_dist, orientation
    separation folded mod pi >= min_sep_angle, and not both orientations
    within min_sep_angle (mod pi) of the joining axis.  Sorted by descending
    quality with (i, j) tie-breaks, truncated to max_basis_a.
    """
    diag = math.sqrt(es.width * es.width + es.height * es.height)
    min_dist = cfg.min_dist if cfg.min_dist is not None else 0.15 * diag
    rows = []
    edges = list(es.edges)
    n = len(edges)
    for i in range(n):
        e1 = edges[i]
        if not e1.reliable:
            continue
        for j in range(i + 1, n):
            e2 = edges[j]
            if not e2.reliable:
                continue
            dx = e2.x - e1.x
            dy = e2.y - e1.y
            dist = math.sqrt(dx * dx + dy * dy)
            if dist < min_dist:
                continue
            sep = _fold(oracle_angular(e1.theta, e2.theta))
            if sep < cfg.min_sep_angle:
                continue
            phi = math.atan2(dy, dx) % TWO_PI
            if phi >= TWO_PI:
                phi = 0.0
            dpar1 = _fold(oracle_angular(e1.theta, phi))
            dpar2 = _fold(oracle_angular(e2.theta, phi))
            if dpar1 < cfg.min_sep_angle and dpar2 < cfg.min_sep_angle:
                continue
            q = oracle_pair_quality(e1, e2, diag)
            rows.append((q, i, j, phi, dist))
    rows.sort(key=lambda r: (-r[0], r[1], r[2]))
    return rows[: cfg.max_basis_a]


def oracle_compatible_pairs(probe, basis_phi, basis_dist, ref_e1, ref_e2, cfg):
    """O(n^2) scalar search for probe couples compatible with one basis."""
    rows = []
    edges = list(probe.edges)
    n = len(edges)
    for n1 in range(n):
        g1 = edges[n1]
        if oracle_angular(g1.theta, ref_e1.theta) > cfg.eps_theta:
            continue
        for n2 in range(n):
            if n2 == n1:
                continue
            g2 = edges[n2]
            if oracle_angular(g2.theta, ref_e2.theta) > cfg.eps_theta:
                continue
            dx = g2.x - g1.x
            dy = g2.y - g1.y
            dist = math.sqrt(dx * dx + dy * dy)
            if dist <= 0.0:
                continue
            s = basis_dist / dist
            if not (cfg.s_min <= s <= cfg.s_max):
                continue
            phi = math.atan2(dy, dx) % TWO_PI
            if phi >= TWO_PI:
                phi = 0.0
            if oracle_angular(phi, basis_phi) > cfg.eps_phi:
                continue
            tx = ref_e1.x - s * g1.x
            ty = ref_e1.y - s * g1.y
            rx = s * g2.x + tx - ref_e2.x
            ry = s * g2.y + ty - ref_e2.y
            residual = math.sqrt(rx * rx + ry * ry)
            rows.append((residual, n1, n2, s, tx, ty))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return rows[: cfg.max_pairs_n]


def oracle_coincidences(ref, probe, transform, eps_pos, eps_theta):
    """Scalar greedy one-to-one matching, highest probe confidence first."""
    probe_edges = list(probe.edges)
    ref_edges = list(ref.edges)
    order = sorted(range(len(probe_edges)), key=lambda i: (-probe_edges[i].confidence, i))
    claimed = set()
    pairs = []
    visible = 0
    for nidx in order:
        e = probe_edges[nidx]
        mx = transform.s * e.x + transform.tx
        my = transform.s * e.y + transform.ty
        if not (0.0 <= mx < ref.width and 0.0 <= my < ref.height):
            continue
        visible += 1
        best = None
        for aidx, a in enumerate(ref_edges):
            if aidx in claimed:
                continue
            dx = a.x - mx
            dy = a.y - my
            d2 = dx * dx + dy * dy
            if d2 <= eps_pos * eps_pos and oracle_angular(a.theta, e.theta) <= eps_theta:
                if best is None or d2 < best[0]:
                    best = (d2, aidx)
        if best is not None:
            claimed.add(best[1])
            pairs.append((best[1], nidx))
    denom = len(ref_edges) + visible
    score = 2.0 * len(pairs) / denom if denom else 0.0
    return pairs, score


def oracle_monte_carlo_misses(p, m, k, trials, seed, chunk_trials):
    """Misses of the chunked Monte Carlo, each chunk's (size, m, k) uniforms
    drawn at once from PCG64 keyed by [seed, chunk id]: an edge is detected
    when u >= p, and a trial misses when no couple has every edge detected."""
    misses = 0
    for cid, start in enumerate(range(0, trials, chunk_trials)):
        rng = np.random.default_rng([seed, cid])
        size = min(chunk_trials, trials - start)
        misses += int((~(rng.random((size, m, k)) >= p).all(2).any(1)).sum())
    return misses


def oracle_p2_samples(payload: bytes, n: int, maxval: int) -> list[int]:
    """The n samples of a P2 payload, read the slow way: each '#' up to the
    next CR or LF becomes one space, the rest splits on whitespace, and each
    token goes through int() in order.  Raises ValueError with the message
    load_pgm's PgmFormatError must carry: the first bad sample among the
    first n, else a short or long count."""
    blanked = bytearray()
    in_comment = False
    for b in payload:
        if in_comment and b not in b"\r\n":
            continue
        in_comment = b == ord("#")
        blanked += b" " if in_comment else bytes([b])
    tokens = bytes(blanked).split()
    samples = []
    for tok in tokens[:n]:
        try:
            v = int(tok)
        except ValueError:
            raise ValueError(f"non-numeric sample field {tok!r}") from None
        if not 0 <= v <= maxval:
            raise ValueError(f"sample {v} outside [0, {maxval}]")
        samples.append(v)
    if len(tokens) < n:
        raise ValueError(f"ASCII payload truncated after {len(tokens)} of {n} samples")
    if len(tokens) > n:
        raise ValueError("trailing data after final sample")
    return samples
