"""Closed-form risk of missing every basis couple, and Monte Carlo checks.

With m independent couples whose edges each go undetected with probability
p, a single couple survives with probability (1-p)^2, so the chance that no
couple survives is [1 - (1-p)^2]^m and the expected number of basis trials
before hitting a fully detected couple is (1-p)^-2.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

# Trials are simulated in fixed-size chunks, each with its own generator
# seeded by (seed, chunk index): results are identical no matter how many
# workers process the chunks.
CHUNK_TRIALS = 1 << 16


@dataclass(frozen=True)
class ProbabilityParams:
    """Per-edge miss probability p and number of available couples m."""

    p: float
    m: int

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0):
            raise ValueError("p must lie in [0, 1]")
        if self.m < 0:
            raise ValueError("m must be non-negative")


def miss_probability_general(p: float, m: int, edges_per_couple: int = 2) -> float:
    """Probability that every one of m couples of k edges has a missing
    edge: [1 - (1-p)^k]^m.

    k = 3 models bases built from three edges; a larger k makes each couple
    easier to lose, so the miss risk grows and the expected number of trials
    (1-p)^-k grows with it.
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must lie in [0, 1]")
    if m < 0:
        raise ValueError("m must be non-negative")
    if edges_per_couple < 1:
        raise ValueError("edges_per_couple must be at least 1")
    return (1.0 - (1.0 - p) ** edges_per_couple) ** m


def expected_trials(p: float, edges_per_couple: int = 2) -> float:
    """Expected basis draws until one has every edge detected: (1-p)^-k."""
    if not (0.0 <= p < 1.0):
        raise ValueError("p must lie in [0, 1): at p = 1 no couple can survive")
    if edges_per_couple < 1:
        raise ValueError("edges_per_couple must be at least 1")
    return (1.0 - p) ** (-edges_per_couple)


def _chunk_misses(seed: int, chunk_id: int, size: int, p: float, m: int, k: int) -> int:
    rng = np.random.default_rng([seed, chunk_id])
    detected = rng.random((size, m, k)) >= p
    couple_ok = detected.all(axis=2)
    return int((~couple_ok.any(axis=1)).sum())


def monte_carlo_miss(
    params: ProbabilityParams,
    trials: int,
    seed: int = 0,
    edges_per_couple: int = 2,
    workers: int = 1,
) -> tuple[float, float]:
    """Simulate the miss event and return (estimate, standard error).

    Each trial draws detection for every edge of every couple independently;
    the trial is a miss when no couple comes out fully detected.  The
    standard error is sqrt(est * (1 - est) / trials).  Output is a pure
    function of (params, trials, seed, edges_per_couple): the chunked
    generator scheme makes the worker count irrelevant to the result.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if edges_per_couple < 1:
        raise ValueError("edges_per_couple must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    spans = []
    start = 0
    chunk_id = 0
    while start < trials:
        size = min(CHUNK_TRIALS, trials - start)
        spans.append((chunk_id, size))
        start += size
        chunk_id += 1
    p, m, k = params.p, params.m, edges_per_couple
    if workers == 1:
        misses = sum(_chunk_misses(seed, cid, size, p, m, k) for cid, size in spans)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            misses = sum(
                pool.map(lambda sp: _chunk_misses(seed, sp[0], sp[1], p, m, k), spans)
            )
    estimate = misses / trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / trials)
    return estimate, stderr
