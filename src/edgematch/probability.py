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

from .edges import require_int

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
        require_int("m", self.m, 0)


def miss_probability_general(p: float, m: int, edges_per_couple: int = 2) -> float:
    """Probability that every one of m couples of k edges has a missing
    edge: [1 - (1-p)^k]^m.

    k = 3 models bases built from three edges; a larger k makes each couple
    easier to lose, so the miss risk grows and the expected number of trials
    (1-p)^-k grows with it.
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must lie in [0, 1]")
    require_int("m", m, 0)
    require_int("edges_per_couple", edges_per_couple, 1)
    return (1.0 - (1.0 - p) ** edges_per_couple) ** m


def expected_trials(p: float, edges_per_couple: int = 2) -> float:
    """Expected basis draws until one has every edge detected: (1-p)^-k."""
    if not (0.0 <= p < 1.0):
        raise ValueError("p must lie in [0, 1): at p = 1 no couple can survive")
    require_int("edges_per_couple", edges_per_couple, 1)
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
    require_int("trials", trials, 1)
    require_int("seed", seed, 0)
    require_int("edges_per_couple", edges_per_couple, 1)
    require_int("workers", workers, 1)
    p, m, k = params.p, params.m, edges_per_couple
    sizes = [min(CHUNK_TRIALS, trials - start) for start in range(0, trials, CHUNK_TRIALS)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        misses = sum(pool.map(lambda cid, size: _chunk_misses(seed, cid, size, p, m, k),
                              range(len(sizes)), sizes))
    estimate = misses / trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / trials)
    return estimate, stderr
