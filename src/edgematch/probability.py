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

# Trials are simulated in fixed-size chunks, each with its own PCG64
# generator keyed by [seed, chunk index]: results are identical no matter
# how many workers process the chunks.  A chunk's uniforms are drawn in
# order, in blocks of whole trials, so the block size changes no result.
CHUNK_TRIALS = 1 << 16

# Uniforms one worker draws at a time: 1 MB of float64, whatever m and k.
_BLOCK_DRAWS = 1 << 17


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


def _block_misses(u: np.ndarray, p: float) -> int:
    """Trials of u, shaped (trials, m, k) with m >= 1, in which every couple
    lost an edge (some u < p).  Couples are read in order, and a trial is
    dropped at its first couple whose edges all came out detected."""
    k = u.shape[2]
    lost = u[:, 0, 0] < p
    for e in range(1, k):
        lost |= u[:, 0, e] < p
    alive = np.flatnonzero(lost)
    for j in range(1, u.shape[1]):
        if not alive.size:
            break
        couple = u[alive, j]
        lost = couple[:, 0] < p
        for e in range(1, k):
            lost |= couple[:, e] < p
        alive = alive[lost]
    return int(alive.size)


def _worker_misses(seed: int, chunk_ids: range, trials: int, p: float, m: int, k: int) -> int:
    """Misses over the given chunks (m >= 1), each drawn in order into one
    buffer of whole trials: back-to-back random(out=...) calls continue the
    stream, so every uniform equals the one of a single draw of the chunk."""
    per_trial = m * k
    block = min(max(1, _BLOCK_DRAWS // per_trial), trials)
    buf = np.empty(block * per_trial)
    misses = 0
    for cid in chunk_ids:
        rng = np.random.default_rng([seed, cid])
        size = min(CHUNK_TRIALS, trials - cid * CHUNK_TRIALS)
        for start in range(0, size, block):
            n = min(block, size - start)
            u = buf[: n * per_trial].reshape(n, m, k)
            rng.random(out=u)
            misses += _block_misses(u, p)
    return misses


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
    Worker w of W draws chunks w, w + W, ... into one block buffer of about
    1 MB, so memory does not grow with m, k or the trial count.
    """
    require_int("trials", trials, 1)
    require_int("seed", seed, 0)
    require_int("edges_per_couple", edges_per_couple, 1)
    require_int("workers", workers, 1)
    p, m, k = params.p, params.m, edges_per_couple
    chunks = -(-trials // CHUNK_TRIALS)
    threads = min(workers, chunks)
    if m == 0:   # no couple to survive: every trial misses, and nothing is drawn
        misses = trials
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            misses = sum(pool.map(
                lambda w: _worker_misses(seed, range(w, chunks, threads), trials, p, m, k),
                range(threads)))
    estimate = misses / trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / trials)
    return estimate, stderr
