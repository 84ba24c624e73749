import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgematch import (
    ProbabilityParams,
    expected_trials,
    miss_probability_general,
    monte_carlo_miss,
)
from edgematch.probability import _BLOCK_DRAWS, CHUNK_TRIALS

from helpers import oracle_monte_carlo_misses


def exact_miss(p: Fraction, m: int, k: int = 2) -> float:
    return float((1 - (1 - p) ** k) ** m)


# ------------------------------------------------------------ closed form


def test_miss_probability_against_rational_arithmetic():
    got = miss_probability_general(0.25, 20)
    assert got == pytest.approx(exact_miss(Fraction(1, 4), 20), rel=1e-12)


@given(st.floats(0.0, 1.0), st.integers(0, 60))
def test_miss_probability_matches_general_two_edge_form(p, m):
    assert miss_probability_general(p, m) == (1.0 - (1.0 - p) ** 2) ** m


def test_three_edge_couples_are_harder_to_hit_but_miss_less():
    p, m = 0.25, 20
    two = miss_probability_general(p, m, 2)
    three = miss_probability_general(p, m, 3)
    assert three == pytest.approx(exact_miss(Fraction(1, 4), m, 3), rel=1e-12)
    assert three > two  # a triple is likelier to lose at least one edge
    assert expected_trials(p, 3) == pytest.approx((1 - p) ** -3, rel=1e-12)


def test_expected_trials_values():
    assert expected_trials(0.25) == pytest.approx(16.0 / 9.0, rel=1e-12)
    assert 1.23 <= expected_trials(0.1) <= 1.24
    assert expected_trials(0.0) == 1.0


def test_expected_trials_rejects_certain_dropout():
    with pytest.raises(ValueError):
        expected_trials(1.0)


@given(st.floats(0.01, 0.99), st.integers(1, 40))
def test_miss_probability_monotone(p, m):
    base = miss_probability_general(p, m)
    assert miss_probability_general(p, m + 1) <= base
    assert miss_probability_general(min(p + 0.01, 1.0), m) >= base


# ------------------------------------------------------------- validation


def test_parameter_validation():
    for p, m in ((-0.1, 5), (1.5, 5), (0.2, -1)):
        with pytest.raises(ValueError):
            ProbabilityParams(p=p, m=m)
    params = ProbabilityParams(p=0.2, m=5)
    with pytest.raises(ValueError):
        monte_carlo_miss(params, trials=0)
    with pytest.raises(ValueError):
        monte_carlo_miss(params, trials=100, seed=-1)
    with pytest.raises(ValueError):
        monte_carlo_miss(params, trials=100, workers=0)
    with pytest.raises(ValueError):
        monte_carlo_miss(params, trials=100, edges_per_couple=0)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: ProbabilityParams(0.1, 2.5), id="params-m"),
        pytest.param(lambda: ProbabilityParams(0.1, True), id="params-m-bool"),
        pytest.param(lambda: miss_probability_general(0.1, 2.5), id="general-m"),
        pytest.param(lambda: miss_probability_general(0.1, 5, 2.0), id="general-k"),
        pytest.param(lambda: expected_trials(0.1, 2.5), id="expected-k"),
        pytest.param(lambda: monte_carlo_miss(ProbabilityParams(0.1, 5), 100.0), id="mc-trials"),
        pytest.param(lambda: monte_carlo_miss(ProbabilityParams(0.1, 5), 100, seed=1.5),
                     id="mc-seed"),
        pytest.param(lambda: monte_carlo_miss(ProbabilityParams(0.1, 5), 100,
                                              edges_per_couple=2.0), id="mc-k"),
        pytest.param(lambda: monte_carlo_miss(ProbabilityParams(0.1, 5), 100, workers=1.0),
                     id="mc-workers"),
    ],
)
def test_integer_arguments_reject_non_integers(call):
    with pytest.raises(ValueError, match="must be an integer of at least"):
        call()


# ------------------------------------------------------------ monte carlo


def test_degenerate_dropouts_are_exact():
    assert monte_carlo_miss(ProbabilityParams(p=0.0, m=10), 1000) == (0.0, 0.0)
    assert monte_carlo_miss(ProbabilityParams(p=1.0, m=10), 1000) == (1.0, 0.0)
    est, err = monte_carlo_miss(ProbabilityParams(p=0.3, m=0), 1000)
    assert (est, err) == (1.0, 0.0)
    assert miss_probability_general(0.3, 0) == 1.0


def test_workers_do_not_change_the_stream():
    params = ProbabilityParams(p=0.25, m=8)
    single = monte_carlo_miss(params, 300_000, seed=11, workers=1)
    assert monte_carlo_miss(params, 300_000, seed=11, workers=2) == single
    assert monte_carlo_miss(params, 300_000, seed=11, workers=5) == single


def test_chunk_boundaries():
    params = ProbabilityParams(p=0.4, m=3)
    for trials in (CHUNK_TRIALS - 1, CHUNK_TRIALS, CHUNK_TRIALS + 1):
        est, err = monte_carlo_miss(params, trials, seed=2)
        assert 0.0 <= est <= 1.0
        assert err >= 0.0
    # a different seed must change the sample
    a, _ = monte_carlo_miss(params, CHUNK_TRIALS, seed=2)
    b, _ = monte_carlo_miss(params, CHUNK_TRIALS, seed=3)
    assert a != b


@pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 1.0])
def test_monte_carlo_equals_the_dense_oracle(p):
    # Trial counts straddle the end of a draw block and of a chunk.  No case
    # has more than 3 chunks, so 7 workers always exceed the chunk count.
    for m in (0, 1, 5, 20):
        for k in (1, 2, 3):
            block = _BLOCK_DRAWS // (m * k) if m else CHUNK_TRIALS
            for trials in (block - 1, block, block + 1, CHUNK_TRIALS - 1, CHUNK_TRIALS + 1):
                misses = oracle_monte_carlo_misses(p, m, k, trials, 5, CHUNK_TRIALS)
                for workers in (1, 2, 3, 7):
                    est, _ = monte_carlo_miss(ProbabilityParams(p, m), trials, seed=5,
                                              edges_per_couple=k, workers=workers)
                    assert est == misses / trials, (m, k, trials, workers)


def test_monte_carlo_memory_does_not_grow_with_the_chunk():
    tracemalloc.start()
    try:
        monte_carlo_miss(ProbabilityParams(0.1, 20), 2 * CHUNK_TRIALS, workers=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.parametrize("p", [0.1, 0.25, 0.4])
@pytest.mark.parametrize("m", [5, 20])
def test_estimates_agree_with_closed_form(p, m):
    params = ProbabilityParams(p=p, m=m)
    est, err = monte_carlo_miss(params, 200_000, seed=20)
    cf = miss_probability_general(p, m)
    assert abs(est - cf) <= max(3.0 * err, 1e-4)


def test_three_edge_monte_carlo():
    params = ProbabilityParams(p=0.3, m=6)
    est, err = monte_carlo_miss(params, 200_000, seed=20, edges_per_couple=3)
    cf = miss_probability_general(0.3, 6, 3)
    assert abs(est - cf) <= 3.0 * err
