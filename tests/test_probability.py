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
from edgematch.probability import CHUNK_TRIALS


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
