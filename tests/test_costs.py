from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mubench import CostConfig, retrain_cost, threshold
from mubench.errors import InvalidArgument


def brute_force_threshold(n, s, phi):
    """Independent oracle: scan the per-slice costs as a literal sum, in
    exact rational arithmetic (a float phi converts to a Fraction exactly)."""
    for i in range(1, s + 1):
        cost = sum(Fraction(k * n, s) for k in range(i, s + 1))
        if cost <= phi:
            return i
    return s + 1


# Hand-summed values for n=1000, S=4: per-slice 250 samples.
@pytest.mark.parametrize(
    "i,expected",
    [(4, 1000.0), (3, 1750.0), (2, 2250.0), (1, 2500.0)],
)
def test_retrain_cost_hand_summed(i, expected):
    assert retrain_cost(i, CostConfig(1000, 4, 0.0)) == expected


def test_retrain_cost_rejects_out_of_range():
    cfg = CostConfig(1000, 4, 0.0)
    for i in (0, 5, -1):
        with pytest.raises(InvalidArgument):
            retrain_cost(i, cfg)


def test_threshold_worked_example():
    # C(3)=1750 <= 2000 < C(2)=2250
    result = threshold(CostConfig(1000, 4, 2000.0))
    assert result.t == 3
    assert result.r == 2
    assert result.costs == (2500.0, 2250.0, 1750.0, 1000.0)


def test_threshold_everything_affordable():
    result = threshold(CostConfig(1000, 4, 10_000.0))
    assert (result.t, result.r) == (1, 4)


def test_threshold_nothing_affordable():
    # phi < n: even retraining only the last slice reads n samples
    result = threshold(CostConfig(1000, 4, 500.0))
    assert (result.t, result.r) == (5, 0)


def test_costs_strictly_decreasing():
    result = threshold(CostConfig(1337, 7, 0.0))
    diffs = np.diff(result.costs)
    assert np.all(diffs < 0)


def test_threshold_bracketing():
    cfg = CostConfig(4096, 16, 3000.0)
    res = threshold(cfg)
    if res.t <= cfg.num_slices:
        assert retrain_cost(res.t, cfg) <= cfg.phi
    if res.t > 1:
        assert retrain_cost(min(res.t - 1, cfg.num_slices), cfg) > cfg.phi


def test_config_validation():
    with pytest.raises(InvalidArgument):
        CostConfig(3, 4, 0.0)  # n < S
    with pytest.raises(InvalidArgument):
        CostConfig(4, 0, 0.0)
    with pytest.raises(InvalidArgument):
        CostConfig(4, 2, -1.0)
    for phi in (float("nan"), float("inf"), -float("inf"), True, "3", None):
        with pytest.raises(InvalidArgument, match="phi must be a finite real number"):
            CostConfig(4, 2, phi)
    assert threshold(CostConfig(4, 2, 3)).t == threshold(CostConfig(4, 2, 3.0)).t


@pytest.mark.parametrize(
    "args,match",
    [
        ((2000.5, 4, 3500.0), "n must be an integer, got 2000.5"),
        ((2000.0, 4, 3500.0), "n must be an integer, got 2000.0"),
        ((True, 1, 0.0), "n must be an integer, got True"),
        ((2000, 4.0, 3500.0), "num_slices must be an integer, got 4.0"),
        ((2000, True, 0.0), "num_slices must be an integer, got True"),
        ((2000, np.float64(4), 0.0), "num_slices must be an integer"),
        (("2000", 4, 0.0), "n must be an integer, got '2000'"),
    ],
)
def test_config_takes_integer_counts(args, match):
    """n and the slice count are Python or numpy ints, never bools or floats."""
    with pytest.raises(InvalidArgument, match=match):
        CostConfig(*args)


def test_config_keeps_numpy_counts_as_python_ints():
    cfg = CostConfig(np.int64(2000), np.int32(4), 3500.0)
    assert type(cfg.n) is type(cfg.num_slices) is int
    assert cfg == CostConfig(2000, 4, 3500.0)
    assert threshold(cfg) == threshold(CostConfig(2000, 4, 3500.0))


def test_retrain_cost_takes_an_integer_slice():
    cfg = CostConfig(1000, 4, 0.0)
    for bad in (2.0, True, np.float64(1.0), "1", None):
        with pytest.raises(InvalidArgument, match="slice index must be an integer"):
            retrain_cost(bad, cfg)
    assert retrain_cost(np.int64(2), cfg) == retrain_cost(2, cfg) == 2250.0


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 1_000_000),
    s=st.integers(1, 64),
    phi_frac=st.floats(0.0, 1.5),
)
@example(n=167, s=60, phi_frac=1 / 3)  # phi ties cost(36); a float sum overshoots it
def test_threshold_matches_brute_force(n, s, phi_frac):
    if n < s:
        n = s
    phi = phi_frac * s * n  # spans from nothing affordable to everything
    res = threshold(CostConfig(n, s, phi))
    assert res.t == brute_force_threshold(n, s, phi)
    assert res.r == (s - res.t + 1 if res.t <= s else 0)


@pytest.mark.parametrize(
    "n,s,i",
    [(794_773, 50, 27), (295_529, 18, 5), (953_939, 33, 10)],
)
def test_threshold_at_a_rounded_down_cost(n, s, i):
    """phi set to the float cost of slice i, which rounds below the exact
    cost: slice i does not fit phi, so t lies above it."""
    phi = retrain_cost(i, CostConfig(n, s, 0.0))
    assert Fraction(phi) < Fraction(n, s) * sum(range(i, s + 1))
    res = threshold(CostConfig(n, s, phi))
    assert res.t == brute_force_threshold(n, s, phi) == i + 1
