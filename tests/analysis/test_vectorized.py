"""Special-regime and validation checks for the vectorized hot paths.

The broad scalar-vs-vectorized equivalence testing lives in
``tests/properties/test_differential.py`` as hypothesis-driven
differential fuzzing; this module keeps the hand-picked regimes worth
pinning explicitly (period boundaries, underflow tails, broadcasting,
input validation) and the statistical sanity checks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bounds import paper_aggregates
from repro.core.rewards import RewardSchedule
from repro.errors import MechanismError, SortitionError
from repro.sim.sortition import (
    binomial_weight,
    binomial_weights,
    sample_population_weights,
)

from oracles import paper_aggregates_scalar


class TestBinomialWeightsEquivalence:
    def test_matches_scalar_on_edge_vrf_values(self):
        values = [0.0, 1e-300, 0.5, 1.0 - 2**-53]
        units = [50] * len(values)
        expected = [binomial_weight(v, u, 0.01) for v, u in zip(values, units)]
        assert binomial_weights(values, units, 0.01).tolist() == expected

    def test_matches_scalar_in_underflow_tail(self):
        """vrf close to 1 with large stakes hits the pmf-underflow branch."""
        values = [1.0 - 2**-53]
        units = [5000]
        expected = [binomial_weight(values[0], units[0], 1e-5)]
        assert binomial_weights(values, units, 1e-5).tolist() == expected

    def test_scalar_stake_broadcasts(self):
        values = [0.1, 0.5, 0.9]
        batch = binomial_weights(values, 100, 0.02)
        expected = [binomial_weight(v, 100, 0.02) for v in values]
        assert batch.tolist() == expected

    def test_zero_stake_and_zero_probability(self):
        assert binomial_weights([0.3], [0], 0.5).tolist() == [0]
        assert binomial_weights([0.3], [10], 0.0).tolist() == [0]
        assert binomial_weights([0.3], [10], 1.0).tolist() == [10]

    def test_validation_matches_scalar(self):
        with pytest.raises(SortitionError):
            binomial_weights([1.0], [5], 0.5)
        with pytest.raises(SortitionError):
            binomial_weights([-0.1], [5], 0.5)
        with pytest.raises(SortitionError):
            binomial_weights([0.5], [-1], 0.5)
        with pytest.raises(SortitionError):
            binomial_weights([0.5], [5], 1.5)

    def test_expected_committee_size(self):
        """Across a population, total selected weight concentrates at tau."""
        rng = np.random.default_rng(3)
        stakes = rng.uniform(1, 50, 20_000)
        total = float(stakes.sum())
        tau = 200.0
        weights = sample_population_weights(stakes, total, tau, rng)
        # Expected total weight is tau * (sum of floor(stake)) / total; with
        # integer-unit stakes the realized total should land within a few
        # standard deviations of tau.
        assert weights.sum() == pytest.approx(tau, rel=0.25)

    def test_sample_population_weights_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(SortitionError):
            sample_population_weights([1.0], 0.0, 10.0, rng)
        with pytest.raises(SortitionError):
            sample_population_weights([1.0], 10.0, 0.0, rng)


class TestRewardScheduleEquivalence:
    def test_per_round_rewards_matches_scalar(self):
        schedule = RewardSchedule()
        rounds = [1, 2, 499_999, 500_000, 500_001, 3_000_000, 5_999_999, 6_000_000, 9_000_000]
        batch = schedule.per_round_rewards(rounds)
        expected = [schedule.per_round_reward(r) for r in rounds]
        assert batch.tolist() == expected

    def test_cumulative_rewards_matches_scalar(self):
        schedule = RewardSchedule()
        rounds = [0, 1, 250_000, 500_000, 750_000, 5_999_999, 6_000_000, 6_000_001, 10_000_000]
        batch = schedule.cumulative_rewards(rounds)
        expected = [schedule.cumulative_reward(r) for r in rounds]
        assert batch.tolist() == expected

    def test_validation(self):
        schedule = RewardSchedule()
        with pytest.raises(MechanismError):
            schedule.per_round_rewards([0])
        with pytest.raises(MechanismError):
            schedule.cumulative_rewards([-1])


class TestPaperAggregatesEquivalence:
    def test_population_minimum_regime(self):
        stakes = [5.0, 2.5, 40.0]
        fast = paper_aggregates(stakes, k_floor=0.0, stake_leaders=1.0, stake_committee=1.0)
        slow = paper_aggregates_scalar(
            stakes, k_floor=0.0, stake_leaders=1.0, stake_committee=1.0
        )
        assert fast.min_other == slow.min_other == 2.5

    def test_floor_violation_matches(self):
        stakes = [1.0, 2.0]
        with pytest.raises(MechanismError):
            paper_aggregates(stakes, k_floor=10.0, stake_leaders=0.5, stake_committee=0.5)
        with pytest.raises(MechanismError):
            paper_aggregates_scalar(
                stakes, k_floor=10.0, stake_leaders=0.5, stake_committee=0.5
            )
