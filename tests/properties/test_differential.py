"""Differential fuzzing: scalar oracles vs vectorized hot paths.

PR 1 vectorized the sweep hot loops and kept the original pure-Python
implementations as correctness oracles.  These tests drive both sides on
hypothesis-generated inputs and demand agreement — replacing the fixed
random-seed spot checks that previously lived in
``tests/analysis/test_vectorized.py`` (which retains the special-regime
and validation cases).

Covered pairs:

* ``sortition.binomial_weights``        vs ``sortition.binomial_weight``
* ``bounds.paper_aggregates``           vs ``oracles.paper_aggregates_scalar``
* ``RewardSchedule.per_round_rewards``/``cumulative_rewards``
                                        vs their scalar counterparts
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.core.bounds import paper_aggregates
from repro.core.rewards import RewardSchedule
from repro.errors import MechanismError, SortitionError
from repro.sim.sortition import binomial_weight, binomial_weights

from oracles import paper_aggregates_scalar

#: Idealized VRF outputs live in [0, 1).
_VRF = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False)
#: Selection probabilities include both degenerate endpoints.
_PROBABILITY = st.one_of(
    st.just(0.0),
    st.just(1.0),
    st.floats(min_value=1e-9, max_value=1.0, allow_nan=False),
)


#: Log-uniform moderate probabilities, where a crowd of up to 2000-unit
#: stakes walks several steps: ``_PROBABILITY`` alone mostly draws its
#: endpoints and tiny values, where almost every element retires at F(0).
_WALKING_PROBABILITY = st.floats(min_value=-4.0, max_value=-0.5).map(
    lambda exponent: 10.0**exponent
)
#: Whales: (vrf value, stake units) pairs that walk up to several hundred
#: CDF steps (until (1-p)^w underflows), long after the crowd retired.
_WHALES = st.lists(
    st.tuples(_VRF, st.integers(min_value=10_000, max_value=500_000)), max_size=8
)


class TestBinomialWeightsDifferential:
    @given(
        # A crowd of up to a few hundred elements, its size drawn first (a
        # list strategy alone rarely grows past a few dozen), plus a few
        # whales: the lockstep walk runs while more than
        # sortition._SCALAR_TAIL elements search, then hands the
        # stragglers to the scalar tail.
        size=st.integers(min_value=1, max_value=300),
        whales=_WHALES,
        data=st.data(),
        probability=st.one_of(_PROBABILITY, _WALKING_PROBABILITY),
    )
    # No shrink phase: shrinking batches this wide runs into Hypothesis's
    # five-minute shrink limit; the unshrunk failing batch is reported.
    @settings(phases=(Phase.explicit, Phase.reuse, Phase.generate))
    def test_batch_matches_scalar_elementwise(self, size, whales, data, probability):
        vrf_values = data.draw(
            st.lists(_VRF, min_size=size, max_size=size), label="vrf_values"
        ) + [value for value, _ in whales]
        stake_units = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=2_000),
                min_size=size,
                max_size=size,
            ),
            label="stake_units",
        ) + [units for _, units in whales]
        expected = [
            binomial_weight(value, unit, probability)
            for value, unit in zip(vrf_values, stake_units)
        ]
        batch = binomial_weights(vrf_values, stake_units, probability)
        assert batch.tolist() == expected

    @given(
        vrf_values=st.lists(_VRF, min_size=1, max_size=32),
        stake=st.integers(min_value=0, max_value=10_000),
        probability=_PROBABILITY,
    )
    def test_broadcast_matches_scalar(self, vrf_values, stake, probability):
        expected = [
            binomial_weight(value, stake, probability) for value in vrf_values
        ]
        assert binomial_weights(vrf_values, stake, probability).tolist() == expected

    @given(
        # The extreme tail: vrf just below 1 with large stakes exercises the
        # pmf-underflow select-everything branch in both implementations.
        vrf_value=st.floats(min_value=1.0 - 2**-30, max_value=1.0, exclude_max=True),
        stake=st.integers(min_value=1_000, max_value=20_000),
        probability=st.floats(min_value=1e-7, max_value=1e-3),
    )
    def test_underflow_tail_agrees(self, vrf_value, stake, probability):
        expected = binomial_weight(vrf_value, stake, probability)
        assert binomial_weights([vrf_value], [stake], probability).tolist() == [
            expected
        ]

    @given(
        vrf_values=st.lists(_VRF, min_size=0, max_size=16),
        position=st.integers(min_value=0),
        stake=st.integers(min_value=0, max_value=2_000),
        probability=_PROBABILITY,
    )
    def test_nan_vrf_value_raises_on_both_paths(
        self, vrf_values, position, stake, probability
    ):
        values = list(vrf_values)
        values.insert(position % (len(values) + 1), math.nan)
        with pytest.raises(SortitionError):
            binomial_weight(math.nan, stake, probability)
        with pytest.raises(SortitionError):
            binomial_weights(values, stake, probability)


class TestPaperAggregatesDifferential:
    @given(
        stakes=st.lists(
            st.floats(min_value=0.1, max_value=5_000.0, allow_nan=False),
            min_size=1,
            max_size=200,
        ),
        k_floor=st.one_of(st.just(0.0), st.floats(min_value=0.5, max_value=50.0)),
        data=st.data(),
    )
    def test_vectorized_matches_scalar_oracle(self, stakes, k_floor, data):
        total = sum(stakes)
        # Role stakes must leave a positive online pool for the call to be
        # valid; sample them as fractions of the total.
        stake_leaders = data.draw(
            st.floats(min_value=1e-6, max_value=total * 0.4), label="S_L"
        )
        stake_committee = data.draw(
            st.floats(min_value=1e-6, max_value=total * 0.4), label="S_M"
        )

        def call(fn):
            try:
                return fn(
                    stakes,
                    k_floor=k_floor,
                    stake_leaders=stake_leaders,
                    stake_committee=stake_committee,
                ), None
            except MechanismError as exc:
                return None, type(exc)

        fast, fast_error = call(paper_aggregates)
        slow, slow_error = call(paper_aggregates_scalar)
        # Error behaviour must agree (modulo float-summation order on the
        # S_K > 0 boundary, which cannot flip for these magnitudes).
        assert fast_error == slow_error
        if fast is None:
            return
        assert fast.stake_others == pytest.approx(slow.stake_others, rel=1e-9)
        assert fast.min_other == slow.min_other
        assert fast.stake_leaders == slow.stake_leaders
        assert fast.stake_committee == slow.stake_committee
        assert fast.min_leader == slow.min_leader
        assert fast.min_committee == slow.min_committee


class TestRewardScheduleDifferential:
    @given(rounds=st.lists(st.integers(min_value=1, max_value=12_000_000), min_size=1, max_size=64))
    def test_per_round_rewards_match_scalar(self, rounds):
        schedule = RewardSchedule()
        batch = schedule.per_round_rewards(rounds)
        assert batch.tolist() == [schedule.per_round_reward(r) for r in rounds]

    @given(rounds=st.lists(st.integers(min_value=0, max_value=12_000_000), min_size=1, max_size=64))
    def test_cumulative_rewards_match_scalar(self, rounds):
        schedule = RewardSchedule()
        batch = schedule.cumulative_rewards(rounds)
        expected = [schedule.cumulative_reward(r) for r in rounds]
        assert np.allclose(batch, expected, rtol=1e-12, atol=0.0)

    @given(
        period=st.integers(min_value=1, max_value=1_000),
        millions=st.lists(
            st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
            min_size=1,
            max_size=6,
        ),
        rounds=st.lists(st.integers(min_value=1, max_value=10_000), min_size=1, max_size=32),
    )
    def test_custom_schedules_agree(self, period, millions, rounds):
        schedule = RewardSchedule(
            period_blocks=period, projected_millions=tuple(millions)
        )
        batch = schedule.per_round_rewards(rounds)
        assert batch.tolist() == [schedule.per_round_reward(r) for r in rounds]
        cumulative = schedule.cumulative_rewards(rounds)
        expected = [schedule.cumulative_reward(r) for r in rounds]
        assert np.allclose(cumulative, expected, rtol=1e-12, atol=0.0)
