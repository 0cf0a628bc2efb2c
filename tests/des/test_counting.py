"""Unit tests for DES vote counting and task-counter pricing."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.sim.ba_star import EMPTY_HASH
from repro.sim.crypto import VrfOutput
from repro.sim.sortition import Role, SortitionProof

from des.messages import VoteMessage
from des.node import TaskCounters, count_votes, price_counters

BLOCK = 777


def _vote(sender: int, value: int, weight: int = 1, step: int = 1) -> VoteMessage:
    proof = SortitionProof(
        public_key=sender,
        role=Role.STEP,
        round_index=1,
        step=step,
        vrf=VrfOutput(value=0.1, proof=sender),
        weight=weight,
        priority=0.5,
        stake=10,
        total_stake=100,
        expected_size=10,
    )
    return VoteMessage(sender=sender, round_index=1, step=step, value=value, proof=proof)


class TestCountVotes:
    def test_majority_value_wins(self):
        votes = [_vote(i, BLOCK) for i in range(8)] + [_vote(10, EMPTY_HASH)]
        assert count_votes(votes, tau=10, threshold=0.685) == BLOCK

    def test_no_quorum_times_out(self):
        votes = [_vote(i, BLOCK) for i in range(3)]
        assert count_votes(votes, tau=10, threshold=0.685) is None

    def test_threshold_is_strict(self):
        # Exactly threshold * tau must NOT win (strict inequality).
        votes = [_vote(i, BLOCK, weight=1) for i in range(5)]
        assert count_votes(votes, tau=10, threshold=0.5) is None
        votes.append(_vote(99, BLOCK))
        assert count_votes(votes, tau=10, threshold=0.5) == BLOCK

    def test_weights_accumulate(self):
        votes = [_vote(1, BLOCK, weight=8)]
        assert count_votes(votes, tau=10, threshold=0.685) == BLOCK

    def test_zero_weight_votes_ignored(self):
        votes = [_vote(1, BLOCK, weight=0)] * 20
        assert count_votes(votes, tau=10, threshold=0.685) is None

    def test_heaviest_value_wins_when_both_cross(self):
        votes = [_vote(i, BLOCK, weight=2) for i in range(5)] + [
            _vote(10 + i, EMPTY_HASH, weight=2) for i in range(4)
        ]
        assert count_votes(votes, tau=10, threshold=0.5) == BLOCK

    def test_empty_vote_iterable_times_out(self):
        assert count_votes([], tau=10, threshold=0.685) is None


class TestPriceCounters:
    def test_prices_simulator_counters(self, paper_task_costs):
        counters = {
            "transactions_verified": 10,
            "sortitions_run": 2,
            "votes_cast": 3,
        }
        expected = (
            10 * paper_task_costs.verification
            + 2 * paper_task_costs.sortition
            + 3 * paper_task_costs.vote
        )
        assert price_counters(paper_task_costs, counters) == pytest.approx(expected)

    def test_full_counter_snapshot_priced(self, paper_task_costs):
        counters = TaskCounters(sortitions_run=4, votes_cast=1).snapshot()
        price = price_counters(paper_task_costs, counters)
        assert price == pytest.approx(
            4 * paper_task_costs.sortition + 1 * paper_task_costs.vote
        )

    def test_unknown_counter_rejected(self, paper_task_costs):
        with pytest.raises(ConfigurationError):
            price_counters(paper_task_costs, {"mystery_task": 1})
