"""Unit tests for Algorithm 1 (IncentiveCompatibleSharing)."""

from __future__ import annotations

import pytest

from repro.core.bounds import RoleAggregates, minimum_feasible_reward
from repro.core.mechanism import IncentiveCompatibleSharing
from repro.errors import MechanismError
from repro.sim.roles import RoleSnapshot


def _snapshot(round_index=1):
    return RoleSnapshot(
        round_index=round_index,
        leaders={1: 5.0, 2: 3.0},
        committee={3: 4.0, 4: 4.0},
        others={5: 10.0, 6: 8.0, 7: 6.0, 8: 2.0},
    )


class TestComputeParameters:
    def test_report_fields(self, paper_costs):
        mechanism = IncentiveCompatibleSharing(costs=paper_costs)
        report = mechanism.compute_parameters(_snapshot())
        assert report.round_index == 1
        assert 0 < report.alpha < 1
        assert 0 < report.beta < 1
        assert report.gamma == pytest.approx(1 - report.alpha - report.beta)
        assert report.b_i > report.bound  # margin applied

    def test_b_i_clears_theorem3_bound(self, paper_costs):
        mechanism = IncentiveCompatibleSharing(costs=paper_costs)
        snapshot = _snapshot()
        report = mechanism.compute_parameters(snapshot)
        aggregates = RoleAggregates.from_snapshot(snapshot)
        bound = minimum_feasible_reward(paper_costs, aggregates, report.alpha, report.beta)
        assert report.b_i > bound

    def test_k_floor_restricts_synchrony_set(self, paper_costs):
        permissive = IncentiveCompatibleSharing(costs=paper_costs, k_floor=0.0)
        strict = IncentiveCompatibleSharing(costs=paper_costs, k_floor=5.0)
        loose_b = permissive.compute_parameters(_snapshot()).b_i
        strict_b = strict.compute_parameters(_snapshot()).b_i
        # Raising the floor (s*_k: 2 -> 6) lowers the required reward.
        assert strict_b < loose_b

    def test_default_costs_are_paper_defaults(self):
        mechanism = IncentiveCompatibleSharing()
        assert mechanism.costs.leader == pytest.approx(16e-6)


class TestAllocate:
    def test_allocation_respects_split(self, paper_costs):
        mechanism = IncentiveCompatibleSharing(costs=paper_costs)
        snapshot = _snapshot()
        allocation = mechanism.allocate(snapshot)
        params = allocation.params
        leader_pay = allocation.paid_to(1) + allocation.paid_to(2)
        assert leader_pay == pytest.approx(params["alpha"] * params["b_i"], rel=1e-9)
        online_pay = sum(allocation.paid_to(i) for i in (5, 6, 7, 8))
        assert online_pay == pytest.approx(params["gamma"] * params["b_i"], rel=1e-9)

    def test_reports_accumulate(self, paper_costs):
        mechanism = IncentiveCompatibleSharing(costs=paper_costs)
        mechanism.allocate(_snapshot(1))
        mechanism.allocate(_snapshot(2))
        assert [r.round_index for r in mechanism.reports] == [1, 2]

    def test_collapsed_round_raises_by_default(self, paper_costs):
        mechanism = IncentiveCompatibleSharing(costs=paper_costs)
        dead_round = RoleSnapshot(round_index=1, others={5: 10.0})
        with pytest.raises(MechanismError):
            mechanism.allocate(dead_round)

    def test_collapsed_round_skipped_when_configured(self, paper_costs):
        mechanism = IncentiveCompatibleSharing(costs=paper_costs, on_infeasible="skip")
        dead_round = RoleSnapshot(round_index=1, others={5: 10.0})
        allocation = mechanism.allocate(dead_round)
        assert allocation.total == 0.0
        assert allocation.params["skipped"] == 1.0

    def test_strategy_proofness_margin(self, paper_costs):
        """Distributed B_i strictly exceeds the bound (strict inequalities)."""
        mechanism = IncentiveCompatibleSharing(costs=paper_costs, margin=0.05)
        report = mechanism.compute_parameters(_snapshot())
        assert report.b_i == pytest.approx(report.bound * 1.05)


class TestValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(MechanismError):
            IncentiveCompatibleSharing(on_infeasible="shrug")

    def test_negative_margin_rejected(self):
        with pytest.raises(MechanismError):
            IncentiveCompatibleSharing(margin=-0.1)

    def test_negative_floor_rejected(self):
        with pytest.raises(MechanismError):
            IncentiveCompatibleSharing(k_floor=-1.0)
