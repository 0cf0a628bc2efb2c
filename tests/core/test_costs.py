"""Unit tests for the cost model (paper Table II, Eqs. 1-2)."""

from __future__ import annotations

import pytest

from repro.core.costs import MICRO_ALGO, RoleCosts, TaskCosts
from repro.errors import ConfigurationError


class TestTaskCosts:
    def test_fixed_cost_formula(self, paper_task_costs):
        """c_fix = c_ve + c_se + c_so + c_go + c_vs + c_vc (Eq. 1)."""
        c = paper_task_costs
        expected = (
            c.verification + c.seed_generation + c.sortition
            + c.gossip + c.proof_verification + c.vote_counting
        )
        assert c.fixed == pytest.approx(expected)

    def test_role_cost_formulas(self, paper_task_costs):
        """c_L = c_fix + c_bl; c_M = c_fix + c_bs + c_vo; c_K = c_fix (Eq. 2)."""
        c = paper_task_costs
        assert c.leader == pytest.approx(c.fixed + c.block_proposal)
        assert c.committee == pytest.approx(c.fixed + c.block_selection + c.vote)
        assert c.online == pytest.approx(c.fixed)

    def test_paper_aggregates_match_section5(self, paper_task_costs):
        """The granular defaults must sum to c_L=16, c_M=12, c_K=6, c_so=5 µAlgos."""
        c = paper_task_costs
        assert c.leader == pytest.approx(16 * MICRO_ALGO)
        assert c.committee == pytest.approx(12 * MICRO_ALGO)
        assert c.online == pytest.approx(6 * MICRO_ALGO)
        assert c.sortition == pytest.approx(5 * MICRO_ALGO)

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            TaskCosts(-1, 0, 0, 0, 0, 0, 0, 0, 0)


class TestRoleCosts:
    def test_from_tasks_consistency(self, paper_task_costs):
        roles = RoleCosts.from_tasks(paper_task_costs)
        assert roles.leader == pytest.approx(paper_task_costs.leader)
        assert roles.committee == pytest.approx(paper_task_costs.committee)
        assert roles.online == pytest.approx(paper_task_costs.online)
        assert roles.sortition == pytest.approx(paper_task_costs.sortition)

    def test_paper_defaults(self, paper_costs):
        assert paper_costs.leader == pytest.approx(16 * MICRO_ALGO)
        assert paper_costs.sortition == pytest.approx(5 * MICRO_ALGO)

    def test_cost_ordering_enforced(self):
        with pytest.raises(ConfigurationError):
            RoleCosts(leader=1.0, committee=2.0, online=0.5, sortition=0.1)

    def test_sortition_cannot_exceed_online(self):
        with pytest.raises(ConfigurationError):
            RoleCosts(leader=3.0, committee=2.0, online=1.0, sortition=1.5)

    def test_of_role_lookup(self, paper_costs):
        assert paper_costs.of_role("leader") == paper_costs.leader
        assert paper_costs.of_role("committee") == paper_costs.committee
        assert paper_costs.of_role("online") == paper_costs.online

    def test_of_role_unknown_raises(self, paper_costs):
        with pytest.raises(ConfigurationError):
            paper_costs.of_role("banker")
