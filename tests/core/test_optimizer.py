"""Unit and property tests for Algorithm 1's reward minimization."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import RoleAggregates, minimum_feasible_reward, reward_bounds
from repro.core.costs import MICRO_ALGO, RoleCosts
from repro.core.optimizer import (
    default_alpha_grid,
    default_beta_grid,
    minimize_reward_analytic,
    minimize_reward_grid,
    verify_split,
)
from repro.errors import InfeasibleRewardError

from oracles import minimize_reward_scipy


def _aggregates(**overrides) -> RoleAggregates:
    defaults = dict(
        stake_leaders=8.0,
        stake_committee=16.0,
        stake_others=1000.0,
        min_leader=3.0,
        min_committee=4.0,
        min_other=2.0,
    )
    defaults.update(overrides)
    return RoleAggregates(**defaults)


class TestGrids:
    def test_default_grids_match_figure5_axes(self):
        alphas = default_alpha_grid()
        betas = default_beta_grid()
        assert alphas[0] == pytest.approx(0.02)
        assert betas[0] == pytest.approx(0.03)
        assert alphas[-1] == pytest.approx(0.30)


class TestGridSearch:
    def test_grid_finds_finite_minimum(self, paper_costs):
        result = minimize_reward_grid(paper_costs, _aggregates())
        assert math.isfinite(result.best.b_i)
        assert result.best.method == "grid"

    def test_grid_best_is_argmin_of_surface(self, paper_costs):
        result = minimize_reward_grid(paper_costs, _aggregates())
        finite = [
            result.surface[i, j]
            for i in range(len(result.alphas))
            for j in range(len(result.betas))
            if math.isfinite(result.surface[i, j])
        ]
        assert result.best.b_i == pytest.approx(min(finite))

    def test_surface_rows_cover_full_grid(self, paper_costs):
        result = minimize_reward_grid(paper_costs, _aggregates())
        rows = result.surface_rows()
        assert len(rows) == len(result.alphas) * len(result.betas)

    def test_all_infeasible_grid_raises(self, paper_costs):
        # A grid entirely inside the infeasible region (alpha + beta >= 1).
        with pytest.raises(InfeasibleRewardError):
            minimize_reward_grid(
                paper_costs, _aggregates(), alphas=[0.6], betas=[0.5]
            )


class TestAnalytic:
    def test_analytic_beats_or_matches_grid(self, paper_costs):
        aggregates = _aggregates()
        grid = minimize_reward_grid(paper_costs, aggregates)
        analytic = minimize_reward_analytic(paper_costs, aggregates)
        assert analytic.b_i <= grid.best.b_i * (1 + 1e-9)

    def test_analytic_solution_is_feasible(self, paper_costs):
        aggregates = _aggregates()
        split = minimize_reward_analytic(paper_costs, aggregates)
        assert verify_split(paper_costs, aggregates, split, margin=1e-6)

    def test_all_three_bounds_coincide_at_optimum(self, paper_costs):
        """At the interior optimum every constraint binds simultaneously."""
        aggregates = _aggregates()
        split = minimize_reward_analytic(paper_costs, aggregates)
        bounds = reward_bounds(paper_costs, aggregates, split.alpha, split.beta)
        assert bounds.leader == pytest.approx(split.b_i, rel=1e-6)
        assert bounds.committee == pytest.approx(split.b_i, rel=1e-6)
        assert bounds.online == pytest.approx(split.b_i, rel=1e-6)

    def test_degenerate_online_cost_handled(self):
        """c_K == c_so: online nodes need no incentive, gamma shrinks away."""
        costs = RoleCosts(
            leader=16 * MICRO_ALGO,
            committee=12 * MICRO_ALGO,
            online=5 * MICRO_ALGO,
            sortition=5 * MICRO_ALGO,
        )
        split = minimize_reward_analytic(costs, _aggregates())
        assert split.gamma < 0.01
        assert math.isfinite(split.b_i)

    @given(
        stake_others=st.floats(min_value=50.0, max_value=1e8),
        min_other=st.floats(min_value=1.0, max_value=40.0),
        min_leader=st.floats(min_value=0.5, max_value=8.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_analytic_feasibility_property(self, stake_others, min_other, min_leader):
        """The analytic optimum always satisfies all bounds with a margin."""
        costs = RoleCosts.paper_defaults()
        aggregates = _aggregates(
            stake_others=stake_others, min_other=min_other, min_leader=min_leader
        )
        split = minimize_reward_analytic(costs, aggregates)
        assert verify_split(costs, aggregates, split, margin=1e-6)

    @given(scale=st.floats(min_value=1.5, max_value=100.0))
    @settings(max_examples=40, deadline=None)
    def test_bigger_online_pool_needs_bigger_reward(self, scale):
        costs = RoleCosts.paper_defaults()
        small = minimize_reward_analytic(costs, _aggregates())
        big = minimize_reward_analytic(
            costs, _aggregates(stake_others=1000.0 * scale)
        )
        assert big.b_i > small.b_i

    @given(floor=st.floats(min_value=2.0, max_value=50.0))
    @settings(max_examples=40, deadline=None)
    def test_higher_min_stake_needs_smaller_reward(self, floor):
        """The Figure 7(c) effect: raising s*_k lowers the required B_i."""
        costs = RoleCosts.paper_defaults()
        base = minimize_reward_analytic(costs, _aggregates(min_other=1.0))
        raised = minimize_reward_analytic(costs, _aggregates(min_other=floor))
        assert raised.b_i < base.b_i


class TestScipyCrossCheck:
    def test_scipy_agrees_with_analytic(self, paper_costs):
        aggregates = _aggregates()
        analytic = minimize_reward_analytic(paper_costs, aggregates)
        refined = minimize_reward_scipy(paper_costs, aggregates)
        assert refined.b_i == pytest.approx(analytic.b_i, rel=1e-3)

    def test_scipy_from_custom_start(self, paper_costs):
        aggregates = _aggregates()
        refined = minimize_reward_scipy(paper_costs, aggregates, start=(0.1, 0.1))
        analytic = minimize_reward_analytic(paper_costs, aggregates)
        assert refined.b_i <= analytic.b_i * 1.05
