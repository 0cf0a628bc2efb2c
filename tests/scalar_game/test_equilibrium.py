"""Unit tests for the equilibrium machinery."""

from __future__ import annotations

import pytest

from repro.core.costs import RoleCosts

from scalar_game.equilibrium import (
    best_response,
    is_nash_equilibrium,
    profitable_deviations,
)
from scalar_game.game import (
    AlgorandGame,
    FoundationRule,
    RoleBasedRule,
    Strategy,
    all_cooperate,
    all_defect,
)


def _foundation_game(b_i=10.0, synchrony_size=0) -> AlgorandGame:
    return AlgorandGame.from_role_stakes(
        leader_stakes=[5.0, 3.0],
        committee_stakes=[4.0] * 6,
        online_stakes=[10.0, 8.0, 6.0, 2.0],
        costs=RoleCosts.paper_defaults(),
        reward_rule=FoundationRule(b_i=b_i),
        synchrony_size=synchrony_size,
    )


class TestProfitableDeviations:
    def test_all_defect_has_none(self):
        game = _foundation_game()
        assert profitable_deviations(game, all_defect(game)) == []

    def test_all_cooperate_has_leader_deviation(self):
        game = _foundation_game()
        deviations = profitable_deviations(game, all_cooperate(game))
        leader_devs = [d for d in deviations if d.role.value == "leader"]
        assert leader_devs
        assert all(d.to_strategy is Strategy.DEFECT for d in leader_devs)

    def test_gains_are_positive(self):
        game = _foundation_game()
        for deviation in profitable_deviations(game, all_cooperate(game)):
            assert deviation.gain > 0


class TestIsNash:
    def test_all_defect_is_ne(self):
        game = _foundation_game()
        assert is_nash_equilibrium(game, all_defect(game)).is_equilibrium

    def test_all_cooperate_is_not_ne(self):
        game = _foundation_game()
        result = is_nash_equilibrium(game, all_cooperate(game))
        assert not result.is_equilibrium
        assert result.best_deviation is not None

    def test_best_deviation_has_max_gain(self):
        game = _foundation_game()
        result = is_nash_equilibrium(game, all_cooperate(game))
        gains = [d.gain for d in result.deviations]
        assert result.best_deviation.gain == max(gains)

    def test_tolerance_suppresses_tiny_gains(self):
        game = _foundation_game()
        result = is_nash_equilibrium(game, all_cooperate(game), tolerance=1e9)
        assert result.is_equilibrium  # everything is within tolerance


class TestBestResponse:
    def test_defect_is_best_response_to_all_cooperate(self):
        game = _foundation_game()
        profile = all_cooperate(game)
        strategy, _payoff = best_response(game, 0, profile)
        assert strategy is Strategy.DEFECT

    def test_defect_is_best_response_to_all_defect(self):
        game = _foundation_game()
        strategy, payoff = best_response(game, 0, all_defect(game))
        # All-D: every strategy loses, but D (-c_so) ties O and beats C (-c_L);
        # ties prefer the current strategy, which is D.
        assert strategy is Strategy.DEFECT
        assert payoff == pytest.approx(-game.costs.sortition)

    def test_unknown_player_raises(self):
        from repro.errors import GameError

        game = _foundation_game()
        with pytest.raises(GameError):
            best_response(game, 999, all_cooperate(game))


class TestRoleBasedEquilibria:
    def test_generous_reward_sustains_theorem3_profile(self):
        from repro.core.bounds import RoleAggregates, minimum_feasible_reward
        from scalar_game.equilibrium import theorem3_equilibrium
        from scalar_game.game import RoleBasedRule

        costs = RoleCosts.paper_defaults()
        aggregates = RoleAggregates(
            stake_leaders=8.0, stake_committee=24.0, stake_others=100.0,
            min_leader=3.0, min_committee=4.0, min_other=10.0,
        )
        alpha, beta = 0.2, 0.3
        bound = minimum_feasible_reward(costs, aggregates, alpha, beta)
        game = AlgorandGame.from_role_stakes(
            leader_stakes=[5.0, 3.0],
            committee_stakes=[4.0] * 6,
            online_stakes=[40.0, 30.0, 20.0, 10.0],
            costs=costs,
            reward_rule=RoleBasedRule(alpha, beta, bound * 1.01),
            synchrony_size=4,
        )
        assert theorem3_equilibrium(game).holds

    def test_starved_reward_breaks_equilibrium(self):
        from repro.core.bounds import RoleAggregates, minimum_feasible_reward
        from scalar_game.equilibrium import theorem3_equilibrium

        costs = RoleCosts.paper_defaults()
        aggregates = RoleAggregates(
            stake_leaders=8.0, stake_committee=24.0, stake_others=100.0,
            min_leader=3.0, min_committee=4.0, min_other=10.0,
        )
        alpha, beta = 0.2, 0.3
        bound = minimum_feasible_reward(costs, aggregates, alpha, beta)
        game = AlgorandGame.from_role_stakes(
            leader_stakes=[5.0, 3.0],
            committee_stakes=[4.0] * 6,
            online_stakes=[40.0, 30.0, 20.0, 10.0],
            costs=costs,
            reward_rule=RoleBasedRule(alpha, beta, bound * 0.5),
            synchrony_size=4,
        )
        check = theorem3_equilibrium(game)
        assert not check.holds
