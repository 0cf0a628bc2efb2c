"""Unit tests for the round game G_Al / G_Al+ (paper Section IV)."""

from __future__ import annotations

import pytest

from repro.core.costs import RoleCosts
from repro.errors import GameError

from scalar_game.game import (
    AlgorandGame,
    BlockSuccessModel,
    FoundationRule,
    Player,
    PlayerRole,
    RoleBasedRule,
    Strategy,
    all_cooperate,
    all_defect,
    theorem3_profile,
    with_deviation,
)


def _game(rule=None, synchrony_size=0, costs=None) -> AlgorandGame:
    return AlgorandGame.from_role_stakes(
        leader_stakes=[5.0, 3.0],
        committee_stakes=[4.0, 4.0, 4.0, 4.0],
        online_stakes=[10.0, 8.0, 6.0, 2.0],
        costs=costs or RoleCosts.paper_defaults(),
        reward_rule=rule or FoundationRule(b_i=10.0),
        synchrony_size=synchrony_size,
    )


class TestConstruction:
    def test_roles_assigned_in_order(self):
        game = _game()
        assert game.n_leaders == 2
        assert game.n_committee == 4
        assert game.n_online == 4

    def test_synchrony_set_is_online_prefix(self):
        game = _game(synchrony_size=2)
        online_ids = game.ids_with_role(PlayerRole.ONLINE)
        assert game.success_model.synchrony_set == frozenset(online_ids[:2])

    def test_oversized_synchrony_set_rejected(self):
        with pytest.raises(GameError):
            _game(synchrony_size=5)

    def test_synchrony_set_must_be_online(self):
        players = {0: Player(0, 5.0, PlayerRole.LEADER)}
        with pytest.raises(GameError):
            AlgorandGame(
                players=players,
                costs=RoleCosts.paper_defaults(),
                reward_rule=FoundationRule(b_i=1.0),
                success_model=BlockSuccessModel(synchrony_set=frozenset({0})),
            )

    def test_empty_game_rejected(self):
        with pytest.raises(GameError):
            AlgorandGame(
                players={},
                costs=RoleCosts.paper_defaults(),
                reward_rule=FoundationRule(b_i=1.0),
            )

    def test_non_positive_stake_rejected(self):
        with pytest.raises(GameError):
            Player(0, 0.0, PlayerRole.LEADER)


class TestBlockSuccess:
    def test_all_cooperate_succeeds(self):
        game = _game()
        assert game.block_succeeds(all_cooperate(game))

    def test_all_defect_fails(self):
        game = _game()
        assert not game.block_succeeds(all_defect(game))

    def test_needs_at_least_one_leader(self):
        game = _game()
        profile = all_cooperate(game)
        for pid in game.ids_with_role(PlayerRole.LEADER):
            profile[pid] = Strategy.DEFECT
        assert not game.block_succeeds(profile)

    def test_single_leader_suffices(self):
        game = _game()
        profile = all_cooperate(game)
        leaders = game.ids_with_role(PlayerRole.LEADER)
        profile[leaders[0]] = Strategy.DEFECT
        assert game.block_succeeds(profile)

    def test_committee_quorum_required(self):
        game = _game()
        profile = all_cooperate(game)
        committee = game.ids_with_role(PlayerRole.COMMITTEE)
        # Drop half the committee stake: 8/16 = 50% < 68.5% quorum.
        for pid in committee[:2]:
            profile[pid] = Strategy.DEFECT
        assert not game.block_succeeds(profile)

    def test_one_small_committee_member_defection_tolerated(self):
        game = _game()
        profile = all_cooperate(game)
        committee = game.ids_with_role(PlayerRole.COMMITTEE)
        profile[committee[0]] = Strategy.DEFECT  # 12/16 = 75% > 68.5%
        assert game.block_succeeds(profile)

    def test_synchrony_member_defection_breaks_block(self):
        game = _game(synchrony_size=2)
        profile = all_cooperate(game)
        y_member = next(iter(game.success_model.synchrony_set))
        profile[y_member] = Strategy.DEFECT
        assert not game.block_succeeds(profile)

    def test_non_synchrony_online_defection_tolerated(self):
        game = _game(synchrony_size=2)
        profile = all_cooperate(game)
        online = game.ids_with_role(PlayerRole.ONLINE)
        outsider = [pid for pid in online if pid not in game.success_model.synchrony_set][0]
        profile[outsider] = Strategy.DEFECT
        assert game.block_succeeds(profile)

    def test_missing_strategy_rejected(self):
        game = _game()
        profile = all_cooperate(game)
        del profile[0]
        with pytest.raises(GameError):
            game.block_succeeds(profile)


class TestCosts:
    def test_cooperation_costs_by_role(self, paper_costs):
        game = _game(costs=paper_costs)
        leader = game.ids_with_role(PlayerRole.LEADER)[0]
        committee = game.ids_with_role(PlayerRole.COMMITTEE)[0]
        online = game.ids_with_role(PlayerRole.ONLINE)[0]
        assert game.cost_of(leader, Strategy.COOPERATE) == paper_costs.leader
        assert game.cost_of(committee, Strategy.COOPERATE) == paper_costs.committee
        assert game.cost_of(online, Strategy.COOPERATE) == paper_costs.online

    def test_defection_and_offline_cost_sortition(self, paper_costs):
        game = _game(costs=paper_costs)
        for strategy in (Strategy.DEFECT, Strategy.OFFLINE):
            assert game.cost_of(0, strategy) == paper_costs.sortition


class TestFoundationPayoffs:
    def test_equation_4_payoffs(self, paper_costs):
        """u_j(C) = r_i * s_j - c_role with r_i = B_i / S_N (paper Eq. 4)."""
        game = _game(rule=FoundationRule(b_i=10.0), costs=paper_costs)
        profile = all_cooperate(game)
        total_stake = sum(p.stake for p in game.players.values())
        rate = 10.0 / total_stake
        leader = game.ids_with_role(PlayerRole.LEADER)[0]
        expected = rate * game.players[leader].stake - paper_costs.leader
        assert game.payoff(leader, profile) == pytest.approx(expected)

    def test_defector_keeps_reward_when_block_made(self, paper_costs):
        game = _game(rule=FoundationRule(b_i=10.0), costs=paper_costs)
        profile = all_cooperate(game)
        online = game.ids_with_role(PlayerRole.ONLINE)[0]
        profile[online] = Strategy.DEFECT
        rate = 10.0 / sum(p.stake for p in game.players.values())
        expected = rate * game.players[online].stake - paper_costs.sortition
        assert game.payoff(online, profile) == pytest.approx(expected)

    def test_offline_never_rewarded(self, paper_costs):
        game = _game(rule=FoundationRule(b_i=10.0), costs=paper_costs)
        profile = all_cooperate(game)
        online = game.ids_with_role(PlayerRole.ONLINE)[0]
        profile[online] = Strategy.OFFLINE
        assert game.payoff(online, profile) == pytest.approx(-paper_costs.sortition)

    def test_no_block_means_pure_cost(self, paper_costs):
        game = _game(rule=FoundationRule(b_i=10.0), costs=paper_costs)
        payoffs = game.payoffs(all_defect(game))
        assert all(
            payoff == pytest.approx(-paper_costs.sortition)
            for payoff in payoffs.values()
        )

    def test_payoffs_batch_matches_single(self, paper_costs):
        game = _game(rule=FoundationRule(b_i=10.0), costs=paper_costs)
        profile = all_cooperate(game)
        batch = game.payoffs(profile)
        for pid in game.players:
            assert batch[pid] == pytest.approx(game.payoff(pid, profile))


class TestRoleBasedPayoffs:
    def test_equation_5_payoffs(self, paper_costs):
        """u_l(C) = alpha B_i s_l / S_L - c_L etc. (paper Eq. 5)."""
        rule = RoleBasedRule(alpha=0.2, beta=0.3, b_i=10.0)
        game = _game(rule=rule, costs=paper_costs)
        profile = all_cooperate(game)
        leader = game.ids_with_role(PlayerRole.LEADER)[0]
        expected = 0.2 * 10.0 * 5.0 / 8.0 - paper_costs.leader
        assert game.payoff(leader, profile) == pytest.approx(expected)

    def test_defecting_leader_paid_from_online_pool(self, paper_costs):
        """Lemma 2's deviation payoff: gamma B_i s_l / (S_K + s_l) - c_so."""
        rule = RoleBasedRule(alpha=0.2, beta=0.3, b_i=10.0)
        game = _game(rule=rule, costs=paper_costs)
        profile = all_cooperate(game)
        leaders = game.ids_with_role(PlayerRole.LEADER)
        profile[leaders[0]] = Strategy.DEFECT
        stake = game.players[leaders[0]].stake
        online_stake = 26.0  # S_K of the fixture
        expected = 0.5 * 10.0 * stake / (online_stake + stake) - paper_costs.sortition
        assert game.payoff(leaders[0], profile) == pytest.approx(expected)

    def test_cooperating_and_defecting_online_nodes_share_pool(self, paper_costs):
        rule = RoleBasedRule(alpha=0.2, beta=0.3, b_i=10.0)
        game = _game(rule=rule, costs=paper_costs, synchrony_size=1)
        profile = theorem3_profile(game)
        online = game.ids_with_role(PlayerRole.ONLINE)
        payments = rule.payments(game, profile)
        # All online nodes (cooperating Y member + defectors) share gamma.
        pool_total = sum(payments[pid] for pid in online)
        assert pool_total == pytest.approx(0.5 * 10.0)

    def test_invalid_rule_split_rejected(self):
        with pytest.raises(GameError):
            RoleBasedRule(alpha=0.6, beta=0.5, b_i=1.0)


class TestProfiles:
    def test_theorem3_profile_structure(self):
        game = _game(synchrony_size=2)
        profile = theorem3_profile(game)
        for pid, player in game.players.items():
            if player.role is PlayerRole.ONLINE:
                in_y = pid in game.success_model.synchrony_set
                assert profile[pid] is (Strategy.COOPERATE if in_y else Strategy.DEFECT)
            else:
                assert profile[pid] is Strategy.COOPERATE

    def test_with_deviation_copies(self):
        game = _game()
        profile = all_cooperate(game)
        deviated = with_deviation(profile, 0, Strategy.DEFECT)
        assert profile[0] is Strategy.COOPERATE
        assert deviated[0] is Strategy.DEFECT

    def test_with_deviation_unknown_player(self):
        game = _game()
        with pytest.raises(GameError):
            with_deviation(all_cooperate(game), 999, Strategy.DEFECT)
