"""Property-based checks of the paper's theorems (Section IV).

These tests instantiate randomized games satisfying the theorems'
hypotheses and verify the claimed equilibrium structure exactly — the
executable counterpart of the proofs.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.bounds import RoleAggregates, minimum_feasible_reward
from repro.core.costs import RoleCosts

from scalar_game.equilibrium import (
    lemma1_offline_dominated,
    theorem1_all_defection_ne,
    theorem2_all_cooperation_not_ne,
    theorem3_equilibrium,
)
from scalar_game.game import (
    AlgorandGame,
    FoundationRule,
    PlayerRole,
    RoleBasedRule,
    Strategy,
)

_stake = st.floats(min_value=1.0, max_value=50.0)


def _foundation_games():
    """Random G_Al instances with n_L > 1 (Theorem 2's hypothesis)."""
    return st.builds(
        lambda leaders, committee, online, b_i: AlgorandGame.from_role_stakes(
            leader_stakes=leaders,
            committee_stakes=committee,
            online_stakes=online,
            costs=RoleCosts.paper_defaults(),
            reward_rule=FoundationRule(b_i=b_i),
        ),
        leaders=st.lists(_stake, min_size=2, max_size=4),
        # Many small committee members so one defection keeps the quorum
        # (the implicit assumption behind Theorem 2's committee deviation).
        committee=st.lists(st.floats(min_value=1.0, max_value=3.0), min_size=8, max_size=12),
        online=st.lists(_stake, min_size=1, max_size=6),
        b_i=st.floats(min_value=0.1, max_value=100.0),
    )


class TestLemma1:
    """Offline is strictly dominated by Defect."""

    @given(_foundation_games())
    @settings(max_examples=25, deadline=None)
    def test_offline_dominated_for_every_player(self, game):
        # Exhaustive enumeration is exponential; check a player of each role.
        for role in PlayerRole:
            ids = game.ids_with_role(role)
            if not ids:
                continue
            others = len(game.players) - 1
            if 2**others > 4096:
                continue  # enumeration guard; other cases covered below
            assert lemma1_offline_dominated(game, ids[0])

    def test_dominance_holds_with_sampled_profiles_for_large_games(self):
        import itertools
        import random

        game = AlgorandGame.from_role_stakes(
            leader_stakes=[5.0] * 5,
            committee_stakes=[2.0] * 10,
            online_stakes=[8.0] * 10,
            costs=RoleCosts.paper_defaults(),
            reward_rule=FoundationRule(b_i=10.0),
        )
        rng = random.Random(0)
        others = [pid for pid in game.players if pid != 0]
        samples = []
        for _ in range(50):
            profile = {pid: rng.choice((Strategy.COOPERATE, Strategy.DEFECT)) for pid in others}
            profile[0] = Strategy.DEFECT
            samples.append(profile)
        assert lemma1_offline_dominated(game, 0, sample_profiles=samples)


class TestTheorem1:
    """All-Defection is a Nash equilibrium."""

    @given(_foundation_games())
    @settings(max_examples=40, deadline=None)
    def test_all_defection_is_ne_under_foundation(self, game):
        assert theorem1_all_defection_ne(game).is_equilibrium

    @given(
        alpha=st.floats(min_value=0.05, max_value=0.45),
        beta=st.floats(min_value=0.05, max_value=0.45),
        b_i=st.floats(min_value=0.1, max_value=1000.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_all_defection_remains_ne_under_role_based(self, alpha, beta, b_i):
        """Theorem 1 carries over to G_Al+: no block, no reward, no deviation."""
        game = AlgorandGame.from_role_stakes(
            leader_stakes=[5.0, 3.0],
            committee_stakes=[2.0] * 8,
            online_stakes=[10.0, 6.0],
            costs=RoleCosts.paper_defaults(),
            reward_rule=RoleBasedRule(alpha, beta, b_i),
        )
        assert theorem1_all_defection_ne(game).is_equilibrium


class TestTheorem2:
    """All-Cooperation is never a Nash equilibrium under Foundation sharing."""

    @given(_foundation_games())
    @settings(max_examples=40, deadline=None)
    def test_all_cooperation_not_ne(self, game):
        result = theorem2_all_cooperation_not_ne(game)
        assert not result.is_equilibrium

    @given(_foundation_games())
    @settings(max_examples=25, deadline=None)
    def test_every_leader_wants_to_deviate(self, game):
        """The proof's first case: any leader gains c_L - c_so by defecting."""
        result = theorem2_all_cooperation_not_ne(game)
        leader_ids = set(game.ids_with_role(PlayerRole.LEADER))
        deviating = {d.node_id for d in result.deviations}
        assert leader_ids <= deviating

    @given(_foundation_games())
    @settings(max_examples=25, deadline=None)
    def test_leader_gain_is_cost_difference(self, game):
        """Deviation gain = c_L - c_so exactly (reward is unchanged)."""
        result = theorem2_all_cooperation_not_ne(game)
        costs = game.costs
        for deviation in result.deviations:
            if deviation.role is PlayerRole.LEADER and deviation.to_strategy is Strategy.DEFECT:
                assert deviation.gain == pytest.approx(
                    costs.leader - costs.sortition, rel=1e-6
                )


def _theorem3_game(b_i_factor: float, alpha=0.2, beta=0.3):
    """A G_Al+ game with B_i set relative to the Theorem 3 bound.

    The online pool is large relative to the committee so the Lemma 2
    feasibility conditions (Eqs. 8-9) hold across the tested splits —
    otherwise the bound is infinite and the comparison is vacuous.
    """
    costs = RoleCosts.paper_defaults()
    leader_stakes = [5.0, 3.0]
    committee_stakes = [4.0] * 6
    online_stakes = [40.0, 30.0, 20.0, 10.0]
    synchrony_size = 4  # all online nodes in Y
    aggregates = RoleAggregates(
        stake_leaders=sum(leader_stakes),
        stake_committee=sum(committee_stakes),
        stake_others=sum(online_stakes),
        min_leader=min(leader_stakes),
        min_committee=min(committee_stakes),
        min_other=min(online_stakes),
    )
    bound = minimum_feasible_reward(costs, aggregates, alpha, beta)
    game = AlgorandGame.from_role_stakes(
        leader_stakes, committee_stakes, online_stakes,
        costs=costs,
        reward_rule=RoleBasedRule(alpha, beta, bound * b_i_factor),
        synchrony_size=synchrony_size,
    )
    return game, bound


class TestTheorem3:
    """L + M + Y cooperate, rest defect — an NE iff B_i clears the bound."""

    @given(factor=st.floats(min_value=1.001, max_value=100.0))
    @settings(max_examples=40, deadline=None)
    def test_above_bound_is_equilibrium(self, factor):
        game, bound = _theorem3_game(factor)
        assume(math.isfinite(bound))
        assert theorem3_equilibrium(game).holds

    @given(factor=st.floats(min_value=0.01, max_value=0.95))
    @settings(max_examples=40, deadline=None)
    def test_below_bound_is_not_equilibrium(self, factor):
        game, bound = _theorem3_game(factor)
        assume(math.isfinite(bound))
        assert not theorem3_equilibrium(game).holds

    @given(
        alpha=st.floats(min_value=0.05, max_value=0.4),
        beta=st.floats(min_value=0.05, max_value=0.4),
    )
    @settings(max_examples=40, deadline=None)
    def test_bound_is_tight_across_splits(self, alpha, beta):
        """Just above the bound: NE; at 90% of it: not an NE."""
        game_above, bound = _theorem3_game(1.01, alpha=alpha, beta=beta)
        assume(math.isfinite(bound))
        game_below, _ = _theorem3_game(0.90, alpha=alpha, beta=beta)
        assert theorem3_equilibrium(game_above).holds
        assert not theorem3_equilibrium(game_below).holds

    def test_deviation_below_bound_comes_from_a_cooperator(self):
        game, _ = _theorem3_game(0.5)
        check = theorem3_equilibrium(game)
        deviation = check.result.best_deviation
        assert deviation is not None
        assert deviation.from_strategy is Strategy.COOPERATE
        assert deviation.to_strategy is Strategy.DEFECT


class TestAlgorithm1EndToEnd:
    """Algorithm 1's output sustains the Theorem 3 equilibrium."""

    def test_mechanism_output_is_equilibrium(self):
        from repro.core.mechanism import IncentiveCompatibleSharing
        from repro.sim.roles import RoleSnapshot

        costs = RoleCosts.paper_defaults()
        snapshot = RoleSnapshot(
            round_index=1,
            leaders={0: 5.0, 1: 3.0},
            committee={2: 4.0, 3: 4.0, 4: 4.0, 5: 4.0, 6: 4.0, 7: 4.0},
            others={8: 10.0, 9: 8.0, 10: 6.0, 11: 2.0},
        )
        mechanism = IncentiveCompatibleSharing(costs=costs, margin=0.01)
        report = mechanism.compute_parameters(snapshot)
        game = AlgorandGame.from_role_stakes(
            leader_stakes=[5.0, 3.0],
            committee_stakes=[4.0] * 6,
            online_stakes=[10.0, 8.0, 6.0, 2.0],
            costs=costs,
            reward_rule=RoleBasedRule(report.alpha, report.beta, report.b_i),
            synchrony_size=4,
        )
        assert theorem3_equilibrium(game).holds
