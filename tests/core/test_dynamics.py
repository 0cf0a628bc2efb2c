"""Tests for the dynamics: the theorems under best response, and the replicator."""

from __future__ import annotations

import random

import pytest

from repro.core.bounds import RoleAggregates, minimum_feasible_reward
from repro.core.costs import RoleCosts
from repro.core.dynamics import ReplicatorAccumulator, replicator_step
from repro.errors import GameError

from oracles import best_response_path, mean_payoff_by_strategy
from scalar_game.equilibrium import synchronous_best_responses
from scalar_game.game import (
    AlgorandGame,
    FoundationRule,
    RoleBasedRule,
    Strategy,
    all_cooperate,
    all_defect,
    cooperation_share,
    defection_share,
    profile_counts,
    theorem3_profile,
)

_COSTS = RoleCosts.paper_defaults()
_LEADERS = [5.0, 3.0]
_COMMITTEE = [4.0] * 6
_ONLINE = [40.0, 30.0, 20.0, 10.0]


def _foundation_game(b_i=20.0) -> AlgorandGame:
    return AlgorandGame.from_role_stakes(
        _LEADERS, _COMMITTEE, _ONLINE,
        costs=_COSTS,
        reward_rule=FoundationRule(b_i=b_i),
        synchrony_size=4,
    )


def _funded_role_game(factor=1.01, alpha=0.2, beta=0.3) -> AlgorandGame:
    aggregates = RoleAggregates(
        stake_leaders=sum(_LEADERS),
        stake_committee=sum(_COMMITTEE),
        stake_others=sum(_ONLINE),
        min_leader=min(_LEADERS),
        min_committee=min(_COMMITTEE),
        min_other=min(_ONLINE),
    )
    bound = minimum_feasible_reward(_COSTS, aggregates, alpha, beta)
    return AlgorandGame.from_role_stakes(
        _LEADERS, _COMMITTEE, _ONLINE,
        costs=_COSTS,
        reward_rule=RoleBasedRule(alpha, beta, bound * factor),
        synchrony_size=4,
    )


class TestFoundationDynamics:
    """Under Foundation sharing, cooperation unravels to All-Defect."""

    def test_all_cooperate_unravels(self):
        game = _foundation_game()
        path = best_response_path(game, all_cooperate(game))
        assert path[-1] == all_defect(game)

    def test_random_profiles_unravel(self):
        game = _foundation_game()
        for seed in range(5):
            rng = random.Random(seed)
            start = {
                pid: Strategy.COOPERATE if rng.random() < 0.7 else Strategy.DEFECT
                for pid in game.players
            }
            assert best_response_path(game, start)[-1] == all_defect(game)

    def test_all_defect_is_absorbing(self):
        game = _foundation_game()
        assert best_response_path(game, all_defect(game)) == [all_defect(game)]

    def test_cooperation_rate_is_monotone_decreasing(self):
        game = _foundation_game()
        path = best_response_path(game, all_cooperate(game))
        series = [cooperation_share(profile) for profile in path]
        assert all(a >= b for a, b in zip(series, series[1:]))


class TestRoleBasedDynamics:
    """Funded above the Theorem 3 bound, cooperation is absorbing."""

    def test_theorem3_profile_is_a_fixed_point(self):
        game = _funded_role_game()
        start = theorem3_profile(game)
        assert best_response_path(game, start) == [start]

    def test_blocks_produced_at_the_cooperative_fixed_point(self):
        game = _funded_role_game()
        assert game.block_succeeds(best_response_path(game, theorem3_profile(game))[-1])

    def test_nearby_profiles_flow_back(self):
        """Perturb one cooperator to D: it flows back to cooperation."""
        game = _funded_role_game()
        start = theorem3_profile(game)
        perturbed = dict(start)
        some_cooperator = next(
            pid for pid, s in start.items() if s is Strategy.COOPERATE
        )
        perturbed[some_cooperator] = Strategy.DEFECT
        final = best_response_path(game, perturbed)[-1]
        assert final[some_cooperator] is Strategy.COOPERATE

    def test_starved_reward_unravels_even_role_based(self):
        game = _funded_role_game(factor=0.3)
        start = theorem3_profile(game)
        final = best_response_path(game, start)[-1]
        assert profile_counts(final)[Strategy.COOPERATE] < profile_counts(start)[
            Strategy.COOPERATE
        ]


class TestProfileHelpers:
    def test_profile_counts_cover_all_strategies(self):
        game = _foundation_game()
        counts = profile_counts(all_cooperate(game))
        assert counts[Strategy.COOPERATE] == len(game.players)
        assert counts[Strategy.DEFECT] == 0
        assert counts[Strategy.OFFLINE] == 0

    def test_shares(self):
        game = _foundation_game()
        profile = all_defect(game)
        assert defection_share(profile) == 1.0
        assert cooperation_share(profile) == 0.0
        assert defection_share({}) == 0.0 and cooperation_share({}) == 0.0

    def test_synchronous_best_responses_respects_revising_subset(self):
        game = _foundation_game()
        profile = all_cooperate(game)
        responses = synchronous_best_responses(game, profile, revising=[0])
        assert set(responses) == {0}


class TestReplicatorStep:
    def test_moves_toward_the_fitter_strategy(self):
        up = replicator_step(0.5, payoff_cooperate=2e-6, payoff_defect=1e-6)
        down = replicator_step(0.5, payoff_cooperate=1e-6, payoff_defect=2e-6)
        assert up > 0.5 > down

    def test_is_scale_invariant_in_payoff_units(self):
        a = replicator_step(0.4, 2e-6, 1e-6)
        b = replicator_step(0.4, 2.0, 1.0)
        assert a == pytest.approx(b)

    def test_boundaries_are_absorbing_without_mutation(self):
        assert replicator_step(0.0, 5.0, 1.0) == 0.0
        assert replicator_step(1.0, 1.0, 5.0) == 1.0

    def test_mutation_pulls_toward_the_interior(self):
        assert replicator_step(0.0, 5.0, 1.0, mutation=0.1) == pytest.approx(0.05)
        assert replicator_step(1.0, 1.0, 5.0, mutation=0.1) == pytest.approx(0.95)

    def test_equal_payoffs_are_a_fixed_point(self):
        assert replicator_step(0.3, 1.5, 1.5) == pytest.approx(0.3)

    def test_extreme_advantage_does_not_overflow(self):
        assert 0.0 <= replicator_step(0.5, 1e6, -1e6, intensity=100.0) <= 1.0

    def test_validation(self):
        with pytest.raises(GameError):
            replicator_step(1.5, 1.0, 1.0)
        with pytest.raises(GameError):
            replicator_step(0.5, 1.0, 1.0, intensity=0.0)
        with pytest.raises(GameError):
            replicator_step(0.5, 1.0, 1.0, mutation=1.0)

    def test_mean_payoff_by_strategy(self):
        game = _foundation_game(b_i=0.0)
        profile = all_defect(game)
        means = mean_payoff_by_strategy(game, profile)
        # Everyone defects: the D mean is -c_so, extinct strategies are 0.
        assert means[Strategy.DEFECT] == pytest.approx(-_COSTS.sortition)
        assert means[Strategy.COOPERATE] == 0.0
        assert means[Strategy.OFFLINE] == 0.0


class TestReplicatorStepEdgeCases:
    """Regression tests for the edge cases surfaced by streaming epochs."""

    def test_boundary_share_tolerates_extinct_payoff_nan(self):
        """At x=0/x=1 one class is extinct; its (undefined) mean is ignored."""
        assert replicator_step(0.0, float("nan"), 5.0) == 0.0
        assert replicator_step(1.0, 5.0, float("nan")) == 1.0

    def test_zero_total_payoff_epoch_has_no_division_blowup(self):
        """An all-zero-payoff epoch is a fixed point, not a 0/0 NaN."""
        result = replicator_step(0.4, 0.0, 0.0)
        assert result == pytest.approx(0.4)

    def test_single_surviving_strategy_normalizes_exactly(self):
        """With one strategy extinct the share renormalizes to the boundary
        exactly (no drift from the exponential weighting)."""
        assert replicator_step(0.0, -3.0, 1.0) == 0.0
        assert replicator_step(1.0, 1.0, -3.0) == 1.0
        # ... and mutation still pulls off the boundary.
        assert replicator_step(0.0, -3.0, 1.0, mutation=0.2) == pytest.approx(0.1)

    def test_negative_payoff_pairs_are_shift_invariant(self):
        """Both-negative epochs (block failed: everyone pays costs) compare
        payoff *differences*, not magnitudes — a deep common loss must not
        wash out the per-strategy gap through the scale normalization."""
        close = replicator_step(0.5, -1000.001, -1000.0)
        small = replicator_step(0.5, -0.001, 0.0)
        assert close == pytest.approx(small)
        assert close < 0.5  # cooperation still loses ground

    def test_mixed_sign_pairs_keep_the_advantage_direction(self):
        assert replicator_step(0.5, 1.0, -1.0) > 0.5
        assert replicator_step(0.5, -1.0, 1.0) < 0.5


class TestReplicatorAccumulator:
    """The streaming (chunk-folding) form of the replicator mean payoffs."""

    def test_matches_the_scalar_step_on_one_fold(self):
        import numpy as np

        acc = ReplicatorAccumulator()
        u_c = np.array([1.0, 2.0, 3.0])
        u_d = np.array([0.5, 0.5, 0.5])
        acc.fold(u_c, u_d)
        assert acc.count == 3
        mean_c, mean_d = acc.mean_payoffs()
        assert mean_c == pytest.approx(2.0)
        assert mean_d == pytest.approx(0.5)
        assert acc.step(0.5) == replicator_step(0.5, mean_c, mean_d)

    def test_chunked_folds_are_bit_identical_to_one_fold(self):
        """Folding block-aligned chunks reproduces the monolithic sums
        bitwise — the chunk-invariance contract of streamed dynamics."""
        import numpy as np

        from repro.populations import SEED_BLOCK

        rng = np.random.default_rng(5)
        n = 2 * SEED_BLOCK + 700
        u_c, u_d = rng.normal(size=n), rng.normal(size=n)
        whole = ReplicatorAccumulator()
        whole.fold(u_c, u_d)
        chunked = ReplicatorAccumulator()
        for start in range(0, n, SEED_BLOCK):
            chunked.fold(u_c[start:start + SEED_BLOCK],
                         u_d[start:start + SEED_BLOCK])
        assert chunked.count == whole.count
        assert chunked.mean_payoffs() == whole.mean_payoffs()
        assert chunked.step(0.37) == whole.step(0.37)
        # Slices' partials may be computed in any order (on any thread);
        # absorbed in population order they give the same bits.
        starts = range(0, n, SEED_BLOCK)
        partials = {
            start: ReplicatorAccumulator.partials(
                u_c[start:start + SEED_BLOCK], u_d[start:start + SEED_BLOCK]
            )
            for start in reversed(starts)
        }
        absorbed = ReplicatorAccumulator()
        for start in starts:
            absorbed.absorb(*partials[start])
        assert absorbed.count == whole.count
        assert absorbed.mean_payoffs() == whole.mean_payoffs()

    def test_include_mask_restricts_the_population(self):
        import numpy as np

        acc = ReplicatorAccumulator()
        acc.fold(
            np.array([1.0, 100.0]),
            np.array([0.0, 100.0]),
            include=np.array([True, False]),
        )
        assert acc.count == 1
        assert acc.mean_payoffs() == (1.0, 0.0)

    def test_empty_accumulator_is_a_fixed_point(self):
        acc = ReplicatorAccumulator()
        assert acc.mean_payoffs() == (0.0, 0.0)
        assert acc.step(0.7) == pytest.approx(0.7)
        acc.reset()
        assert acc.count == 0

    def test_validation(self):
        import numpy as np

        with pytest.raises(GameError):
            ReplicatorAccumulator(intensity=0.0)
        with pytest.raises(GameError):
            ReplicatorAccumulator(mutation=1.0)
        acc = ReplicatorAccumulator()
        with pytest.raises(GameError):
            acc.fold(np.zeros(3), np.zeros(4))
        with pytest.raises(GameError):
            acc.fold(np.zeros(3), np.zeros(3), include=np.zeros(2, dtype=bool))
