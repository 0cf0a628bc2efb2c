"""Property-based reward-scheme invariants (paper Section IV).

Hypothesis-generated round games and strategy profiles check the
paper's mechanism-level invariants for both reward rules:

* **budget balance** — the distributed rewards sum to the per-round pool
  ``B_i`` (exactly, for the slices whose pools are populated; an empty
  role pool's slice is withheld, never redistributed);
* **non-negativity** — no payment is ever negative, and offline players
  are never paid;
* **stake monotonicity** — within the same payment pool, a player with
  more stake never receives less than one with less stake.

The suite runs under the fixed, derandomized profile registered in
``tests/conftest.py`` so CI stays deterministic.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.costs import RoleCosts

from scalar_game.game import (
    AlgorandGame,
    FoundationRule,
    PlayerRole,
    RoleBasedRule,
    Strategy,
)

_STAKES = st.floats(min_value=0.5, max_value=500.0, allow_nan=False)
_STRATEGIES = st.sampled_from(list(Strategy))


@st.composite
def games_and_profiles(draw) -> Tuple[List[float], List[float], List[float], List[Strategy], float, float, float]:
    """A small round game plus a full strategy profile and rule parameters."""
    leader_stakes = draw(st.lists(_STAKES, min_size=1, max_size=3))
    committee_stakes = draw(st.lists(_STAKES, min_size=1, max_size=4))
    online_stakes = draw(st.lists(_STAKES, min_size=1, max_size=5))
    n = len(leader_stakes) + len(committee_stakes) + len(online_stakes)
    strategies = draw(st.lists(_STRATEGIES, min_size=n, max_size=n))
    alpha = draw(st.floats(min_value=0.05, max_value=0.6))
    beta = draw(st.floats(min_value=0.05, max_value=min(0.6, 0.94 - alpha)))
    b_i = draw(st.floats(min_value=1e-6, max_value=10.0))
    return leader_stakes, committee_stakes, online_stakes, strategies, alpha, beta, b_i


def _build(case, rule) -> Tuple[AlgorandGame, Dict[int, Strategy]]:
    leader_stakes, committee_stakes, online_stakes, strategies, _, _, _ = case
    game = AlgorandGame.from_role_stakes(
        leader_stakes,
        committee_stakes,
        online_stakes,
        costs=RoleCosts.paper_defaults(),
        reward_rule=rule,
    )
    profile = {pid: strategies[pid] for pid in game.players}
    return game, profile


def _rules(case):
    _, _, _, _, alpha, beta, b_i = case
    return (
        FoundationRule(b_i=b_i),
        RoleBasedRule(alpha=alpha, beta=beta, b_i=b_i),
    )


class TestBudgetBalance:
    @given(games_and_profiles())
    def test_foundation_distributes_exactly_the_pool(self, case):
        b_i = case[-1]
        game, profile = _build(case, FoundationRule(b_i=b_i))
        payments = game.reward_rule.payments(game, profile)
        any_online = any(s is not Strategy.OFFLINE for s in profile.values())
        if any_online:
            assert sum(payments.values()) == pytest.approx(b_i, rel=1e-9)
        else:
            assert payments == {}

    @given(games_and_profiles())
    def test_role_based_distributes_populated_slices_exactly(self, case):
        _, _, _, _, alpha, beta, b_i = case
        rule = RoleBasedRule(alpha=alpha, beta=beta, b_i=b_i)
        game, profile = _build(case, rule)
        payments = game.reward_rule.payments(game, profile)

        performing_leaders = any(
            profile[pid] is Strategy.COOPERATE
            for pid, p in game.players.items()
            if p.role is PlayerRole.LEADER
        )
        performing_committee = any(
            profile[pid] is Strategy.COOPERATE
            for pid, p in game.players.items()
            if p.role is PlayerRole.COMMITTEE
        )
        gamma_pool = any(
            profile[pid] is not Strategy.OFFLINE
            and not (
                profile[pid] is Strategy.COOPERATE
                and p.role in (PlayerRole.LEADER, PlayerRole.COMMITTEE)
            )
            for pid, p in game.players.items()
        )
        expected = b_i * (
            (alpha if performing_leaders else 0.0)
            + (beta if performing_committee else 0.0)
            + (rule.gamma if gamma_pool else 0.0)
        )
        assert sum(payments.values()) == pytest.approx(expected, rel=1e-9, abs=1e-18)
        # Never exceeds the budget, even with empty (withheld) slices.
        assert sum(payments.values()) <= b_i * (1 + 1e-12)


class TestNonNegativity:
    @given(games_and_profiles())
    def test_payments_are_non_negative_and_skip_offline(self, case):
        for rule in _rules(case):
            game, profile = _build(case, rule)
            payments = game.reward_rule.payments(game, profile)
            assert all(value >= 0.0 for value in payments.values())
            offline = {
                pid for pid, s in profile.items() if s is Strategy.OFFLINE
            }
            assert offline.isdisjoint(payments)


class TestStakeMonotonicity:
    @staticmethod
    def _pool_of(game: AlgorandGame, profile, pid) -> str:
        """Which role-based pool a (non-offline) player is paid from."""
        player = game.players[pid]
        if profile[pid] is Strategy.COOPERATE and player.role is PlayerRole.LEADER:
            return "alpha"
        if profile[pid] is Strategy.COOPERATE and player.role is PlayerRole.COMMITTEE:
            return "beta"
        return "gamma"

    @given(games_and_profiles())
    def test_role_based_is_stake_monotone_within_a_pool(self, case):
        _, _, _, _, alpha, beta, b_i = case
        game, profile = _build(case, RoleBasedRule(alpha=alpha, beta=beta, b_i=b_i))
        payments = game.reward_rule.payments(game, profile)
        paid = [pid for pid, s in profile.items() if s is not Strategy.OFFLINE]
        for i in paid:
            for j in paid:
                if self._pool_of(game, profile, i) != self._pool_of(game, profile, j):
                    continue
                if game.players[i].stake >= game.players[j].stake:
                    assert payments.get(i, 0.0) >= payments.get(j, 0.0) * (1 - 1e-12)

    @given(games_and_profiles())
    def test_foundation_is_stake_monotone_across_all_online(self, case):
        b_i = case[-1]
        game, profile = _build(case, FoundationRule(b_i=b_i))
        payments = game.reward_rule.payments(game, profile)
        paid = [pid for pid, s in profile.items() if s is not Strategy.OFFLINE]
        ranked = sorted(paid, key=lambda pid: game.players[pid].stake)
        for lo, hi in zip(ranked, ranked[1:]):
            assert payments[hi] >= payments[lo] * (1 - 1e-12)
