"""Bit-exact: the scenario engine's array round game is the scalar game.

:class:`~repro.scenarios.dynamics.RoundGame` reads a scheme's pool
tables over int8 action arrays; the scalar
:class:`~scalar_game.game.AlgorandGame` under the test-side rule
(:func:`oracles.scalar_rule`: the paper's G_Al / G_Al+ rules for
``foundation`` / ``role_based``, :class:`oracles.PooledRule` for the
rest) reads the same pools player by player.  Scenario trajectories rank
players by payoff differences and break exact ties by player id, so the
two must agree to the last bit, not approximately: every comparison here
is ``==``.

Each example draws 8-40 players with non-integer stakes, one of the five
built-in schemes (``axiomatic_tau`` at its default tau), and a profile
whose block holds, lacks a cooperating leader, sits with its committee
tally at the quorum edge, has a synchrony defector, or has a sole
cooperating leader.  Payoffs, each player's switch-to-C and switch-to-D
payoffs, block success and budget efficiency are checked; a fixed case
also cuts the deviation rows into blocks that straddle a row-block
boundary.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.scenarios import dynamics
from repro.scenarios.dynamics import RoundGame
from repro.schemes.base import SchemeSplit
from repro.schemes.deviation import (
    COMMITTEE,
    LEADER,
    ONLINE,
    pool_tables,
    scaled_costs,
)
from repro.schemes.registry import get_scheme

from oracles import measure_epoch, oracle_game, scalar_rule
from scalar_game.game import Strategy, with_deviation

SCHEMES = ("foundation", "role_based", "irs", "axiomatic_tau", "hybrid")
PROFILES = ("holds", "no_leader", "quorum_edge", "sync_defector", "sole_leader")
_STRATEGY = (Strategy.COOPERATE, Strategy.DEFECT)


def _left_sum(values) -> float:
    return float(np.cumsum(values)[-1])


def draw_round(seed: int, n: int, kind: str):
    """Stakes, roles, synchrony set, actions and quorum for one profile kind."""
    rng = np.random.default_rng(seed)
    stake = rng.lognormal(2.0, 1.5, n)
    whales = rng.random(n) < 0.1
    stake[whales] *= rng.uniform(50.0, 500.0, int(whales.sum()))
    n_leaders = int(rng.integers(1, 4))
    n_committee = int(rng.integers(2, max(3, n // 3)))
    roles = np.full(n, ONLINE, dtype=np.int8)
    order = rng.permutation(n)
    roles[order[:n_leaders]] = LEADER
    roles[order[n_leaders:n_leaders + n_committee]] = COMMITTEE
    online = np.flatnonzero(roles == ONLINE)
    sync = np.zeros(n, dtype=bool)
    sync[rng.choice(online, int(rng.integers(1, online.size)), replace=False)] = True

    leaders = np.flatnonzero(roles == LEADER)
    committee = np.flatnonzero(roles == COMMITTEE)
    coop = rng.random(n) < 0.6
    coop[rng.choice(leaders)] = True
    coop[committee] = True
    coop[sync] = True
    quorum = float(rng.uniform(0.3, 0.9))
    if kind == "no_leader":
        coop[leaders] = False
    elif kind == "sole_leader":
        coop[leaders] = False
        coop[rng.choice(leaders)] = True
    elif kind == "sync_defector":
        coop[rng.choice(np.flatnonzero(sync))] = False
    elif kind == "quorum_edge":
        defectors = rng.choice(committee, int(rng.integers(1, committee.size)), replace=False)
        coop[defectors] = False
        committee_stake = np.where(roles == COMMITTEE, stake, 0.0)
        share = _left_sum(committee_stake * coop) / _left_sum(committee_stake)
        # The tally sits on the threshold, or one ulp either side of it.
        quorum = float(np.nextafter(share, (0.0, share, 1.0)[int(rng.integers(3))]))
    actions = (~coop).astype(np.int8)
    return stake, roles, sync, actions, quorum


def both_games(name, stake, roles, sync, quorum, b_i, split, cost_scale):
    costs = scaled_costs(cost_scale)
    scheme = get_scheme(name)
    array_game = RoundGame(
        stake, roles, sync, pool_tables(scheme, split), b_i, costs, quorum
    )
    game = oracle_game(stake, roles, sync, costs, scalar_rule(scheme, b_i, split), quorum)
    return array_game, game


def assert_bit_equal(array_game, game, actions):
    n = actions.size
    profile = {j: _STRATEGY[actions[j]] for j in range(n)}
    expected = game.payoffs(profile)
    assert array_game.payoffs(actions).tolist() == [expected[j] for j in range(n)]
    payoff_c, payoff_d = array_game.switch_payoffs(actions)
    for observed, strategy in ((payoff_c, Strategy.COOPERATE), (payoff_d, Strategy.DEFECT)):
        expected_switch = [
            game.payoff(j, with_deviation(profile, j, strategy)) for j in range(n)
        ]
        assert observed.tolist() == expected_switch
    record = measure_epoch(0, game, profile, None)
    assert array_game.block_succeeds(actions) is record.block_success
    assert array_game.budget_efficiency(actions) == record.budget_efficiency
    return record


@given(
    name=st.sampled_from(SCHEMES),
    kind=st.sampled_from(PROFILES),
    n=st.integers(8, 40),
    seed=st.integers(0, 2**32 - 1),
    b_i=st.floats(1e-3, 1e3),
    alpha=st.floats(0.05, 0.6),
    beta=st.floats(0.05, 0.3),
    cost_scale=st.floats(0.1, 10.0),
)
def test_round_game_is_the_scalar_game_to_the_bit(
    name, kind, n, seed, b_i, alpha, beta, cost_scale
):
    stake, roles, sync, actions, quorum = draw_round(seed, n, kind)
    array_game, game = both_games(
        name, stake, roles, sync, quorum, b_i, SchemeSplit(alpha, beta), cost_scale
    )
    record = assert_bit_equal(array_game, game, actions)
    if kind == "holds":
        assert record.block_success
    elif kind in ("no_leader", "sync_defector"):
        assert not record.block_success


@pytest.mark.parametrize("name", SCHEMES)
def test_deviation_rows_cut_across_row_blocks(name):
    """Blocks of 7 rows: 80 deviation rows end in a partial block."""
    stake, roles, sync, actions, quorum = draw_round(2021, 40, "quorum_edge")
    array_game, game = both_games(
        name, stake, roles, sync, quorum, 3.5, SchemeSplit(0.3, 0.2), 1.0
    )
    whole = array_game.switch_payoffs(actions)
    pools = array_game.lookup.shape[0]
    with mock.patch.object(dynamics, "_ROW_BLOCK", 7 * pools * actions.size):
        cut = array_game.switch_payoffs(actions)
        assert_bit_equal(array_game, game, actions)
    assert [part.tolist() for part in cut] == [part.tolist() for part in whole]


def test_stake_power_weights_are_the_scalar_pow():
    """numpy's vector ``x ** tau`` may miss libm's ``pow`` by an ulp; the
    round game must not (the scalar rule weighs by ``stake ** tau``)."""
    stake = np.random.default_rng(7).lognormal(2.0, 2.0, 200_000)
    scheme = get_scheme("axiomatic_tau")
    roles = np.full(stake.size, ONLINE, dtype=np.int8)
    array_game = RoundGame(
        stake,
        roles,
        np.zeros(stake.size, dtype=bool),
        pool_tables(scheme, SchemeSplit(0.3, 0.2)),
        1.0,
        scaled_costs(1.0),
        0.685,
    )
    assert array_game.weights[0].tolist() == [s ** scheme.tau for s in stake.tolist()]
