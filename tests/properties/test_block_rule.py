"""Property tests: the kernel's block rule is the game's success predicate.

:class:`~repro.schemes.deviation.Census` answers, for every agent of a
batch, whether its lone move to C or D flips the block
(:meth:`~repro.schemes.deviation.Census.flips`).  Each example draws one
or two small populations — roles, stakes, a quorum, cooperating sets
with defecting leaders and committee members, a strong-synchrony set —
whose base block fails on its leaders, on its quorum and on 0, 1 or 2+
synchrony defectors, or holds.  Every answer is held to
:meth:`~scalar_game.game.AlgorandGame.block_succeeds` on the deviated
profile, for scalar censuses (one population) and per-row censuses (two
populations flattened into one batch, as the sampled audit does).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schemes.base import SchemeSplit
from repro.schemes.deviation import (
    COMMITTEE,
    LEADER,
    ONLINE,
    SWITCH,
    Agents,
    Census,
    role_costs,
    scaled_costs,
)

from oracles import oracle_game, scalar_rule
from scalar_game.game import Strategy, with_deviation

_COSTS = scaled_costs(1.0)
_RULE = scalar_rule("role_based", 1.0, SchemeSplit(0.3, 0.3))
_STRATEGY = {0: Strategy.COOPERATE, 1: Strategy.DEFECT}


def draw_population(rng, leaders_fail, quorum_fails, sync_defectors):
    """One population whose base block fails (or holds) as asked.

    Stakes are integers, so committee tallies are exact in any
    summation order and the kernel and the game agree to the last bit.
    """
    n_leaders = int(rng.integers(1, 4))
    n_committee = int(rng.integers(2, 6))
    n_online = int(rng.integers(max(3, sync_defectors + 1), 9))
    roles = np.repeat(
        np.array([LEADER, COMMITTEE, ONLINE], dtype=np.int8),
        [n_leaders, n_committee, n_online],
    )
    stake = rng.integers(1, 50, roles.size).astype(np.float64)
    coop = rng.random(roles.size) < 0.6

    leaders = np.flatnonzero(roles == LEADER)
    if leaders_fail:
        coop[leaders] = False
    elif not coop[leaders].any():
        coop[rng.choice(leaders)] = True

    committee = np.flatnonzero(roles == COMMITTEE)
    if quorum_fails and coop[committee].all():
        coop[rng.choice(committee)] = False
    if not quorum_fails and not coop[committee].any():
        coop[rng.choice(committee)] = True
    share = stake[committee][coop[committee]].sum() / stake[committee].sum()
    # A quorum on the asked-for side of the cooperating share, often
    # close enough for one committee move to cross it.
    if quorum_fails:
        quorum = share + (1.0 - share) * rng.uniform(0.05, 0.95)
    else:
        quorum = share * rng.uniform(0.05, 0.999)

    online = np.flatnonzero(roles == ONLINE)
    sync = np.zeros(roles.size, dtype=bool)
    n_sync = int(rng.integers(sync_defectors, online.size + 1))
    sync[rng.choice(online, n_sync, replace=False)] = True
    members = np.flatnonzero(sync)
    coop[members] = True
    coop[rng.choice(members, sync_defectors, replace=False)] = False
    return stake, roles, coop, sync, float(quorum)


def census_of(stake, roles, coop, sync, quorum):
    """The population's counts, reduced the way the kernel's callers do."""
    committee_stake = np.where(roles == COMMITTEE, stake, 0.0)
    return Census(
        leaders=int(np.count_nonzero((roles == LEADER) & coop)),
        tally=float(np.add.reduce(committee_stake * coop)),
        threshold=quorum * float(np.add.reduce(committee_stake)),
        sync_defectors=int(np.count_nonzero(sync & ~coop)),
    )


def batch(stake, roles, coop, sync) -> Agents:
    """The agents as one kernel batch (role costs only fill the fields)."""
    return Agents(
        stake=stake,
        roles=roles,
        selected_rows=np.flatnonzero(roles != ONLINE),
        coop=coop,
        action=(~coop).astype(np.int8),
        coop_cost=role_costs(_COSTS).take(roles),
        sortition_cost=np.full(stake.size, _COSTS.sortition),
        sync=sync,
    )


def flattened(populations):
    """Populations as one batch, each row carrying its own population's counts."""
    censuses = [census_of(*population) for population in populations]
    sizes = [population[0].size for population in populations]
    per_row = Census(
        *(
            np.repeat([getattr(census, field) for census in censuses], sizes)
            for field in ("leaders", "tally", "threshold", "sync_defectors")
        )
    )
    agents = batch(*(np.concatenate([p[i] for p in populations]) for i in range(4)))
    return per_row, agents


def oracle_flips(stake, roles, coop, sync, quorum, to):
    """Agents whose lone move to ``to`` changes ``block_succeeds``."""
    game = oracle_game(stake, roles, sync, _COSTS, _RULE, quorum)
    profile = {j: _STRATEGY[0 if coop[j] else 1] for j in range(stake.size)}
    base = game.block_succeeds(profile)
    moved = []
    for j in range(stake.size):
        target = int(coop[j]) if to == SWITCH else to
        if game.block_succeeds(with_deviation(profile, j, _STRATEGY[target])) != base:
            moved.append(j)
    return base, moved


_MODES = [
    (leaders_fail, quorum_fails, sync_defectors)
    for leaders_fail in (False, True)
    for quorum_fails in (False, True)
    for sync_defectors in (0, 1, 2, 3)
]


class TestBlockRuleAgainstGame:
    @pytest.mark.parametrize(
        "leaders_fail, quorum_fails, sync_defectors",
        _MODES,
        ids=[f"L{int(a)}-Q{int(b)}-S{c}" for a, b, c in _MODES],
    )
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_flips_match_block_succeeds(
        self, leaders_fail, quorum_fails, sync_defectors, seed
    ):
        rng = np.random.default_rng(seed)
        populations = [
            draw_population(rng, leaders_fail, quorum_fails, sync_defectors)
            for _ in range(2)
        ]
        for to in (0, 1, SWITCH):
            expected = []
            for stake, roles, coop, sync, quorum in populations:
                census = census_of(stake, roles, coop, sync, quorum)
                base, moved = oracle_flips(stake, roles, coop, sync, quorum, to)
                assert census.holds == base
                assert base == (
                    not leaders_fail and not quorum_fails and not sync_defectors
                )
                flips = census.flips(batch(stake, roles, coop, sync), to)
                assert sorted(flips.tolist()) == moved
                expected.append(moved)

            per_row, agents = flattened(populations)
            offset = populations[0][0].size
            assert sorted(per_row.flips(agents, to).tolist()) == expected[0] + [
                offset + j for j in expected[1]
            ]
