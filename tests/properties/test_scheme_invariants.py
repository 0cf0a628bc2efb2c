"""Property-based invariants for every registered reward scheme.

Hypothesis-generated round games and strategy profiles assert, for every
scheme in the registry (built-ins and anything registered later):

* **budget conservation** — the distributed payments never exceed the
  per-round budget ``B_i`` (a pool whose member set is empty withholds
  its slice, never redistributes it), and when every pool is populated
  the payments sum to ``B_i`` exactly;
* **non-negativity** — no scheme ever pays a negative reward, and
  offline players are never paid;
* **oracle coherence** — the generic pool interpreter agrees with each
  scheme's scalar rule: for the paper's pair, the G_Al and G_Al+ rules
  as written (this is what makes their pool declarations trustworthy).

The suite runs under the fixed, derandomized profile registered in
``tests/conftest.py`` so CI stays deterministic.
"""

from __future__ import annotations

from typing import List, Tuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.costs import RoleCosts
from repro.schemes import SchemeSplit, get_scheme, scheme_names

from oracles import PooledRule, scalar_rule
from scalar_game.game import AlgorandGame, Strategy

_STAKES = st.floats(min_value=0.5, max_value=500.0, allow_nan=False)
_STRATEGIES = st.sampled_from(list(Strategy))


@st.composite
def scheme_situations(
    draw,
) -> Tuple[str, List[float], List[float], List[float], List[Strategy], float, float, float]:
    """A registered scheme plus a round game, profile, split and budget."""
    name = draw(st.sampled_from(scheme_names()))
    leader_stakes = draw(st.lists(_STAKES, min_size=1, max_size=3))
    committee_stakes = draw(st.lists(_STAKES, min_size=1, max_size=4))
    online_stakes = draw(st.lists(_STAKES, min_size=1, max_size=5))
    n = len(leader_stakes) + len(committee_stakes) + len(online_stakes)
    strategies = draw(st.lists(_STRATEGIES, min_size=n, max_size=n))
    alpha = draw(st.floats(min_value=0.05, max_value=0.6))
    beta = draw(st.floats(min_value=0.05, max_value=min(0.6, 0.94 - alpha)))
    b_i = draw(st.floats(min_value=1e-6, max_value=10.0))
    return (
        name,
        leader_stakes,
        committee_stakes,
        online_stakes,
        strategies,
        alpha,
        beta,
        b_i,
    )


def _build(situation):
    (
        name,
        leader_stakes,
        committee_stakes,
        online_stakes,
        strategies,
        alpha,
        beta,
        b_i,
    ) = situation
    scheme = get_scheme(name)
    split = SchemeSplit(alpha, beta)
    rule = scalar_rule(scheme, b_i, split)
    game = AlgorandGame.from_role_stakes(
        leader_stakes=leader_stakes,
        committee_stakes=committee_stakes,
        online_stakes=online_stakes,
        costs=RoleCosts.paper_defaults(),
        reward_rule=rule,
        synchrony_size=0,
    )
    profile = dict(enumerate(strategies))
    return scheme, split, rule, game, profile, b_i


@given(scheme_situations())
def test_budget_conserved_and_payments_nonnegative(situation):
    scheme, split, rule, game, profile, b_i = _build(situation)
    payments = rule.payments(game, profile)
    total = sum(payments.values())
    assert total <= b_i * (1 + 1e-9)
    for pid, value in payments.items():
        assert value >= 0.0
        assert profile[pid] is not Strategy.OFFLINE


@given(scheme_situations())
def test_full_budget_distributed_when_all_pools_populated(situation):
    """With everyone cooperating no pool is empty: payments sum to B_i.

    ``role_based`` is the exception by design — its gamma pool is empty
    under All-C only when no online player exists, which cannot happen
    here, so it is covered too.
    """
    scheme, split, rule, game, profile, b_i = _build(situation)
    all_c = {pid: Strategy.COOPERATE for pid in game.players}
    payments = rule.payments(game, all_c)
    assert sum(payments.values()) == pytest.approx(b_i, rel=1e-9)


@given(scheme_situations())
def test_pool_interpreter_matches_scheme_rule(situation):
    """PooledRule(pools) and the scalar rule agree for every registered scheme."""
    scheme, split, rule, game, profile, b_i = _build(situation)
    pooled = PooledRule(scheme.pools(split), b_i)
    expected = rule.payments(game, profile)
    observed = pooled.payments(game, profile)
    assert set(observed) == set(expected)
    for pid in expected:
        assert observed[pid] == pytest.approx(expected[pid], rel=1e-9, abs=1e-15)
