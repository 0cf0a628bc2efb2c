"""Extension: best-response dynamics over repeated rounds.

Not a paper figure — this extends Theorems 1-3 dynamically, following the
conclusion's call to study how selfish behaviour evolves.  Measured claims:

* under Foundation sharing, cooperation unravels to All-Defect from any
  starting profile (Theorem 1's equilibrium is the attractor);
* under role-based sharing funded by Algorithm 1, the cooperative profile
  is an absorbing fixed point and perturbations flow back.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

from repro.analysis.plotting import format_table, line_chart
from repro.core import RoleCosts
from repro.core.bounds import RoleAggregates, minimum_feasible_reward
from repro.core.game import (
    AlgorandGame,
    FoundationRule,
    RoleBasedRule,
    Strategy,
    all_cooperate,
    cooperation_share,
    theorem3_profile,
)

# Synchronous best-response play of the scalar game is a test-side
# reference: it lives with the test suite.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import best_response_path  # noqa: E402

_COSTS = RoleCosts.paper_defaults()
_LEADERS = [5.0, 3.0, 4.0]
_COMMITTEE = [4.0] * 8
_ONLINE = [40.0, 30.0, 20.0, 10.0, 15.0, 25.0]


def _foundation_game() -> AlgorandGame:
    return AlgorandGame.from_role_stakes(
        _LEADERS, _COMMITTEE, _ONLINE,
        costs=_COSTS, reward_rule=FoundationRule(b_i=20.0), synchrony_size=6,
    )


def _funded_game() -> AlgorandGame:
    aggregates = RoleAggregates(
        stake_leaders=sum(_LEADERS),
        stake_committee=sum(_COMMITTEE),
        stake_others=sum(_ONLINE),
        min_leader=min(_LEADERS),
        min_committee=min(_COMMITTEE),
        min_other=min(_ONLINE),
    )
    alpha, beta = 0.2, 0.3
    bound = minimum_feasible_reward(_COSTS, aggregates, alpha, beta)
    return AlgorandGame.from_role_stakes(
        _LEADERS, _COMMITTEE, _ONLINE,
        costs=_COSTS,
        reward_rule=RoleBasedRule(alpha, beta, bound * 1.05),
        synchrony_size=6,
    )


def test_bench_dynamics_convergence(benchmark, report):
    def run():
        foundation_game = _foundation_game()
        unravel = best_response_path(foundation_game, all_cooperate(foundation_game))
        funded_game = _funded_game()
        stable = best_response_path(funded_game, theorem3_profile(funded_game))
        rng = random.Random(3)
        mixed_start = {
            pid: Strategy.COOPERATE if rng.random() < 0.5 else Strategy.DEFECT
            for pid in funded_game.players
        }
        recovering = best_response_path(funded_game, mixed_start)
        return [
            [cooperation_share(profile) for profile in path]
            for path in (unravel, stable, recovering)
        ]

    unravel, stable, recovering = benchmark.pedantic(run, rounds=1, iterations=1)

    n = max(len(unravel), len(stable), len(recovering))

    def pad(series):
        return series + [series[-1]] * (n - len(series))

    chart = line_chart(
        {
            "foundation (All-C start)": pad(unravel),
            "algorithm-1 (Thm-3 start)": pad(stable),
            "algorithm-1 (random start)": pad(recovering),
        },
        title="Extension — cooperation rate under best-response dynamics",
        y_min=0.0,
        y_max=1.0,
        height=12,
    )
    rows = [
        ("foundation, All-C start", f"{unravel[-1]:.2f}", str(unravel[-1] == 0.0)),
        ("algorithm-1, Thm-3 start", f"{stable[-1]:.2f}", str(stable[-1] == 0.0)),
        ("algorithm-1, random start", f"{recovering[-1]:.2f}", str(recovering[-1] == 0.0)),
    ]
    report(
        chart
        + "\n\n"
        + format_table(
            ("dynamic", "final cooperation rate", "collapsed to All-D"),
            rows,
            title="Fixed points reached",
        )
    )
    assert unravel[-1] == 0.0  # converged to All-Defect
    assert stable[-1] > 0.0
    assert len(stable) == 1  # absorbing from the start
