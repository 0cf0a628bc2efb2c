"""The equilibrium example's array Nash checks against the scalar game.

``examples/equilibrium_audit.py`` decides Theorems 1-3 on the runtime's
``RoundGame`` (pool tables, switches to C and to D only).  Here the same
simulated rounds are lifted into the scalar :class:`AlgorandGame` under
the paper's Eq. 3 / Eq. 5 rules and checked with the theorem functions,
which try every unilateral deviation, O included.  Verdicts, witness
nodes and witness gains must agree exactly.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.core import IncentiveCompatibleSharing, RoleCosts
from repro.core.rewards import RewardSchedule

from scalar_game.equilibrium import (
    NashResult,
    theorem1_all_defection_ne,
    theorem2_all_cooperation_not_ne,
    theorem3_equilibrium,
)
from scalar_game.game import AlgorandGame, FoundationRule, RoleBasedRule

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "equilibrium_audit.py"


def _load_example():
    spec = importlib.util.spec_from_file_location("equilibrium_audit", EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass resolves annotations there
    spec.loader.exec_module(module)
    return module


example = _load_example()


def _scalar_results(snapshot, costs, b_i, report):
    """The scalar game's verdicts on the four profiles :func:`audit` checks."""
    stakes = [
        list(snapshot.leaders.values()),
        list(snapshot.committee.values()),
        list(snapshot.others.values()),
    ]

    def game(rule) -> AlgorandGame:
        return AlgorandGame.from_role_stakes(
            *stakes, costs=costs, reward_rule=rule, synchrony_size=len(stakes[2])
        )

    foundation = game(FoundationRule(b_i=b_i))

    def role_based(reward: float) -> NashResult:
        rule = RoleBasedRule(report.alpha, report.beta, reward)
        return theorem3_equilibrium(game(rule)).result

    return (
        theorem1_all_defection_ne(foundation),
        theorem2_all_cooperation_not_ne(foundation),
        role_based(report.b_i),
        role_based(report.b_i * 0.5),
    )


@pytest.mark.parametrize("seed", [42, 7, 2021, 3, 11])
def test_the_example_matches_the_scalar_theorems(seed):
    costs = RoleCosts.paper_defaults()
    snapshot = example.simulate_round(150, seed)
    b_i = RewardSchedule().per_round_reward(1)
    report = IncentiveCompatibleSharing(costs=costs, margin=0.01).compute_parameters(
        snapshot
    )
    checks = example.audit(snapshot, costs, b_i, report)
    results = _scalar_results(snapshot, costs, b_i, report)

    assert [check.holds for check in checks] == list(example.PAPER_VERDICTS.values())
    for check, result in zip(checks, results):
        assert check.holds is result.is_equilibrium
        if result.is_equilibrium:
            assert check.gain <= example.TOLERANCE
            continue
        witness = result.best_deviation
        assert (check.node, check.role, check.action) == (
            witness.node_id,
            witness.role.value,
            witness.to_strategy.value,
        )
        assert check.gain == witness.gain
