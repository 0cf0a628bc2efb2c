#!/usr/bin/env python3
"""Equilibrium audit: the paper's theorems, checked on a live round.

Simulates one Algorand round, lifts its realized role assignment into the
one-round game of paper Section IV, and checks:

* Theorem 1 — All-Defect is a Nash equilibrium (under both mechanisms),
* Theorem 2 — All-Cooperate is NOT an equilibrium under the Foundation's
  stake-proportional sharing (prints the profitable deviation witness),
* Theorem 3 — with Algorithm 1's (alpha, beta, B_i), the cooperative
  profile IS an equilibrium, and stops being one if the reward is halved.

Usage::

    python examples/equilibrium_audit.py [--seed 42]
"""

from __future__ import annotations

import argparse

from repro.core import (
    IncentiveCompatibleSharing,
    RoleCosts,
    theorem1_all_defection_ne,
    theorem2_all_cooperation_not_ne,
    theorem3_equilibrium,
)
from repro.core.game import AlgorandGame, FoundationRule, RoleBasedRule
from repro.core.rewards import RewardSchedule
from repro.sim import SimulationConfig, make_simulation
from repro.sim.roles import RewardAllocation, RoleSnapshot


class RecordRoles:
    """A reward mechanism that pays nothing and keeps each round's roles."""

    def __init__(self) -> None:
        self.snapshots: list = []

    def allocate(self, snapshot: RoleSnapshot) -> RewardAllocation:
        self.snapshots.append(snapshot)
        return RewardAllocation(per_node={}, total=0.0)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    # Committees must stay a minority of the network so the round leaves a
    # non-empty "other online nodes" set K for Algorithm 1 to reward.
    parser.add_argument("--nodes", type=int, default=150)
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    costs = RoleCosts.paper_defaults()

    print(f"Simulating one round on {args.nodes} nodes (seed {args.seed}) ...")
    roles = RecordRoles()
    simulation = make_simulation(
        SimulationConfig(
            n_nodes=args.nodes,
            seed=args.seed,
            tau_proposer=8.0,
            tau_step=30.0,
            tau_final=45.0,
            verify_crypto=False,
        ),
        mechanism=roles,
    )
    simulation.run_round()
    (snapshot,) = roles.snapshots
    print(
        f"realized roles: {len(snapshot.leaders)} leaders, "
        f"{len(snapshot.committee)} committee members, "
        f"{len(snapshot.others)} other online nodes\n"
    )

    leader_stakes = list(snapshot.leaders.values())
    committee_stakes = list(snapshot.committee.values())
    online_stakes = list(snapshot.others.values())

    # --- Theorems 1 and 2 under the Foundation mechanism -------------------
    b_i = RewardSchedule().per_round_reward(1)  # 20 Algos
    foundation_game = AlgorandGame.from_role_stakes(
        leader_stakes, committee_stakes, online_stakes,
        costs=costs,
        reward_rule=FoundationRule(b_i=b_i),
        synchrony_size=len(online_stakes),
    )

    theorem1 = theorem1_all_defection_ne(foundation_game)
    print(f"Theorem 1  All-Defect is a Nash equilibrium:      {theorem1.is_equilibrium}")

    theorem2 = theorem2_all_cooperation_not_ne(foundation_game)
    print(f"Theorem 2  All-Cooperate fails under Foundation:  {not theorem2.is_equilibrium}")
    witness = theorem2.best_deviation
    if witness is not None:
        print(
            f"           witness: {witness.role.value} node {witness.node_id} "
            f"gains {witness.gain:.2e} Algos by playing "
            f"{witness.to_strategy.value} (cost saved, reward kept)"
        )

    # --- Theorem 3 under Algorithm 1 ----------------------------------------
    mechanism = IncentiveCompatibleSharing(costs=costs, margin=0.01)
    report = mechanism.compute_parameters(snapshot)
    print(
        f"\nAlgorithm 1 output: alpha={report.alpha:.2e}, beta={report.beta:.2e}, "
        f"gamma={report.gamma:.4f}, B_i={report.b_i:.4f} Algos "
        f"(vs Foundation's {b_i:.0f})"
    )

    def role_game(reward: float) -> AlgorandGame:
        return AlgorandGame.from_role_stakes(
            leader_stakes, committee_stakes, online_stakes,
            costs=costs,
            reward_rule=RoleBasedRule(report.alpha, report.beta, reward),
            synchrony_size=len(online_stakes),
        )

    funded = theorem3_equilibrium(role_game(report.b_i))
    print(f"Theorem 3  cooperation is an equilibrium at B_i:  {funded.holds}")

    starved = theorem3_equilibrium(role_game(report.b_i * 0.5))
    print(f"           ... and breaks at B_i / 2:             {not starved.holds}")
    broken = starved.result.best_deviation
    if broken is not None:
        print(
            f"           witness: {broken.role.value} node {broken.node_id} "
            f"would defect, gaining {broken.gain:.2e} Algos"
        )


if __name__ == "__main__":
    main()
