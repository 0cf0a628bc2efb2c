#!/usr/bin/env python3
"""Equilibrium audit: the paper's theorems, checked on a live round.

Simulates one Algorand round, lifts its realized role assignment into the
one-round game of paper Section IV, and checks:

* Theorem 1 — All-Defect is a Nash equilibrium (under both mechanisms),
* Theorem 2 — All-Cooperate is NOT an equilibrium under the Foundation's
  stake-proportional sharing (prints the profitable deviation witness),
* Theorem 3 — with Algorithm 1's (alpha, beta, B_i), the cooperative
  profile IS an equilibrium, and stops being one if the reward is halved.

The round game is the runtime's :class:`repro.scenarios.dynamics.RoundGame`
over each scheme's pool tables.  Offline never beats Defect (Lemma 1, in
its weak form), so checking every player's switch to C and to D decides
each Nash question.  Exits 1 when a verdict differs from the paper's.

Usage::

    python examples/equilibrium_audit.py [--seed 42]
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core import IncentiveCompatibleSharing, MechanismReport, RoleCosts
from repro.core.rewards import RewardSchedule
from repro.scenarios.dynamics import RoundGame
from repro.schemes import SchemeSplit, resolve_scheme
from repro.schemes.deviation import COMMITTEE, LEADER, ONLINE, ROLE_NAMES, pool_tables
from repro.sim import SimulationConfig, make_simulation
from repro.sim.config import DEFAULT_T_STEP
from repro.sim.roles import RewardAllocation, RoleSnapshot

#: Gains up to this count as ties, not as profitable deviations.
TOLERANCE = 1e-15

#: Each check of :func:`audit`, in order, and whether the paper says its
#: profile is a Nash equilibrium.
PAPER_VERDICTS = {
    "Theorem 1 (All-Defect)": True,
    "Theorem 2 (All-Cooperate under Foundation)": False,
    "Theorem 3 at B_i": True,
    "Theorem 3 at B_i / 2": False,
}


class RecordRoles:
    """A reward mechanism that pays nothing and keeps each round's roles."""

    def __init__(self) -> None:
        self.snapshots: list = []

    def allocate(self, snapshot: RoleSnapshot) -> RewardAllocation:
        self.snapshots.append(snapshot)
        return RewardAllocation(per_node={}, total=0.0)


@dataclass(frozen=True)
class NashCheck:
    """Whether a profile is a Nash equilibrium, and its best deviation.

    The witness is the player with the largest unilateral gain (the
    lowest index among equals), the action it would switch to and what
    it gains; it is a profitable deviation only when ``holds`` is false.
    """

    holds: bool
    node: int
    role: str
    action: str
    gain: float


def role_layout(snapshot: RoleSnapshot) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The round's players as ``(stake, roles, sync)`` arrays.

    Leaders first, then committee members, then the other online nodes,
    each in the snapshot's order; every other online node is in the
    strong-synchrony set.
    """
    groups = (snapshot.leaders, snapshot.committee, snapshot.others)
    stake = np.array([s for group in groups for s in group.values()], dtype=np.float64)
    roles = np.repeat(
        np.array([LEADER, COMMITTEE, ONLINE], dtype=np.int8),
        [len(group) for group in groups],
    )
    return stake, roles, roles == ONLINE


def nash_check(game: RoundGame, roles: np.ndarray, actions: np.ndarray) -> NashCheck:
    """Exact Nash check of ``actions`` (0 = C, 1 = D) against C and D switches."""
    to_c, to_d = game.switch_payoffs(actions)
    gain = np.maximum(to_c, to_d) - game.payoffs(actions)
    node = int(np.argmax(gain))
    return NashCheck(
        holds=bool(np.all(gain <= TOLERANCE)),
        node=node,
        role=ROLE_NAMES[int(roles[node])],
        action="D" if to_d[node] > to_c[node] else "C",
        gain=float(gain[node]),
    )


def simulate_round(nodes: int, seed: int) -> RoleSnapshot:
    """One simulated round's realized roles (no reward is paid)."""
    roles = RecordRoles()
    simulation = make_simulation(
        SimulationConfig(
            n_nodes=nodes, seed=seed, tau_proposer=8.0, tau_step=30.0, tau_final=45.0
        ),
        mechanism=roles,
    )
    simulation.run_round()
    (snapshot,) = roles.snapshots
    return snapshot


def audit(
    snapshot: RoleSnapshot, costs: RoleCosts, b_i: float, report: MechanismReport
) -> Tuple[NashCheck, NashCheck, NashCheck, NashCheck]:
    """The four Nash checks behind Theorems 1-3, in :data:`PAPER_VERDICTS` order.

    All-Defect and All-Cooperate under Foundation sharing of ``b_i``, then
    the Theorem 3 profile under the role-based split of ``report`` at its
    ``B_i`` and at half of it.  Every other online node is in the
    synchrony set, so the Theorem 3 profile (leaders, committee and the
    synchrony set cooperate) is All-Cooperate.  The committee quorum is
    the protocol's step vote threshold, as in the paper's Definition 3.
    """
    layout = role_layout(snapshot)
    roles = layout[1]
    split = SchemeSplit(report.alpha, report.beta)
    all_cooperate = np.zeros(roles.size, dtype=np.int8)

    foundation = RoundGame(
        *layout, pool_tables(resolve_scheme("foundation"), split), b_i, costs, DEFAULT_T_STEP
    )
    role_tables = pool_tables(resolve_scheme("role_based"), split)

    def role_based(reward: float) -> NashCheck:
        game = RoundGame(*layout, role_tables, reward, costs, DEFAULT_T_STEP)
        return nash_check(game, roles, all_cooperate)

    return (
        nash_check(foundation, roles, np.ones_like(all_cooperate)),
        nash_check(foundation, roles, all_cooperate),
        role_based(report.b_i),
        role_based(report.b_i * 0.5),
    )


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
    snapshot = simulate_round(args.nodes, args.seed)
    print(
        f"realized roles: {len(snapshot.leaders)} leaders, "
        f"{len(snapshot.committee)} committee members, "
        f"{len(snapshot.others)} other online nodes\n"
    )
    b_i = RewardSchedule().per_round_reward(1)  # 20 Algos
    report = IncentiveCompatibleSharing(costs=costs, margin=0.01).compute_parameters(
        snapshot
    )
    checks = audit(snapshot, costs, b_i, report)
    all_defect, all_cooperate, funded, starved = checks

    # --- Theorems 1 and 2 under the Foundation mechanism -------------------
    print(f"Theorem 1  All-Defect is a Nash equilibrium:      {all_defect.holds}")
    print(f"Theorem 2  All-Cooperate fails under Foundation:  {not all_cooperate.holds}")
    if not all_cooperate.holds:
        print(
            f"           witness: {all_cooperate.role} node {all_cooperate.node} "
            f"gains {all_cooperate.gain:.2e} Algos by playing "
            f"{all_cooperate.action} (cost saved, reward kept)"
        )

    # --- Theorem 3 under Algorithm 1 ----------------------------------------
    print(
        f"\nAlgorithm 1 output: alpha={report.alpha:.2e}, beta={report.beta:.2e}, "
        f"gamma={report.gamma:.4f}, B_i={report.b_i:.4f} Algos "
        f"(vs Foundation's {b_i:.0f})"
    )
    print(f"Theorem 3  cooperation is an equilibrium at B_i:  {funded.holds}")
    print(f"           ... and breaks at B_i / 2:             {not starved.holds}")
    if not starved.holds:
        print(
            f"           witness: {starved.role} node {starved.node} "
            f"would defect, gaining {starved.gain:.2e} Algos"
        )

    wrong = [
        name
        for (name, verdict), check in zip(PAPER_VERDICTS.items(), checks)
        if check.holds is not verdict
    ]
    if wrong:
        raise SystemExit(f"verdicts differ from the paper's: {', '.join(wrong)}")


if __name__ == "__main__":
    main()
