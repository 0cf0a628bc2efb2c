#!/usr/bin/env python3
"""Quickstart: simulate an Algorand network with adaptive reward sharing.

Runs a small Algorand network for a few rounds under Algorithm 1 (the
paper's incentive-compatible role-based mechanism), printing per-round
consensus outcomes and the reward parameters the Foundation would announce.

Usage::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.analysis.plotting import format_table
from repro.core import IncentiveCompatibleSharing
from repro.sim import SimulationConfig, make_simulation


def main() -> None:
    config = SimulationConfig(
        n_nodes=60,
        seed=42,
        tau_proposer=8.0,
        tau_step=60.0,
        tau_final=80.0,
        defection_rate=0.05,  # a few honest-but-selfish nodes defect
    )
    mechanism = IncentiveCompatibleSharing(on_infeasible="skip")
    simulation = make_simulation(config, mechanism=mechanism)

    print(f"Simulating {config.n_nodes} nodes, 5% defection, 8 rounds ...\n")
    metrics = simulation.run(8)

    rows = []
    for record in metrics.records:
        rows.append(
            (
                record.round_index,
                record.authoritative_label.value,
                f"{record.fraction_final:.2f}",
                f"{record.fraction_tentative:.2f}",
                f"{record.fraction_none:.2f}",
                record.n_leaders,
                f"{record.reward_total:.4f}",
                f"{record.reward_params.get('alpha', 0):.2e}",
                f"{record.reward_params.get('beta', 0):.2e}",
            )
        )
    print(
        format_table(
            ("round", "outcome", "final", "tent", "none", "leaders", "B_i",
             "alpha", "beta"),
            rows,
            title="Per-round consensus outcomes and Algorithm 1 parameters",
        )
    )

    print()
    print(f"chain height:        {simulation.authoritative.height}")
    print(f"final blocks:        {simulation.authoritative.final_height()}")
    print(f"total rewards paid:  {metrics.total_rewards():.4f} Algos")

    earned = simulation.rewards_received
    richest = max(range(config.n_nodes), key=earned.__getitem__)
    print(
        f"top earner:          node {richest} "
        f"(stake {simulation.stakes[richest]:.1f}, "
        f"earned {earned[richest]:.6f} Algos)"
    )


if __name__ == "__main__":
    main()
