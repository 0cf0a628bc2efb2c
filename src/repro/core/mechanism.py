"""Algorithm 1: the incentive-compatible adaptive reward-sharing mechanism.

At the end of each round the Foundation (paper Section IV-D):

1. computes the role stake totals ``S_L``, ``S_M``, ``S_K`` and the minimum
   stakes ``s*_l``, ``s*_m``, ``s*_k`` from the round's role assignment,
2. finds the ``(alpha, beta)`` minimizing the per-round reward ``B_i``
   subject to the Theorem 3 bounds,
3. announces the split and distributes ``B_i`` (plus a strictness margin,
   since the bounds are strict inequalities) role-by-stake via Eq. 5.

Because nodes know this computation runs every round, no node can profit
from a unilateral deviation — the mechanism is strategy-proof for the
cooperative profile of Theorem 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.bounds import RoleAggregates
from repro.core.costs import RoleCosts
from repro.core.optimizer import minimize_reward_analytic
from repro.core.role_based import allocate_role_based
from repro.errors import InfeasibleRewardError, MechanismError
from repro.sim.roles import RewardAllocation, RoleSnapshot


@dataclass(frozen=True)
class MechanismReport:
    """One round's Algorithm 1 outcome, for logging and experiments."""

    round_index: int
    alpha: float
    beta: float
    gamma: float
    b_i: float
    bound: float
    stake_leaders: float
    stake_committee: float
    stake_others: float


class IncentiveCompatibleSharing:
    """Adaptive role-based reward sharing (Algorithm 1).

    Parameters
    ----------
    costs:
        The per-role cost aggregates (defaults to the paper's Section V-A
        values).
    k_floor:
        Minimum stake for strong-synchrony-set membership, the paper's
        ``s*_k`` filter.  ``0`` uses the true population minimum (the
        Figure 6/7 regime); ``10`` reproduces the Section V-A numerical
        analysis.
    margin:
        Relative amount added above the strict Theorem 3 bound, so the
        distributed ``B_i`` satisfies the strict inequalities.
    on_infeasible:
        ``"raise"`` or ``"skip"``; collapsed rounds without a performing
        leader or committee cannot be rewarded coherently — ``"skip"``
        returns an empty allocation instead of raising, which keeps long
        simulations with defection running.
    """

    name = "incentive_compatible"

    def __init__(
        self,
        costs: Optional[RoleCosts] = None,
        k_floor: float = 0.0,
        margin: float = 1e-6,
        on_infeasible: str = "raise",
    ) -> None:
        if on_infeasible not in ("raise", "skip"):
            raise MechanismError(f"unknown on_infeasible policy {on_infeasible!r}")
        if margin < 0:
            raise MechanismError(f"margin must be >= 0, got {margin}")
        if k_floor < 0:
            raise MechanismError(f"k_floor must be >= 0, got {k_floor}")
        self.costs = costs if costs is not None else RoleCosts.paper_defaults()
        self.k_floor = k_floor
        self.margin = margin
        self.on_infeasible = on_infeasible
        self.reports: list[MechanismReport] = []

    # -- Algorithm 1 -----------------------------------------------------------

    def compute_parameters(self, snapshot: RoleSnapshot) -> MechanismReport:
        """Lines 1-13 of Algorithm 1: stakes, minima, optimal (alpha, beta, B_i)."""
        aggregates = RoleAggregates.from_snapshot(snapshot, k_floor=self.k_floor)
        split = minimize_reward_analytic(self.costs, aggregates)
        b_i = split.b_i * (1.0 + self.margin)
        return MechanismReport(
            round_index=snapshot.round_index,
            alpha=split.alpha,
            beta=split.beta,
            gamma=split.gamma,
            b_i=b_i,
            bound=split.b_i,
            stake_leaders=aggregates.stake_leaders,
            stake_committee=aggregates.stake_committee,
            stake_others=aggregates.stake_others,
        )

    # -- RewardMechanism interface ------------------------------------------------

    def allocate(self, snapshot: RoleSnapshot) -> RewardAllocation:
        """Run Algorithm 1 for the round and distribute the optimal reward."""
        try:
            report = self.compute_parameters(snapshot)
        except (MechanismError, InfeasibleRewardError):
            if self.on_infeasible == "raise":
                raise
            return RewardAllocation(per_node={}, total=0.0, params={"skipped": 1.0})
        self.reports.append(report)
        allocation = allocate_role_based(
            snapshot, report.alpha, report.beta, report.b_i
        )
        params: Dict[str, float] = dict(allocation.params)
        params["bound"] = report.bound
        return RewardAllocation(
            per_node=allocation.per_node, total=allocation.total, params=params
        )
