"""Incentive lower bounds on the per-round reward (Lemma 2, Theorem 3).

Under role-based sharing with split ``(alpha, beta, gamma)``, cooperation
is a best response for every role iff the per-round reward ``B_i`` exceeds
three bounds (paper Theorem 3):

* **leader bound** (Lemma 2, Eq. 6)::

      B_i > (c_L - c_so) / ((alpha/S_L - gamma/(S_K + s*_l)) * s*_l)

* **committee bound** (Lemma 2, Eq. 7)::

      B_i > (c_M - c_so) / ((beta/S_M - gamma/(S_K + s*_m)) * s*_m)

* **online bound** (Theorem 3, Eq. 10)::

      B_i > (c_K - c_so) * S_K / (s*_k * gamma)

where ``s*_l``, ``s*_m``, ``s*_k`` are the minimum stakes among leaders,
committee members, and strong-synchrony-set members, respectively.  The
leader and committee bounds are only meaningful when the feasibility
conditions of paper Eqs. 8 and 9 hold —

    alpha/S_L > gamma/(S_K + s*_l)   and   beta/S_M > gamma/(S_K + s*_m)

— i.e. when performing a role pays a strictly better per-stake rate than
sliding back into the online pool.  Infeasible splits yield an infinite
bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.core.costs import RoleCosts
from repro.errors import MechanismError

if TYPE_CHECKING:
    from repro.sim.roles import RoleSnapshot


@dataclass(frozen=True)
class RoleAggregates:
    """The sufficient statistics the bounds depend on.

    ``stake_*`` are the role stake totals S_L, S_M, S_K; ``min_*`` are the
    minimum stakes s*_l, s*_m, s*_k (the latter restricted to the strong
    synchrony set, hence the ``k_floor`` filter when building from data).
    """

    stake_leaders: float
    stake_committee: float
    stake_others: float
    min_leader: float
    min_committee: float
    min_other: float

    def __post_init__(self) -> None:
        for name in ("stake_leaders", "stake_committee", "stake_others"):
            if getattr(self, name) <= 0:
                raise MechanismError(f"{name} must be positive")
        for name, total in (
            ("min_leader", self.stake_leaders),
            ("min_committee", self.stake_committee),
            ("min_other", self.stake_others),
        ):
            value = getattr(self, name)
            if value <= 0:
                raise MechanismError(f"{name} must be positive")
            if value > total + 1e-9:
                raise MechanismError(f"{name}={value} exceeds its role total {total}")

    @property
    def stake_total(self) -> float:
        """S_N = S_L + S_M + S_K."""
        return self.stake_leaders + self.stake_committee + self.stake_others

    @staticmethod
    def from_snapshot(snapshot: RoleSnapshot, k_floor: float = 0.0) -> "RoleAggregates":
        """Build aggregates from a simulator role snapshot.

        ``k_floor`` implements the paper's s*_k >= 10 filter (Section V-A):
        strong-synchrony sets containing nodes below the floor are ignored.
        """
        min_leader = snapshot.min_leader_stake()
        min_committee = snapshot.min_committee_stake()
        min_other = snapshot.min_other_stake(floor=k_floor)
        if min_leader is None or min_committee is None or min_other is None:
            raise MechanismError(
                "snapshot must have at least one leader, one committee member "
                "and one eligible other node"
            )
        return RoleAggregates(
            stake_leaders=snapshot.stake_leaders,
            stake_committee=snapshot.stake_committee,
            stake_others=snapshot.stake_others,
            min_leader=min_leader,
            min_committee=min_committee,
            min_other=min_other,
        )

    @staticmethod
    def from_stake_population(
        stakes: Sequence[float],
        stake_leaders: float,
        stake_committee: float,
        min_leader: float = 1.0,
        min_committee: float = 1.0,
        k_floor: float = 0.0,
    ) -> "RoleAggregates":
        """Aggregates for a full-scale population (paper Section V-B setup).

        The paper fixes the *expected* role stakes (S_L = 26,
        S_M = 13,000 Algos) and treats everything else as the online pool
        S_K.  ``stakes`` is the full stake vector; nodes below ``k_floor``
        are excluded from the synchrony-set minimum (but still hold stake
        in S_K's complement — following the paper, S_K is the total stake
        minus the role stakes).
        """
        total = float(sum(stakes))
        stake_others = total - stake_leaders - stake_committee
        if stake_others <= 0:
            raise MechanismError(
                "role stakes exceed the total population stake: "
                f"total={total}, S_L={stake_leaders}, S_M={stake_committee}"
            )
        eligible = [s for s in stakes if s >= k_floor]
        if not eligible:
            raise MechanismError(f"no stakes at or above the k_floor {k_floor}")
        return RoleAggregates(
            stake_leaders=stake_leaders,
            stake_committee=stake_committee,
            stake_others=stake_others,
            min_leader=min_leader,
            min_committee=min_committee,
            min_other=min(eligible),
        )


@dataclass(frozen=True)
class RewardBounds:
    """The three Theorem 3 bounds for one ``(alpha, beta)`` split."""

    alpha: float
    beta: float
    leader: float
    committee: float
    online: float

    @property
    def gamma(self) -> float:
        """The residual online-pool share ``1 - alpha - beta``."""
        return 1.0 - self.alpha - self.beta

    @property
    def overall(self) -> float:
        """min B_i sustaining cooperation: the max of the three bounds."""
        return max(self.leader, self.committee, self.online)

    @property
    def binding(self) -> str:
        """Which constraint binds: ``'leader'``, ``'committee'`` or ``'online'``."""
        values = {
            "leader": self.leader,
            "committee": self.committee,
            "online": self.online,
        }
        return max(values, key=lambda key: (values[key], key))

    @property
    def feasible(self) -> bool:
        """Whether some finite reward sustains cooperation at this split."""
        return math.isfinite(self.overall)


def leader_bound(
    costs: RoleCosts, aggregates: RoleAggregates, alpha: float, gamma: float
) -> float:
    """Lemma 2's leader deviation bound (paper Eq. 6); inf when infeasible."""
    margin = alpha / aggregates.stake_leaders - gamma / (
        aggregates.stake_others + aggregates.min_leader
    )
    if margin <= 0:
        return math.inf  # feasibility condition Eq. 8 violated
    return (costs.leader - costs.sortition) / (margin * aggregates.min_leader)


def committee_bound(
    costs: RoleCosts, aggregates: RoleAggregates, beta: float, gamma: float
) -> float:
    """Lemma 2's committee deviation bound (paper Eq. 7); inf when infeasible."""
    margin = beta / aggregates.stake_committee - gamma / (
        aggregates.stake_others + aggregates.min_committee
    )
    if margin <= 0:
        return math.inf  # feasibility condition Eq. 9 violated
    return (costs.committee - costs.sortition) / (margin * aggregates.min_committee)


def online_bound(costs: RoleCosts, aggregates: RoleAggregates, gamma: float) -> float:
    """Theorem 3's strong-synchrony-set bound (paper Eq. 10); inf at gamma=0."""
    if gamma <= 0:
        return math.inf
    return (
        (costs.online - costs.sortition)
        * aggregates.stake_others
        / (aggregates.min_other * gamma)
    )


def reward_bounds(
    costs: RoleCosts, aggregates: RoleAggregates, alpha: float, beta: float
) -> RewardBounds:
    """All three Theorem 3 bounds for a given split."""
    if alpha <= 0 or beta <= 0 or alpha + beta >= 1:
        raise MechanismError(
            f"(alpha, beta) = ({alpha}, {beta}) is not a valid split"
        )
    gamma = 1.0 - alpha - beta
    return RewardBounds(
        alpha=alpha,
        beta=beta,
        leader=leader_bound(costs, aggregates, alpha, gamma),
        committee=committee_bound(costs, aggregates, beta, gamma),
        online=online_bound(costs, aggregates, gamma),
    )


def minimum_feasible_reward(
    costs: RoleCosts, aggregates: RoleAggregates, alpha: float, beta: float
) -> float:
    """min B_i for one split — the quantity Figure 5 sweeps over (alpha, beta)."""
    return reward_bounds(costs, aggregates, alpha, beta).overall


def paper_aggregates(
    stakes: Sequence[float],
    k_floor: float = 10.0,
    stake_leaders: float = 26.0,
    stake_committee: float = 13_000.0,
    min_leader: float = 1.0,
    min_committee: float = 1.0,
) -> RoleAggregates:
    """The paper's Section V evaluation setup in one call.

    S_L = 26 (tau_PROPOSER expected stake), S_M = S_STEP*(2+1) + S_FINAL =
    13,000 Algos, s*_l = s*_m = 1 (paper Section V-A).

    ``k_floor`` follows the paper's two regimes:

    * ``k_floor > 0`` (Section V-A numerical analysis): "we assume that the
      minimum acceptable values of stakes ... s*_k = 10 Algos" — the bound
      is computed *at* the floor, i.e. ``s*_k = k_floor``.  This is the
      conservative reading: a synchrony-set member's stake may shrink to
      the floor through transactions, and the reward must still hold.
    * ``k_floor == 0`` (Figures 6/7 regime): ``s*_k`` is the true
      population minimum, which is what makes the U_w(1, 200) truncation
      experiment of Figure 7(c) lower the required reward.

    This is the per-round hot path of the Figure 6/7 experiments (one call
    per simulated round over a 500k-node stake vector), so the reduction
    runs vectorized in numpy; the test suite keeps the original
    pure-Python reduction as its correctness oracle.
    """
    population = np.asarray(stakes, dtype=float)
    total = float(population.sum())
    stake_others = total - stake_leaders - stake_committee
    if stake_others <= 0:
        raise MechanismError(
            "role stakes exceed the total population stake: "
            f"total={total}, S_L={stake_leaders}, S_M={stake_committee}"
        )
    if k_floor > 0:
        if not population.size or float(population.max()) < k_floor:
            raise MechanismError(f"no stakes at or above the k_floor {k_floor}")
        min_other = k_floor
    else:
        min_other = float(population.min())
    return RoleAggregates(
        stake_leaders=stake_leaders,
        stake_committee=stake_committee,
        stake_others=stake_others,
        min_leader=min_leader,
        min_committee=min_committee,
        min_other=min_other,
    )


def feasibility_conditions(
    aggregates: RoleAggregates, alpha: float, beta: float
) -> Optional[str]:
    """Check paper Eqs. 8 and 9; return a description of the violation, if any."""
    gamma = 1.0 - alpha - beta
    if alpha / aggregates.stake_leaders <= gamma / (
        aggregates.stake_others + aggregates.min_leader
    ):
        return (
            "leader feasibility (Eq. 8) violated: the leader slice pays no "
            "better than the online pool"
        )
    if beta / aggregates.stake_committee <= gamma / (
        aggregates.stake_others + aggregates.min_committee
    ):
        return (
            "committee feasibility (Eq. 9) violated: the committee slice pays "
            "no better than the online pool"
        )
    return None
