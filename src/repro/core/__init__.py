"""The paper's contribution: costs, reward mechanisms, game, equilibria.

Public surface:

* :class:`TaskCosts` / :class:`RoleCosts` — the cost model (Table II).
* :class:`RewardSchedule`, :class:`FoundationRewardPool` — Table III and
  the 1.75B-Algo pool machinery.
* :class:`FoundationSharing` — the Foundation's stake-proportional baseline.
* :class:`RoleBasedSharing` — the paper's fixed (alpha, beta, gamma) split.
* :class:`IncentiveCompatibleSharing` — Algorithm 1 (adaptive optimal split).
* :mod:`repro.core.bounds` / :mod:`repro.core.optimizer` — Lemma 2 /
  Theorem 3 bounds and their minimization.
* :mod:`repro.core.game` / :mod:`repro.core.equilibrium` — G_Al, G_Al+,
  Nash checks and executable theorems.
"""

from repro.core.bounds import (
    RewardBounds,
    RoleAggregates,
    minimum_feasible_reward,
    paper_aggregates,
    reward_bounds,
)
from repro.core.costs import MICRO_ALGO, RoleCosts, TaskCosts
from repro.core.dynamics import (
    BestResponseDynamics,
    DynamicsResult,
    random_profile,
)
from repro.core.fees import FeeFundedSharing
from repro.core.equilibrium import (
    Deviation,
    NashResult,
    best_response,
    is_nash_equilibrium,
    lemma1_offline_dominated,
    theorem1_all_defection_ne,
    theorem2_all_cooperation_not_ne,
    theorem3_equilibrium,
)
from repro.core.foundation import FoundationSharing
from repro.core.game import (
    AlgorandGame,
    BlockSuccessModel,
    FoundationRule,
    Player,
    PlayerRole,
    RoleBasedRule,
    Strategy,
    all_cooperate,
    all_defect,
    theorem3_profile,
    with_deviation,
)
from repro.core.mechanism import IncentiveCompatibleSharing, MechanismReport
from repro.core.optimizer import (
    GridSearchResult,
    OptimalSplit,
    minimize_reward_analytic,
    minimize_reward_grid,
)
from repro.core.rewards import (
    FOUNDATION_CEILING_ALGOS,
    PROJECTED_REWARDS_MILLIONS,
    REWARD_PERIOD_BLOCKS,
    FoundationRewardPool,
    RewardSchedule,
    TransactionFeePool,
)
from repro.core.role_based import RoleBasedSharing

__all__ = [
    "AlgorandGame",
    "BestResponseDynamics",
    "BlockSuccessModel",
    "Deviation",
    "DynamicsResult",
    "FeeFundedSharing",
    "FOUNDATION_CEILING_ALGOS",
    "FoundationRewardPool",
    "FoundationRule",
    "FoundationSharing",
    "GridSearchResult",
    "IncentiveCompatibleSharing",
    "MICRO_ALGO",
    "MechanismReport",
    "NashResult",
    "OptimalSplit",
    "PROJECTED_REWARDS_MILLIONS",
    "Player",
    "PlayerRole",
    "REWARD_PERIOD_BLOCKS",
    "RewardBounds",
    "RewardSchedule",
    "RoleAggregates",
    "RoleBasedRule",
    "RoleBasedSharing",
    "RoleCosts",
    "Strategy",
    "TaskCosts",
    "TransactionFeePool",
    "all_cooperate",
    "all_defect",
    "best_response",
    "is_nash_equilibrium",
    "lemma1_offline_dominated",
    "minimize_reward_analytic",
    "minimize_reward_grid",
    "minimum_feasible_reward",
    "paper_aggregates",
    "random_profile",
    "reward_bounds",
    "theorem1_all_defection_ne",
    "theorem2_all_cooperation_not_ne",
    "theorem3_equilibrium",
    "theorem3_profile",
    "with_deviation",
]
