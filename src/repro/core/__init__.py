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

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "bounds": (
        "RewardBounds",
        "RoleAggregates",
        "minimum_feasible_reward",
        "paper_aggregates",
        "reward_bounds",
    ),
    "costs": ("MICRO_ALGO", "RoleCosts", "TaskCosts"),
    "fees": ("FeeFundedSharing",),
    "equilibrium": (
        "Deviation",
        "NashResult",
        "best_response",
        "is_nash_equilibrium",
        "lemma1_offline_dominated",
        "theorem1_all_defection_ne",
        "theorem2_all_cooperation_not_ne",
        "theorem3_equilibrium",
    ),
    "foundation": ("FoundationSharing",),
    "game": (
        "AlgorandGame",
        "BlockSuccessModel",
        "FoundationRule",
        "Player",
        "PlayerRole",
        "RoleBasedRule",
        "Strategy",
        "all_cooperate",
        "all_defect",
        "theorem3_profile",
        "with_deviation",
    ),
    "mechanism": ("IncentiveCompatibleSharing", "MechanismReport"),
    "optimizer": (
        "GridSearchResult",
        "OptimalSplit",
        "minimize_reward_analytic",
        "minimize_reward_grid",
    ),
    "rewards": (
        "FOUNDATION_CEILING_ALGOS",
        "PROJECTED_REWARDS_MILLIONS",
        "REWARD_PERIOD_BLOCKS",
        "FoundationRewardPool",
        "RewardSchedule",
        "TransactionFeePool",
    ),
    "role_based": ("RoleBasedSharing",),
})
