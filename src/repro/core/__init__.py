"""The paper's contribution: costs, reward mechanisms and their bounds.

Public surface:

* :class:`TaskCosts` / :class:`RoleCosts` — the cost model (Table II).
* :class:`RewardSchedule`, :class:`FoundationRewardPool` — Table III and
  the 1.75B-Algo pool machinery.
* :class:`FoundationSharing` — the Foundation's stake-proportional baseline.
* :class:`RoleBasedSharing` — the paper's fixed (alpha, beta, gamma) split.
* :class:`IncentiveCompatibleSharing` — Algorithm 1 (adaptive optimal split).
* :mod:`repro.core.bounds` / :mod:`repro.core.optimizer` — Lemma 2 /
  Theorem 3 bounds and their minimization.

The round game G_Al / G_Al+ runs on array pool tables
(:class:`repro.scenarios.dynamics.RoundGame`); its scalar reading, the
Nash checks and Theorems 1-3 as checks are the test suite's oracle
(``tests/scalar_game``).
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
    "foundation": ("FoundationSharing",),
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
