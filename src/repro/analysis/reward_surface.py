"""Figure 5: the minimum-reward surface over the (alpha, beta) grid.

Reproduces the paper's Section V-A numerical analysis: with the cost
aggregates c_L = 16, c_M = 12, c_K = 6, c_so = 5 micro-Algos, fixed minimum
stakes s*_l = s*_m = 1 and s*_k = 10, and the Section V-B network (500k
nodes holding 50M Algos, S_L = 26, S_M = 13,000), sweep (alpha, beta) and
record the minimum feasible B_i at every grid point.

Paper result: the minimum is ~5.2 Algos at (alpha, beta) = (0.02, 0.03) —
the third (online) bound dominates, so B_i is minimized by maximizing gamma.

The surface is a few hundred closed-form evaluations of the bound, a few
milliseconds of work, so it runs in-process through
:func:`repro.core.optimizer.minimize_reward_grid`; unlike Figures 3, 6 and
7(c) it takes no workers and no shard cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import plotting
from repro.analysis.csvio import PathLike, write_rows
from repro.core.bounds import RoleAggregates, paper_aggregates, reward_bounds
from repro.core.costs import RoleCosts
from repro.core.optimizer import (
    GridSearchResult,
    OptimalSplit,
    minimize_reward_analytic,
    minimize_reward_grid,
)
from repro.stakes.distributions import truncated_normal


@dataclass(frozen=True)
class RewardSurfaceConfig:
    """Parameters of the Figure 5 sweep (defaults = the paper's setup)."""

    n_nodes: int = 500_000
    total_stake: float = 50_000_000.0
    stake_mean: float = 100.0
    stake_std: float = 10.0
    k_floor: float = 10.0
    seed: int = 5
    alphas: Optional[Sequence[float]] = None
    betas: Optional[Sequence[float]] = None


@dataclass
class RewardSurfaceResult:
    """The Figure 5 artifact: surface, argmin, and the analytic optimum."""

    config: RewardSurfaceConfig
    aggregates: RoleAggregates
    grid: GridSearchResult
    analytic: OptimalSplit

    @property
    def best(self) -> OptimalSplit:
        """The grid point minimizing the required reward B_i."""
        return self.grid.best

    def binding_bound(self) -> str:
        """Which Theorem 3 bound binds at the grid optimum."""
        costs = RoleCosts.paper_defaults()
        return reward_bounds(
            costs, self.aggregates, self.best.alpha, self.best.beta
        ).binding

    def render(self) -> str:
        """ASCII heat map of B_i over the (alpha, beta) grid (Figure 5)."""
        table = plotting.surface_table(
            row_labels=list(self.grid.alphas),
            col_labels=list(self.grid.betas),
            surface=self.grid.surface.tolist(),
            title="Figure 5 — minimum B_i over (alpha, beta)   [rows: alpha, cols: beta]",
        )
        lines = [
            table,
            "",
            (
                f"grid minimum:    B_i = {self.best.b_i:.4f} Algos at "
                f"(alpha, beta) = ({self.best.alpha:.3g}, {self.best.beta:.3g})"
            ),
            (
                f"analytic bound:  B_i = {self.analytic.b_i:.4f} Algos at "
                f"(alpha, beta) = ({self.analytic.alpha:.3g}, {self.analytic.beta:.3g})"
            ),
            f"binding constraint at the grid optimum: {self.binding_bound()}",
            "paper reference: B_i ≈ 5.2 Algos at (alpha, beta) = (0.02, 0.03)",
        ]
        return "\n".join(lines)

    def to_csv(self, path: PathLike) -> None:
        """Write one row per (alpha, beta) grid point as CSV."""
        write_rows(path, ("alpha", "beta", "min_b_i"), self.grid.surface_rows())

    def summary_rows(self) -> List[Tuple[str, float, float, float]]:
        """(method, alpha, beta, B_i) rows for the benchmark harness."""
        return [
            ("grid", self.best.alpha, self.best.beta, self.best.b_i),
            ("analytic", self.analytic.alpha, self.analytic.beta, self.analytic.b_i),
        ]


def run_reward_surface(
    config: RewardSurfaceConfig = RewardSurfaceConfig(),
) -> RewardSurfaceResult:
    """Run the Figure 5 sweep: sample the population, then grid-search and
    solve the Theorem 3 bound at the paper's costs."""
    distribution = truncated_normal(config.stake_mean, config.stake_std)
    stakes = distribution.sample_total(config.n_nodes, config.total_stake, config.seed)
    aggregates = paper_aggregates(np.asarray(stakes), k_floor=config.k_floor)
    costs = RoleCosts.paper_defaults()
    return RewardSurfaceResult(
        config=config,
        aggregates=aggregates,
        grid=minimize_reward_grid(costs, aggregates, config.alphas, config.betas),
        analytic=minimize_reward_analytic(costs, aggregates),
    )
