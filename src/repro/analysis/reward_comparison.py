"""Figures 6 and 7: adaptive reward distributions vs the Foundation schedule.

**Figure 6** — for each stake distribution (U(1,200), N(100,20), N(100,10),
N(2000,25)) run repeated simulation instances; in each instance the
synthetic exchange churns stakes for a number of rounds and Algorithm 1
computes the round's minimal incentive-compatible reward ``B_i``.  The
figure is the distribution (histogram) of those ``B_i`` values.

**Figure 7(a)** — per-round reward: Algorithm 1's adaptive ``B_i`` per
distribution vs the Foundation's ~20 Algos (Table III period 1).

**Figure 7(b)** — accumulated rewards over the full reward-period horizon:
the Foundation schedule ramps 10M -> 38M Algos per period while the
adaptive mechanism stays flat ("our proposal will not increase the reward
till 6 millions blocks generation").

**Figure 7(c)** — accumulated rewards when small-stake nodes are removed
from the rewarded set: U_3 / U_5 / U_7 (1, 200); the required reward drops
monotonically with the removal threshold ``w``.

These experiments run at the paper's full scale (500k nodes) because they
are analytic in the stake vector — no event simulation is involved.  Both
run the paper's stake distributions and costs as one shard per instance
through the sweep orchestrator (:func:`fig6_sweep_spec`,
:func:`fig7c_sweep_spec`), so ``workers`` and ``cache_dir`` apply and the
merged results are bit-identical at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis import plotting, stats
from repro.analysis.csvio import PathLike, write_rows
from repro.analysis.orchestrator import run_sweep
from repro.analysis.retry import ExecutionPolicy
from repro.analysis.sweep import SweepSpec
from repro.core.bounds import paper_aggregates
from repro.core.costs import RoleCosts
from repro.core.optimizer import minimize_reward_analytic
from repro.core.rewards import RewardSchedule
from repro.errors import ConfigurationError
from repro.sim.rng import derive_seed
from repro.stakes.distributions import paper_distributions
from repro.stakes.exchange import ExchangeSimulator

#: Total network stake per distribution (paper Section V-B: 50M Algos for
#: the initial-phase distributions; N(2000,25) models the >1B-Algo network).
PAPER_TOTALS: Dict[str, float] = {
    "U(1,200)": 50_000_000.0,
    "N(100,20)": 50_000_000.0,
    "N(100,10)": 50_000_000.0,
    "N(2000,25)": 1_000_000_000.0,
}

#: Figure 7(c)'s small-stake removal thresholds ``w``; 0 is the untruncated
#: U(1,200) baseline.
FIG7C_THRESHOLDS: Tuple[float, ...] = (0.0, 3.0, 5.0, 7.0)

#: The paper's population size; totals scale linearly when experiments run
#: with fewer nodes so per-node stakes keep the paper's distribution.
PAPER_N_NODES = 500_000


@dataclass(frozen=True)
class RewardComparisonConfig:
    """Parameters of the Figure 6 / 7 experiments.

    The paper runs 200 instances of 10 rounds each; the defaults are
    smaller for benchmark turnaround — raise ``n_instances`` to 200 for
    publication-grade histograms.
    """

    n_nodes: int = 500_000
    n_instances: int = 20
    n_rounds: int = 10
    seed: int = 7
    k_floor: float = 0.0
    picks_per_round: int = 1000
    totals: Dict[str, float] = field(default_factory=lambda: dict(PAPER_TOTALS))

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ConfigurationError("n_nodes must be >= 2")
        if self.n_instances < 1 or self.n_rounds < 1:
            raise ConfigurationError("n_instances and n_rounds must be >= 1")


@dataclass
class DistributionRewards:
    """All computed ``B_i`` values for one stake distribution."""

    name: str
    rewards: List[float]  # one per (instance, round)
    per_round_mean: List[float]  # averaged over instances, indexed by round

    def summary(self) -> Dict[str, float]:
        """Summary statistics of the final cumulative rewards."""
        return stats.summary(self.rewards)

    def mean(self) -> float:
        """Mean final cumulative reward across sampled nodes."""
        return stats.mean(self.rewards)


@dataclass
class RewardComparisonResult:
    """Figures 6 and 7(a)/(b) in data form."""

    config: RewardComparisonConfig
    distributions: Dict[str, DistributionRewards] = field(default_factory=dict)
    schedule: RewardSchedule = field(default_factory=RewardSchedule)

    # -- Figure 6 -------------------------------------------------------------

    def histogram(self, name: str, bins: int = 12) -> Tuple[List[float], List[int]]:
        """Reward histogram (bin edges, counts) for one distribution."""
        data = self._get(name)
        return stats.histogram(data.rewards, bins=bins)

    def render_figure6(self) -> str:
        """ASCII rendition of Figure 6 (reward distributions)."""
        panels = []
        for name, data in self.distributions.items():
            edges, counts = self.histogram(name)
            summary = data.summary()
            panels.append(
                plotting.histogram_chart(
                    edges,
                    counts,
                    title=(
                        f"Figure 6 — B_i distribution for {name} "
                        f"(mean {summary['mean']:.2f}, std {summary['std']:.2f} Algos)"
                    ),
                )
            )
        return "\n\n".join(panels)

    # -- Figure 7(a): per-round rewards -----------------------------------------

    def figure7a_series(self) -> Dict[str, List[float]]:
        """Per-round mean reward series, ours vs Foundation, per distribution."""
        series = {
            f"ours {name}": data.per_round_mean
            for name, data in self.distributions.items()
        }
        series["foundation"] = list(
            self.schedule.per_round_rewards(np.arange(1, self.config.n_rounds + 1))
        )
        return series

    def render_figure7a(self) -> str:
        """ASCII rendition of Figure 7(a) (per-round reward trajectories)."""
        return plotting.line_chart(
            self.figure7a_series(),
            title="Figure 7(a) — per-round reward: adaptive (ours) vs Foundation",
            height=12,
        )

    # -- Figure 7(b): accumulated rewards over the schedule horizon ----------------

    def figure7b_series(
        self, horizon_rounds: int = 6_000_000, n_points: int = 24
    ) -> Tuple[List[int], Dict[str, List[float]]]:
        """Cumulative Algos disbursed at sampled round counts."""
        if horizon_rounds < 1 or n_points < 2:
            raise ConfigurationError("horizon_rounds >= 1 and n_points >= 2 required")
        xs = [
            max(1, int(round(i * horizon_rounds / (n_points - 1))))
            for i in range(n_points)
        ]
        series: Dict[str, List[float]] = {
            "foundation": list(self.schedule.cumulative_rewards(xs))
        }
        for name, data in self.distributions.items():
            rate = data.mean()  # flat: the mechanism does not ramp with periods
            series[f"ours {name}"] = [rate * x for x in xs]
        return xs, series

    def render_figure7b(self) -> str:
        """ASCII rendition of Figure 7(b) (cumulative reward trajectories)."""
        xs, series = self.figure7b_series()
        chart = plotting.line_chart(
            series,
            title="Figure 7(b) — accumulated rewards over the schedule horizon",
            height=12,
        )
        return chart + f"\n    x-axis: rounds 1 .. {xs[-1]:,}"

    # -- export ----------------------------------------------------------------------

    def summary_rows(self) -> List[Tuple[str, float, float, float, float]]:
        """(distribution, mean, std, min, max) of B_i — the Figure 6 table."""
        rows = []
        for name, data in self.distributions.items():
            summary = data.summary()
            rows.append(
                (name, summary["mean"], summary["std"], summary["min"], summary["max"])
            )
        return rows

    def to_csv(self, path: PathLike) -> None:
        """Write per-(distribution, node) final rewards as CSV."""
        rows = []
        for name, data in self.distributions.items():
            for index, value in enumerate(data.rewards):
                instance, round_index = divmod(index, self.config.n_rounds)
                rows.append((name, instance, round_index + 1, value))
        write_rows(path, ("distribution", "instance", "round", "b_i"), rows)

    def _get(self, name: str) -> DistributionRewards:
        try:
            return self.distributions[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown distribution {name!r}; have {sorted(self.distributions)}"
            ) from None


def compute_instance_rewards(
    stakes: np.ndarray,
    costs: RoleCosts,
    config: RewardComparisonConfig,
    instance_seed: int,
    k_floor: Optional[float] = None,
) -> List[float]:
    """One simulation instance: churn the stakes, run Algorithm 1 per round."""
    exchange = ExchangeSimulator(
        stakes,
        picks_per_round=config.picks_per_round,
        seed=instance_seed,
    )
    rewards: List[float] = []
    floor = config.k_floor if k_floor is None else k_floor
    for _ in range(config.n_rounds):
        exchange.step()
        aggregates = paper_aggregates(exchange.stakes, k_floor=floor)
        rewards.append(minimize_reward_analytic(costs, aggregates).b_i)
    return rewards


def fig6_sweep_spec(config: RewardComparisonConfig) -> SweepSpec:
    """The Figure 6/7 campaign: one shard per (distribution, instance)."""
    scale = config.n_nodes / PAPER_N_NODES
    totals = {
        name: (total * scale if total is not None else None)
        for name, total in config.totals.items()
    }
    return SweepSpec(
        name="fig6",
        grid={
            "distribution": list(paper_distributions()),
            "instance": list(range(config.n_instances)),
        },
        base={
            "n_nodes": config.n_nodes,
            "n_rounds": config.n_rounds,
            "seed": config.seed,
            "k_floor": config.k_floor,
            "picks_per_round": config.picks_per_round,
            "totals": totals,
        },
        root_seed=config.seed,
    )


def _fig6_instance_config(params: Mapping[str, Any]) -> RewardComparisonConfig:
    return RewardComparisonConfig(
        n_nodes=params["n_nodes"],
        n_instances=1,
        n_rounds=params["n_rounds"],
        seed=params["seed"],
        k_floor=params.get("k_floor", 0.0),
        picks_per_round=params["picks_per_round"],
    )


def _fig6_shard(params: Mapping[str, Any], _seed: int) -> List[float]:
    """One Figure 6 shard: a single (distribution, instance) reward series.

    Instance seeds keep the experiment's historical derivation
    (``derive_seed(seed, "fig6:<name>:<instance>")``) so shard results are
    bit-identical to the original serial loop at any worker count.
    """
    name = params["distribution"]
    config = _fig6_instance_config(params)
    costs = RoleCosts.paper_defaults()
    distribution = paper_distributions()[name]
    total = params["totals"].get(name)
    seed = derive_seed(config.seed, f"fig6:{name}:{params['instance']}") % 2**31
    if total is not None:
        stakes = distribution.sample_total(config.n_nodes, total, seed)
    else:
        stakes = distribution.sample(config.n_nodes, seed)
    return compute_instance_rewards(stakes, costs, config, seed)


def _merge_distribution_rewards(
    name: str, instance_rewards: Sequence[List[float]], n_rounds: int
) -> DistributionRewards:
    """Aggregate per-instance reward series in instance order."""
    all_rewards: List[float] = []
    per_round = np.zeros(n_rounds)
    for rewards in instance_rewards:
        all_rewards.extend(rewards)
        per_round += np.asarray(rewards)
    return DistributionRewards(
        name=name,
        rewards=all_rewards,
        per_round_mean=list(per_round / len(instance_rewards)),
    )


def run_reward_comparison(
    config: RewardComparisonConfig = RewardComparisonConfig(),
    workers: Union[int, str, None] = 1,
    cache_dir: Union[str, Path, None] = None,
    progress: bool = False,
    policy: Optional[ExecutionPolicy] = None,
) -> RewardComparisonResult:
    """Run the Figure 6 / 7(a) / 7(b) experiment.

    The per-instance shards run through the sweep orchestrator:
    ``workers`` parallelizes them and ``cache_dir`` makes the campaign
    resumable, with merged results bit-identical at any worker count.
    """
    sweep = run_sweep(
        fig6_sweep_spec(config),
        _fig6_shard,
        workers=workers,
        cache_dir=cache_dir,
        progress=progress,
        policy=policy,
    )
    shard_results = sweep.results()
    result = RewardComparisonResult(config=config)
    for index, name in enumerate(paper_distributions()):
        per_instance = shard_results[
            index * config.n_instances : (index + 1) * config.n_instances
        ]
        result.distributions[name] = _merge_distribution_rewards(
            name, per_instance, config.n_rounds
        )
    return result


# -- Figure 7(c): small-stake removal ---------------------------------------------------


@dataclass
class TruncationResult:
    """Figure 7(c): required reward under small-stake removal."""

    config: RewardComparisonConfig
    rewards_by_threshold: Dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        """ASCII rendition of Figure 7(c) (truncated populations)."""
        labels = list(self.rewards_by_threshold)
        values = [self.rewards_by_threshold[label] for label in labels]
        chart = plotting.bar_chart(
            labels,
            values,
            title="Figure 7(c) — mean B_i with small-stake nodes removed",
        )
        return chart

    def summary_rows(self) -> List[Tuple[str, float]]:
        """(population, mean B_i) rows of the truncation comparison."""
        return list(self.rewards_by_threshold.items())

    def to_csv(self, path: PathLike) -> None:
        """Write the truncation comparison rows as CSV."""
        write_rows(path, ("population", "mean_b_i"), self.summary_rows())


def _truncation_name(threshold: float) -> str:
    return "U(1,200)" if threshold == 0 else f"U{threshold:g}(1,200)"


def fig7c_sweep_spec(config: RewardComparisonConfig) -> SweepSpec:
    """The Figure 7(c) campaign: one shard per (threshold, instance)."""
    total = config.totals.get("U(1,200)", 50_000_000.0) * (
        config.n_nodes / PAPER_N_NODES
    )
    return SweepSpec(
        name="fig7c",
        grid={
            "threshold": list(FIG7C_THRESHOLDS),
            "instance": list(range(config.n_instances)),
        },
        base={
            "n_nodes": config.n_nodes,
            "n_rounds": config.n_rounds,
            "seed": config.seed,
            "picks_per_round": config.picks_per_round,
            "total": total,
        },
        root_seed=config.seed,
    )


def _fig7c_shard(params: Mapping[str, Any], _seed: int) -> List[float]:
    """One Figure 7(c) shard: one U(1,200) instance at one removal threshold."""
    threshold = params["threshold"]
    name = _truncation_name(threshold)
    config = _fig6_instance_config(params)
    costs = RoleCosts.paper_defaults()
    distribution = paper_distributions()["U(1,200)"]
    seed = derive_seed(config.seed, f"fig7c:{name}:{params['instance']}") % 2**31
    stakes = distribution.sample_total(config.n_nodes, params["total"], seed)
    return compute_instance_rewards(stakes, costs, config, seed, k_floor=threshold)


def run_truncation_experiment(
    config: RewardComparisonConfig = RewardComparisonConfig(),
    workers: Union[int, str, None] = 1,
    cache_dir: Union[str, Path, None] = None,
    progress: bool = False,
    policy: Optional[ExecutionPolicy] = None,
) -> TruncationResult:
    """Run the Figure 7(c) sweep: U(1,200) with small-stake removal.

    The paper removes nodes with stakes up to ``w`` in {3, 5, 7} "from the
    set of rewarded nodes": the strong-synchrony set is then drawn from
    stakes above ``w``, so the Theorem 3 online bound uses ``s*_k = w``
    instead of the population minimum (~1), shrinking the required reward.
    Threshold 0 is the untruncated U(1,200) baseline.

    Like :func:`run_reward_comparison`, the shards run over the
    orchestrator (``workers`` / ``cache_dir``).
    """
    sweep = run_sweep(
        fig7c_sweep_spec(config),
        _fig7c_shard,
        workers=workers,
        cache_dir=cache_dir,
        progress=progress,
        policy=policy,
    )
    shard_results = sweep.results()
    result = TruncationResult(config=config)
    for index, threshold in enumerate(FIG7C_THRESHOLDS):
        rewards: List[float] = []
        for instance_rewards in shard_results[
            index * config.n_instances : (index + 1) * config.n_instances
        ]:
            rewards.extend(instance_rewards)
        result.rewards_by_threshold[_truncation_name(threshold)] = stats.mean(rewards)
    return result
