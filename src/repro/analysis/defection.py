"""Figure 3: the defection cascade experiment.

Reproduces the paper's Section III-C simulation: networks with 5 %, 10 %,
15 %, 20 %, 25 % and 30 % of nodes defecting (online, sortition only, no
tasks), stakes uniform U(1, 50), gossip fanout 5, repeated runs aggregated
with a 20 % trimmed mean.  For every round the experiment records the
fraction of online nodes that extracted a FINAL block, a TENTATIVE block,
or NO block.

Expected shape (paper Figure 3): healthy finalization at 5 % with tentative
blocks appearing, progressive degradation through 10-25 %, and collapse at
30 % "even in the first few rounds".
"""

from __future__ import annotations

from pathlib import Path
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis import plotting
from repro.analysis.csvio import PathLike, write_rows
from repro.analysis.orchestrator import run_sweep
from repro.analysis.retry import ExecutionPolicy
from repro.analysis.sweep import SweepSpec
from repro.errors import ConfigurationError, OrchestrationError
from repro.sim import SimulationConfig, make_simulation
from repro.sim.config import check_backend
from repro.sim.metrics import trimmed_mean_series

#: The paper's defection rates (Section III-C).
PAPER_DEFECTION_RATES: Tuple[float, ...] = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30)


@dataclass(frozen=True)
class DefectionExperimentConfig:
    """Parameters of the Figure 3 sweep.

    The paper runs 100 simulations per rate; the default here is smaller so
    the experiment completes in benchmark time — raise ``n_runs`` for
    publication-grade smoothness.  ``backend`` names the simulation
    engine, and only ``"fast"`` is accepted; it stays a field because the
    shard keys of cached campaigns carry it.
    """

    rates: Tuple[float, ...] = PAPER_DEFECTION_RATES
    n_runs: int = 5
    n_rounds: int = 20
    n_nodes: int = 80
    seed: int = 2020
    trim: float = 0.2
    tau_proposer: float = 8.0
    tau_step: float = 60.0
    tau_final: float = 80.0
    backend: str = "fast"

    def __post_init__(self) -> None:
        if not self.rates:
            raise ConfigurationError("need at least one defection rate")
        if any(not 0.0 <= rate <= 1.0 for rate in self.rates):
            raise ConfigurationError(f"rates must be in [0, 1]: {self.rates}")
        if self.n_runs < 1 or self.n_rounds < 1:
            raise ConfigurationError("n_runs and n_rounds must be >= 1")
        check_backend("backend", self.backend)

    def simulation_config(self, rate: float, run: int) -> SimulationConfig:
        """The per-run simulator configuration (paper Section III-C setup)."""
        return SimulationConfig(
            n_nodes=self.n_nodes,
            seed=self.seed * 10_000 + int(rate * 100) * 100 + run,
            defection_rate=rate,
            stake_low=1.0,
            stake_high=50.0,
            gossip_fanout=5,
            tau_proposer=self.tau_proposer,
            tau_step=self.tau_step,
            tau_final=self.tau_final,
        )


@dataclass
class DefectionSeries:
    """Trimmed-mean per-round fractions for one defection rate."""

    rate: float
    fraction_final: List[float]
    fraction_tentative: List[float]
    fraction_none: List[float]

    def mean_final(self) -> float:
        """Mean fraction of nodes reaching FINAL consensus, across runs."""
        return sum(self.fraction_final) / len(self.fraction_final)

    def mean_tentative(self) -> float:
        """Mean fraction of nodes reaching TENTATIVE consensus, across runs."""
        return sum(self.fraction_tentative) / len(self.fraction_tentative)

    def mean_none(self) -> float:
        """Mean fraction of nodes reaching no consensus, across runs."""
        return sum(self.fraction_none) / len(self.fraction_none)


@dataclass
class DefectionExperimentResult:
    """All series of the Figure 3 sweep plus rendering/export helpers."""

    config: DefectionExperimentConfig
    series: Dict[float, DefectionSeries] = field(default_factory=dict)

    def summary_rows(self) -> List[Tuple[float, float, float, float]]:
        """(rate, mean final, mean tentative, mean none) rows."""
        return [
            (
                rate,
                self.series[rate].mean_final(),
                self.series[rate].mean_tentative(),
                self.series[rate].mean_none(),
            )
            for rate in sorted(self.series)
        ]

    def render(self) -> str:
        """ASCII rendition of Figure 3 (one panel per defection rate)."""
        panels: List[str] = []
        for rate in sorted(self.series):
            data = self.series[rate]
            panels.append(
                plotting.line_chart(
                    {
                        "final": data.fraction_final,
                        "tentative": data.fraction_tentative,
                        "none": data.fraction_none,
                    },
                    title=f"Figure 3 — defection rate {rate:.0%}",
                    y_min=0.0,
                    y_max=1.0,
                    height=10,
                )
            )
        return "\n\n".join(panels)

    def to_csv(self, path: PathLike) -> None:
        """Write one row per (defection rate, run, round) as CSV."""
        rows = []
        for rate in sorted(self.series):
            data = self.series[rate]
            for round_index in range(len(data.fraction_final)):
                rows.append(
                    (
                        rate,
                        round_index + 1,
                        data.fraction_final[round_index],
                        data.fraction_tentative[round_index],
                        data.fraction_none[round_index],
                    )
                )
        write_rows(
            path,
            ("defection_rate", "round", "fraction_final", "fraction_tentative", "fraction_none"),
            rows,
        )


def fig3_sweep_spec(config: DefectionExperimentConfig) -> SweepSpec:
    """The Figure 3 campaign as a declarative sweep: one shard per (rate, run).

    ``backend`` stays part of the shard parameters (always ``"fast"``),
    and so does ``verify_crypto`` (always ``False``; no engine reads it),
    so the content-addressed keys of already cached shards still match.
    """
    return SweepSpec(
        name="fig3",
        grid={
            "rate": list(config.rates),
            "run": list(range(config.n_runs)),
        },
        base={
            "n_rounds": config.n_rounds,
            "n_nodes": config.n_nodes,
            "seed": config.seed,
            "tau_proposer": config.tau_proposer,
            "tau_step": config.tau_step,
            "tau_final": config.tau_final,
            "verify_crypto": False,
            "backend": config.backend,
        },
        root_seed=config.seed,
    )


def _fig3_shard(params: Mapping[str, Any], _seed: int) -> Dict[str, List[float]]:
    """One Figure 3 shard: a single simulation run at one defection rate.

    The per-run simulator seed follows the experiment's own historical
    scheme (``DefectionExperimentConfig.simulation_config``) rather than
    the sweep-derived ``_seed``, so orchestrated results are bit-identical
    to the original serial loop.  A shard without ``backend`` is refused
    rather than given a default engine.
    """
    config = DefectionExperimentConfig(
        rates=(params["rate"],),
        n_runs=1,
        n_rounds=params["n_rounds"],
        n_nodes=params["n_nodes"],
        seed=params["seed"],
        tau_proposer=params["tau_proposer"],
        tau_step=params["tau_step"],
        tau_final=params["tau_final"],
        backend=params.get("backend"),
    )
    simulation = make_simulation(
        config.simulation_config(params["rate"], params["run"])
    )
    metrics = simulation.run(params["n_rounds"])
    return {
        "fraction_final": metrics.series("fraction_final"),
        "fraction_tentative": metrics.series("fraction_tentative"),
        "fraction_none": metrics.series("fraction_none"),
    }


def _trimmed_series(
    runs: Sequence[Mapping[str, List[float]]], attribute: str, trim: float
) -> List[float]:
    """Per-round trimmed mean across run shards (the fig3 merge rule)."""
    return trimmed_mean_series([run[attribute] for run in runs], trim=trim)


def run_defection_experiment(
    config: DefectionExperimentConfig = DefectionExperimentConfig(),
    workers: Union[int, str, None] = 1,
    cache_dir: Union[str, Path, None] = None,
    progress: bool = False,
    policy: Optional[ExecutionPolicy] = None,
) -> DefectionExperimentResult:
    """Run the full Figure 3 sweep.

    ``workers`` fans the (rate, run) shards out over processes via the
    sweep orchestrator; every run is an independent simulation with its own
    seed, so the merged result is bit-identical at any worker count.
    ``cache_dir`` enables the resumable on-disk shard cache.  ``policy``
    sets the robustness envelope (retries, timeouts, partial mode); under
    ``on_error="partial"`` the merge is failure-aware — each rate's
    trimmed mean is taken over its *surviving* runs, and a rate that
    loses every run raises :class:`~repro.errors.OrchestrationError`.
    """
    spec = fig3_sweep_spec(config)
    sweep = run_sweep(
        spec,
        _fig3_shard,
        workers=workers,
        cache_dir=cache_dir,
        progress=progress,
        policy=policy,
    )
    shard_results = sweep.results_with(fill=None)

    result = DefectionExperimentResult(config=config)
    for index, rate in enumerate(config.rates):
        group = shard_results[index * config.n_runs : (index + 1) * config.n_runs]
        runs = [run for run in group if run is not None]
        if not runs:
            raise OrchestrationError(
                f"every run of rate {rate} failed; cannot aggregate fig3 "
                f"({len(sweep.failed)} shard failures in total)"
            )
        result.series[rate] = DefectionSeries(
            rate=rate,
            fraction_final=_trimmed_series(runs, "fraction_final", config.trim),
            fraction_tentative=_trimmed_series(runs, "fraction_tentative", config.trim),
            fraction_none=_trimmed_series(runs, "fraction_none", config.trim),
        )
    return result


def shape_assertions(result: DefectionExperimentResult) -> List[str]:
    """Check the paper's qualitative claims; returns a list of violations.

    * finalization degrades (weakly) as the defection rate rises,
    * the lowest rate sustains a clearly healthier network than the highest,
    * at 30 % defection finality is (almost) gone.
    """
    problems: List[str] = []
    rows = result.summary_rows()
    rates = [row[0] for row in rows]
    finals = [row[1] for row in rows]
    if finals != sorted(finals, reverse=True):
        # Allow small non-monotonic wiggles from finite runs.
        for (rate_a, final_a), (rate_b, final_b) in zip(
            zip(rates, finals), zip(rates[1:], finals[1:])
        ):
            if final_b > final_a + 0.15:
                problems.append(
                    f"finalization rose from {final_a:.2f} at {rate_a:.0%} to "
                    f"{final_b:.2f} at {rate_b:.0%}"
                )
    if finals and finals[0] < finals[-1] + 0.2:
        problems.append(
            f"low-rate finalization ({finals[0]:.2f}) not clearly above "
            f"high-rate ({finals[-1]:.2f})"
        )
    if rates and rates[-1] >= 0.30 and finals[-1] > 1 / 3:
        problems.append(f"30% defection still finalizes {finals[-1]:.2f} of rounds")
    return problems
