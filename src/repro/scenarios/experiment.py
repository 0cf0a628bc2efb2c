"""Scenario campaigns: orchestrated multi-scenario, multi-epoch sweeps.

A campaign evaluates every selected scenario family under both reward
schemes with ``n_replications`` paired replications, sharded through the
same sweep/orchestrator substrate as the fig3–fig7 experiments: one shard
per ``(scenario, scheme, replication)`` grid point, deterministic
per-shard seeding, content-addressed cache keys, bit-identical merges at
any worker count, and crash/resume via the on-disk shard cache.

The merged artifact is the paper's Section V story as a *dynamic
process*: defection share versus epoch, naive Foundation sharing against
the role-based split, averaged over replications.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis import plotting
from repro.analysis.csvio import PathLike, write_rows
from repro.analysis.orchestrator import run_sweep
from repro.analysis.retry import ExecutionPolicy
from repro.analysis.sweep import SweepSpec
from repro.errors import ConfigurationError
from repro.scenarios.dynamics import SCHEMES, ScenarioTrajectory, run_scenario
from repro.scenarios.registry import get_scenario, scenario_names
from repro.scenarios.spec import ScenarioSpec
from repro.schemes.registry import get_scheme, scheme_names
from repro.sim.metrics import mean_series
from repro.sim.rng import derive_seed

#: Bump when the scenario engine's semantics change (invalidates caches).
#: 2: schemes resolved from the scheme registry; epoch records carry
#: budget efficiency.
#: 3: specs carry ``sim_backend`` — per-epoch simulations default to the
#: vectorized fast kernel.
#: 4: specs carry ``population``/``population_params`` — stake
#: populations referenced by generator family, resolved at run time.
#: 5: streamed population-dynamics campaigns share the substrate, and
#: ``replicator_step`` gained boundary/equal-payoff/negative-shift edge
#: policies that change trajectory arithmetic.
CAMPAIGN_VERSION = 5


@dataclass(frozen=True)
class ScenarioCampaignConfig:
    """Parameters of one scenario campaign.

    ``scenarios`` empty means "every registered family".  ``schemes``
    names any reward schemes registered in :mod:`repro.schemes` (default:
    the paper's foundation / role-based pair).  ``n_players``,
    ``n_epochs`` and ``simulate_rounds`` override the specs uniformly —
    the campaign's scale knobs (``simulate_rounds`` only applies to
    families that already tie into the simulator, so a scale bump never
    turns simulation on for analytic-only families).
    """

    scenarios: Tuple[str, ...] = ()
    schemes: Tuple[str, ...] = SCHEMES
    n_replications: int = 2
    n_players: Optional[int] = None
    n_epochs: Optional[int] = None
    simulate_rounds: Optional[int] = None
    seed: int = 2021

    def __post_init__(self) -> None:
        if self.n_replications < 1:
            raise ConfigurationError("need at least one replication")
        unknown = [name for name in self.scenarios if name not in scenario_names()]
        if unknown:
            raise ConfigurationError(f"unknown scenarios: {unknown}")
        bad = [scheme for scheme in self.schemes if scheme not in scheme_names()]
        if bad:
            raise ConfigurationError(
                f"unknown schemes: {bad}; registered: {scheme_names()}"
            )
        if not self.schemes:
            raise ConfigurationError("campaign needs at least one scheme")

    def scenario_list(self) -> List[str]:
        """Requested scenario families, defaulting to every registered one."""
        return list(self.scenarios) if self.scenarios else scenario_names()


def _spec_for_campaign(config: ScenarioCampaignConfig, name: str) -> "ScenarioSpec":
    """The registered spec with the campaign's scale overrides applied."""
    spec = get_scenario(name)
    overrides: Dict[str, object] = {}
    for field_name in ("n_players", "n_epochs"):
        value = getattr(config, field_name)
        if value is not None:
            overrides[field_name] = value
    if config.simulate_rounds is not None and spec.simulate_rounds > 0:
        overrides["simulate_rounds"] = config.simulate_rounds
    return spec.with_overrides(**overrides) if overrides else spec


def scenarios_sweep_spec(config: ScenarioCampaignConfig) -> SweepSpec:
    """One shard per (scenario, scheme, replication) grid point.

    The scenario axis carries each spec's *full parameter mapping* (not
    just its name), so the orchestrator's content-addressed cache key
    covers every field — editing or re-registering a scenario invalidates
    exactly its own cached shards — and worker processes never need the
    registry (user-registered scenarios survive spawn-based pools).  The
    scheme axis carries ``RewardScheme.to_params()`` mappings for the
    same two reasons: re-registering a scheme under the same name with
    different parameters invalidates its shards, and workers rebuild the
    scheme from its declared kind and parameters alone.
    """
    return SweepSpec(
        name="scenarios",
        grid={
            "scenario": [
                _spec_for_campaign(config, name).to_params()
                for name in config.scenario_list()
            ],
            "scheme": [get_scheme(name).to_params() for name in config.schemes],
            "replication": list(range(config.n_replications)),
        },
        base={"seed": config.seed},
        root_seed=config.seed,
        version=CAMPAIGN_VERSION,
    )


def _scenario_shard(params: Mapping[str, Any], _seed: int) -> Dict[str, object]:
    """One campaign shard: a full multi-epoch trajectory.

    The run seed is derived from the campaign seed and the (scenario,
    replication) pair — *not* the scheme — so every scheme of a
    replication shares all exogenous randomness (paired comparison), and
    not from the shard's own sweep seed, which would differ per scheme.
    """
    spec = ScenarioSpec.from_params(params["scenario"])
    run_seed = derive_seed(
        params["seed"],
        f"scenarios:{spec.name}:rep:{params['replication']}",
    )
    trajectory = run_scenario(spec, params["scheme"], run_seed)
    payload = trajectory.to_payload()
    payload["replication"] = params["replication"]
    return payload


@dataclass
class MergedTrajectory:
    """Replication-averaged series for one (scenario, scheme) pair."""

    scenario: str
    scheme: str
    b_i: float
    alpha: float
    beta: float
    n_replications: int
    defection_share: List[float] = field(default_factory=list)
    cooperation_share: List[float] = field(default_factory=list)
    block_rate: List[float] = field(default_factory=list)
    mean_payoff_cooperate: List[float] = field(default_factory=list)
    mean_payoff_defect: List[float] = field(default_factory=list)
    budget_efficiency: List[float] = field(default_factory=list)
    realized_final_fraction: Optional[List[float]] = None

    @property
    def n_epochs(self) -> int:
        """Number of epochs beyond the initial state."""
        return len(self.defection_share) - 1

    def stabilized(self, window: int = 3, tolerance: float = 0.05) -> bool:
        """Whether the defection share settled over the last ``window`` epochs."""
        if len(self.defection_share) < window:
            return False
        tail = self.defection_share[-window:]
        return max(tail) - min(tail) <= tolerance


def _merge_replications(
    scenario: str, scheme: str, runs: Sequence[ScenarioTrajectory]
) -> MergedTrajectory:
    merged = MergedTrajectory(
        scenario=scenario,
        scheme=scheme,
        b_i=sum(run.b_i for run in runs) / len(runs),
        alpha=sum(run.alpha for run in runs) / len(runs),
        beta=sum(run.beta for run in runs) / len(runs),
        n_replications=len(runs),
        defection_share=mean_series([run.defection_series() for run in runs]),
        cooperation_share=mean_series([run.cooperation_series() for run in runs]),
        block_rate=mean_series([run.block_series() for run in runs]),
        mean_payoff_cooperate=mean_series(
            [[r.mean_payoff_cooperate for r in run.records] for run in runs]
        ),
        mean_payoff_defect=mean_series(
            [[r.mean_payoff_defect for r in run.records] for run in runs]
        ),
        budget_efficiency=mean_series(
            [[r.budget_efficiency for r in run.records] for run in runs]
        ),
    )
    realized = [
        [
            r.realized_final_fraction
            for r in run.records
            if r.realized_final_fraction is not None
        ]
        for run in runs
    ]
    if all(series for series in realized):
        merged.realized_final_fraction = mean_series(realized)
    return merged


@dataclass
class ScenarioCampaignResult:
    """All merged trajectories plus rendering/export helpers."""

    config: ScenarioCampaignConfig
    trajectories: Dict[Tuple[str, str], MergedTrajectory] = field(default_factory=dict)

    def trajectory(self, scenario: str, scheme: str) -> MergedTrajectory:
        """The merged trajectory of one (scenario, scheme) cell."""
        try:
            return self.trajectories[(scenario, scheme)]
        except KeyError:
            raise ConfigurationError(
                f"campaign has no trajectory for ({scenario!r}, {scheme!r})"
            ) from None

    def scenarios(self) -> List[str]:
        """Scenario names present in the campaign, first-seen order."""
        seen: List[str] = []
        for scenario, _scheme in self.trajectories:
            if scenario not in seen:
                seen.append(scenario)
        return seen

    def render(self) -> str:
        """ASCII panels: defection share vs epoch, one panel per scenario."""
        panels: List[str] = []
        for scenario in self.scenarios():
            series = {
                scheme: self.trajectory(scenario, scheme).defection_share
                for _s, scheme in self.trajectories
                if _s == scenario
            }
            panels.append(
                plotting.line_chart(
                    series,
                    title=f"Scenario {scenario} — defection share vs epoch",
                    y_min=0.0,
                    y_max=1.0,
                    height=10,
                )
            )
        return "\n\n".join(panels)

    def to_csv(self, path: PathLike) -> None:
        """Write one row per (scenario, scheme, epoch) as CSV."""
        rows: List[Sequence[object]] = []
        for (scenario, scheme), merged in self.trajectories.items():
            for epoch in range(len(merged.defection_share)):
                realized: object = ""
                if merged.realized_final_fraction is not None and epoch >= 1:
                    realized = merged.realized_final_fraction[epoch - 1]
                rows.append(
                    (
                        scenario,
                        scheme,
                        epoch,
                        merged.defection_share[epoch],
                        merged.cooperation_share[epoch],
                        merged.block_rate[epoch],
                        merged.mean_payoff_cooperate[epoch],
                        merged.mean_payoff_defect[epoch],
                        merged.budget_efficiency[epoch],
                        realized,
                        merged.b_i,
                        merged.alpha,
                        merged.beta,
                    )
                )
        write_rows(
            path,
            (
                "scenario",
                "scheme",
                "epoch",
                "defection_share",
                "cooperation_share",
                "block_rate",
                "mean_payoff_cooperate",
                "mean_payoff_defect",
                "budget_efficiency",
                "realized_final_fraction",
                "b_i",
                "alpha",
                "beta",
            ),
            rows,
        )


def run_scenarios_campaign(
    config: ScenarioCampaignConfig = ScenarioCampaignConfig(),
    workers: Union[int, str, None] = 1,
    cache_dir: Union[str, Path, None] = None,
    progress: bool = False,
    policy: Optional[ExecutionPolicy] = None,
) -> ScenarioCampaignResult:
    """Run the full campaign through the sweep orchestrator and merge.

    ``policy`` sets the robustness envelope (retries, timeouts); the
    replication merge is positional, so a partial-mode run that actually
    lost shards raises rather than misalign.
    """
    spec = scenarios_sweep_spec(config)
    sweep = run_sweep(
        spec,
        _scenario_shard,
        workers=workers,
        cache_dir=cache_dir,
        progress=progress,
        policy=policy,
    )
    payloads = sweep.results()

    result = ScenarioCampaignResult(config=config)
    scenarios = config.scenario_list()
    schemes = list(config.schemes)
    reps = config.n_replications
    index = 0
    for scenario in scenarios:
        for scheme in schemes:
            runs = [
                ScenarioTrajectory.from_payload(payloads[index + rep])
                for rep in range(reps)
            ]
            index += reps
            result.trajectories[(scenario, scheme)] = _merge_replications(
                scenario, scheme, runs
            )
    return result


def convergence_checks(result: ScenarioCampaignResult) -> List[str]:
    """The paper's dynamic claims as assertions; returns violations.

    For every scenario family whose spec expects the headline separation:

    * the **naive** trajectory's defection share must rise substantially
      from its initial value,
    * the **role-based** trajectory must stabilize (flat tail) at a
      defection share clearly below the naive endpoint.
    """
    problems: List[str] = []
    for scenario in result.scenarios():
        spec = get_scenario(scenario)
        if not spec.expect_separation:
            continue
        if ("foundation" not in result.config.schemes) or (
            "role_based" not in result.config.schemes
        ):
            # A single-scheme campaign has no separation to check.
            continue
        naive = result.trajectory(scenario, "foundation")
        role = result.trajectory(scenario, "role_based")
        rise = naive.defection_share[-1] - naive.defection_share[0]
        if rise < 0.15:
            problems.append(
                f"{scenario}: naive defection share rose only {rise:.2f} "
                f"(from {naive.defection_share[0]:.2f} to {naive.defection_share[-1]:.2f})"
            )
        if not role.stabilized():
            problems.append(
                f"{scenario}: role-based trajectory did not stabilize "
                f"(tail {role.defection_share[-3:]})"
            )
        if role.defection_share[-1] > naive.defection_share[-1] - 0.15:
            problems.append(
                f"{scenario}: no separation — role-based ended at "
                f"{role.defection_share[-1]:.2f} vs naive {naive.defection_share[-1]:.2f}"
            )
    return problems
