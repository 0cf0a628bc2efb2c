"""Cross-scheme tournaments: every scheme against every scenario family.

A tournament fans the full ``(scheme x scenario-family x replication)``
grid through the same sweep/orchestrator substrate as every other
campaign — content-hash cache keys, paired seeds (all schemes see
identical stake draws, role sortitions and initial defectors), and
bit-identical merges at any worker count — then folds the trajectories
and a fresh epsilon-IC audit into one ranked **league table**:

* **cooperation share** — the final-epoch cooperation share each scheme
  sustains, averaged over scenario families and replications: the
  dynamic analogue of "is the cooperative profile stable?".
* **budget efficiency** — the fraction of the distributed budget paid to
  cooperating players at the final epoch: budget spent on defectors
  buys no protocol work.
* **epsilon-IC margin** — how far the most profitable unilateral
  deviation sits below profitability at the audit operating point
  (positive = certified), plus the *shirking* margin that ignores
  deviations toward cooperation.

Schemes are ranked by cooperation share, then budget efficiency, then
shirking margin, then name — all deterministic, so the league table is a
reproducible artifact like every figure in this repo.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.analysis.csvio import PathLike, write_rows
from repro.analysis.retry import ExecutionPolicy
from repro.errors import ConfigurationError
from repro.scenarios.experiment import (
    ScenarioCampaignConfig,
    ScenarioCampaignResult,
    run_scenarios_campaign,
)
from repro.scenarios.registry import scenario_names
from repro.schemes.audit import AuditConfig, AuditReport, audit_schemes
from repro.schemes.registry import get_scheme, scheme_names

#: The audit operating point a tournament certifies schemes at: the
#: paper's Theorem 3 regime — budget 1.5x the bound (matching the
#: scenario engine's default ``reward_headroom``) on uniform stakes.
TOURNAMENT_AUDIT = AuditConfig(
    n_populations=8,
    stake_kinds=("uniform",),
    cost_scales=(1.0,),
    budget_multipliers=(1.5,),
    oracle_samples=2,
)


def tournament_audit(
    budget_multipliers: Tuple[float, ...] = (), cost_scales: Tuple[float, ...] = ()
) -> AuditConfig:
    """:data:`TOURNAMENT_AUDIT` widened by the grid flags (empty keeps an axis).

    A scheme keeps its IC margin only if epsilon-IC at *all* requested
    cells.  The CLI and the service both build their audit here.
    """
    audit = TOURNAMENT_AUDIT
    if budget_multipliers:
        audit = replace(audit, budget_multipliers=tuple(budget_multipliers))
    if cost_scales:
        audit = replace(audit, cost_scales=tuple(cost_scales))
    return audit


@dataclass(frozen=True)
class TournamentConfig:
    """One tournament: which schemes meet which scenario families.

    Empty ``schemes`` / ``scenarios`` mean "everything registered".  The
    scale knobs (``n_players``, ``n_epochs``, ``simulate_rounds``,
    ``n_replications``) pass straight through to the scenario campaign.
    """

    schemes: Tuple[str, ...] = ()
    scenarios: Tuple[str, ...] = ()
    n_replications: int = 2
    n_players: Optional[int] = None
    n_epochs: Optional[int] = None
    simulate_rounds: Optional[int] = None
    seed: int = 2021
    audit: AuditConfig = TOURNAMENT_AUDIT

    def scheme_list(self) -> List[str]:
        """Requested schemes, defaulting to every registered one."""
        return list(self.schemes) if self.schemes else scheme_names()

    def scenario_list(self) -> List[str]:
        """Requested scenario families, defaulting to every registered one."""
        return list(self.scenarios) if self.scenarios else scenario_names()

    def campaign_config(self) -> ScenarioCampaignConfig:
        """The scenario-campaign configuration this tournament fans out."""
        return ScenarioCampaignConfig(
            scenarios=tuple(self.scenario_list()),
            schemes=tuple(self.scheme_list()),
            n_replications=self.n_replications,
            n_players=self.n_players,
            n_epochs=self.n_epochs,
            simulate_rounds=self.simulate_rounds,
            seed=self.seed,
        )


@dataclass(frozen=True)
class SchemeStanding:
    """One scheme's row in the league table."""

    rank: int
    scheme: str
    description: str
    cooperation_share: float
    budget_efficiency: float
    ic_margin: float
    shirk_margin: float
    ic_certified: bool
    worst_deviation: str


@dataclass
class TournamentResult:
    """The ranked league plus the underlying campaign and audits."""

    config: TournamentConfig
    campaign: ScenarioCampaignResult
    audits: Dict[str, AuditReport] = field(default_factory=dict)
    standings: List[SchemeStanding] = field(default_factory=list)

    def standing_for(self, scheme: str) -> SchemeStanding:
        """Look up one scheme's row in the league table."""
        for standing in self.standings:
            if standing.scheme == scheme:
                return standing
        raise ConfigurationError(f"no standing for scheme {scheme!r}")

    # -- rendering ----------------------------------------------------------

    def _audit_grid_label(self) -> str:
        """Budget operating point(s) of the league audit, for headers.

        A single multiplier renders as before (``1.5``); a grid of
        operating points — from the runner's repeatable
        ``--budget-multiplier`` flag — renders as the full axis
        (``{1,1.5,2}``), since a scheme must certify at *every* cell to
        keep its margin.
        """
        budgets = self.config.audit.budget_multipliers
        if len(budgets) == 1:
            return f"{budgets[0]:g}"
        return "{" + ",".join(f"{b:g}" for b in budgets) + "}"

    def _rows(self) -> List[Tuple[object, ...]]:
        return [
            (
                standing.rank,
                standing.scheme,
                f"{standing.cooperation_share:.4f}",
                f"{standing.budget_efficiency:.4f}",
                f"{standing.ic_margin + 0.0:+.3g}",  # +0.0 folds -0.0 into +0
                f"{standing.shirk_margin + 0.0:+.3g}",
                "yes" if standing.ic_certified else "no",
                standing.worst_deviation or "-",
            )
            for standing in self.standings
        ]

    def render(self) -> str:
        """ASCII league table plus per-scheme legend."""
        from repro.analysis.plotting import format_table

        n_families = len(self.campaign.scenarios())
        table = format_table(
            (
                "#",
                "scheme",
                "coop share",
                "budget eff",
                "IC margin",
                "shirk margin",
                "certified",
                "worst deviation",
            ),
            self._rows(),
            title=(
                f"Reward-scheme tournament — {len(self.standings)} schemes x "
                f"{n_families} scenario families "
                f"({self.config.n_replications} replications, "
                f"audit at {self._audit_grid_label()}x bound)"
            ),
        )
        legends = [
            f"  {standing.scheme}: {standing.description}"
            for standing in self.standings
        ]
        return table + "\n\n" + "\n".join(legends)

    def to_markdown_text(self) -> str:
        """The league table as a Markdown document (string form)."""
        lines = [
            "# Reward-scheme tournament",
            "",
            f"{len(self.standings)} schemes x "
            f"{len(self.campaign.scenarios())} scenario families, "
            f"{self.config.n_replications} paired replications per cell; "
            f"epsilon-IC audited at "
            f"{self._audit_grid_label()}x the Theorem 3 "
            f"bound (epsilon = {self.config.audit.epsilon:g}).",
            "",
            "| # | scheme | coop share | budget eff | IC margin | "
            "shirk margin | certified | worst deviation |",
            "|---|--------|-----------:|-----------:|----------:|"
            "-------------:|-----------|-----------------|",
        ]
        for row in self._rows():
            lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
        lines.append("")
        for standing in self.standings:
            lines.append(f"- **{standing.scheme}** — {standing.description}")
        lines.append("")
        lines.extend(
            [
                "Columns: *coop share* — final-epoch cooperation share, mean "
                "over families; *budget eff* — fraction of the distributed "
                "budget paid to cooperators at the final epoch; *IC margin* — "
                "`-max gain` over all unilateral deviations at the audit "
                "point (positive = epsilon-IC); *shirk margin* — the same "
                "over cooperators' work-reducing deviations only "
                "(C->D, C->O).",
            ]
        )
        return "\n".join(lines) + "\n"

    def to_markdown(self, path: PathLike) -> Path:
        """Write the Markdown league table to ``path``."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.to_markdown_text(), encoding="utf-8")
        return target

    def to_csv(self, path: PathLike) -> None:
        """Write one row per scheme standing as CSV."""
        write_rows(
            path,
            (
                "rank",
                "scheme",
                "cooperation_share",
                "budget_efficiency",
                "ic_margin",
                "shirk_margin",
                "ic_certified",
                "worst_deviation",
            ),
            [
                (
                    standing.rank,
                    standing.scheme,
                    standing.cooperation_share,
                    standing.budget_efficiency,
                    standing.ic_margin,
                    standing.shirk_margin,
                    int(standing.ic_certified),
                    standing.worst_deviation,
                )
                for standing in self.standings
            ],
        )


def _league(
    config: TournamentConfig,
    campaign: ScenarioCampaignResult,
    audits: Dict[str, AuditReport],
) -> List[SchemeStanding]:
    """Fold trajectories + audits into the ranked standings."""
    scenarios = campaign.scenarios()
    entries = []
    for name in config.scheme_list():
        finals = [
            campaign.trajectory(scenario, name).cooperation_share[-1]
            for scenario in scenarios
        ]
        efficiencies = [
            campaign.trajectory(scenario, name).budget_efficiency[-1]
            for scenario in scenarios
        ]
        report = audits[name]
        worst = report.worst_cell().witness
        entries.append(
            {
                "scheme": name,
                "description": get_scheme(name).description,
                "cooperation_share": sum(finals) / len(finals),
                "budget_efficiency": sum(efficiencies) / len(efficiencies),
                "ic_margin": report.ic_margin,
                "shirk_margin": report.shirk_margin,
                "ic_certified": report.certified,
                "worst_deviation": "" if worst is None else worst.describe(),
            }
        )
    entries.sort(
        key=lambda entry: (
            -entry["cooperation_share"],
            -entry["budget_efficiency"],
            -entry["shirk_margin"],
            entry["scheme"],
        )
    )
    return [
        SchemeStanding(rank=rank, **entry)
        for rank, entry in enumerate(entries, start=1)
    ]


def run_tournament(
    config: TournamentConfig = TournamentConfig(),
    workers: Union[int, str, None] = 1,
    cache_dir: Union[str, Path, None] = None,
    progress: bool = False,
    policy: Optional[ExecutionPolicy] = None,
) -> TournamentResult:
    """Run the full tournament: campaign, audit, and ranked league.

    ``policy`` is forwarded to the underlying scenario campaign's sweep
    (retries, timeouts, fault injection); the league audit itself runs
    in the parent process.
    """
    campaign = run_scenarios_campaign(
        config.campaign_config(),
        workers=workers,
        cache_dir=cache_dir,
        progress=progress,
        policy=policy,
    )
    audits = audit_schemes(config.scheme_list(), config.audit)
    result = TournamentResult(config=config, campaign=campaign, audits=audits)
    result.standings = _league(config, campaign, audits)
    return result
