"""The ``scale`` experiment: population-scale audits as a runner artifact.

Drives the chunked audit engine
(:mod:`repro.schemes.population_audit`) over a
:class:`~repro.populations.spec.PopulationSpec`, draws a sortition
committee inside its gain pass
(:func:`repro.sim.fastpath.committee_step`), and renders the
BENCH_scale-style table: per-scheme epsilon-IC verdicts, audit
throughput (agents/second) and peak RSS versus population size —
"millions of users" as a routine command-line parameter::

    repro-runner scale --scale small                 # 20k agents, CI smoke
    repro-runner scale --agents 1000000 --chunk-agents 131072
    repro-runner scale --family lognormal --dtype float32 --out results/
    repro-runner scale --budget-multiplier 1.0 --budget-multiplier 1.5 \
        --cost-scale 1.0 --cost-scale 2.0           # fused verdict tensor

Repeatable ``--budget-multiplier`` / ``--cost-scale`` flags widen the
run into a fused grid audit: one streamed pass emits the whole
(scheme x budget x cost-scale) verdict tensor
(:func:`repro.schemes.population_audit.audit_population_grid`).  The
underlying engine guarantees verdicts are bit-identical at every
``--chunk-agents`` (and to the monolithic path on sizes that fit); this
module only arranges, times and renders.
"""

from __future__ import annotations

import resource
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.csvio import PathLike, write_rows
from repro.errors import ConfigurationError
from repro.populations.arrays import DEFAULT_CHUNK_AGENTS
from repro.populations.spec import PopulationSpec
from repro.schemes.population_audit import (
    PopulationAuditConfig,
    PopulationAuditGridResult,
    PopulationAuditReport,
    audit_population_grid,
)
from repro.schemes.registry import scheme_names
from repro.sim.fastpath import assemble_committee, committee_probability, committee_step


def peak_rss_mb() -> float:
    """The process's lifetime peak resident set size, in MiB.

    ``ru_maxrss`` is kilobytes on Linux but **bytes** on macOS; both are
    normalized here.  The benchmark harness runs each population size in
    a fresh subprocess so per-size peaks are honest.
    """
    raw = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    divisor = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return raw / divisor


@dataclass(frozen=True)
class ScaleConfig:
    """One population-scale audit run.

    ``schemes`` empty means "every registered scheme".  ``chunk_agents``
    is the streaming window (``None`` = the default chunk, *not*
    monolithic — use :class:`PopulationAuditConfig` directly for
    monolithic cross-checks).  ``budget_multipliers`` / ``cost_scales``
    widen the run into a fused grid audit (one streamed pass emits the
    whole scheme x budget x cost-scale verdict tensor); empty means the
    single cell the ``audit`` config describes, and the first value of
    each axis is the cell the legacy per-scheme table reports.
    """

    family: str = "zipf"
    family_params: Dict[str, Any] = field(default_factory=dict)
    n_agents: int = 1_000_000
    schemes: Tuple[str, ...] = ()
    chunk_agents: Optional[int] = None
    dtype: str = "float64"
    seed: int = 2021
    committee_expected_size: float = 2000.0
    audit: PopulationAuditConfig = PopulationAuditConfig()
    budget_multipliers: Tuple[float, ...] = ()
    cost_scales: Tuple[float, ...] = ()

    def population_spec(self) -> PopulationSpec:
        """The population under audit, by reference."""
        return PopulationSpec(
            family=self.family,
            size=self.n_agents,
            params=dict(self.family_params),
            dtype=self.dtype,
            seed=self.seed,
        )

    def scheme_list(self) -> List[str]:
        """Requested schemes, defaulting to everything registered."""
        return list(self.schemes) if self.schemes else scheme_names()

    def audit_config(self) -> PopulationAuditConfig:
        """The audit shape with this run's streaming window applied."""
        chunk = (
            self.chunk_agents if self.chunk_agents is not None else DEFAULT_CHUNK_AGENTS
        )
        if chunk < 1:
            raise ConfigurationError(f"chunk_agents must be >= 1, got {chunk}")
        return replace(self.audit, chunk_agents=chunk)

    def grid_axes(self) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
        """The (budget multipliers, cost scales) axes actually audited."""
        budgets = self.budget_multipliers or (self.audit.budget_multiplier,)
        scales = self.cost_scales or (self.audit.cost_scale,)
        return tuple(budgets), tuple(scales)

    def is_grid(self) -> bool:
        """Whether the run audits more than the single legacy cell."""
        budgets, scales = self.grid_axes()
        return len(budgets) > 1 or len(scales) > 1


@dataclass
class ScaleResult:
    """Audit reports plus run-level throughput for one population.

    ``reports`` holds the legacy per-scheme view — the grid's first
    (budget, cost-scale) cell — while ``grid`` carries the full fused
    verdict tensor for every cell the config requested.
    """

    config: ScaleConfig
    reports: Dict[str, PopulationAuditReport]
    grid: PopulationAuditGridResult
    committee_members: int
    committee_weight: int
    committee_agents_per_s: float
    elapsed_s: float
    peak_rss_mb: float

    def rows(self) -> List[Tuple[object, ...]]:
        """One table row per audited scheme, in registry order."""
        rows: List[Tuple[object, ...]] = []
        for name in self.config.scheme_list():
            report = self.reports[name]
            witness = report.witness
            rows.append(
                (
                    name,
                    "IC" if report.certified else "DEVIATES",
                    f"{report.max_gain:+.3g}",
                    f"{report.shirk_margin:+.3g}",
                    "-" if witness is None else witness.describe(),
                    f"{report.agents_per_second / 1e6:.2f}",
                )
            )
        return rows

    def render(self) -> str:
        """The ASCII BENCH_scale table."""
        from repro.analysis.plotting import format_table

        spec = self.config.population_spec()
        table = format_table(
            (
                "scheme",
                "verdict",
                "max gain",
                "shirk margin",
                "best deviation",
                "M agents/s",
            ),
            self.rows(),
            title=(
                f"Population-scale epsilon-IC audit — {spec.describe()}, "
                f"chunk {self.config.audit_config().chunk_agents}"
            ),
        )
        footer = (
            f"committee: {self.committee_members} members / "
            f"{self.committee_weight} sub-users sampled from the stream at "
            f"{self.committee_agents_per_s / 1e6:.2f} M agents/s; "
            f"peak RSS {self.peak_rss_mb:.0f} MiB; "
            f"total {self.elapsed_s:.2f}s"
        )
        if self.config.is_grid():
            budgets, scales = self.config.grid_axes()
            header = ["scheme"] + [
                f"b={b:g} c={c:g}" for b in budgets for c in scales
            ]
            grid_rows = []
            for name in self.grid.schemes:
                cells = []
                for b in budgets:
                    for c in scales:
                        report = self.grid.reports[(name, b, c)]
                        verdict = "IC" if report.certified else "DEV"
                        cells.append(f"{verdict} {report.ic_margin:+.2g}")
                grid_rows.append((name, *cells))
            table += "\n" + format_table(
                header,
                grid_rows,
                title=(
                    "Fused verdict tensor (IC margin per budget x cost-scale "
                    "cell, one streamed pass)"
                ),
            )
        return table + "\n" + footer

    def to_csv(self, path: PathLike) -> None:
        """Write the verdict rows as CSV, one row per grid cell.

        Single-cell runs produce the legacy one-row-per-scheme file plus
        the two grid-axis columns; grid runs enumerate every cell in
        canonical (scheme, budget, cost-scale) order.
        """
        rows: List[Sequence[object]] = []
        for cell in self.grid.cells():
            name, budget, cost_scale = cell
            report = self.grid.reports[cell]
            witness = report.witness
            rows.append(
                (
                    name,
                    budget,
                    cost_scale,
                    self.config.family,
                    report.n_agents,
                    report.dtype,
                    report.chunk_agents,
                    int(report.certified),
                    report.max_gain,
                    report.max_shirk_gain,
                    report.n_deviations,
                    report.b_i,
                    "" if witness is None else witness.describe(),
                    report.agents_per_second,
                )
            )
        write_rows(
            path,
            (
                "scheme",
                "budget_multiplier",
                "cost_scale",
                "family",
                "n_agents",
                "dtype",
                "chunk_agents",
                "certified",
                "max_gain",
                "max_shirk_gain",
                "n_deviations",
                "b_i",
                "witness",
                "agents_per_second",
            ),
            rows,
        )

    def audit_payload(self) -> Dict[str, Any]:
        """The deterministic audit payload (no timing, no RSS).

        Everything here is a pure function of the :class:`ScaleConfig` —
        verdicts, witnesses, committee membership, the full grid tensor —
        so two runs of the same config produce byte-identical JSON.  This
        is the payload the audit service serves and the runner writes as
        ``scale.audit.json``; throughput and memory live only in
        :meth:`to_payload` (the BENCH artifact), which embeds this dict
        under ``"audit"``.
        """
        return {
            "family": self.config.family,
            "family_params": dict(self.config.family_params),
            "n_agents": self.config.n_agents,
            "dtype": self.config.dtype,
            "seed": self.config.seed,
            "chunk_agents": self.config.audit_config().chunk_agents,
            "committee": {
                "expected_size": self.config.committee_expected_size,
                "members": self.committee_members,
                "weight": self.committee_weight,
            },
            "schemes": {
                name: report.verdict_dict() for name, report in self.reports.items()
            },
            "grid": self.grid.to_payload(),
        }

    def to_payload(self) -> Dict[str, Any]:
        """Machine-readable form (the BENCH_scale.json building block)."""
        return {
            "family": self.config.family,
            "family_params": dict(self.config.family_params),
            "n_agents": self.config.n_agents,
            "dtype": self.config.dtype,
            "chunk_agents": self.config.audit_config().chunk_agents,
            "elapsed_s": self.elapsed_s,
            "peak_rss_mb": self.peak_rss_mb,
            "committee": {
                "expected_size": self.config.committee_expected_size,
                "members": self.committee_members,
                "weight": self.committee_weight,
                "agents_per_s": self.committee_agents_per_s,
            },
            "schemes": {
                name: {
                    **report.verdict_dict(),
                    "agents_per_second": report.agents_per_second,
                }
                for name, report in self.reports.items()
            },
            **(
                {"grid": self.grid.to_payload()} if self.config.is_grid() else {}
            ),
            "audit": self.audit_payload(),
        }


def run_scale(config: ScaleConfig = ScaleConfig()) -> ScaleResult:
    """Audit every requested scheme (and grid cell) over one population.

    Grid axes or not, the population is streamed exactly twice: the
    fused engine broadcasts selection and synchrony across every
    (budget, cost-scale) cell, and the sortition committee is drawn
    chunk by chunk inside the audit's gain pass (the structure pass has
    totalled the integer stake units by then), so it costs no pass of
    its own.  ``committee_agents_per_s`` divides the population by the
    accumulated time of those per-chunk committee steps.  The legacy
    per-scheme ``reports`` view is the grid's first cell, so
    single-cell payloads are unchanged.
    """
    spec = config.population_spec()
    audit_config = config.audit_config()
    budgets, scales = config.grid_axes()
    parts = []
    committee_s = 0.0

    def draw_committee(chunk, total_stake_units: int) -> None:
        nonlocal committee_s
        step_started = time.perf_counter()
        probability = committee_probability(
            config.committee_expected_size, total_stake_units
        )
        parts.append(committee_step(spec, chunk, probability))
        committee_s += time.perf_counter() - step_started

    started = time.perf_counter()
    grid = audit_population_grid(
        config.scheme_list(),
        spec,
        audit_config,
        budget_multipliers=budgets,
        cost_scales=scales,
        on_chunk=draw_committee,
    )
    reports = {
        name: grid.reports[
            (name, grid.budget_multipliers[0], grid.cost_scales[0])
        ]
        for name in grid.schemes
    }
    any_report = next(iter(reports.values()))
    committee = assemble_committee(
        config.committee_expected_size, any_report.total_stake_units, parts
    )
    return ScaleResult(
        config=config,
        reports=reports,
        grid=grid,
        committee_members=committee.n_selected,
        committee_weight=committee.total_weight,
        committee_agents_per_s=spec.size / committee_s if committee_s > 0 else 0.0,
        elapsed_s=time.perf_counter() - started,
        peak_rss_mb=peak_rss_mb(),
    )
