"""Scenario trajectories: per-epoch records and their payload form.

Both dynamics engines emit these — the in-memory scenario driver
(:mod:`repro.scenarios.dynamics`) and the streamed population dynamics
(:mod:`repro.scenarios.population_dynamics`) — and campaigns carry them
through the shard cache as :meth:`ScenarioTrajectory.to_payload`
mappings.  Plain data: this module imports no game or engine code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional


@dataclass(frozen=True)
class EpochRecord:
    """The state of one epoch, measured after that epoch's revisions."""

    epoch: int
    n_players: int
    n_cooperating: int
    n_defecting: int
    n_offline: int
    block_success: bool
    mean_payoff_cooperate: float
    mean_payoff_defect: float
    realized_final_fraction: Optional[float] = None
    #: Fraction of the distributed budget paid to cooperating players this
    #: epoch (0 when no block was produced) — the tournament's efficiency
    #: metric: budget spent on defectors buys no protocol work.
    budget_efficiency: float = 0.0

    @property
    def defection_share(self) -> float:
        """Fraction of players defecting at this epoch."""
        return self.n_defecting / self.n_players if self.n_players else 0.0

    @property
    def cooperation_share(self) -> float:
        """Fraction of players cooperating at this epoch."""
        return self.n_cooperating / self.n_players if self.n_players else 0.0

    def to_row(self) -> Dict[str, object]:
        """JSON-serializable flat view (the shard-cache payload unit)."""
        return {
            "epoch": self.epoch,
            "n_players": self.n_players,
            "n_cooperating": self.n_cooperating,
            "n_defecting": self.n_defecting,
            "n_offline": self.n_offline,
            "block_success": self.block_success,
            "mean_payoff_cooperate": self.mean_payoff_cooperate,
            "mean_payoff_defect": self.mean_payoff_defect,
            "realized_final_fraction": self.realized_final_fraction,
            "budget_efficiency": self.budget_efficiency,
        }

    @staticmethod
    def from_row(row: Mapping[str, object]) -> "EpochRecord":
        """Rebuild a record from its to_row() mapping (shard payloads)."""
        return EpochRecord(
            epoch=int(row["epoch"]),
            n_players=int(row["n_players"]),
            n_cooperating=int(row["n_cooperating"]),
            n_defecting=int(row["n_defecting"]),
            n_offline=int(row["n_offline"]),
            block_success=bool(row["block_success"]),
            mean_payoff_cooperate=float(row["mean_payoff_cooperate"]),
            mean_payoff_defect=float(row["mean_payoff_defect"]),
            realized_final_fraction=(
                None
                if row.get("realized_final_fraction") is None
                else float(row["realized_final_fraction"])  # type: ignore[arg-type]
            ),
            budget_efficiency=float(row.get("budget_efficiency", 0.0)),  # type: ignore[arg-type]
        )


@dataclass
class ScenarioTrajectory:
    """One scenario run: epoch 0 (initial state) through epoch ``n_epochs``."""

    scenario: str
    scheme: str
    b_i: float
    alpha: float
    beta: float
    records: List[EpochRecord] = field(default_factory=list)

    def defection_series(self) -> List[float]:
        """Defection share per epoch, in order."""
        return [record.defection_share for record in self.records]

    def cooperation_series(self) -> List[float]:
        """Cooperation share per epoch, in order."""
        return [record.cooperation_share for record in self.records]

    def block_series(self) -> List[float]:
        """Per-epoch block-success indicator series (1.0 = produced)."""
        return [1.0 if record.block_success else 0.0 for record in self.records]

    def stabilized(self, window: int = 3, tolerance: float = 0.05) -> bool:
        """Whether the defection share settled over the last ``window`` epochs."""
        series = self.defection_series()
        if len(series) < window:
            return False
        tail = series[-window:]
        return max(tail) - min(tail) <= tolerance

    def to_payload(self) -> Dict[str, object]:
        """The JSON-serializable shard result."""
        return {
            "scenario": self.scenario,
            "scheme": self.scheme,
            "b_i": self.b_i,
            "alpha": self.alpha,
            "beta": self.beta,
            "epochs": [record.to_row() for record in self.records],
        }

    @staticmethod
    def from_payload(payload: Mapping[str, object]) -> "ScenarioTrajectory":
        """Rebuild a trajectory from its to_payload() mapping (shard cache)."""
        return ScenarioTrajectory(
            scenario=str(payload["scenario"]),
            scheme=str(payload["scheme"]),
            b_i=float(payload["b_i"]),
            alpha=float(payload["alpha"]),
            beta=float(payload["beta"]),
            records=[EpochRecord.from_row(row) for row in payload["epochs"]],  # type: ignore[union-attr]
        )
