"""Experiment drivers regenerating every table and figure of the paper.

========  ======================================  =============================
Artifact  Paper content                           Driver
========  ======================================  =============================
Table II  task/cost/role matrix                   :func:`repro.analysis.tables.table2`
Table III Foundation reward schedule              :func:`repro.analysis.tables.table3`
Fig 3     defection cascade (round kernel)        :func:`repro.analysis.defection.run_defection_experiment`
Fig 5     min B_i over (alpha, beta)              :func:`repro.analysis.reward_surface.run_reward_surface`
Fig 6     B_i distribution per stake population   :func:`repro.analysis.reward_comparison.run_reward_comparison`
Fig 7a/b  adaptive vs Foundation rewards          same result object
Fig 7c    small-stake removal                     :func:`repro.analysis.reward_comparison.run_truncation_experiment`
========  ======================================  =============================
"""

from repro.analysis.defection import (
    PAPER_DEFECTION_RATES,
    DefectionExperimentConfig,
    DefectionExperimentResult,
    run_defection_experiment,
    shape_assertions,
)
from repro.analysis.orchestrator import Orchestrator, ShardCache, SweepResult, run_sweep
from repro.analysis.reward_comparison import (
    PAPER_TOTALS,
    RewardComparisonConfig,
    RewardComparisonResult,
    TruncationResult,
    run_reward_comparison,
    run_truncation_experiment,
)
from repro.analysis.reward_surface import (
    RewardSurfaceConfig,
    RewardSurfaceResult,
    run_reward_surface,
)
from repro.analysis.sweep import Shard, SweepSpec, grid_of
from repro.analysis.tables import Table2Result, Table3Result, table2, table3


def __getattr__(name):
    # Lazy re-export: importing ``runner`` eagerly would make
    # ``python -m repro.analysis.runner`` emit a found-in-sys.modules
    # RuntimeWarning (the module would load during package init, before
    # runpy executes it as __main__).
    if name in ("EXPERIMENTS", "run_experiment"):
        from repro.analysis import runner

        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DefectionExperimentConfig",
    "DefectionExperimentResult",
    "EXPERIMENTS",
    "run_experiment",
    "Orchestrator",
    "Shard",
    "ShardCache",
    "SweepResult",
    "SweepSpec",
    "grid_of",
    "run_sweep",
    "PAPER_DEFECTION_RATES",
    "PAPER_TOTALS",
    "RewardComparisonConfig",
    "RewardComparisonResult",
    "RewardSurfaceConfig",
    "RewardSurfaceResult",
    "Table2Result",
    "Table3Result",
    "TruncationResult",
    "run_defection_experiment",
    "run_reward_comparison",
    "run_reward_surface",
    "run_truncation_experiment",
    "shape_assertions",
    "table2",
    "table3",
]
