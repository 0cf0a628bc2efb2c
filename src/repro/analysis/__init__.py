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

from repro._lazy import lazy_exports

# Lazy, like every package: an eager ``runner`` would also make
# ``python -m repro.analysis.runner`` warn that the module was already in
# sys.modules before runpy executed it as __main__.
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "defection": (
        "PAPER_DEFECTION_RATES",
        "DefectionExperimentConfig",
        "DefectionExperimentResult",
        "run_defection_experiment",
        "shape_assertions",
    ),
    "orchestrator": ("Orchestrator", "ShardCache", "SweepResult", "run_sweep"),
    "reward_comparison": (
        "PAPER_TOTALS",
        "RewardComparisonConfig",
        "RewardComparisonResult",
        "TruncationResult",
        "run_reward_comparison",
        "run_truncation_experiment",
    ),
    "reward_surface": ("RewardSurfaceConfig", "RewardSurfaceResult", "run_reward_surface"),
    "runner": ("EXPERIMENTS", "run_experiment"),
    "sweep": ("Shard", "SweepSpec", "grid_of"),
    "tables": ("Table2Result", "Table3Result", "table2", "table3"),
})
