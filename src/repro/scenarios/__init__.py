"""Scenario engine for strategic participation dynamics.

Turns the paper's static Section V comparison into an iterated-game
study: declarative scenario families (:mod:`repro.scenarios.registry`),
an epoch-level dynamics driver (:mod:`repro.scenarios.dynamics`), and
orchestrated multi-scenario campaigns
(:mod:`repro.scenarios.experiment`) that shard, cache and resume exactly
like the fig3–fig7 sweeps.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "dynamics": ("SCHEMES", "run_scenario"),
    "experiment": (
        "MergedTrajectory",
        "ScenarioCampaignConfig",
        "ScenarioCampaignResult",
        "convergence_checks",
        "run_scenarios_campaign",
        "scenarios_sweep_spec",
    ),
    "population_dynamics": (
        "UPDATE_RULES",
        "PopulationDynamicsSpec",
        "dynamics_sweep_spec",
        "dynamics_to_csv",
        "render_dynamics_trajectories",
        "run_population_dynamics",
        "run_population_dynamics_campaign",
    ),
    "registry": ("get_scenario", "register_scenario", "scenario_names"),
    "spec": ("AdversaryPolicy", "DefectionSeeding", "ScenarioSpec", "UpdateRule"),
    "trajectory": ("EpochRecord", "ScenarioTrajectory"),
})
