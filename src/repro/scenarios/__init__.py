"""Scenario engine for strategic participation dynamics.

Turns the paper's static Section V comparison into an iterated-game
study: declarative scenario families (:mod:`repro.scenarios.registry`),
an epoch-level dynamics driver (:mod:`repro.scenarios.dynamics`), and
orchestrated multi-scenario campaigns
(:mod:`repro.scenarios.experiment`) that shard, cache and resume exactly
like the fig3–fig7 sweeps.
"""

from repro.scenarios.dynamics import (
    SCHEMES,
    EpochRecord,
    ScenarioTrajectory,
    run_scenario,
)
from repro.scenarios.experiment import (
    MergedTrajectory,
    ScenarioCampaignConfig,
    ScenarioCampaignResult,
    convergence_checks,
    run_scenarios_campaign,
    scenarios_sweep_spec,
)
from repro.scenarios.population_dynamics import (
    UPDATE_RULES,
    PopulationDynamicsSpec,
    dynamics_sweep_spec,
    dynamics_to_csv,
    render_dynamics_trajectories,
    run_population_dynamics,
    run_population_dynamics_campaign,
)
from repro.scenarios.registry import (
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.scenarios.spec import (
    AdversaryPolicy,
    DefectionSeeding,
    ScenarioSpec,
    UpdateRule,
)

__all__ = [
    "SCHEMES",
    "UPDATE_RULES",
    "AdversaryPolicy",
    "DefectionSeeding",
    "EpochRecord",
    "MergedTrajectory",
    "PopulationDynamicsSpec",
    "ScenarioCampaignConfig",
    "ScenarioCampaignResult",
    "ScenarioSpec",
    "ScenarioTrajectory",
    "UpdateRule",
    "convergence_checks",
    "dynamics_sweep_spec",
    "dynamics_to_csv",
    "get_scenario",
    "register_scenario",
    "render_dynamics_trajectories",
    "run_population_dynamics",
    "run_population_dynamics_campaign",
    "run_scenario",
    "run_scenarios_campaign",
    "scenario_names",
    "scenarios_sweep_spec",
]
