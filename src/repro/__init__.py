"""repro — reproduction of "On Incentive Compatible Role-based Reward
Distribution in Algorand" (Fooladgar et al., DSN 2020).

The package has five layers:

* :mod:`repro.sim` — an Algorand protocol simulator (sortition, gossip
  reachability, BA* consensus, behaviours) on a vectorized round
  kernel, the substrate of the paper's empirical results.
* :mod:`repro.core` — the paper's contribution: the cost model, the
  Foundation and role-based reward-sharing mechanisms, the game
  G_Al / G_Al+, equilibrium analysis, and Algorithm 1.
* :mod:`repro.schemes` — the pluggable reward-scheme framework: a
  registry of distribution mechanisms (the paper's two plus IRS-style,
  axiomatic-family and hybrid schemes), a vectorized
  incentive-compatibility audit engine, and cross-scheme tournaments.
* :mod:`repro.stakes` — stake-distribution generators and the synthetic
  exchange used in the evaluation.
* :mod:`repro.populations` — streaming million-agent populations:
  columnar agent arrays, chunk-stable generator families (Zipf, Pareto,
  lognormal, empirical exchange snapshots), and the by-reference
  :class:`~repro.populations.spec.PopulationSpec` consumed by the
  chunked audits, tournaments and the ``scale`` runner.
* :mod:`repro.analysis` — experiment drivers regenerating every table and
  figure, with CSV and ASCII-chart rendering.
* :mod:`repro.scenarios` — declarative scenario families and the
  iterated-game campaigns evaluating every scheme's participation
  dynamics.
* :mod:`repro.telemetry` — zero-dependency observability: an in-process
  metrics registry (counters, gauges, log-bucket histograms), span-based
  tracing, multiprocessing-safe snapshot merging, and Prometheus/JSON
  exposition.  Off by default with near-zero overhead.
"""

from repro._lazy import lazy_exports
from repro.errors import (
    AuditError,
    ConfigurationError,
    GameError,
    InfeasibleRewardError,
    MechanismError,
    ReproError,
    SchemeError,
    SimulationError,
)

#: Everything but the errors resolves on first access (PEP 562), so light
#: consumers of ``repro.__version__`` (``repro-runner --version``) load
#: neither numpy nor the experiment drivers.
__getattr__, __dir__, _LAZY = lazy_exports(__name__, {
    "_version": ("__version__",),
    "populations": (
        "PopulationArrays", "PopulationSpec", "family_names", "population_family",
    ),
    "scenarios": ("ScenarioSpec", "get_scenario", "register_scenario", "scenario_names"),
    "schemes": ("RewardScheme", "get_scheme", "register_scheme", "scheme_names"),
    "telemetry": ("MetricsRegistry", "capture", "get_registry", "span"),
})

__all__ = sorted([
    "AuditError",
    "ConfigurationError",
    "GameError",
    "InfeasibleRewardError",
    "MechanismError",
    "ReproError",
    "SchemeError",
    "SimulationError",
    *_LAZY,
])
