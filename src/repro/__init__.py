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

import importlib as _importlib
from importlib import metadata as _metadata
from typing import TYPE_CHECKING

try:
    # setup.py is the single source of truth; installed metadata carries it.
    __version__ = _metadata.version("algorand-role-rewards-repro")
except _metadata.PackageNotFoundError:  # running from a bare source tree
    __version__ = "0.0.0+uninstalled"

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

if TYPE_CHECKING:  # pragma: no cover - typing aid only
    from repro.populations import (
        PopulationArrays,
        PopulationSpec,
        family_names,
        population_family,
    )
    from repro.scenarios import (
        ScenarioSpec,
        get_scenario,
        register_scenario,
        scenario_names,
    )
    from repro.schemes import (
        RewardScheme,
        get_scheme,
        register_scheme,
        scheme_names,
    )
    from repro.telemetry import MetricsRegistry, capture, get_registry, span

#: Registry re-exports resolved lazily (PEP 562): the scenario and scheme
#: packages pull in numpy and the experiment drivers, which light
#: consumers of ``repro.__version__`` (e.g. ``repro-runner --version``)
#: should not pay ~0.4s of import time for.
_LAZY_EXPORTS = {
    "PopulationArrays": "repro.populations",
    "PopulationSpec": "repro.populations",
    "family_names": "repro.populations",
    "population_family": "repro.populations",
    "ScenarioSpec": "repro.scenarios",
    "get_scenario": "repro.scenarios",
    "register_scenario": "repro.scenarios",
    "scenario_names": "repro.scenarios",
    "RewardScheme": "repro.schemes",
    "get_scheme": "repro.schemes",
    "register_scheme": "repro.schemes",
    "scheme_names": "repro.schemes",
    "MetricsRegistry": "repro.telemetry",
    "capture": "repro.telemetry",
    "get_registry": "repro.telemetry",
    "span": "repro.telemetry",
}


def __getattr__(name: str):
    try:
        module_name = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    value = getattr(_importlib.import_module(module_name), name)
    globals()[name] = value  # cache: subsequent lookups skip __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))


__all__ = [
    "AuditError",
    "ConfigurationError",
    "GameError",
    "InfeasibleRewardError",
    "MechanismError",
    "MetricsRegistry",
    "PopulationArrays",
    "PopulationSpec",
    "ReproError",
    "RewardScheme",
    "ScenarioSpec",
    "SchemeError",
    "SimulationError",
    "__version__",
    "capture",
    "family_names",
    "get_registry",
    "get_scenario",
    "get_scheme",
    "population_family",
    "register_scenario",
    "register_scheme",
    "scenario_names",
    "scheme_names",
    "span",
]
