"""The scenario registry: named families of participation dynamics.

Seven built-in families (:mod:`repro.scenarios.catalog`) probe the
paper's Section V story from different angles; :func:`register_scenario`
lets downstream experiments add more.  Every family is evaluated under
both reward schemes by the campaign layer
(:mod:`repro.scenarios.experiment`), so each scenario is really a *pair*
of trajectories — naive Foundation sharing versus the role-based split.

The built-ins register on the first use of the registry, so importing
this module loads no scenario code and a spawned worker that never
imported the catalog still finds them.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING, Dict, List

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.scenarios.spec import ScenarioSpec

_REGISTRY: Dict[str, ScenarioSpec] = {}


def _with_builtins() -> None:
    """Register the built-in families ahead of anything else (see
    :func:`repro.schemes.registry._with_builtins`)."""
    import_module("repro.scenarios.catalog")


def register_scenario(spec: ScenarioSpec, overwrite: bool = False) -> ScenarioSpec:
    """Add a scenario family to the registry (name-keyed)."""
    _with_builtins()
    if spec.name in _REGISTRY and not overwrite:
        raise ConfigurationError(f"scenario {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    """Look a family up by name."""
    _with_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; choose from {scenario_names()}"
        ) from None


def scenario_names() -> List[str]:
    """All registered family names, in registration order."""
    _with_builtins()
    return list(_REGISTRY)
