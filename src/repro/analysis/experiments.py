"""One declarative spec per experiment, shared by the CLI and the service.

Each paper artifact is an :class:`ExperimentSpec`: the :class:`Field` s
it accepts (each declared once, with one default and one validator), a
``build`` that turns validated values into the library config, a
``run`` that executes that config, and the ``render`` / ``write`` /
``payload`` views of the result.  Both surfaces are generated from
:data:`EXPERIMENTS`:

- ``repro-runner`` (:mod:`repro.analysis.runner`) adds one flag per
  distinct field (``chunk_agents`` -> ``--chunk-agents``; a repeatable
  field drops its plural ``s``: ``schemes`` -> ``--scheme``) and runs
  ``run_experiment(name, scale, ..., **fields)``;
- the job service (:mod:`repro.service.jobs`) serves every spec that
  names a ``kind``, validates a request with :meth:`ExperimentSpec.resolve`,
  keys it by :meth:`ExperimentSpec.params` and serves ``payload``
  serialized by :func:`dump_payload` — the bytes the CLI writes to
  ``<name>.json`` under ``--out`` (``scale.audit.json`` for ``scale``,
  which is served as ``audit``).

A field's default resolves in three layers: the field's own default,
the spec's per-experiment ``defaults``, and the per-``--scale`` presets
in :data:`_SCALES`, which also hold fixed shape constants such as the
fig3 run count.  The service runs the ``small`` preset, except for the
three values in :data:`SERVICE_DEFAULTS`.  Every table is built once at
import, so validating a request costs a few dict lookups, and every
engine is imported at its first use (:func:`_lazy`), so neither surface
loads numpy or an experiment it does not run.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from importlib import import_module
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.errors import ConfigurationError
from repro.populations import DEFAULT_CHUNK_AGENTS
from repro.schemes.registry import get_scheme
from repro.sim.config import check_backend

__all__ = [
    "EXPERIMENTS",
    "FIELDS",
    "SERVICE_DEFAULTS",
    "ExperimentSpec",
    "Field",
    "dump_payload",
]

#: Per-``--scale`` values of each experiment: field defaults (``agents``,
#: ``epochs``, ...) plus fixed shape constants no surface sets (fig3's
#: runs/rounds/nodes, fig5's nodes, fig6/fig7c's instances).
_SCALES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "small": {
        "fig3": {"runs": 2, "rounds": 6, "nodes": 40},
        "fig5": {"nodes": 50_000},
        "fig6": {"instances": 2},
        "fig7c": {"instances": 2},
        "scenarios": {"players": 28, "epochs": 10, "replications": 2, "simulate_rounds": 2},
        "tournament": {"players": 24, "epochs": 8, "replications": 1, "simulate_rounds": 1},
        "scale": {"agents": 20_000},
        "dynamics": {"agents": 24_576, "epochs": 6, "name": "dynamics-small"},
    },
    "bench": {
        "fig3": {"runs": 3, "rounds": 12, "nodes": 60},
        "fig5": {"nodes": 500_000},
        "fig6": {"instances": 8},
        "fig7c": {"instances": 4},
        "scenarios": {"players": 48, "epochs": 16, "replications": 4, "simulate_rounds": 2},
        "tournament": {"players": 32, "epochs": 12, "replications": 2, "simulate_rounds": 2},
        "scale": {"agents": 1_000_000},
        "dynamics": {"agents": 1_000_000, "epochs": 20, "name": "dynamics-bench"},
    },
    "paper": {
        "fig3": {"runs": 100, "rounds": 60, "nodes": 100},
        "fig5": {"nodes": 500_000},
        "fig6": {"instances": 200},
        "fig7c": {"instances": 100},
        "scenarios": {"players": 80, "epochs": 30, "replications": 10, "simulate_rounds": 4},
        "tournament": {"players": 64, "epochs": 24, "replications": 6, "simulate_rounds": 2},
        "scale": {"agents": 10_000_000},
        "dynamics": {"agents": 10_000_000, "epochs": 30, "name": "dynamics-paper"},
    },
}

#: Where the service's defaults differ from the ``small`` preset.  These
#: predate the shared spec and are part of existing job keys and payloads;
#: aligning them with the CLI would change served bytes.
SERVICE_DEFAULTS: Dict[str, Dict[str, Any]] = {
    "scenarios": {"seed": 7},
    "tournament": {"seed": 11},
    "dynamics": {"name": "dynamics"},
}


def dump_payload(payload: Mapping[str, Any]) -> str:
    """The one serialization of a result payload (served and written)."""
    return json.dumps(payload, indent=2, sort_keys=True)


# -- validators: (label, value) -> canonical value ----------------------------


def _count(minimum: int) -> Callable[[str, Any], int]:
    def check(label: str, value: Any) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigurationError(f"{label} must be an integer, got {value!r}")
        if value < minimum:
            raise ConfigurationError(f"{label} must be >= {minimum}, got {value}")
        return value

    return check


def _text(label: str, value: Any) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigurationError(f"{label} must be a non-empty string, got {value!r}")
    return value


def _axis(label: str, value: Any) -> Tuple[float, ...]:
    """An audit-grid axis; empty means the experiment's single default cell."""
    if not isinstance(value, (list, tuple)):
        raise ConfigurationError(f"{label} must be an array of numbers")
    for item in value:
        if (
            isinstance(item, bool)
            or not isinstance(item, (int, float))
            or not (math.isfinite(item) and item > 0)
        ):
            raise ConfigurationError(
                f"{label} entries must be positive and finite numbers, got {item!r}"
            )
    return tuple(float(item) for item in value)


def _backend(label: str, value: Any) -> Optional[str]:
    """``None`` (the experiment's own default) or a checked backend."""
    return None if value is None else check_backend(label, value)


def _schemes(label: str, value: Any) -> Tuple[str, ...]:
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(name, str) for name in value
    ):
        raise ConfigurationError(f"{label} must be an array of scheme names")
    for name in value:
        get_scheme(name)  # SchemeError (a ConfigurationError) on unknown
    return tuple(value)


def _family_params(label: str, value: Any) -> Dict[str, Any]:
    """A JSON object, or ``KEY=VALUE`` strings whose values parse as JSON
    where possible and stay strings otherwise (``path=snap.txt``)."""
    if isinstance(value, Mapping):
        return dict(value)
    if not isinstance(value, (list, tuple)):
        raise ConfigurationError(f"{label} must be an object or KEY=VALUE strings")
    params: Dict[str, Any] = {}
    for token in value:
        key, separator, text = (
            token.partition("=") if isinstance(token, str) else ("", "", "")
        )
        if not (key and separator):
            raise ConfigurationError(f"{label} expects KEY=VALUE, got {token!r}")
        try:
            params[key] = json.loads(text)
        except json.JSONDecodeError:
            params[key] = text
    return params


@dataclass(frozen=True)
class Field:
    """One experiment setting: its default, its validator, its CLI spelling.

    ``check(label, value)`` returns the canonical value or raises a
    :class:`~repro.errors.ConfigurationError` naming ``label``; a field
    with ``choices`` is checked by membership instead.  ``parse`` turns
    one CLI token into the value ``check`` expects, and a ``repeated``
    field collects every occurrence of its flag into a list.  ``default``
    is ``None`` where every experiment's preset supplies the value.
    """

    name: str
    help: str
    check: Optional[Callable[[str, Any], Any]] = None
    default: Any = None
    choices: Tuple[Any, ...] = ()
    parse: Callable[[str], Any] = str
    repeated: bool = False
    metavar: Optional[str] = None

    @property
    def flag(self) -> str:
        """The CLI flag: dashes for underscores, singular if repeated."""
        stem = self.name[:-1] if self.repeated else self.name
        return "--" + stem.replace("_", "-")

    def validate(self, value: Any, label: str) -> Any:
        """The canonical value, or a ConfigurationError naming ``label``."""
        if self.choices:
            if value not in self.choices:
                raise ConfigurationError(
                    f"{label} must be one of {list(self.choices)}, got {value!r}"
                )
            return value
        return self.check(label, value)


#: Every settable field, in CLI help order.
FIELDS: Dict[str, Field] = {
    f.name: f
    for f in (
        Field("seed", "root seed of every random stream (default: the "
              "experiment's own)", _count(0), default=2021, parse=int),
        Field("backend", "simulation engine; 'fast', the vectorized round "
              "kernel, is the only one", _backend, metavar="fast"),
        Field("family", "population generator family (zipf, pareto, lognormal, "
              "uniform, normal, exchange_snapshot)", _text, default="zipf"),
        Field("family_params", "generator-family parameter, e.g. exponent=1.8 "
              "or path=snap.txt (repeatable; values parse as JSON where "
              "possible)", _family_params, default={}, repeated=True,
              metavar="KEY=VALUE"),
        Field("agents", "population size", _count(1), parse=int),
        Field("chunk_agents", "agents held in memory at once (results are "
              "identical at any value)", _count(1), default=DEFAULT_CHUNK_AGENTS,
              parse=int),
        Field("dtype", "stake/cost storage dtype (float32 halves memory)",
              default="float64", choices=("float64", "float32")),
        Field("schemes", "reward scheme to include (repeatable; default: all "
              "registered for scale, foundation + role_based for dynamics)",
              _schemes, default=(), repeated=True, metavar="SCHEME"),
        Field("epochs", "epoch count", _count(1), parse=int),
        Field("players", "players per scenario", _count(1), parse=int),
        Field("replications", "replications per scenario and scheme",
              _count(1), parse=int),
        Field("simulate_rounds", "protocol rounds simulated per epoch",
              _count(0), parse=int),
        Field("budget_multipliers", "audit-grid budget axis: multiples of the "
              "Theorem 3 bound (repeatable; default 1.5)", _axis, default=(),
              parse=float, repeated=True, metavar="X"),
        Field("cost_scales", "audit-grid cost axis: role-cost scale factors "
              "(repeatable; default 1.0)", _axis, default=(), parse=float,
              repeated=True, metavar="X"),
        Field("name", "label of the dynamics run, the prefix of its payload "
              "keys", _text),
    )
}


def _lazy(target: str) -> Callable[..., Any]:
    """``"module:function"``, imported at its first call, so the CLI and the
    service start without loading every experiment's engine."""
    module, _, name = target.partition(":")
    return lambda *args, **kwargs: getattr(import_module(module), name)(*args, **kwargs)


_defection_config = _lazy("repro.analysis.defection:DefectionExperimentConfig")
_comparison_config = _lazy("repro.analysis.reward_comparison:RewardComparisonConfig")
_surface_config = _lazy("repro.analysis.reward_surface:RewardSurfaceConfig")
_table2 = _lazy("repro.analysis.tables:table2")
_table3 = _lazy("repro.analysis.tables:table3")


def _render(result: Any) -> str:
    return result.render()


def _to_csv(result: Any, path: Path) -> None:
    result.to_csv(path)


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment, declared once for the CLI and the service.

    ``build(values)`` turns resolved values into the library config and
    raises :class:`~repro.errors.ConfigurationError` for anything the
    field validators cannot see alone (an unknown population family);
    both surfaces call it before any work starts.
    ``run(config, workers=, cache_dir=, progress=, policy=)`` executes
    it.  ``render`` gives the ASCII rendition, ``write(result, csv_path)``
    the CSV/markdown artifacts, and ``payload`` the deterministic dict
    that the service serves as job ``kind``.
    """

    name: str
    fields: Tuple[str, ...]
    build: Callable[[Mapping[str, Any]], Any]
    run: Callable[..., Any]
    render: Callable[[Any], str] = _render
    write: Callable[[Any, Path], None] = _to_csv
    payload: Optional[Callable[[Any], Dict[str, Any]]] = None
    kind: Optional[str] = None
    defaults: Mapping[str, Any] = field(default_factory=dict)
    #: Resolved defaults per ``--scale``, and the service's.
    presets: Dict[str, Dict[str, Any]] = field(init=False, repr=False)
    served: Dict[str, Any] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        base = {name: FIELDS[name].default for name in self.fields}
        base.update(self.defaults)
        presets = {
            scale: {**base, **shapes.get(self.name, {})}
            for scale, shapes in _SCALES.items()
        }
        object.__setattr__(self, "presets", presets)
        object.__setattr__(
            self, "served", {**presets["small"], **SERVICE_DEFAULTS.get(self.name, {})}
        )

    @property
    def payload_file(self) -> str:
        """Where ``--out`` receives the payload: ``<name>[.<kind>].json``."""
        suffix = "" if self.kind in (None, self.name) else f".{self.kind}"
        return f"{self.name}{suffix}.json"

    def resolve(
        self,
        given: Mapping[str, Any],
        preset: Mapping[str, Any],
        flags: bool = False,
        owner: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Validate ``given`` over ``preset``; errors name the field
        (or its CLI flag with ``flags``) and the ``owner`` of the fields."""
        unknown = sorted(set(given) - set(self.fields))
        if unknown:
            raise ConfigurationError(
                f"unknown parameter(s) for {owner or self.name!r}: "
                f"{', '.join(unknown)}; allowed: {', '.join(self.fields)}"
            )
        values = dict(preset)
        for name, value in given.items():
            spec = FIELDS[name]
            values[name] = spec.validate(value, spec.flag if flags else repr(name))
        return values

    def configure(self, scale: str, given: Mapping[str, Any], flags: bool = False) -> Any:
        """Validate ``given`` over the ``scale`` preset and build the config."""
        if scale not in self.presets:
            raise ConfigurationError(
                f"unknown scale {scale!r}; choose from {sorted(self.presets)}"
            )
        return self.build(self.resolve(given, self.presets[scale], flags=flags))

    def params(self, values: Mapping[str, Any]) -> Dict[str, Any]:
        """The JSON-ready field values: a job's canonical, keyed params."""
        return {
            name: list(values[name]) if isinstance(values[name], tuple)
            else dict(values[name]) if isinstance(values[name], dict)
            else values[name]
            for name in self.fields
        }


# -- builders, runners and views ----------------------------------------------


def _build_scale(values: Mapping[str, Any]) -> Any:
    from repro.analysis.scale import ScaleConfig

    config = ScaleConfig(
        family=values["family"],
        family_params=values["family_params"],
        n_agents=values["agents"],
        schemes=values["schemes"],
        chunk_agents=values["chunk_agents"],
        dtype=values["dtype"],
        seed=values["seed"],
        budget_multipliers=values["budget_multipliers"],
        cost_scales=values["cost_scales"],
    )
    config.population_spec()  # an unknown family or bad params fail here
    return config


def _run_scale(config: Any, **_context: Any) -> Any:
    from repro.analysis.scale import run_scale

    return run_scale(config)


def _write_scale(result: Any, path: Path) -> None:
    result.to_csv(path)
    path.with_suffix(".json").write_text(dump_payload(result.to_payload()))


def _build_dynamics(values: Mapping[str, Any]) -> Any:
    from repro.populations.spec import PopulationSpec
    from repro.scenarios.population_dynamics import PopulationDynamicsSpec

    population = PopulationSpec(
        family=values["family"],
        size=values["agents"],
        params=values["family_params"],
        cooperation=0.9,
        dtype=values["dtype"],
        seed=values["seed"],
    )
    spec = PopulationDynamicsSpec(
        name=values["name"],
        population=population,
        n_epochs=values["epochs"],
        chunk_agents=values["chunk_agents"],
    )
    return spec, values["schemes"]


def _run_dynamics(config: Any, **context: Any) -> Any:
    from repro.scenarios.population_dynamics import run_population_dynamics_campaign

    spec, schemes = config
    return run_population_dynamics_campaign(
        [spec], schemes, seed=spec.population.seed, **context
    )


def _campaign(values: Mapping[str, Any]) -> Dict[str, Any]:
    """The scenario-campaign shape shared by ``scenarios`` and ``tournament``."""
    return {
        "n_replications": values["replications"],
        "n_players": values["players"],
        "n_epochs": values["epochs"],
        "simulate_rounds": values["simulate_rounds"],
        "seed": values["seed"],
    }


def _build_scenarios(values: Mapping[str, Any]) -> Any:
    from repro.scenarios import ScenarioCampaignConfig

    return ScenarioCampaignConfig(**_campaign(values))


def _build_tournament(values: Mapping[str, Any]) -> Any:
    from repro.schemes.tournament import TournamentConfig, tournament_audit

    audit = tournament_audit(values["budget_multipliers"], values["cost_scales"])
    return TournamentConfig(**_campaign(values), audit=audit)


def _write_tournament(result: Any, path: Path) -> None:
    result.to_csv(path)
    result.to_markdown(path.with_suffix(".md"))


_DYNAMICS = "repro.scenarios.population_dynamics"
_SIMULATION = ("players", "epochs", "replications", "simulate_rounds", "seed", "backend")
_POPULATION = ("family", "family_params", "agents", "chunk_agents", "dtype")

#: The experiment registry, in CLI order.
EXPERIMENTS: Dict[str, ExperimentSpec] = {
    spec.name: spec
    for spec in (
        ExperimentSpec(
            "table2", (), build=lambda values: None, run=lambda _config, **_: _table2()
        ),
        ExperimentSpec(
            "table3", (), build=lambda values: None, run=lambda _config, **_: _table3()
        ),
        ExperimentSpec(
            "fig3",
            ("seed", "backend"),
            build=lambda values: _defection_config(
                n_runs=values["runs"],
                n_rounds=values["rounds"],
                n_nodes=values["nodes"],
                seed=values["seed"],
                backend=values["backend"],
            ),
            run=_lazy("repro.analysis.defection:run_defection_experiment"),
            defaults={"seed": 2020, "backend": "fast"},
        ),
        ExperimentSpec(
            "fig5",
            ("seed",),
            build=lambda values: _surface_config(
                n_nodes=values["nodes"], seed=values["seed"]
            ),
            run=_lazy("repro.analysis.reward_surface:run_reward_surface"),
            defaults={"seed": 5},
        ),
        ExperimentSpec(
            "fig6",
            ("seed",),
            build=lambda values: _comparison_config(
                n_instances=values["instances"], seed=values["seed"]
            ),
            run=_lazy("repro.analysis.reward_comparison:run_reward_comparison"),
            render=lambda result: "\n\n".join(
                [result.render_figure6(), result.render_figure7a(), result.render_figure7b()]
            ),
            defaults={"seed": 7},
        ),
        ExperimentSpec(
            "fig7c",
            ("seed",),
            build=lambda values: _comparison_config(
                n_instances=values["instances"], n_rounds=3, seed=values["seed"]
            ),
            run=_lazy("repro.analysis.reward_comparison:run_truncation_experiment"),
            defaults={"seed": 7},
        ),
        ExperimentSpec(
            "scenarios",
            _SIMULATION,
            build=_build_scenarios,
            run=_lazy("repro.scenarios:run_scenarios_campaign"),
            payload=lambda result: {
                f"{scenario}/{scheme}": asdict(trajectory)
                for (scenario, scheme), trajectory in result.trajectories.items()
            },
            kind="scenarios",
        ),
        ExperimentSpec(
            "tournament",
            _SIMULATION + ("budget_multipliers", "cost_scales"),
            build=_build_tournament,
            run=_lazy("repro.schemes.tournament:run_tournament"),
            write=_write_tournament,
            payload=lambda result: {
                "standings": [asdict(standing) for standing in result.standings]
            },
            kind="tournament",
        ),
        ExperimentSpec(
            "scale",
            _POPULATION + ("schemes", "seed", "budget_multipliers", "cost_scales"),
            build=_build_scale,
            run=_run_scale,
            write=_write_scale,
            payload=lambda result: result.audit_payload(),
            kind="audit",
        ),
        ExperimentSpec(
            "dynamics",
            ("name",) + _POPULATION + ("epochs", "schemes", "seed"),
            build=_build_dynamics,
            run=_run_dynamics,
            render=_lazy(f"{_DYNAMICS}:render_dynamics_trajectories"),
            write=_lazy(f"{_DYNAMICS}:dynamics_to_csv"),
            payload=lambda trajectories: {
                f"{name}/{scheme}": trajectory.to_payload()
                for (name, scheme), trajectory in trajectories.items()
            },
            kind="dynamics",
            defaults={"schemes": ("foundation", "role_based")},
        ),
    )
}
