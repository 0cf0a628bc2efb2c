"""Job kinds: validated, content-addressed units of service work.

Every ``POST /v1/jobs`` body names a **kind** (``audit``, ``dynamics``,
``scenarios``, ``tournament``) plus a ``params`` object.  This module
turns that pair into a :class:`PreparedJob`: parameters are validated
*eagerly* — unknown kinds, unknown fields, unknown scheme or population
family names all raise :class:`~repro.errors.ConfigurationError` at
submission time, so the HTTP front end can answer a structured 400 and a
bad request never reaches a worker thread — and normalized into a
canonical dict whose SHA-256 content hash (the same
:func:`~repro.analysis.sweep.canonical_json` idiom the shard cache uses)
becomes the job's **memoization key**.  Two requests that mean the same
computation hash to the same key no matter how their JSON was spelled,
which is what makes single-flight deduplication and repeat-request cache
hits sound.

Execution is deliberately boring: each kind's ``run`` closure calls the
exact library entry point the CLI calls (:func:`repro.analysis.scale.run_scale`,
:func:`repro.scenarios.population_dynamics.run_population_dynamics_campaign`,
:func:`repro.scenarios.run_scenarios_campaign`,
:func:`repro.schemes.tournament.run_tournament`) and returns the same
deterministic, timing-free payload dict the CLI writes to disk — the
served result is byte-identical to the equivalent command-line run by
construction, not by testing alone (the black-box suite checks it
anyway).
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.analysis.retry import ExecutionPolicy
from repro.analysis.sweep import canonical_json
from repro.errors import ConfigurationError
from repro.populations.spec import PopulationSpec
from repro.schemes.registry import get_scheme
from repro.sim.config import SIMULATION_BACKENDS

__all__ = [
    "JOB_KINDS",
    "JobContext",
    "PreparedJob",
    "job_key",
    "prepare_job",
]


@dataclass(frozen=True)
class JobContext:
    """Execution resources a job inherits from the service, not the request.

    These knobs (worker-pool size, shard-cache directory, robustness
    policy) belong to the operator — ``repro-runner serve`` flags — and
    are deliberately **excluded from the memoization key**: the same
    spec computed on 1 worker or 8 is the same bytes, so it must be the
    same cache entry.
    """

    workers: Union[int, str] = 1
    cache_dir: Optional[Path] = None
    policy: Optional[ExecutionPolicy] = None


@dataclass(frozen=True)
class PreparedJob:
    """A validated request, ready to queue: kind + canonical params + closure.

    ``key`` is the content hash of ``(kind, params)``; ``run`` executes
    the job and returns the deterministic payload dict.
    """

    kind: str
    params: Dict[str, Any] = field(compare=False)
    key: str = field(compare=False)
    run: Callable[[JobContext], Dict[str, Any]] = field(compare=False, repr=False)


def job_key(kind: str, params: Mapping[str, Any]) -> str:
    """The memoization key: SHA-256 over the canonical-JSON (kind, params).

    Reuses :func:`~repro.analysis.sweep.canonical_json` (sorted keys, no
    whitespace drift) so the key is stable across processes and sessions
    — the same idiom that keys the orchestrator's shard cache.
    """
    blob = canonical_json({"kind": kind, "params": dict(params)})
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _require_mapping(params: Any) -> Dict[str, Any]:
    if params is None:
        return {}
    if not isinstance(params, Mapping):
        raise ConfigurationError(
            f"'params' must be a JSON object, got {type(params).__name__}"
        )
    return dict(params)


def _reject_unknown(kind: str, params: Mapping[str, Any], allowed: Tuple[str, ...]):
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise ConfigurationError(
            f"unknown parameter(s) for {kind!r} job: {', '.join(unknown)}; "
            f"allowed: {', '.join(allowed)}"
        )


def _int(params: Mapping[str, Any], name: str, default: int, minimum: int = 1) -> int:
    value = params.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{name!r} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigurationError(f"{name!r} must be >= {minimum}, got {value}")
    return value


def _float_tuple(params: Mapping[str, Any], name: str) -> Tuple[float, ...]:
    raw = params.get(name, [])
    if not isinstance(raw, (list, tuple)):
        raise ConfigurationError(f"{name!r} must be a JSON array of numbers")
    values: List[float] = []
    for item in raw:
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ConfigurationError(f"{name!r} entries must be numbers, got {item!r}")
        values.append(float(item))
    return tuple(values)


def _schemes(params: Mapping[str, Any], default: Tuple[str, ...]) -> Tuple[str, ...]:
    """Validate requested scheme names against the registry (400 on unknown)."""
    raw = params.get("schemes", list(default))
    if not isinstance(raw, (list, tuple)) or not all(
        isinstance(name, str) for name in raw
    ):
        raise ConfigurationError("'schemes' must be a JSON array of scheme names")
    for name in raw:
        get_scheme(name)  # SchemeError (a ConfigurationError) on unknown
    return tuple(raw)


def _backend(params: Mapping[str, Any]) -> Optional[str]:
    backend = params.get("backend")
    if backend is not None and backend not in SIMULATION_BACKENDS:
        raise ConfigurationError(
            f"unknown backend {backend!r}; choose from {sorted(SIMULATION_BACKENDS)}"
        )
    return backend


def _dtype(params: Mapping[str, Any]) -> str:
    """The population storage dtype (the CLI's ``--dtype`` choices)."""
    dtype = params.get("dtype", "float64")
    if dtype not in ("float64", "float32"):
        raise ConfigurationError(f"'dtype' must be float64 or float32, got {dtype!r}")
    return dtype


def _family_params(params: Mapping[str, Any]) -> Dict[str, Any]:
    raw = params.get("family_params", {})
    if not isinstance(raw, Mapping):
        raise ConfigurationError("'family_params' must be a JSON object")
    return dict(raw)


# -- audit ----------------------------------------------------------------


_AUDIT_FIELDS = (
    "family",
    "family_params",
    "agents",
    "schemes",
    "chunk_agents",
    "dtype",
    "seed",
    "budget_multipliers",
    "cost_scales",
)


def _prepare_audit(raw: Mapping[str, Any]) -> PreparedJob:
    """The ``audit`` kind: a population-scale epsilon-IC audit (grid) run."""
    from repro.analysis.scale import ScaleConfig

    _reject_unknown("audit", raw, _AUDIT_FIELDS)
    dtype = _dtype(raw)
    config = ScaleConfig(
        family=raw.get("family", "zipf"),
        family_params=_family_params(raw),
        n_agents=_int(raw, "agents", 20_000),
        schemes=_schemes(raw, ()),
        chunk_agents=(
            _int(raw, "chunk_agents", 1) if "chunk_agents" in raw else None
        ),
        dtype=dtype,
        seed=_int(raw, "seed", 2021, minimum=0),
        budget_multipliers=_float_tuple(raw, "budget_multipliers"),
        cost_scales=_float_tuple(raw, "cost_scales"),
    )
    config.population_spec()  # eager family validation -> ConfigurationError
    config.audit_config()
    for name in config.scheme_list():
        get_scheme(name)
    params = {
        "family": config.family,
        "family_params": dict(config.family_params),
        "agents": config.n_agents,
        "schemes": list(config.schemes),
        "chunk_agents": config.chunk_agents,
        "dtype": config.dtype,
        "seed": config.seed,
        "budget_multipliers": list(config.budget_multipliers),
        "cost_scales": list(config.cost_scales),
    }

    def run(context: JobContext) -> Dict[str, Any]:
        """Stream the audit and return the deterministic verdict payload."""
        from repro.analysis.scale import run_scale

        return run_scale(config).audit_payload()

    return PreparedJob("audit", params, job_key("audit", params), run)


# -- dynamics -------------------------------------------------------------


_DYNAMICS_FIELDS = (
    "name",
    "family",
    "family_params",
    "agents",
    "chunk_agents",
    "dtype",
    "epochs",
    "schemes",
    "seed",
)


def _prepare_dynamics(raw: Mapping[str, Any]) -> PreparedJob:
    """The ``dynamics`` kind: streamed Section V evolutionary epochs."""
    from repro.populations.arrays import DEFAULT_CHUNK_AGENTS

    _reject_unknown("dynamics", raw, _DYNAMICS_FIELDS)
    name = raw.get("name", "dynamics")
    if not isinstance(name, str) or not name:
        raise ConfigurationError("'name' must be a non-empty string")
    seed = _int(raw, "seed", 2021, minimum=0)
    population = PopulationSpec(
        family=raw.get("family", "zipf"),
        size=_int(raw, "agents", 24_576),
        params=_family_params(raw),
        cooperation=0.9,
        dtype=_dtype(raw),
        seed=seed,
    )
    schemes = _schemes(raw, ("foundation", "role_based"))
    params = {
        "name": name,
        "family": population.family,
        "family_params": dict(population.params),
        "agents": population.size,
        "chunk_agents": _int(raw, "chunk_agents", DEFAULT_CHUNK_AGENTS),
        "dtype": population.dtype,
        "epochs": _int(raw, "epochs", 6),
        "schemes": list(schemes),
        "seed": seed,
    }

    def run(context: JobContext) -> Dict[str, Any]:
        """Run the dynamics campaign; payload matches ``dynamics.json``."""
        from repro.scenarios.population_dynamics import (
            PopulationDynamicsSpec,
            run_population_dynamics_campaign,
        )

        spec = PopulationDynamicsSpec(
            name=params["name"],
            population=population,
            n_epochs=params["epochs"],
            chunk_agents=params["chunk_agents"],
        )
        trajectories = run_population_dynamics_campaign(
            [spec],
            schemes,
            seed=seed,
            workers=context.workers,
            cache_dir=context.cache_dir,
            progress=False,
            policy=context.policy,
        )
        return {
            f"{spec_name}/{scheme}": trajectory.to_payload()
            for (spec_name, scheme), trajectory in trajectories.items()
        }

    return PreparedJob("dynamics", params, job_key("dynamics", params), run)


# -- scenarios ------------------------------------------------------------


_SCENARIOS_FIELDS = (
    "players",
    "epochs",
    "replications",
    "simulate_rounds",
    "seed",
    "backend",
)


def _prepare_scenarios(raw: Mapping[str, Any]) -> PreparedJob:
    """The ``scenarios`` kind: the strategic-participation campaign."""
    _reject_unknown("scenarios", raw, _SCENARIOS_FIELDS)
    params = {
        "players": _int(raw, "players", 28),
        "epochs": _int(raw, "epochs", 10),
        "replications": _int(raw, "replications", 2),
        "simulate_rounds": _int(raw, "simulate_rounds", 2, minimum=0),
        "seed": _int(raw, "seed", 7, minimum=0),
        "backend": _backend(raw),
    }

    def run(context: JobContext) -> Dict[str, Any]:
        """Run the campaign; one entry per (scenario, scheme) trajectory."""
        from repro.scenarios import ScenarioCampaignConfig, run_scenarios_campaign

        config = ScenarioCampaignConfig(
            n_replications=params["replications"],
            n_players=params["players"],
            n_epochs=params["epochs"],
            simulate_rounds=params["simulate_rounds"],
            backend=params["backend"],
            seed=params["seed"],
        )
        result = run_scenarios_campaign(
            config,
            workers=context.workers,
            cache_dir=context.cache_dir,
            progress=False,
            policy=context.policy,
        )
        return {
            f"{scenario}/{scheme}": asdict(trajectory)
            for (scenario, scheme), trajectory in result.trajectories.items()
        }

    return PreparedJob("scenarios", params, job_key("scenarios", params), run)


# -- tournament -----------------------------------------------------------


_TOURNAMENT_FIELDS = _SCENARIOS_FIELDS + ("budget_multipliers", "cost_scales")


def _prepare_tournament(raw: Mapping[str, Any]) -> PreparedJob:
    """The ``tournament`` kind: the cross-scheme ranked league."""
    from repro.schemes.tournament import (
        TournamentConfig,
        run_tournament,
        tournament_audit,
    )

    _reject_unknown("tournament", raw, _TOURNAMENT_FIELDS)
    params = {
        "players": _int(raw, "players", 24),
        "epochs": _int(raw, "epochs", 8),
        "replications": _int(raw, "replications", 1),
        "simulate_rounds": _int(raw, "simulate_rounds", 1, minimum=0),
        "seed": _int(raw, "seed", 11, minimum=0),
        "backend": _backend(raw),
        "budget_multipliers": list(_float_tuple(raw, "budget_multipliers")),
        "cost_scales": list(_float_tuple(raw, "cost_scales")),
    }
    # Built here, not in ``run``: a bad audit axis (NaN, <= 0) is a 400.
    config = TournamentConfig(
        n_replications=params["replications"],
        n_players=params["players"],
        n_epochs=params["epochs"],
        simulate_rounds=params["simulate_rounds"],
        backend=params["backend"],
        seed=params["seed"],
        audit=tournament_audit(params["budget_multipliers"], params["cost_scales"]),
    )

    def run(context: JobContext) -> Dict[str, Any]:
        """Run the league; payload is the ranked standings table."""
        result = run_tournament(
            config,
            workers=context.workers,
            cache_dir=context.cache_dir,
            progress=False,
            policy=context.policy,
        )
        return {"standings": [asdict(standing) for standing in result.standings]}

    return PreparedJob("tournament", params, job_key("tournament", params), run)


#: The job-kind registry: request ``kind`` -> prepare function.  Adding a
#: kind means adding one entry here plus its prepare function above; the
#: engine and HTTP layer are kind-agnostic.
JOB_KINDS: Dict[str, Callable[[Mapping[str, Any]], PreparedJob]] = {
    "audit": _prepare_audit,
    "dynamics": _prepare_dynamics,
    "scenarios": _prepare_scenarios,
    "tournament": _prepare_tournament,
}


def prepare_job(kind: Any, params: Any) -> PreparedJob:
    """Validate and normalize one request into a :class:`PreparedJob`.

    Raises :class:`~repro.errors.ConfigurationError` (mapped to a
    structured HTTP 400 by the front end) for an unknown kind, non-object
    params, unknown fields, out-of-range values, or unknown scheme /
    population-family names — all *before* the job can reach the queue.
    """
    if not isinstance(kind, str) or kind not in JOB_KINDS:
        raise ConfigurationError(
            f"unknown job kind {kind!r}; choose from {sorted(JOB_KINDS)}"
        )
    return JOB_KINDS[kind](_require_mapping(params))
