"""Experiment registry and command-line runner.

Regenerate any of the paper's artifacts from the command line::

    python -m repro.analysis.runner table2
    python -m repro.analysis.runner fig5 --out results/
    python -m repro.analysis.runner all --out results/ --scale small
    python -m repro.analysis.runner fig3 --scale paper --workers auto
    python -m repro.analysis.runner fig6 --workers 4 --cache-dir .sweep-cache
    python -m repro.analysis.runner scenarios --scale small --workers 2
    python -m repro.analysis.runner tournament --scale small --workers 2
    python -m repro.analysis.runner dynamics --scale small --epochs 8
    python -m repro.analysis.runner fig3 --backend des
    python -m repro.analysis.runner all --scale small --timings-json timings.json
    python -m repro.analysis.runner profile fig3 --scale small

Each experiment prints its ASCII rendition and, with ``--out``, writes the
underlying data as CSV.  ``--scale`` trades fidelity for runtime:
``small`` for smoke runs, ``bench`` (default) for benchmark-sized runs,
``paper`` for publication-sized runs (slow for fig3).

``scenarios`` runs the strategic-participation campaign: every scenario
family under naive and role-based rewards, producing the defection-share
convergence trajectories (see :mod:`repro.scenarios`).  ``tournament``
widens that to *every registered reward scheme* — the built-in five plus
anything user-registered — and emits a ranked league table of equilibrium
cooperation share, budget efficiency and epsilon-IC margin (with
``--out``, both ``tournament.csv`` and ``tournament.md``; see
:mod:`repro.schemes.tournament`).  ``dynamics`` streams Section V's
evolutionary epochs over a million-agent population in O(chunk) memory —
foundation unravels, role-based sharing stabilizes — with
``--family/--agents/--chunk-agents/--epochs/--scheme`` knobs (see
:mod:`repro.scenarios.population_dynamics`).

The simulation-heavy experiments (fig3, fig5, fig6, fig7c, scenarios,
tournament) shard through the sweep orchestrator: ``--workers N`` fans
shards out over ``N`` processes (``auto`` = one per CPU), ``--seed``
re-roots every random stream, and ``--cache-dir`` persists finished
shards so interrupted campaigns resume instead of restarting.  Results
are bit-identical at any worker count.

The sharded experiments also take a robustness envelope:
``--max-retries N`` retries failed shards with deterministic exponential
backoff, ``--shard-timeout S`` SIGKILLs and retries pooled shards that
run long, ``--deadline S`` bounds each sweep's wall clock, and
``--on-error partial`` degrades to partial results instead of aborting.
``--inject-faults PLAN`` (a JSON file or inline object) activates
deterministic fault injection for chaos testing — see
``docs/robustness.md``.  Ctrl-C (or SIGTERM) terminates workers cleanly
and prints a resumable-partial summary instead of a traceback, exiting
with status 130.

The protocol-simulator experiments (fig3, scenarios, tournament) run on
the vectorized fast kernel by default; ``--backend des`` switches back
to the per-message discrete-event oracle (see
:mod:`repro.sim.fastpath`).  ``all`` prints a per-figure wall-clock
summary table, ``--timings-json`` writes it machine-readably, and
``profile <experiment>`` wraps one experiment in cProfile and prints
the dominant functions.

``--telemetry-json PATH`` / ``--metrics-text PATH`` switch on the
in-process metrics registry (:mod:`repro.telemetry`) for the whole run
and write the merged cross-worker snapshot as deterministic JSON or
Prometheus text exposition.  Telemetry never alters experiment output:
the same command without these flags produces byte-identical results,
and shard-cache entries are unaffected.  With both telemetry and
``--timings-json``, the timings payload embeds the snapshot under a
``"telemetry"`` key.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, Optional, Union

from repro.analysis.defection import DefectionExperimentConfig, run_defection_experiment
from repro.analysis.orchestrator import configure_progress_logging
from repro.analysis.retry import ON_ERROR_MODES, ExecutionPolicy, RetryPolicy
from repro.analysis.reward_comparison import (
    RewardComparisonConfig,
    run_reward_comparison,
    run_truncation_experiment,
)
from repro.analysis.reward_surface import RewardSurfaceConfig, run_reward_surface
from repro.analysis.tables import table2, table3
from repro.errors import ConfigurationError
from repro.faults import FaultPlan
from repro.sim.config import SIMULATION_BACKENDS
from repro.telemetry import (
    enable as _telemetry_enable,
    get_registry,
    snapshot_to_json,
    span,
    to_prometheus_text,
)

#: Per-scale experiment parameters: (fig3 runs/rounds/nodes, fig6 instances,
#: scenario campaign shape (players, epochs, replications, simulated rounds),
#: tournament shape (players, epochs, replications, simulated rounds),
#: population-scale audit size (agents)).
_SCALES = {
    "small": {
        "fig3": (2, 6, 40),
        "instances": 2,
        "surface_nodes": 50_000,
        "scenarios": (28, 10, 2, 2),
        "tournament": (24, 8, 1, 1),
        "scale_agents": 20_000,
        "dynamics": (24_576, 6),
    },
    "bench": {
        "fig3": (3, 12, 60),
        "instances": 8,
        "surface_nodes": 500_000,
        "scenarios": (48, 16, 4, 2),
        "tournament": (32, 12, 2, 2),
        "scale_agents": 1_000_000,
        "dynamics": (1_000_000, 20),
    },
    "paper": {
        "fig3": (100, 60, 100),
        "instances": 200,
        "surface_nodes": 500_000,
        "scenarios": (80, 30, 10, 4),
        "tournament": (64, 24, 6, 2),
        "scale_agents": 10_000_000,
        "dynamics": (10_000_000, 30),
    },
}


@dataclass(frozen=True)
class RunOptions:
    """Cross-cutting execution options shared by every experiment.

    ``backend`` overrides the simulation engine of the simulator-backed
    experiments (fig3, scenarios, tournament): ``"fast"`` for the
    vectorized round-level kernel, ``"des"`` for the per-message
    discrete-event oracle, ``None`` for each experiment's own default
    (the fast kernel).  Analytic experiments ignore it.
    """

    scale: str = "bench"
    out: Optional[Path] = None
    workers: Union[int, str] = 1
    seed: Optional[int] = None
    cache_dir: Optional[Path] = None
    progress: bool = False
    backend: Optional[str] = None
    #: Population-scale (``scale`` experiment) knobs; other experiments
    #: ignore them.  ``agents=None`` uses the ``--scale`` preset;
    #: ``family_params`` holds raw ``key=value`` strings from
    #: ``--family-param`` (values parsed as JSON where possible).
    family: str = "zipf"
    family_params: tuple = ()
    agents: Optional[int] = None
    chunk_agents: Optional[int] = None
    dtype: str = "float64"
    schemes: tuple = ()
    #: Epoch count for the ``dynamics`` experiment (``None`` = preset).
    epochs: Optional[int] = None
    #: Audit grid axes for the ``scale`` (fused verdict tensor) and
    #: ``tournament`` (league audit operating points) experiments,
    #: from repeatable ``--budget-multiplier`` / ``--cost-scale`` flags;
    #: empty means each experiment's single default cell.
    budget_multipliers: tuple = ()
    cost_scales: tuple = ()
    #: Robustness envelope for the sharded experiments — retries,
    #: per-shard timeout, sweep deadline, partial mode, fault injection
    #: (from ``--max-retries`` / ``--shard-timeout`` / ``--deadline`` /
    #: ``--on-error`` / ``--inject-faults``).  ``None`` keeps the
    #: fail-fast default; the analytic experiments ignore it.
    policy: Optional[ExecutionPolicy] = None


@dataclass
class ExperimentOutcome:
    """What a registry entry produced (render text + optional CSV path)."""

    name: str
    rendered: str
    csv_path: Optional[Path] = None


def _csv_path(options: RunOptions, filename: str) -> Optional[Path]:
    if options.out is None:
        return None
    return options.out / filename


def _run_table2(options: RunOptions) -> ExperimentOutcome:
    result = table2()
    csv_path = _csv_path(options, "table2.csv")
    if csv_path is not None:
        result.to_csv(csv_path)
    return ExperimentOutcome("table2", result.render(), csv_path)


def _run_table3(options: RunOptions) -> ExperimentOutcome:
    result = table3()
    csv_path = _csv_path(options, "table3.csv")
    if csv_path is not None:
        result.to_csv(csv_path)
    return ExperimentOutcome("table3", result.render(), csv_path)


def _run_fig3(options: RunOptions) -> ExperimentOutcome:
    runs, rounds, nodes = _SCALES[options.scale]["fig3"]
    config = DefectionExperimentConfig(n_runs=runs, n_rounds=rounds, n_nodes=nodes)
    if options.seed is not None:
        config = replace(config, seed=options.seed)
    if options.backend is not None:
        config = replace(config, backend=options.backend)
    result = run_defection_experiment(
        config,
        workers=options.workers,
        cache_dir=options.cache_dir,
        progress=options.progress,
        policy=options.policy,
    )
    csv_path = _csv_path(options, "fig3.csv")
    if csv_path is not None:
        result.to_csv(csv_path)
    return ExperimentOutcome("fig3", result.render(), csv_path)


def _run_fig5(options: RunOptions) -> ExperimentOutcome:
    config = RewardSurfaceConfig(n_nodes=_SCALES[options.scale]["surface_nodes"])
    if options.seed is not None:
        config = replace(config, seed=options.seed)
    result = run_reward_surface(
        config,
        workers=options.workers,
        cache_dir=options.cache_dir,
        progress=options.progress,
        policy=options.policy,
    )
    csv_path = _csv_path(options, "fig5.csv")
    if csv_path is not None:
        result.to_csv(csv_path)
    return ExperimentOutcome("fig5", result.render(), csv_path)


def _run_fig6(options: RunOptions) -> ExperimentOutcome:
    config = RewardComparisonConfig(n_instances=_SCALES[options.scale]["instances"])
    if options.seed is not None:
        config = replace(config, seed=options.seed)
    result = run_reward_comparison(
        config,
        workers=options.workers,
        cache_dir=options.cache_dir,
        progress=options.progress,
        policy=options.policy,
    )
    csv_path = _csv_path(options, "fig6.csv")
    if csv_path is not None:
        result.to_csv(csv_path)
    rendered = "\n\n".join(
        [result.render_figure6(), result.render_figure7a(), result.render_figure7b()]
    )
    return ExperimentOutcome("fig6", rendered, csv_path)


def _run_fig7c(options: RunOptions) -> ExperimentOutcome:
    config = RewardComparisonConfig(
        n_instances=max(2, _SCALES[options.scale]["instances"] // 2), n_rounds=3
    )
    if options.seed is not None:
        config = replace(config, seed=options.seed)
    result = run_truncation_experiment(
        config,
        workers=options.workers,
        cache_dir=options.cache_dir,
        progress=options.progress,
        policy=options.policy,
    )
    csv_path = _csv_path(options, "fig7c.csv")
    if csv_path is not None:
        result.to_csv(csv_path)
    return ExperimentOutcome("fig7c", result.render(), csv_path)


def _run_scenarios(options: RunOptions) -> ExperimentOutcome:
    from repro.scenarios import ScenarioCampaignConfig, run_scenarios_campaign

    n_players, n_epochs, n_replications, simulate_rounds = _SCALES[options.scale][
        "scenarios"
    ]
    config = ScenarioCampaignConfig(
        n_replications=n_replications,
        n_players=n_players,
        n_epochs=n_epochs,
        simulate_rounds=simulate_rounds,
        backend=options.backend,
    )
    if options.seed is not None:
        config = replace(config, seed=options.seed)
    result = run_scenarios_campaign(
        config,
        workers=options.workers,
        cache_dir=options.cache_dir,
        progress=options.progress,
        policy=options.policy,
    )
    csv_path = _csv_path(options, "scenarios.csv")
    if csv_path is not None:
        result.to_csv(csv_path)
    return ExperimentOutcome("scenarios", result.render(), csv_path)


def _run_tournament(options: RunOptions) -> ExperimentOutcome:
    from repro.schemes.tournament import (
        TournamentConfig,
        run_tournament,
        tournament_audit,
    )

    n_players, n_epochs, n_replications, simulate_rounds = _SCALES[options.scale][
        "tournament"
    ]
    config = TournamentConfig(
        n_replications=n_replications,
        n_players=n_players,
        n_epochs=n_epochs,
        simulate_rounds=simulate_rounds,
        backend=options.backend,
        audit=tournament_audit(options.budget_multipliers, options.cost_scales),
    )
    if options.seed is not None:
        config = replace(config, seed=options.seed)
    result = run_tournament(
        config,
        workers=options.workers,
        cache_dir=options.cache_dir,
        progress=options.progress,
        policy=options.policy,
    )
    csv_path = _csv_path(options, "tournament.csv")
    if csv_path is not None:
        result.to_csv(csv_path)
        result.to_markdown(csv_path.with_suffix(".md"))
    return ExperimentOutcome("tournament", result.render(), csv_path)


def _parse_family_params(raw: tuple) -> Dict[str, object]:
    """Parse ``--family-param key=value`` pairs into a parameter dict.

    Values are decoded as JSON when possible (numbers, booleans) and
    kept as strings otherwise (e.g. ``path=snap.txt`` for the
    ``exchange_snapshot`` family).
    """
    params: Dict[str, object] = {}
    for token in raw:
        key, separator, value = token.partition("=")
        if not separator or not key:
            raise ConfigurationError(
                f"--family-param expects KEY=VALUE, got {token!r}"
            )
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value
    return params


def _run_scale(options: RunOptions) -> ExperimentOutcome:
    """The ``scale`` experiment: population-scale audits of every scheme.

    Streams a population of ``--agents`` agents (default: the ``--scale``
    preset — 20k small, 10^6 bench, 10^7 paper) from the ``--family``
    generator, audits each requested scheme chunk by chunk in O(chunk)
    memory, samples a sortition committee from the same stream, and
    renders the BENCH_scale-style table.  Repeatable
    ``--budget-multiplier`` / ``--cost-scale`` flags widen the audit
    into a fused grid: one streamed pass emits the whole
    (scheme x budget x cost-scale) verdict tensor.  With ``--out``,
    writes ``scale.csv``, the machine-readable ``scale.json``, and
    ``scale.audit.json`` — the timing-free audit payload that is
    byte-identical to what the audit service serves for the same spec
    (see ``docs/service.md``).
    """
    from repro.analysis.scale import ScaleConfig, run_scale

    config = ScaleConfig(
        family=options.family,
        family_params=_parse_family_params(options.family_params),
        n_agents=(
            options.agents
            if options.agents is not None
            else _SCALES[options.scale]["scale_agents"]
        ),
        schemes=tuple(options.schemes),
        chunk_agents=options.chunk_agents,
        dtype=options.dtype,
        budget_multipliers=tuple(options.budget_multipliers),
        cost_scales=tuple(options.cost_scales),
    )
    if options.seed is not None:
        config = replace(config, seed=options.seed)
    result = run_scale(config)
    csv_path = _csv_path(options, "scale.csv")
    if csv_path is not None:
        result.to_csv(csv_path)
        csv_path.with_suffix(".json").write_text(
            json.dumps(result.to_payload(), indent=2, sort_keys=True)
        )
        csv_path.with_name("scale.audit.json").write_text(
            json.dumps(result.audit_payload(), indent=2, sort_keys=True)
        )
    return ExperimentOutcome("scale", result.render(), csv_path)


def _run_dynamics(options: RunOptions) -> ExperimentOutcome:
    """The ``dynamics`` experiment: streamed Section V epochs at scale.

    Evolves one ``--agents``-sized population (default: the ``--scale``
    preset — 24576 small, 10^6 bench, 10^7 paper) through ``--epochs``
    streamed replicator epochs under each requested scheme (default:
    foundation vs role_based), in O(chunk) memory, and renders the
    defection-share trajectories plus a stability verdict table.  With
    ``--out``, writes ``dynamics.csv`` and the machine-readable
    ``dynamics.json`` (the trajectory payloads, byte-identical at any
    ``--chunk-agents`` value).
    """
    from repro.populations.arrays import DEFAULT_CHUNK_AGENTS
    from repro.populations.spec import PopulationSpec
    from repro.scenarios.population_dynamics import (
        PopulationDynamicsSpec,
        dynamics_to_csv,
        render_dynamics_trajectories,
        run_population_dynamics_campaign,
    )

    agents, epochs = _SCALES[options.scale]["dynamics"]
    seed = options.seed if options.seed is not None else 2021
    population = PopulationSpec(
        family=options.family,
        size=options.agents if options.agents is not None else agents,
        params=_parse_family_params(options.family_params),
        cooperation=0.9,
        dtype=options.dtype,
        seed=seed,
    )
    spec = PopulationDynamicsSpec(
        name=f"dynamics-{options.scale}",
        population=population,
        n_epochs=options.epochs if options.epochs is not None else epochs,
        chunk_agents=(
            options.chunk_agents
            if options.chunk_agents is not None
            else DEFAULT_CHUNK_AGENTS
        ),
    )
    schemes = tuple(options.schemes) or ("foundation", "role_based")
    trajectories = run_population_dynamics_campaign(
        [spec],
        schemes,
        seed=seed,
        workers=options.workers,
        cache_dir=options.cache_dir,
        progress=options.progress,
        policy=options.policy,
    )
    csv_path = _csv_path(options, "dynamics.csv")
    if csv_path is not None:
        dynamics_to_csv(trajectories, csv_path)
        csv_path.with_suffix(".json").write_text(
            json.dumps(
                {
                    f"{name}/{scheme}": trajectory.to_payload()
                    for (name, scheme), trajectory in trajectories.items()
                },
                indent=2,
                sort_keys=True,
            )
        )
    return ExperimentOutcome(
        "dynamics", render_dynamics_trajectories(trajectories), csv_path
    )


EXPERIMENTS: Dict[str, Callable[[RunOptions], ExperimentOutcome]] = {
    "table2": _run_table2,
    "table3": _run_table3,
    "fig3": _run_fig3,
    "fig5": _run_fig5,
    "fig6": _run_fig6,
    "fig7c": _run_fig7c,
    "scenarios": _run_scenarios,
    "tournament": _run_tournament,
    "scale": _run_scale,
    "dynamics": _run_dynamics,
}


def run_experiment(
    name: str,
    scale: str = "bench",
    out: Optional[Path] = None,
    workers: Union[int, str] = 1,
    seed: Optional[int] = None,
    cache_dir: Optional[Path] = None,
    progress: bool = False,
    backend: Optional[str] = None,
    family: str = "zipf",
    family_params: tuple = (),
    agents: Optional[int] = None,
    chunk_agents: Optional[int] = None,
    dtype: str = "float64",
    schemes: tuple = (),
    epochs: Optional[int] = None,
    budget_multipliers: tuple = (),
    cost_scales: tuple = (),
    policy: Optional[ExecutionPolicy] = None,
) -> ExperimentOutcome:
    """Run one registered experiment by name."""
    if name not in EXPERIMENTS:
        raise ConfigurationError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)} or 'all'"
        )
    if scale not in _SCALES:
        raise ConfigurationError(
            f"unknown scale {scale!r}; choose from {sorted(_SCALES)}"
        )
    if backend is not None and backend not in SIMULATION_BACKENDS:
        raise ConfigurationError(
            f"unknown backend {backend!r}; choose from {sorted(SIMULATION_BACKENDS)}"
        )
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    options = RunOptions(
        scale=scale,
        out=out,
        workers=workers,
        seed=seed,
        cache_dir=cache_dir,
        progress=progress,
        backend=backend,
        family=family,
        family_params=family_params,
        agents=agents,
        chunk_agents=chunk_agents,
        dtype=dtype,
        schemes=schemes,
        epochs=epochs,
        budget_multipliers=budget_multipliers,
        cost_scales=cost_scales,
        policy=policy,
    )
    return EXPERIMENTS[name](options)


def profile_experiment(
    name: str,
    scale: str = "small",
    workers: Union[int, str] = 1,
    backend: Optional[str] = None,
    top_n: int = 25,
) -> str:
    """Run one experiment under cProfile and render the top-N hot spots.

    The profiling harness behind ``python -m repro.analysis.runner
    profile <figure>``: runs the experiment in-process (serial workers,
    so the profile sees the actual compute, not pool plumbing) and
    returns a cumulative-time table of the ``top_n`` dominant functions.
    """
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    started = time.perf_counter()
    try:
        run_experiment(name, scale=scale, workers=workers, backend=backend)
    finally:
        profiler.disable()
    elapsed = time.perf_counter() - started
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(top_n)
    header = (
        f"profile: {name} --scale {scale}"
        + (f" --backend {backend}" if backend else "")
        + f" ({elapsed:.2f}s wall)"
    )
    return header + "\n" + stream.getvalue()


def _run_serve(args: argparse.Namespace, policy: Optional[ExecutionPolicy]) -> int:
    """The ``serve`` subcommand: run the audit service until interrupted.

    Telemetry is always enabled so ``GET /metrics`` scrapes live
    counters; the orchestrator knobs (``--workers``, ``--cache-dir``,
    the robustness envelope) apply to every job the service executes.
    See ``docs/service.md`` for the API and admission-control
    semantics.
    """
    from repro.service import EngineConfig, JobContext, ReproService

    _telemetry_enable()
    service = ReproService(
        host=args.host,
        port=args.port,
        engine_config=EngineConfig(
            max_queue=args.max_queue,
            max_client_inflight=args.max_client_inflight,
            max_records=args.max_jobs,
            service_workers=args.service_workers,
            context=JobContext(
                workers=args.workers,
                cache_dir=args.cache_dir,
                policy=policy,
            ),
        ),
    )
    try:
        service.serve_forever(
            on_ready=lambda ready: print(
                f"serving on http://{ready.host}:{ready.port}", flush=True
            )
        )
    except KeyboardInterrupt:
        print("\nservice stopped.", file=sys.stderr)
        return 130
    return 0


def _timing_table(timings: "Dict[str, float]") -> str:
    """Per-figure wall-clock summary printed after multi-experiment runs."""
    from repro.analysis.plotting import format_table

    total = sum(timings.values())
    rows = [
        (name, f"{seconds:.2f}")
        for name, seconds in timings.items()
    ]
    rows.append(("total", f"{total:.2f}"))
    return format_table(
        ("experiment", "seconds"), rows, title="Per-figure wall-clock timings"
    )


def _parse_workers(value: str) -> Union[int, str]:
    if value == "auto":
        return "auto"
    try:
        count = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--workers expects an integer or 'auto', got {value!r}"
        ) from None
    if count < 1:
        raise argparse.ArgumentTypeError("--workers must be >= 1")
    return count


def main(argv=None) -> int:
    """Command-line entry point (the ``repro-runner`` console script)."""
    import repro

    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    # The version comes from the installed package metadata via
    # repro.__version__ — setup.py stays the single source of truth.
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {repro.__version__}",
    )
    parser.add_argument(
        "experiment",
        choices=[*sorted(EXPERIMENTS), "all", "profile", "serve"],
        help="experiment to run; 'all' runs every experiment and prints a "
        "per-figure timing summary; 'profile <experiment>' runs one "
        "experiment under cProfile and prints the hot spots; 'serve' "
        "starts the audit service HTTP front end (see docs/service.md)",
    )
    parser.add_argument(
        "target",
        nargs="?",
        default=None,
        choices=sorted(EXPERIMENTS),
        help="the experiment to profile (only with 'profile')",
    )
    parser.add_argument("--scale", default="bench", choices=sorted(_SCALES))
    parser.add_argument("--out", type=Path, default=None, help="CSV output directory")
    parser.add_argument(
        "--backend",
        default=None,
        choices=sorted(SIMULATION_BACKENDS),
        help="simulation engine for the simulator-backed experiments "
        "(fig3, scenarios, tournament): 'fast' for the vectorized "
        "round-level kernel (their default), 'des' for the per-message "
        "discrete-event oracle; analytic experiments ignore it",
    )
    parser.add_argument(
        "--family",
        default="zipf",
        help="population generator family for the 'scale' and 'dynamics' "
        "experiments (zipf, pareto, lognormal, uniform, normal, "
        "exchange_snapshot); other experiments ignore it",
    )
    parser.add_argument(
        "--family-param",
        action="append",
        default=None,
        dest="family_params",
        metavar="KEY=VALUE",
        help="generator-family parameter for the 'scale' and 'dynamics' "
        "experiments (repeatable), e.g. --family-param exponent=1.8 or "
        "--family-param path=snapshot.txt for exchange_snapshot; values "
        "parse as JSON where possible, else strings",
    )
    parser.add_argument(
        "--agents",
        type=int,
        default=None,
        help="population size for the 'scale' and 'dynamics' experiments "
        "(default: the --scale preset)",
    )
    parser.add_argument(
        "--chunk-agents",
        type=int,
        default=None,
        help="streaming window of the 'scale' and 'dynamics' experiments: "
        "agents held in memory at once (rounded up to whole seed blocks; "
        "default 131072); results are identical at any value",
    )
    parser.add_argument(
        "--epochs",
        type=int,
        default=None,
        help="epoch count for the 'dynamics' experiment (default: the "
        "--scale preset — 6 small, 20 bench, 30 paper)",
    )
    parser.add_argument(
        "--dtype",
        default="float64",
        choices=["float64", "float32"],
        help="stake/cost storage dtype for the 'scale' and 'dynamics' "
        "experiments (float32 halves memory; arithmetic stays float64)",
    )
    parser.add_argument(
        "--scheme",
        action="append",
        default=None,
        dest="schemes",
        help="restrict the 'scale' or 'dynamics' experiment to one scheme "
        "(repeatable; defaults: every registered scheme for 'scale', "
        "foundation + role_based for 'dynamics')",
    )
    parser.add_argument(
        "--budget-multiplier",
        action="append",
        type=float,
        default=None,
        dest="budget_multipliers",
        metavar="X",
        help="audit-grid budget axis for the 'scale' and 'tournament' "
        "experiments (repeatable): multiples of the Theorem 3 bound to "
        "audit at; 'scale' fuses all cells into one streamed verdict "
        "tensor (default: 1.5)",
    )
    parser.add_argument(
        "--cost-scale",
        action="append",
        type=float,
        default=None,
        dest="cost_scales",
        metavar="X",
        help="audit-grid cost axis for the 'scale' and 'tournament' "
        "experiments (repeatable): role-cost scale factors to audit at "
        "(default: 1.0)",
    )
    parser.add_argument(
        "--timings-json",
        type=Path,
        default=None,
        help="write the per-experiment wall-clock timings to this JSON "
        "file (machine-readable companion of the summary table); with "
        "telemetry enabled the payload embeds the merged metrics "
        "snapshot under a 'telemetry' key",
    )
    parser.add_argument(
        "--telemetry-json",
        type=Path,
        default=None,
        help="enable in-process telemetry and write the merged "
        "cross-worker metrics snapshot to this JSON file; experiment "
        "results are unaffected (byte-identical with or without)",
    )
    parser.add_argument(
        "--metrics-text",
        type=Path,
        default=None,
        help="enable in-process telemetry and write the merged metrics "
        "in Prometheus text exposition format to this file",
    )
    parser.add_argument(
        "--profile-top",
        type=int,
        default=25,
        help="number of functions shown by the 'profile' subcommand",
    )
    parser.add_argument(
        "--workers",
        type=_parse_workers,
        default="auto",
        help="worker processes for sharded experiments: a count, or 'auto' "
        "for one per CPU (default: auto); results are identical at any "
        "worker count",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the experiment's root seed (default: each "
        "experiment's paper-matching seed)",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="shard-cache directory: finished shards are stored here and "
        "reused on re-runs, making interrupted campaigns resumable",
    )
    parser.add_argument(
        "--no-progress",
        action="store_true",
        help="suppress the per-shard progress line on stderr",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address for the 'serve' subcommand (default: loopback; "
        "bind 0.0.0.0 only behind a trusted proxy — the service has no "
        "authentication layer)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8321,
        help="listen port for the 'serve' subcommand (0 = ephemeral, "
        "printed at startup)",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=8,
        help="'serve' admission high watermark: pending jobs beyond this "
        "are refused with 429 + Retry-After instead of queued",
    )
    parser.add_argument(
        "--max-client-inflight",
        type=int,
        default=4,
        help="'serve' per-client cap on unfinished jobs (client identity "
        "from the X-Client-Id header, else the peer address)",
    )
    parser.add_argument(
        "--max-jobs",
        type=int,
        default=256,
        help="'serve' job-record retention: completed records beyond this "
        "are LRU-evicted (a later GET on an evicted id is a 404)",
    )
    parser.add_argument(
        "--service-workers",
        type=int,
        default=1,
        help="'serve' job-executing worker threads; each job additionally "
        "fans its shards over --workers processes",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=0,
        help="retries per shard after a retryable failure (crash, timeout, "
        "exception): 0 fails fast; backoff is exponential with "
        "deterministic jitter, and retried shards reuse their seed so "
        "recovery never changes results",
    )
    parser.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-shard attempt budget: a pooled shard running longer is "
        "SIGKILLed, its worker respawned, and the shard retried under "
        "--max-retries (inline --workers 1 execution cannot preempt a "
        "running shard)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget for each experiment's whole sweep; on "
        "expiry unfinished shards fail (completed shards stay cached)",
    )
    parser.add_argument(
        "--on-error",
        default="raise",
        choices=list(ON_ERROR_MODES),
        help="'raise' stops at the first shard that exhausts its attempts; "
        "'partial' records the failure and keeps going — successful "
        "shards stay bit-identical to a clean run (experiments whose "
        "merge cannot tolerate holes still raise)",
    )
    parser.add_argument(
        "--inject-faults",
        default=None,
        metavar="PLAN",
        help="activate deterministic fault injection: a fault-plan JSON "
        "file path or an inline JSON object (see docs/robustness.md); "
        "workers inherit the plan under every multiprocessing start "
        "method",
    )
    args = parser.parse_args(argv)

    configure_progress_logging(enabled=not args.no_progress)
    telemetry_on = args.telemetry_json is not None or args.metrics_text is not None
    if telemetry_on:
        _telemetry_enable()

    if args.max_retries < 0:
        parser.error("--max-retries must be >= 0")
    fault_plan = (
        FaultPlan.from_source(args.inject_faults) if args.inject_faults else None
    )
    policy: Optional[ExecutionPolicy] = None
    if (
        args.max_retries
        or args.shard_timeout is not None
        or args.deadline is not None
        or args.on_error != "raise"
        or fault_plan is not None
    ):
        # --max-retries counts *extra* tries: 2 retries = 3 attempts.
        policy = ExecutionPolicy(
            retry=RetryPolicy(max_attempts=args.max_retries + 1),
            shard_timeout_s=args.shard_timeout,
            deadline_s=args.deadline,
            on_error=args.on_error,
            fault_plan=fault_plan,
        )

    if args.experiment == "serve":
        if args.target is not None:
            parser.error("a target experiment is only valid with 'profile'")
        return _run_serve(args, policy)
    if args.experiment == "profile":
        if args.target is None:
            parser.error("profile needs a target experiment, e.g. 'profile fig3'")
        # Default to serial workers: with a process pool the shard compute
        # happens in children invisible to the parent's cProfile, and the
        # table would show only pool plumbing.  An explicit --workers N is
        # honoured (e.g. to profile the orchestrator itself).
        workers = 1 if args.workers == "auto" else args.workers
        print(
            profile_experiment(
                args.target,
                scale=args.scale,
                workers=workers,
                backend=args.backend,
                top_n=args.profile_top,
            )
        )
        return 0
    if args.target is not None:
        parser.error("a target experiment is only valid with 'profile'")

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    timings: Dict[str, float] = {}

    def _on_sigterm(_signum, _frame):
        raise KeyboardInterrupt

    try:
        previous_sigterm = signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:
        previous_sigterm = None  # embedded in a non-main thread: SIGINT only
    current: Optional[str] = None
    try:
        for name in names:
            current = name
            started = time.perf_counter()
            with span(f"runner.{name}"):
                outcome = run_experiment(
                    name,
                    scale=args.scale,
                    out=args.out,
                    workers=args.workers,
                    seed=args.seed,
                    cache_dir=args.cache_dir,
                    progress=not args.no_progress,
                    backend=args.backend,
                    family=args.family,
                    family_params=(
                        tuple(args.family_params) if args.family_params else ()
                    ),
                    agents=args.agents,
                    chunk_agents=args.chunk_agents,
                    dtype=args.dtype,
                    schemes=tuple(args.schemes) if args.schemes else (),
                    epochs=args.epochs,
                    budget_multipliers=(
                        tuple(args.budget_multipliers)
                        if args.budget_multipliers
                        else ()
                    ),
                    cost_scales=tuple(args.cost_scales) if args.cost_scales else (),
                    policy=policy,
                )
            timings[name] = time.perf_counter() - started
            print(f"=== {outcome.name} ===")
            print(outcome.rendered)
            if outcome.csv_path is not None:
                print(f"[data written to {outcome.csv_path}]")
            print()
    except KeyboardInterrupt:
        # The orchestrator's pool loop has already terminated its workers
        # on the way out; report a resumable-partial summary instead of a
        # traceback and exit with the conventional SIGINT status.
        completed = ", ".join(timings) if timings else "none"
        print(
            f"\ninterrupted during {current!r}; workers terminated cleanly.\n"
            f"completed experiments: {completed}.",
            file=sys.stderr,
        )
        if args.cache_dir is not None:
            print(
                f"finished shards are cached under {args.cache_dir}; "
                "re-run the same command to resume.",
                file=sys.stderr,
            )
        else:
            print(
                "no --cache-dir was set, so finished shards were not "
                "persisted; pass --cache-dir to make interrupted campaigns "
                "resumable.",
                file=sys.stderr,
            )
        return 130
    finally:
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)
    if len(names) > 1:
        print(_timing_table(timings))
    snapshot = get_registry().snapshot() if telemetry_on else None
    if args.timings_json is not None:
        args.timings_json.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "scale": args.scale,
            "workers": args.workers,
            "backend": args.backend,
            "timings_s": timings,
            "total_s": sum(timings.values()),
        }
        if snapshot is not None:
            payload["telemetry"] = snapshot
        args.timings_json.write_text(json.dumps(payload, indent=2, sort_keys=True))
        print(f"[timings written to {args.timings_json}]")
    if args.telemetry_json is not None:
        args.telemetry_json.parent.mkdir(parents=True, exist_ok=True)
        args.telemetry_json.write_text(snapshot_to_json(snapshot))
        print(f"[telemetry written to {args.telemetry_json}]")
    if args.metrics_text is not None:
        args.metrics_text.parent.mkdir(parents=True, exist_ok=True)
        args.metrics_text.write_text(to_prometheus_text(snapshot))
        print(f"[metrics written to {args.metrics_text}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
