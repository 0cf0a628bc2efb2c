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
    python -m repro.analysis.runner all --scale small --timings-json timings.json
    python -m repro.analysis.runner profile fig3 --scale small

Each experiment prints its ASCII rendition and, with ``--out``, writes the
underlying data as CSV.  ``--scale`` trades fidelity for runtime:
``small`` for smoke runs, ``bench`` (default) for benchmark-sized runs,
``paper`` for publication-sized runs (slow for fig3).

Experiment flags are generated from the specs in
:mod:`repro.analysis.experiments`, the ones the job service validates
against: one flag per field (``--agents``, ``--chunk-agents``,
``--players``, ...; repeatable ``--scheme``, ``--family-param``,
``--budget-multiplier``, ``--cost-scale``), defaulting to the ``--scale``
preset.  A bad value, or a flag the selected experiment does not take,
is a usage error (exit 2) before any work starts; ``all`` takes every
flag and hands each experiment its own.  Under ``--out`` the served
experiments also write their service payload (``scale.audit.json``,
``dynamics.json``, ``scenarios.json``, ``tournament.json``; see
``docs/service.md``).

``scenarios`` runs the strategic-participation campaign: every scenario
family under naive and role-based rewards (see :mod:`repro.scenarios`).
``tournament`` widens that to every registered reward scheme and ranks
them by cooperation share, budget efficiency and epsilon-IC margin
(``tournament.csv`` and ``tournament.md``; see
:mod:`repro.schemes.tournament`).  ``scale`` audits a streamed
population for every scheme (:mod:`repro.analysis.scale`), and
``dynamics`` streams Section V's evolutionary epochs over it in O(chunk)
memory (:mod:`repro.scenarios.population_dynamics`).

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
the vectorized round kernel (:mod:`repro.sim.fastpath`), the only
simulation engine; ``--backend`` accepts ``fast`` alone.  The
per-message discrete-event simulator the kernel replaced is its test
oracle (``tests/des``), not a backend.  ``all`` prints a per-figure
wall-clock summary table, ``--timings-json`` writes it
machine-readably, and ``profile <experiment>`` wraps one experiment in
cProfile and prints the dominant functions.

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
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.analysis.experiments import (
    _SCALES,
    EXPERIMENTS,
    FIELDS,
    ExperimentSpec,
    dump_payload,
)
from repro.analysis.orchestrator import configure_progress_logging
from repro.analysis.retry import ON_ERROR_MODES, ExecutionPolicy, RetryPolicy
from repro.errors import ConfigurationError
from repro.faults import FaultPlan
from repro.telemetry import (
    enable as _telemetry_enable,
    get_registry,
    snapshot_to_json,
    span,
    to_prometheus_text,
)


@dataclass
class ExperimentOutcome:
    """What a registry entry produced (render text + optional CSV path)."""

    name: str
    rendered: str
    csv_path: Optional[Path] = None


def _execute(
    spec: ExperimentSpec,
    config: Any,
    out: Optional[Path],
    workers: Union[int, str],
    cache_dir: Optional[Path],
    progress: bool,
    policy: Optional[ExecutionPolicy],
) -> ExperimentOutcome:
    """Run a built config; with ``out``, write the CSV and the payload."""
    result = spec.run(
        config, workers=workers, cache_dir=cache_dir, progress=progress, policy=policy
    )
    csv_path = None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / f"{spec.name}.csv"
        spec.write(result, csv_path)
        if spec.payload is not None:
            (out / spec.payload_file).write_text(dump_payload(spec.payload(result)))
    return ExperimentOutcome(spec.name, spec.render(result), csv_path)


def run_experiment(
    name: str,
    scale: str = "bench",
    out: Optional[Path] = None,
    workers: Union[int, str] = 1,
    cache_dir: Optional[Path] = None,
    progress: bool = False,
    policy: Optional[ExecutionPolicy] = None,
    **fields: Any,
) -> ExperimentOutcome:
    """Run one registered experiment by name.

    ``fields`` are the experiment's spec fields (``seed``, ``agents``,
    ``schemes``, ...); a field left out or passed as ``None`` takes its
    ``scale`` preset.  Every field is validated, and the config built,
    before any work starts.
    """
    if name not in EXPERIMENTS:
        raise ConfigurationError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)} or 'all'"
        )
    spec = EXPERIMENTS[name]
    given = {key: value for key, value in fields.items() if value is not None}
    config = spec.configure(scale, given)
    return _execute(spec, config, out, workers, cache_dir, progress, policy)


def profile_experiment(
    name: str,
    scale: str = "small",
    workers: Union[int, str] = 1,
    top_n: int = 25,
    **fields: Any,
) -> str:
    """Run one experiment under cProfile and render the top-N hot spots.

    The profiling harness behind ``python -m repro.analysis.runner
    profile <figure>``: runs the experiment in-process (serial workers,
    so the profile sees the actual compute, not pool plumbing) and
    returns a cumulative-time table of the ``top_n`` dominant functions.
    ``fields`` are the experiment's spec fields, as for
    :func:`run_experiment`.
    """
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    started = time.perf_counter()
    try:
        run_experiment(name, scale=scale, workers=workers, **fields)
    finally:
        profiler.disable()
    elapsed = time.perf_counter() - started
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(top_n)
    settings = "".join(
        f" {FIELDS[key].flag} {value}"
        for key, value in fields.items()
        if value is not None
    )
    header = f"profile: {name} --scale {scale}{settings} ({elapsed:.2f}s wall)"
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


def _add_field_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per spec field; its help names the experiments using it."""
    for field in FIELDS.values():
        users = [name for name, spec in EXPERIMENTS.items() if field.name in spec.fields]
        parser.add_argument(
            field.flag,
            dest=field.name,
            default=None,
            type=field.parse,
            action="append" if field.repeated else "store",
            choices=[choice for choice in field.choices if choice is not None] or None,
            metavar=field.metavar,
            help=f"{field.help} [{', '.join(users)}]",
        )


def _plan(
    parser: argparse.ArgumentParser, args: argparse.Namespace, names: List[str]
) -> Tuple[Dict[str, Any], List[Tuple[ExperimentSpec, Any]]]:
    """The field flags given, and each selected experiment's built config.

    A flag that no selected experiment declares, or a value that a
    field validator or ``build`` rejects, is a usage error (exit 2)
    before any work starts.
    """
    given = {
        name: getattr(args, name)
        for name in FIELDS
        if getattr(args, name) is not None
    }
    specs = [EXPERIMENTS[name] for name in names]
    stray = [
        FIELDS[name].flag
        for name in given
        if not any(name in spec.fields for spec in specs)
    ]
    if stray:
        parser.error(
            f"{', '.join(stray)} not accepted by "
            f"{' '.join(filter(None, (args.experiment, args.target)))}"
        )
    try:
        plans = [
            (
                spec,
                spec.configure(
                    args.scale,
                    {name: value for name, value in given.items() if name in spec.fields},
                    flags=True,
                ),
            )
            for spec in specs
        ]
    except ConfigurationError as error:
        parser.error(str(error))
    return given, plans


def _parser() -> argparse.ArgumentParser:
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
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="output directory for the CSV artifacts and JSON payloads",
    )
    _add_field_flags(parser)
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
    return parser


def main(argv=None) -> int:
    """Command-line entry point (the ``repro-runner`` console script)."""
    parser = _parser()
    args = parser.parse_args(argv)
    if args.experiment == "profile" and args.target is None:
        parser.error("profile needs a target experiment, e.g. 'profile fig3'")
    if args.experiment != "profile" and args.target is not None:
        parser.error("a target experiment is only valid with 'profile'")
    if args.experiment == "all":
        names = sorted(EXPERIMENTS)
    elif args.experiment == "serve":
        names = []
    else:
        names = [args.target or args.experiment]
    given, plans = _plan(parser, args, names)

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
        return _run_serve(args, policy)
    if args.experiment == "profile":
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
                top_n=args.profile_top,
                **given,
            )
        )
        return 0

    timings: Dict[str, float] = {}

    def _on_sigterm(_signum, _frame):
        raise KeyboardInterrupt

    try:
        previous_sigterm = signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:
        previous_sigterm = None  # embedded in a non-main thread: SIGINT only
    current: Optional[str] = None
    try:
        for spec, config in plans:
            current = spec.name
            started = time.perf_counter()
            with span(f"runner.{spec.name}"):
                outcome = _execute(
                    spec,
                    config,
                    args.out,
                    args.workers,
                    args.cache_dir,
                    not args.no_progress,
                    policy,
                )
            timings[spec.name] = time.perf_counter() - started
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
