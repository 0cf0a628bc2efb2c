"""The layer map of the traced pass: which function each span wraps.

Every span wraps a public function of one of the repository's modules,
and is named after that module's layer:

=========================  ===============================================
span                       wrapped function
=========================  ===============================================
``populations.synthesize`` ``populations.spec.PopulationSpec.block``
``sortition.binomial``     ``sim.sortition.binomial_weights`` as
                           ``sim.fastpath`` calls it
``audit.grid``             ``schemes.population_audit.audit_population_grid``
``audit.committee``        ``sim.fastpath.sample_committee_stream``
``dynamics.kernel``        ``scenarios.population_dynamics.run_population_dynamics``
``fastpath.setup``         ``sim.fastpath.make_simulation``
``fastpath.round``         ``sim.fastpath.FastSimulation.run_round``
``orchestrator.sweep``     ``analysis.orchestrator.run_sweep``
``orchestrator.shard``     one shard attempt (``analysis.scheduler``)
``cache.load/store``       ``analysis.orchestrator.ShardCache.load/store``
``service.parse``          ``service.http.read_request`` (a coroutine)
``service.dispatch``       ``service.app.ReproService._dispatch``
``service.submit``         ``service.engine.JobEngine.submit``
``service.prepare``        ``service.jobs.prepare_job``
``service.execute``        the prepared job's ``run`` closure
``service.serialize``      ``service.http.render_response``
=========================  ===============================================

A function imported by name into another module is replaced there too,
since that module holds its own reference.  :func:`layer_metrics` turns
the recorded spans into the per-layer metrics ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import dataclasses
import functools
from pathlib import Path
from typing import Dict, Tuple

from tracing import MAIN, Patches, SpanRecorder, traced

#: ``(name, unit)`` of every per-layer metric, in ``BENCHMARK.json`` order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("populations.synthesize_s", "s"),
    ("populations.blocks", "count"),
    ("populations.resynthesis", "ratio"),
    ("sortition.binomial_s", "s"),
    ("sortition.calls", "count"),
    ("sortition.agents", "count"),
    ("audit.grid_s", "s"),
    ("audit.committee_s", "s"),
    ("dynamics.kernel_s", "s"),
    ("fastpath.setup_s", "s"),
    ("fastpath.round_s", "s"),
    ("fastpath.rounds", "count"),
    ("orchestrator.sweep_s", "s"),
    ("orchestrator.shard_s", "s"),
    ("orchestrator.overhead_s", "s"),
    ("cache.store_s", "s"),
    ("cache.load_s", "s"),
    ("cache.hits", "count"),
    ("service.parse_s", "s"),
    ("service.dispatch_s", "s"),
    ("service.prepare_s", "s"),
    ("service.submit_s", "s"),
    ("service.queue_wait_s", "s"),
    ("service.execute_s", "s"),
    ("service.serialize_s", "s"),
    ("service.requests", "count"),
    ("service.executions", "count"),
    ("service.memo_hits", "count"),
    ("service.rejected", "count"),
    ("trace.wall_s", "s"),
    ("trace.other_s", "s"),
    ("trace.overhead", "ratio"),
)

#: Span self times reported under their own metric name.
_SELF_TIMES = {
    "populations.synthesize_s": "populations.synthesize",
    "sortition.binomial_s": "sortition.binomial",
    "audit.grid_s": "audit.grid",
    "audit.committee_s": "audit.committee",
    "dynamics.kernel_s": "dynamics.kernel",
    "fastpath.setup_s": "fastpath.setup",
    "fastpath.round_s": "fastpath.round",
    "orchestrator.sweep_s": "orchestrator.sweep",
    "cache.store_s": "cache.store",
    "cache.load_s": "cache.load",
    "service.parse_s": "service.parse",
    "service.dispatch_s": "service.dispatch",
    "service.prepare_s": "service.prepare",
    "service.submit_s": "service.submit",
    "service.execute_s": "service.execute",
    "service.serialize_s": "service.serialize",
}

#: Span call counts reported under their own metric name.
_CALLS = {
    "populations.blocks": "populations.synthesize",
    "sortition.calls": "sortition.binomial",
    "fastpath.rounds": "fastpath.round",
    "service.requests": "service.parse",
    "service.executions": "service.execute",
}

#: Free counters reported under their own metric name.
_COUNTS = (
    "sortition.agents",
    "orchestrator.overhead_s",
    "cache.hits",
    "service.queue_wait_s",
    "service.memo_hits",
    "service.rejected",
)


def install(recorder: SpanRecorder, spool_dir: Path) -> Patches:
    """Wrap every layer function; returns the patches to undo afterwards.

    Forked shard workers inherit the wrappers; each writes its spans to
    ``spool_dir`` after every shard, for :meth:`SpanRecorder.collect`.
    """
    import repro.sim as sim_pkg
    from repro.analysis import defection, orchestrator, scale, scheduler
    from repro.errors import AdmissionError
    from repro.populations.spec import PopulationSpec
    from repro.scenarios import population_dynamics
    from repro.schemes import population_audit
    from repro.service import app, engine
    from repro.sim import fastpath

    patches = Patches()

    def everywhere(owners, attr, wrapper):
        for owner in owners:
            patches.set(owner, attr, wrapper)

    def on_block(args, _kwargs, _result):
        spec, index = args[0], args[1]
        recorder.see("populations.blocks", (spec.cache_key(), index))

    patches.set(
        PopulationSpec,
        "block",
        traced(recorder, PopulationSpec.block, "populations.synthesize", on_block),
    )
    patches.set(
        fastpath,
        "binomial_weights",
        traced(
            recorder,
            fastpath.binomial_weights,
            "sortition.binomial",
            lambda args, _k, _r: recorder.count("sortition.agents", len(args[0])),
        ),
    )
    everywhere(
        (population_audit, scale),
        "audit_population_grid",
        traced(recorder, population_audit.audit_population_grid, "audit.grid"),
    )
    patches.set(
        fastpath,
        "sample_committee_stream",
        traced(recorder, fastpath.sample_committee_stream, "audit.committee"),
    )
    patches.set(
        population_dynamics,
        "run_population_dynamics",
        traced(
            recorder,
            population_dynamics.run_population_dynamics,
            "dynamics.kernel",
        ),
    )
    everywhere(
        (fastpath, sim_pkg, defection),
        "make_simulation",
        traced(recorder, fastpath.make_simulation, "fastpath.setup"),
    )
    patches.set(
        fastpath.FastSimulation,
        "run_round",
        traced(recorder, fastpath.FastSimulation.run_round, "fastpath.round"),
    )

    def on_sweep(_args, _kwargs, result):
        stats = result.stats
        recorder.count(
            "orchestrator.overhead_s",
            stats.wall_seconds - stats.shard_seconds / stats.workers,
        )

    everywhere(
        (orchestrator, defection, population_dynamics),
        "run_sweep",
        traced(recorder, orchestrator.run_sweep, "orchestrator.sweep", on_sweep),
    )
    patches.set(scheduler, "_run_shard", _shard_wrapper(recorder, spool_dir))
    patches.set(
        orchestrator.ShardCache,
        "store",
        traced(recorder, orchestrator.ShardCache.store, "cache.store"),
    )
    patches.set(
        orchestrator.ShardCache,
        "load",
        traced(
            recorder,
            orchestrator.ShardCache.load,
            "cache.load",
            lambda _a, _k, hit: hit is not None and recorder.count("cache.hits"),
        ),
    )

    patches.set(
        app,
        "read_request",
        traced(recorder, app.read_request, "service.parse"),
    )
    patches.set(
        app.ReproService,
        "_dispatch",
        traced(recorder, app.ReproService._dispatch, "service.dispatch"),
    )
    patches.set(
        engine.JobEngine,
        "submit",
        traced(
            recorder,
            engine.JobEngine.submit,
            "service.submit",
            lambda _a, _k, status: status.memoized
            and recorder.count("service.memo_hits"),
            lambda exc: isinstance(exc, AdmissionError)
            and recorder.count("service.rejected"),
        ),
    )
    patches.set(engine, "prepare_job", _prepare_wrapper(recorder, engine.prepare_job))
    patches.set(
        app,
        "render_response",
        traced(recorder, app.render_response, "service.serialize"),
    )
    return patches


def _shard_wrapper(recorder: SpanRecorder, spool_dir: Path):
    """One shard attempt as ``orchestrator.shard``; workers spool afterwards."""
    from repro.analysis import scheduler

    original = scheduler._run_shard

    @functools.wraps(original)
    def run_shard(*args, **kwargs):
        in_worker = recorder.in_worker()
        if in_worker:
            recorder.adopt_fork()
        frame = recorder.enter("orchestrator.shard")
        try:
            return original(*args, **kwargs)
        finally:
            recorder.exit(frame)
            if in_worker:
                recorder.spool(spool_dir)

    return run_shard


def _prepare_wrapper(recorder: SpanRecorder, original):
    """``prepare_job`` as ``service.prepare``, timing the job it returns.

    The returned job's ``run`` closure becomes ``service.execute``, and
    the time from preparation to the start of ``run`` is its queue wait.
    """

    @functools.wraps(original)
    def prepare_job(kind, params):
        frame = recorder.enter("service.prepare")
        try:
            job = original(kind, params)
        finally:
            recorder.exit(frame)
        prepared_at = recorder.clock()
        run = job.run

        def execute(context):
            recorder.count("service.queue_wait_s", recorder.clock() - prepared_at)
            frame = recorder.enter("service.execute")
            try:
                return run(context)
            finally:
                recorder.exit(frame)

        return dataclasses.replace(job, run=execute)

    return prepare_job


def accounted_s(recorder: SpanRecorder) -> float:
    """Σ span self time on the main thread: the part of the wall it explains."""
    return sum(row["self_s"] for row in recorder.spans((MAIN,)).values())


def layer_metrics(recorder: SpanRecorder, n_passes: int) -> Dict[str, float]:
    """Per-layer metrics per traced pass (``trace.*`` are filled by the caller)."""
    spans = recorder.spans()
    per_pass = 1.0 / max(1, n_passes)

    def row(span: str) -> Dict[str, float]:
        return spans.get(span, {"self_s": 0.0, "total_s": 0.0, "calls": 0})

    metrics: Dict[str, float] = {}
    for metric, span in _SELF_TIMES.items():
        metrics[metric] = row(span)["self_s"] * per_pass
    for metric, span in _CALLS.items():
        metrics[metric] = row(span)["calls"] * per_pass
    for name in _COUNTS:
        metrics[name] = recorder.counts.get(name, 0.0) * per_pass
    metrics["orchestrator.shard_s"] = row("orchestrator.shard")["total_s"] * per_pass
    blocks = row("populations.synthesize")["calls"]
    distinct = recorder.distinct("populations.blocks")
    metrics["populations.resynthesis"] = blocks / distinct if distinct else 0.0
    return metrics
