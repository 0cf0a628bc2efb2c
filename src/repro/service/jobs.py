"""Job kinds: validated, content-addressed units of service work.

Every ``POST /v1/jobs`` body names a **kind** (``audit``, ``dynamics``,
``scenarios``, ``tournament``) plus a ``params`` object.  The kinds are
not written here: each is an experiment spec of
:mod:`repro.analysis.experiments` that declares a ``kind`` (``scale`` is
served as ``audit``), so a job accepts exactly the fields of its CLI
experiment, with the same validators and the ``small`` preset's defaults
(save the three :data:`~repro.analysis.experiments.SERVICE_DEFAULTS`).

:func:`prepare_job` turns a request into a :class:`PreparedJob`.
Parameters are validated *eagerly*: unknown kinds or fields, out-of-range
values and unknown scheme or population-family names all raise
:class:`~repro.errors.ConfigurationError` at submission time, so the HTTP
front end answers a structured 400 and a bad request never reaches a
worker thread.  The validated fields, with every default filled in, are
the canonical params whose SHA-256 content hash (the same
:func:`~repro.analysis.sweep.canonical_json` idiom the shard cache uses)
becomes the job's **memoization key**.  Two requests that mean the same
computation hash to the same key no matter how their JSON was spelled,
which is what makes single-flight deduplication and repeat-request cache
hits sound.

Execution runs the spec's own ``run`` and ``payload``, the code path of
``repro-runner <experiment> --out DIR``, so the served result is
byte-identical to the CLI's ``<experiment>.json`` by construction, not by
testing alone (the black-box suite checks it anyway).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Union

from repro.analysis.experiments import EXPERIMENTS, ExperimentSpec
from repro.analysis.retry import ExecutionPolicy
from repro.analysis.sweep import canonical_json
from repro.errors import ConfigurationError

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


def _prepare(spec: ExperimentSpec, raw: Mapping[str, Any]) -> PreparedJob:
    """One request of ``spec``'s kind: validate, build, key, and bind ``run``."""
    kind = spec.kind
    values = spec.resolve(raw, spec.served, owner=f"{kind} job")
    config = spec.build(values)
    params = spec.params(values)

    def run(context: JobContext) -> Dict[str, Any]:
        """Run the experiment and return its deterministic payload."""
        result = spec.run(
            config,
            workers=context.workers,
            cache_dir=context.cache_dir,
            progress=False,
            policy=context.policy,
        )
        return spec.payload(result)

    return PreparedJob(kind, params, job_key(kind, params), run)


#: The job-kind registry: request ``kind`` -> prepare function, one per
#: experiment spec that declares a kind.  The engine and HTTP layer are
#: kind-agnostic.
JOB_KINDS: Dict[str, Callable[[Mapping[str, Any]], PreparedJob]] = {
    spec.kind: partial(_prepare, spec)
    for spec in EXPERIMENTS.values()
    if spec.kind is not None
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
    if params is None:
        params = {}
    elif not isinstance(params, Mapping):
        raise ConfigurationError(
            f"'params' must be a JSON object, got {type(params).__name__}"
        )
    return JOB_KINDS[kind](params)
