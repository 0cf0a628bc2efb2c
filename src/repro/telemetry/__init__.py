"""Zero-dependency observability for the reproduction pipeline.

``repro.telemetry`` provides the three layers the experiment stack
instruments itself with:

* **Metrics** (:mod:`repro.telemetry.metrics`) — an in-process registry
  of counters, gauges, and fixed-bucket log-spaced histograms, grouped
  into labeled families.  Snapshots are deterministic (sorted names and
  label sets) and mergeable across processes: counters sum, histogram
  buckets add elementwise, gauges keep the last writer in canonical
  shard order.
* **Runtime** (:mod:`repro.telemetry.runtime`) — the process-wide
  active registry.  Telemetry is *off* by default: instrumented code
  resolves :func:`get_registry` and gets a shared null object whose
  operations are no-ops, so the disabled-mode overhead is a dictionary
  lookup at construction time, not per-event work.  :func:`enable`
  turns it on globally; :func:`capture` scopes a private registry to a
  block (the shard-worker and benchmark primitive).
* **Spans** (:mod:`repro.telemetry.spans`) — ``with span("name", n=...)``
  tracing that records inclusive and exclusive wall time, invocation
  counts, numeric attributes, and optional peak-RSS samples into the
  active registry.

Exposition lives in :mod:`repro.telemetry.exposition`: Prometheus text
format 0.0.4 (:func:`to_prometheus_text`), byte-stable JSON
(:func:`snapshot_to_json`), and the CI linter
(:func:`lint_prometheus_text`).

Nothing in this package ever reaches the shard cache: cache keys hash
only sweep parameters, and cached payloads carry results, not
snapshots — telemetry-on and telemetry-off runs produce byte-identical
experiment output.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "exposition": (
        "PROMETHEUS_CONTENT_TYPE",
        "lint_prometheus_text",
        "snapshot_to_json",
        "to_prometheus_text",
    ),
    "metrics": (
        "DEFAULT_SIZE_BUCKETS",
        "DEFAULT_TIME_BUCKETS",
        "NULL_REGISTRY",
        "SNAPSHOT_VERSION",
        "Counter",
        "Gauge",
        "Histogram",
        "MetricFamily",
        "MetricsRegistry",
        "NullRegistry",
        "log_buckets",
        "merge_snapshots",
    ),
    "runtime": ("capture", "disable", "enable", "get_registry", "telemetry_enabled"),
    "spans": ("SPAN_TIME_BUCKETS", "Span", "rss_max_mib", "span"),
})
