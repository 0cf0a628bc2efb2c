"""In-process metrics: counters, gauges, histograms, labeled families.

The registry is the single mutable object of the telemetry layer.  Hot
paths hold *instrument* handles (resolved once, at construction time)
and call ``inc`` / ``set`` / ``observe`` on them; the registry turns the
accumulated state into a deterministic **snapshot** — a plain-dict form
that serializes to byte-stable JSON, merges across processes, and
renders to Prometheus text (:mod:`repro.telemetry.exposition`).

Design constraints, in order:

* **Zero overhead when disabled.**  The default registry is
  :data:`NULL_REGISTRY`; its instruments are shared no-op singletons and
  its ``enabled`` attribute is ``False``, so instrumented code guards
  its timing calls with one attribute check and pays nothing else.
* **Determinism.**  Snapshots sort metric names and label sets, and
  histograms use *fixed* log-spaced buckets — two registries that saw
  the same events produce byte-identical snapshots, and merging is
  plain elementwise arithmetic with no bucket realignment.
* **Mergeability.**  :func:`merge_snapshots` folds worker snapshots into
  one: counters and histograms add, gauges keep the *last* writer in
  the order given (the orchestrator merges in canonical shard order, so
  parallel runs merge identically to serial runs).
* **Thread safety.**  One re-entrant lock per registry, shared by its
  families and child instruments, serializes ``inc``/``set``/
  ``observe`` against ``snapshot``/``merge``/child creation — the audit
  service records from job-engine worker threads while the event loop
  scrapes ``/metrics``, and neither loses updates nor sees a dict
  mutate mid-iteration.

No third-party dependencies; this module must import in a bare worker
process in microseconds.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

#: Snapshot format version; bump when the snapshot layout changes.
SNAPSHOT_VERSION = 1

_TYPES = ("counter", "gauge", "histogram")


def log_buckets(
    minimum: float, maximum: float, per_decade: int = 3
) -> Tuple[float, ...]:
    """Fixed log-spaced histogram bucket bounds covering [minimum, maximum].

    Returns ``per_decade`` bounds per power of ten, rounded to three
    significant digits so the bounds — which become part of the snapshot
    and the Prometheus exposition — are stable, human-readable numbers
    (1, 2.15, 4.64, 10, ...).  Bounds are strictly increasing and the
    last bound is >= ``maximum``; observations above it land in the
    implicit +Inf bucket.
    """
    if not (0 < minimum < maximum) or not math.isfinite(maximum):
        raise ConfigurationError(
            f"bucket range must satisfy 0 < min < max < inf, got "
            f"[{minimum}, {maximum}]"
        )
    if per_decade < 1:
        raise ConfigurationError(f"per_decade must be >= 1, got {per_decade}")
    bounds: List[float] = []
    exponent = math.floor(math.log10(minimum) * per_decade)
    while True:
        raw = 10.0 ** (exponent / per_decade)
        bound = float(f"{raw:.3g}")
        if not bounds or bound > bounds[-1]:
            bounds.append(bound)
        if bound >= maximum:
            break
        exponent += 1
    return tuple(bounds)


#: Default wall-time buckets: 10 microseconds to 1000 seconds.
DEFAULT_TIME_BUCKETS = log_buckets(1e-5, 1e3, per_decade=3)

#: Default size/count buckets: 1 to 10^8 (agents, batch sizes, committees).
DEFAULT_SIZE_BUCKETS = log_buckets(1.0, 1e8, per_decade=3)


def _check_name(name: str) -> str:
    """Validate a Prometheus-compatible metric or label name."""
    if not name or not (name[0].isalpha() or name[0] == "_"):
        raise ConfigurationError(f"invalid metric/label name {name!r}")
    for ch in name:
        if not (ch.isalnum() or ch in "_:"):
            raise ConfigurationError(f"invalid metric/label name {name!r}")
    return name


class Counter:
    """A monotonically increasing sum (one labeled child of a family)."""

    __slots__ = ("value", "_lock")

    def __init__(self, lock: Optional[threading.RLock] = None) -> None:
        self.value = 0.0
        self._lock = lock if lock is not None else threading.RLock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ConfigurationError(
                f"counters only go up; inc({amount}) is negative"
            )
        with self._lock:
            self.value += amount


class Gauge:
    """A point-in-time value (one labeled child of a family)."""

    __slots__ = ("value", "_lock")

    def __init__(self, lock: Optional[threading.RLock] = None) -> None:
        self.value = 0.0
        self._lock = lock if lock is not None else threading.RLock()

    def set(self, value: float) -> None:
        """Overwrite the gauge with ``value``."""
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the gauge by ``amount`` (may be negative)."""
        with self._lock:
            self.value += amount


class Histogram:
    """Fixed-bucket distribution (one labeled child of a family).

    ``counts[i]`` holds observations in ``(bounds[i-1], bounds[i]]``;
    the trailing slot counts overflows above the last bound (the +Inf
    bucket of the Prometheus exposition).  Buckets never change after
    construction, which is what makes cross-process merges plain
    elementwise addition.
    """

    __slots__ = ("bounds", "counts", "sum", "count", "_lock")

    def __init__(
        self,
        bounds: Sequence[float],
        lock: Optional[threading.RLock] = None,
    ) -> None:
        self.bounds = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ConfigurationError(
                f"histogram bounds must be strictly increasing: {bounds}"
            )
        if not self.bounds:
            raise ConfigurationError("histogram needs at least one bucket bound")
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self._lock = lock if lock is not None else threading.RLock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            self.sum += value
            self.count += 1
            # First bound >= value (C-speed binary search); len(bounds)
            # when the value overflows every bound — the trailing +Inf
            # slot.
            self.counts[bisect_left(self.bounds, value)] += 1

    def observe_many(self, values: Iterable[float]) -> None:
        """Record several observations, in order, under one lock hold.

        The same state as one :meth:`observe` per value, for a hot loop
        that has a batch in hand: one lock acquisition instead of one per
        value.
        """
        values = [float(value) for value in values]
        bounds, counts = self.bounds, self.counts
        with self._lock:
            for value in values:
                self.sum += value
                self.count += 1
                counts[bisect_left(bounds, value)] += 1


class _NullInstrument:
    """Shared no-op stand-in for every instrument of the null registry."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        """Discard the increment."""

    def set(self, value: float) -> None:
        """Discard the value."""

    def observe(self, value: float) -> None:
        """Discard the observation."""

    def observe_many(self, values: Iterable[float]) -> None:
        """Discard the observations."""

    def labels(self, **label_values: str) -> "_NullInstrument":
        """Return the shared no-op child."""
        return self


_NULL_INSTRUMENT = _NullInstrument()


class MetricFamily:
    """One named metric and its labeled children.

    An unlabeled metric is a family with no label names and exactly one
    child (the empty label set).  ``labels(**values)`` resolves (and
    memoizes) the child for one label-value combination; hot paths
    should resolve children once and hold the handles.
    """

    __slots__ = (
        "name",
        "help",
        "type",
        "label_names",
        "bounds",
        "_children",
        "_lock",
    )

    def __init__(
        self,
        name: str,
        help_text: str,
        metric_type: str,
        label_names: Tuple[str, ...],
        bounds: Optional[Tuple[float, ...]] = None,
        lock: Optional[threading.RLock] = None,
    ) -> None:
        self.name = _check_name(name)
        self.help = help_text
        if metric_type not in _TYPES:
            raise ConfigurationError(f"unknown metric type {metric_type!r}")
        self.type = metric_type
        self.label_names = tuple(_check_name(label) for label in label_names)
        self.bounds = bounds
        self._lock = lock if lock is not None else threading.RLock()
        self._children: Dict[Tuple[str, ...], object] = {}
        if not self.label_names:
            self._children[()] = self._make_child()

    def _make_child(self):
        if self.type == "counter":
            return Counter(self._lock)
        if self.type == "gauge":
            return Gauge(self._lock)
        return Histogram(self.bounds or DEFAULT_TIME_BUCKETS, self._lock)

    def labels(self, **label_values: str):
        """The child instrument for one label-value combination."""
        if set(label_values) != set(self.label_names):
            raise ConfigurationError(
                f"metric {self.name!r} expects labels {self.label_names}, "
                f"got {tuple(sorted(label_values))}"
            )
        key = tuple(str(label_values[label]) for label in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
        return child

    # Unlabeled families proxy the instrument API of their single child.

    def inc(self, amount: float = 1.0) -> None:
        """Increment the unlabeled child (counters/gauges only)."""
        self._children[()].inc(amount)

    def set(self, value: float) -> None:
        """Set the unlabeled child (gauges only)."""
        self._children[()].set(value)

    def observe(self, value: float) -> None:
        """Observe into the unlabeled child (histograms only)."""
        self._children[()].observe(value)

    def samples(self) -> List[Dict[str, object]]:
        """Deterministic sample list: one entry per labeled child."""
        out: List[Dict[str, object]] = []
        with self._lock:
            for key in sorted(self._children):
                child = self._children[key]
                labels = dict(zip(self.label_names, key))
                if self.type == "histogram":
                    out.append(
                        {
                            "labels": labels,
                            "bounds": list(child.bounds),
                            "counts": list(child.counts),
                            "sum": child.sum,
                            "count": child.count,
                        }
                    )
                else:
                    out.append({"labels": labels, "value": child.value})
        return out


class MetricsRegistry:
    """A collection of metric families; the live end of the telemetry layer.

    ``counter`` / ``gauge`` / ``histogram`` are idempotent get-or-create
    calls: repeated registration with a consistent signature returns the
    existing family, a conflicting signature raises.  ``snapshot()``
    freezes the state into the deterministic plain-dict form that
    :func:`merge_snapshots`, :mod:`repro.telemetry.exposition` and the
    shard-outcome plumbing all consume.
    """

    #: Instrumented code guards costly work (timers, size computations)
    #: behind this attribute; the null registry sets it ``False``.
    enabled = True

    def __init__(self) -> None:
        # One re-entrant lock for the whole registry, shared with every
        # family and child instrument: snapshot/merge hold it while they
        # iterate, so a concurrent inc()/labels() from another thread
        # can neither lose an update nor mutate a dict mid-iteration.
        self._lock = threading.RLock()
        self._families: Dict[str, MetricFamily] = {}

    def _get_or_create(
        self,
        name: str,
        help_text: str,
        metric_type: str,
        labels: Tuple[str, ...],
        bounds: Optional[Tuple[float, ...]],
    ) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if (
                    family.type != metric_type
                    or family.label_names != tuple(labels)
                    or (metric_type == "histogram" and family.bounds != bounds)
                ):
                    raise ConfigurationError(
                        f"metric {name!r} is already registered as a "
                        f"{family.type} with labels {family.label_names}"
                    )
                return family
            family = MetricFamily(
                name, help_text, metric_type, tuple(labels), bounds, self._lock
            )
            self._families[name] = family
            return family

    def counter(
        self, name: str, help_text: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        """Get or create a counter family."""
        return self._get_or_create(name, help_text, "counter", tuple(labels), None)

    def gauge(
        self, name: str, help_text: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        """Get or create a gauge family."""
        return self._get_or_create(name, help_text, "gauge", tuple(labels), None)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ) -> MetricFamily:
        """Get or create a fixed-bucket histogram family."""
        return self._get_or_create(
            name, help_text, "histogram", tuple(labels), tuple(buckets)
        )

    def snapshot(self) -> Dict[str, object]:
        """The registry's state as a deterministic plain dict.

        Metric names and label sets are sorted, so two registries that
        recorded the same events serialize byte-identically (via
        ``json.dumps(..., sort_keys=True)``).
        """
        with self._lock:
            return {
                "version": SNAPSHOT_VERSION,
                "metrics": {
                    name: {
                        "type": family.type,
                        "help": family.help,
                        "labels": list(family.label_names),
                        "samples": family.samples(),
                    }
                    for name, family in sorted(self._families.items())
                },
            }

    def merge(self, snapshot: Mapping[str, object]) -> None:
        """Fold one snapshot into this registry.

        Counters sum, histograms add bucket-wise (bounds must match),
        gauges keep the merged-in value — callers merge in canonical
        shard order, which pins "last" deterministically.
        """
        if snapshot.get("version") != SNAPSHOT_VERSION:
            raise ConfigurationError(
                f"cannot merge snapshot version {snapshot.get('version')!r}; "
                f"this registry speaks version {SNAPSHOT_VERSION}"
            )
        with self._lock:
            self._merge_locked(snapshot)

    def _merge_locked(self, snapshot: Mapping[str, object]) -> None:
        for name, payload in snapshot["metrics"].items():
            metric_type = payload["type"]
            labels = tuple(payload["labels"])
            for sample in payload["samples"]:
                if metric_type == "histogram":
                    family = self.histogram(
                        name,
                        payload.get("help", ""),
                        labels=labels,
                        buckets=tuple(sample["bounds"]),
                    )
                elif metric_type == "counter":
                    family = self.counter(name, payload.get("help", ""), labels)
                else:
                    family = self.gauge(name, payload.get("help", ""), labels)
                child = family.labels(**sample["labels"])
                if metric_type == "counter":
                    child.inc(sample["value"])
                elif metric_type == "gauge":
                    child.set(sample["value"])
                else:
                    if tuple(sample["bounds"]) != child.bounds:
                        raise ConfigurationError(
                            f"histogram {name!r} bucket bounds changed between "
                            "snapshots; fixed buckets are the merge contract"
                        )
                    for i, count in enumerate(sample["counts"]):
                        child.counts[i] += count
                    child.sum += sample["sum"]
                    child.count += sample["count"]


class NullRegistry:
    """The disabled-mode registry: every instrument is a shared no-op.

    ``enabled`` is ``False`` so instrumented code skips its timing calls
    entirely; ``counter``/``gauge``/``histogram`` hand back the one
    no-op singleton, making construction-time instrument resolution
    free.  ``snapshot()`` returns an empty (but well-formed) snapshot.
    """

    enabled = False

    def counter(self, name: str, help_text: str = "", labels: Sequence[str] = ()):
        """Return the shared no-op instrument."""
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help_text: str = "", labels: Sequence[str] = ()):
        """Return the shared no-op instrument."""
        return _NULL_INSTRUMENT

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ):
        """Return the shared no-op instrument."""
        return _NULL_INSTRUMENT

    def snapshot(self) -> Dict[str, object]:
        """An empty, well-formed snapshot."""
        return {"version": SNAPSHOT_VERSION, "metrics": {}}

    def merge(self, snapshot: Mapping[str, object]) -> None:
        """Discard the snapshot (disabled mode keeps no state)."""


#: The process-wide disabled-mode registry (the default active registry).
NULL_REGISTRY = NullRegistry()


def merge_snapshots(snapshots: Iterable[Mapping[str, object]]) -> Dict[str, object]:
    """Merge snapshots into one, in the order given.

    Pure convenience over :meth:`MetricsRegistry.merge`: counters and
    histograms accumulate, gauges keep the last snapshot's value.  The
    iteration order is the determinism contract — pass shard snapshots
    in canonical shard order.
    """
    registry = MetricsRegistry()
    for snapshot in snapshots:
        registry.merge(snapshot)
    return registry.snapshot()
