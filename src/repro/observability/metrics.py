"""A thread-safe metrics registry: counters, gauges, histograms.

Every layer of the stack (COMPSs runtime, LSF scheduler, shared
filesystem, Ophidia server, HPCWaaS) reports into one shared
:class:`MetricsRegistry` instead of keeping private tallies, so a single
snapshot describes a whole workflow run.  The model follows Prometheus:
metrics are named families with a fixed label set; each distinct label
combination is an independent series.

Snapshots are first-class (:meth:`MetricsRegistry.snapshot`): benchmarks
bracket a run with two snapshots and report the delta, which isolates a
run's traffic from everything else the process has done.
"""

from __future__ import annotations

import bisect
import json
import threading
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "DEFAULT_BUCKETS",
    "get_registry",
    "snapshot_value",
    "snapshot_histogram_quantile",
]

#: Default histogram buckets (seconds): tuned for task/IO durations that
#: range from sub-millisecond NumPy kernels to minute-scale simulations.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)

_LabelKey = Tuple[str, ...]


def _label_key(label_names: Sequence[str], labels: Mapping[str, Any]) -> _LabelKey:
    if set(labels) != set(label_names):
        raise ValueError(
            f"expected labels {sorted(label_names)}, got {sorted(labels)}"
        )
    return tuple(str(labels[name]) for name in label_names)


def _format_labels(label_names: Sequence[str], key: _LabelKey) -> str:
    if not label_names:
        return ""
    inner = ",".join(
        f'{name}="{_escape(value)}"' for name, value in zip(label_names, key)
    )
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(value: str) -> str:
    # HELP lines escape only backslash and newline (not double quotes).
    return value.replace("\\", "\\\\").replace("\n", "\\n")


class _Metric:
    """Common machinery: name, help text, label schema, series storage."""

    kind = "untyped"

    def __init__(self, name: str, help: str, label_names: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(label_names)
        self._lock = threading.Lock()
        self._series: Dict[_LabelKey, Any] = {}

    def _key(self, labels: Mapping[str, Any]) -> _LabelKey:
        return _label_key(self.label_names, labels)

    def series(self) -> Dict[_LabelKey, Any]:
        """Copy of the raw series map (label tuple -> value)."""
        with self._lock:
            return dict(self._series)


class Counter(_Metric):
    """Monotonically increasing count (events, bytes, operations)."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0) + amount


class Gauge(_Metric):
    """A value that can go up and down (queue depth, utilisation)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = value


class _HistogramSeries:
    __slots__ = ("bucket_counts", "count", "sum")

    def __init__(self, n_buckets: int) -> None:
        self.bucket_counts = [0] * (n_buckets + 1)  # +1 for +Inf
        self.count = 0
        self.sum = 0.0

    def as_dict(self, bounds: Sequence[float]) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "buckets": {
                ("+Inf" if i == len(bounds) else repr(bounds[i])): c
                for i, c in enumerate(self.bucket_counts)
            },
        }


class Histogram(_Metric):
    """Bucketed distribution with quantile estimation.

    Buckets are upper bounds (exclusive of +Inf, which is implicit); the
    stored counts are per-bucket (non-cumulative) and cumulated on
    export, matching the Prometheus text format.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, label_names)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets: Tuple[float, ...] = bounds

    def observe(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        idx = bisect.bisect_left(self.buckets, value)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(len(self.buckets))
            series.bucket_counts[idx] += 1
            series.count += 1
            series.sum += value

    def merge_bucket_counts(
        self,
        labels: Mapping[str, Any],
        buckets: Mapping[str, float],
        count: float,
        total: float,
    ) -> None:
        """Fold exported bucket counts (snapshot-JSON shape) into a series.

        *buckets* maps bound strings (``repr(bound)`` or ``"+Inf"``) to
        non-cumulative per-bucket counts, exactly the shape
        :meth:`_HistogramSeries.as_dict` emits.  Bounds absent from this
        histogram's schema fold into the nearest bucket that would have
        caught the same observations (via ``bisect``), so merging across
        slightly different bucket layouts degrades gracefully instead of
        raising.
        """
        key = self._key(labels)
        n = len(self.buckets)
        increments = [0] * (n + 1)
        for bound_str, bucket_count in buckets.items():
            if not bucket_count:
                continue
            if bound_str == "+Inf":
                idx = n
            else:
                idx = min(bisect.bisect_left(self.buckets, float(bound_str)), n)
            increments[idx] += int(bucket_count)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(n)
            for i, c in enumerate(increments):
                series.bucket_counts[i] += c
            series.count += int(count)
            series.sum += total


class MetricsRegistry:
    """Thread-safe collection of named metrics.

    ``counter``/``gauge``/``histogram`` are get-or-create: repeated calls
    with the same name return the same object, and a name registered as
    one kind cannot be re-registered as another (or with a different
    label schema).
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}
        self._lock = threading.Lock()

    # -- registration -------------------------------------------------------

    def _get_or_create(self, cls, name: str, help: str, labels, **kwargs) -> Any:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                if tuple(labels) != existing.label_names:
                    raise ValueError(
                        f"metric {name!r} registered with labels "
                        f"{existing.label_names}, requested {tuple(labels)}"
                    )
                return existing
            metric = cls(name, help, labels, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels, buckets=buckets)

    # -- access -------------------------------------------------------------

    def metrics(self) -> List[_Metric]:
        with self._lock:
            return [self._metrics[k] for k in sorted(self._metrics)]

    # -- cross-process merge ------------------------------------------------

    def merge_delta(self, delta_json: Mapping[str, Any]) -> None:
        """Fold a snapshot-delta (JSON shape) from another process in.

        Counters add their deltas (non-positive deltas are skipped —
        a counter can only increase), gauges take the shipped value as
        the latest level, histograms merge per-bucket counts.  Families
        are get-or-create using the delta's help text and label schema,
        so a metric first touched inside a worker still materialises
        here.  A malformed family never raises: it is skipped and
        counted in ``telemetry_merge_errors_total``.
        """
        errors = 0
        for name, family in delta_json.items():
            try:
                self._merge_family(name, family)
            except Exception:
                errors += 1
        if errors:
            try:
                self.counter(
                    "telemetry_merge_errors_total",
                    "Metric families dropped while merging a shipped delta",
                ).inc(errors)
            except Exception:
                pass

    def _merge_family(self, name: str, family: Mapping[str, Any]) -> None:
        kind = family.get("kind", "untyped")
        help_ = family.get("help", "")
        label_names = tuple(family.get("labels", ()))
        series = family.get("series", [])
        if kind == "counter":
            counter = self.counter(name, help_, label_names)
            for entry in series:
                amount = entry.get("value", 0)
                if amount > 0:
                    counter.inc(amount, **entry["labels"])
        elif kind == "gauge":
            gauge = self.gauge(name, help_, label_names)
            for entry in series:
                gauge.set(entry.get("value", 0), **entry["labels"])
        elif kind == "histogram":
            bounds = _family_bounds(series)
            hist = self.histogram(
                name, help_, label_names,
                buckets=bounds if bounds else DEFAULT_BUCKETS,
            )
            for entry in series:
                hist.merge_bucket_counts(
                    entry["labels"], entry.get("buckets", {}),
                    entry.get("count", 0), entry.get("sum", 0.0),
                )
        else:
            raise ValueError(f"unknown metric kind {kind!r}")

    # -- export -------------------------------------------------------------

    def snapshot(self) -> "MetricsSnapshot":
        """Point-in-time copy of every series, as plain data."""
        data: Dict[str, Dict[str, Any]] = {}
        for metric in self.metrics():
            series_out = []
            for key, value in sorted(metric.series().items()):
                labels = dict(zip(metric.label_names, key))
                if isinstance(metric, Histogram):
                    series_out.append(
                        {"labels": labels, **value.as_dict(metric.buckets)}
                    )
                else:
                    series_out.append({"labels": labels, "value": value})
            data[metric.name] = {
                "kind": metric.kind,
                "help": metric.help,
                "labels": list(metric.label_names),
                "series": series_out,
            }
        return MetricsSnapshot(data)


class MetricsSnapshot:
    """An immutable registry snapshot: renderable, diffable, JSON-able."""

    def __init__(self, data: Dict[str, Dict[str, Any]]) -> None:
        self._data = data

    # -- queries ------------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        return json.loads(json.dumps(self._data))  # deep copy, JSON-clean

    def value(self, name: str, **labels: Any) -> float:
        """Sum of matching counter/gauge series (0 when absent)."""
        return snapshot_value(self._data, name, **labels)

    def quantile(self, name: str, q: float, **labels: Any) -> float:
        """Histogram quantile over matching series (``nan`` when absent)."""
        return snapshot_histogram_quantile(self._data, name, q, **labels)

    def __bool__(self) -> bool:
        return any(family["series"] for family in self._data.values())

    # -- delta --------------------------------------------------------------

    def delta(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """Traffic accumulated since *earlier*.

        Counters and histograms subtract; gauges keep this snapshot's
        value (a gauge is a level, not a flow).  Series absent from
        *earlier* pass through whole.
        """
        out: Dict[str, Dict[str, Any]] = {}
        for name, family in self._data.items():
            prev_family = earlier._data.get(name)
            prev_series = {}
            if prev_family is not None:
                prev_series = {
                    _series_key(s["labels"]): s for s in prev_family["series"]
                }
            new_series = []
            for entry in family["series"]:
                prev = prev_series.get(_series_key(entry["labels"]))
                new_series.append(_series_delta(family["kind"], entry, prev))
            kept = [s for s in new_series if s is not None]
            # A family whose every series is unchanged is not traffic;
            # dropping it keeps shipped worker deltas minimal.
            if kept:
                out[name] = {**family, "series": kept}
        return MetricsSnapshot(out)

    # -- rendering ----------------------------------------------------------

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (v0.0.4)."""
        lines: List[str] = []
        for name in sorted(self._data):
            family = self._data[name]
            if family["help"]:
                lines.append(f"# HELP {name} {_escape_help(family['help'])}")
            lines.append(f"# TYPE {name} {family['kind']}")
            label_names = family["labels"]
            for entry in family["series"]:
                key = tuple(str(entry["labels"][n]) for n in label_names)
                label_txt = _format_labels(label_names, key)
                if family["kind"] == "histogram":
                    cumulative = 0
                    for bound, count in entry["buckets"].items():
                        cumulative += count
                        le = _merge_label(label_names, key, "le", bound)
                        lines.append(f"{name}_bucket{le} {cumulative}")
                    lines.append(f"{name}_sum{label_txt} {_fmt(entry['sum'])}")
                    lines.append(f"{name}_count{label_txt} {entry['count']}")
                else:
                    lines.append(f"{name}{label_txt} {_fmt(entry['value'])}")
        return "\n".join(lines) + ("\n" if lines else "")


def _series_key(labels: Mapping[str, Any]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _family_bounds(series: Iterable[Mapping[str, Any]]) -> Tuple[float, ...]:
    """Recover finite bucket bounds from exported histogram series."""
    for entry in series:
        bounds = tuple(
            float(b) for b in entry.get("buckets", {}) if b != "+Inf"
        )
        if bounds:
            return tuple(sorted(bounds))
    return ()


def _series_delta(kind: str, entry: Dict[str, Any], prev: Optional[Dict[str, Any]]):
    if prev is None or kind == "gauge":
        return dict(entry)
    if kind == "histogram":
        buckets = {
            bound: count - prev["buckets"].get(bound, 0)
            for bound, count in entry["buckets"].items()
        }
        count = entry["count"] - prev["count"]
        if count == 0:
            return None
        return {
            "labels": dict(entry["labels"]),
            "count": count,
            "sum": entry["sum"] - prev["sum"],
            "buckets": buckets,
        }
    value = entry["value"] - prev["value"]
    if value == 0:
        return None
    return {"labels": dict(entry["labels"]), "value": value}


def _merge_label(label_names, key, extra_name, extra_value) -> str:
    names = list(label_names) + [extra_name]
    values = tuple(key) + (str(extra_value),)
    return _format_labels(names, values)


def _fmt(value: float) -> str:
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == float("inf"):
            return "+Inf"
        if value == float("-inf"):
            return "-Inf"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
    return repr(value)


def snapshot_value(snapshot_json: Mapping[str, Any], name: str, **labels: Any) -> float:
    """Sum matching series of a JSON-ified snapshot (benchmark helper).

    For counters and gauges, sums ``value``; for histograms, sums
    ``sum`` (total observed time), since that is the headline quantity
    benchmarks report.
    """
    family = snapshot_json.get(name)
    if family is None:
        return 0.0
    total = 0.0
    for entry in family["series"]:
        entry_labels = entry["labels"]
        if all(str(entry_labels.get(k)) == str(v) for k, v in labels.items()):
            total += entry.get("value", entry.get("sum", 0.0))
    return total


def snapshot_histogram_quantile(
    snapshot_json: Mapping[str, Any], name: str, q: float, **labels: Any
) -> float:
    """Estimate a histogram quantile from a JSON-ified snapshot.

    Interpolates linearly inside the bucket that holds the quantile,
    operating on exported bucket counts (so the stored snapshots of past
    runs yield p50/p95/p99 too).  Matching series merge first;
    returns ``nan`` when the metric is absent, not a histogram, or has
    no observations.  The open-ended ``+Inf`` bucket clamps to the last
    finite bound.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    family = snapshot_json.get(name)
    if family is None or family.get("kind") != "histogram":
        return float("nan")
    merged: Dict[float, int] = {}
    total = 0
    for entry in family["series"]:
        entry_labels = entry["labels"]
        if not all(str(entry_labels.get(k)) == str(v) for k, v in labels.items()):
            continue
        for bound, count in entry["buckets"].items():
            b = float("inf") if bound == "+Inf" else float(bound)
            merged[b] = merged.get(b, 0) + count
        total += entry["count"]
    if total == 0:
        return float("nan")
    bounds = sorted(merged)
    finite = [b for b in bounds if b != float("inf")]
    if not finite:
        return float("nan")
    target = q * total
    cumulative = 0
    for i, bound in enumerate(bounds):
        count = merged[bound]
        prev = cumulative
        cumulative += count
        if cumulative >= target and count > 0:
            lo = 0.0 if i == 0 else bounds[i - 1]
            hi = bound if bound != float("inf") else finite[-1]
            if lo == float("inf"):
                lo = hi
            frac = (target - prev) / count
            return lo + (hi - lo) * min(1.0, max(0.0, frac))
    return finite[-1]


# ---------------------------------------------------------------------------
# Process-wide default registry
# ---------------------------------------------------------------------------

_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry all instrumented layers report into."""
    return _default_registry
