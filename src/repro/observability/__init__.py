"""Unified telemetry: metrics registry, workflow-wide spans, exporters.

This package is the measurement substrate of the whole stack.  All
layers — the COMPSs runtime and scheduler, the LSF batch system, the
shared filesystem, the Ophidia server and the HPCWaaS lifecycle —
report into one process-wide :class:`MetricsRegistry` and record
:class:`Span` trees into one :class:`TraceCollector`, so a single
workflow run yields:

* one record of the finished run — its metrics snapshot and
  critical-path profile, in ``<scratch>/results/run_summary.json`` and
  ``runs.db``, read back by ``repro explain RUN`` — and
* one correlated Chrome/Perfetto trace spanning every layer
  (``<scratch>/results/trace.json`` after ``repro run``).

See ``docs/OBSERVABILITY.md`` for the metric names, the span taxonomy
and what consumes them.
"""

from repro.observability.metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    get_registry,
    snapshot_histogram_quantile,
    snapshot_value,
)
from repro.observability.spans import (
    Span,
    SpanContext,
    SpanHandle,
    TraceCollector,
    activate,
    current_context,
    get_collector,
    maybe_span,
    record_span,
    set_collector,
    span,
)
from repro.observability.export import (
    build_perfetto_trace,
    snapshot_from_json,
)
from repro.observability.profile import (
    WorkflowProfile,
    profile_spans,
    render_profile,
)
from repro.observability.events import (
    Event,
    EventLog,
    current_run_id,
    emit_event,
    get_event_log,
    read_events,
    render_event,
    run_scope,
    tail_events,
)
from repro.observability.history import (
    RunHistory,
    RunRecord,
    compare_runs,
    default_history_path,
    new_run_id,
    render_comparison,
    render_record,
    render_run_table,
    resolve_run,
)
from repro.observability.resources import (
    ResourceSampler,
    process_sampler,
    sample_process_resources,
)
from repro.observability.shipping import (
    TelemetryCapture,
    deserialize_context,
    merge_envelope,
    serialize_context,
    span_from_json,
    span_to_json,
)
from repro.observability.slo import (
    SLOMonitor,
    SLOResult,
    SLORule,
    evaluate_rules,
    load_slo_rules,
    parse_slo_rules,
    render_slo_report,
    slo_report,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "DEFAULT_BUCKETS",
    "get_registry",
    "snapshot_value",
    "Span",
    "SpanContext",
    "SpanHandle",
    "TraceCollector",
    "activate",
    "current_context",
    "get_collector",
    "set_collector",
    "maybe_span",
    "record_span",
    "span",
    "snapshot_histogram_quantile",
    "build_perfetto_trace",
    "snapshot_from_json",
    "WorkflowProfile",
    "profile_spans",
    "render_profile",
    "Event",
    "EventLog",
    "current_run_id",
    "emit_event",
    "get_event_log",
    "read_events",
    "render_event",
    "run_scope",
    "tail_events",
    "RunHistory",
    "RunRecord",
    "compare_runs",
    "default_history_path",
    "new_run_id",
    "render_comparison",
    "render_record",
    "render_run_table",
    "resolve_run",
    "ResourceSampler",
    "process_sampler",
    "sample_process_resources",
    "TelemetryCapture",
    "deserialize_context",
    "merge_envelope",
    "serialize_context",
    "span_from_json",
    "span_to_json",
    "SLOMonitor",
    "SLOResult",
    "SLORule",
    "evaluate_rules",
    "load_slo_rules",
    "parse_slo_rules",
    "render_slo_report",
    "slo_report",
]
