"""Unified telemetry: metrics registry, workflow-wide spans, exporters.

This package is the measurement substrate of the whole stack.  All
layers — the COMPSs runtime and scheduler, the LSF batch system, the
shared filesystem, the Ophidia server and the HPCWaaS lifecycle —
report into one process-wide :class:`MetricsRegistry` and record
:class:`Span` trees into one :class:`TraceCollector`, so a single
workflow run yields:

* a Prometheus-text / JSON metrics snapshot (``repro metrics``), and
* one correlated Chrome/Perfetto trace spanning every layer
  (``repro run --trace-out trace.json``).

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
    set_registry,
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
    new_context,
    record_span,
    set_collector,
    span,
)
from repro.observability.export import (
    build_perfetto_trace,
    render_run_report,
    snapshot_from_json,
)
from repro.observability.profile import (
    WorkflowProfile,
    profile_from_perfetto,
    profile_spans,
    render_profile,
)
from repro.observability.baseline import (
    compare_to_baseline,
    extract_headline_metrics,
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
    set_event_log,
    tail_events,
)
from repro.observability.history import (
    RunHistory,
    RunRecord,
    compare_runs,
    default_history_path,
    new_run_id,
    render_comparison,
    render_run,
    render_run_table,
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
    "set_registry",
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
    "new_context",
    "record_span",
    "span",
    "snapshot_histogram_quantile",
    "build_perfetto_trace",
    "render_run_report",
    "snapshot_from_json",
    "WorkflowProfile",
    "profile_spans",
    "profile_from_perfetto",
    "render_profile",
    "compare_to_baseline",
    "extract_headline_metrics",
    "Event",
    "EventLog",
    "current_run_id",
    "emit_event",
    "get_event_log",
    "read_events",
    "render_event",
    "run_scope",
    "set_event_log",
    "tail_events",
    "RunHistory",
    "RunRecord",
    "compare_runs",
    "default_history_path",
    "new_run_id",
    "render_comparison",
    "render_run",
    "render_run_table",
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
