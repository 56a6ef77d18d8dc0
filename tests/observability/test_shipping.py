"""Cross-process telemetry shipping: merge semantics and capture.

The process backend runs kernels in spawn workers whose spans and
metrics only reach the driver through the telemetry envelope.  These
tests pin the channel's contracts in-process: registry delta merging
(counter-add / gauge-latest / histogram-bucket-merge), span
serialisation, the worker-side :class:`TelemetryCapture` lifecycle,
resource sampling, drop accounting, and the exposition fixes that ride
along (HELP escaping, non-finite sample values).
"""

import pickle

import pytest

from repro.observability.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    get_registry,
    snapshot_histogram_quantile,
    snapshot_value,
)
from repro.observability.shipping import (
    TelemetryCapture,
    deserialize_context,
    merge_envelope,
    serialize_context,
    span_from_json,
    span_to_json,
)
from repro.observability.spans import (
    Span,
    SpanContext,
    TraceCollector,
    set_collector,
    span,
)
from repro.observability.resources import ResourceSampler


@pytest.fixture
def fresh_globals(fresh_registry):
    """Isolate the process-wide registry and collector."""
    collector = set_collector(TraceCollector())
    yield fresh_registry, collector
    set_collector(TraceCollector())


def _delta_json(registry, before):
    return registry.snapshot().delta(before).to_json()


class TestMergeDelta:
    def test_counters_add(self):
        src, dst = MetricsRegistry(), MetricsRegistry()
        before = src.snapshot()
        src.counter("jobs_total", "jobs", ("queue",)).inc(3, queue="short")
        dst.counter("jobs_total", "jobs", ("queue",)).inc(2, queue="short")
        dst.merge_delta(_delta_json(src, before))
        snap = dst.snapshot().to_json()
        assert snapshot_value(snap, "jobs_total", queue="short") == 5

    def test_gauge_takes_latest(self):
        src, dst = MetricsRegistry(), MetricsRegistry()
        dst.gauge("depth", "queue depth").set(10)
        src.gauge("depth", "queue depth").set(3)
        dst.merge_delta(src.snapshot().to_json())
        assert snapshot_value(dst.snapshot().to_json(), "depth") == 3

    def test_histogram_buckets_and_quantiles_merge(self):
        src, dst = MetricsRegistry(), MetricsRegistry()
        hist = src.histogram("lat_s", "latency", ("op",))
        for v in (0.003, 0.02, 0.02, 1.5):
            hist.observe(v, op="sub")
        delta = src.snapshot().to_json()
        dst.merge_delta(delta)
        dst.merge_delta(delta)  # double-merge: counts must double
        snap = dst.snapshot().to_json()
        entry = snap["lat_s"]["series"][0]
        assert entry["count"] == 8
        assert entry["sum"] == pytest.approx(2 * (0.003 + 0.02 + 0.02 + 1.5))
        p50 = snapshot_histogram_quantile(snap, "lat_s", 0.5, op="sub")
        assert 0.01 <= p50 <= 0.1

    def test_histogram_merge_with_foreign_bounds_degrades(self):
        src, dst = MetricsRegistry(), MetricsRegistry()
        src.histogram("t_s", "t", buckets=(0.015, 2.0)).observe(0.01)
        src.histogram("t_s", "t", buckets=(0.015, 2.0)).observe(1.0)
        # Destination already has the family under the default layout:
        # counts fold into the nearest enclosing default bucket.
        dst.histogram("t_s", "t", buckets=DEFAULT_BUCKETS).observe(0.5)
        dst.merge_delta(src.snapshot().to_json())
        entry = dst.snapshot().to_json()["t_s"]["series"][0]
        assert entry["count"] == 3
        assert entry["sum"] == pytest.approx(0.5 + 0.01 + 1.0)

    def test_nonpositive_counter_deltas_skipped(self):
        dst = MetricsRegistry()
        dst.counter("c_total", "c").inc(4)
        dst.merge_delta({
            "c_total": {"kind": "counter", "help": "c", "labels": [],
                        "series": [{"labels": {}, "value": 0.0}]},
        })
        assert snapshot_value(dst.snapshot().to_json(), "c_total") == 4

    def test_bad_family_counted_not_raised(self):
        dst = MetricsRegistry()
        dst.merge_delta({
            "weird": {"kind": "mystery", "help": "", "labels": [],
                      "series": [{"labels": {}, "value": 1.0}]},
        })
        snap = dst.snapshot().to_json()
        assert snapshot_value(snap, "telemetry_merge_errors_total") == 1


class TestSpanSerialisation:
    def test_round_trip_preserves_every_field(self):
        original = Span(
            name="worker.kernel", trace_id="t" * 16, span_id="s" * 16,
            parent_id="p" * 16, layer="worker", start=12.5, end=13.25,
            status="ERROR", attrs={"fragment": 3, "ops": "sub"},
            thread_id=42, thread_name="worker-pid7",
        )
        restored = span_from_json(span_to_json(original))
        assert restored == original

    def test_context_round_trip(self):
        ctx = SpanContext("t" * 16, "s" * 16)
        assert deserialize_context(serialize_context(ctx)) == ctx
        assert serialize_context(None) is None
        assert deserialize_context(None) is None


class TestTelemetryCapture:
    def test_capture_joins_parent_trace_and_ships_delta(self, fresh_globals):
        registry, collector = fresh_globals
        parent = SpanContext("t" * 16, "s" * 16)
        with TelemetryCapture(
            serialize_context(parent), "worker.kernel",
            attrs={"fragment": 2},
        ) as capture:
            get_registry().counter("kernel_runs_total", "runs").inc()
            with span("worker.stage", layer="worker"):
                pass
        envelope = capture.envelope()

        names = {doc["name"] for doc in envelope["spans"]}
        assert "worker.kernel" in names
        for doc in envelope["spans"]:
            assert doc["trace_id"] == parent.trace_id
            assert doc["thread_name"].startswith("worker-pid")
        roots = [d for d in envelope["spans"] if d["name"] == "worker.kernel"]
        assert roots[0]["parent_id"] == parent.span_id
        assert snapshot_value(envelope["metrics"], "kernel_runs_total") == 1
        # CPU/RSS samples ride in the same envelope.
        assert "process_rss_bytes" in envelope["metrics"]
        # The delta must survive the pickle boundary to the parent.
        assert pickle.loads(pickle.dumps(envelope)) == envelope
        # The capture restored the original collector and did not leak
        # worker spans into it.
        assert collector.spans() == []

    def test_capture_registry_bracketing_excludes_prior_counts(
        self, fresh_globals
    ):
        registry, _ = fresh_globals
        registry.counter("old_total", "pre-existing").inc(10)
        with TelemetryCapture(None, "worker.kernel") as capture:
            registry.counter("new_total", "fresh").inc()
        metrics = capture.envelope()["metrics"]
        assert "old_total" not in metrics
        assert snapshot_value(metrics, "new_total") == 1

    def test_merge_envelope_folds_metrics_spans_and_drops(self, fresh_globals):
        parent = SpanContext("t" * 16, "s" * 16)
        with TelemetryCapture(serialize_context(parent), "worker.kernel") as cap:
            get_registry().counter("shipped_total", "n").inc(2)
        envelope = cap.envelope()
        envelope["dropped"] = 3

        registry = MetricsRegistry()
        collector = TraceCollector()
        merge_envelope(envelope, registry=registry, collector=collector)
        assert snapshot_value(registry.snapshot().to_json(), "shipped_total") == 2
        assert {s.name for s in collector.spans()} >= {"worker.kernel"}
        assert collector.dropped == 3

    def test_merge_envelope_tolerates_garbage(self):
        merge_envelope(None)
        merge_envelope({})
        merge_envelope({"spans": [{"nonsense": True}], "metrics": 7,
                        "dropped": "x"})


class TestResourceSampler:
    def test_sample_emits_cumulative_cpu_and_rss(self):
        registry = MetricsRegistry()
        sampler = ResourceSampler("worker", registry=registry)
        sampler.sample()
        snap = registry.snapshot().to_json()
        assert snapshot_value(snap, "process_cpu_seconds_total",
                              role="worker") > 0
        assert snapshot_value(snap, "process_rss_bytes", role="worker") > 0

    def test_baseline_sample_suppresses_prior_cpu(self):
        registry = MetricsRegistry()
        sampler = ResourceSampler("driver", registry=registry)
        sampler.sample(baseline_only=True)
        snap = registry.snapshot().to_json()
        assert "process_cpu_seconds_total" not in snap
        sampler.sample()
        value = snapshot_value(registry.snapshot().to_json(),
                               "process_cpu_seconds_total", role="driver")
        # Only CPU burned since the baseline counts; a fresh process has
        # accumulated far more than this since startup.
        assert 0 <= value < 1.0


def _finished_span(name, ctx):
    return Span(
        name=name, trace_id=ctx.trace_id, span_id=ctx.span_id,
        parent_id=None, layer="app", start=0.0, end=1.0,
    )


class TestDropAccounting:
    def test_overflow_increments_counter_and_warns_once(
        self, fresh_globals, captured_events
    ):
        registry, _ = fresh_globals
        collector = TraceCollector(max_spans=1)
        ctx = SpanContext("t" * 16, "s" * 16)
        collector.record(_finished_span("a", ctx))
        for _ in range(3):
            collector.record(_finished_span("b", ctx))
        assert collector.dropped == 3
        snap = registry.snapshot().to_json()
        assert snapshot_value(snap, "trace_spans_dropped_total") == 3
        warnings = [e for e in captured_events()
                    if e.name == "trace_spans_dropped"
                    and e.severity == "WARNING"]
        assert len(warnings) == 1  # first drop only

    def test_note_dropped_accounts_worker_side_losses(self, fresh_globals):
        registry, _ = fresh_globals
        collector = TraceCollector()
        collector.note_dropped(5)
        collector.note_dropped(0)
        collector.note_dropped(-2)
        assert collector.dropped == 5
        assert snapshot_value(registry.snapshot().to_json(),
                              "trace_spans_dropped_total") == 5


class TestExpositionFixes:
    def test_help_text_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total", 'multi\nline \\ "quoted" help').inc()
        text = registry.snapshot().to_prometheus()
        help_line = next(
            line for line in text.splitlines() if line.startswith("# HELP")
        )
        assert "\n" not in help_line
        assert "multi\\nline \\\\" in help_line
        # Quotes are legal in HELP text — only backslash and newline escape.
        assert '"quoted"' in help_line

    def test_non_finite_values_render_prometheus_style(self):
        registry = MetricsRegistry()
        registry.gauge("g_inf", "g").set(float("inf"))
        registry.gauge("g_ninf", "g").set(float("-inf"))
        registry.gauge("g_nan", "g").set(float("nan"))
        text = registry.snapshot().to_prometheus()
        assert "g_inf +Inf" in text
        assert "g_ninf -Inf" in text
        assert "g_nan NaN" in text
