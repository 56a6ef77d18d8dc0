"""SLO engine tests: rule parsing, post-hoc checks, live monitoring."""

import math
import time

import pytest

from repro.observability.metrics import MetricsRegistry
from repro.observability.slo import (
    SLOMonitor,
    SLORule,
    evaluate_rules,
    parse_slo_rules,
    render_slo_report,
    slo_report,
)

RULES_YAML = """
slos:
  - name: makespan
    metric: workflow_makespan_seconds
    max: 2.5
    severity: critical
    description: end-to-end wall clock
  - name: dispatch-p95
    metric: workflow_year_dispatch_wait_seconds
    quantile: 0.95
    max: 1.0
    window_s: 10
  - name: cache-hit-rate
    metric: compss_transfers_total
    min: 1
    labels:
      kind: cache_hit
"""


class TestParsing:
    def test_parse_full_file(self):
        rules = parse_slo_rules(RULES_YAML)
        assert [r.name for r in rules] == [
            "makespan", "dispatch-p95", "cache-hit-rate",
        ]
        makespan, dispatch, cache = rules
        assert makespan.objective == "max"
        assert makespan.severity == "critical"
        assert makespan.threshold == 2.5
        assert dispatch.quantile == 0.95
        assert dispatch.window_s == 10.0
        assert dispatch.severity == "warning"  # the default
        assert cache.objective == "min"
        assert cache.labels == {"kind": "cache_hit"}

    def test_bare_list_accepted(self):
        rules = parse_slo_rules("- name: x\n  metric: m\n  max: 1\n")
        assert len(rules) == 1

    def test_empty_text_is_no_rules(self):
        assert parse_slo_rules("") == []

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            parse_slo_rules("slos:\n  - metric: m\n    max: 1\n    wat: 2\n")

    def test_metric_required(self):
        with pytest.raises(ValueError, match="'metric' is required"):
            parse_slo_rules("slos:\n  - name: x\n    max: 1\n")

    def test_exactly_one_of_max_min(self):
        with pytest.raises(ValueError, match="exactly one"):
            parse_slo_rules("slos:\n  - metric: m\n")
        with pytest.raises(ValueError, match="exactly one"):
            parse_slo_rules("slos:\n  - metric: m\n    max: 1\n    min: 0\n")

    def test_duplicate_names_rejected(self):
        text = ("slos:\n"
                "  - name: x\n    metric: m\n    max: 1\n"
                "  - name: x\n    metric: n\n    max: 1\n")
        with pytest.raises(ValueError, match="duplicate"):
            parse_slo_rules(text)

    def test_ratio_keys(self):
        rules = parse_slo_rules(
            "slos:\n"
            "  - name: slower\n    metric: m\n    max_ratio: 1.25\n"
            "  - name: fewer\n    metric: n\n    min_ratio: 1\n"
        )
        assert [(r.objective, r.ratio, r.threshold) for r in rules] == [
            ("max", True, 1.25), ("min", True, 1.0),
        ]

    @pytest.mark.parametrize("keys", [
        "    max: 1\n    max_ratio: 1\n",
        "    min_ratio: 1\n    max_ratio: 1\n",
        "    min: 1\n    min_ratio: 1\n",
    ])
    def test_exactly_one_of_four_threshold_keys(self, keys):
        with pytest.raises(ValueError, match="exactly one of "
                           "max/min/max_ratio/min_ratio"):
            parse_slo_rules("slos:\n  - metric: m\n" + keys)

    @pytest.mark.parametrize("value", ["0", "-1.5", "fast", "true"])
    def test_ratio_must_be_a_positive_number(self, value):
        with pytest.raises(ValueError, match="positive|a number"):
            parse_slo_rules(f"slos:\n  - metric: m\n    max_ratio: {value}\n")

    def test_bad_severity_rejected(self):
        with pytest.raises(ValueError, match="severity"):
            parse_slo_rules("slos:\n  - metric: m\n    max: 1\n"
                            "    severity: fatal\n")


class TestRuleSemantics:
    def test_max_objective(self):
        rule = SLORule(name="r", metric="m", threshold=2.0, objective="max")
        assert rule.check(1.9, 2.0)
        assert rule.check(2.0, 2.0)
        assert not rule.check(2.1, 2.0)

    def test_min_objective(self):
        rule = SLORule(name="r", metric="m", threshold=0.5, objective="min")
        assert rule.check(0.6, 0.5)
        assert not rule.check(0.4, 0.5)

    def test_nan_counts_as_compliant(self):
        rule = SLORule(name="r", metric="absent", threshold=1.0)
        assert rule.check(float("nan"), 1.0)

    def test_selector_rendering(self):
        rule = SLORule(name="r", metric="m", threshold=1.0, quantile=0.95,
                       labels={"mode": "pipelined"})
        assert rule.selector() == "p95(m){mode=pipelined}"


class TestPostHoc:
    def _snapshot(self):
        registry = MetricsRegistry()
        registry.gauge("workflow_makespan_seconds", "").set(5.0)
        h = registry.histogram("workflow_year_dispatch_wait_seconds", "")
        h.observe(0.01)
        return registry.snapshot().to_json()

    def test_evaluate_and_report(self):
        rules = parse_slo_rules(RULES_YAML)
        results = evaluate_rules(rules, self._snapshot())
        by_name = {r.rule.name: r for r in results}
        assert not by_name["makespan"].ok           # 5.0 > 2.5
        assert by_name["dispatch-p95"].ok           # p95 well under 1.0
        assert by_name["cache-hit-rate"].ok         # absent metric => nan => ok
        assert math.isnan(by_name["cache-hit-rate"].value)

        report = slo_report(results)
        assert report["passed"] is False
        assert report["critical_breaches"] == 1
        assert report["warning_breaches"] == 0
        rendered = render_slo_report(results)
        assert "FAIL" in rendered
        assert "makespan" in rendered

    def test_all_pass_report(self):
        rules = [SLORule(name="r", metric="workflow_makespan_seconds",
                         threshold=10.0)]
        results = evaluate_rules(rules, self._snapshot())
        report = slo_report(results)
        assert report["passed"] is True
        assert "PASS" in render_slo_report(results)


def _gauges(**values):
    registry = MetricsRegistry()
    for name, value in values.items():
        registry.gauge(name, "").set(value)
    return registry.snapshot().to_json()


class TestAgainstReference:
    RULES = parse_slo_rules(
        "slos:\n"
        "  - name: makespan\n    metric: makespan_s\n    max_ratio: 1.25\n"
        "    severity: critical\n"
        "  - name: days\n    metric: days\n    min_ratio: 1\n"
    )

    def _by_name(self, candidate, reference):
        return {r.rule.name: r for r in
                evaluate_rules(self.RULES, candidate, reference)}

    def test_ratio_threshold_is_relative_to_the_reference(self):
        reference = _gauges(makespan_s=2.0, days=8)
        ok = self._by_name(_gauges(makespan_s=2.5, days=8), reference)
        assert ok["makespan"].ok and ok["makespan"].limit == 2.5
        assert ok["days"].ok and ok["days"].limit == 8.0
        bad = self._by_name(_gauges(makespan_s=2.6, days=7), reference)
        assert not bad["makespan"].ok and not bad["days"].ok
        assert bad["makespan"].to_json()["status"] == "breach"
        report = slo_report(list(bad.values()))
        assert (report["critical_breaches"], report["warning_breaches"]) == (1, 1)
        assert "= 1.25 x reference" in render_slo_report(list(bad.values()))

    def test_metric_absent_from_reference_passes(self):
        results = self._by_name(_gauges(makespan_s=9.0, days=1), _gauges())
        assert all(r.ok for r in results.values())
        assert math.isnan(results["makespan"].limit)
        assert results["makespan"].to_json()["limit"] is None

    def test_metric_absent_from_candidate_is_missing(self):
        results = self._by_name(_gauges(), _gauges(makespan_s=2.0, days=8))
        for result in results.values():
            assert not result.ok
            assert result.to_json()["status"] == "missing"
            assert result.to_json()["value"] is None

    def test_fixed_rules_ignore_the_reference(self):
        rule = SLORule(name="r", metric="makespan_s", threshold=3.0)
        [result] = evaluate_rules([rule], _gauges(makespan_s=2.0),
                                  _gauges(makespan_s=1.0))
        assert result.ok and result.limit == 3.0

    def test_ratio_rule_without_reference_raises(self):
        with pytest.raises(ValueError, match="needs a reference run"):
            evaluate_rules(self.RULES, _gauges(makespan_s=1.0))


class TestMonitor:
    def test_rejects_ratio_rules(self):
        rule = SLORule(name="r", metric="m", threshold=1.25, ratio=True)
        with pytest.raises(ValueError, match="reference run"):
            SLOMonitor([rule])

    def test_windows_share_one_evaluation_pass(self):
        registry = MetricsRegistry()
        counter = registry.counter("errs_total", "")
        rules = [SLORule(name="all", metric="errs_total", threshold=5.0),
                 SLORule(name="recent", metric="errs_total", threshold=5.0,
                         window_s=0.05)]
        monitor = SLOMonitor(rules, interval=60.0, registry=registry)
        monitor.start()
        counter.inc(10)
        monitor.evaluate_once()
        assert monitor.breached_rules == ["all", "recent"]
        time.sleep(0.06)
        everything, recent = monitor.evaluate_once()
        assert (everything.rule.name, everything.value) == ("all", 10.0)
        assert recent.rule.name == "recent"
        assert math.isnan(recent.value)  # no traffic in the window
        assert monitor.breached_rules == ["all"]
        monitor.stop()

    def test_breach_transition_emits_event_and_counter(self, captured_events):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth", "queue depth")
        rule = SLORule(name="depth", metric="depth", threshold=5.0,
                       severity="critical")
        monitor = SLOMonitor([rule], interval=60.0, registry=registry)
        monitor.start()
        assert monitor.evaluate_once()[0].ok

        gauge.set(10.0)  # breach
        assert not monitor.evaluate_once()[0].ok
        # A second breached evaluation is NOT a new transition.
        monitor.evaluate_once()
        gauge.set(1.0)   # recover
        monitor.evaluate_once()
        gauge.set(10.0)  # breach again
        monitor.evaluate_once()
        counts = monitor.stop()

        assert counts == {"depth": 2}
        breaches = [e for e in captured_events() if e.component == "slo"]
        names = [e.name for e in breaches]
        assert names.count("slo_breach") == 2
        assert names.count("slo_recovered") == 1
        assert breaches[0].severity == "CRITICAL"
        assert registry.snapshot().value(
            "slo_breaches_total", slo="depth", severity="critical"
        ) == 2

    def test_deltas_are_relative_to_start(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops_total", "")
        counter.inc(100)  # pre-run traffic must not count
        rule = SLORule(name="ops", metric="ops_total", threshold=50.0)
        monitor = SLOMonitor([rule], interval=60.0, registry=registry)
        monitor.start()
        counter.inc(10)
        assert monitor.evaluate_once()[0].value == 10.0
        monitor.stop()

    def test_window_rule_sees_only_recent_traffic(self):
        registry = MetricsRegistry()
        counter = registry.counter("errs_total", "")
        rule = SLORule(name="recent-errs", metric="errs_total",
                       threshold=5.0, window_s=0.05)
        monitor = SLOMonitor([rule], interval=60.0, registry=registry)
        monitor.start()
        counter.inc(10)
        monitor.evaluate_once()          # breach: 10 errors in window
        assert monitor.breached_rules == ["recent-errs"]
        time.sleep(0.06)                 # window passes, no new errors
        monitor.evaluate_once()
        assert monitor.breached_rules == []
        monitor.stop()

    def test_stop_runs_final_evaluation(self):
        registry = MetricsRegistry()
        rule = SLORule(name="depth", metric="depth", threshold=5.0)
        monitor = SLOMonitor([rule], interval=3600.0, registry=registry)
        monitor.start()
        registry.gauge("depth", "").set(10.0)
        counts = monitor.stop()  # sub-interval run still gets checked
        assert counts == {"depth": 1}

    def test_live_thread_detects_breach(self):
        registry = MetricsRegistry()
        rule = SLORule(name="depth", metric="depth", threshold=5.0)
        with SLOMonitor([rule], interval=0.01, registry=registry) as monitor:
            registry.gauge("depth", "").set(10.0)
            deadline = time.monotonic() + 5.0
            while not monitor.breached_rules and time.monotonic() < deadline:
                time.sleep(0.01)
            assert monitor.breached_rules == ["depth"]

    def test_monitor_never_raises_into_the_run(self):
        registry = MetricsRegistry()
        rule = SLORule(name="r", metric="m", threshold=1.0)
        monitor = SLOMonitor([rule], interval=0.01, registry=registry)
        monitor.start()
        monitor._baseline = None  # simulate internal corruption
        time.sleep(0.05)          # loop must survive evaluate errors
        assert monitor.stop() == {}
