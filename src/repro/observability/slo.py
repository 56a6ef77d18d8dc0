"""Declarative SLOs: live breach detection and post-hoc compliance checks.

An SLO rule names a metric selector (a counter/gauge value or a
histogram quantile), a threshold, a severity, and optionally an
evaluation window.  Rules are written in YAML (parsed with the repo's
dependency-free subset parser) and evaluated two ways:

* **live** — :class:`SLOMonitor` is a lightweight evaluator the
  workflow drivers hook into the metrics registry: a background thread
  snapshots the registry on a fixed interval, evaluates every rule, and
  on a transition into breach emits an ``slo_breach`` event (severity
  per rule) into the structured event log and increments
  ``slo_breaches_total{slo,severity}`` — an in-flight health signal
  while the run is still executing;
* **post-hoc** — ``repro slo check RUN`` evaluates the same rules
  against a finished run (its ``run_summary.json`` or its ``runs.db``
  row), exiting nonzero on critical breaches so CI can gate on them;
  with ``--against REF`` it also judges *drift* from a reference run.

Rule file format (``slos:`` list, one mapping per rule)::

    slos:
      - name: year-dispatch-p95
        metric: workflow_year_dispatch_wait_seconds
        quantile: 0.95          # omit for counter/gauge value
        max: 2.5                # or min:, max_ratio:, min_ratio:
        severity: critical      # default warning
        window_s: 10            # live: evaluate over the trailing window
        labels:                 # optional series selector
          mode: pipelined

``max`` / ``min`` is the objective: ``max`` breaches when the observed
value exceeds it, ``min`` when the value falls below.  ``max_ratio`` /
``min_ratio`` bound it by that multiple of the selector's value on a
reference run, which only post-hoc checks have.  With
``window_s``, the live evaluator diffs the current snapshot against the
ring snapshot from ``window_s`` ago, so the rule tracks *recent*
traffic rather than the whole run; post-hoc evaluation always sees the
full run delta (the window is a live-only refinement).
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.observability.metrics import (
    MetricsRegistry,
    MetricsSnapshot,
    get_registry,
    snapshot_histogram_quantile,
    snapshot_value,
)

__all__ = [
    "SLOMonitor",
    "SLOResult",
    "SLORule",
    "evaluate_rules",
    "load_slo_rules",
    "parse_slo_rules",
    "render_slo_report",
    "slo_report",
]


@dataclass(frozen=True)
class SLORule:
    """One declarative objective over a metric selector."""

    name: str
    metric: str
    threshold: float
    objective: str = "max"            # "max": value must stay <=; "min": >=
    ratio: bool = False               # threshold x the reference's value
    quantile: Optional[float] = None  # histogram quantile selector
    labels: Dict[str, str] = field(default_factory=dict)
    severity: str = "warning"         # "warning" | "critical"
    window_s: Optional[float] = None  # live evaluation window
    description: str = ""

    def __post_init__(self) -> None:
        if self.objective not in ("max", "min"):
            raise ValueError(f"slo {self.name!r}: objective must be max|min")
        if self.severity not in ("warning", "critical"):
            raise ValueError(
                f"slo {self.name!r}: severity must be warning|critical"
            )
        if self.quantile is not None and not 0.0 <= self.quantile <= 1.0:
            raise ValueError(f"slo {self.name!r}: quantile outside [0, 1]")
        if self.window_s is not None and self.window_s <= 0:
            raise ValueError(f"slo {self.name!r}: window_s must be positive")

    def observe(self, snapshot_json: Mapping[str, Any]) -> float:
        """The rule's observed value on one (delta) snapshot."""
        if self.metric not in snapshot_json:
            return math.nan  # absent metric: nothing to judge
        if self.quantile is not None:
            return snapshot_histogram_quantile(
                snapshot_json, self.metric, self.quantile, **self.labels
            )
        return snapshot_value(snapshot_json, self.metric, **self.labels)

    def limit(self, reference: Optional[Mapping[str, Any]]) -> float:
        """The bound a value must respect: the threshold, or for a ratio
        rule the threshold times this rule's value on *reference*."""
        if not self.ratio:
            return self.threshold
        if reference is None:
            raise ValueError(f"slo {self.name!r}: a ratio rule needs a "
                             "reference run")
        return self.threshold * self.observe(reference)

    def check(self, value: float, limit: float) -> bool:
        """True when *value* satisfies the objective against *limit*.

        ``nan`` (metric absent / histogram empty) counts as compliant:
        an SLO on traffic that never happened has nothing to breach.
        Only a ratio rule's metric that the reference has is required.
        """
        if math.isnan(limit):
            return True
        if math.isnan(value):
            return not self.ratio
        if self.objective == "max":
            return value <= limit
        return value >= limit

    def selector(self) -> str:
        sel = self.metric
        if self.quantile is not None:
            sel = f"p{round(self.quantile * 100):g}({sel})"
        if self.labels:
            inner = ",".join(f"{k}={v}" for k, v in sorted(self.labels.items()))
            sel += "{" + inner + "}"
        return sel


@dataclass(frozen=True)
class SLOResult:
    """Outcome of evaluating one rule once."""

    rule: SLORule
    value: float
    limit: float
    ok: bool

    def describe(self) -> str:
        """``name: selector = value (objective <= limit)`` on one line."""
        rule = self.rule
        shown = "n/a" if math.isnan(self.value) else f"{self.value:.6g}"
        op = "<=" if rule.objective == "max" else ">="
        bound = "n/a" if math.isnan(self.limit) else f"{self.limit:.6g}"
        ratio = f" = {rule.threshold:g} x reference" if rule.ratio else ""
        return (f"{rule.name}: {rule.selector()} = {shown} "
                f"(objective {op} {bound}{ratio})")

    def to_json(self) -> Dict[str, Any]:
        rule = self.rule
        missing = not self.ok and math.isnan(self.value)
        return {
            "slo": rule.name,
            "selector": rule.selector(),
            "objective": rule.objective + ("_ratio" if rule.ratio else ""),
            "threshold": rule.threshold,
            "limit": None if math.isnan(self.limit) else self.limit,
            "severity": rule.severity,
            "value": None if math.isnan(self.value) else self.value,
            "ok": self.ok,
            "status": "ok" if self.ok else ("missing" if missing else "breach"),
        }


# ---------------------------------------------------------------------------
# Rule loading
# ---------------------------------------------------------------------------

def parse_slo_rules(text: str) -> List[SLORule]:
    """Parse SLO rules from YAML text (the repo's YAML subset)."""
    from repro.hpcwaas.yamlsubset import parse_yaml

    doc = parse_yaml(text)
    if doc is None:
        return []
    if isinstance(doc, dict):
        entries = doc.get("slos")
    else:
        entries = doc
    if not isinstance(entries, list):
        raise ValueError("SLO file must be a 'slos:' list of rule mappings")
    rules: List[SLORule] = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"slos[{i}] is not a mapping")
        rules.append(_rule_from_mapping(entry, i))
    names = [r.name for r in rules]
    dupes = {n for n in names if names.count(n) > 1}
    if dupes:
        raise ValueError(f"duplicate SLO names: {sorted(dupes)}")
    return rules


#: A rule's one threshold key: a fixed bound, or a multiple of the
#: reference run's value.
_THRESHOLD_KEYS = ("max", "min", "max_ratio", "min_ratio")


def _rule_from_mapping(entry: Mapping[str, Any], index: int) -> SLORule:
    known = {"name", "metric", "quantile", "severity", "window_s", "labels",
             "description", *_THRESHOLD_KEYS}
    unknown = set(entry) - known
    if unknown:
        raise ValueError(f"slos[{index}]: unknown keys {sorted(unknown)}")
    metric = entry.get("metric")
    if not metric:
        raise ValueError(f"slos[{index}]: 'metric' is required")
    keys = [k for k in _THRESHOLD_KEYS if k in entry]
    if len(keys) != 1:
        raise ValueError(f"slos[{index}]: exactly one of "
                         f"{'/'.join(_THRESHOLD_KEYS)} is required")
    key = keys[0]
    threshold = entry[key]
    if not isinstance(threshold, (int, float)) or isinstance(threshold, bool):
        raise ValueError(f"slos[{index}]: threshold must be a number")
    ratio = key.endswith("_ratio")
    if ratio and not threshold > 0:
        raise ValueError(f"slos[{index}]: {key} must be positive")
    labels = entry.get("labels") or {}
    if not isinstance(labels, dict):
        raise ValueError(f"slos[{index}]: 'labels' must be a mapping")
    quantile = entry.get("quantile")
    return SLORule(
        name=str(entry.get("name") or f"slo-{index}"),
        metric=str(metric),
        threshold=float(threshold),
        objective=key.partition("_")[0],
        ratio=ratio,
        quantile=None if quantile is None else float(quantile),
        labels={str(k): str(v) for k, v in labels.items()},
        severity=str(entry.get("severity", "warning")).lower(),
        window_s=(None if entry.get("window_s") is None
                  else float(entry["window_s"])),
        description=str(entry.get("description", "")),
    )


def load_slo_rules(path: str) -> List[SLORule]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_slo_rules(fh.read())


# ---------------------------------------------------------------------------
# Post-hoc evaluation
# ---------------------------------------------------------------------------

def evaluate_rules(
    rules: Sequence[SLORule],
    snapshot_json: Mapping[str, Any],
    reference: Optional[Mapping[str, Any]] = None,
) -> List[SLOResult]:
    """Evaluate every rule against one (delta) metrics snapshot; ratio
    rules bound it by their value on the *reference* snapshot."""
    results = []
    for rule in rules:
        value, limit = rule.observe(snapshot_json), rule.limit(reference)
        results.append(SLOResult(rule, value, limit, rule.check(value, limit)))
    return results


def slo_report(results: Sequence[SLOResult]) -> Dict[str, Any]:
    breaches = [r for r in results if not r.ok]
    critical = [r for r in breaches if r.rule.severity == "critical"]
    return {
        "passed": not breaches,
        "critical_breaches": len(critical),
        "warning_breaches": len(breaches) - len(critical),
        "n_rules": len(results),
        "results": [r.to_json() for r in results],
    }


def render_slo_report(results: Sequence[SLOResult]) -> str:
    lines = []
    for r in results:
        mark = "ok  " if r.ok else ("CRIT" if r.rule.severity == "critical"
                                    else "WARN")
        lines.append(f"  [{mark}] {r.describe()}")
    breaches = [r for r in results if not r.ok]
    critical = sum(1 for r in breaches if r.rule.severity == "critical")
    verdict = "PASS" if not breaches else (
        "FAIL" if critical else "WARN"
    )
    lines.append(
        f"slo check: {verdict} — {len(results)} rules, "
        f"{len(breaches)} breaches ({critical} critical)"
    )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Live evaluation
# ---------------------------------------------------------------------------

class SLOMonitor:
    """Background evaluator emitting breach events while a run executes.

    Every *interval* seconds the monitor snapshots the registry,
    computes the delta since the run started (or, per rule, since
    ``window_s`` ago using a ring of timestamped snapshots) and checks
    each rule.  On a compliant→breach transition it emits an
    ``slo_breach`` event at the rule's severity and increments
    ``slo_breaches_total{slo,severity}``; on recovery it emits
    ``slo_recovered`` at INFO.  A final evaluation runs at
    :meth:`stop`, so even sub-interval runs get checked once.

    The monitor is deliberately decoupled from the workflow outcome:
    breaches never raise; gating is the post-hoc check's job.
    """

    def __init__(
        self,
        rules: Sequence[SLORule],
        interval: float = 0.25,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        if any(rule.ratio for rule in rules):
            raise ValueError("ratio rules need a reference run, and a live "
                             "run has none: use `repro slo check --against`")
        self.rules = list(rules)
        self.interval = interval
        self._registry = registry
        self._baseline: Optional[MetricsSnapshot] = None
        #: (monotonic timestamp, snapshot) ring for window deltas.
        self._ring: Deque[Tuple[float, MetricsSnapshot]] = deque(maxlen=512)
        self._breached: Dict[str, bool] = {r.name: False for r in self.rules}
        self._breach_counts: Dict[str, int] = {}
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._lock = threading.Lock()

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "SLOMonitor":
        if self._thread is not None:
            raise RuntimeError("monitor already started")
        self._stop.clear()
        snap = self.registry.snapshot()
        self._baseline = snap
        self._ring.append((time.monotonic(), snap))
        if self.rules:
            self._thread = threading.Thread(
                target=self._loop, name="slo-monitor", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> Dict[str, int]:
        """Stop the thread, run one final evaluation; breach counts."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if self.rules and self._baseline is not None:
            self.evaluate_once()
        with self._lock:
            return dict(self._breach_counts)

    def __enter__(self) -> "SLOMonitor":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- evaluation ---------------------------------------------------------

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.evaluate_once()
            except Exception:  # noqa: BLE001 - monitoring never kills a run
                pass

    def evaluate_once(self) -> List[SLOResult]:
        """One evaluation pass over all rules (also called by tests)."""
        from repro.observability.events import get_event_log

        now = time.monotonic()
        snap = self.registry.snapshot()
        baseline = self._baseline
        if baseline is None:
            return []
        by_window: Dict[Optional[float], List[SLORule]] = {}
        for rule in self.rules:
            by_window.setdefault(rule.window_s, []).append(rule)
        results: List[SLOResult] = []
        for window_s, rules in by_window.items():
            anchor = (baseline if window_s is None
                      else self._snapshot_before(now - window_s, baseline))
            results += evaluate_rules(rules, snap.delta(anchor).to_json())
        log = get_event_log()
        for result in results:
            rule, value, ok = result.rule, result.value, result.ok
            with self._lock:
                was_breached = self._breached[rule.name]
                self._breached[rule.name] = not ok
                fire_breach = not ok and not was_breached
                if fire_breach:
                    self._breach_counts[rule.name] = (
                        self._breach_counts.get(rule.name, 0) + 1
                    )
            if fire_breach:
                self.registry.counter(
                    "slo_breaches_total",
                    "Live SLO breach transitions by rule and severity",
                    labels=("slo", "severity"),
                ).inc(slo=rule.name, severity=rule.severity)
                log.emit(
                    "CRITICAL" if rule.severity == "critical" else "WARNING",
                    "slo", "slo_breach", result.describe(),
                    slo=rule.name, value=value, threshold=rule.threshold,
                    objective=rule.objective, window_s=rule.window_s,
                )
            elif ok and was_breached:
                log.emit(
                    "INFO", "slo", "slo_recovered",
                    f"{rule.name}: {rule.selector()} back within objective",
                    slo=rule.name, value=value, threshold=rule.threshold,
                )
        self._ring.append((now, snap))
        return results

    def _snapshot_before(
        self, cutoff: float, fallback: MetricsSnapshot
    ) -> MetricsSnapshot:
        """Newest ring snapshot taken at or before *cutoff*."""
        anchor = fallback
        for ts, snap in self._ring:
            if ts <= cutoff:
                anchor = snap
            else:
                break
        return anchor

    # -- state --------------------------------------------------------------

    @property
    def breached_rules(self) -> List[str]:
        with self._lock:
            return sorted(n for n, b in self._breached.items() if b)
