"""Tolerance-aware comparison of one run's headline metrics to another's.

``repro history compare`` (:func:`repro.observability.history.compare_runs`)
turns the reference run's headline numbers — makespan, critical-path
length, fragment writes, transfer bytes saved, cache hit rate — into a
baseline document and checks the candidate run against it::

    {"metrics": {"makespan_s": {"value": 3.1, "direction": "lower",
                                "tolerance_pct": 75.0, "abs_tolerance": 0.0},
                 ...}}

``direction`` is the *good* direction: a ``lower``-is-better metric
regresses when the current value exceeds
``value * (1 + tolerance_pct/100) + abs_tolerance``; ``higher``-is-better
mirrors that.  Wall-clock metrics default to wide (75%) tolerances so
shared-CI jitter passes while a genuine 2x blow-up still fails;
deterministic counts are gated tightly.  Commit-versus-commit gating of
the reference workloads lives in ``bench/run.py`` + ``bench/compare.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "MetricCheck",
    "compare_to_baseline",
    "default_metric_spec",
    "extract_headline_metrics",
]

#: (substring, spec) rules, first match wins (a trailing ``$`` makes the
#: needle a suffix match).  ``direction`` is the good direction;
#: tolerances are how far the *bad* direction may drift.
_SPEC_RULES: Tuple[Tuple[Tuple[str, ...], Dict[str, Any]], ...] = (
    # Saved/avoided/overlap/hit-rate style wins: higher is better, and
    # halving one is a bug.  Checked first so e.g. ``overlap_s`` and
    # ``transfer_bytes_saved`` are not mistaken for plain durations.
    (("saved", "avoided", "hits", "overlap", "speedup", "util", "fraction",
      "hit_rate"),
     {"direction": "higher", "tolerance_pct": 50.0}),
    # Wall-clock: huge variance on shared CI runners.  75% tolerance
    # passes normal jitter yet fails a 2x (=+100%) regression.
    (("makespan", "critical_path", "seconds", "duration", "_s$"),
     {"direction": "lower", "tolerance_pct": 75.0}),
    # Byte volumes move a little with placement races.
    (("bytes", "_mb"), {"direction": "lower", "tolerance_pct": 15.0}),
    # Discrete op counts (fragment writes, transfers) are near-
    # deterministic; allow slack for scheduling races only.
    (("writes", "reads", "transfers", "passes", "ops", "count", "tasks"),
     {"direction": "lower", "tolerance_pct": 10.0, "abs_tolerance": 2.0}),
)

_DEFAULT_SPEC = {"direction": "lower", "tolerance_pct": 25.0}


def _needle_matches(needle: str, name: str) -> bool:
    if needle.endswith("$"):
        return name.endswith(needle[:-1])
    return needle in name


def default_metric_spec(name: str, value: float) -> Dict[str, Any]:
    """Baseline entry for one headline metric, tolerances by name."""
    lowered = name.lower()
    spec: Dict[str, Any] = dict(_DEFAULT_SPEC)
    for needles, rule in _SPEC_RULES:
        if any(_needle_matches(n, lowered) for n in needles):
            spec = dict(rule)
            break
    spec.setdefault("abs_tolerance", 0.0)
    spec["value"] = float(value)
    return spec


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricCheck:
    """Outcome of gating one metric against its baseline entry."""

    benchmark: str
    metric: str
    status: str  # "ok" | "regression" | "missing" | "new"
    current: Optional[float]
    baseline: Optional[float]
    threshold: Optional[float]
    direction: str

    @property
    def regressed(self) -> bool:
        return self.status in ("regression", "missing")

    @property
    def delta_pct(self) -> Optional[float]:
        if self.current is None or not self.baseline:
            return None
        return 100.0 * (self.current - self.baseline) / self.baseline


def _check_one(
    benchmark: str, metric: str, spec: Mapping[str, Any],
    current: Optional[float],
) -> MetricCheck:
    base = float(spec["value"])
    direction = str(spec.get("direction", "lower"))
    tol_pct = float(spec.get("tolerance_pct", 0.0))
    abs_tol = float(spec.get("abs_tolerance", 0.0))
    if current is None:
        return MetricCheck(benchmark, metric, "missing", None, base, None,
                           direction)
    current = float(current)
    if direction == "higher":
        threshold = base * (1.0 - tol_pct / 100.0) - abs_tol
        status = "regression" if current < threshold else "ok"
    else:
        threshold = base * (1.0 + tol_pct / 100.0) + abs_tol
        status = "regression" if current > threshold else "ok"
    return MetricCheck(benchmark, metric, status, current, base, threshold,
                       direction)


def compare_to_baseline(
    benchmark: str,
    current: Mapping[str, float],
    baseline: Mapping[str, Any],
) -> List[MetricCheck]:
    """Gate one set of measured metrics against one baseline doc.

    Every baselined metric must be present and in tolerance (absent →
    ``missing`` → fail); metrics measured but not yet baselined report
    as ``new`` and pass, so adding instrumentation never blocks CI.
    """
    checks: List[MetricCheck] = []
    specs: Mapping[str, Any] = baseline.get("metrics", {})
    for metric in sorted(specs):
        checks.append(
            _check_one(benchmark, metric, specs[metric], current.get(metric))
        )
    for metric in sorted(set(current) - set(specs)):
        value = current[metric]
        checks.append(MetricCheck(benchmark, metric, "new", float(value),
                                  None, None, "-"))
    return checks


# ---------------------------------------------------------------------------
# Headline extraction
# ---------------------------------------------------------------------------

def extract_headline_metrics(metrics_json: Mapping[str, Any]) -> Dict[str, float]:
    """Pull the gate-worthy headline numbers out of a run's exported
    ``metrics.json`` snapshot (the PR-1 registry format)."""
    from repro.observability.metrics import snapshot_value

    def val(name: str, **labels: str) -> float:
        return snapshot_value(metrics_json, name, **labels)

    headline: Dict[str, float] = {}
    for name, metric in (
        ("workflow_makespan_seconds", "makespan_s"),
        ("workflow_critical_path_seconds", "critical_path_s"),
        ("workflow_esm_analytics_overlap_seconds", "overlap_s"),
        ("ophidia_fragment_writes_total", "fragment_writes"),
        ("compss_transfer_bytes_total", "transfer_bytes"),
        ("compss_transfer_bytes_saved_total", "transfer_bytes_saved"),
        ("fs_bytes_read_total", "fs_bytes_read"),
    ):
        v = val(name)
        if v:
            headline[metric] = v
    hits = val("fs_cache_hits_total")
    misses = val("fs_cache_misses_total")
    if hits + misses > 0:
        headline["fs_cache_hit_rate"] = hits / (hits + misses)
    return headline
