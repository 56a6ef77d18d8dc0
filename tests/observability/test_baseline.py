"""Comparator unit tests: specs, tolerance comparison, headline extraction."""

import pytest

from repro.observability.baseline import (
    compare_to_baseline,
    default_metric_spec,
    extract_headline_metrics,
)


class TestSpecRules:
    @pytest.mark.parametrize("name,direction,tol", [
        ("makespan_s", "lower", 75.0),
        ("critical_path_s", "lower", 75.0),
        ("overlap_s", "higher", 50.0),
        ("transfer_bytes_saved", "higher", 50.0),
        ("speedup", "higher", 50.0),
        ("fs_cache_hit_rate", "higher", 50.0),
        ("transfer_bytes", "lower", 15.0),
        ("fragment_writes", "lower", 10.0),
    ])
    def test_direction_and_tolerance_by_name(self, name, direction, tol):
        spec = default_metric_spec(name, 1.0)
        assert spec["direction"] == direction
        assert spec["tolerance_pct"] == tol

    def test_count_specs_carry_absolute_slack(self):
        assert default_metric_spec("fragment_writes", 20)["abs_tolerance"] == 2.0


class TestCompare:
    def baseline(self, **metrics):
        return {"benchmark": "b", "metrics": {
            name: default_metric_spec(name, value)
            for name, value in metrics.items()
        }}

    def one(self, checks, metric):
        (c,) = [c for c in checks if c.metric == metric]
        return c

    def test_within_tolerance_passes(self):
        base = self.baseline(makespan_s=2.0)
        checks = compare_to_baseline("b", {"makespan_s": 3.0}, base)
        assert self.one(checks, "makespan_s").status == "ok"

    def test_doubled_makespan_regresses(self):
        # The headline acceptance case: 2x wall time (=+100%) must
        # breach the 75% wall-clock tolerance.
        base = self.baseline(makespan_s=2.0)
        checks = compare_to_baseline("b", {"makespan_s": 4.0}, base)
        assert self.one(checks, "makespan_s").status == "regression"

    def test_higher_direction_regresses_on_halving_plus(self):
        base = self.baseline(transfer_bytes_saved=100.0)
        ok = compare_to_baseline("b", {"transfer_bytes_saved": 60.0}, base)
        bad = compare_to_baseline("b", {"transfer_bytes_saved": 40.0}, base)
        assert self.one(ok, "transfer_bytes_saved").status == "ok"
        assert self.one(bad, "transfer_bytes_saved").status == "regression"

    def test_missing_metric_fails_and_new_metric_passes(self):
        base = self.baseline(makespan_s=2.0)
        checks = compare_to_baseline("b", {"shiny_new": 1.0}, base)
        assert self.one(checks, "makespan_s").status == "missing"
        assert self.one(checks, "makespan_s").regressed
        assert self.one(checks, "shiny_new").status == "new"
        assert not self.one(checks, "shiny_new").regressed

    def test_count_abs_tolerance(self):
        base = self.baseline(fragment_writes=20)
        # 10% + abs 2 => threshold 24
        ok = compare_to_baseline("b", {"fragment_writes": 24}, base)
        bad = compare_to_baseline("b", {"fragment_writes": 25}, base)
        assert self.one(ok, "fragment_writes").status == "ok"
        assert self.one(bad, "fragment_writes").status == "regression"


class TestHeadlineExtraction:
    def test_pulls_gauges_counters_and_hit_rate(self):
        def fam(kind, value):
            return {"kind": kind, "help": "", "labels": [],
                    "series": [{"labels": {}, "value": value}]}
        snapshot = {
            "workflow_makespan_seconds": fam("gauge", 3.5),
            "workflow_critical_path_seconds": fam("gauge", 3.4),
            "compss_transfer_bytes_saved_total": fam("counter", 1000.0),
            "fs_cache_hits_total": fam("counter", 30.0),
            "fs_cache_misses_total": fam("counter", 10.0),
        }
        headline = extract_headline_metrics(snapshot)
        assert headline["makespan_s"] == 3.5
        assert headline["critical_path_s"] == 3.4
        assert headline["transfer_bytes_saved"] == 1000.0
        assert headline["fs_cache_hit_rate"] == pytest.approx(0.75)
