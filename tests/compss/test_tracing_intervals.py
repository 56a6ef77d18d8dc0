"""Tracer interval arithmetic (the profiler's interval helpers)."""

import pytest

from repro.compss.tracing import Tracer
from repro.observability import Span
from repro.observability.profile import _merge as _merge_intervals
from repro.observability.profile import _overlap as _interval_overlap


def _event(func, start, end, task_id=1, worker=0):
    """An untraced task-attempt span, as the runtime builds one."""
    return Span(name=f"{func}#{task_id}", trace_id="", span_id="",
                parent_id=None, layer="compss", start=start, end=end,
                attrs={"task_id": task_id, "worker_id": worker,
                       "category": "compute", "function": func})


class TestMergeIntervals:
    def test_empty(self):
        assert _merge_intervals([]) == []

    def test_disjoint_sorted(self):
        assert _merge_intervals([(3, 4), (0, 1)]) == [(0, 1), (3, 4)]

    def test_overlapping_merge(self):
        assert _merge_intervals([(0, 2), (1, 5), (4, 6)]) == [(0, 6)]

    def test_touching_intervals_merge(self):
        # start == previous end counts as contiguous, not a gap.
        assert _merge_intervals([(0, 1), (1, 2)]) == [(0, 2)]

    def test_contained_interval_absorbed(self):
        assert _merge_intervals([(0, 10), (2, 3)]) == [(0, 10)]

    def test_single_point_intervals(self):
        # Zero-length intervals cover no time, so the union drops them.
        assert _merge_intervals([(1, 1), (1, 1), (2, 2)]) == []


class TestIntervalOverlap:
    def test_no_overlap(self):
        assert _interval_overlap([(0, 1)], [(2, 3)]) == 0.0

    def test_touching_is_zero(self):
        assert _interval_overlap([(0, 1)], [(1, 2)]) == 0.0

    def test_partial_and_multiple(self):
        a = [(0, 5), (10, 15)]
        b = [(3, 12)]
        assert _interval_overlap(a, b) == pytest.approx(2 + 2)

    def test_either_side_empty(self):
        assert _interval_overlap([], [(0, 1)]) == 0.0
        assert _interval_overlap([(0, 1)], []) == 0.0


class TestOverlapGroupSeconds:
    def _tracer(self, events):
        tracer = Tracer()
        for e in events:
            tracer.record(e)
        return tracer

    def test_group_union_counts_each_second_once(self):
        # Two analytics tasks cover the same wall-clock window: the
        # overlap with the producer must not double-count it.
        tracer = self._tracer([
            _event("esm", 0.0, 10.0, task_id=1),
            _event("ana", 2.0, 6.0, task_id=2, worker=1),
            _event("ana", 3.0, 7.0, task_id=3, worker=2),
        ])
        assert tracer.overlap_group_seconds("esm", {"ana"}) == pytest.approx(5.0)

    def test_empty_group_is_zero(self):
        tracer = self._tracer([_event("esm", 0.0, 10.0)])
        assert tracer.overlap_group_seconds("esm", set()) == 0.0

    def test_missing_producer_is_zero(self):
        tracer = self._tracer([_event("ana", 0.0, 1.0)])
        assert tracer.overlap_group_seconds("esm", {"ana"}) == 0.0

    def test_group_accepts_list(self):
        tracer = self._tracer([
            _event("esm", 0.0, 4.0, task_id=1),
            _event("a", 1.0, 2.0, task_id=2, worker=1),
            _event("b", 3.0, 5.0, task_id=3, worker=2),
        ])
        assert tracer.overlap_group_seconds("esm", ["a", "b"]) == pytest.approx(2.0)
