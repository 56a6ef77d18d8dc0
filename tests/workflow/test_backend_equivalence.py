"""Thread vs process Ophidia server backends must be byte-identical.

The process backend changes *where* fragment kernels run (spawned
worker processes, shared-memory transport), never *what* they compute.
These tests pin that contract on the Listing-1 analytics chain, plus
the lifecycle invariants (fallbacks, error propagation, no leaked
worker processes) and the telemetry the workers ship home.
"""

import hashlib
import multiprocessing

import numpy as np
import pytest

from repro.ophidia import Client, OphidiaServer
from repro.ophidia.datacube import Cube


def _listing1_digest(backend: str) -> bytes:
    """Run the paper's Listing-1 style chain; digest every output array."""
    server = OphidiaServer(n_io_servers=2, n_cores=2, lazy=True, backend=backend)
    try:
        client = Client(server)
        rng = np.random.default_rng(7)
        data = rng.normal(300.0, 8.0, size=(4, 90, 20)).astype(np.float32)
        tmax = Cube.from_array(
            data, dims=["lat", "time", "lon"], client=client,
            fragment_dim="lat", nfrag=4, measure="TMAX",
        )
        base = Cube.from_array(
            data.mean(axis=1, keepdims=True).repeat(90, axis=1),
            dims=["lat", "time", "lon"], client=client,
            fragment_dim="lat", nfrag=4, measure="TMAX_BASELINE",
        )
        anomaly = tmax.intercube(base, "sub")
        hot = anomaly.apply(
            "oph_predicate('OPH_FLOAT','OPH_INT',measure,'x','>5','1','0')"
        )
        durations = hot.runlength("time")
        digest = hashlib.sha256()
        for cube in (
            durations.reduce("max", dim="time"),
            durations.reduce("sum", dim="time"),
            anomaly.subset("time", 10, 50).reduce("mean", dim="time"),
        ):
            arr = cube.to_array()
            digest.update(str(arr.dtype).encode())
            digest.update(arr.tobytes())
        return digest.digest()
    finally:
        server.shutdown()


class TestCubeEquivalence:
    def test_listing1_chain_byte_identical(self):
        assert _listing1_digest("thread") == _listing1_digest("process")
        assert multiprocessing.active_children() == []

    def test_unpicklable_kernel_falls_back_to_threads(self):
        server = OphidiaServer(n_io_servers=2, n_cores=2, backend="process")
        try:
            client = Client(server)
            c = Cube.from_array(
                np.arange(2 * 40 * 30, dtype=np.float64).reshape(2, 40, 30),
                dims=["lat", "time", "lon"], client=client, fragment_dim="lat",
            )
            # The lambda cannot cross the spawn boundary; the sweep must
            # still produce the right numbers on the thread path.
            doubled = c.transform(lambda a: a * 2.0).to_array()
            assert np.array_equal(doubled, c.to_array() * 2.0)
        finally:
            server.shutdown()

    def test_kernel_errors_propagate_and_pool_survives(self):
        server = OphidiaServer(n_io_servers=2, n_cores=2, backend="process")
        try:
            client = Client(server)
            c = Cube.from_array(
                np.full((2, 100, 400), 2.0), dims=["lat", "time", "lon"],
                client=client, fragment_dim="lat",
            )
            with pytest.raises(Exception):
                # Grouped reduction with mismatched group size raises at
                # the call site before any sweep; use a bad primitive
                # evaluated fragment-side instead.
                c.apply(
                    "oph_predicate('OPH_FLOAT','OPH_INT',measure,'q','>0','1','0')"
                ).to_array()
            # The pool is still serviceable after a failed sweep.
            assert np.array_equal(
                c.apply("oph_mul_scalar('OPH_DOUBLE','OPH_DOUBLE',measure,3)")
                .to_array(),
                np.full((2, 100, 400), 6.0),
            )
        finally:
            server.shutdown()
        assert multiprocessing.active_children() == []

    def test_server_shutdown_is_idempotent(self):
        server = OphidiaServer(backend="process")
        server.shutdown()
        server.shutdown()
        assert multiprocessing.active_children() == []


def _counter_families(metrics, prefixes):
    """Counter families by name -> {sorted-label-tuple: value}.

    The backend-typed sweep counter keeps only its total (the label
    *names* the backend under comparison).
    """
    out = {}
    for name, family in metrics.items():
        if family["kind"] != "counter":
            continue
        if not name.startswith(prefixes):
            continue
        series = {
            tuple(sorted((k, str(v)) for k, v in entry["labels"].items())):
                entry["value"]
            for entry in family["series"]
        }
        if name == "ophidia_backend_sweeps_total":
            series = {(): sum(series.values())}
        out[name] = series
    return out


class TestTelemetryEquivalence:
    """Worker telemetry shipping must make the backends indistinguishable.

    The process backend's metrics delta must count the same Ophidia
    traffic a thread run does, the workers' CPU must ship home, and the
    worker kernel spans must join the driver's trace under the
    dispatching sweep spans.  The sequential Listing-1 chain has a
    single caller thread, so its accounting is deterministic and the
    counters can be compared exactly.
    """

    @staticmethod
    def _chain_telemetry(backend):
        from repro.observability import get_registry, span

        registry = get_registry()
        before = registry.snapshot()
        server = OphidiaServer(
            n_io_servers=2, n_cores=2, lazy=True, backend=backend
        )
        try:
            with span(f"chain.{backend}", new_trace=True) as root:
                client = Client(server)
                rng = np.random.default_rng(7)
                data = rng.normal(300.0, 8.0, size=(4, 90, 20)).astype(
                    np.float32
                )
                tmax = Cube.from_array(
                    data, dims=["lat", "time", "lon"], client=client,
                    fragment_dim="lat", nfrag=4, measure="TMAX",
                )
                base = Cube.from_array(
                    data.mean(axis=1, keepdims=True).repeat(90, axis=1),
                    dims=["lat", "time", "lon"], client=client,
                    fragment_dim="lat", nfrag=4, measure="TMAX_BASELINE",
                )
                durations = tmax.intercube(base, "sub").apply(
                    "oph_predicate('OPH_FLOAT','OPH_INT',measure,'x','>5','1','0')"
                ).runlength("time")
                durations.reduce("max", dim="time").to_array()
                durations.reduce("sum", dim="time").to_array()
            trace_id = root.context.trace_id
        finally:
            server.shutdown()
        return registry.snapshot().delta(before).to_json(), trace_id

    def test_chain_metrics_delta_identical(self):
        from repro.observability import get_collector, snapshot_value

        thread_delta, _ = self._chain_telemetry("thread")
        process_delta, trace_id = self._chain_telemetry("process")

        thread = _counter_families(thread_delta, ("ophidia_",))
        process = _counter_families(process_delta, ("ophidia_",))
        assert thread and "ophidia_fragment_passes_run_total" in thread
        assert process == thread

        # Worker resource samples ship only from real worker processes.
        assert snapshot_value(
            process_delta, "process_cpu_seconds_total", role="worker"
        ) > 0
        assert snapshot_value(
            thread_delta, "process_cpu_seconds_total", role="worker"
        ) == 0

        spans = get_collector().for_trace(trace_id)
        worker_spans = [s for s in spans if s.layer == "worker"]
        assert worker_spans, "no worker spans shipped back"
        sweep_ids = {s.span_id for s in spans if s.layer == "ophidia"}
        for s in worker_spans:
            assert s.trace_id == trace_id
            assert s.parent_id in sweep_ids
            assert s.thread_name.startswith("worker-pid")
        assert multiprocessing.active_children() == []
