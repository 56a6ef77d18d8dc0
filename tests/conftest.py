"""Suite-wide fixtures: the shared TC model, a fresh metrics registry,
captured events and a per-test leak check."""

import os
import threading
import time

import pytest

from repro.observability import metrics, spans
from repro.observability.events import get_event_log, read_events
from repro.workflow.tasks import ensure_tc_model


@pytest.fixture(scope="session")
def tc_model_path(tmp_path_factory):
    """A quickly-trained TC localizer (synthetic patches), trained once
    for every test that runs the workflow with ML on."""
    return ensure_tc_model(None, 16, str(tmp_path_factory.mktemp("tc")))


@pytest.fixture
def fresh_registry(monkeypatch):
    """An empty process-wide metrics registry for the test's duration."""
    registry = metrics.MetricsRegistry()
    monkeypatch.setattr(metrics, "_default_registry", registry)
    return registry


@pytest.fixture
def captured_events(tmp_path):
    """Reader of the events the process-wide log emits during the test,
    taken from a file sink (the log keeps no events in memory)."""
    log = get_event_log()
    path = str(tmp_path / "captured-events.jsonl")
    log.attach_file(path)
    yield lambda: read_events(path)
    log.detach_file()


def _child_processes():
    """Command lines of this process's children, keyed by pid."""
    children = {}
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/children") as fh:
                pids = fh.read().split()
        except OSError:      # the thread exited while we were listing
            continue
        for pid in pids:
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as fh:
                    children[pid] = fh.read().replace(b"\0", b" ").decode()
            except OSError:  # the child exited while we were listing
                pass
    # multiprocessing starts its resource tracker once and keeps it for
    # the life of the interpreter; it is not any one test's child.
    return {pid: cmd for pid, cmd in children.items()
            if "resource_tracker" not in cmd}


def _non_daemon_threads():
    """Live non-daemon threads; in this code base only the
    ``ophidia-core_*`` pools of ``OphidiaServer`` start any."""
    return {t for t in threading.enumerate() if not t.daemon}


def _temp_files(root):
    """Half-written ``*.tmp.<pid>`` files of the atomic writers under
    *root*, relative to it."""
    return sorted(
        os.path.relpath(os.path.join(dirpath, name), root)
        for dirpath, _, names in os.walk(root)
        for name in names if ".tmp." in name
    )


@pytest.fixture(autouse=True)
def _no_leaked_shm_or_children(request):
    """A test leaves no new ``/dev/shm`` segment, no live child process
    (the two leak checks ``bench/`` makes per repetition), no live
    non-daemon thread (an ``OphidiaServer`` that was never shut down),
    no open span context, which would silently turn later "untraced"
    runs into traced ones, and no ``*.tmp.*`` file under its
    ``tmp_path`` (an atomic write that did not clean up after itself)."""
    assert spans.current_context() is None, (
        f"test started inside span context {spans.current_context()}")
    shm_before = set(os.listdir("/dev/shm"))
    children_before = set(_child_processes())
    threads_before = _non_daemon_threads()
    yield
    leaked_context = spans.current_context()
    # Cleared either way, so the tests after this one start untraced.
    spans._context.set(None)
    # A pool worker told to exit may need a moment to be reaped.
    deadline = time.monotonic() + 2.0
    while True:
        leaked = {pid: cmd for pid, cmd in _child_processes().items()
                  if pid not in children_before}
        threads = _non_daemon_threads() - threads_before
        if not (leaked or threads) or time.monotonic() > deadline:
            break
        time.sleep(0.02)
    assert not leaked, f"child processes left running: {leaked}"
    assert not threads, (
        f"non-daemon threads left running: {sorted(t.name for t in threads)}")
    shm_leaked = sorted(set(os.listdir("/dev/shm")) - shm_before)
    assert not shm_leaked, f"/dev/shm segments left behind: {shm_leaked}"
    assert leaked_context is None, f"span context left open: {leaked_context}"
    tmp_path = request.node.funcargs.get("tmp_path")
    if tmp_path is not None:
        stray = _temp_files(tmp_path)
        assert not stray, f"temp files left under tmp_path: {stray}"
