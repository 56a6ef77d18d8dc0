"""Suite-wide fixtures: the shared TC model and a per-test leak check."""

import os
import time

import pytest

from repro.workflow.tasks import ensure_tc_model


@pytest.fixture(scope="session")
def tc_model_path(tmp_path_factory):
    """A quickly-trained TC localizer (synthetic patches), trained once
    for every test that runs the workflow with ML on."""
    return ensure_tc_model(None, 16, str(tmp_path_factory.mktemp("tc")))


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


@pytest.fixture(autouse=True)
def _no_leaked_shm_or_children():
    """A test leaves no new ``/dev/shm`` segment and no live child
    process (the two leak checks ``bench/`` makes per repetition)."""
    shm_before = set(os.listdir("/dev/shm"))
    children_before = set(_child_processes())
    yield
    # A pool worker told to exit may need a moment to be reaped.
    deadline = time.monotonic() + 2.0
    while True:
        leaked = {pid: cmd for pid, cmd in _child_processes().items()
                  if pid not in children_before}
        if not leaked or time.monotonic() > deadline:
            break
        time.sleep(0.02)
    assert not leaked, f"child processes left running: {leaked}"
    shm_leaked = sorted(set(os.listdir("/dev/shm")) - shm_before)
    assert not shm_leaked, f"/dev/shm segments left behind: {shm_leaked}"
