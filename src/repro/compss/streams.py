"""Streaming interfaces for producer/consumer task overlap.

Section 5.2 of the paper: "a streaming interface available in PyCOMPSs
has been leveraged to monitor the file production progress and detect
when a (full) new year of data is available".  :class:`FileDistroStream`,
after the distroStream library PyCOMPSs integrates, watches a directory
written through a :class:`~repro.cluster.filesystem.SharedFilesystem` and
yields newly appeared files matching a pattern, exactly how the case
study detects freshly written simulation days.
"""

from __future__ import annotations

import fnmatch
import os
import threading
import time
from typing import List, Optional


class StreamClosed(Exception):
    """Polling a closed, fully-drained stream."""


class FileDistroStream:
    """Watches a directory for new files matching *pattern*.

    The producing task (the ESM simulation) writes files through a
    :class:`~repro.cluster.filesystem.SharedFilesystem`; the consuming
    task polls the stream and reacts to fresh paths.  Files are reported
    exactly once, in sorted-name order per poll.  The stream is
    event-driven: every write the filesystem lands under the watched
    directory notifies blocked pollers, which sleep untimed between
    events.

    Parameters
    ----------
    directory:
        Host directory to watch.
    pattern:
        ``fnmatch`` pattern on the file name (default ``*``).
    filesystem:
        The shared filesystem whose write events wake pollers.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        pattern: str = "*",
        *,
        filesystem,
    ) -> None:
        self.directory = os.fspath(directory)
        self.pattern = pattern
        self._seen: set = set()
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._closed = False
        watched = os.path.abspath(self.directory)

        def on_write(rel_path: str) -> None:
            host = os.path.abspath(os.path.join(filesystem.root, rel_path))
            # Prefix match (not exact-parent): writes in subdirectories
            # trigger a spurious-but-harmless rescan, a miss would lose
            # a wake-up.
            if host.startswith(watched + os.sep):
                self.notify()

        self._fs = filesystem
        self._fs_listener = on_write
        filesystem.add_write_listener(on_write)

    def notify(self) -> None:
        """Wake every blocked poller to rescan (producers/aborters)."""
        with self._wake:
            self._wake.notify_all()

    # -- consumption ---------------------------------------------------------

    def _scan_locked(self) -> List[str]:
        if not os.path.isdir(self.directory):
            return []
        fresh = []
        for name in sorted(os.listdir(self.directory)):
            if name in self._seen:
                continue
            if not fnmatch.fnmatch(name, self.pattern):
                continue
            # Skip in-flight atomic-write temporaries.
            if ".tmp." in name:
                continue
            self._seen.add(name)
            fresh.append(os.path.join(self.directory, name))
        return fresh

    def poll(self, timeout: Optional[float] = None, block: bool = True) -> List[str]:
        """Full paths of files that appeared since the last poll.

        Blocks until a file appears or the stream closes; raises
        :class:`StreamClosed` once the stream is closed *and* no unseen
        files remain (with *block* False, returns ``[]`` instead).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._wake:
            while True:
                fresh = self._scan_locked()
                if fresh:
                    return fresh
                # The scan above ran after observing any close flag set
                # before we took the lock, so a close racing the last
                # write cannot hide a file from us.
                if self._closed:
                    if block:
                        raise StreamClosed("stream closed and drained")
                    return []
                if not block:
                    return []
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return []
                self._wake.wait(timeout=remaining)

    def close(self) -> None:
        """Mark end-of-stream: the producer will write no more files."""
        with self._wake:
            self._closed = True
            self._wake.notify_all()
        self._fs.remove_write_listener(self._fs_listener)
