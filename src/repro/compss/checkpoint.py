"""Task-level checkpointing (Vergés et al. 2023).

The runtime can persist each completed task's outputs, keyed by a
deterministic signature of the invocation.  A re-run of the same program
(same task functions invoked in the same order) recovers completed tasks
from the checkpoint store instead of executing them, so a failed
multi-year workflow resumes from the last finished task.

Signatures are ``<func_name>#<per-function invocation index>``: stable
across runs of a deterministic main program, and independent of object
identities, which do not survive a restart.
"""

from __future__ import annotations

import os
import pickle
import threading
from collections import Counter
from typing import Any, Dict, Optional, Tuple


class CheckpointManager:
    """Persist task outputs under *directory*, one pickle per task.

    Parameters
    ----------
    directory:
        Checkpoint store location; created if missing.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self._lock = threading.Lock()
        self._invocations: Counter = Counter()

    # -- signatures --------------------------------------------------------

    def next_signature(self, func_name: str) -> str:
        """Signature for the next invocation of *func_name* in program order."""
        with self._lock:
            index = self._invocations[func_name]
            self._invocations[func_name] += 1
        return f"{func_name}#{index}"

    def _path(self, signature: str) -> str:
        safe = signature.replace("/", "_").replace("#", "__")
        return os.path.join(self.directory, f"{safe}.ckpt")

    # -- store/load -----------------------------------------------------------

    def store(self, signature: str, results: Tuple[Any, ...]) -> None:
        """Persist *results* for *signature*; atomic against readers."""
        path = self._path(signature)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "wb") as fh:
                pickle.dump(results, fh)
            os.replace(tmp, path)
        except BaseException:
            # Unpicklable results (live handles, thread pools) cannot be
            # checkpointed; remove the partial file on every exit path
            # and propagate so the caller can decide to skip.
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise

    def load(self, signature: str) -> Optional[Tuple[Any, ...]]:
        """Return the stored results, or ``None`` when not checkpointed.

        A corrupt checkpoint file is treated as absent (the task simply
        re-executes), so a crash mid-``store`` cannot wedge a restart.
        """
        path = self._path(signature)
        if not os.path.exists(path):
            return None
        try:
            with open(path, "rb") as fh:
                results = pickle.load(fh)
        except (pickle.UnpicklingError, EOFError, OSError):
            return None
        return results
