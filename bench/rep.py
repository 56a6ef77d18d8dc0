"""One child process of the benchmark: a set-up or one repetition.

`run.py` starts every set-up and every repetition as a fresh process, so
the program's global metrics registry, its span collector, ``/dev/shm``
and ``ru_maxrss`` start clean each time.  The result goes to ``--out``
as JSON; stdout and stderr belong to the program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import uuid
from typing import Any, Dict, List

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")

#: What a repetition may not leave under its directory: SQLite journals
#: of ``runs.db``, half-written ``*.tmp*`` files, anything in a spill dir.
LOCK_SUFFIXES = ("-wal", "-shm", "-journal")


def fingerprint() -> str:
    """Identifies the numeric environment recorded digests are valid for.

    Floating-point results can differ between NumPy builds and between
    CPUs whose SIMD features NumPy dispatches on.
    """
    import numpy as np

    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:      # NumPy 1.x
        from numpy.core._multiarray_umath import __cpu_features__ as features

    parts = [platform.machine(), platform.python_version(), np.__version__]
    parts += sorted(name for name, on in features.items() if on)
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def leftover_files(rep_dir: str) -> List[str]:
    leaked = []
    for dirpath, _dirs, files in os.walk(rep_dir):
        rel = os.path.relpath(dirpath, rep_dir)
        in_spill = any("spill" in part for part in rel.split(os.sep))
        for name in files:
            if in_spill or name.endswith(LOCK_SUFFIXES) or ".tmp" in name:
                leaked.append(os.path.join(rel, name))
    return sorted(leaked)


def do_setup(args: argparse.Namespace) -> Dict[str, Any]:
    from workloads import WORKLOADS, size_of

    workload = WORKLOADS[args.workload]
    info = workload.setup(args.seed, size_of(workload, args.smoke), args.inputs)
    with open(os.path.join(args.inputs, "setup.json"), "w", encoding="utf-8") as fh:
        json.dump(info, fh)
    return info


def do_repetition(args: argparse.Namespace) -> Dict[str, Any]:
    import numpy as np

    from layers import instrument_program, layer_metrics
    from spans import Recorder, layer_totals
    from workloads import WORKLOADS, Region, size_of

    # A user's run history is opt-in through this variable; the
    # benchmark measures the default.
    os.environ.pop("REPRO_RUNS_DB", None)
    workload = WORKLOADS[args.workload]
    size = size_of(workload, args.smoke)
    inputs = workload.load(size, args.inputs)
    with open(os.path.join(args.inputs, "setup.json"), encoding="utf-8") as fh:
        setup_info = json.load(fh)

    recorder = None
    if args.trace:
        recorder = Recorder(uuid.uuid4().hex[:12])
        instrument_program(recorder)
    shm_before = set(os.listdir("/dev/shm"))
    region = Region(traced=bool(args.trace))
    outcome = workload.run(size, inputs, args.rep_dir, region)
    shm_leaked = sorted(set(os.listdir("/dev/shm")) - shm_before)

    result: Dict[str, Any] = {
        "traced": bool(args.trace),
        "makespan_s": region.makespan_s,
        "work_per_s": outcome.work / region.makespan_s,
        "cpu_s": region.cpu_s,
        "peak_rss_mb": region.peak_rss_mb,
        "ops_attempted": outcome.ops_attempted,
        "checks": outcome.checks,
        "digests": outcome.digests,
        "leaks": {"shm": shm_leaked, "files": leftover_files(args.rep_dir)},
        "fingerprint": fingerprint(),
        "numpy": np.__version__,
    }
    if recorder is not None:
        result["per_layer"] = layer_metrics(
            recorder, region, outcome, setup_info, len(shm_leaked))
        result["layer_self_s"] = layer_totals(
            recorder.within(region.start, region.end))
        if args.spans_out:
            recorder.dump(args.spans_out)
    return result


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("phase", choices=("setup", "rep"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rep-dir")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC_DIR)
    result = do_setup(args) if args.phase == "setup" else do_repetition(args)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
