#!/usr/bin/env python3
"""The repository's benchmark: one command, six workloads.

    python3 bench/run.py                       # every workload, both tables
    python3 bench/run.py --workload dag_fanout --seed 3 --seconds 10 --trace 0
    python3 bench/run.py --smoke               # toy sizes, proves the harness
    python3 bench/run.py --twice               # two sets turn by turn, then compare.py
    python3 bench/run.py --check-schema        # BENCHMARK.json vs the harness

The driver is one process and one thread.  Per workload it sets up
(``setup_s``, a child process, repeated and reported as a median), then
runs repetitions one after another, each in a fresh child process, as
many as fit into ``--seconds``: untraced ones give the end-to-end
metrics, traced ones the per-layer metrics.  With exactly one ``--workload`` the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Exit status is non-zero when a correctness check fails.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import compare
from layers import PER_LAYER
from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT_DIR = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT_DIR, "src")
WORK_DIR = os.path.join(BENCH_DIR, ".work")
REP = os.path.join(BENCH_DIR, "rep.py")
DECLARATION = os.path.join(ROOT_DIR, "BENCHMARK.json")
#: The result file this benchmark recorded; its digests are the expected
#: ones for its seed and numeric environment.
BASELINE = os.path.join(BENCH_DIR, "baseline.json")

#: (name, unit, better, bound): bound is the share of the parent's median
#: by which the metric may worsen before a change counts as a regression.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("makespan_s", "s", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
]

DEFAULT_SEED = 12
DEFAULT_SECONDS = 20
MIN_REPETITIONS = 3     # a median needs three; sizes make three fit
MIN_TRACED_PAIRS = 2
#: Set-up repeats: at least three, then as many as fit into the budget.
MIN_SETUPS, MAX_SETUPS, SETUP_SECONDS = 3, 9, 3.0
CHILD_TIMEOUT_S = 150
KILL_GRACE_S = 5.0
#: Memory touched before every repetition; at least the largest peak RSS
#: a repetition reaches (502 MiB, listing1_process).
PREFAULT_MB = 512
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

class ChildTimeout(Exception):
    pass


def _on_alarm(_signum: int, _frame: Any) -> None:
    raise ChildTimeout


def _group_members(pgid: int) -> List[str]:
    """``pid:name`` of every live process in the group.

    Zombies do not count: in a container whose PID 1 does not reap, an
    orphaned helper that has exited stays in the table for good.
    """
    members = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat", encoding="utf-8", errors="replace") as fh:
                stat = fh.read()
        except OSError:     # gone between listdir and open
            continue
        # pid (comm) state ppid pgrp ...; comm may hold spaces and brackets
        name = stat[stat.index("(") + 1:stat.rindex(")")]
        state, _ppid, pgrp = stat[stat.rindex(")") + 2:].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            members.append(f"{pid}:{name}")
    return members


def _wait_gone(pgid: int, seconds: float) -> List[str]:
    deadline = time.monotonic() + seconds
    while True:
        members = _group_members(pgid)
        if not members or time.monotonic() >= deadline:
            return members
        time.sleep(0.02)


def prefault() -> None:
    """Touch ``PREFAULT_MB`` of memory in a helper process that then exits.

    A virtual machine whose balloon device reports free pages hands the
    guest's free memory back to the host two seconds after it was freed;
    the next process to touch such a page pays a fault in the host.  Here
    that was 0.35 s of a 1.0 s ``listing1_thread`` repetition, paid by
    some repetitions and not by others.  The helper leaves the pages the
    repetition is about to get backed by the host.  Set-ups go without:
    it gains them 0.03 s and costs 0.3 s, and so set-ups per run.
    """
    subprocess.run(
        [sys.executable, "-S", "-c", f"bytearray(b'x') * ({PREFAULT_MB} << 20)"],
        stdin=subprocess.DEVNULL, check=True)


def run_child(args: List[str], log_path: str) -> Tuple[int, float, List[str]]:
    """Run ``rep.py`` in its own process group.

    Returns its exit code, its wall clock and the survivors.  After the
    child exits nothing of its group may be left: a pool worker or helper
    that outlives the repetition is a leak.  Survivors get two seconds
    (the multiprocessing resource tracker exits on its own once its pipe
    closes), then are killed and reported by name.
    """
    started = time.perf_counter()
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, REP] + args, stdout=log, stderr=log,
            stdin=subprocess.DEVNULL, start_new_session=True, cwd=ROOT_DIR,
        )
        # An alarm, not wait(timeout=...): that one polls every 50 ms,
        # which is a third of the shortest set-up.
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            code = proc.wait()
        except ChildTimeout:
            code = -signal.SIGKILL
        finally:
            signal.alarm(0)
    wall_s = time.perf_counter() - started
    survivors = _wait_gone(proc.pid, 2.0)
    if survivors:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        still = _wait_gone(proc.pid, KILL_GRACE_S)
        if still:
            survivors.append(f"not gone {KILL_GRACE_S:.0f} s after SIGKILL: {still}")
    proc.poll()     # reap a killed child; never block on one that will not die
    return code, wall_s, survivors


def _tail(path: str, lines: int = 12) -> str:
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return "".join(fh.readlines()[-lines:])


def _load(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def summarise(values: List[float]) -> Dict[str, float]:
    if len(values) >= 2:
        q1, _mid, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values)}


class WorkloadRun:
    """Set-up, repetitions and verdict of one workload."""

    def __init__(self, name: str, seed: int, smoke: bool,
                 spans_dir: Optional[str], tag: str) -> None:
        self.name = name
        self.seed = seed
        self.smoke = smoke
        self.spans_dir = spans_dir
        self.tag = tag      # "a", or "b" for the second set of --twice
        self.root = os.path.join(WORK_DIR, f"{name}-{os.getpid()}{tag}")
        self.inputs = os.path.join(self.root, "inputs")
        self.setup_s: List[float] = []
        self.untraced: List[Dict[str, Any]] = []
        self.traced: List[Dict[str, Any]] = []
        self.failures: List[str] = []
        self.attempted = 0
        self.failed = 0
        self._reps = 0

    def _common(self) -> List[str]:
        return (["--workload", self.name, "--inputs", self.inputs]
                + (["--smoke"] if self.smoke else []))

    def set_up(self) -> bool:
        """Generate the inputs once more; ``setup_s`` gets one sample."""
        shutil.rmtree(self.root, ignore_errors=True)
        os.makedirs(self.inputs)
        code, wall_s, survivors = run_child(
            ["setup", "--seed", str(self.seed),
             "--out", os.path.join(self.root, "setup_out.json")]
            + self._common(),
            os.path.join(self.root, "setup.log"),
        )
        self.setup_s.append(wall_s)
        if code != 0 or survivors:
            self.failures.append(
                f"set-up failed (exit {code}, survivors={survivors}):\n"
                + _tail(os.path.join(self.root, "setup.log")))
            self.attempted = self.failed = 1
            return False
        return True

    def repetition(self, traced: bool) -> None:
        index = self._reps
        self._reps += 1
        rep_dir = os.path.join(self.root, f"rep-{index}")
        os.makedirs(rep_dir)
        out = os.path.join(self.root, f"rep-{index}.json")
        log = os.path.join(self.root, f"rep-{index}.log")
        args = ["rep", "--rep-dir", rep_dir, "--out", out,
                "--trace", str(int(traced))] + self._common()
        if traced and self.spans_dir:
            os.makedirs(self.spans_dir, exist_ok=True)
            args += ["--spans-out", os.path.join(
                self.spans_dir, f"{self.name}-seed{self.seed}-{self.tag}{index}.json")]
        prefault()
        code, _wall_s, survivors = run_child(args, log)
        label = f"repetition {index}{' (traced)' if traced else ''}"
        if code != 0 or not os.path.exists(out):
            # It never reported how many operations it attempted.
            self.failures.append(f"{label} died (exit {code}):\n" + _tail(log))
            self.attempted += 1
            self.failed += 1
            return
        result = _load(out)
        problems = [f"check {k} failed" for k, ok in result["checks"].items() if not ok]
        problems += [f"leaked /dev/shm segment {n}" for n in result["leaks"]["shm"]]
        problems += [f"leftover file {n}" for n in result["leaks"]["files"]]
        problems += [f"process {who} outlived the repetition" for who in survivors]
        self.attempted += result["ops_attempted"]
        if problems:
            self.failed += result["ops_attempted"]
            self.failures += [f"{label}: {p}" for p in problems]
        (self.traced if traced else self.untraced).append(result)
        shutil.rmtree(rep_dir, ignore_errors=True)

    def cleanup(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    # -- verdict -----------------------------------------------------------

    def digests(self) -> Dict[str, str]:
        reps = self.untraced + self.traced
        return reps[0]["digests"] if reps else {}

    def check_digests(self, baseline: Optional[Dict[str, Any]]) -> None:
        """Same outputs on every repetition, and the recorded ones.

        The recorded digests hold for the baseline's seed and numeric
        environment only; elsewhere that half is skipped.
        """
        reps = self.untraced + self.traced
        if any(r["digests"] != reps[0]["digests"] for r in reps[1:]):
            self.failures.append("digests differ between repetitions")
            self.failed = self.attempted
        if (not reps or baseline is None or self.smoke
                or baseline["seed"] != self.seed
                or baseline["host"]["fingerprint"] != reps[0]["fingerprint"]):
            return
        recorded = baseline["workloads"].get(self.name, {}).get("digests")
        if recorded is not None and recorded != reps[0]["digests"]:
            self.failures.append(
                f"digests differ from those recorded for seed {self.seed}")
            self.failed = self.attempted

    def end_to_end(self) -> Dict[str, Dict[str, float]]:
        table = {}
        for name, _unit, _better, _bound in END_TO_END:
            values = (self.setup_s if name == "setup_s"
                      else [r[name] for r in self.untraced])
            if values:
                table[name] = summarise(values)
        return table

    def per_layer(self) -> Dict[str, float]:
        if not self.traced:
            return {}
        table = {
            name: statistics.median(r["per_layer"][name] for r in self.traced)
            for name in self.traced[0]["per_layer"]
        }
        if self.untraced:
            table["bench.trace_overhead_share"] = (
                statistics.median(r["makespan_s"] for r in self.traced)
                / statistics.median(r["makespan_s"] for r in self.untraced)
                - 1.0)
        return table

    def layer_shares(self) -> Dict[str, float]:
        """Each layer's self time as a share of the traced makespan."""
        if not self.traced:
            return {}
        rep = self.traced[-1]
        return {layer: secs / rep["makespan_s"]
                for layer, secs in sorted(rep["layer_self_s"].items())}

    def to_json(self, why: str) -> Dict[str, Any]:
        return {
            "why": why, "seed": self.seed,
            "correct": not self.failures, "failures": self.failures,
            "ops_attempted": self.attempted, "ops_failed": self.failed,
            "end_to_end": self.end_to_end(), "per_layer": self.per_layer(),
            "layer_share_of_makespan": self.layer_shares(),
            "samples": {"setup_s": self.setup_s,
                        **{name: [r[name] for r in self.untraced]
                           for name in ("makespan_s", "work_per_s", "cpu_s",
                                        "peak_rss_mb")}},
            "digests": self.digests(),
        }


def set_up_all(runs: List[WorkloadRun], once: bool) -> List[WorkloadRun]:
    """Set every run up, repeatedly and turn by turn; those that worked.

    At least ``MIN_SETUPS`` rounds, then more while another round of
    typical length still fits the budget, so ``setup_s`` is a median of
    more samples where set-up is cheap.
    """
    live = list(runs)
    started = time.monotonic()
    rounds = 0
    while live:
        live = [run for run in live if run.set_up()]
        rounds += 1
        typical = sum(statistics.median(run.setup_s) for run in live)
        fits = (time.monotonic() - started + typical
                <= SETUP_SECONDS * len(live))
        if once or rounds >= MAX_SETUPS or (rounds >= MIN_SETUPS and not fits):
            break
    return live


def measure(runs: List[WorkloadRun], opts: argparse.Namespace,
            baseline: Optional[Dict[str, Any]]) -> None:
    """Set up and run one workload: one set, or the two of ``--twice``.

    Two sets take turns, repetition by repetition, and swap who goes
    first every round, so a change of the host's pace falls on both.
    A round is started only if it should still end within the budget.
    """
    try:
        live = set_up_all(runs, once=opts.smoke or opts.trace == 1)
        minimum = MIN_TRACED_PAIRS if opts.trace == 1 else MIN_REPETITIONS
        budget = opts.seconds * len(live)
        started = time.monotonic()
        rounds, longest = 0, 0.0

        def another_round() -> bool:
            if opts.repetitions:
                return rounds < opts.repetitions
            return (rounds < minimum
                    or time.monotonic() - started + longest <= budget)

        while live and another_round():
            round_started = time.monotonic()
            for run in (live if rounds % 2 == 0 else live[::-1]):
                run.repetition(False)
                if opts.trace == 1:
                    # Pairs, so the tracing overhead has its untraced base.
                    run.repetition(True)
            longest = max(longest, time.monotonic() - round_started)
            rounds += 1
        for run in live:
            if opts.trace is None:
                run.repetition(True)
            run.check_digests(baseline)
    finally:
        for run in runs:
            run.cleanup()


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def print_workload(run: WorkloadRun, work_unit: str) -> None:
    print(f"\n== {run.name}  (set {run.tag}, seed {run.seed}, {len(run.untraced)} untraced + "
          f"{len(run.traced)} traced repetitions; ops attempted "
          f"{run.attempted}, failed {run.failed})")
    table = run.end_to_end()
    if table:
        print(f"  {'end-to-end':<14}{'unit':>8}{'median':>12}{'q1':>12}"
              f"{'q3':>12}{'min':>12}{'max':>12}{'n':>4}")
    for name, unit, _better, _bound in END_TO_END:
        if name not in table:
            continue
        s = table[name]
        unit = f"{work_unit}/s" if name == "work_per_s" else unit
        print(f"  {name:<14}{unit:>8}{s['median']:>12.4f}{s['q1']:>12.4f}"
              f"{s['q3']:>12.4f}{s['min']:>12.4f}{s['max']:>12.4f}{s['n']:>4}")
    layers = run.per_layer()
    if layers:
        print("  per-layer (traced repetition; a layer not entered reads 0)")
        for name, unit, _better in PER_LAYER:
            if layers[name]:
                print(f"    {name:<34}{layers[name]:>16.6g} {unit}")
        shares = ", ".join(f"{k} {v:.0%}" for k, v in run.layer_shares().items())
        print(f"  layer self time / traced makespan: {shares}")
    for failure in run.failures:
        print(f"  FAILED: {failure}")


def contract_line(run: WorkloadRun, trace: Optional[int]) -> str:
    metrics: Dict[str, Dict[str, Any]] = {}
    if trace in (None, 0):
        table = run.end_to_end()
        for name, unit, _better, _bound in END_TO_END:
            if name in table:
                metrics[name] = {"value": table[name]["median"], "unit": unit}
    if trace in (None, 1):
        layers = run.per_layer()
        for name, unit, _better in PER_LAYER:
            if name in layers:
                metrics[name] = {"value": layers[name], "unit": unit}
    return json.dumps({
        "correct": not run.failures, "attempted": max(1, run.attempted),
        "failed": run.failed, "metrics": metrics,
    })


def check_listing1_agree(runs: Dict[str, WorkloadRun]) -> List[str]:
    """The three Listing-1 workloads must export identical indices."""
    problems = []
    listing = {n: r.digests() for n, r in runs.items()
               if n.startswith("listing1") and r.digests()}
    names = sorted(listing)
    for other in names[1:]:
        shared = set(listing[names[0]]) & set(listing[other])
        if any(listing[names[0]][k] != listing[other][k] for k in shared):
            problems.append(f"{names[0]} and {other} disagree on shared years")
    return problems


def write_result(runs: Dict[str, WorkloadRun], opts: argparse.Namespace,
                 out_path: str) -> bool:
    """Write one set's result file; True when every check passed."""
    cross = check_listing1_agree(runs)
    for problem in cross:
        print(f"FAILED: {problem}")
    first = next((r for run in runs.values()
                  for r in run.untraced + run.traced), {})
    doc = {
        "seed": opts.seed, "smoke": opts.smoke,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "numpy": first.get("numpy"), "machine": platform.machine(),
                 "fingerprint": first.get("fingerprint")},
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "cross_workload_failures": cross,
        "workloads": {n: r.to_json(WORKLOADS[n].why) for n, r in runs.items()},
    }
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    print(f"result written to {os.path.relpath(out_path)}")
    return not cross and all(not r.failures for r in runs.values())


def run_sets(opts: argparse.Namespace,
             out_paths: List[str]) -> Tuple[List[Dict[str, WorkloadRun]], bool]:
    """Measure every workload once per result file, the sets side by side."""
    baseline = _load(BASELINE) if os.path.exists(BASELINE) else None
    sets: List[Dict[str, WorkloadRun]] = [{} for _ in out_paths]
    for name in opts.workload or list(WORKLOADS):
        runs = [WorkloadRun(name, opts.seed, opts.smoke, opts.keep_spans, tag)
                for tag in "ab"[:len(out_paths)]]
        measure(runs, opts, baseline)
        for of_set, run in zip(sets, runs):
            of_set[name] = run
            print_workload(run, WORKLOADS[name].work_unit)
    print()
    ok = all([write_result(of_set, opts, path)
              for of_set, path in zip(sets, out_paths)])
    if opts.smoke:
        print("smoke run: toy sizes, the numbers above are not reportable")
    return sets, ok


# ---------------------------------------------------------------------------
# --check-schema
# ---------------------------------------------------------------------------

def check_schema() -> List[str]:
    """BENCHMARK.json must declare exactly what the harness emits."""
    doc = _load(DECLARATION)
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(doc) != keys:
        problems.append(f"keys {sorted(doc)} != {sorted(keys)}")
        return problems
    if doc["command"] != ["python3", "bench/run.py"] or doc["paths"] != ["bench"]:
        problems.append("command/paths do not name bench/run.py in bench/")
    if not (isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60):
        problems.append("run_seconds outside 1..60")

    def check_section(section: str, declared: List[Dict[str, Any]],
                emitted: List[Tuple], limit: int, fields: Tuple[str, ...]) -> None:
        if len(declared) > limit:
            problems.append(f"{section}: {len(declared)} entries, limit {limit}")
        want = {row[0]: dict(zip(fields, row)) for row in emitted}
        seen = set()
        for entry in declared:
            name = entry.get("name", "")
            if not NAME_RE.match(name):
                problems.append(f"{section}: bad name {name!r}")
            if name in seen:
                problems.append(f"{section}: {name} declared twice")
            seen.add(name)
            if name not in want:
                problems.append(f"{section}: {name} is not emitted")
            elif {k: entry.get(k) for k in fields} != want[name] or set(entry) != set(fields):
                problems.append(f"{section}: {name} differs from the harness: "
                                f"{entry} != {want[name]}")
        for name in want:
            if name not in seen:
                problems.append(f"{section}: {name} is emitted but not declared")

    check_section("workloads", doc["workloads"],
            [(w.name, w.why) for w in WORKLOADS.values()], 8, ("name", "why"))
    check_section("end_to_end", doc["end_to_end"], END_TO_END, 16,
            ("name", "unit", "better", "bound"))
    check_section("per_layer", doc["per_layer"], PER_LAYER, 128,
            ("name", "unit", "better"))
    if any(len(w.get("why", "")) > 200 or "\n" in w.get("why", "")
           for w in doc["workloads"]):
        problems.append("a workload's why is longer than 200 characters or one line")
    if any(not 0 < e.get("bound", 0) <= 0.25 for e in doc["end_to_end"]):
        problems.append("an end-to-end bound is outside (0, 0.25]")
    if not any(e.get("name") == "setup_s" and e.get("unit") == "s"
               and e.get("better") == "lower" for e in doc["end_to_end"]):
        problems.append("end_to_end lacks setup_s [s, lower]")
    all_names = [e["name"] for s in ("workloads", "end_to_end", "per_layer")
                 for e in doc[s] if "name" in e]
    if len(all_names) != len(set(all_names)):
        problems.append("a name is used more than once across sections")
    return problems


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append",
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed of the generated inputs (default 12)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="start repetitions of a workload while another "
                             "should still end within this long (at least "
                             "three run)")
    parser.add_argument("--repetitions", type=int,
                        help="run exactly this many untraced repetitions "
                             "instead of filling --seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: untraced repetitions, end-to-end metrics; "
                             "1: untraced/traced pairs, per-layer metrics; "
                             "default: untraced ones plus one traced, both tables")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload once at toy size")
    parser.add_argument("--twice", action="store_true",
                        help="two full sets, run turn by turn, compared "
                             "by compare.py")
    parser.add_argument("--check-schema", action="store_true",
                        help="validate BENCHMARK.json against the harness")
    parser.add_argument("--out", default=os.path.join(WORK_DIR, "result.json"),
                        help="where the result JSON goes")
    parser.add_argument("--keep-spans", metavar="DIR",
                        help="write each traced repetition's spans here")
    opts = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"bench: the program is missing ({SRC_DIR}/repro)", file=sys.stderr)
        return 2
    for name in opts.workload or []:
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r}; choose from {list(WORKLOADS)}")
    if opts.check_schema:
        problems = check_schema()
        for problem in problems:
            print(f"BENCHMARK.json: {problem}")
        print("BENCHMARK.json matches the harness" if not problems
              else f"{len(problems)} problem(s)")
        return 1 if problems else 0
    if opts.smoke:
        opts.repetitions = 1

    signal.signal(signal.SIGALRM, _on_alarm)
    if opts.twice:
        stem = opts.out[:-5] if opts.out.endswith(".json") else opts.out
        paths = [f"{stem}.a.json", f"{stem}.b.json"]
        _sets, ok = run_sets(opts, paths)
        verdict = compare.main(paths)
        return verdict if ok else 1

    (runs,), ok = run_sets(opts, [opts.out])
    if len(runs) == 1:
        print(contract_line(next(iter(runs.values())), opts.trace))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
