#!/usr/bin/env python3
"""Streaming overlap: analytics running *while* the ESM simulates.

Demonstrates the paper's central scheduling effect (§5.1): the
simulation task produces day files at a realistic pace; per-year
streaming monitors detect completed years; and the index/TC tasks
execute concurrently with the still-running simulation.  The same
workload then runs sequentially (analytics submitted only after the
model finishes) and both schedules are compared.

Usage::

    python examples/streaming_overlap.py [--pace 0.08] [--years 2]
"""

import argparse

from repro.cluster import laptop_like
from repro.workflow import WorkflowParams, run_extreme_events_workflow


def run(mode_sequential: bool, args) -> dict:
    with laptop_like() as cluster:
        params = WorkflowParams(
            years=[2030 + i for i in range(args.years)],
            n_days=args.days, n_lat=16, n_lon=24, n_workers=4,
            min_length_days=4, with_ml=False, seed=5,
            sequential=mode_sequential, pace_seconds=args.pace,
        )
        return run_extreme_events_workflow(cluster, params)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pace", type=float, default=0.08,
                        help="seconds of simulated model time per day file")
    parser.add_argument("--days", type=int, default=20)
    parser.add_argument("--years", type=int, default=2)
    args = parser.parse_args()

    print(f"workload: {args.years} year(s) x {args.days} days, "
          f"{args.pace}s of ESM compute per day\n")

    print("running SEQUENTIAL (analytics after the full simulation) ...")
    seq = run(True, args)
    print("running OVERLAPPED (streaming-triggered analytics) ...")
    ovl = run(False, args)

    s_seq, s_ovl = seq["schedule"], ovl["schedule"]
    print("\nmode        makespan   ESM/analytics overlap   utilisation")
    print(f"sequential  {s_seq['makespan_s']:7.2f}s   "
          f"{s_seq['esm_analytics_overlap_s']:9.2f}s            "
          f"{s_seq['worker_utilisation']:.0%}")
    print(f"overlapped  {s_ovl['makespan_s']:7.2f}s   "
          f"{s_ovl['esm_analytics_overlap_s']:9.2f}s            "
          f"{s_ovl['worker_utilisation']:.0%}")
    print(f"\nspeedup from overlap: "
          f"{s_seq['makespan_s'] / s_ovl['makespan_s']:.2f}x")

    # Identical science either way:
    for year in ovl["years"]:
        assert ovl["years"][year]["heat_waves"] == seq["years"][year]["heat_waves"]
    print("science identical across schedules: OK")


if __name__ == "__main__":
    main()
