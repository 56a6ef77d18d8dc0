#!/usr/bin/env python3
"""Compare two result files of `run.py`: ``compare.py A.json B.json``.

For every workload and end-to-end metric prints both medians, the ratio
B/A with its base, the bound, and a verdict:

* ``ok``          B's median is no worse than A's by more than the bound;
* ``worse``       it is, and the spread does not explain it;
* ``unresolved``  the run-to-run spread (quartile distance over median,
                  the wider of the two files) exceeds the bound, so the
                  metric cannot be called unchanged -- unless every
                  sample of B reads better than every sample of A.

Exit status is non-zero when any pairing is ``worse``.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List


def _spread(summary: Dict[str, float]) -> float:
    return (summary["q3"] - summary["q1"]) / summary["median"] if summary["median"] else 0.0


def verdict(a: Dict[str, Any], b: Dict[str, Any], metric: Dict[str, Any]) -> Dict[str, Any]:
    name, bound = metric["name"], metric["bound"]
    sa, sb = a["end_to_end"][name], b["end_to_end"][name]
    lower = metric["better"] == "lower"
    ratio = sb["median"] / sa["median"]
    worsening = ratio - 1.0 if lower else 1.0 / ratio - 1.0
    xs, ys = a["samples"].get(name, []), b["samples"].get(name, [])
    all_better = bool(xs and ys) and (
        max(ys) < min(xs) if lower else min(ys) > max(xs))
    spread = max(_spread(sa), _spread(sb))
    if spread > bound and not all_better:
        word = "unresolved"
    elif worsening > bound:
        word = "worse"
    else:
        word = "ok"
    return {"a": sa["median"], "b": sb["median"], "ratio": ratio,
            "spread": spread, "bound": bound, "verdict": word}


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        doc_a = json.load(fh)
    with open(argv[1], encoding="utf-8") as fh:
        doc_b = json.load(fh)
    print(f"A = {argv[0]}\nB = {argv[1]}")
    print(f"{'workload':<18}{'metric':<13}{'A median':>12}{'B median':>12}"
          f"{'B/A':>8}{'spread':>8}{'bound':>7}  verdict")
    counts = {"ok": 0, "worse": 0, "unresolved": 0}
    for name, a in doc_a["workloads"].items():
        b = doc_b["workloads"].get(name)
        if b is None:
            print(f"{name:<18}missing from B")
            counts["worse"] += 1
            continue
        for metric in doc_a["end_to_end"]:
            if metric["name"] not in a["end_to_end"] or metric["name"] not in b["end_to_end"]:
                continue
            v = verdict(a, b, metric)
            counts[v["verdict"]] += 1
            print(f"{name:<18}{metric['name']:<13}{v['a']:>12.4f}{v['b']:>12.4f}"
                  f"{v['ratio']:>8.3f}{v['spread']:>8.3f}{v['bound']:>7.2f}  "
                  f"{v['verdict']}")
    print(f"{counts['ok']} ok, {counts['worse']} worse, "
          f"{counts['unresolved']} unresolved  (B/A is B's median over A's)")
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
