#!/usr/bin/env python3
"""Steadiness check: two sets of runs of the same code must agree.

    python3 perfbench/steady.py

Runs ``run.py`` in a fresh process per run on every workload in
``BENCHMARK.json``: set A on seeds 1-5 and set B on seeds 6-10,
alternating A and B so that a drift of the host falls on both.  For
every workload and end-to-end metric it prints both medians, their
difference as a share of set A's, the inter-quartile spread of all ten
runs as a share of their median, and whether the metric stays within
its ``bound`` in ``BENCHMARK.json``: the medians differ by no more than
the bound, and so does the spread.  The share of failed operations must
be the same in both sets.  Raw results go to
``.bench_build/perfbench/steady-<workload>.json``.  Exits 1 when any
check fails.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402

#: seeds of set A; set B takes the next RUNS seeds
SEEDS_A = range(1, 6)
RUNS = len(SEEDS_A)


def run_once(workload: str, seed: int, seconds: int) -> Dict:
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def verdicts(spec: Dict, runs_a: List[Dict], runs_b: List[Dict]) -> bool:
    """Print one row per end-to-end metric; True when all agree."""
    ok = True
    share_a = [r["failed"] / r["attempted"] for r in runs_a]
    share_b = [r["failed"] / r["attempted"] for r in runs_b]
    if sorted(set(share_a)) != sorted(set(share_b)) or len(set(share_a)) != 1:
        print(f"  failed shares differ: {share_a} vs {share_b}")
        ok = False
    print(f"  {'metric':18s} {'median A':>12s} {'median B':>12s} {'B-A':>7s} "
          f"{'spread':>7s} {'bound':>6s}  verdict")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a = [r["metrics"][name]["value"] for r in runs_a]
        b = [r["metrics"][name]["value"] for r in runs_b]
        med_a, med_b = statistics.median(a), statistics.median(b)
        worse = (med_b - med_a) / med_a
        if metric["better"] == "higher":
            worse = -worse
        spread = metrics.spread(a + b)
        agree = abs(med_b - med_a) / med_a <= bound and spread <= bound
        ok = ok and agree
        print(f"  {name:18s} {med_a:12.5g} {med_b:12.5g} {worse:+7.1%} "
              f"{spread:7.1%} {bound:6.2f}  {'agree' if agree else 'DIFFER'}")
    return ok


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    out_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs_a, runs_b = [], []
        for seed in SEEDS_A:
            for runs, run_seed in ((runs_a, seed), (runs_b, seed + RUNS)):
                runs.append(run_once(workload, run_seed, spec["run_seconds"]))
        with open(os.path.join(out_dir, f"steady-{workload}.json"), "w") as handle:
            json.dump({"a": runs_a, "b": runs_b}, handle)
        print(f"{workload}: {RUNS} + {RUNS} runs")
        ok = verdicts(spec, runs_a, runs_b) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
