#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10] [--first-seed 100]
                                [--traced-seeds 1] [--trajectory LABEL]

For every workload, runs run.py --trace 0 on --seeds consecutive seeds and
--trace 1 on --traced-seeds more, each with BENCHMARK.json's run_seconds.
Prints, per metric, the median, the quartiles (statistics.quantiles, n=4)
and the spread (q3 - q1) / median; an end-to-end metric whose spread is not
below a third of its bound is flagged.  Exits 1 when a run fails.

With --trajectory LABEL, appends one point to perfbench/trajectory.json:
the label (the commit whose src/ was measured), Python version, nproc, the
seeds, and every metric's median and spread per workload.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List

import run

TRAJECTORY = run.HERE / "trajectory.json"


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=200)
    elapsed = time.monotonic() - t0
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    print(f"  {workload} seed {seed} trace {trace}: the run took {elapsed:.1f} s", flush=True)
    return json.loads(lines[-1])


def summarize(results: List[dict]) -> Dict[str, dict]:
    out = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = median
        out[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else 0.0, "values": values}
    return out


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--traced-seeds", type=int, default=1)
    parser.add_argument("--trajectory", metavar="LABEL")
    args = parser.parse_args()

    point = {
        "label": args.trajectory,
        "date": datetime.date.today().isoformat(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": bench["run_seconds"],
        "seeds": [args.first_seed, args.first_seed + args.seeds + args.traced_seeds - 1],
        "workloads": {},
    }
    flagged = 0
    for workload in args.workloads.split(","):
        seeds = range(args.first_seed, args.first_seed + args.seeds)
        traced_seeds = range(seeds.stop, seeds.stop + args.traced_seeds)
        plain = [one_run(workload, s, bench["run_seconds"], 0) for s in seeds]
        traced = [one_run(workload, s, bench["run_seconds"], 1) for s in traced_seeds]
        summary = {"end_to_end": summarize(plain)}
        if traced:
            summary["per_layer"] = summarize(traced)
        point["workloads"][workload] = summary
        print(f"{workload}: {len(plain)} plain runs, {len(traced)} traced runs")
        for name, s in summary["end_to_end"].items():
            mark = ""
            if name in bounds and name != "setup_s" and s["spread"] >= bounds[name] / 3:
                mark = f"  <-- not below a third of the bound {bounds[name]}"
                flagged += 1
            print(f"  {name:<16} median {s['median']:10.4f} {s['unit']:<3} "
                  f"q1 {s['q1']:10.4f} q3 {s['q3']:10.4f} spread {s['spread']:.4f}{mark}")
        sys.stdout.flush()
    if args.trajectory:
        points = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        points.append(point)
        TRAJECTORY.write_text(json.dumps(points, indent=1) + "\n")
        print(f"appended a point to {TRAJECTORY}")
    print(f"{flagged} end-to-end spreads not below a third of their bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
