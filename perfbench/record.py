#!/usr/bin/env python3
"""Record the outputs the current sources give for every benchmark job.

    python3 perfbench/record.py

Runs every job of every workload, and of the quick mode, under seeds 0 and 1
and writes perfbench/expected.json: each job's exit code and standard
output, the SHA-256 of the model file of each `build` job, and the set-up
line of each model.  run.py compares every later run against this file.

The two seeds must give byte-identical outputs, whatever seed a run uses:
the seed reaches only the stage-4 random probes, which none of these models
needs, and the 2-local pair sample, of which a report prints only the
verdict.  The H(5) `certify` and `info` outputs must also equal the golden
reports under tests/golden/.  The script fails without writing when either
check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import run

SEEDS = (0, 1)


def record_jobs(work) -> dict:
    jobs: dict = {}
    for seed in SEEDS:
        for quick in (False, True):
            for workload in run.WORKLOADS:
                for job in run.make_jobs(workload, seed, work, quick):
                    stdout = work / (job.id.replace(" ", "_") + ".out")
                    cmd = [sys.executable, "-m", "cartansuper.cli", *job.argv]
                    _, _, rc = run.timed_process(cmd, stdout, time.monotonic() + 600)
                    entry = {"exit": rc, "stdout": stdout.read_text(encoding="utf-8")}
                    if job.out_file is not None:
                        entry["file_sha256"] = run.sha256(job.out_file)
                    previous = jobs.setdefault(job.id, entry)
                    if previous != entry:
                        raise SystemExit(f"{job.id}: seed {seed} gives another output")
                    golden = run.GOLDEN.get(job.id)
                    if golden is not None and golden.read_text() != entry["stdout"]:
                        raise SystemExit(f"{job.id}: output differs from {golden}")
                    if rc != 0:
                        raise SystemExit(f"{job.id}: exit code {rc}")
    return jobs


def record_setup(work) -> dict:
    models = sorted({m for _, ms in run.WORKLOADS.values() for m in ms + run.QUICK_MODELS})
    out = work / "setup.out"
    cmd = [sys.executable, str(run.HERE / "child.py"), "setup"]
    _, _, rc = run.timed_process(cmd + [f"{f}:{n}" for f, n in models], out,
                                 time.monotonic() + 600)
    if rc != 0:
        raise SystemExit(f"set-up exit code {rc}")
    lines = out.read_text().splitlines()
    return {f"{f} {n}": line for (f, n), line in zip(models, lines)}


def main() -> int:
    work = run.ROOT / ".bench_build" / "perfbench" / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(run.SRC)],
                       check=True, stdout=subprocess.DEVNULL)
        expected = {"seeds": list(SEEDS), "jobs": record_jobs(work),
                    "setup": record_setup(work)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.EXPECTED} ({len(expected['jobs'])} jobs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
