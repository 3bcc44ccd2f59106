#!/usr/bin/env python3
"""Self-tests of the benchmark, on one small job per workload (--quick).

    python3 perfbench/selftest.py

Checks that
  * every metric BENCHMARK.json declares prints, by name and with its unit,
    in the JSON result and in the text lines (end-to-end metrics with
    --trace 0, per-layer metrics with --trace 1), for every workload;
  * a deliberately wrong stored output is counted in jobs_failed and makes
    the command exit 1;
  * in a directory holding only BENCHMARK.json and perfbench/, the command
    exits non-zero without printing a result.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

WORK = run.ROOT / ".bench_build" / "perfbench" / "selftest"


def bench(*args: str, cwd: Path = run.ROOT, script: Path = run.HERE / "run.py"):
    cmd = [sys.executable, str(script), "--seed", "5", "--seconds", "1", *args]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, lines[:-1], result


def fail(msg: str, proc=None) -> None:
    print(f"FAIL: {msg}")
    if proc is not None:
        print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
    raise SystemExit(1)


def check_metrics_print(declared: dict) -> None:
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc, text, result = bench("--workload", workload, "--trace", str(trace), "--quick")
            if proc.returncode != 0 or result is None or not result["correct"]:
                fail(f"{workload} --trace {trace} --quick did not pass", proc)
            for metric in declared[key]:
                name, unit = metric["name"], metric["unit"]
                got = result["metrics"].get(name)
                if got is None or got["unit"] != unit:
                    fail(f"{workload} --trace {trace}: {name} [{unit}] missing, got {got}")
                if not any(line.split()[:1] == [name] and line.endswith(" " + unit)
                           for line in text):
                    fail(f"{workload} --trace {trace}: no text line for {name} [{unit}]")
            extra = set(result["metrics"]) - {m["name"] for m in declared[key]}
            if extra:
                fail(f"{workload} --trace {trace}: undeclared metrics {sorted(extra)}")
            for name in ("jobs", "jobs_failed") + (("slowest_job_s",) if trace == 0 else ()):
                if not any(line.split()[:1] == [name] for line in text):
                    fail(f"{workload} --trace {trace}: no text line for {name}")
            print(f"ok  {workload} --trace {trace}: {len(declared[key])} metrics with units")


def check_wrong_output_counts() -> None:
    expected = json.loads(run.EXPECTED.read_text())
    expected["jobs"]["info H 5"]["stdout"] = expected["jobs"]["info H 5"]["stdout"].replace(
        '"dim_L":30', '"dim_L":31')
    wrong = WORK / "expected-wrong.json"
    wrong.write_text(json.dumps(expected))
    proc, _, result = bench("--workload", "models-far", "--trace", "0", "--quick",
                            "--expected", str(wrong))
    if proc.returncode != 1 or result is None:
        fail(f"wrong stored output: exit {proc.returncode}, expected 1", proc)
    failures = [line for line in proc.stderr.splitlines() if line.startswith("FAILED")]
    if (result["correct"] or result["failed"] < 1 or len(failures) != result["failed"]
            or any(not line.startswith("FAILED info H 5:") for line in failures)):
        fail(f"wrong stored output not counted once per run of the job: {result}", proc)
    print(f"ok  a wrong stored output is counted in jobs_failed ({result['failed']}) and exits 1")


def check_bare_directory_fails() -> None:
    bare = WORK / "bare"
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, _, result = bench("--workload", "check-desk", "--trace", "0", cwd=bare,
                            script=bare / "perfbench" / "run.py")
    if proc.returncode == 0 or result is not None:
        fail("without src/ the benchmark must exit non-zero and print no result", proc)
    print(f"ok  without src/ the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "bare").mkdir(parents=True)
    try:
        check_metrics_print(declared)
        check_wrong_output_counts()
        check_bare_directory_fails()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("all benchmark self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
