#!/usr/bin/env python3
"""The cartansuper benchmark: fixed CLI workloads, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One client drives a closed loop: every job
is one `python -m cartansuper.cli ...` process on the checkout's src/, and
the next job starts only when the previous one has exited.  The seed orders
the jobs and is passed to every job as --seed (it drives the 2-local pair
sampling of `certify`).  Every job's exit code and output are compared with
the ones stored in perfbench/expected.json (recorded by record.py); a
mismatch counts in jobs_failed and makes the command exit 1.

--trace 0 runs the workload's set-up twice (a fresh interpreter that
imports cartansuper and constructs every model of the workload and its L'),
then repeats the job list until --seconds have passed (at least once) and
prints the end-to-end metrics as medians over the repeats.  Times are
calibrated against a fixed piece of work run between the jobs, because the
speed of a shared virtual machine drifts (see calibration_work and
perfbench/README.md).

--trace 1 runs every job twice in a row, once plain and once under
perfbench/child.py, which wraps the layer functions and records spans, and
prints the per-layer metrics, the self time of each module and the tracing
overhead.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics ({name: {value, unit}}).  perfbench/README.md maps every
per-layer metric to the end-to-end metric it should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
GOLDEN = {"certify H 5": ROOT / "tests/golden/certify_h5.json",
          "info H 5": ROOT / "tests/golden/info_h5.json"}

Model = Tuple[str, int]
DESK: List[Model] = [("W", 4), ("S", 4), ("Stilde", 4), ("H", 5), ("H", 6)]
WORKLOADS: Dict[str, Tuple[str, List[Model]]] = {
    "check-desk": ("check", DESK),
    "certify-ladder": ("certify", DESK + [("H", 7)]),
    "models-far": ("build+info", [("W", 5), ("S", 5), ("H", 7), ("Stilde", 6),
                                  ("H", 8), ("W", 6)]),
}
# one small job per workload, for the self-tests
QUICK_MODELS: List[Model] = [("H", 5)]

# the median of two set-ups; a third would cost models-far about 9 s per run
SETUP_REPEATS = 2
DEADLINE_S = 170.0  # the run must end within 180 s
# Calibrated seconds are seconds at the speed where calibration_work() takes
# this long: its typical time on the machine the benchmark was recorded on
# (a shared 2-core VM, Intel Xeon at 2.1 GHz, Python 3.11).
CALIBRATION_S = 0.11

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Job:
    id: str
    argv: List[str]
    out_file: Optional[Path] = None


@dataclass
class Result:
    job: Job
    wall: float
    rss_mb: float
    why: str  # empty when the outputs are correct
    trace: Optional[dict] = None


def make_jobs(workload: str, seed: int, work: Path, quick: bool) -> List[Job]:
    command, models = WORKLOADS[workload]
    models = list(QUICK_MODELS if quick else models)
    random.Random(seed).shuffle(models)
    jobs = []
    for family, n in models:
        spec = ["--family", family, "--n", str(n)]
        tail = ["--format", "json", "--seed", str(seed)]
        if command != "build+info":
            jobs.append(Job(f"{command} {family} {n}", [command, *spec, *tail]))
            continue
        path = work / f"{family}{n}.json"
        jobs.append(Job(f"build {family} {n}",
                        ["build", *spec, *tail, "--out", str(path)], path))
        jobs.append(Job(f"info {family} {n}", ["info", "--model", str(path), *tail]))
    return jobs


def job_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("CARTANSUPER_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def timed_process(cmd: List[str], stdout: Path, deadline: float) -> Tuple[float, float, int]:
    """Run cmd to completion; return (wall seconds, max RSS in MB, exit code).
    The process is killed at the deadline (time.monotonic())."""
    with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=job_env(), cwd=ROOT)
        timer = threading.Timer(max(0.1, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # e.g. SIGTERM: stop the job before leaving
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_output(job: Job, rc: int, stdout: Path, expected: dict) -> str:
    """Empty when the job's exit code and outputs match the stored ones."""
    want = expected["jobs"].get(job.id)
    if want is None:
        return "no stored output"
    if rc != want["exit"]:
        return f"exit code {rc}, expected {want['exit']}"
    got = stdout.read_bytes()
    if got != want["stdout"].encode("utf-8"):
        return "stdout differs from the stored output"
    golden = GOLDEN.get(job.id)
    if golden is not None and golden.is_file() and got != golden.read_bytes():
        return f"stdout differs from {golden.relative_to(ROOT)}"
    if job.out_file is not None:
        if not job.out_file.is_file():
            return "model file not written"
        if sha256(job.out_file) != want["file_sha256"]:
            return "model file differs from the stored one"
    return ""


def run_job(job: Job, work: Path, expected: dict, deadline: float,
            traced: bool = False) -> Result:
    stdout = work / (job.id.replace(" ", "_") + (".traced" if traced else "") + ".out")
    if traced:
        trace_file = stdout.with_suffix(".trace.json")
        cmd = [sys.executable, str(HERE / "child.py"), "trace", str(trace_file), *job.argv]
    else:
        cmd = [sys.executable, "-m", "cartansuper.cli", *job.argv]
    if job.out_file is not None and job.out_file.exists():
        job.out_file.unlink()  # so that a stale model file cannot pass
    wall, rss, rc = timed_process(cmd, stdout, deadline)
    why = check_output(job, rc, stdout, expected)
    trace = None
    if traced and not why:
        trace = json.loads(trace_file.read_text())
    return Result(job, wall, rss, why, trace)


def run_setup(workload: str, models: List[Model], work: Path, expected: dict,
              deadline: float) -> Tuple[float, bool]:
    out = work / "setup.out"
    cmd = [sys.executable, str(HERE / "child.py"), "setup"]
    cmd += [f"{family}:{n}" for family, n in models]
    wall, _, rc = timed_process(cmd, out, deadline)
    want = "".join(expected["setup"][f"{family} {n}"] + "\n" for family, n in models)
    ok = rc == 0 and out.read_text() == want
    if not ok:
        print(f"setup of {workload} failed: exit {rc}", file=sys.stderr)
    return wall, ok


def calibration_work() -> float:
    """Seconds taken by a fixed piece of exact sparse elimination over
    Fractions: the kind of work the jobs do, independent of src/."""
    rng = random.Random(20261017)
    t0 = time.perf_counter()
    for _ in range(6):
        n = 48
        rows = [{j: Fraction(rng.choice((-2, -1, 1, 2))) for j in rng.sample(range(n), 5)}
                for _ in range(n)]
        pivots: Dict[int, Dict[int, Fraction]] = {}
        for row in rows:
            while row:
                lead = min(row)
                pivot = pivots.get(lead)
                if pivot is None:
                    inv = 1 / row[lead]
                    pivots[lead] = {k: v * inv for k, v in row.items()}
                    break
                c = row[lead]
                for k, v in pivot.items():
                    x = row.get(k, 0) - c * v
                    if x:
                        row[k] = x
                    else:
                        row.pop(k, None)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# per-layer metrics from the traced jobs of one pass


@dataclass
class Trace:
    """Span totals, self times and counters summed over the jobs of a pass."""

    by_name: Dict[str, List[float]] = field(default_factory=dict)
    layer_self: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    maxima: Dict[str, float] = field(default_factory=dict)
    absent: set = field(default_factory=set)
    import_s: float = 0.0

    def add(self, summary: dict) -> None:
        for name, (count, total, self_s) in summary["by_name"].items():
            row = self.by_name.setdefault(name, [0, 0.0, 0.0])
            row[0] += count
            row[1] += total
            row[2] += self_s
        for layer, s in summary["layer_self_s"].items():
            self.layer_self[layer] = self.layer_self.get(layer, 0.0) + s
        for key, v in summary["counters"].items():
            self.counters[key] = self.counters.get(key, 0) + v
        for key, v in summary["maxima"].items():
            self.maxima[key] = max(v, self.maxima.get(key, v))
        self.absent.update(summary["absent"])
        self.import_s += summary["import_s"]

    def total(self, name: str) -> float:
        return self.by_name.get(name, [0, 0.0, 0.0])[1]

    def calls(self, name: str) -> int:
        return self.by_name.get(name, [0, 0.0, 0.0])[0]


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# name -> (unit, wrapped names it needs, value from the pass's Trace).
# The wrapped names are the "module.attr" strings child.install patches.
LAYER_METRICS: Dict[str, Tuple[str, Tuple[str, ...], Callable[[Trace], float]]] = {
    "derivations.derivation_space_s": (
        "s", ("derivations.derivation_space",),
        lambda t: t.total("derivations.derivation_space")),
    "derivations.leibniz_rows_s": (
        "s", ("derivations.leibniz_rows",),
        lambda t: t.total("derivations.leibniz_rows")),
    "derivations.leibniz_rows_emitted": (
        "count", ("derivations.leibniz_rows",),
        lambda t: t.counters.get("leibniz_rows_emitted", 0)),
    "derivations.leibniz_rows_distinct": (
        "count", ("derivations.leibniz_rows", "derivations.derivation_space"),
        lambda t: t.counters.get("leibniz_rows_distinct", 0)),
    "derivations.leibniz_rows_distinct_share": (
        "ratio", ("derivations.leibniz_rows", "derivations.derivation_space"),
        lambda t: share(t.counters.get("leibniz_rows_distinct", 0),
                        t.counters.get("leibniz_rows_emitted", 0))),
    "derivations.block_kernels_s": (
        "s", ("derivations.kernel_of_rows",),
        lambda t: t.total("linalg.kernel_of_rows@derivations")),
    "derivations.blocks": (
        "count", ("derivations.kernel_of_rows",),
        lambda t: t.calls("linalg.kernel_of_rows@derivations")),
    "derivations.largest_block_cols": (
        "count", ("derivations.kernel_of_rows",),
        lambda t: t.maxima.get("largest_block_cols", 0)),
    "derivations.ad_image_s": (
        "s", ("derivations.ad_image",), lambda t: t.total("derivations.ad_image")),
    "derivations.transitivity_s": (
        "s", ("derivations.transitivity_check",),
        lambda t: t.total("derivations.transitivity_check")),
    "liesuper.check_axioms_s": (
        "s", ("cli.check_axioms",), lambda t: t.total("liesuper.check_axioms")),
    "liesuper.jacobi_triples": (
        "count", ("cli.check_axioms",), lambda t: t.counters.get("jacobi_triples", 0)),
    "liesuper.model_to_json_s": (
        "s", ("cli.model_to_json",), lambda t: t.total("liesuper.model_to_json")),
    "liesuper.model_from_json_s": (
        "s", ("cli.model_from_json",), lambda t: t.total("liesuper.model_from_json")),
    "liesuper.model_bytes": (
        "count", ("cli.model_to_json", "cli.model_from_json"),
        lambda t: t.counters.get("model_bytes", 0)),
    "localcert.certify_s": (
        "s", ("cli.certify",), lambda t: t.total("localcert.certify")),
    "localcert.engine_init_s": (
        "s", ("localcert.ConstraintEngine.__init__",),
        lambda t: t.total("localcert.engine_init")),
    **{
        f"localcert.stage{k}_s": (
            "s", ("cli.certify", "localcert.ConstraintEngine.add_probes"),
            lambda t, k=k: t.total(f"localcert.stage{k}"))
        for k in range(1, 5)
    },
    "localcert.probes_used": (
        "count", ("cli.certify",), lambda t: t.counters.get("probes_used", 0)),
    "localcert.residual_after_stage1": (
        "count", ("cli.certify", "localcert.ConstraintEngine.add_probes"),
        lambda t: t.counters.get("residual_after_stage1", 0)),
    "localcert.certified_stage": (
        "count", ("cli.certify", "localcert.ConstraintEngine.matches_ad"),
        lambda t: t.maxima.get("certified_stage", 0)),
    "localcert.constraint_rows_calls": (
        "count", ("localcert.ConstraintEngine.constraint_rows",),
        lambda t: t.calls("localcert.constraint_rows")),
    "localcert.constraint_rows_empty": (
        "count", ("localcert.ConstraintEngine.constraint_rows",),
        lambda t: t.counters.get("constraint_rows_empty", 0)),
    "localcert.constraint_rows_useful_share": (
        "ratio", ("localcert.ConstraintEngine.constraint_rows",),
        lambda t: share(t.calls("localcert.constraint_rows")
                        - t.counters.get("constraint_rows_empty", 0),
                        t.calls("localcert.constraint_rows"))),
    "localcert.constraint_rows_s": (
        "s", ("localcert.ConstraintEngine.constraint_rows",),
        lambda t: t.total("localcert.constraint_rows")),
    "localcert.cuts": (
        "count", ("localcert.ConstraintEngine._cut",), lambda t: t.calls("localcert.cut")),
    "localcert.cuts_effective": (
        "count", ("localcert.ConstraintEngine._cut",),
        lambda t: t.counters.get("cuts_effective", 0)),
    "localcert.cuts_effective_share": (
        "ratio", ("localcert.ConstraintEngine._cut",),
        lambda t: share(t.counters.get("cuts_effective", 0), t.calls("localcert.cut"))),
    "localcert.cut_s": (
        "s", ("localcert.ConstraintEngine._cut",), lambda t: t.total("localcert.cut")),
    "localcert.annihilator_s": (
        "s", ("localcert.kernel_of_rows",),
        lambda t: t.total("linalg.kernel_of_rows@localcert")),
    "localcert.matches_ad_s": (
        "s", ("localcert.ConstraintEngine.matches_ad",),
        lambda t: t.total("localcert.matches_ad")),
    "localcert.twolocal_s": (
        "s", ("cli.certify_2local",), lambda t: t.total("localcert.certify_2local")),
    "localcert.twolocal_pairs": (
        "count", ("cli.certify_2local",), lambda t: t.counters.get("twolocal_pairs", 0)),
    "families.build_s": ("s", ("cli.build",), lambda t: t.total("families.build")),
    "families.build_lprime_s": (
        "s", ("cli.build_lprime",), lambda t: t.total("families.build_lprime")),
    "families.attach_derived_s": (
        "s", ("cli.attach_derived",), lambda t: t.total("families.attach_derived")),
    "families.w_bracket_s": (
        "s", ("families.w_bracket",), lambda t: t.total("families.w_bracket")),
    "families.w_bracket_calls": (
        "count", ("families.w_bracket",), lambda t: t.calls("families.w_bracket")),
    "linalg.kernel_of_rows_derivations_calls": (
        "count", ("derivations.kernel_of_rows",),
        lambda t: t.calls("linalg.kernel_of_rows@derivations")),
    "linalg.kernel_of_rows_derivations_s": (
        "s", ("derivations.kernel_of_rows",),
        lambda t: t.total("linalg.kernel_of_rows@derivations")),
    "linalg.kernel_of_rows_localcert_calls": (
        "count", ("localcert.kernel_of_rows",),
        lambda t: t.calls("linalg.kernel_of_rows@localcert")),
    "linalg.kernel_of_rows_localcert_s": (
        "s", ("localcert.kernel_of_rows",),
        lambda t: t.total("linalg.kernel_of_rows@localcert")),
    "linalg.rref_s": ("s", ("localcert.rref",), lambda t: t.total("linalg.rref@localcert")),
    "linalg.solve_s": ("s", ("localcert.solve",), lambda t: t.total("linalg.solve@localcert")),
    "linalg.span_express_calls": (
        "count", ("linalg.SpanSolver.express",), lambda t: t.calls("linalg.span_express")),
    "linalg.span_express_s": (
        "s", ("linalg.SpanSolver.express",), lambda t: t.total("linalg.span_express")),
    **{
        f"{layer}.self_s": ("s", ("cli.main",), lambda t, layer=layer: t.layer_self.get(layer, 0.0))
        for layer in ("cli", "families", "exterior", "liesuper", "derivations",
                      "localcert", "linalg", "trace")
    },
    "cli.import_s": ("s", (), lambda t: t.import_s),
}
# job-level metrics of the trace run, from the plain and traced job times
JOB_METRICS = {
    "cli.write_s": "s",
    "cli.read_s": "s",
    "trace.overhead_pct": "%",
}


# ---------------------------------------------------------------------------
# the two kinds of run


class Run:
    def __init__(self, args, work: Path, expected: dict):
        self.args = args
        self.work = work
        self.expected = expected
        self.start = time.monotonic()
        self.deadline = self.start + DEADLINE_S
        self.jobs = make_jobs(args.workload, args.seed, work, args.quick)
        self.attempted = 0
        self.failed = 0
        self.lines: List[str] = []
        self.last_calibration = 0.0

    def calibrated(self, raw: float) -> float:
        """raw seconds scaled to the speed at which calibration_work() takes
        CALIBRATION_S, judged from its runs just before and just after the
        timed process."""
        before, after = self.last_calibration, calibration_work()
        self.last_calibration = after
        return raw * CALIBRATION_S * 2 / (before + after)

    def job(self, job: Job, traced: bool = False) -> Result:
        r = run_job(job, self.work, self.expected, self.deadline, traced)
        self.attempted += 1
        if r.why:
            self.failed += 1
            print(f"FAILED {job.id}: {r.why}", file=sys.stderr)
        return r

    def passes(self, one_pass: Callable[[], None]) -> int:
        """Repeat one_pass until --seconds have passed (at least once),
        never starting one that would overrun the deadline."""
        t0 = time.monotonic()
        done = 0
        while True:
            p0 = time.monotonic()
            one_pass()
            done += 1
            now = time.monotonic()
            if now - t0 >= self.args.seconds or now + (now - p0) > self.deadline - 5:
                return done

    def untraced(self) -> Dict[str, float]:
        _, models = WORKLOADS[self.args.workload]
        models = QUICK_MODELS if self.args.quick else models
        self.last_calibration = calibration_work()
        setups = []
        for _ in range(SETUP_REPEATS):
            wall, ok = run_setup(self.args.workload, models, self.work, self.expected,
                                 self.deadline)
            setups.append(self.calibrated(wall))
            self.attempted += 1
            self.failed += not ok

        # per pass: (job, raw seconds, calibrated seconds, max RSS)
        passes: List[List[Tuple[Job, float, float, float]]] = []

        def one_pass() -> None:
            results = []
            for job in self.jobs:
                r = self.job(job)
                results.append((job, r.wall, self.calibrated(r.wall), r.rss_mb))
            passes.append(results)

        self.passes(one_pass)
        for k, results in enumerate(passes, start=1):
            self.lines.append(
                f"  pass {k}: raw {sum(r[1] for r in results):.3f} s, calibrated "
                f"{sum(r[2] for r in results):.3f} s: "
                + ", ".join(f"{job.id} {raw:.3f}/{cal:.3f}" for job, raw, cal, _ in results))
        write = [sum(r[2] for r in rs if r[0].id.startswith("build ")) for rs in passes]
        read = [sum(r[2] for r in rs if "--model" in r[0].argv) for rs in passes]
        # printed, not gated: one 3-8 s process spread by up to 22% over ten runs
        text = {"slowest_job_s": statistics.median(max(r[2] for r in rs) for rs in passes)}
        if any(write):
            text["write_s"] = statistics.median(write)
            text["read_s"] = statistics.median(read)
        self.lines += [f"  {name:<40} {value:14.4f} s" for name, value in text.items()]
        return {
            "wall_s": statistics.median(sum(r[2] for r in rs) for rs in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(r[3] for rs in passes for r in rs),
        }

    def traced(self) -> Dict[str, float]:
        per_pass: List[Dict[str, float]] = []
        absent: set = set()

        def one_pass() -> None:
            trace = Trace()
            plain = traced = write = read = 0.0
            for k, job in enumerate(self.jobs):
                # alternate which side runs first, so that drift cancels
                order = (False, True) if k % 2 == 0 else (True, False)
                for side in order:
                    r = self.job(job, traced=side)
                    if side:
                        traced += r.wall
                        if r.trace is not None:
                            trace.add(r.trace)
                    else:
                        plain += r.wall
                        if job.id.startswith("build "):
                            write += r.wall
                        elif "--model" in job.argv:
                            read += r.wall
            absent.update(trace.absent)
            values = {"cli.write_s": write, "cli.read_s": read,
                      "trace.overhead_pct": 100.0 * (traced / plain - 1.0)}
            for name, (_, needs, get) in LAYER_METRICS.items():
                if not absent.intersection(needs):
                    values[name] = float(get(trace))
            per_pass.append(values)

        n = self.passes(one_pass)
        self.lines.append(f"  passes {n} (each job plain and traced)")
        if absent:
            self.lines.append("  absent (wrapped name not found): " + " ".join(sorted(absent)))
        return {name: statistics.median(p[name] for p in per_pass)
                for name in per_pass[0]}


def units() -> Dict[str, str]:
    out = dict(END_TO_END)
    out.update({name: spec[0] for name, spec in LAYER_METRICS.items()})
    out.update(JOB_METRICS)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true",
                        help="one small job per workload (for selftest.py)")
    parser.add_argument("--expected", type=Path, default=EXPECTED,
                        help="stored outputs to compare with (default: %(default)s)")
    args = parser.parse_args(argv)

    if not (SRC / "cartansuper" / "cli.py").is_file():
        print(f"error: no cartansuper sources under {SRC}", file=sys.stderr)
        return 2
    try:
        expected = json.loads(args.expected.read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read stored outputs {args.expected}: {exc}", file=sys.stderr)
        return 2

    # compile once, untimed, so that the first job does not pay for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "cartansuper")],
                   check=True, stdout=subprocess.DEVNULL, env=job_env())
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # one CPU for this process, the calibration and the jobs, which inherit it
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(args, work, expected)
        metrics = run.traced() if args.trace else run.untraced()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    unit = units()
    print(f"{args.workload} seed={args.seed} trace={args.trace}"
          f"{' quick' if args.quick else ''}")
    print("\n".join(run.lines))
    print(f"  {'jobs':<40} {run.attempted}")
    print(f"  {'jobs_failed':<40} {run.failed}")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:14.4f} {unit[name]}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
