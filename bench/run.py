"""risbeam benchmark: the CLI's jobs timed end to end, traced by module.

    python3 bench/run.py --workload redesign-sweep --seed 0 --seconds 25 --trace 0

Run from the root of a risbeam checkout.  With ``--trace 0`` every job
runs as its own CLI process (fresh interpreter, import, parse, compute,
CSV write) in passes over the workload, repeated until ``--seconds`` have
elapsed; the end-to-end metrics are medians over the passes.  With
``--trace 1`` the jobs run in this process, once untraced and once
traced by module (see tracing.py), followed by the reference table rows;
the result holds the per-layer metrics.  Both modes check every output
(see check.py).  The last line of stdout is the JSON result; the line
before it records the machine, the code and any failures.

Timed runs pin RIS_THREADS=1 and single-threaded BLAS: the plain
single-threaded baseline, and the only setting steady on a small shared
machine.  The traced run adds one 2-thread sweep.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import check
import selftest
import workloads

BENCH = Path(__file__).resolve().parent
RUNNER = BENCH / "cli_runner.py"
THREAD_ENV = {
    "RIS_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
# Set-up is timed this many times per run; its median is setup_s.
SETUP_REPEATS = 7
# Every child process is killed once the run has lasted this long.
RUN_LIMIT_S = 170.0


class Child:
    """One finished CLI process: exit code, stdout, wall, CPU and peak RSS."""

    def __init__(self, argv: list[str], log: Path, deadline: float) -> None:
        start = time.perf_counter()
        with open(log, "w") as out, open(log.with_suffix(".err"), "w") as err:
            proc = subprocess.Popen([sys.executable, str(RUNNER), *argv], stdout=out, stderr=err)
            watchdog = threading.Timer(max(deadline - time.perf_counter(), 1.0), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
        self.wall = time.perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stdout = log.read_text()


def _facts(root: Path) -> dict:
    src = sorted((root / "src").rglob("*.py"))
    digest = hashlib.sha256()
    for path in src:
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": commit,
        "src_lines": sum(len(p.read_text().splitlines()) for p in src),
        "src_sha256": digest.hexdigest(),
    }


def _clean(jobs, root: Path) -> None:
    for job in jobs:
        if job.out is not None:
            (root / job.out).unlink(missing_ok=True)


def untraced(jobs, root: Path, work: Path, seconds: float, digests, deadline: float):
    """Set-up repeats, then CLI passes until ``seconds`` elapse."""
    files = workloads.scenario_files(jobs)
    failures: dict[str, str] = {}
    attempted = 0

    def validate(i: int) -> float:
        nonlocal attempted
        attempted += 1
        child = Child(["validate", "--scenario", files[i % len(files)]], work / "validate.log",
                      deadline)
        if child.code != 0 or not child.stdout.startswith("ok:"):
            failures[f"validate {attempted}"] = f"{files[i % len(files)]}: exit code {child.code}"
        return child.wall

    validate(0)  # warm-up: bytecode caches and page cache
    setup = [validate(i) for i in range(SETUP_REPEATS)]

    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        _clean(jobs, root)
        t0 = time.perf_counter()
        children = {job.name: Child(list(job.argv), work / f"{job.name}.log", deadline)
                    for job in jobs}
        wall = time.perf_counter() - t0
        attempted += len(jobs)
        failed = check.check_pass(jobs, {n: (c.code, c.stdout) for n, c in children.items()},
                                  root, digests)
        failures.update({f"pass {len(passes) + 1} {n}": r for n, r in failed.items()})
        passes.append({
            "wall": wall,
            "cpu": sum(c.cpu for c in children.values()),
            "rss": max(c.rss_mb for c in children.values()),
            "jobs": {n: c.wall for n, c in children.items()},
        })

    wall = statistics.median(p["wall"] for p in passes)
    designs = sum(job.designs for job in jobs)
    rows = sum(job.rows for job in jobs)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setup),
        "cpu_s": statistics.median(p["cpu"] for p in passes),
        "peak_rss_mb": statistics.median(p["rss"] for p in passes),
        "ok_frac": 1.0 - len(failures) / attempted,
        "designs_per_s": designs / wall,
        "rx_points_per_s": rows / wall,
    }
    notes = {"passes": len(passes), "pass_wall_s": [p["wall"] for p in passes],
             "job_wall_s": {job.name: [p["jobs"][job.name] for p in passes] for job in jobs},
             "designs_per_pass": designs, "rx_points_per_pass": rows,
             "setup_samples_s": setup}
    return metrics, attempted, failures, notes


def traced(jobs, root: Path, digests):
    import tracing

    metrics, attempted, failures, absent = tracing.traced_run(
        jobs, lambda: _clean(jobs, root),
        lambda some, results: check.check_pass(some, results, root, digests))
    table = [
        f"{label:<30} ref {ref:>7g} {unit:<2}  now {metrics[name] * scale:>9.4g} {unit}"
        for name, label, scale, unit, ref in tracing.BASELINE_ROWS if name in metrics
    ]
    return metrics, attempted, failures, {"absent": sorted(absent)}, table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S

    root = Path.cwd()
    missing = [p for p in ("src/risbeam/cli.py", workloads.SCENARIO_1BIT, workloads.SCENARIO_2BIT)
               if not (root / p).is_file()]
    if missing:
        print(f"error: not a risbeam checkout (missing {', '.join(missing)}); "
              "run from the repository root", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    spec = json.loads((root / "BENCHMARK.json").read_text())

    work = root / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    jobs = workloads.build(args.workload, args.seed, root, work)
    problems = selftest.run(work)
    digests = check.load_digests(args.workload) if args.seed == 0 else None

    if args.trace:
        metrics, attempted, failures, notes, table = traced(jobs, root, digests)
        wanted = spec["per_layer"]
    else:
        metrics, attempted, failures, notes = untraced(jobs, root, work, args.seconds, digests,
                                                       deadline)
        table = []
        wanted = spec["end_to_end"]

    missing_metrics = [m["name"] for m in wanted if m["name"] not in metrics]
    for line in table:
        print(line)
    for m in wanted:
        print(f"{m['name']:<36} {metrics.get(m['name'], 0.0):>14.6g} {m['unit']}")
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "jobs": [" ".join(job.argv) for job in jobs],
        "facts": _facts(root),
        **notes,
        "absent_metrics": missing_metrics,
        "selftest_problems": problems,
        "failures": failures,
    }))
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
