#!/usr/bin/env python3
"""qnbench benchmark: time to a finished report, its memory, and its checks.

Run from the repository root::

    python3 benchmarks/run.py --workload group-orbit --seed 42 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all            # every workload, one table

One closed-loop client in this process calls ``qnbench.cli.main(argv)``
in-process, one job at a time, with stdout captured.  After a warm-up it
cycles through the workload's seeded job list (see ``workloads.py``) until
``--seconds`` have passed, always finishing one full pass.  Every output is
checked afterwards, outside the timed region (see ``checks.py``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer metrics of
``tracer.py`` plus the tracing overhead.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "job_s_p50": "s", "peak_rss_mb": "MB"}


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cap_blas_threads() -> int:
    """Keep the BLAS thread count at most the usable CPU count; must run
    before numpy is imported."""
    nproc = _nproc()
    current = os.environ.get("OPENBLAS_NUM_THREADS", "")
    cap = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
    os.environ["OPENBLAS_NUM_THREADS"] = str(cap)
    return cap


def host_facts(blas_threads: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = done.stdout.strip() or None
    return {
        "nproc": _nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "git_commit": commit,
    }


# On a shared virtual machine the host's speed drifts by up to half between
# fast and slow periods lasting from a second to minutes.  Every timed step is therefore
# accompanied by speed samples -- runs of a fixed pure-Python loop -- taken
# before and after the step and, from a SIGALRM handler, every
# SAMPLE_INTERVAL_S while it runs.  The step's time (less the samples taken
# during it) is scaled to the speed at which the loop takes
# REFERENCE_SAMPLE_S, its fastest time on the reference host (Intel Xeon,
# 2 vCPUs, Python 3.11).  Raw times are kept in the results file.
SAMPLE_ITERATIONS = 10_000
SAMPLE_INTERVAL_S = 0.1
REFERENCE_SAMPLE_S = 0.00062


def speed_sample() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(SAMPLE_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - start


def scaled(step):
    """Run ``step()``; return its result, raw seconds and seconds scaled to
    the reference speed."""
    samples = [speed_sample() for _ in range(3)]
    inside = []

    def on_alarm(signum, frame):
        inside.append(speed_sample())

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    start = time.perf_counter()
    try:
        result = step()
    finally:
        raw = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    raw -= sum(inside)
    samples += inside + [speed_sample() for _ in range(3)]
    speed = statistics.fmean(REFERENCE_SAMPLE_S / c for c in samples)
    return result, raw, raw * speed


def measure_setup_s() -> float:
    """Median scaled time for a fresh interpreter to import ``qnbench.cli``.
    One untimed import first writes the bytecode caches, as any earlier call
    would have."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import qnbench.cli"]
    subprocess.run(cmd, cwd=ROOT, env=env, check=True)
    times = []
    for _ in range(SETUP_REPEATS):
        _, _, seconds = scaled(lambda: subprocess.run(cmd, cwd=ROOT, env=env, check=True))
        times.append(seconds)
    return statistics.median(times)


@dataclasses.dataclass
class Record:
    job: object
    seconds: float  # scaled to the reference speed
    raw_seconds: float
    rc: object
    stdout: str
    error: object


def run_job(main, job) -> Record:
    """One timed call of ``main(job.argv)``; exceptions become failed records."""
    gc.collect()
    out, err = io.StringIO(), io.StringIO()

    def step():
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return main(list(job.argv)), None
        except SystemExit as exc:
            return (exc.code if isinstance(exc.code, int) else 2), None
        except Exception:  # a raising job is a failed job; the run goes on
            return None, traceback.format_exc(limit=3)

    (rc, error), raw, seconds = scaled(step)
    if error is None and rc != 0:
        error = err.getvalue().strip()[:500] or f"exit code {rc}"
    return Record(job, seconds, raw, rc, out.getvalue(), error)


def run_window(main, jobs, seconds: float):
    """Cycle through ``jobs`` for about ``seconds``: one full pass always,
    then further jobs while the next one's last time still fits.  Returns the
    records and the peak memory when the first pass ended: later passes can
    only add allocator fragmentation, and how many fit depends on speed."""
    records, last = [], {}
    start = time.perf_counter()
    i = 0
    while True:
        job = jobs[i % len(jobs)]
        if i >= len(jobs) and time.perf_counter() - start + last[job.name] > seconds:
            break
        record = run_job(main, job)
        last[job.name] = record.raw_seconds
        records.append(record)
        i += 1
        if i == len(jobs):
            first_pass_peak = peak_rss_mb()
    return records, first_pass_peak


def check_records(records, reference: dict) -> int:
    """Check every record outside the timed region; return the failure count."""
    from checks import CheckFailure, check_job

    failed = 0
    for record in records:
        if record.error is None:
            try:
                check_job(record.job, record.rc, record.stdout, reference[record.job.name])
            except CheckFailure as err:
                record.error = f"check failed: {err}"
        if record.error is not None:
            failed += 1
            sys.stderr.write(f"FAILED {record.job.name}: {record.error}\n")
    return failed


def job_medians(records, raw: bool = False) -> dict:
    samples = defaultdict(list)
    for record in records:
        samples[record.job.name].append(record.raw_seconds if raw else record.seconds)
    return {name: statistics.median(values) for name, values in samples.items()}


def tail(records):
    """Highest listed percentile with at least ten samples beyond it."""
    values = sorted(r.seconds for r in records)
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (1 - p / 100) >= 10:
            k = min(n - 1, int(p / 100 * n))
            return p, values[k], n
    return None, None, n


def exact_share(records):
    """(exact rows, rows) over the group reports of one pass."""
    seen, exact, rows = set(), 0, 0
    for record in records:
        if record.job.kind != "group" or record.job.name in seen or record.rc != 0:
            continue
        seen.add(record.job.name)
        report = json.loads(record.stdout)
        rows += len(report["gamma_ball"])
        exact += sum(1 for row in report["gamma_ball"] if row["tier"] == "exact")
    return exact, rows


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_end_to_end(main, jobs, seconds: float):
    """Untraced timed window; returns the records, metrics and result details."""
    setup_s = measure_setup_s()
    warm_up(main, jobs)
    records, first_pass_peak = run_window(main, jobs, seconds)
    medians = job_medians(records)
    metrics = {
        "setup_s": setup_s,
        "wall_s": sum(medians.values()),
        "job_s_p50": statistics.median(medians.values()),
        "peak_rss_mb": first_pass_peak,
    }
    details = {
        "job_samples_s": {name: [r.seconds for r in records if r.job.name == name]
                          for name in medians},
        "job_raw_samples_s": {name: [r.raw_seconds for r in records if r.job.name == name]
                              for name in medians},
    }
    return records, metrics, details


def measure_traced(main, jobs, workload: str, seed: int):
    """One untraced and one traced pass; returns the records, the per-layer
    metrics and result details."""
    import tracer as tracing

    warm_up(main, jobs)
    untraced = [run_job(main, job) for job in jobs]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = []
        for index, job in enumerate(jobs):
            tracer.job = index
            traced.append(run_job(main, job))
    finally:
        tracer.uninstall()
    tracer.job_scale = [r.seconds / r.raw_seconds for r in traced]
    wall_untraced = sum(r.seconds for r in untraced)
    wall_traced = sum(r.seconds for r in traced)
    metrics = tracing.per_layer_metrics(tracer, wall_traced - wall_untraced)
    (OUT / "traces").mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / "traces" / f"{workload}-seed{seed}.npz")
    details = {
        "wall_s_untraced": wall_untraced,
        "wall_s_traced": wall_traced,
        "modules": tracing.module_table(tracer),
        "functions": tracer.summary(),
    }
    return untraced + traced, metrics, details


def warm_up(main, jobs) -> None:
    for job in jobs:
        if job.warmup_argv:
            run_job(main, dataclasses.replace(job, argv=job.warmup_argv))


def print_trace_report(details: dict) -> None:
    print(f"  tracing overhead: traced {details['wall_s_traced']:.3f} s, "
          f"untraced {details['wall_s_untraced']:.3f} s")
    print("  self time by module:")
    total_self = sum(row[1] for row in details["modules"]) or 1.0
    for module, self_seconds, spans in details["modules"]:
        print(f"    {module:14s} {self_seconds:10.3f} s {100 * self_seconds / total_self:6.1f}%"
              f" {spans:10d} spans")
    print("  inclusive time by function (share of the traced pass):")
    ranked = sorted(details["functions"].items(), key=lambda kv: -kv[1]["total_s"])
    for name, entry in ranked[:12]:
        share = 100 * entry["total_s"] / details["wall_s_traced"]
        print(f"    {name:40s} {entry['total_s']:10.3f} s {share:6.1f}% {entry['calls']:10d} calls")


def run_workload(workload: str, seed: int, seconds: float, trace: bool, blas_threads: int) -> int:
    from qnbench.cli import main

    import tracer as tracing
    from checks import load_reference
    from workloads import WORKLOADS, build_jobs

    jobs = build_jobs(workload, seed, OUT / "inputs" / f"{workload}-{seed}")
    reference = load_reference(workload)
    facts = host_facts(blas_threads)
    if trace:
        records, metrics, details = measure_traced(main, jobs, workload, seed)
        units = dict(tracing.PER_LAYER)
    else:
        records, metrics, details = measure_end_to_end(main, jobs, seconds)
        units = END_TO_END_UNITS
    failed = check_records(records, reference)
    attempted = len(records)
    p, tail_s, n = tail(records)
    exact, rows = exact_share(records)
    values = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

    print(f"workload {workload} (seed {seed}): {WORKLOADS[workload]}")
    print("host " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for name, value in metrics.items():
        print(f"  {name:44s} {value:14.6g} {units[name]}")
    print(f"  {'failed_share':44s} {failed / attempted:14.6g} ratio  "
          f"({failed} of {attempted} jobs)")
    if rows:
        print(f"  {'exact_share':44s} {exact / rows:14.6g} ratio  "
              f"({exact} of {rows} gamma_ball rows)")
    if p is None:
        print(f"  {'job_s_tail':44s} {'not reported':>14s}    ({n} jobs, fewer than 11)")
    else:
        print(f"  {'job_s_tail':44s} {tail_s:14.6g} s      (p{p:g} of {n} jobs)")
    if trace:
        print_trace_report(details)
    else:
        raw = job_medians(records, raw=True)
        print(f"  unscaled: wall_s {sum(raw.values()):.4g} s, "
              f"job_s_p50 {statistics.median(raw.values()):.4g} s")

    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "host": facts, "attempted": attempted, "failed": failed, "metrics": values,
        "exact_share": {"exact": exact, "rows": rows},
        "job_s_tail": {"percentile": p, "value": tail_s, "samples": n},
        "failures": [{"job": r.job.name, "error": r.error} for r in records if r.error],
        **details,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1, default=str) + "\n", encoding="utf-8")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": values}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak memory stays per workload."""
    from workloads import WORKLOADS

    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, check=False)
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qnbench" / "cli.py").is_file():
        sys.stderr.write(f"error: {SRC / 'qnbench'} not found; run from a qnbench checkout\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    blas_threads = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import qnbench

    if Path(qnbench.__file__).resolve().parent != (SRC / "qnbench").resolve():
        sys.stderr.write(f"error: imported qnbench from {qnbench.__file__}, not {SRC}\n")
        return 2
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), blas_threads)


if __name__ == "__main__":
    sys.exit(main())
